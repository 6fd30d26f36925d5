/* Compiled lockstep LRU kernel.
 *
 * Scalar C twin of the numpy kernel in batched.py, built on demand by
 * _compiled.py with the system C compiler and loaded through ctypes.
 * Three exports: repro_lockstep_flags (the per-access loop),
 * repro_fused_multitask (the walk of a schedule built ahead: the
 * Figure 5 matrix's warm-ups) and repro_fleet_segment (round-robin
 * quanta over one shared cache, each cut as it is walked: a fleet
 * segment or a Figure 5 point).
 * The per-access loop takes either input form: precomputed rows and
 * tags (stacked banks of rows), or one column of blocks or byte
 * addresses from which it derives each access's row and tag, as the
 * schedule walk does.  It adds the batch's hits and bypasses into a
 * 2-slot counts output, so a caller that wants only totals builds no
 * per-access array.
 * All three are bit-identical to LockstepState / lockstep_run:
 *
 *   - per-row clocks: the k-th access (0-based) to a row gets
 *     timestamp clock[row] + k, and the clock advances on every
 *     access, including bypasses;
 *   - a line is valid iff its last_use is >= 0 (empty lines keep
 *     last_use -1; their tag is meaningless), so any int64 tag,
 *     negative ones included, is a real tag; a resident tag occupies
 *     exactly one valid way, so the first valid match is the only one;
 *   - the victim is the mask-candidate way with the smallest
 *     last_use, ties resolved toward the lowest way (strict <);
 *   - a miss whose mask has no candidate way inside the geometry
 *     (mask & ((1 << ways) - 1) == 0) is a counted bypass: the clock
 *     still advances, nothing fills;
 *   - the optional depth output is each access's LRU stack depth:
 *     on a hit, the number of the row's valid ways used more recently
 *     than the hit line, read before the touch (0 = the most recent);
 *     on a miss or bypass, `ways`.  LRU is a stack algorithm, so on a
 *     cold, unmasked state an access hits in every c-way cache with
 *     c > depth: one full-width pass prices every grant size.
 *
 * Search order.  Each call of a cache entry keeps a WAY_SLOTS-byte
 * table on its stack, zeroed at entry: slot row & (WAY_SLOTS - 1)
 * names the way that row last hit or filled.  step() probes that way
 * first, as a valid line (last_use >= 0), so a repeat hit costs one
 * compare; only when the probe fails does it scan the ways, once,
 * stopping at a match.  The order cannot change an outcome: every
 * state is cold, evolved by a kernel, or a copy or concatenation of
 * one, and a kernel fills a tag only on a miss, so a resident tag
 * sits in exactly one valid way and any order finds the same way.  A
 * slot that another row overwrote, or that names an empty way, only
 * sends the access to the scan.
 *
 * One-pass victim.  While it scans, step() tracks the LRU candidate
 * among the mask's ways with conditional moves (ascending ways,
 * strict <, so ties go to the lowest way), and a miss fills that way
 * without a second pass over the row.
 *
 * All pointers are passed as raw addresses (ctypes c_void_p); arrays
 * are C-contiguous int64 unless stated otherwise.  The per-access
 * input columns of repro_lockstep_flags are declared const void *
 * and read through memcpy (load_i64), because they may sit off an
 * 8-byte boundary: a memory-mapped .npz member starts wherever its
 * header ends.  Callers guarantee 1 <= ways <= 63, so a way index
 * fits a slot's byte.
 */

#include <stdint.h>
#include <string.h>

#define API __attribute__((visibility("default")))

/* Slots of the per-call way table (see "Search order" above). */
#define WAY_SLOTS 4096

/* int64 element i of a column that may sit off an 8-byte boundary; a
 * plain load on x86. */
static inline int64_t
load_i64(const void *column, int64_t i)
{
    int64_t value;
    memcpy(&value, (const char *)column + i * 8, sizeof value);
    return value;
}

/* One access against one row.  Returns 1 on hit; *bypass is set when
 * the access missed with an empty candidate mask.  Probes the way the
 * row's slot in last_way names, then scans the ways once, tracking
 * the victim (see "Search order" and "One-pass victim" above), and
 * records the way it hit or filled in the slot.  When depth is
 * non-NULL, a hit stores the line's recency rank before the touch:
 * the number of ways used more recently (empty lines keep last_use
 * -1, below any valid line's, so they never count). */
static inline int
step(int64_t row, int64_t tag, int64_t mask, int64_t ways,
     int64_t *restrict state_tags, int64_t *restrict state_use,
     int64_t *restrict state_clock, uint8_t *restrict last_way,
     int *restrict bypass, int64_t *restrict depth)
{
    int64_t *line_tags = state_tags + row * ways;
    int64_t *line_use = state_use + row * ways;
    uint8_t *slot = last_way + (row & (WAY_SLOTS - 1));
    int64_t now = state_clock[row];
    state_clock[row] = now + 1;
    int64_t way = *slot;
    if (line_tags[way] != tag || line_use[way] < 0) {
        int64_t victim = 0;
        int64_t oldest = INT64_MAX;
        for (way = 0; way < ways; way++) {
            int64_t use = line_use[way];
            if (line_tags[way] == tag && use >= 0)
                break;
            int older = (int)((mask >> way) & 1) & (use < oldest);
            oldest = older ? use : oldest;
            victim = older ? way : victim;
        }
        if (way == ways) {
            *bypass = mask == 0;
            if (mask != 0) {
                line_tags[victim] = tag;
                line_use[victim] = now;
                *slot = (uint8_t)victim;
            }
            return 0;
        }
    }
    if (depth) {
        int64_t last = line_use[way];
        int64_t newer = 0;
        for (int64_t other = 0; other < ways; other++)
            newer += line_use[other] > last;
        *depth = newer;
    }
    line_use[way] = now;
    *slot = (uint8_t)way;
    *bypass = 0;
    return 1;
}

/* The per-access loop of repro_lockstep_flags.  Always inlined, and
 * called with `values` and `depth_out` each either a literal NULL or
 * known non-NULL, so every input form and the depth output get their
 * own copy of the loop, none testing either per access. */
static inline __attribute__((always_inline)) void
flags_loop(int64_t n, const void *rows, const void *tags,
           const void *values, int64_t shift, int64_t sets_mask,
           int64_t index_bits, int64_t ways, const void *mask_bits,
           int64_t uniform_mask, int64_t *state_tags,
           int64_t *state_use, int64_t *state_clock, uint8_t *hit_out,
           uint8_t *bypass_out, uint8_t *depth_out, int64_t *counts)
{
    uint8_t last_way[WAY_SLOTS] = {0};
    int64_t ways_mask = (int64_t)((UINT64_C(1) << ways) - 1);
    int64_t hits = 0;
    int64_t bypasses = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t row, tag;
        if (values) {
            int64_t block = load_i64(values, i) >> shift;
            row = block & sets_mask;
            tag = block >> index_bits;
        } else {
            row = load_i64(rows, i);
            tag = load_i64(tags, i);
        }
        int64_t mask =
            (mask_bits ? load_i64(mask_bits, i) : uniform_mask) &
            ways_mask;
        int bypass = 0;
        int64_t depth = ways;
        int hit = step(row, tag, mask, ways, state_tags, state_use,
                       state_clock, last_way, &bypass,
                       depth_out ? &depth : 0);
        hits += hit;
        bypasses += bypass;
        if (hit_out)
            hit_out[i] = (uint8_t)hit;
        if (bypass_out)
            bypass_out[i] = (uint8_t)bypass;
        if (depth_out)
            depth_out[i] = (uint8_t)depth;
    }
    if (counts) {
        counts[0] += hits;
        counts[1] += bypasses;
    }
}

/* The per-access entry, in either input form.  With values NULL the
 * caller passes each access's row and tag (stacked banks of rows).
 * Otherwise rows/tags are ignored and values holds one block or byte
 * address per access: the loop derives block = value >> shift,
 * row = block & sets_mask and tag = block >> index_bits, as
 * repro_fused_multitask does, so the caller builds no per-access
 * column.  mask_bits may be NULL (then uniform_mask applies to every
 * access); hit_out / bypass_out / depth_out / counts may each be
 * NULL.  depth_out gets one LRU stack depth per access: a hit's
 * recency rank among its row's valid ways (0 = most recently used),
 * `ways` on a miss or bypass.  The hit scan stops at the first match,
 * so the rank costs one more pass over the ways, on hits only.
 * counts[0] and counts[1] have the batch's hits and bypasses added to
 * them.  Callers guarantee 0 <= shift, index_bits <= 63 and that
 * every row is below the state's row count. */
API void
repro_lockstep_flags(int64_t n, const void *rows, const void *tags,
                     const void *values, int64_t shift,
                     int64_t sets_mask, int64_t index_bits,
                     int64_t ways, const void *mask_bits,
                     int64_t uniform_mask,
                     int64_t *state_tags, int64_t *state_use,
                     int64_t *state_clock, uint8_t *hit_out,
                     uint8_t *bypass_out, uint8_t *depth_out,
                     int64_t *counts)
{
    if (values && depth_out)
        flags_loop(n, 0, 0, values, shift, sets_mask, index_bits, ways,
                   mask_bits, uniform_mask, state_tags, state_use,
                   state_clock, hit_out, bypass_out, depth_out, counts);
    else if (values)
        flags_loop(n, 0, 0, values, shift, sets_mask, index_bits, ways,
                   mask_bits, uniform_mask, state_tags, state_use,
                   state_clock, hit_out, bypass_out, 0, counts);
    else if (depth_out)
        flags_loop(n, rows, tags, 0, 0, 0, 0, ways, mask_bits,
                   uniform_mask, state_tags, state_use, state_clock,
                   hit_out, bypass_out, depth_out, counts);
    else
        flags_loop(n, rows, tags, 0, 0, 0, 0, ways, mask_bits,
                   uniform_mask, state_tags, state_use, state_clock,
                   hit_out, bypass_out, 0, counts);
}

/* Fused schedule walk: simulates a round-robin quantum schedule
 * straight off the per-job block arrays, without materializing the
 * interleaved access stream.  Segment s runs seg_len[s] accesses of
 * job seg_jobs[s], walking that job's blocks circularly from
 * seg_pos[s] (matching (pos + k) % length in the schedule's stream
 * gather).  blocks is the per-job arrays concatenated in job order
 * (job_offsets / job_lengths index it).  Per-job HITS accumulate into
 * job_hits (a job's misses, bypasses included, are its scheduled
 * accesses minus its hits).  The Figure 5 matrix's warm-ups run here,
 * each job's whole trace per segment; its points and the fleet's
 * segments run in repro_fleet_segment. */
API void
repro_fused_multitask(int64_t n_segments, const int64_t *seg_jobs,
                      const int64_t *seg_pos, const int64_t *seg_len,
                      const int64_t *job_offsets,
                      const int64_t *job_lengths, const void *blocks,
                      int32_t blocks_is32, const int64_t *mask_table,
                      int64_t sets_mask, int64_t index_bits,
                      int64_t ways, int64_t *state_tags,
                      int64_t *state_use, int64_t *state_clock,
                      int64_t *job_hits)
{
    int64_t ways_mask = (int64_t)((UINT64_C(1) << ways) - 1);
    const int32_t *blocks32 = (const int32_t *)blocks;
    const int64_t *blocks64 = (const int64_t *)blocks;
    uint8_t last_way[WAY_SLOTS] = {0};
    for (int64_t s = 0; s < n_segments; s++) {
        int64_t job = seg_jobs[s];
        int64_t length = job_lengths[job];
        int64_t base = job_offsets[job];
        int64_t index = seg_pos[s] % length;
        int64_t count = seg_len[s];
        int64_t mask = mask_table[job] & ways_mask;
        int64_t hits = 0;
        for (int64_t k = 0; k < count; k++) {
            int64_t block = blocks_is32
                                ? (int64_t)blocks32[base + index]
                                : blocks64[base + index];
            index++;
            if (index == length)
                index = 0;
            int bypass = 0;
            hits += step(block & sets_mask, block >> index_bits, mask,
                         ways, state_tags, state_use, state_clock,
                         last_way, &bypass, 0);
        }
        job_hits[job] += hits;
    }
}

/* Smallest index in [low, n) whose cumulative count reaches value.
 * Gallops from low (probes low, low + 1, low + 3, low + 7, ...) and
 * then bisects the bracket, so the cost grows with the log of the
 * distance from low, not of n.  Callers guarantee
 * cumulative[n - 1] >= value. */
static inline int64_t
gallop_left(const int64_t *cumulative, int64_t n, int64_t low,
            int64_t value)
{
    if (cumulative[low] >= value)
        return low;
    /* Invariant: cumulative[low] < value. */
    int64_t stride = 1;
    int64_t high = low + 1;
    for (;;) {
        if (high >= n - 1) {
            high = n - 1;
            break;
        }
        if (cumulative[high] >= value)
            break;
        low = high;
        stride <<= 1;
        high = low + stride;
    }
    /* cumulative[low] < value <= cumulative[high] */
    while (high - low > 1) {
        int64_t mid = low + (high - low) / 2;
        if (cumulative[mid] < value)
            low = mid;
        else
            high = mid;
    }
    return high;
}

/* One quantum of `amount` instructions from `position`, cut by
 * single_quantum's formula in sim/multitask.py: it ends at the first
 * access whose cumulative count, across wraps, reaches the
 * pass-relative target, its final access running whole.  Writes the
 * accesses it performs, the instructions it runs and the trace wraps
 * it causes; returns the position the next quantum starts from.  The
 * end is found by galloping from the cursor, or from 0 once the
 * quantum crosses the end of the trace.  cumulative[i] counts the
 * instructions of accesses 0..i of one pass (strictly increasing:
 * every access costs at least one instruction).  Callers guarantee
 * n >= 1, cumulative[n - 1] >= n, 0 <= position < n and
 * 1 <= amount <= INT64_MAX - cumulative[n - 1]. */
static inline int64_t
cut_quantum(const int64_t *cumulative, int64_t n, int64_t position,
            int64_t amount, int64_t *accesses, int64_t *ran,
            int64_t *wraps)
{
    int64_t total = cumulative[n - 1];
    int64_t done = position ? cumulative[position - 1] : 0;
    int64_t target = done + amount;
    int64_t passes = (target - 1) / total;
    int64_t within = target - passes * total; /* in [1, total] */
    int64_t end = gallop_left(cumulative, n, passes ? 0 : position,
                              within);
    int64_t next = end + 1;
    int64_t wrapped = next >= n;
    *accesses = passes * n + next - position;
    *ran = passes * total + cumulative[end] - done;
    *wraps = passes + wrapped;
    return wrapped ? 0 : next;
}

/* Columns of repro_fleet_segment's per-resident table, one int64 row
 * a resident.  The first four are read: the addresses of its block
 * and cumulative-instruction columns (C-contiguous int64, `length`
 * entries each) and its replacement mask.  The cursor is read and
 * advanced; the five counts are added to. */
enum {
    RESIDENT_BLOCKS,
    RESIDENT_CUMULATIVE,
    RESIDENT_LENGTH,
    RESIDENT_MASK,
    RESIDENT_CURSOR,
    RESIDENT_INSTRUCTIONS,
    RESIDENT_ACCESSES,
    RESIDENT_WRAPS,
    RESIDENT_QUANTA,
    RESIDENT_HITS,
    RESIDENT_FIELDS
};

/* Multiplier of the working-set signature's hash (the detector's
 * working_set_signature in runtime/detector.py). */
#define SIGNATURE_HASH UINT64_C(0x9E3779B97F4A7C15)

/* Round-robin quanta over one shared cache, each cut as it runs: a
 * fleet segment, or a Figure 5 point.  From resident start_at, each
 * turn cuts one quantum of min(quantum, cap - executed) instructions
 * from that resident's cursor (cut_quantum) and walks those accesses
 * through step() at once, under the resident's mask, until
 * executed >= budget.  The fleet passes its budget as cap, so only
 * the final quantum can be cut short (a full one runs at least
 * `quantum` instructions): quantum_schedule's window in
 * sim/multitask.py.  The Figure 5 matrix passes INT64_MAX, so every
 * quantum runs whole, as MultitaskSimulator.run runs it.  No schedule
 * is built either way.
 *
 * Each turn adds the resident's instructions, accesses, wraps, one
 * quantum and its hits to its row of `residents_table` and moves its
 * cursor.  When signatures is non-NULL, each access also sets bucket
 * ((uint64)block * SIGNATURE_HASH) % signature_bits of its resident's
 * signature row (ceil(signature_bits / 8) bytes a row, bucket b is
 * bit b % 8 of byte b / 8): the working-set signature of the circular
 * window the resident ran.  When hit_flags is non-NULL, one uint8 hit
 * flag per access is written in schedule order; every access costs at
 * least one instruction and, with the budget as cap, the walk stops at
 * the first access that reaches the budget, so `budget` bytes hold
 * them all.
 *
 * outcome gets the instructions executed, the resident due next, the
 * accesses walked and -1; or, when some resident's pass total is below
 * its length (an access charged no instruction) or above
 * INT64_MAX - quantum (its target would overflow), that resident's
 * index in outcome[3], with nothing walked.  Callers guarantee
 * residents >= 1, 0 <= start_at < residents, quantum >= 1,
 * 1 <= budget <= cap, budget <= INT64_MAX - quantum - (the largest
 * pass total), signature_bits >= 1, each resident's
 * 0 <= cursor < length, and hit_flags NULL unless cap == budget. */
API void
repro_fleet_segment(int64_t residents, int64_t *residents_table,
                    int64_t start_at, int64_t quantum, int64_t budget,
                    int64_t cap, int64_t sets_mask, int64_t index_bits,
                    int64_t ways, int64_t *state_tags,
                    int64_t *state_use, int64_t *state_clock,
                    uint8_t *signatures, int64_t signature_bits,
                    uint8_t *hit_flags, int64_t *outcome)
{
    for (int64_t r = 0; r < residents; r++) {
        const int64_t *row = residents_table + r * RESIDENT_FIELDS;
        const int64_t *cumulative =
            (const int64_t *)(intptr_t)row[RESIDENT_CUMULATIVE];
        int64_t total = cumulative[row[RESIDENT_LENGTH] - 1];
        if (total < row[RESIDENT_LENGTH] || total > INT64_MAX - quantum) {
            outcome[0] = outcome[1] = outcome[2] = 0;
            outcome[3] = r;
            return;
        }
    }
    int64_t ways_mask = (int64_t)((UINT64_C(1) << ways) - 1);
    uint64_t bits = (uint64_t)signature_bits;
    /* bits - 1 when bits is a power of two, else 0 (then `%`). */
    uint64_t bucket_mask = (bits & (bits - 1)) ? 0 : bits - 1;
    int64_t row_bytes = (signature_bits + 7) / 8;
    uint8_t last_way[WAY_SLOTS] = {0};
    int64_t executed = 0;
    int64_t stream = 0;
    int64_t turn = start_at;
    while (executed < budget) {
        int64_t *row = residents_table + turn * RESIDENT_FIELDS;
        const int64_t *blocks =
            (const int64_t *)(intptr_t)row[RESIDENT_BLOCKS];
        const int64_t *cumulative =
            (const int64_t *)(intptr_t)row[RESIDENT_CUMULATIVE];
        int64_t length = row[RESIDENT_LENGTH];
        int64_t mask = row[RESIDENT_MASK] & ways_mask;
        int64_t index = row[RESIDENT_CURSOR];
        int64_t left = cap - executed;
        int64_t accesses, ran, wraps;
        row[RESIDENT_CURSOR] = cut_quantum(
            cumulative, length, index, left < quantum ? left : quantum,
            &accesses, &ran, &wraps);
        uint8_t *signature =
            signatures ? signatures + turn * row_bytes : 0;
        int64_t hits = 0;
        for (int64_t k = 0; k < accesses; k++) {
            int64_t block = blocks[index];
            index++;
            if (index == length)
                index = 0;
            int bypass = 0;
            int hit = step(block & sets_mask, block >> index_bits, mask,
                           ways, state_tags, state_use, state_clock,
                           last_way, &bypass, 0);
            hits += hit;
            if (hit_flags)
                hit_flags[stream + k] = (uint8_t)hit;
            if (signature) {
                uint64_t hashed = (uint64_t)block * SIGNATURE_HASH;
                uint64_t bucket =
                    bucket_mask ? hashed & bucket_mask : hashed % bits;
                signature[bucket >> 3] |= (uint8_t)(1u << (bucket & 7));
            }
        }
        row[RESIDENT_INSTRUCTIONS] += ran;
        row[RESIDENT_ACCESSES] += accesses;
        row[RESIDENT_WRAPS] += wraps;
        row[RESIDENT_QUANTA] += 1;
        row[RESIDENT_HITS] += hits;
        stream += accesses;
        executed += ran;
        turn = turn + 1 == residents ? 0 : turn + 1;
    }
    outcome[0] = executed;
    outcome[1] = turn;
    outcome[2] = stream;
    outcome[3] = -1;
}
