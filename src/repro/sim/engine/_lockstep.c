/* Compiled lockstep LRU kernel.
 *
 * Scalar C twin of the numpy kernel in batched.py, built on demand by
 * _compiled.py with the system C compiler and loaded through ctypes.
 * Three exports: repro_lockstep_flags (the per-access loop),
 * repro_fused_multitask (the schedule walk) and repro_quantum_orbit
 * (one job's quantum-by-quantum schedule, which touches no cache).
 * The per-access loop takes either input form: precomputed rows and
 * tags (stacked banks of rows), or one column of blocks or byte
 * addresses from which it derives each access's row and tag, as the
 * schedule walk does.  It adds the batch's hits and bypasses into a
 * 2-slot counts output, so a caller that wants only totals builds no
 * per-access array.
 * The two cache entries are bit-identical to LockstepState /
 * lockstep_run:
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
 * All pointers are passed as raw addresses (ctypes c_void_p); arrays
 * are C-contiguous int64 unless stated otherwise.  Callers guarantee
 * 1 <= ways <= 63.
 */

#include <stdint.h>

#define API __attribute__((visibility("default")))

/* One access against one row.  Returns 1 on hit; *bypass is set when
 * the access missed with an empty candidate mask.  When depth is
 * non-NULL, a hit stores the line's recency rank before the touch:
 * the number of ways used more recently (empty lines keep last_use
 * -1, below any valid line's, so they never count). */
static inline int
step(int64_t row, int64_t tag, int64_t mask, int64_t ways,
     int64_t *restrict state_tags, int64_t *restrict state_use,
     int64_t *restrict state_clock, int *restrict bypass,
     int64_t *restrict depth)
{
    int64_t *line_tags = state_tags + row * ways;
    int64_t *line_use = state_use + row * ways;
    int64_t now = state_clock[row];
    state_clock[row] = now + 1;
    for (int64_t way = 0; way < ways; way++) {
        if (line_tags[way] == tag && line_use[way] >= 0) {
            if (depth) {
                int64_t last = line_use[way];
                int64_t newer = 0;
                for (int64_t other = 0; other < ways; other++)
                    newer += line_use[other] > last;
                *depth = newer;
            }
            line_use[way] = now;
            *bypass = 0;
            return 1;
        }
    }
    if (mask == 0) {
        *bypass = 1;
        return 0;
    }
    int64_t victim = 0;
    int64_t best = INT64_MAX;
    for (int64_t way = 0; way < ways; way++) {
        if (((mask >> way) & 1) && line_use[way] < best) {
            best = line_use[way];
            victim = way;
        }
    }
    line_tags[victim] = tag;
    line_use[victim] = now;
    *bypass = 0;
    return 0;
}

/* The per-access loop of repro_lockstep_flags.  Always inlined, and
 * called with `values` and `depth_out` each either a literal NULL or
 * known non-NULL, so every input form and the depth output get their
 * own copy of the loop, none testing either per access. */
static inline __attribute__((always_inline)) void
flags_loop(int64_t n, const int64_t *rows, const int64_t *tags,
           const int64_t *values, int64_t shift, int64_t sets_mask,
           int64_t index_bits, int64_t ways, const int64_t *mask_bits,
           int64_t uniform_mask, int64_t *state_tags,
           int64_t *state_use, int64_t *state_clock, uint8_t *hit_out,
           uint8_t *bypass_out, uint8_t *depth_out, int64_t *counts)
{
    int64_t ways_mask = (int64_t)((UINT64_C(1) << ways) - 1);
    int64_t hits = 0;
    int64_t bypasses = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t row, tag;
        if (values) {
            int64_t block = values[i] >> shift;
            row = block & sets_mask;
            tag = block >> index_bits;
        } else {
            row = rows[i];
            tag = tags[i];
        }
        int64_t mask =
            (mask_bits ? mask_bits[i] : uniform_mask) & ways_mask;
        int bypass = 0;
        int64_t depth = ways;
        int hit = step(row, tag, mask, ways, state_tags, state_use,
                       state_clock, &bypass, depth_out ? &depth : 0);
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
repro_lockstep_flags(int64_t n, const int64_t *rows,
                     const int64_t *tags, const int64_t *values,
                     int64_t shift, int64_t sets_mask,
                     int64_t index_bits, int64_t ways,
                     const int64_t *mask_bits, int64_t uniform_mask,
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
 * accesses minus its hits); when hit_flags is non-NULL, one uint8 hit
 * flag per access is written in global schedule order.  The Figure 5
 * matrix and the fleet's scheduling segments both run here, a whole
 * window per call, never re-entering Python per quantum. */
API void
repro_fused_multitask(int64_t n_segments, const int64_t *seg_jobs,
                      const int64_t *seg_pos, const int64_t *seg_len,
                      const int64_t *job_offsets,
                      const int64_t *job_lengths, const void *blocks,
                      int32_t blocks_is32, const int64_t *mask_table,
                      int64_t sets_mask, int64_t index_bits,
                      int64_t ways, int64_t *state_tags,
                      int64_t *state_use, int64_t *state_clock,
                      int64_t *job_hits, uint8_t *hit_flags)
{
    int64_t ways_mask = (int64_t)((UINT64_C(1) << ways) - 1);
    const int32_t *blocks32 = (const int32_t *)blocks;
    const int64_t *blocks64 = (const int64_t *)blocks;
    int64_t stream = 0;
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
            int hit = step(block & sets_mask, block >> index_bits,
                           mask, ways, state_tags, state_use,
                           state_clock, &bypass, 0);
            hits += hit;
            if (hit_flags)
                hit_flags[stream + k] = (uint8_t)hit;
        }
        stream += count;
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

/* Closed-form quantum orbit of one job.  cumulative[i] counts the
 * instructions of accesses 0..i of one pass (strictly increasing:
 * every access costs at least one instruction).  From start, each of
 * count successive quanta of `quantum` instructions is cut by
 * single_quantum's formula in sim/multitask.py: the quantum ends at
 * the first access whose cumulative count, across wraps, reaches the
 * pass-relative target, its final access running whole.  Quantum i
 * writes its start position, accesses, instructions run and wraps;
 * the next quantum starts where it stopped.  The end is found by
 * galloping from the cursor, or from 0 once the quantum crosses the
 * end of the trace, so an orbit builds no trace-sized table.
 * Callers guarantee n >= 1, cumulative[n - 1] >= n, 0 <= start < n
 * and 1 <= quantum <= INT64_MAX - cumulative[n - 1]. */
API void
repro_quantum_orbit(const int64_t *cumulative, int64_t n,
                    int64_t quantum, int64_t start, int64_t count,
                    int64_t *positions, int64_t *accesses, int64_t *ran,
                    int64_t *wraps)
{
    int64_t total = cumulative[n - 1];
    int64_t position = start;
    for (int64_t i = 0; i < count; i++) {
        int64_t done = position ? cumulative[position - 1] : 0;
        int64_t target = done + quantum;
        int64_t passes = (target - 1) / total;
        int64_t within = target - passes * total; /* in [1, total] */
        int64_t end = gallop_left(cumulative, n, passes ? 0 : position,
                                  within);
        int64_t next = end + 1;
        int64_t wrapped = next >= n;
        positions[i] = position;
        accesses[i] = passes * n + next - position;
        ran[i] = passes * total + cumulative[end] - done;
        wraps[i] = passes + wrapped;
        position = wrapped ? 0 : next;
    }
}
