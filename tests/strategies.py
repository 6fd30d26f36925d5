"""Shared Hypothesis strategies for the differential-testing harness.

Every simulator backend in this repository models the *same* machine:
the reference :class:`~repro.cache.column_cache.ColumnCache` (the one
scalar model, driven through ``tests/oracles/column_cache.py``), the
lockstep kernel in :mod:`repro.sim.engine.batched` on its numpy and
compiled backends, :class:`~repro.sim.engine.batched.LockstepCache`,
the set shards of the replay path, the fused fleet walk and the
adaptive runtime must all produce bit-identical hit/miss streams on
any trace.  These strategies generate the random inputs the
differential suites drive them with; keeping them here means a new
backend gets the whole oracle battery by adding one test that imports
them (see ``docs/testing.md``).

Strategies:

* :func:`small_geometries` — cache shapes small enough to force
  evictions within short traces, plus the edges: a single set and the
  compiled kernel's 63-way limit.
* :func:`block_trace_cases` — (geometry, blocks, mask_bits) triples
  with skewed block distributions over the whole block domain
  (:data:`BLOCK_DOMAINS`: negative blocks, blocks up to ``2**58``),
  single-access traces and occasional empty masks.
* :func:`replay_cases` — (geometry, trace, chunk) draws whose chunk
  sizes bracket the trace length, for the replay path's streaming.
* :func:`random_workload` — a memory map + interleaved trace over
  2-5 variables plus a (scratchpad, split) layout draw, as used by
  the executor equivalence suite.
* :func:`phased_workload` — a workload whose trace rotates through
  random per-phase variable subsets (for the adaptive runtime).
"""

from __future__ import annotations

from unittest.mock import patch

import numpy as np
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.mem.layout import MemoryMap
from repro.trace.columnar import ColumnarRecorder
from repro.trace.trace import Trace
from repro.workloads import base as workload_base
from repro.workloads.base import PhaseMarker, WorkloadRun
from repro.workloads.suite import available_workloads, make_workload

from oracles.recording import TraceBuilder

#: Downsized constructor kwargs so whole-suite differential sweeps
#: stay fast; workloads not listed record at their defaults.
SUITE_SMALL_KWARGS: dict[str, dict[str, int]] = {
    "fir": {"signal_length": 256, "tap_count": 16},
    "gzip": {"input_bytes": 1024},
    "iir": {"signal_length": 512, "sections": 2},
    "packet": {"batches": 1, "rounds": 2},
    "mpeg_app": {"blocks": 2, "frames": 1},
    "conv2d": {"width": 16, "height": 16},
    "scan": {"buffer_bytes": 4096, "passes": 2},
}

#: Per-variable mask palette the suite oracle rotates through —
#: includes the empty mask, so bypasses are exercised on real traces.
MASK_PALETTE = (0b1111, 0b0011, 0b0110, 0b0000, 0b1000)


def suite_cases() -> list[tuple[str, dict[str, int]]]:
    """Every registered workload with differential-suite-sized kwargs."""
    return [
        (name, SUITE_SMALL_KWARGS.get(name, {}))
        for name in available_workloads()
    ]


def record_suite_case(
    name: str, kwargs: dict[str, int], legacy: bool = False
) -> WorkloadRun:
    """Record one suite workload via the columnar or legacy recorder.

    ``legacy=True`` swaps the list-based reference
    :class:`~oracles.recording.TraceBuilder` in for the production
    recorder for this one recording.
    """
    if legacy:
        with patch.object(workload_base, "ColumnarRecorder", TraceBuilder):
            return make_workload(name, **kwargs).record()
    return make_workload(name, **kwargs).record()


def suite_mask_bits(trace: Trace, columns: int) -> np.ndarray:
    """Deterministic per-access masks: palette rotated per variable.

    Unlabelled accesses get the full mask; every mask value is taken
    modulo the cache's column count so small geometries stay valid.
    """
    full = (1 << columns) - 1
    masks = {
        variable: MASK_PALETTE[index % len(MASK_PALETTE)] & full
        for index, variable in enumerate(trace.variables())
    }
    # One slot per name-table entry, then the full mask, which an
    # unlabelled access's id (NO_VARIABLE, -1) indexes.
    table = np.array(
        [masks.get(name, full) for name in trace.variable_names] + [full],
        dtype=np.int64,
    )
    return table[trace.variable_ids]


@st.composite
def small_geometries(draw) -> CacheGeometry:
    """Small geometries: 1-8 sets, 1-8 columns or the compiled kernel's
    63-way limit, 16/32-byte lines."""
    return CacheGeometry(
        line_size=draw(st.sampled_from([16, 32])),
        sets=draw(st.sampled_from([1, 2, 4, 8])),
        columns=draw(st.sampled_from([1, 2, 3, 4, 8, 63])),
    )


#: Where drawn block numbers live.  ``straddle`` puts blocks on both
#: sides of zero (so tag -1, the empty-line marker in cold state, is a
#: real tag); ``negative`` and ``high`` sit at the ends of the domain
#: the recorders and ``.npz`` archives can carry (blocks in
#: ``[-2**58, 2**58)``, so 32-byte-line addresses still fit int64);
#: ``far-ends`` mixes both ends in one trace.
BLOCK_DOMAINS = ("low", "straddle", "negative", "high", "far-ends")

_BLOCK_LIMIT = 1 << 58


def draw_blocks(draw, rng, geometry: CacheGeometry, length: int):
    """``length`` int64 blocks over a span a few times the cache size
    (so sets see real contention), placed in a drawn block domain."""
    span = max(geometry.total_lines * draw(st.sampled_from([1, 2, 4])), 2)
    blocks = rng.integers(0, span, length).astype(np.int64)
    domain = draw(st.sampled_from(BLOCK_DOMAINS))
    if domain == "straddle":
        blocks -= span // 2
    elif domain == "negative":
        blocks -= _BLOCK_LIMIT
    elif domain == "high":
        blocks += _BLOCK_LIMIT - span
    elif domain == "far-ends":
        blocks -= np.where(rng.random(length) < 0.5, _BLOCK_LIMIT, 0)
    return blocks


@st.composite
def block_trace_cases(draw, max_length: int = 400):
    """A (geometry, blocks, mask_bits) case for the cache oracles.

    Blocks come from :func:`draw_blocks` (single-access traces are
    drawn on purpose); each access's mask is drawn from a small
    palette (including sometimes the empty mask, which must bypass).
    """
    geometry = draw(small_geometries())
    length = draw(st.one_of(st.just(1), st.integers(1, max_length)))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    blocks = draw_blocks(draw, rng, geometry, length)
    full = (1 << geometry.columns) - 1
    palette_size = draw(st.integers(1, 4))
    include_empty = draw(st.booleans())
    palette = [draw(st.integers(0, full)) for _ in range(palette_size)]
    if not include_empty:
        palette = [bits or full for bits in palette]
    mask_bits = [
        palette[int(rng.integers(0, len(palette)))] for _ in range(length)
    ]
    return geometry, blocks.tolist(), mask_bits


@st.composite
def replay_cases(draw, max_length: int = 500):
    """A ``(geometry, trace, chunk_accesses)`` case for the replay path.

    Chunk sizes bracket the trace length (1, ``len - 1``, ``len``,
    ``len + 1`` plus a mid-trace splitter), so every chunk-boundary
    alignment the streaming path can see is produced.  The streamed
    counts must equal the one-shot run on every draw.
    """
    geometry = draw(small_geometries())
    length = draw(st.integers(1, max_length))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    addresses = draw_blocks(draw, rng, geometry, length) << np.int64(
        geometry.offset_bits
    )
    trace = Trace.from_columns(addresses, name="replay-case")
    chunk = draw(
        st.sampled_from(
            sorted(
                {1, max(length - 1, 1), length, length + 1,
                 max(length // 3, 1)}
            )
        )
    )
    return geometry, trace, chunk


@st.composite
def random_workload(draw, max_length: int = 300):
    """A random memory map + trace over 2-5 variables.

    Returns ``(run, scratchpad_columns, split_oversized)`` — the
    contract the executor equivalence suite was built on.
    """
    variable_count = draw(st.integers(2, 5))
    memory_map = MemoryMap(base=0x10000, page_size=64, page_aligned=True)
    sizes = [
        draw(st.sampled_from([32, 64, 128, 256, 640]))
        for _ in range(variable_count)
    ]
    variables = [
        memory_map.allocate_array(f"v{index}", size // 2)
        for index, size in enumerate(sizes)
    ]
    length = draw(st.integers(10, max_length))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    builder = ColumnarRecorder(name="random")
    for _ in range(length):
        variable = variables[int(rng.integers(0, variable_count))]
        index = int(rng.integers(0, variable.element_count))
        builder.add_gap(int(rng.integers(0, 3)))
        builder.append(
            variable.address_of(index),
            is_write=bool(rng.random() < 0.3),
            variable=variable.name,
        )
    run = WorkloadRun(
        name="random", trace=builder.build(), memory_map=memory_map
    )
    scratchpad = draw(st.integers(0, 4))
    split = draw(st.booleans())
    return run, scratchpad, split


#: Where a fleet tenant's disjoint 4 GiB address space may sit: the
#: usual low addresses, just below zero, or near either end of the
#: block domain — so co-resident tenants mix far-apart blocks.
TENANT_SPACE_BASES = (0, -(1 << 36), -(1 << 62), 1 << 61)


@st.composite
def fleet_scenario(draw):
    """A small multi-tenant fleet: geometry, events, scheduling knobs.

    Used by the fleet differential suite: the lockstep and reference
    executors must agree per access on any scenario this produces —
    including arrivals/departures that cut scheduling windows short,
    broker rebalances that rewrite tints mid-run, tenants placed
    anywhere in the block domain (:data:`TENANT_SPACE_BASES`), and a
    departed name arriving again with a different run (a new tenant
    under an old name).
    """
    from repro.fleet import FleetConfig, FleetEvent, FleetTrace, TenantSpec

    geometry = CacheGeometry(
        line_size=16,
        sets=draw(st.sampled_from([4, 8])),
        columns=draw(st.sampled_from([2, 4, 8])),
    )
    tenant_count = draw(st.integers(1, 3))
    horizon = draw(st.integers(1_500, 6_000))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)

    def tenant(name, index):
        memory_map = MemoryMap(
            base=0x10000, page_size=64, page_aligned=True
        )
        variables = [
            memory_map.allocate_array(
                f"t{index}v{v}", draw(st.sampled_from([16, 32, 64]))
            )
            for v in range(draw(st.integers(1, 3)))
        ]
        builder = ColumnarRecorder(name=name)
        for position in range(draw(st.integers(30, 200))):
            variable = variables[int(rng.integers(0, len(variables)))]
            builder.add_gap(int(rng.integers(0, 3)))
            builder.append(
                variable.address_of(
                    int(rng.integers(0, variable.element_count))
                ),
                is_write=bool(rng.random() < 0.2),
                variable=variable.name,
            )
        run = WorkloadRun(
            name=name, trace=builder.build(), memory_map=memory_map
        )
        return TenantSpec(
            name=name,
            run=run,
            priority=draw(st.integers(1, 3)),
            address_offset=draw(st.sampled_from(TENANT_SPACE_BASES))
            + (index << 32),
        )

    events = []
    for index in range(tenant_count):
        spec = tenant(f"tenant{index}", index)
        arrival = draw(st.integers(0, horizon // 2))
        events.append(
            FleetEvent(time=arrival, kind="arrival", spec=spec)
        )
        if draw(st.booleans()):
            departure = arrival + draw(st.integers(1, horizon))
            if departure < horizon:
                events.append(
                    FleetEvent(
                        time=departure,
                        kind="departure",
                        tenant=spec.name,
                    )
                )
                if draw(st.booleans()):
                    events.append(
                        FleetEvent(
                            time=departure + draw(st.integers(0, horizon)),
                            kind="arrival",
                            spec=tenant(spec.name, index + tenant_count),
                        )
                    )
    events.sort(key=lambda event: event.time)

    fleet = FleetTrace(
        events=tuple(events), horizon_instructions=horizon
    )
    config = FleetConfig(
        quantum_instructions=draw(st.sampled_from([16, 64, 256])),
        window_instructions=draw(st.sampled_from([256, 1024])),
        min_detect_accesses=draw(st.sampled_from([8, 64])),
    )
    return geometry, fleet, config


@st.composite
def phased_workload(draw, max_phases: int = 4):
    """A workload whose access stream rotates through phase subsets.

    Each phase interleaves a random subset of the variables (looped
    scans plus noise), so working sets genuinely shift — the input
    shape the adaptive runtime exists for.
    """
    variable_count = draw(st.integers(3, 6))
    memory_map = MemoryMap(base=0x10000, page_size=64, page_aligned=True)
    variables = [
        memory_map.allocate_array(
            f"v{index}", draw(st.sampled_from([64, 128, 256]))
        )
        for index in range(variable_count)
    ]
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    builder = ColumnarRecorder(name="phased")
    phases: list[PhaseMarker] = []
    phase_count = draw(st.integers(1, max_phases))
    for phase_index in range(phase_count):
        subset_size = draw(st.integers(1, variable_count))
        subset = [
            variables[i]
            for i in rng.choice(
                variable_count, size=subset_size, replace=False
            )
        ]
        length = draw(st.integers(20, 200))
        start = len(builder)
        for position in range(length):
            variable = subset[position % len(subset)]
            if rng.random() < 0.8:  # looped scan with some noise
                index = position % variable.element_count
            else:
                index = int(rng.integers(0, variable.element_count))
            builder.add_gap(int(rng.integers(0, 2)))
            builder.append(
                variable.address_of(index),
                is_write=bool(rng.random() < 0.2),
                variable=variable.name,
            )
        phases.append(
            PhaseMarker(f"phase{phase_index}", start, len(builder))
        )
    return WorkloadRun(
        name="phased",
        trace=builder.build(),
        memory_map=memory_map,
        phases=phases,
    )
