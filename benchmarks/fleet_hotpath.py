"""Fleet hot-path micro-benchmark: fused walks + batched pricing.

Measures the two rates the multi-tenant serving path lives on:

* **Executor segment loop** — tenant-instructions/sec through the
  fused kernel walk (closed-form :func:`quantum_schedule` + one
  :func:`fused_multitask_run` per scheduling window) against the
  legacy per-quantum-sliced arm it replaced, reimplemented here: a
  Python loop over :func:`next_quantum_slice`, per-slice block
  gathers and mask fills, one concatenation + ``lockstep_run`` per
  window.  Both arms drive the same round-robin schedule over the
  same shared lockstep state, so their per-tenant hit tallies must
  match exactly — a perf arm that changes results is a bug, and the
  benchmark fails loudly on divergence.
* **Demand-curve pricing** — admission probes/sec through
  :func:`repro.fleet.broker.demand_curves`, which prices every
  candidate grant size for every pending probe off one lockstep
  pass's stack depths, plus the memoized replay rate of the same
  probes through a warm :class:`~repro.layout.session.PlannerSession`.

The report merges into ``BENCH_fleet.json`` under a ``"hotpath"``
key, preserving whatever the fleet-service smoke already wrote.

Usage::

    PYTHONPATH=src python benchmarks/fleet_hotpath.py
    PYTHONPATH=src python benchmarks/fleet_hotpath.py --windows 512
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cache.geometry import CacheGeometry  # noqa: E402
from repro.fleet.broker import demand_curves  # noqa: E402
from repro.layout.session import PlannerSession  # noqa: E402
from repro.sim.engine import backends  # noqa: E402
from repro.sim.engine.batched import (  # noqa: E402
    LockstepState,
    lockstep_run,
)
from repro.sim.engine.fused import (  # noqa: E402
    TenantBatch,
    fused_multitask_run,
)
from repro.sim.multitask import (  # noqa: E402
    next_quantum_slice,
    quantum_schedule,
)
from repro.workloads.suite import make_workload  # noqa: E402

OUTPUT_PATH = REPO_ROOT / "BENCH_fleet.json"

#: The co-resident mix: four suite workloads sharing one cache.
TENANT_NAMES = ("gzip", "fir", "histogram", "crc32")

#: Round-robin quantum and scheduling-window sizes (instructions) —
#: the fleet daemon's undamped defaults, where per-quantum Python
#: overhead used to dominate.
QUANTUM_INSTRUCTIONS = 64
WINDOW_INSTRUCTIONS = 4096

#: Scheduling windows per measured pass (smoke size).
DEFAULT_WINDOWS = 256

#: Admission probes priced per pass: every suite tenant, twice, so
#: the batch exercises duplicate-probe collapsing too.
PRICING_REPEATS = 2

#: Best-of-N passes per arm (shared/noisy hosts).  The fused arm
#: finishes a pass in tens of milliseconds, so scheduler noise is a
#: large fraction of any single pass — take the best of several.
TRIALS = 5


def _geometry() -> CacheGeometry:
    return CacheGeometry.from_sizes(16384, line_size=16, columns=8)


class _Mix:
    """Recorded tenant traces plus disjoint equal-split grants."""

    def __init__(self, geometry: CacheGeometry):
        self.runs = [make_workload(name).record() for name in TENANT_NAMES]
        self.blocks = [
            run.trace.blocks_for(geometry.offset_bits)
            for run in self.runs
        ]
        self.cumulatives = [
            run.trace.cumulative_instructions for run in self.runs
        ]
        share = geometry.columns // len(TENANT_NAMES)
        base = (1 << share) - 1
        self.mask_table = np.array(
            [base << (share * slot) for slot in range(len(TENANT_NAMES))],
            dtype=np.int64,
        )
        self.batch = TenantBatch.build(self.blocks)


def _run_fused(
    mix: _Mix, geometry: CacheGeometry, windows: int
) -> tuple[float, np.ndarray, int]:
    """The shipped hot path: one kernel entry per scheduling window."""
    state = LockstepState.cold(geometry.sets, geometry.columns)
    positions = [0] * len(mix.runs)
    turn = 0
    hits = np.zeros(len(mix.runs), dtype=np.int64)
    instructions = 0
    start = time.perf_counter()
    for _ in range(windows):
        schedule = quantum_schedule(
            mix.cumulatives,
            positions,
            QUANTUM_INSTRUCTIONS,
            WINDOW_INSTRUCTIONS,
            turn,
        )
        outcome = fused_multitask_run(
            mix.batch,
            schedule,
            mix.mask_table,
            state,
            sets_mask=geometry.sets - 1,
            index_bits=geometry.index_bits,
        )
        hits += outcome.hits
        positions = schedule.next_positions
        turn = schedule.next_turn
        instructions += schedule.executed
    return time.perf_counter() - start, hits, instructions


def _run_legacy(
    mix: _Mix, geometry: CacheGeometry, windows: int
) -> tuple[float, np.ndarray, int]:
    """The pre-fusion arm: Python-sliced quanta, one concat per window."""
    tenants = len(mix.runs)
    state = LockstepState.cold(geometry.sets, geometry.columns)
    positions = [0] * tenants
    turn = 0
    hits = np.zeros(tenants, dtype=np.int64)
    instructions = 0
    sets_mask = geometry.sets - 1
    index_bits = geometry.index_bits
    start = time.perf_counter()
    for _ in range(windows):
        pieces: list[np.ndarray] = []
        piece_tenants: list[np.ndarray] = []
        piece_masks: list[np.ndarray] = []
        executed = 0
        while executed < WINDOW_INSTRUCTIONS:
            tenant = turn
            remaining = min(
                QUANTUM_INSTRUCTIONS, WINDOW_INSTRUCTIONS - executed
            )
            while remaining > 0:
                stop, ran = next_quantum_slice(
                    mix.cumulatives[tenant], positions[tenant], remaining
                )
                pieces.append(mix.blocks[tenant][positions[tenant]:stop])
                count = stop - positions[tenant]
                piece_tenants.append(
                    np.full(count, tenant, dtype=np.int64)
                )
                piece_masks.append(
                    np.full(
                        count,
                        int(mix.mask_table[tenant]),
                        dtype=np.int64,
                    )
                )
                remaining -= ran
                executed += ran
                positions[tenant] = stop
                if stop >= len(mix.blocks[tenant]):
                    positions[tenant] = 0
            turn = (turn + 1) % tenants
        stream = np.concatenate(pieces)
        tenant_per_access = np.concatenate(piece_tenants)
        masks = np.concatenate(piece_masks)
        miss_positions = lockstep_run(
            stream & sets_mask,
            stream >> index_bits,
            state,
            mask_bits=masks,
            collect="misses",
        )
        accesses = np.bincount(tenant_per_access, minlength=tenants)
        misses = np.bincount(
            tenant_per_access[miss_positions], minlength=tenants
        )
        hits += accesses - misses
        instructions += executed
    return time.perf_counter() - start, hits, instructions


def _measure_pricing(geometry: CacheGeometry, mix: _Mix) -> dict:
    """Batched admission pricing: cold probes/sec + warm replay."""
    probes = [
        (run, None) for run in mix.runs for _ in range(PRICING_REPEATS)
    ]
    cold_seconds = None
    warm_seconds = None
    for _ in range(TRIALS):
        session = PlannerSession()
        start = time.perf_counter()
        demand_curves(probes, geometry, session=session)
        elapsed = time.perf_counter() - start
        cold_seconds = (
            elapsed if cold_seconds is None else min(cold_seconds, elapsed)
        )
        start = time.perf_counter()
        demand_curves(probes, geometry, session=session)
        elapsed = time.perf_counter() - start
        warm_seconds = (
            elapsed if warm_seconds is None else min(warm_seconds, elapsed)
        )
    return {
        "pricing_probes": len(probes),
        "pricing_candidates_per_probe": geometry.columns,
        "pricing_probes_per_sec": round(len(probes) / cold_seconds, 1),
        "pricing_warm_probes_per_sec": round(
            len(probes) / warm_seconds, 1
        ),
    }


def measure_hotpath(windows: int = DEFAULT_WINDOWS) -> dict:
    """Time both segment-loop arms + pricing; verify identical hits."""
    geometry = _geometry()
    mix = _Mix(geometry)

    # Untimed warmup: builds the memoized walk tables, faults the
    # trace arrays in and lets the first kernel load/probe happen
    # outside the measured passes.
    _run_fused(mix, geometry, max(windows // 8, 1))
    _run_legacy(mix, geometry, max(windows // 8, 1))

    fused_seconds = None
    legacy_seconds = None
    for _ in range(TRIALS):
        elapsed, fused_hits, fused_instructions = _run_fused(
            mix, geometry, windows
        )
        fused_seconds = (
            elapsed
            if fused_seconds is None
            else min(fused_seconds, elapsed)
        )
        elapsed, legacy_hits, legacy_instructions = _run_legacy(
            mix, geometry, windows
        )
        legacy_seconds = (
            elapsed
            if legacy_seconds is None
            else min(legacy_seconds, elapsed)
        )

    if (
        not np.array_equal(fused_hits, legacy_hits)
        or fused_instructions != legacy_instructions
    ):
        raise SystemExit(
            "FLEET HOTPATH FAILED: fused and legacy arms diverged:\n"
            f"  fused  hits {fused_hits.tolist()} "
            f"instructions {fused_instructions}\n"
            f"  legacy hits {legacy_hits.tolist()} "
            f"instructions {legacy_instructions}"
        )

    fused_rate = int(fused_instructions / fused_seconds)
    legacy_rate = int(legacy_instructions / legacy_seconds)
    report = {
        "benchmark": "fleet-hotpath",
        "kernel_backend": backends.active_backend(),
        "tenants": list(TENANT_NAMES),
        "quantum_instructions": QUANTUM_INSTRUCTIONS,
        "window_instructions": WINDOW_INSTRUCTIONS,
        "windows": windows,
        "best_of": TRIALS,
        "tenant_instructions": fused_instructions,
        "fused_seconds": round(fused_seconds, 4),
        "legacy_seconds": round(legacy_seconds, 4),
        "tenant_instructions_per_sec": fused_rate,
        "legacy_tenant_instructions_per_sec": legacy_rate,
        "fused_vs_legacy_speedup": round(fused_rate / legacy_rate, 2),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    report.update(_measure_pricing(geometry, mix))
    return report


def merge_into_bench(report: dict, path: Path = OUTPUT_PATH) -> None:
    """Attach the report to BENCH_fleet.json without clobbering it."""
    payload: dict = {}
    if path.exists():
        payload = json.loads(path.read_text(encoding="utf-8"))
    payload["hotpath"] = report
    path.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--windows",
        type=int,
        default=DEFAULT_WINDOWS,
        help="scheduling windows per measured pass",
    )
    parser.add_argument(
        "--output", default=str(OUTPUT_PATH), help="merge target"
    )
    arguments = parser.parse_args(argv)
    report = measure_hotpath(arguments.windows)
    print(json.dumps(report, indent=2))
    merge_into_bench(report, Path(arguments.output))
    print(f"merged into {arguments.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
