#!/usr/bin/env python3
"""Multitasking predictability: the paper's Figure 5 story, small scale.

Three gzip jobs share one processor.  Without column mapping, job A's
CPI swings with the scheduler's time quantum (its cache contents are
destroyed by jobs B and C at every switch).  Mapped to its own columns,
job A's CPI is lower *and* nearly flat — predictable performance under
interrupts and varying quanta, which is what real-time systems need.

Run:  python examples/multitasking_predictability.py
"""

from repro.cache.geometry import CacheGeometry
from repro.sim.config import MULTITASK_TIMING
from repro.sim.engine.multitask_batch import simulate_multitask_matrix
from repro.sim.multitask import Job
from repro.utils.bitvector import ColumnMask
from repro.utils.tables import format_series
from repro.workloads.gzip_like import make_gzip_job


def jobs_for(runs, mapped):
    """Jobs A, B and C; mapped, A gets columns 0-5, B and C share 6-7."""
    jobs = []
    for index, name in enumerate("ABC"):
        mask = None
        if mapped:
            mask = (
                ColumnMask.contiguous(0, 6, 8)
                if name == "A"
                else ColumnMask.contiguous(6, 2, 8)
            )
        jobs.append(
            Job(
                name=name,
                trace=runs[name].trace,
                mask=mask,
                address_offset=index << 32,
            )
        )
    return jobs


def main() -> None:
    print("recording three gzip jobs (2 KB input each)...")
    runs = {
        name: make_gzip_job(name, input_bytes=2048, window_bits=12,
                            hash_bits=11).record()
        for name in "ABC"
    }
    geometry = CacheGeometry(line_size=16, sets=128, columns=8)  # 16 KB
    quanta = [4 ** k for k in range(0, 9, 2)]
    # Both variants and every quantum in one matrix: each variant warms
    # up once (one pass of every job), then each point runs 150,000
    # instructions of round robin.
    matrix = simulate_multitask_matrix(
        [(geometry, jobs_for(runs, False)), (geometry, jobs_for(runs, True))],
        quanta,
        150_000,
        warmup_passes=1,
    )
    shared, mapped = (
        [round(point["A"].cpi(MULTITASK_TIMING), 3) for point in points]
        for points in matrix
    )
    print()
    print(
        format_series(
            "quantum",
            quanta,
            {"shared CPI": shared, "mapped CPI": mapped},
            title="job A, 16 KB cache, 3-job round robin",
        )
    )
    spread = max(shared) - min(shared)
    spread_mapped = max(mapped) - min(mapped)
    print()
    print(f"CPI spread across quanta: shared={spread:.3f}, "
          f"mapped={spread_mapped:.3f}")
    print("column mapping makes job A's performance predictable.")


if __name__ == "__main__":
    main()
