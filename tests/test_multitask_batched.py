"""Batched multitask simulation must be bit-identical to the per-quantum
round-robin simulator — every JobResult field, at every quantum shape
(per-access switching, mid-trace, multi-wrap, batch)."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.sim.engine import _compiled, multitask_batch
from repro.sim.engine.backends import compiled_available
from repro.sim.engine.batched import LockstepState, lockstep_run
from repro.sim.engine.fused import TenantBatch
from repro.sim.engine.multitask_batch import simulate_multitask_matrix
from repro.sim.multitask import (
    Job,
    MultitaskSimulator,
    quantum_tables,
    single_quantum,
    walk_tables,
)
from repro.trace.columnar import ColumnarRecorder, load_npz
from repro.trace.trace import Trace
from repro.utils.bitvector import ColumnMask


KERNELS = ["numpy"] + (["compiled"] if compiled_available() else [])

requires_compiled = pytest.mark.skipif(
    not compiled_available(), reason="compiled kernel unavailable"
)


def build_trace(rng, length, span, name):
    builder = ColumnarRecorder(name=name)
    for _ in range(length):
        builder.add_gap(int(rng.integers(0, 4)))
        builder.append(int(rng.integers(0, span)) * 2, is_write=False)
    return builder.build()


def simulate_sweep(geometry, jobs, quanta, budget, **options):
    """One variant's quantum sweep through the matrix."""
    return simulate_multitask_matrix(
        [(geometry, jobs)], quanta, budget, **options
    )[0]


def simulate_point(geometry, jobs, quantum, budget, **options):
    """One matrix point: ``MultitaskSimulator`` + ``warm_up`` +
    ``run``'s batched equivalent."""
    return simulate_sweep(geometry, jobs, [quantum], budget, **options)[0]


def result_tuple(result):
    return (
        result.instructions,
        result.accesses,
        result.hits,
        result.misses,
        result.wraps,
        result.quanta,
    )


@st.composite
def multitask_case(draw):
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    sets = draw(st.sampled_from([2, 4, 8]))
    columns = draw(st.sampled_from([2, 4, 8]))
    geometry = CacheGeometry(line_size=16, sets=sets, columns=columns)
    job_count = draw(st.integers(1, 3))
    jobs = []
    for index in range(job_count):
        length = draw(st.integers(3, 100))
        mask = None
        if draw(st.booleans()) and columns >= 2:
            start = draw(st.integers(0, columns - 1))
            width = draw(st.integers(1, columns - start))
            mask = ColumnMask.contiguous(start, width, columns)
        jobs.append(
            Job(
                name=f"job{index}",
                trace=build_trace(
                    rng, length, draw(st.sampled_from([16, 64, 512])),
                    f"job{index}",
                ),
                mask=mask,
                # Jobs below zero, including far enough down that their
                # blocks do not fit int32 while their neighbours' do.
                address_offset=draw(st.sampled_from([0, -(1 << 36)]))
                + (index << 20),
            )
        )
    quantum = draw(st.sampled_from([1, 2, 3, 7, 50, 1000, 10**6]))
    budget = draw(st.sampled_from([1, 5, 97, 1000, 20000]))
    warmup = draw(st.integers(0, 2))
    return geometry, jobs, quantum, budget, warmup


class TestBatchedMultitask:
    @given(case=multitask_case())
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_scalar(self, case):
        geometry, jobs, quantum, budget, warmup = case
        simulator = MultitaskSimulator(geometry, jobs)
        simulator.warm_up(warmup)
        reference = simulator.run(quantum, budget)
        batched = simulate_point(
            geometry, jobs, quantum, budget, warmup_passes=warmup
        )
        assert set(batched) == set(reference)
        for name in reference:
            assert result_tuple(batched[name]) == result_tuple(
                reference[name]
            ), name

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_negative_blocks_do_not_wrap_onto_small_ones(self, kernel):
        """Job a's block -2**40 + 5 must not narrow to int32 as block
        5, job b's: each job hits only its own line, 9 times in 10, in
        either job order.  With the narrow job first, numpy's stacked
        points once took their int32 buffers from it and cut job a's
        tags to b's."""
        geometry = CacheGeometry(line_size=16, sets=4, columns=2)

        def job(name, block):
            trace = Trace.from_columns(
                np.full(20, block * 16, dtype=np.int64),
                gaps=np.ones(20, dtype=np.int64),
            )
            return Job(name=name, trace=trace)

        wide_first = [job("a", -(1 << 40) + 5), job("b", 5)]
        for jobs in (wide_first, wide_first[::-1]):
            batched = simulate_point(
                geometry, jobs, 1, 40, kernel=kernel
            )
            walked = MultitaskSimulator(geometry, jobs).run(1, 40)
            for results in (batched, walked):
                counts = {
                    name: (result.accesses, result.hits)
                    for name, result in results.items()
                }
                assert counts == {"a": (10, 9), "b": (10, 9)}

    def test_tenant_batch_keeps_wide_negative_blocks(self):
        """The fused fleet batch narrows to int32 only when every
        block fits at both ends."""
        wide = TenantBatch.build(
            [np.array([-(1 << 32) + 5]), np.array([5])]
        )
        assert wide.blocks.dtype == np.int64
        assert list(wide.blocks) == [-(1 << 32) + 5, 5]
        narrow = TenantBatch.build([np.array([-(1 << 31)]), np.array([5])])
        assert narrow.blocks.dtype == np.int32

    def test_quantum_one_switches_every_access(self):
        rng = np.random.default_rng(0)
        geometry = CacheGeometry(line_size=16, sets=4, columns=4)
        jobs = [
            Job(
                name=f"j{index}",
                trace=build_trace(rng, 40, 64, f"j{index}"),
                address_offset=index << 20,
            )
            for index in range(3)
        ]
        simulator = MultitaskSimulator(geometry, jobs)
        reference = simulator.run(1, 500)
        batched = simulate_point(geometry, jobs, 1, 500)
        for name in reference:
            assert result_tuple(batched[name]) == result_tuple(
                reference[name]
            )
            # quantum 1 + every-access-costs->=1 ==> one access per quantum
            assert batched[name].quanta == batched[name].accesses

    def test_sweep_matches_per_point(self, monkeypatch):
        # Force several flushes of numpy's stacked points.
        monkeypatch.setattr(multitask_batch, "MAX_BATCH_ACCESSES", 500)
        rng = np.random.default_rng(2)
        geometry = CacheGeometry(line_size=16, sets=4, columns=4)
        jobs = [
            Job(
                name=f"j{index}",
                trace=build_trace(rng, 80, 64, f"j{index}"),
                address_offset=index << 20,
            )
            for index in range(3)
        ]
        quanta = [1, 4, 16, 64, 100_000]
        swept = simulate_sweep(
            geometry, jobs, quanta, 3000, warmup_passes=1, kernel="numpy"
        )
        assert len(swept) == len(quanta)
        for quantum, point in zip(quanta, swept):
            single = simulate_point(
                geometry, jobs, quantum, 3000, warmup_passes=1
            )
            for name in single:
                assert result_tuple(point[name]) == result_tuple(
                    single[name]
                ), (quantum, name)

    def test_matrix_shares_schedule_across_variants(self):
        rng = np.random.default_rng(7)
        small = CacheGeometry(line_size=16, sets=4, columns=4)
        large = CacheGeometry(line_size=16, sets=16, columns=4)
        traces = [build_trace(rng, 90, 128, f"j{index}") for index in range(3)]

        def make_jobs(mapped):
            jobs = []
            for index, trace in enumerate(traces):
                if not mapped:
                    mask = None
                elif index == 0:
                    mask = ColumnMask.contiguous(0, 3, 4)
                else:
                    mask = ColumnMask.contiguous(3, 1, 4)
                jobs.append(
                    Job(
                        name=f"j{index}",
                        trace=trace,
                        mask=mask,
                        address_offset=index << 20,
                    )
                )
            return jobs

        variants = [
            (small, make_jobs(False)),
            (small, make_jobs(True)),
            (large, make_jobs(False)),
            (large, make_jobs(True)),
        ]
        quanta = [1, 8, 300]
        matrix = simulate_multitask_matrix(
            variants, quanta, 2500, warmup_passes=1
        )
        for variant_index, (geometry, jobs) in enumerate(variants):
            for quantum_index, quantum in enumerate(quanta):
                simulator = MultitaskSimulator(geometry, jobs)
                simulator.warm_up(1)
                reference = simulator.run(quantum, 2500)
                point = matrix[variant_index][quantum_index]
                for name in reference:
                    assert result_tuple(point[name]) == result_tuple(
                        reference[name]
                    ), (variant_index, quantum, name)

    def test_matrix_rejects_mismatched_line_size(self):
        rng = np.random.default_rng(1)
        trace = build_trace(rng, 10, 32, "j0")
        jobs = [Job(name="j0", trace=trace)]
        variants = [
            (CacheGeometry(line_size=16, sets=4, columns=2), jobs),
            (CacheGeometry(line_size=32, sets=4, columns=2), jobs),
        ]
        with pytest.raises(ValueError, match="line size"):
            simulate_multitask_matrix(variants, [1], 10)

    def test_matrix_mixes_associativities(self):
        """Variants may differ in column count — including one above
        the int16 mask-palette threshold (regression: the palette
        dtype was chosen from variant 0 alone)."""
        rng = np.random.default_rng(7)
        trace = build_trace(rng, 600, 4096, "a")
        jobs = [Job(name="a", trace=trace)]
        variants = [
            (CacheGeometry(line_size=16, sets=8, columns=8), jobs),
            (CacheGeometry(line_size=16, sets=8, columns=16), jobs),
        ]
        matrix = simulate_multitask_matrix(variants, [32], 2_000)
        for (geometry, variant_jobs), points in zip(variants, matrix):
            simulator = MultitaskSimulator(geometry, variant_jobs)
            expected = simulator.run(32, 2_000)
            assert result_tuple(points[0]["a"]) == result_tuple(
                expected["a"]
            )

    def test_rejects_empty_jobs_and_bad_quanta(self):
        geometry = CacheGeometry(line_size=16, sets=4, columns=2)
        with pytest.raises(ValueError, match="at least one job"):
            simulate_point(geometry, [], 1, 1)
        rng = np.random.default_rng(1)
        jobs = [Job(name="j0", trace=build_trace(rng, 5, 32, "j0"))]
        with pytest.raises(ValueError, match="quantum"):
            simulate_point(geometry, jobs, 0, 10)
        with pytest.raises(ValueError, match="budget"):
            simulate_point(geometry, jobs, 1, 0)


class TestNegativeGaps:
    """An archive whose gaps are negative loads (``load_npz`` checks
    dtypes, not values); every scheduler then fails on the
    cumulative-instruction column with an error naming the trace and
    the first negative gap, on either kernel."""

    MESSAGE = r"trace 'negative': gaps\[0\] = -1; must be >= 0"
    GEOMETRY = CacheGeometry(line_size=16, sets=4, columns=2)

    @staticmethod
    def load_jobs(tmp_path, mmap=False):
        path = tmp_path / "negative.npz"
        np.savez(
            path,
            name=np.array("negative"),
            addresses=np.array([0, 16, 32], dtype=np.int64),
            sizes=np.ones(3, dtype=np.int32),
            writes=np.zeros(3, dtype=bool),
            gaps=np.full(3, -1, dtype=np.int64),
            variable_ids=np.full(3, -1, dtype=np.int64),
        )
        return [Job(name="a", trace=load_npz(path, mmap=mmap))]

    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_matrix_names_the_first_negative_gap(
        self, tmp_path, kernel, mmap
    ):
        jobs = self.load_jobs(tmp_path, mmap)
        with pytest.raises(ValueError, match=self.MESSAGE):
            simulate_multitask_matrix(
                [(self.GEOMETRY, jobs)], [1, 4], 10, kernel=kernel
            )

    def test_simulator_names_the_first_negative_gap(self, tmp_path):
        jobs = self.load_jobs(tmp_path)
        with pytest.raises(ValueError, match=self.MESSAGE):
            MultitaskSimulator(self.GEOMETRY, jobs)


class TestQuantumRange:
    """A quantum whose int64 target would overflow is refused with the
    allowed range, by one check both kernels' schedules make."""

    GEOMETRY = CacheGeometry(line_size=16, sets=4, columns=2)
    TRACE = Trace.from_columns([0, 16, 32], name="three")  # total 3

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_matrix_names_the_allowed_range(self, kernel):
        message = re.escape(
            f"quantum must be in [1, {2**63 - 4}], got {2**63 - 2}"
        )
        with pytest.raises(ValueError, match=message):
            simulate_multitask_matrix(
                [(self.GEOMETRY, [Job(name="a", trace=self.TRACE)])],
                [2**63 - 2],
                10,
                kernel=kernel,
            )

    def test_tables_accept_the_largest_quantum_and_refuse_beyond(self):
        cumulative = self.TRACE.cumulative_instructions
        largest = 2**63 - 4
        next_pos, accesses, ran, wraps = quantum_tables(
            cumulative, largest
        )
        for position in range(3):
            assert (
                next_pos[position],
                accesses[position],
                ran[position],
                wraps[position],
            ) == single_quantum(cumulative, position, largest)
        for quantum in (0, largest + 1):
            with pytest.raises(ValueError, match="quantum must be in"):
                quantum_tables(cumulative, quantum)
            with pytest.raises(ValueError, match="quantum must be in"):
                walk_tables(cumulative, quantum)


class TestWindowBeforeWarmUp:
    """Every quantum's window (a quantum and budget of at least 1, a
    quantum within ``check_quantum``'s range) is checked with the
    reference's messages on either kernel, for each quantum of the
    list, before any variant warms up."""

    GEOMETRY = CacheGeometry(line_size=16, sets=4, columns=2)
    JOBS = [Job(name="a", trace=Trace.from_columns([0, 16, 32]))]

    @pytest.mark.parametrize(
        ("quanta", "budget", "message"),
        [
            ([4, 0], 10, "quantum must be >= 1, got 0"),
            ([1], 0, "budget must be >= 1, got 0"),
            ([4, 2**63 - 2], 10, f"quantum must be in [1, {2**63 - 4}]"),
        ],
        ids=["quantum-0", "budget-0", "quantum-range"],
    )
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_matrix_checks_every_window_first(
        self, monkeypatch, kernel, quanta, budget, message
    ):
        def no_warm_up(*_args):
            raise AssertionError("warmed up before checking the window")

        monkeypatch.setattr(multitask_batch, "_WarmUp", no_warm_up)
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate_multitask_matrix(
                [(self.GEOMETRY, self.JOBS)], quanta, budget,
                warmup_passes=2, kernel=kernel,
            )


class TestNegativeWarmUp:
    """A negative warm-up pass count fails with the reference's
    message, on either kernel, before the matrix does any work."""

    MESSAGE = "passes must be >= 0, got -1"
    GEOMETRY = CacheGeometry(line_size=16, sets=4, columns=2)
    JOBS = [Job(name="a", trace=Trace.from_columns([0, 16, 32]))]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_matrix_refuses_negative_passes(self, kernel):
        with pytest.raises(ValueError, match=self.MESSAGE):
            simulate_multitask_matrix(
                [(self.GEOMETRY, self.JOBS)], [1], 10,
                warmup_passes=-1, kernel=kernel,
            )

    def test_simulator_refuses_negative_passes(self):
        simulator = MultitaskSimulator(self.GEOMETRY, self.JOBS)
        with pytest.raises(ValueError, match=self.MESSAGE):
            simulator.warm_up(-1)


class TestWideMasks:
    """Per-job masks are int64, so they name ways 0-62.  A mask naming
    a higher way (an unmasked job on 64 or more columns) is refused by
    name where the simulators read it; masks within ways 0-62 run on
    any width and match the reference."""

    @staticmethod
    def jobs(columns, mask_width):
        rng = np.random.default_rng(5)
        return [
            Job(
                name=name,
                trace=build_trace(rng, 300, 2048, name),
                mask=(
                    None
                    if mask_width is None
                    else ColumnMask.contiguous(
                        index * mask_width, mask_width, columns
                    )
                ),
                address_offset=index << 20,
            )
            for index, name in enumerate(("a", "b"))
        ]

    @pytest.mark.parametrize("columns", [64, 100])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_matrix_names_the_job_and_its_highest_way(
        self, columns, kernel
    ):
        geometry = CacheGeometry(line_size=16, sets=2, columns=columns)
        message = re.escape(
            f"job 'a' mask names way {columns - 1}; per-job masks "
            f"name ways 0-62"
        )
        with pytest.raises(ValueError, match=message):
            simulate_multitask_matrix(
                [(geometry, self.jobs(columns, None))], [4], 100,
                kernel=kernel,
            )

    @pytest.mark.parametrize("columns", [64, 100])
    def test_simulator_names_the_job_and_its_highest_way(self, columns):
        geometry = CacheGeometry(line_size=16, sets=2, columns=columns)
        with pytest.raises(ValueError, match="job 'a' mask names way"):
            MultitaskSimulator(geometry, self.jobs(columns, None))

    @requires_compiled
    def test_compiled_matrix_mixes_8_and_100_ways(self):
        """A compiled matrix with a 100-way variant (wider than the C
        walk's 63 ways) runs wholly on numpy, the 8-way variant
        included, and matches the reference on both."""
        narrow = CacheGeometry(line_size=16, sets=4, columns=8)
        wide = CacheGeometry(line_size=16, sets=4, columns=100)
        variants = [(narrow, self.jobs(8, 4)), (wide, self.jobs(100, 31))]
        quanta = [1, 16, 500]
        matrix = simulate_multitask_matrix(
            variants, quanta, 3_000, warmup_passes=1, kernel="compiled"
        )
        for (geometry, jobs), points in zip(variants, matrix):
            for quantum, point in zip(quanta, points):
                simulator = MultitaskSimulator(geometry, jobs)
                simulator.warm_up(1)
                reference = simulator.run(quantum, 3_000)
                for name in reference:
                    assert result_tuple(point[name]) == result_tuple(
                        reference[name]
                    ), (geometry.columns, quantum, name)


class TestMatrixKernels:
    """Both ways the matrix walks its points, pinned: numpy's stacked
    lockstep calls and the compiled segment walk with no cap, one call
    per point (the session default picks only one of them)."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @given(case=multitask_case())
    @settings(max_examples=25, deadline=None)
    def test_matrix_matches_scalar_on_each_kernel(self, case, kernel):
        geometry, jobs, quantum, budget, warmup = case
        larger = CacheGeometry(
            line_size=geometry.line_size,
            sets=geometry.sets * 4,
            columns=geometry.columns,
        )
        variants = [(geometry, jobs), (larger, jobs)]
        matrix = simulate_multitask_matrix(
            variants, [quantum], budget, warmup_passes=warmup,
            kernel=kernel,
        )
        for variant_index, (variant_geometry, variant_jobs) in enumerate(
            variants
        ):
            simulator = MultitaskSimulator(variant_geometry, variant_jobs)
            simulator.warm_up(warmup)
            reference = simulator.run(quantum, budget)
            point = matrix[variant_index][0]
            assert set(point) == set(reference)
            for name in reference:
                assert result_tuple(point[name]) == result_tuple(
                    reference[name]
                ), (variant_index, name)

    @requires_compiled
    def test_schedule_count_adds_the_walk_hits(self):
        """The compiled schedule walk, under both its names, adds each
        job's hits to ``job_hits``; the hits and the final state agree
        with a numpy lockstep run over the materialized circular
        stream."""
        rng = np.random.default_rng(11)
        geometry = CacheGeometry(line_size=16, sets=8, columns=4)
        sets_mask = geometry.sets - 1
        index_bits = geometry.index_bits
        lengths = np.array([37, 5, 64], dtype=np.int64)
        offsets = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(lengths)[:-1])
        )
        blocks = rng.integers(0, 256, int(lengths.sum())).astype(np.int64)
        mask_table = np.array([0b0011, 0b0100, 0b1111], dtype=np.int64)
        # Segments wrap past each job's end (job 1 several times).
        seg_jobs = np.array([0, 1, 2, 0, 1, 2, 1], dtype=np.int64)
        seg_pos = np.array([30, 3, 0, 4, 2, 60, 0], dtype=np.int64)
        seg_len = np.array([20, 17, 64, 9, 1, 11, 12], dtype=np.int64)

        stream = np.concatenate(
            [
                offsets[job] + (position + np.arange(count)) % lengths[job]
                for job, position, count in zip(seg_jobs, seg_pos, seg_len)
            ]
        )
        stream_jobs = np.repeat(seg_jobs, seg_len)
        stream_blocks = blocks[stream]
        expected = LockstepState.cold(geometry.sets, geometry.columns)
        expected_flags, _ = lockstep_run(
            stream_blocks & np.int64(sets_mask),
            stream_blocks >> np.int64(index_bits),
            expected,
            mask_bits=mask_table[stream_jobs],
            backend="numpy",
        )
        expected_hits = np.bincount(
            stream_jobs, weights=expected_flags, minlength=3
        ).astype(np.int64)

        counted = LockstepState.cold(geometry.sets, geometry.columns)
        carried = np.array([1, 2, 3], dtype=np.int64)
        counted_hits = carried.copy()
        _compiled.schedule_count_compiled(
            seg_jobs, seg_pos, seg_len, offsets, lengths, blocks,
            mask_table, counted,
            sets_mask=sets_mask, index_bits=index_bits,
            job_hits=counted_hits,
        )
        walked = LockstepState.cold(geometry.sets, geometry.columns)
        job_hits = np.zeros(3, dtype=np.int64)
        _compiled.fused_multitask_compiled(
            seg_jobs, seg_pos, seg_len, offsets, lengths, blocks,
            mask_table, walked,
            sets_mask=sets_mask, index_bits=index_bits, job_hits=job_hits,
        )

        assert np.array_equal(job_hits, expected_hits)
        assert np.array_equal(counted_hits, carried + expected_hits)
        for state in (counted, walked):
            assert np.array_equal(state.tags, expected.tags)
            assert np.array_equal(state.last_use, expected.last_use)
            assert np.array_equal(state.clock, expected.clock)
