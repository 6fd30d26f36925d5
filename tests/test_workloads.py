"""Tests for the instrumented workloads: numerics and trace properties."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.arrays import TracedArray, TracedScalar
from repro.workloads.base import Workload
from repro.workloads.gzip_like import (
    GzipLikeCompressor,
    canonical_codes,
    decompress,
    distance_bucket,
    huffman_code_lengths,
    make_gzip_job,
)
from repro.workloads.kernels import Conv2D, FIRFilter, Histogram, MatrixMultiply
from repro.workloads.mpeg import (
    BLOCK_ELEMENTS,
    DequantRoutine,
    IdctRoutine,
    MPEGDecodeApp,
    PlusRoutine,
    reference_idct_2d,
)
from repro.workloads.suite import available_workloads, make_workload


class _Probe(Workload):
    """Minimal workload for base-class tests."""

    def __init__(self, **kwargs):
        super().__init__(name="probe", **kwargs)
        self.data = self.array("data", 4)

    def run(self) -> None:
        self.begin_phase("p1")
        self.data[0] = 7
        self.end_phase()
        self.begin_phase("p2")
        self.work(5)
        _ = self.data[0]
        self.end_phase()


class TestTracedStorage:
    def test_array_records_reads_and_writes(self):
        probe = _Probe()
        probe.data[1] = 42
        value = probe.data[1]
        assert value == 42
        trace = probe.builder.build()
        assert list(trace.writes) == [True, False]
        assert trace.variable_of(0) == "data"

    def test_array_addresses(self):
        probe = _Probe()
        probe.data[2] = 1
        trace = probe.builder.build()
        assert trace.addresses[0] == probe.data.variable.base + 2 * 2

    def test_array_bounds(self):
        probe = _Probe()
        with pytest.raises(IndexError, match=r"^data\[4\]: out of range "
                           r"\(size 4\)$"):
            probe.data[4] = 0
        with pytest.raises(IndexError, match=r"^data\[-1\]: out of range"):
            _ = probe.data[-1]
        assert len(probe.builder) == 0

    @pytest.mark.parametrize("index_type", [np.uint8, np.int64])
    def test_numpy_integer_index_records_the_python_address(
        self, index_type
    ):
        """``base + index * size`` is computed on Python ints: a uint8
        index of 200 into a 4-byte array records base + 800 instead of
        overflowing in the index's dtype."""
        probe = _Probe()
        wide = probe.array("wide", 256, element_size=4)
        index = index_type(200)
        wide[index] = 5
        assert wide[index] == 5
        trace = probe.builder.build()
        base = wide.variable.base
        assert trace.addresses.tolist() == [base + 800, base + 800]
        assert list(trace.writes) == [True, False]

    @pytest.mark.parametrize("index_type", [np.uint8, np.int64])
    def test_numpy_integer_index_bounds(self, index_type):
        probe = _Probe()
        with pytest.raises(IndexError, match=r"^data\[4\]: out of range "
                           r"\(size 4\)$"):
            probe.data[index_type(4)] = 0
        with pytest.raises(IndexError, match=r"^data\[200\]: out of range"):
            _ = probe.data[index_type(200)]
        assert len(probe.builder) == 0

    def test_peek_poke_untraced(self):
        probe = _Probe()
        probe.data.poke(0, 9)
        assert probe.data.peek(0) == 9
        assert len(probe.builder) == 0

    def test_load_silent(self):
        probe = _Probe()
        probe.data.load_silent([1, 2, 3, 4])
        assert list(probe.data.snapshot()) == [1, 2, 3, 4]
        assert len(probe.builder) == 0

    def test_load_silent_length_checked(self):
        probe = _Probe()
        with pytest.raises(ValueError):
            probe.data.load_silent([1, 2])

    def test_initializer_length_checked(self):
        probe = _Probe()
        with pytest.raises(ValueError, match="initializer"):
            probe.array("bad", 4, initial=[1, 2])

    def test_scalar_read_write(self):
        probe = _Probe()
        counter = probe.scalar("counter", initial=10)
        counter.add(5)
        assert counter.peek() == 15
        trace = probe.builder.build()
        assert list(trace.writes) == [False, True]  # read-modify-write

    def test_scalar_requires_single_element(self):
        probe = _Probe()
        with pytest.raises(ValueError, match="one element"):
            TracedScalar(probe.data.variable, probe.builder)

    def test_negative_base_rejected_at_construction(self):
        probe = _Probe()
        variable = SimpleNamespace(
            name="low", base=-8, element_size=2, element_count=4
        )
        with pytest.raises(ValueError, match="'low': base address"):
            TracedArray(variable, probe.builder)
        variable.element_count = 1
        with pytest.raises(ValueError, match="'low': base address"):
            TracedScalar(variable, probe.builder)

    def test_values_keep_their_dtype(self):
        probe = _Probe()
        small = probe.array("small", 2, element_size=1, dtype=np.uint8)
        small[0] = 255
        value = small[0]
        assert value == 255 and type(value) is int
        with pytest.raises(OverflowError):
            small[1] = 256
        # The failed store was recorded before numpy rejected it.
        assert len(probe.builder) == 3


class TestWorkloadBase:
    def test_phases_recorded(self):
        run = _Probe().record()
        assert [marker.label for marker in run.phases] == ["p1", "p2"]
        assert run.phases[0].start == 0
        assert run.phases[0].stop == 1

    def test_phase_trace(self):
        run = _Probe().record()
        piece = run.phase_trace("p2")
        assert len(piece) == 1
        assert piece.gaps[0] == 5

    def test_phase_trace_unknown(self):
        run = _Probe().record()
        with pytest.raises(KeyError):
            run.phase_trace("nope")

    def test_unclosed_phase_detected(self):
        class Bad(_Probe):
            def run(self):
                self.begin_phase("open")

        with pytest.raises(RuntimeError, match="unclosed"):
            Bad().record()

    def test_end_without_begin(self):
        probe = _Probe()
        with pytest.raises(RuntimeError):
            probe.end_phase()

    def test_variables_page_aligned(self):
        probe = _Probe()
        a = probe.array("a", 4)
        b = probe.array("b", 4)
        assert not probe.memory_map.shares_page(a.variable, b.variable)


class TestMPEG:
    def test_dequant_numerics(self):
        routine = DequantRoutine(blocks=2)
        original = routine.coeffs.snapshot()
        qtable = routine.qtable.snapshot()
        run = routine.record()
        out = run.outputs["coeffs"]
        for i in range(2 * BLOCK_ELEMENTS):
            expected = (original[i] * qtable[i % BLOCK_ELEMENTS] * 2) >> 1
            assert out[i] == expected

    def test_dequant_footprint_fits_2kb(self):
        run = DequantRoutine().record()
        assert run.memory_map.symbols.total_bytes() <= 2048

    def test_plus_saturates(self):
        routine = PlusRoutine(blocks=1)
        routine.pred.load_silent([250] * 64)
        routine.resid.load_silent([40] * 64)
        run = routine.record()
        assert (run.outputs["recon"] == 255).all()

    def test_plus_clamps_below_zero(self):
        routine = PlusRoutine(blocks=1)
        routine.pred.load_silent([5] * 64)
        routine.resid.load_silent([-40] * 64)
        run = routine.record()
        assert (run.outputs["recon"] == 0).all()

    def test_idct_matches_direct_form(self):
        routine = IdctRoutine(blocks=2)
        run = routine.record()
        for block in range(2):
            start = block * BLOCK_ELEMENTS
            coeffs = routine.coeffs.snapshot()[
                start:start + BLOCK_ELEMENTS
            ].reshape(8, 8)
            expected = reference_idct_2d(coeffs)
            got = run.outputs["pixels"][start:start + BLOCK_ELEMENTS]
            np.testing.assert_allclose(got.reshape(8, 8), expected,
                                       atol=1e-9)

    def test_idct_matches_scipy(self):
        scipy_fft = pytest.importorskip("scipy.fft")
        routine = IdctRoutine(blocks=1)
        run = routine.record()
        coeffs = routine.coeffs.snapshot()[:64].reshape(8, 8)
        expected = scipy_fft.idctn(coeffs, norm="ortho")
        np.testing.assert_allclose(
            run.outputs["pixels"][:64].reshape(8, 8), expected, atol=1e-9
        )

    def test_idct_exceeds_2kb(self):
        """The paper's premise: idct's data cannot fit the scratchpad."""
        run = IdctRoutine().record()
        assert run.memory_map.symbols.total_bytes() > 2048

    def test_idct_costab_is_hot(self):
        run = IdctRoutine(blocks=2).record()
        counts = {
            name: len(run.trace.positions_of(name))
            for name in run.trace.variables()
        }
        assert counts["costab"] > counts["pixels"]

    def test_app_phases(self):
        run = MPEGDecodeApp(blocks=1, frames=2).record()
        assert run.phase_labels() == ["dequant", "idct", "plus"]
        assert len(run.phases) == 6  # three per frame

    def test_app_recon_in_range(self):
        run = MPEGDecodeApp(blocks=1, frames=1).record()
        recon = run.outputs["recon"]
        assert recon.min() >= 0 and recon.max() <= 255


class TestGzip:
    def test_round_trip(self):
        workload = GzipLikeCompressor(input_bytes=512, seed=1)
        run = workload.record()
        recovered = decompress(run.outputs["compressed"])
        assert recovered == bytes(bytearray(run.outputs["original"]))

    def test_compresses_redundant_input(self):
        run = GzipLikeCompressor(input_bytes=2048, seed=0).record()
        assert len(run.outputs["compressed"]) < 2048

    def test_phases(self):
        run = GzipLikeCompressor(input_bytes=256).record()
        assert run.phase_labels() == ["lz", "huffman", "encode"]

    def test_structures_traced(self):
        run = GzipLikeCompressor(input_bytes=256).record()
        variables = set(run.trace.variables())
        assert {"input", "head", "prev", "freq_lit", "code_lit",
                "output"} <= variables

    @given(seed=st.integers(0, 30))
    @settings(max_examples=8, deadline=None)
    def test_round_trip_property(self, seed):
        run = GzipLikeCompressor(input_bytes=256, seed=seed).record()
        assert decompress(run.outputs["compressed"]) == bytes(
            bytearray(run.outputs["original"])
        )

    def test_make_gzip_job_names_and_seeds(self):
        job_a = make_gzip_job("A", input_bytes=128)
        job_b = make_gzip_job("B", input_bytes=128)
        assert job_a.name == "gzipA"
        assert job_b.name == "gzipB"
        assert not np.array_equal(
            job_a.input.snapshot(), job_b.input.snapshot()
        )


class TestHuffmanPieces:
    def test_lengths_prefix_free_budget(self):
        """Kraft inequality: sum 2^-len <= 1."""
        lengths = huffman_code_lengths([5, 9, 12, 13, 1, 0, 45])
        kraft = sum(2.0 ** -l for l in lengths if l > 0)
        assert kraft <= 1.0 + 1e-12

    def test_single_symbol(self):
        assert huffman_code_lengths([0, 7, 0]) == [0, 1, 0]

    def test_empty(self):
        assert huffman_code_lengths([0, 0]) == [0, 0]

    def test_canonical_codes_are_prefix_free(self):
        lengths = huffman_code_lengths([3, 3, 2, 2, 5, 5, 1])
        codes = canonical_codes(lengths)
        bit_strings = [
            format(codes[i], f"0{lengths[i]}b")
            for i in range(len(lengths))
            if lengths[i] > 0
        ]
        for i, first in enumerate(bit_strings):
            for j, second in enumerate(bit_strings):
                if i != j:
                    assert not second.startswith(first)

    @given(
        frequencies=st.lists(st.integers(0, 100), min_size=2, max_size=40)
    )
    @settings(max_examples=50, deadline=None)
    def test_huffman_optimal_vs_uniform(self, frequencies):
        """Huffman never beats the entropy bound nor loses to uniform."""
        total = sum(frequencies)
        if total == 0:
            return
        lengths = huffman_code_lengths(frequencies)
        cost = sum(f * l for f, l in zip(frequencies, lengths))
        used = sum(1 for f in frequencies if f > 0)
        uniform_bits = max(1, int(np.ceil(np.log2(max(used, 1)))))
        assert cost <= total * uniform_bits + 1e-9

    def test_distance_buckets(self):
        assert distance_bucket(1) == (0, 0, 0)
        assert distance_bucket(2) == (1, 0, 1)
        assert distance_bucket(3) == (1, 1, 1)
        assert distance_bucket(1024) == (10, 0, 10)
        with pytest.raises(ValueError):
            distance_bucket(0)


class TestKernels:
    def test_fir_matches_numpy(self):
        kernel = FIRFilter(signal_length=64, tap_count=8)
        signal = kernel.signal.snapshot()
        taps = kernel.taps.snapshot()
        run = kernel.record()
        expected = np.convolve(signal, taps)[:64]
        np.testing.assert_array_equal(run.outputs["output"], expected)

    def test_matmul_matches_numpy(self):
        kernel = MatrixMultiply(dimension=6)
        a = kernel.matrix_a.snapshot().reshape(6, 6)
        b = kernel.matrix_b.snapshot().reshape(6, 6)
        run = kernel.record()
        np.testing.assert_array_equal(
            run.outputs["matrix_c"].reshape(6, 6), a @ b
        )

    def test_conv2d_center_matches_manual(self):
        kernel = Conv2D(width=8, height=8)
        image = kernel.image.snapshot().reshape(8, 8)
        weights = kernel.kernel.snapshot().reshape(3, 3)
        run = kernel.record()
        result = run.outputs["result"].reshape(8, 8)
        manual = sum(
            image[3 + dy, 4 + dx] * weights[dy + 1, dx + 1]
            for dy in (-1, 0, 1)
            for dx in (-1, 0, 1)
        )
        assert result[3, 4] == manual

    def test_histogram_counts(self):
        kernel = Histogram(sample_count=256, bin_count=16)
        samples = kernel.samples.snapshot()
        run = kernel.record()
        expected = np.bincount(samples * 16 // 256, minlength=16)
        np.testing.assert_array_equal(run.outputs["bins"], expected)


class TestStreamScan:
    def test_checksum_matches_strided_sum(self):
        scan = make_workload(
            "scan", buffer_bytes=1024, stride_bytes=16, passes=2
        )
        values = scan.buffer.snapshot()
        run = scan.record()
        expected = 2 * int(values[:: scan.step].sum())
        assert int(run.outputs["checksum"][0]) == expected

    def test_scan_misses_nearly_every_access(self):
        """The polluter contract: stride >= line size means near-zero
        reuse in any cache smaller than the buffer."""
        from repro.cache.geometry import CacheGeometry
        from repro.sim.engine.batched import LockstepCache

        run = make_workload(
            "scan", buffer_bytes=8192, stride_bytes=16, passes=2
        ).record()
        geometry = CacheGeometry(line_size=16, sets=32, columns=4)
        outcome = LockstepCache(geometry).run(
            run.trace.blocks_for(geometry.offset_bits)
        )
        assert outcome.miss_rate > 0.95

    def test_stride_validation(self):
        with pytest.raises(ValueError):
            make_workload("scan", stride_bytes=1, element_size=2)
        with pytest.raises(ValueError):
            make_workload("scan", stride_bytes=3, element_size=2)


class TestSuite:
    def test_registry_complete(self):
        assert "dequant" in available_workloads()
        assert "gzip" in available_workloads()
        assert "scan" in available_workloads()

    def test_make_workload(self):
        workload = make_workload("histogram", sample_count=16)
        assert workload.name == "histogram"

    def test_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown workload"):
            make_workload("quake")

    @pytest.mark.parametrize("name", ["fir", "matmul", "conv2d", "histogram"])
    def test_all_kernels_record(self, name):
        kwargs = {
            "fir": {"signal_length": 32, "tap_count": 4},
            "matmul": {"dimension": 4},
            "conv2d": {"width": 6, "height": 6},
            "histogram": {"sample_count": 32, "bin_count": 8},
        }[name]
        run = make_workload(name, **kwargs).record()
        assert len(run.trace) > 0
        assert run.phases
