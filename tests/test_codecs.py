"""Tests for the codec workloads: CRC32, ADPCM, IIR."""

import numpy as np
import pytest

from repro.workloads.codecs import (
    ADPCMEncoder,
    CRC32,
    IIRCascade,
    crc32_table,
)

from oracles.numerics import adpcm_decode, reference_crc32, reference_iir


class TestCRC32:
    def test_matches_zlib(self):
        zlib = pytest.importorskip("zlib")
        workload = CRC32(message_bytes=512, seed=3)
        message = bytes(bytearray(workload.message.snapshot()))
        run = workload.record()
        assert run.outputs["crc"][0] == zlib.crc32(message)

    def test_matches_bitwise_reference(self):
        workload = CRC32(message_bytes=128, seed=1)
        message = bytes(bytearray(workload.message.snapshot()))
        run = workload.record()
        assert run.outputs["crc"][0] == reference_crc32(message)

    def test_table_is_hot(self):
        run = CRC32(message_bytes=256).record()
        table_accesses = len(run.trace.positions_of("crc_table"))
        assert table_accesses == 256  # one lookup per byte

    def test_table_values(self):
        table = crc32_table()
        assert table[0] == 0
        assert table[1] == 0x77073096  # well-known constant

    def test_trace_structure(self):
        run = CRC32(message_bytes=64).record()
        assert set(run.trace.variables()) == {"message", "crc_table"}


class TestADPCM:
    def test_decode_tracks_input(self):
        """ADPCM is lossy; the decoded wave must track the input within
        a few quantization steps."""
        workload = ADPCMEncoder(sample_count=512, seed=5)
        run = workload.record()
        decoded = adpcm_decode(run.outputs["codes"])
        original = run.outputs["samples"]
        error = np.abs(decoded - original)
        # Smooth input: mean tracking error well under 10% of range.
        assert error.mean() < 1500, error.mean()

    def test_codes_are_nibbles(self):
        run = ADPCMEncoder(sample_count=128).record()
        assert run.outputs["codes"].max() <= 15

    def test_compression_is_deterministic(self):
        first = ADPCMEncoder(sample_count=128, seed=9).record()
        second = ADPCMEncoder(sample_count=128, seed=9).record()
        assert np.array_equal(
            first.outputs["codes"], second.outputs["codes"]
        )

    def test_step_table_is_hot(self):
        run = ADPCMEncoder(sample_count=256).record()
        assert len(run.trace.positions_of("step_table")) == 256


class TestIIR:
    def test_matches_reference(self):
        workload = IIRCascade(signal_length=256, sections=3)
        signal = workload.signal.snapshot()
        coefficients = workload.coeffs.snapshot()
        run = workload.record()
        expected = reference_iir(signal, coefficients, sections=3)
        np.testing.assert_allclose(
            run.outputs["output"], expected, rtol=1e-12
        )

    def test_matches_scipy(self):
        scipy_signal = pytest.importorskip("scipy.signal")
        workload = IIRCascade(signal_length=128, sections=1)
        signal = workload.signal.snapshot()
        b0, b1, b2, a1, a2 = workload.coeffs.snapshot()[:5]
        run = workload.record()
        expected = scipy_signal.lfilter(
            [b0, b1, b2], [1.0, a1, a2], signal
        )
        np.testing.assert_allclose(
            run.outputs["output"], expected, rtol=1e-9
        )

    def test_state_and_coeffs_are_hot(self):
        run = IIRCascade(signal_length=128, sections=2).record()
        coeff_accesses = len(run.trace.positions_of("coeffs"))
        signal_accesses = len(run.trace.positions_of("signal"))
        assert coeff_accesses == 128 * 2 * 5
        assert signal_accesses == 128


class TestRegistry:
    @pytest.mark.parametrize("name", ["crc32", "adpcm", "iir"])
    def test_registered(self, name):
        from repro.workloads.suite import make_workload

        kwargs = {
            "crc32": {"message_bytes": 64},
            "adpcm": {"sample_count": 64},
            "iir": {"signal_length": 32},
        }[name]
        run = make_workload(name, **kwargs).record()
        assert len(run.trace) > 0
