"""More embedded kernels: CRC32, ADPCM and an IIR biquad cascade.

Three additional MiBench-style workloads with verifiable numerics:

* :class:`CRC32` — table-driven CRC: a 1 KB hot lookup table against a
  byte stream, the canonical structure column caching protects.
* :class:`ADPCMEncoder` — IMA ADPCM compression with its step-size
  table; decodes back within the codec's quantization error.
* :class:`IIRCascade` — biquad filter chain: tiny hot coefficient/state
  arrays against a signal stream.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import Workload

CRC32_POLYNOMIAL = 0xEDB88320

# IMA ADPCM tables (standard).
IMA_INDEX_TABLE = [-1, -1, -1, -1, 2, 4, 6, 8]
IMA_STEP_TABLE = [
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34,
    37, 41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143,
    157, 173, 190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494,
    544, 598, 658, 724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552,
    1707, 1878, 2066, 2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428,
    4871, 5358, 5894, 6484, 7132, 7845, 8630, 9493, 10442, 11487,
    12635, 13899, 15289, 16818, 18500, 20350, 22385, 24623, 27086,
    29794, 32767,
]


def crc32_table() -> np.ndarray:
    """The standard reflected CRC-32 table."""
    table = np.empty(256, dtype=np.int64)
    for byte in range(256):
        value = byte
        for _ in range(8):
            if value & 1:
                value = (value >> 1) ^ CRC32_POLYNOMIAL
            else:
                value >>= 1
        table[byte] = value
    return table


class CRC32(Workload):
    """Table-driven CRC-32 over a message buffer."""

    def __init__(self, message_bytes: int = 2048, seed: int = 0, **kwargs):
        super().__init__(name="crc32", seed=seed, **kwargs)
        self.message_bytes = message_bytes
        self.message = self.array(
            "message",
            message_bytes,
            element_size=1,
            dtype=np.uint8,
            initial=self.rng.integers(0, 256, message_bytes),
        )
        self.table = self.array(
            "crc_table", 256, element_size=4, initial=crc32_table()
        )

    def run(self) -> None:
        self.begin_phase("crc")
        crc = 0xFFFFFFFF
        for position in range(self.message_bytes):
            byte = int(self.message[position])
            index = (crc ^ byte) & 0xFF
            self.work(2)  # xor + mask
            crc = (crc >> 8) ^ int(self.table[index])
            self.work(2)  # shift + xor
        self.end_phase()
        self.outputs["crc"] = np.array([crc ^ 0xFFFFFFFF])


class ADPCMEncoder(Workload):
    """IMA ADPCM: 16-bit samples compressed to 4-bit codes."""

    def __init__(self, sample_count: int = 1024, seed: int = 0, **kwargs):
        super().__init__(name="adpcm", seed=seed, **kwargs)
        self.sample_count = sample_count
        phase = np.cumsum(self.rng.normal(0.15, 0.03, sample_count))
        wave = (8000 * np.sin(phase)).astype(np.int64)
        self.samples = self.array("samples", sample_count, initial=wave)
        self.codes = self.array(
            "codes", sample_count, element_size=1, dtype=np.uint8
        )
        self.step_table = self.array(
            "step_table", len(IMA_STEP_TABLE), initial=IMA_STEP_TABLE
        )
        self.index_table = self.array(
            "index_table",
            len(IMA_INDEX_TABLE),
            element_size=1,
            initial=IMA_INDEX_TABLE,
        )

    def run(self) -> None:
        self.begin_phase("encode")
        predicted = 0
        index = 0
        for position in range(self.sample_count):
            sample = int(self.samples[position])
            step = int(self.step_table[index])
            difference = sample - predicted
            self.work(2)
            code = 0
            if difference < 0:
                code = 8
                difference = -difference
            if difference >= step:
                code |= 4
                difference -= step
            if difference >= step >> 1:
                code |= 2
                difference -= step >> 1
            if difference >= step >> 2:
                code |= 1
            self.work(6)  # the quantizer compare/subtract ladder
            self.codes[position] = code
            # Reconstruct exactly as the decoder will.
            delta = step >> 3
            if code & 4:
                delta += step
            if code & 2:
                delta += step >> 1
            if code & 1:
                delta += step >> 2
            predicted += -delta if code & 8 else delta
            predicted = max(-32768, min(32767, predicted))
            index += int(self.index_table[code & 7])
            index = max(0, min(len(IMA_STEP_TABLE) - 1, index))
            self.work(6)
        self.end_phase()
        self.outputs["codes"] = self.codes.snapshot()
        self.outputs["samples"] = self.samples.snapshot()


class IIRCascade(Workload):
    """A cascade of direct-form-I biquad sections over a signal."""

    def __init__(self, signal_length: int = 1024, sections: int = 4,
                 seed: int = 0, **kwargs):
        super().__init__(name="iir", seed=seed, **kwargs)
        self.signal_length = signal_length
        self.sections = sections
        self.signal = self.array(
            "signal",
            signal_length,
            element_size=8,
            dtype=np.float64,
            initial=self.rng.normal(0, 1.0, signal_length),
        )
        self.output = self.array(
            "output", signal_length, element_size=8, dtype=np.float64
        )
        # 5 coefficients per section (b0, b1, b2, a1, a2), mild lowpass.
        coefficients = []
        for section in range(sections):
            radius = 0.5 + 0.08 * section
            coefficients.extend([0.25, 0.5, 0.25, -radius, radius * 0.4])
        self.coeffs = self.array(
            "coeffs",
            sections * 5,
            element_size=8,
            dtype=np.float64,
            initial=coefficients,
        )
        self.state = self.array(
            "state", sections * 4, element_size=8, dtype=np.float64
        )

    def run(self) -> None:
        self.begin_phase("iir")
        for position in range(self.signal_length):
            value = self.signal[position]
            for section in range(self.sections):
                base = section * 5
                state_base = section * 4
                b0 = self.coeffs[base]
                b1 = self.coeffs[base + 1]
                b2 = self.coeffs[base + 2]
                a1 = self.coeffs[base + 3]
                a2 = self.coeffs[base + 4]
                x1 = self.state[state_base]
                x2 = self.state[state_base + 1]
                y1 = self.state[state_base + 2]
                y2 = self.state[state_base + 3]
                result = (
                    b0 * value + b1 * x1 + b2 * x2 - a1 * y1 - a2 * y2
                )
                self.work(5)  # five multiply-accumulates
                self.state[state_base + 1] = x1
                self.state[state_base] = value
                self.state[state_base + 3] = y1
                self.state[state_base + 2] = result
                value = result
            self.output[position] = value
        self.end_phase()
        self.outputs["output"] = self.output.snapshot()
