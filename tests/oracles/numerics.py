"""Workload numerics references: untraced recomputations of results.

The instrumented workloads compute real results while their traces are
recorded; these functions compute the same results without tracing,
so the workload tests can check the numbers a recording produced:

* :func:`reference_crc32` — bitwise CRC-32, against
  :class:`~repro.workloads.codecs.CRC32`'s table-driven loop;
* :func:`adpcm_decode` — the IMA ADPCM decoder, which must track
  :class:`~repro.workloads.codecs.ADPCMEncoder`'s input;
* :func:`reference_iir` — the biquad cascade's difference equations,
  against :class:`~repro.workloads.codecs.IIRCascade`;
* :func:`reference_twopass` — both passes of
  :class:`~repro.workloads.transform.TwoPassTransform` on whole rows;
* :func:`reference_pipeline` — every stage of
  :class:`~repro.workloads.packet.PacketPipeline` on numpy tables;
* :func:`reference_fft` — the bit reversal and butterflies of
  :class:`~repro.workloads.transform.PhasedFFT`.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.codecs import (
    CRC32_POLYNOMIAL,
    IMA_INDEX_TABLE,
    IMA_STEP_TABLE,
)
from repro.workloads.packet import (
    PAYLOAD_ELEMENTS,
    PAYLOAD_PER_SLOT,
    SLOTS,
    STAGES,
)
from repro.workloads.transform import (
    MASK16,
    POINT,
    scaled_cosine_table,
    zigzag_order,
)


def reference_crc32(data: bytes) -> int:
    """Bitwise reference CRC-32 (matches zlib.crc32)."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ CRC32_POLYNOMIAL
            else:
                crc >>= 1
    return crc ^ 0xFFFFFFFF


def adpcm_decode(codes: np.ndarray) -> np.ndarray:
    """Reference IMA ADPCM decoder (pure computation)."""
    predicted = 0
    index = 0
    output = np.empty(len(codes), dtype=np.int64)
    for position, code in enumerate(codes):
        code = int(code)
        step = IMA_STEP_TABLE[index]
        delta = step >> 3
        if code & 4:
            delta += step
        if code & 2:
            delta += step >> 1
        if code & 1:
            delta += step >> 2
        predicted += -delta if code & 8 else delta
        predicted = max(-32768, min(32767, predicted))
        output[position] = predicted
        index += IMA_INDEX_TABLE[code & 7]
        index = max(0, min(len(IMA_STEP_TABLE) - 1, index))
    return output


def reference_iir(signal: np.ndarray, coefficients: np.ndarray,
                  sections: int) -> np.ndarray:
    """Reference biquad cascade using scipy-style difference equations."""
    value = signal.astype(np.float64)
    for section in range(sections):
        b0, b1, b2, a1, a2 = coefficients[section * 5:section * 5 + 5]
        out = np.empty_like(value)
        x1 = x2 = y1 = y2 = 0.0
        for position, sample in enumerate(value):
            result = (
                b0 * sample + b1 * x1 + b2 * x2 - a1 * y1 - a2 * y2
            )
            x2, x1 = x1, sample
            y2, y1 = y1, result
            out[position] = result
        value = out
    return value


def reference_twopass(
    blocks: int, frames: int, seed: int
) -> dict[str, np.ndarray]:
    """Untraced recomputation of :class:`TwoPassTransform`."""
    rng = np.random.default_rng(seed)
    count = blocks * POINT * POINT
    image = rng.integers(-128, 128, count).astype(np.int64)
    costab = np.array(scaled_cosine_table(), dtype=np.int64)
    qtable = rng.integers(1, 32, POINT * POINT).astype(np.int64)
    zigzag = np.array(zigzag_order(), dtype=np.int64)
    coeffs = np.zeros(count, dtype=np.int64)
    output = np.zeros(count, dtype=np.int64)
    for _ in range(frames):
        for block in range(blocks):
            base = block * POINT * POINT
            for row in range(POINT):
                row_base = base + row * POINT
                for u in range(POINT):
                    total = int(
                        (
                            costab[u * POINT:(u + 1) * POINT]
                            * image[row_base:row_base + POINT]
                        ).sum()
                    )
                    coeffs[row_base + u] = (total >> 6) & MASK16
        for block in range(blocks):
            base = block * POINT * POINT
            for index in range(POINT * POINT):
                source = int(zigzag[index])
                output[base + index] = (
                    int(coeffs[base + source]) // (int(qtable[source]) + 1)
                ) & MASK16
    return {"coeffs": coeffs, "output": output}


def reference_pipeline(
    batches: int, rounds: int, seed: int
) -> dict[str, np.ndarray]:
    """Untraced recomputation of :class:`PacketPipeline`."""
    rng = np.random.default_rng(seed)
    tables = {
        "flow_tbl": rng.integers(0, 1 << 14, SLOTS).astype(np.int64),
        "route_tbl": rng.integers(0, 1 << 14, SLOTS).astype(np.int64),
        "stats_tbl": np.zeros(SLOTS, dtype=np.int64),
        "police_tbl": np.zeros(SLOTS, dtype=np.int64),
    }
    payload = rng.integers(0, 256, PAYLOAD_ELEMENTS).astype(np.int64)
    for _ in range(batches):
        for _, (first, second, accumulate) in STAGES:
            for _ in range(rounds):
                for slot in range(SLOTS):
                    base = slot * PAYLOAD_PER_SLOT
                    checksum = int(
                        payload[base:base + PAYLOAD_PER_SLOT].sum()
                    )
                    tables[accumulate][slot] = (
                        tables[accumulate][slot]
                        + tables[first][slot]
                        + tables[second][slot]
                        + checksum
                    ) & 0x3FFF
    return tables


def reference_fft(n: int, transforms: int, seed: int) -> np.ndarray:
    """Untraced recomputation of :class:`PhasedFFT`."""
    rng = np.random.default_rng(seed)
    data = rng.integers(0, MASK16 + 1, n).astype(np.int64)
    twiddle = np.array(
        [(3 ** k) & MASK16 for k in range(n // 2)], dtype=np.int64
    )
    bits = n.bit_length() - 1
    work = np.zeros(n, dtype=np.int64)
    for _ in range(transforms):
        for index in range(n):
            work[index] = data[int(f"{index:0{bits}b}"[::-1], 2)]
        for stage in range(bits):
            span = 1 << stage
            stride = n // (span * 2)
            for start in range(0, n, span * 2):
                for j in range(span):
                    product = (
                        int(twiddle[j * stride]) * int(work[start + j + span])
                    ) & MASK16
                    low = int(work[start + j])
                    work[start + j] = (low + product) & MASK16
                    work[start + j + span] = (low - product) & MASK16
    return work
