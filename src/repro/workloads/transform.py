"""Phase-structured transform kernels: a JPEG-like two-pass codec
front end and a staged FFT.

Both are *phase-heavy* but, unlike
:class:`~repro.workloads.packet.PacketPipeline`, statically
layout-friendly: their per-phase working sets are (mostly) disjoint,
so one good static assignment serves every phase — the paper's
observation that "procedures with disjoint variable sets never need
remapping".  They exercise the adaptive runtime's *stability*: the
detector must ride out working-set drift inside a phase without
churning remaps, and the policy's reuse test must keep the installed
mapping when a fresh plan offers nothing.

* :class:`TwoPassTransform` — pass 1 runs an 8-point integer DCT over
  image rows against a cosine table; pass 2 quantizes and zigzag-scans
  the coefficients into the output stream.  The passes share only the
  coefficient buffer.
* :class:`PhasedFFT` — a bit-reversal permutation phase followed by
  ``log2(n)`` butterfly stages over one work buffer and a twiddle
  table (arithmetic in Z/2^16, so every value is exact and
  verifiable).
"""

from __future__ import annotations

import math

import numpy as np

from repro.workloads.base import Workload

POINT = 8  # 8-point rows, JPEG-style
MASK16 = 0xFFFF


def scaled_cosine_table() -> list[int]:
    """``round(64 * c(u)/2 * cos((2x+1)u*pi/16))`` as integers."""
    table = []
    for u in range(POINT):
        scale = math.sqrt(0.5) if u == 0 else 1.0
        for x in range(POINT):
            table.append(
                int(
                    round(
                        64.0
                        * scale
                        / 2.0
                        * math.cos((2 * x + 1) * u * math.pi / 16.0)
                    )
                )
            )
    return table


def zigzag_order() -> list[int]:
    """The JPEG zigzag scan order of an 8x8 block."""
    order = sorted(
        range(POINT * POINT),
        key=lambda index: (
            index // POINT + index % POINT,
            index // POINT
            if (index // POINT + index % POINT) % 2
            else -(index // POINT),
        ),
    )
    return order


class TwoPassTransform(Workload):
    """JPEG-like two-pass front end: transform rows, then quantize.

    Data: ``image`` and ``coeffs`` (``blocks`` x 64 elements each),
    ``output`` (same), plus the small hot tables ``costab``,
    ``qtable`` and ``zigzag``.  With the default 8 blocks and 2-byte
    elements the big arrays are 1 KB each — two columns' worth — so
    each pass genuinely competes for the cache.

    Args:
        blocks: 8x8 blocks per frame.
        frames: Times the two passes repeat.
        seed: Input randomization seed.
    """

    def __init__(
        self, blocks: int = 8, frames: int = 2, seed: int = 0, **kwargs
    ):
        super().__init__(name="twopass", seed=seed, **kwargs)
        if blocks < 1 or frames < 1:
            raise ValueError("blocks and frames must be >= 1")
        self.blocks = blocks
        self.frames = frames
        count = blocks * POINT * POINT
        self.image = self.array(
            "image",
            count,
            initial=self.rng.integers(-128, 128, count),
        )
        self.coeffs = self.array("coeffs", count)
        self.output = self.array("output", count)
        self.costab = self.array(
            "costab", POINT * POINT, initial=scaled_cosine_table()
        )
        self.qtable = self.array(
            "qtable",
            POINT * POINT,
            initial=self.rng.integers(1, 32, POINT * POINT),
        )
        self.zigzag = self.array(
            "zigzag", POINT * POINT, initial=zigzag_order()
        )

    def _transform(self) -> None:
        """Pass 1: 8-point row DCT of every block."""
        for block in range(self.blocks):
            base = block * POINT * POINT
            for row in range(POINT):
                row_base = base + row * POINT
                for u in range(POINT):
                    self.work(1)  # accumulator setup
                    total = 0
                    for x in range(POINT):
                        total += (
                            self.costab[u * POINT + x]
                            * self.image[row_base + x]
                        )
                    self.work(1)  # descale
                    self.coeffs[row_base + u] = (total >> 6) & MASK16

    def _quantize(self) -> None:
        """Pass 2: quantize and zigzag-scan into the output."""
        for block in range(self.blocks):
            base = block * POINT * POINT
            for index in range(POINT * POINT):
                self.work(1)  # scan-order fetch
                source = self.zigzag[index]
                value = self.coeffs[base + source]
                quant = self.qtable[source]
                self.work(1)  # divide
                self.output[base + index] = (value // (quant + 1)) & MASK16

    def run(self) -> None:
        for _ in range(self.frames):
            self.begin_phase("transform")
            self._transform()
            self.end_phase()
            self.begin_phase("quantize")
            self._quantize()
            self.end_phase()
        self.outputs["coeffs"] = self.coeffs.snapshot()
        self.outputs["output"] = self.output.snapshot()


# ----------------------------------------------------------------------
# Phased FFT
# ----------------------------------------------------------------------
def _bit_reverse(value: int, bits: int) -> int:
    """Reverse the low ``bits`` bits of ``value``."""
    result = 0
    for _ in range(bits):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


class PhasedFFT(Workload):
    """A staged integer FFT: bit-reversal, then log2(n) butterflies.

    All arithmetic is modulo 2^16 with an integer twiddle table, so
    the result is exact and an untraced recomputation reproduces it.
    The working set (``work`` + ``twiddle``) is *stable* across
    butterfly stages — only the stride changes — which makes this the
    detector's false-positive stress: a good run remaps once and then
    holds.

    Args:
        n: Transform size (power of two).
        transforms: Number of transforms run back to back.
        seed: Input randomization seed.
    """

    def __init__(
        self, n: int = 256, transforms: int = 2, seed: int = 0, **kwargs
    ):
        super().__init__(name="fft_phased", seed=seed, **kwargs)
        if n < 4 or n & (n - 1):
            raise ValueError(f"n must be a power of two >= 4, got {n}")
        if transforms < 1:
            raise ValueError("transforms must be >= 1")
        self.n = n
        self.transforms = transforms
        self.bits = n.bit_length() - 1
        self.input = self.array(
            "input", n, initial=self.rng.integers(0, MASK16 + 1, n)
        )
        self.fft_work = self.array("fft_work", n)
        self.twiddle = self.array(
            "twiddle",
            n // 2,
            initial=[(3 ** k) & MASK16 for k in range(n // 2)],
        )

    def _bitrev_phase(self) -> None:
        for index in range(self.n):
            self.work(2)  # reversal arithmetic
            self.fft_work[index] = self.input[
                _bit_reverse(index, self.bits)
            ]

    def _butterfly_stage(self, stage: int) -> None:
        span = 1 << stage
        stride = self.n // (span * 2)
        for start in range(0, self.n, span * 2):
            for j in range(span):
                self.work(1)  # twiddle index
                factor = self.twiddle[j * stride]
                low = self.fft_work[start + j]
                high = self.fft_work[start + j + span]
                self.work(1)  # multiply
                product = (factor * high) & MASK16
                self.fft_work[start + j] = (low + product) & MASK16
                self.fft_work[start + j + span] = (
                    low - product
                ) & MASK16

    def run(self) -> None:
        for _ in range(self.transforms):
            self.begin_phase("bitrev")
            self._bitrev_phase()
            self.end_phase()
            for stage in range(self.bits):
                self.begin_phase(f"stage{stage}")
                self._butterfly_stage(stage)
                self.end_phase()
        self.outputs["fft_work"] = self.fft_work.snapshot()

