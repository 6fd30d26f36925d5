"""Phase detection over the trace stream: windowed change points.

The detector sees the reference stream in fixed-size *windows* of
accesses and summarizes each window as

* a **working-set signature** — the set of distinct cache blocks the
  window touched, folded into a small bit vector (Dhodapkar & Smith's
  working-set signature, the standard phase-tracking structure: cheap
  to maintain in hardware or software, and two signatures compare in
  one pass); and
* the window's **miss rate** under the currently installed mapping.

A phase boundary fires at a window edge when either signal jumps:

* the Jaccard distance between this window's signature and the
  previous one exceeds ``signature_threshold`` (the working set moved),
  or
* the miss rate rose by more than ``miss_rate_threshold`` over the
  previous window (the installed mapping stopped fitting — conflict
  misses appearing is how a stale partition shows up *without* the
  working set visibly changing, e.g. when access *interleaving*
  changes).

``hysteresis_windows`` suppresses re-firing right after a boundary:
the first window of a new phase is transitional (it straddles the real
change point and runs under the stale mapping), so its successor would
otherwise trigger a second, spurious boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

#: Signature width in bits.  Windows fold block numbers into this many
#: buckets; 1024 keeps collision noise well under the thresholds for
#: window sizes up to a few thousand accesses.
SIGNATURE_BITS = 1024


def working_set_signature(
    blocks: Sequence[int] | np.ndarray, bits: int = SIGNATURE_BITS
) -> int:
    """Fold a window's block numbers into a ``bits``-wide signature.

    Bit ``b`` of the returned int is set iff some block hashes to
    bucket ``b``: ``(block * 0x9E3779B97F4A7C15) mod 2**64 mod bits``,
    the block read as uint64.  The compiled fleet segment
    (``repro_fleet_segment``) folds the same buckets access by access.

    >>> working_set_signature([0, 1, 1, 5], bits=8).bit_count()
    3
    """
    array = np.asarray(blocks, dtype=np.int64)
    signature = np.zeros(bits, dtype=bool)
    if len(array):
        # Multiplicative hash spreads sequential block numbers across
        # buckets; the Fibonacci constant keeps strided streams from
        # aliasing into a handful of buckets.
        hashed = array.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        signature[hashed % np.uint64(bits)] = True
    packed = np.packbits(signature, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def jaccard_distance(first: int, second: int) -> float:
    """1 - |A & B| / |A | B| over two signatures' bits."""
    union = (first | second).bit_count()
    if union == 0:
        return 0.0
    overlap = (first & second).bit_count()
    return 1.0 - overlap / union


def check_detector_settings(
    signature_threshold: float,
    miss_rate_threshold: float,
    hysteresis_windows: int,
) -> None:
    """Validate a phase detector's thresholds and hysteresis.

    Shared by :class:`PhaseDetector` and the fleet's
    :class:`~repro.fleet.tenant.FleetConfig`, which refuses a bad
    setting when it is built rather than at the first admission.

    Raises:
        ValueError: naming the field, when ``signature_threshold`` is
            outside ``(0, 1]``, ``miss_rate_threshold`` is negative or
            ``hysteresis_windows`` is below 1.
    """
    if not 0.0 < signature_threshold <= 1.0:
        raise ValueError(
            "signature_threshold must be in (0, 1], got "
            f"{signature_threshold}"
        )
    if miss_rate_threshold < 0.0:
        raise ValueError(
            "miss_rate_threshold must be non-negative, got "
            f"{miss_rate_threshold}"
        )
    if hysteresis_windows < 1:
        raise ValueError(
            f"hysteresis_windows must be >= 1, got {hysteresis_windows}"
        )


@dataclass(frozen=True)
class WindowObservation:
    """The detector's verdict on one completed window.

    Attributes:
        index: Window number (0-based).
        accesses: Cached accesses observed in the window.
        misses: Misses among them (under the *installed* mapping).
        signature_distance: Jaccard distance to the previous window's
            working-set signature (0.0 for the first window).
        miss_rate_delta: Miss-rate change versus the previous window.
        boundary: True when this window edge is a detected phase
            boundary.
    """

    index: int
    accesses: int  # all accesses observed in the window
    misses: int
    signature_distance: float
    miss_rate_delta: float
    boundary: bool

    @property
    def miss_rate(self) -> float:
        """Misses per access within the window."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class PhaseDetector:
    """Windowed change-point detector over (blocks, misses) streams.

    Args:
        signature_threshold: Jaccard distance above which the working
            set is considered to have shifted.
        miss_rate_threshold: Miss-rate increase (absolute) above which
            the installed mapping is considered stale.
        hysteresis_windows: Minimum windows between boundaries.
        signature_bits: Width of the working-set signature.
    """

    def __init__(
        self,
        signature_threshold: float = 0.5,
        miss_rate_threshold: float = 0.25,
        hysteresis_windows: int = 2,
        signature_bits: int = SIGNATURE_BITS,
    ):
        check_detector_settings(
            signature_threshold, miss_rate_threshold, hysteresis_windows
        )
        self.signature_threshold = signature_threshold
        self.miss_rate_threshold = miss_rate_threshold
        self.hysteresis_windows = hysteresis_windows
        self.signature_bits = signature_bits
        self._previous_signature: Optional[int] = None
        self._previous_miss_rate: Optional[float] = None
        self._window_index = 0
        self._last_boundary: Optional[int] = None
        self.observations: list[WindowObservation] = []

    def observe_window(
        self, blocks: Sequence[int] | np.ndarray, misses: int
    ) -> WindowObservation:
        """Summarize one completed window; returns the verdict.

        ``blocks`` are the window's access block numbers, ``misses``
        the cache misses they produced under the currently installed
        mapping.  (The adaptive runtime's cache-column-only layouts
        never produce uncached accesses, so the reported miss rate is
        the cached miss rate; a caller mixing uncached traffic in
        should pass the cached blocks only, or accept the diluted
        rate.)
        """
        return self.observe_signature(
            working_set_signature(blocks, self.signature_bits),
            len(blocks),
            misses,
        )

    def observe_signature(
        self, signature: int, accesses: int, misses: int
    ) -> WindowObservation:
        """Judge one completed window from its folded signature.

        ``signature`` is the window's
        :func:`working_set_signature` (``signature_bits`` wide),
        folded by the caller: the compiled fleet segment folds it
        while it walks the window.  ``accesses`` and ``misses`` are
        the window's accesses and the misses they produced under the
        installed mapping.  :meth:`observe_window` hashes its blocks
        and calls this.
        """
        if self._previous_signature is None:
            distance = 0.0
        else:
            distance = jaccard_distance(
                self._previous_signature, signature
            )
        miss_rate = misses / accesses if accesses else 0.0
        delta = (
            0.0
            if self._previous_miss_rate is None
            else miss_rate - self._previous_miss_rate
        )

        in_hysteresis = (
            self._last_boundary is not None
            and self._window_index - self._last_boundary
            < self.hysteresis_windows
        )
        triggered = (
            distance > self.signature_threshold
            or delta > self.miss_rate_threshold
        )
        boundary = (
            triggered
            and not in_hysteresis
            and self._previous_signature is not None
        )
        observation = WindowObservation(
            index=self._window_index,
            accesses=accesses,
            misses=misses,
            signature_distance=distance,
            miss_rate_delta=delta,
            boundary=boundary,
        )
        self.observations.append(observation)
        if boundary:
            self._last_boundary = self._window_index
        self._previous_signature = signature
        self._previous_miss_rate = miss_rate
        self._window_index += 1
        return observation

    def snapshot(self) -> "DetectorSnapshot":
        """Frozen detector state for live inspection.

        See :class:`~repro.inspect.snapshots.DetectorSnapshot`:
        windows observed, boundaries fired, the latest signature
        distance and miss rate, and whether hysteresis is currently
        suppressing a boundary.
        """
        from repro.inspect.snapshots import DetectorSnapshot

        return DetectorSnapshot.of(self)

    @property
    def boundary_windows(self) -> list[int]:
        """Window indices at which boundaries fired so far."""
        return [
            observation.index
            for observation in self.observations
            if observation.boundary
        ]

    def reset(self) -> None:
        """Forget all history (fresh stream)."""
        self._previous_signature = None
        self._previous_miss_rate = None
        self._window_index = 0
        self._last_boundary = None
        self.observations = []
