"""Argument-validation helpers.

The cache and memory models are highly parametric (line sizes, column
counts, page sizes, ...) and nearly every parameter must be a positive
power of two.  Centralizing the checks keeps the error messages uniform
and the constructors readable.
"""

from __future__ import annotations


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive integral power of two."""
    return isinstance(value, int) and value > 0 and (value & (value - 1)) == 0


def check_positive(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it."""
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


def check_non_negative(value: int, name: str) -> int:
    """Validate that ``value`` is a non-negative integer and return it."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def check_power_of_two(value: int, name: str) -> int:
    """Validate that ``value`` is a positive power of two and return it."""
    if not is_power_of_two(value):
        raise ValueError(f"{name} must be a positive power of two, got {value!r}")
    return value


def check_alignment(value: int, alignment: int, name: str) -> int:
    """Validate that ``value`` is a multiple of ``alignment``."""
    check_non_negative(value, name)
    if value % alignment != 0:
        raise ValueError(
            f"{name} must be aligned to {alignment} bytes, got {value:#x}"
        )
    return value


#: Largest int64, the range of every schedule column.
INT64_MAX = (1 << 63) - 1


def check_quantum(quantum: int, total: int) -> int:
    """Validate a scheduling quantum against a trace's pass total.

    The closed-form schedule adds the quantum to cumulative
    instruction counts of up to ``total`` in int64 (both kernels), so
    it must lie in ``[1, 2**63 - 1 - total]``; returns it.
    """
    if not 1 <= quantum <= INT64_MAX - total:
        raise ValueError(
            f"quantum must be in [1, {INT64_MAX - total}], got {quantum}"
        )
    return quantum


def check_mask_ways(bits: int, owner: str) -> int:
    """Validate that a replacement mask names only ways 0-62.

    Both kernels keep per-job (and per-tenant) masks as int64, which
    cannot name way 63 or above; returns ``bits``.
    """
    if bits >> 63:
        raise ValueError(
            f"{owner} mask names way {bits.bit_length() - 1}; "
            "per-job masks name ways 0-62"
        )
    return bits


def log2_exact(value: int, name: str = "value") -> int:
    """Return log2 of ``value``, requiring an exact power of two."""
    check_power_of_two(value, name)
    return value.bit_length() - 1
