"""Trace serialization in an extended dinero-III format.

The classic dinero format is one access per line: ``<label> <hex addr>``
with label 0 = read, 1 = write, 2 = instruction fetch.  We write that
format unchanged so third-party tools can consume our traces, and add
two optional trailing columns (gap, variable name) that our loader
understands:

    0 1000 3 qtable
    1 2080 0 block

Plain two-column files load fine (gap 0, no variable).  Both the
writer and the reader transform whole columns at a time — the loader
tokenizes the file once and builds the trace arrays directly, so
external dinero traces enter the columnar pipeline without a
per-access object round-trip.

Addresses are unsigned 64-bit hex, so kernel-space traces
(``ffffffff81000000``) load: those at or above ``2**63`` fold into the
int64 column as two's complement, as a uint64 ``.npz`` column folds,
and the writer prints them back as unsigned hex.  Folding changes no
hit or miss, since the arithmetic shifts map a folded address's (set,
tag) one-to-one onto the unsigned address's.  A negative or wider
address, or a negative gap, fails at load naming its line.
"""

from __future__ import annotations

from pathlib import Path
from typing import TextIO, Union

import numpy as np

from repro.trace.columnar import NO_VARIABLE, ColumnarTrace, load_npz
from repro.trace.trace import Trace

READ_LABEL = "0"
WRITE_LABEL = "1"
IFETCH_LABEL = "2"

_LABELS = (READ_LABEL, WRITE_LABEL, IFETCH_LABEL)

#: Addresses are unsigned 64-bit; those at or above the sign bit fold
#: into the int64 column as two's complement.
_ADDRESS_LIMIT = 1 << 64
_SIGN_BIT = 1 << 63


def save_trace(trace: Trace, destination: Union[str, Path, TextIO]) -> int:
    """Write ``trace`` in extended dinero format; returns line count."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="ascii") as handle:
            return save_trace(trace, handle)
    labels = np.where(trace.writes, WRITE_LABEL, READ_LABEL)
    lines = []
    gaps = trace.gaps
    variable_ids = trace.variable_ids
    names = trace.variable_names
    # Negative int64 addresses print as the unsigned ones they fold.
    addresses = trace.addresses.astype(np.uint64)
    for position in range(len(trace)):
        fields = [labels[position], format(int(addresses[position]), "x")]
        identifier = variable_ids[position]
        if gaps[position] or identifier != NO_VARIABLE:
            fields.append(str(int(gaps[position])))
        if identifier != NO_VARIABLE:
            fields.append(names[identifier])
        lines.append(" ".join(fields))
    if lines:
        destination.write("\n".join(lines) + "\n")
    return len(lines)


def _parse_lines(lines: list[tuple[int, list[str]]], name: str) -> Trace:
    """Build the trace columns from pre-tokenized lines."""
    count = len(lines)
    addresses = np.zeros(count, dtype=np.int64)
    writes = np.zeros(count, dtype=bool)
    gaps = np.zeros(count, dtype=np.int64)
    variable_ids = np.full(count, NO_VARIABLE, dtype=np.int64)
    names: list[str] = []
    name_ids: dict[str, int] = {}
    for position, (line_number, fields) in enumerate(lines):
        if len(fields) < 2:
            raise ValueError(
                f"line {line_number}: expected '<label> <addr>', got "
                f"{' '.join(fields)!r}"
            )
        label = fields[0]
        if label not in _LABELS:
            raise ValueError(
                f"line {line_number}: unknown access label {label!r}"
            )
        try:
            address = int(fields[1], 16)
        except ValueError:
            raise ValueError(
                f"line {line_number}: bad address {fields[1]!r}"
            ) from None
        if not 0 <= address < _ADDRESS_LIMIT:
            raise ValueError(
                f"line {line_number}: address {fields[1]!r} is not an "
                "unsigned 64-bit address"
            )
        addresses[position] = (
            address - _ADDRESS_LIMIT if address >= _SIGN_BIT else address
        )
        writes[position] = label == WRITE_LABEL
        if len(fields) >= 3:
            try:
                gap = int(fields[2])
            except ValueError:
                raise ValueError(
                    f"line {line_number}: bad gap {fields[2]!r}"
                ) from None
            if not 0 <= gap < _SIGN_BIT:
                raise ValueError(
                    f"line {line_number}: gap {fields[2]!r} must be in "
                    "[0, 2**63)"
                )
            gaps[position] = gap
        if len(fields) >= 4:
            variable = fields[3]
            identifier = name_ids.get(variable)
            if identifier is None:
                identifier = len(names)
                names.append(variable)
                name_ids[variable] = identifier
            variable_ids[position] = identifier
    return Trace(
        addresses, writes, gaps, variable_ids, names, name=name
    )


def load_trace(
    source: Union[str, Path, TextIO], name: str = "dinero"
) -> Trace:
    """Read a (possibly extended) dinero trace.

    Instruction-fetch records (label 2) are kept as reads.  Addresses
    at or above ``2**63`` fold into the int64 column (see the module
    docstring).

    Raises:
        ValueError: naming the line, for an unknown label, an address
            that is not hex in ``[0, 2**64)``, or a gap that is not an
            integer in ``[0, 2**63)``.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="ascii") as handle:
            return load_trace(handle, name=name)
    lines = [
        (line_number, stripped.split())
        for line_number, raw_line in enumerate(source, start=1)
        if (stripped := raw_line.strip()) and not stripped.startswith("#")
    ]
    return _parse_lines(lines, name)


def load_any(path: Union[str, Path], mmap: bool = False) -> ColumnarTrace:
    """Load a trace by extension: a ``.npz`` columnar archive
    (memory-mapped with ``mmap``, see :func:`load_npz`) or dinero
    text."""
    if str(path).endswith(".npz"):
        return load_npz(path, mmap=mmap)
    return load_trace(path)
