"""Recording reference: the list-based trace builder.

:class:`TraceBuilder` records the way the workloads first did: one
Python value per column per access, converted to arrays once at
:meth:`TraceBuilder.build`.  Production records into
:class:`~repro.trace.columnar.ColumnarRecorder` (address and slot-code
buffers gathered into columns at each seal, vectorized bulk appends);
this builder takes every access, scalar or bulk, through its own
per-access :meth:`TraceBuilder.append` instead.  The two share the
recorder API (``add_gap``, ``append``, ``append_many``,
``append_run``, ``extend``, ``pending_gap``, ``len`` and ``build``,
plus the ``slot``/``sinks`` hook traced storage records through), so
the differential suite can record any workload through either and
assert the recordings are identical
(``tests/strategies.record_suite_case(legacy=True)``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.trace.columnar import NO_VARIABLE, ColumnarTrace


class TraceBuilder:
    """Append-only trace constructor over per-access Python lists."""

    def __init__(self, name: str = "trace"):
        self.name = name
        self._addresses: list[int] = []
        self._writes: list[bool] = []
        self._gaps: list[int] = []
        self._sizes: list[int] = []
        self._variable_ids: list[int] = []
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._pending_gap = 0
        self._slots: list[tuple[Optional[str], int, bool]] = []
        self._held_address = 0

    def _variable_id(self, variable: Optional[str]) -> int:
        if variable is None:
            return NO_VARIABLE
        identifier = self._name_ids.get(variable)
        if identifier is None:
            identifier = len(self._names)
            self._names.append(variable)
            self._name_ids[variable] = identifier
        return identifier

    def add_gap(self, instructions: int = 1) -> None:
        """Record non-memory instructions before the next access."""
        if instructions < 0:
            raise ValueError(f"gap must be non-negative, got {instructions}")
        self._pending_gap += instructions

    def append(
        self,
        address: int,
        is_write: bool = False,
        variable: Optional[str] = None,
        size: Optional[int] = None,
    ) -> None:
        """Record one memory access."""
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        self._addresses.append(address)
        self._writes.append(is_write)
        self._sizes.append(1 if size is None else size)
        self._gaps.append(self._pending_gap)
        self._variable_ids.append(self._variable_id(variable))
        self._pending_gap = 0

    def slot(
        self,
        variable: Optional[str],
        size: int = 1,
        is_write: bool = False,
    ) -> int:
        """A code standing for ``(variable, size, is_write)``."""
        self._slots.append((variable, size, bool(is_write)))
        return len(self._slots) - 1

    def sinks(self):
        """Appenders of one access: hold the address, then append it."""
        return self._hold_address, self._append_held

    def _hold_address(self, address: int) -> None:
        self._held_address = address

    def _append_held(self, code: int) -> None:
        variable, size, is_write = self._slots[code]
        self.append(
            self._held_address,
            is_write=is_write,
            variable=variable,
            size=size,
        )

    def append_many(
        self,
        addresses,
        is_write=False,
        variable: Optional[str] = None,
        gaps=None,
        sizes=None,
        gap_each: int = 0,
    ) -> None:
        """Record an access batch one element at a time."""
        count = len(addresses)
        scalar_write = isinstance(is_write, (bool, int))
        for position in range(count):
            if gaps is not None:
                gap = int(gaps[position])
                if gap < 0:
                    raise ValueError("gaps must be non-negative")
                self.add_gap(gap)
            elif gap_each:
                if gap_each < 0:
                    raise ValueError("gap_each must be non-negative")
                self.add_gap(gap_each)
            self.append(
                int(addresses[position]),
                is_write=bool(
                    is_write if scalar_write else is_write[position]
                ),
                variable=variable,
                size=None if sizes is None else int(sizes[position]),
            )

    def append_run(
        self,
        base: int,
        count: int,
        stride: int,
        is_write: bool = False,
        variable: Optional[str] = None,
        gap_each: int = 0,
        size: Optional[int] = None,
    ) -> None:
        """Record ``count`` accesses at ``base + i * stride``, one by one."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        for index in range(count):
            self.add_gap(gap_each)
            self.append(
                base + index * stride,
                is_write=is_write,
                variable=variable,
                size=size,
            )

    def extend(self, trace: ColumnarTrace) -> None:
        """Append a whole existing trace (variables are re-interned)."""
        for position in range(len(trace)):
            self.add_gap(int(trace.gaps[position]))
            self.append(
                int(trace.addresses[position]),
                is_write=bool(trace.writes[position]),
                variable=trace.variable_of(position),
                size=int(trace.sizes[position]),
            )

    @property
    def pending_gap(self) -> int:
        """Gap instructions not yet attached to an access."""
        return self._pending_gap

    def __len__(self) -> int:
        return len(self._addresses)

    def build(self) -> ColumnarTrace:
        """Freeze into an immutable :class:`ColumnarTrace`."""
        return ColumnarTrace(
            np.array(self._addresses, dtype=np.int64),
            np.array(self._writes, dtype=bool),
            np.array(self._gaps, dtype=np.int64),
            np.array(self._variable_ids, dtype=np.int64),
            list(self._names),
            name=self.name,
            sizes=np.array(self._sizes, dtype=np.int32),
        )
