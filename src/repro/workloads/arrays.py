"""Traced storage: arrays and scalars that record every access.

A :class:`TracedArray` behaves like a C array — integer indices, real
values, no bounds magic — and appends one trace entry per element read
or write.  Kernels therefore compute *actual results* while their
reference stream is captured, which is what keeps the workloads honest
(tests verify both the numerics and the traces).  Every entry goes
into the owning workload's
:class:`~repro.trace.columnar.ColumnarRecorder`.  Each traced variable
resolves its base, element size, length and read and write slot codes
(:meth:`~repro.trace.columnar.ColumnarRecorder.slot`) once, at
construction, so scalar indexing is an index check plus two appends:
the element's address, then the slot code.  Values stay in a numpy
array of the variable's dtype.  :meth:`TracedArray.read_many` records
a whole read pattern in one vectorized ``append_many`` call.
"""

from __future__ import annotations

import operator
from typing import Optional, Sequence, Union

import numpy as np

from repro.mem.symbols import Variable
from repro.trace.columnar import ColumnarRecorder

Number = Union[int, float]


class _Traced:
    """Traced storage of one variable: its access path, resolved once.

    The base address is checked here, so an in-range index always
    yields a non-negative address and the per-access path needs no
    check.
    """

    def __init__(self, variable: Variable, builder: ColumnarRecorder):
        if variable.base < 0:
            raise ValueError(
                f"{variable.name!r}: base address must be non-negative, "
                f"got {variable.base}"
            )
        self.variable = variable
        self._builder = builder
        self._base = variable.base
        self._size = variable.element_size
        self._read_slot = builder.slot(variable.name, self._size, False)
        self._write_slot = builder.slot(variable.name, self._size, True)
        self._record_address, self._record_slot = builder.sinks()

    @property
    def name(self) -> str:
        """The underlying variable's name."""
        return self.variable.name


class TracedArray(_Traced):
    """An instrumented fixed-size array bound to a placed variable.

    Reads (``array[i]``) and writes (``array[i] = v``) append trace
    entries carrying the variable's name and the element's byte
    address.  ``peek``/``poke`` access values *without* tracing, for
    initialization and verification.
    """

    def __init__(
        self,
        variable: Variable,
        builder: ColumnarRecorder,
        dtype: np.dtype | type = np.int64,
        initial: Optional[Sequence[Number]] = None,
    ):
        super().__init__(variable, builder)
        self._values = np.zeros(variable.element_count, dtype=dtype)
        if initial is not None:
            initial_array = np.asarray(initial)
            if len(initial_array) != variable.element_count:
                raise ValueError(
                    f"initializer for {variable.name!r} has "
                    f"{len(initial_array)} elements, expected "
                    f"{variable.element_count}"
                )
            self._values[:] = initial_array
        self._length = variable.element_count

    def _out_of_range(self, index: int) -> IndexError:
        return IndexError(
            f"{self.name}[{index}]: out of range (size {self._length})"
        )

    def __getitem__(self, index: int) -> Number:
        if index.__class__ is not int:
            # A numpy integer would do the address arithmetic in its
            # own dtype and overflow.
            index = operator.index(index)
        if not 0 <= index < self._length:
            raise self._out_of_range(index)
        self._record_address(self._base + index * self._size)
        self._record_slot(self._read_slot)
        return self._values.item(index)

    def __setitem__(self, index: int, value: Number) -> None:
        if index.__class__ is not int:
            index = operator.index(index)
        if not 0 <= index < self._length:
            raise self._out_of_range(index)
        self._record_address(self._base + index * self._size)
        self._record_slot(self._write_slot)
        self._values[index] = value

    def _addresses_of(self, indices: np.ndarray) -> np.ndarray:
        if len(indices) and (
            indices.min() < 0 or indices.max() >= self._length
        ):
            raise IndexError(
                f"{self.name}: bulk index out of range "
                f"(size {self._length})"
            )
        return self._base + indices * np.int64(self._size)

    def read_many(
        self, indices: Sequence[int] | np.ndarray, work_each: int = 0
    ) -> np.ndarray:
        """Traced bulk read: one vectorized trace append for all reads.

        Records ``work_each`` ALU instructions *after* each read (the
        final one stays pending, exactly as an instrumented scalar
        loop of read-then-:meth:`~repro.workloads.base.Workload.work`
        iterations would leave it).  Returns the values read.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if len(indices) == 0:
            return self._values[indices].copy()
        gaps = np.full(len(indices), work_each, dtype=np.int64)
        gaps[0] = 0
        self._builder.append_many(
            self._addresses_of(indices),
            is_write=False,
            variable=self.name,
            gaps=gaps,
            sizes=np.full(len(indices), self._size, dtype=np.int32),
        )
        if work_each:
            self._builder.add_gap(work_each)
        return self._values[indices].copy()

    def peek(self, index: int) -> Number:
        """Read a value without recording an access."""
        return self._values[index].item()

    def poke(self, index: int, value: Number) -> None:
        """Write a value without recording an access."""
        self._values[index] = value

    def load_silent(self, values: Sequence[Number]) -> None:
        """Replace the whole contents without recording accesses."""
        array = np.asarray(values)
        if len(array) != len(self._values):
            raise ValueError(
                f"{self.name}: expected {len(self._values)} values, "
                f"got {len(array)}"
            )
        self._values[:] = array

    def snapshot(self) -> np.ndarray:
        """An untraced copy of the current contents."""
        return self._values.copy()

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return (
            f"TracedArray({self.name!r}, {len(self)} x "
            f"{self.variable.element_size}B)"
        )


class TracedScalar(_Traced):
    """An instrumented scalar variable (one element).

    The paper's Step 1 identifies "heavily accessed scalar variables";
    kernels use :class:`TracedScalar` for accumulators that would live
    in memory rather than a register.
    """

    def __init__(
        self,
        variable: Variable,
        builder: ColumnarRecorder,
        initial: Number = 0,
    ):
        if variable.element_count != 1:
            raise ValueError(
                f"scalar variable {variable.name!r} must have exactly "
                f"one element, has {variable.element_count}"
            )
        super().__init__(variable, builder)
        self._value: Number = initial

    def get(self) -> Number:
        """Traced read."""
        self._record_address(self._base)
        self._record_slot(self._read_slot)
        return self._value

    def set(self, value: Number) -> None:
        """Traced write."""
        self._record_address(self._base)
        self._record_slot(self._write_slot)
        self._value = value

    def add(self, delta: Number) -> None:
        """Traced read-modify-write."""
        self.set(self.get() + delta)

    def peek(self) -> Number:
        """Read without tracing."""
        return self._value

    def __repr__(self) -> str:
        return f"TracedScalar({self.name!r}, value={self._value!r})"
