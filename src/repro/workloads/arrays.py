"""Traced storage: arrays and scalars that record every access.

A :class:`TracedArray` behaves like a C array — integer indices, real
values, no bounds magic — and appends one trace entry per element read
or write.  Kernels therefore compute *actual results* while their
reference stream is captured, which is what keeps the workloads honest
(tests verify both the numerics and the traces).  Every entry goes
into the owning workload's
:class:`~repro.trace.columnar.ColumnarRecorder`: scalar indexing
appends one access, and :meth:`TracedArray.read_many` records a whole
read pattern in one vectorized ``append_many`` call.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.mem.symbols import Variable
from repro.trace.columnar import ColumnarRecorder

Number = Union[int, float]


class TracedArray:
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
        self.variable = variable
        self._builder = builder
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

    @property
    def name(self) -> str:
        """The underlying variable's name."""
        return self.variable.name

    def _address(self, index: int) -> int:
        if not 0 <= index < len(self._values):
            raise IndexError(
                f"{self.name}[{index}]: out of range "
                f"(size {len(self._values)})"
            )
        return self.variable.base + index * self.variable.element_size

    def __getitem__(self, index: int) -> Number:
        self._builder.append(
            self._address(index),
            is_write=False,
            variable=self.name,
            size=self.variable.element_size,
        )
        return self._values[index].item()

    def __setitem__(self, index: int, value: Number) -> None:
        self._builder.append(
            self._address(index),
            is_write=True,
            variable=self.name,
            size=self.variable.element_size,
        )
        self._values[index] = value

    def _addresses_of(self, indices: np.ndarray) -> np.ndarray:
        if len(indices) and (
            indices.min() < 0 or indices.max() >= len(self._values)
        ):
            raise IndexError(
                f"{self.name}: bulk index out of range "
                f"(size {len(self._values)})"
            )
        return (
            self.variable.base
            + indices * np.int64(self.variable.element_size)
        )

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
            sizes=np.full(
                len(indices), self.variable.element_size, dtype=np.int32
            ),
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


class TracedScalar:
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
        self.variable = variable
        self._builder = builder
        self._value: Number = initial

    @property
    def name(self) -> str:
        """The underlying variable's name."""
        return self.variable.name

    def get(self) -> Number:
        """Traced read."""
        self._builder.append(
            self.variable.base,
            is_write=False,
            variable=self.name,
            size=self.variable.element_size,
        )
        return self._value

    def set(self, value: Number) -> None:
        """Traced write."""
        self._builder.append(
            self.variable.base,
            is_write=True,
            variable=self.name,
            size=self.variable.element_size,
        )
        self._value = value

    def add(self, delta: Number) -> None:
        """Traced read-modify-write."""
        self.set(self.get() + delta)

    def peek(self) -> Number:
        """Read without tracing."""
        return self._value

    def __repr__(self) -> str:
        return f"TracedScalar({self.name!r}, value={self._value!r})"
