"""Program variables and the symbol table.

The data-layout algorithm (paper Section 3.1) operates on *program
variables*: heavily-accessed scalars ``s_i`` and array variables ``v_i``
with known sizes.  :class:`Variable` records a variable's placement in
the address space; :class:`SymbolTable` supports the reverse lookup the
profiler needs (address -> variable) in O(log n) via bisection.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterator, Optional

from repro.mem.address import AddressRange
from repro.utils.validation import check_positive


class VariableKind(Enum):
    """Scalar versus array, the paper's two variable classes."""

    SCALAR = "scalar"
    ARRAY = "array"


@dataclass(frozen=True)
class Variable:
    """A named program variable placed at a byte address.

    Attributes:
        name: Unique variable name (subarrays from splitting are named
            ``base#k``).
        range: The byte-address range the variable occupies.
        element_size: Size of one element in bytes (scalars have a
            single element).
        kind: Scalar or array.
        parent: For subarrays created by splitting, the original
            variable's name; None otherwise.
    """

    name: str
    range: AddressRange
    element_size: int = 2
    kind: VariableKind = VariableKind.ARRAY
    parent: Optional[str] = None

    def __post_init__(self) -> None:
        check_positive(self.element_size, "element_size")
        if self.range.size % self.element_size != 0:
            raise ValueError(
                f"variable {self.name!r}: size {self.range.size} is not a "
                f"multiple of element size {self.element_size}"
            )

    @property
    def base(self) -> int:
        """Base byte address."""
        return self.range.base

    @property
    def size(self) -> int:
        """Size in bytes."""
        return self.range.size

    @property
    def element_count(self) -> int:
        """Number of elements."""
        return self.range.size // self.element_size

    def address_of(self, index: int) -> int:
        """Byte address of element ``index``."""
        if not 0 <= index < self.element_count:
            raise IndexError(
                f"index {index} out of range for {self.name!r} "
                f"({self.element_count} elements)"
            )
        return self.range.base + index * self.element_size

    def split(self, chunk_bytes: int) -> list["Variable"]:
        """Split into subarrays of at most ``chunk_bytes`` bytes each.

        This is the paper's Step 1: an array larger than a column cannot
        be treated as scratchpad (its elements would replace each other),
        so it is split into column-sized subarrays.  Chunk boundaries are
        kept element-aligned.
        """
        check_positive(chunk_bytes, "chunk_bytes")
        chunk_bytes -= chunk_bytes % self.element_size
        if chunk_bytes <= 0:
            raise ValueError(
                f"chunk of {chunk_bytes} bytes cannot hold an element of "
                f"{self.element_size} bytes"
            )
        if self.size <= chunk_bytes:
            return [self]
        pieces = []
        for index, piece in enumerate(self.range.split(chunk_bytes)):
            pieces.append(
                Variable(
                    name=f"{self.name}#{index}",
                    range=piece,
                    element_size=self.element_size,
                    kind=self.kind,
                    parent=self.name,
                )
            )
        return pieces


@dataclass
class SymbolTable:
    """An ordered collection of non-overlapping variables.

    Supports name lookup, address -> variable reverse lookup, and
    enumeration in address order.
    """

    _by_name: dict[str, Variable] = field(default_factory=dict)
    _bases: list[int] = field(default_factory=list)
    _ordered: list[Variable] = field(default_factory=list)
    _derived: dict[Any, Any] = field(
        default_factory=dict, compare=False, repr=False
    )

    def derived(self, key: Any, compute: Callable[..., Any]) -> Any:
        """``compute(self)``, pinned under ``key`` until the next
        :meth:`add` (layout units per column size, digests)."""
        if key not in self._derived:
            self._derived[key] = compute(self)
        return self._derived[key]

    def add(self, variable: Variable) -> Variable:
        """Insert a variable; rejects duplicate names and overlaps."""
        self._derived.clear()
        if variable.name in self._by_name:
            raise ValueError(f"duplicate variable name {variable.name!r}")
        index = bisect.bisect_left(self._bases, variable.base)
        for neighbor_index in (index - 1, index):
            if 0 <= neighbor_index < len(self._ordered):
                neighbor = self._ordered[neighbor_index]
                if neighbor.range.overlaps(variable.range):
                    raise ValueError(
                        f"variable {variable.name!r} at "
                        f"{variable.range} overlaps {neighbor.name!r} "
                        f"at {neighbor.range}"
                    )
        self._by_name[variable.name] = variable
        self._bases.insert(index, variable.base)
        self._ordered.insert(index, variable)
        return variable

    def get(self, name: str) -> Variable:
        """Look up a variable by name; KeyError if absent."""
        return self._by_name[name]

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def find(self, address: int) -> Optional[Variable]:
        """The variable containing ``address``, or None."""
        index = bisect.bisect_right(self._bases, address) - 1
        if index < 0:
            return None
        candidate = self._ordered[index]
        if candidate.range.contains(address):
            return candidate
        return None

    def names(self) -> list[str]:
        """All variable names in address order."""
        return [variable.name for variable in self._ordered]

    def arrays(self) -> list[Variable]:
        """All array variables in address order."""
        return [
            variable
            for variable in self._ordered
            if variable.kind is VariableKind.ARRAY
        ]

    def scalars(self) -> list[Variable]:
        """All scalar variables in address order."""
        return [
            variable
            for variable in self._ordered
            if variable.kind is VariableKind.SCALAR
        ]

    def total_bytes(self) -> int:
        """Sum of all variable sizes."""
        return sum(variable.size for variable in self._ordered)

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._ordered)

    def __len__(self) -> int:
        return len(self._ordered)
