"""Memory-map allocation: placing variables at byte addresses.

The layout algorithm assigns *variables* to columns; the memory map is
where variables get their concrete addresses.  Two placement policies
matter for the paper:

* ``page_aligned=True`` pads every variable to a page boundary so each
  variable owns its pages outright and can be tinted independently
  (Section 2.2 makes the page the minimum mapping granularity).
* Scratchpad emulation additionally requires a region mapped one-to-one
  onto a column, which :meth:`MemoryMap.allocate_column_image` provides:
  a region whose size equals the column size and whose base is aligned
  to the column size, so that consecutive lines fill consecutive sets
  exactly once.
"""

from __future__ import annotations

from typing import Optional

from repro.mem.address import AddressRange, align_up
from repro.mem.symbols import SymbolTable, Variable, VariableKind
from repro.utils.validation import check_positive, check_power_of_two


class MemoryMap:
    """A bump allocator for program variables in a flat address space.

    >>> memory_map = MemoryMap(base=0x1000, page_size=256)
    >>> block = memory_map.allocate("block", 128, element_size=2)
    >>> block.base
    4096
    """

    def __init__(
        self,
        base: int = 0x1000,
        page_size: int = 256,
        page_aligned: bool = False,
    ):
        check_power_of_two(page_size, "page_size")
        self.page_size = page_size
        self.page_aligned = page_aligned
        self.symbols = SymbolTable()
        self._cursor = base

    @property
    def cursor(self) -> int:
        """Next free address."""
        return self._cursor

    def allocate(
        self,
        name: str,
        size_bytes: int,
        element_size: int = 2,
        kind: VariableKind = VariableKind.ARRAY,
        align: Optional[int] = None,
    ) -> Variable:
        """Place a new variable at the next free (aligned) address."""
        check_positive(size_bytes, "size_bytes")
        alignment = align if align is not None else element_size
        if self.page_aligned:
            alignment = max(alignment, self.page_size)
        base = align_up(self._cursor, alignment)
        variable = Variable(
            name=name,
            range=AddressRange(base, size_bytes),
            element_size=element_size,
            kind=kind,
        )
        self.symbols.add(variable)
        self._cursor = base + size_bytes
        return variable

    def allocate_scalar(self, name: str, element_size: int = 2) -> Variable:
        """Place a scalar variable (one element)."""
        return self.allocate(
            name, element_size, element_size=element_size,
            kind=VariableKind.SCALAR,
        )

    def allocate_array(
        self,
        name: str,
        element_count: int,
        element_size: int = 2,
        align: Optional[int] = None,
    ) -> Variable:
        """Place an array variable of ``element_count`` elements."""
        check_positive(element_count, "element_count")
        return self.allocate(
            name,
            element_count * element_size,
            element_size=element_size,
            kind=VariableKind.ARRAY,
            align=align,
        )

    def allocate_column_image(
        self, name: str, column_bytes: int, element_size: int = 2
    ) -> Variable:
        """Place a column-sized, column-aligned region.

        Such a region maps one-to-one onto a cache column: each of its
        lines lands in a distinct set, so dedicating one column to it
        makes that column behave exactly like scratchpad memory
        (paper Section 2.3).
        """
        check_power_of_two(column_bytes, "column_bytes")
        return self.allocate(
            name,
            column_bytes,
            element_size=element_size,
            kind=VariableKind.ARRAY,
            align=column_bytes,
        )

    def find(self, address: int) -> Optional[Variable]:
        """The variable containing ``address``, or None."""
        return self.symbols.find(address)

    def get(self, name: str) -> Variable:
        """Look up a variable by name."""
        return self.symbols.get(name)

    def pages_of(self, variable: Variable) -> list[int]:
        """Virtual page numbers the variable's range touches."""
        return list(variable.range.pages(self.page_size))

    def shares_page(self, first: Variable, second: Variable) -> bool:
        """True if the two variables touch a common page.

        Variables sharing a page cannot be tinted independently; the
        layout realization warns (or pads) in that case.
        """
        return bool(
            set(first.range.pages(self.page_size))
            & set(second.range.pages(self.page_size))
        )
