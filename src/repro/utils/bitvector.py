"""Column bit vectors.

The paper's replacement unit receives "a bit vector specifying the
permissible set of columns" (Section 2.1).  :class:`ColumnMask` is that
bit vector: an immutable set of column indices with a fixed width (the
number of columns in the cache).  It supports the set algebra the tint
table needs (union, intersection, difference) and renders in the paper's
``0 1 0 0`` style for debugging.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.utils.validation import check_positive


class ColumnMask:
    """An immutable bit vector over ``width`` cache columns.

    Bit ``i`` set means column ``i`` is a permissible replacement target.
    Column 0 is the leftmost column in the paper's figures; we simply use
    integer bit positions.

    >>> m = ColumnMask.of(0, 2, width=4)
    >>> list(m)
    [0, 2]
    >>> m.to_string()
    '1 0 1 0'
    """

    __slots__ = ("_bits", "_width")

    def __init__(self, bits: int, width: int):
        check_positive(width, "width")
        if bits < 0:
            raise ValueError(f"bit vector must be non-negative, got {bits}")
        if bits >> width:
            raise ValueError(
                f"bit vector {bits:#x} has bits outside width {width}"
            )
        self._bits = bits
        self._width = width

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, *columns: int, width: int) -> "ColumnMask":
        """Build a mask with exactly the given column indices set."""
        bits = 0
        for column in columns:
            if not 0 <= column < width:
                raise ValueError(
                    f"column {column} out of range for width {width}"
                )
            bits |= 1 << column
        return cls(bits, width)

    @classmethod
    def from_columns(cls, columns: Iterable[int], width: int) -> "ColumnMask":
        """Build a mask from an iterable of column indices."""
        return cls.of(*columns, width=width)

    @classmethod
    def all_columns(cls, width: int) -> "ColumnMask":
        """The mask with every column permitted (a standard cache)."""
        check_positive(width, "width")
        return cls((1 << width) - 1, width)

    @classmethod
    def none(cls, width: int) -> "ColumnMask":
        """The empty mask (no column may be replaced)."""
        return cls(0, width)

    @classmethod
    def contiguous(cls, first: int, count: int, width: int) -> "ColumnMask":
        """A mask of ``count`` consecutive columns starting at ``first``."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return cls.none(width)
        if first < 0 or first + count > width:
            raise ValueError(
                f"columns [{first}, {first + count}) out of range "
                f"for width {width}"
            )
        return cls(((1 << count) - 1) << first, width)

    @classmethod
    def from_string(cls, text: str) -> "ColumnMask":
        """Parse the paper's ``'1 0 1 0'`` rendering (bit 0 first)."""
        tokens = text.split()
        if not tokens or any(token not in ("0", "1") for token in tokens):
            raise ValueError(f"not a bit-vector string: {text!r}")
        bits = 0
        for position, token in enumerate(tokens):
            if token == "1":
                bits |= 1 << position
        return cls(bits, len(tokens))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def bits(self) -> int:
        """The raw integer bit vector."""
        return self._bits

    @property
    def width(self) -> int:
        """Number of columns this mask spans."""
        return self._width

    def columns(self) -> tuple[int, ...]:
        """The sorted tuple of permitted column indices."""
        return tuple(self)

    def count(self) -> int:
        """Number of permitted columns (population count)."""
        return self._bits.bit_count()

    def is_empty(self) -> bool:
        """True if no columns are permitted."""
        return self._bits == 0

    def is_full(self) -> bool:
        """True if every column is permitted."""
        return self._bits == (1 << self._width) - 1

    def contains(self, column: int) -> bool:
        """True if ``column`` is a permitted replacement target."""
        return 0 <= column < self._width and bool(self._bits >> column & 1)

    def lowest(self) -> int:
        """Index of the lowest permitted column.

        Raises ValueError if the mask is empty.
        """
        if self._bits == 0:
            raise ValueError("empty column mask has no lowest column")
        return (self._bits & -self._bits).bit_length() - 1

    # ------------------------------------------------------------------
    # Set algebra (all return new masks)
    # ------------------------------------------------------------------
    def union(self, other: "ColumnMask") -> "ColumnMask":
        """Columns permitted by either mask."""
        self._check_width(other)
        return ColumnMask(self._bits | other._bits, self._width)

    def intersection(self, other: "ColumnMask") -> "ColumnMask":
        """Columns permitted by both masks."""
        self._check_width(other)
        return ColumnMask(self._bits & other._bits, self._width)

    def difference(self, other: "ColumnMask") -> "ColumnMask":
        """Columns permitted by this mask but not ``other``."""
        self._check_width(other)
        return ColumnMask(self._bits & ~other._bits, self._width)

    def complement(self) -> "ColumnMask":
        """Columns not permitted by this mask."""
        return ColumnMask(
            ~self._bits & ((1 << self._width) - 1), self._width
        )

    def overlaps(self, other: "ColumnMask") -> bool:
        """True if the two masks share any column."""
        self._check_width(other)
        return bool(self._bits & other._bits)

    def issubset(self, other: "ColumnMask") -> bool:
        """True if every column in this mask is also in ``other``."""
        self._check_width(other)
        return (self._bits & ~other._bits) == 0

    def with_column(self, column: int) -> "ColumnMask":
        """A copy of this mask with ``column`` added."""
        return self.union(ColumnMask.of(column, width=self._width))

    def without_column(self, column: int) -> "ColumnMask":
        """A copy of this mask with ``column`` removed."""
        return self.difference(ColumnMask.of(column, width=self._width))

    # ------------------------------------------------------------------
    # Rendering and dunders
    # ------------------------------------------------------------------
    def to_string(self) -> str:
        """Render in the paper's Figure 3 style, bit 0 first."""
        return " ".join(
            "1" if self.contains(i) else "0" for i in range(self._width)
        )

    def _check_width(self, other: "ColumnMask") -> None:
        if not isinstance(other, ColumnMask):
            raise TypeError(f"expected ColumnMask, got {type(other).__name__}")
        if other._width != self._width:
            raise ValueError(
                f"mask widths differ: {self._width} vs {other._width}"
            )

    def __iter__(self) -> Iterator[int]:
        bits = self._bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __len__(self) -> int:
        return self.count()

    def __contains__(self, column: object) -> bool:
        return isinstance(column, int) and self.contains(column)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnMask):
            return NotImplemented
        return self._bits == other._bits and self._width == other._width

    def __hash__(self) -> int:
        return hash((self._bits, self._width))

    def __or__(self, other: "ColumnMask") -> "ColumnMask":
        return self.union(other)

    def __and__(self, other: "ColumnMask") -> "ColumnMask":
        return self.intersection(other)

    def __sub__(self, other: "ColumnMask") -> "ColumnMask":
        return self.difference(other)

    def __repr__(self) -> str:
        return f"ColumnMask({self.to_string()!r})"
