"""Step 1 of the layout algorithm: splitting oversized variables.

"If a variable v is larger than the size of a column S, even if v is
exclusively assigned, we cannot treat it as scratchpad memory because
elements of v may replace other elements of v.  Thus, v is split into
separate subarrays, each of which can fit into a column."

:func:`split_for_columns` rewrites a symbol table so every array unit
fits in one column; subarrays are named ``parent#i`` and keep a back
reference via ``Variable.parent``.  Small variables are
*aggregated* (the paper's "a set of variables can be aggregated into a
single variable") implicitly, through vertex merging.
"""

from __future__ import annotations

from repro.mem.symbols import SymbolTable, Variable, VariableKind
from repro.utils.validation import check_positive


def split_for_columns(
    symbols: SymbolTable, column_bytes: int
) -> SymbolTable:
    """A new symbol table whose array units each fit in one column.

    >>> from repro.mem.address import AddressRange
    >>> table = SymbolTable()
    >>> _ = table.add(Variable("big", AddressRange(0, 1024), 2))
    >>> [v.name for v in split_for_columns(table, 512)]
    ['big#0', 'big#1']
    """
    check_positive(column_bytes, "column_bytes")
    result = SymbolTable()
    for variable in symbols:
        if (
            variable.kind is VariableKind.ARRAY
            and variable.size > column_bytes
        ):
            for piece in variable.split(column_bytes):
                result.add(piece)
        else:
            result.add(variable)
    return result


def units_of(symbols: SymbolTable, parent: str) -> list[Variable]:
    """All layout units derived from (or equal to) ``parent``."""
    return [
        variable
        for variable in symbols
        if variable.name == parent or variable.parent == parent
    ]
