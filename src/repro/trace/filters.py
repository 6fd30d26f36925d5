"""Trace concatenation, vectorized over the columnar representation.

:func:`concatenate` joins traces end to end, every column (sizes
included) carried over and the variable tables merged by name; the
broker's demand probes join a tenant's phases with it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.trace.columnar import NO_VARIABLE
from repro.trace.trace import Trace


def concatenate(traces: Sequence[Trace], name: str = "concat") -> Trace:
    """Join traces end to end (variable tables are merged by name)."""
    if not traces:
        return Trace.empty(name)
    merged_names: list[str] = []
    name_ids: dict[str, int] = {}
    remapped_ids = []
    for trace in traces:
        # local id -> merged id, gathered through a small table so the
        # per-access column is remapped in one vectorized step.
        table = np.full(
            len(trace.variable_names) + 1, NO_VARIABLE, dtype=np.int64
        )
        for local_id, variable in enumerate(trace.variable_names):
            if variable not in name_ids:
                name_ids[variable] = len(merged_names)
                merged_names.append(variable)
            table[local_id] = name_ids[variable]
        remapped_ids.append(table[trace.variable_ids])

    return Trace(
        np.concatenate([trace.addresses for trace in traces]),
        np.concatenate([trace.writes for trace in traces]),
        np.concatenate([trace.gaps for trace in traces]),
        np.concatenate(remapped_ids),
        merged_names,
        name=name,
        sizes=np.concatenate([trace.sizes for trace in traces]),
    )
