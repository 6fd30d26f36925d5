"""Reference column allocator: the broker's waterfill, column by column.

The allocator :class:`~repro.fleet.broker.ColumnBroker` ran before it
priced each demand curve's marginal benefits once and kept grants as
bits, kept here as the reference the production one is held to:

* :func:`marginal_benefit` takes both curves' steps at the grant size
  on every call, clamped at 0, and reads W only where the measured
  step is positive;
* :func:`target_counts` re-evaluates every resident's marginal benefit
  for every spare column, keyed ``(priority x benefit x miss_penalty,
  priority, -admission index)``;
* :func:`assign_columns` keeps the first ``count`` columns of each
  current :class:`~repro.utils.bitvector.ColumnMask` (``tuple(mask)``
  is ascending), then hands the growers, in admission order, the
  ascending list of free columns.
"""

from __future__ import annotations

from repro.fleet.broker import ColumnBroker, ColumnDemand
from repro.utils.bitvector import ColumnMask


def _step(curve: tuple[int, ...], columns: int) -> int:
    index = min(columns, len(curve)) - 1
    return max(curve[index - 1] - curve[index], 0)


def marginal_benefit(demand: ColumnDemand, columns: int) -> int:
    """Misses avoided by growing a grant from ``columns - 1`` to
    ``columns``: the measured step, lowered to W's where positive."""
    if columns <= 1:
        raise ValueError("the first column is mandatory, not marginal")
    measured = _step(demand.measured_costs, columns)
    return measured and min(_step(demand.plan_costs, columns), measured)


def target_counts(broker: ColumnBroker) -> dict[str, int]:
    """The greedy priority-weighted waterfill over ``broker``'s
    residents, one candidate at a time."""
    order = broker.resident
    counts = {name: 1 for name in order}
    for _ in range(max(broker.geometry.columns - len(order), 0)):
        best_name = None
        best_key: tuple[int, int, int] = (-1, -1, 0)
        for index, name in enumerate(order):
            priority = broker.priorities[name]
            gain = (
                priority
                * marginal_benefit(broker.demands[name], counts[name] + 1)
                * broker.timing.miss_penalty
            )
            key = (gain, priority, -index)
            if key > best_key:
                best_key = key
                best_name = name
        if best_name is None:
            break
        counts[best_name] += 1
    return counts


def assign_columns(
    broker: ColumnBroker, counts: dict[str, int]
) -> dict[str, ColumnMask]:
    """Target counts as masks: each resident keeps the lowest
    ``count`` columns it holds, then growers take the lowest free."""
    width = broker.geometry.columns
    grants: dict[str, ColumnMask] = {}
    taken: set[int] = set()
    for name in broker.resident:
        current = broker.grants.get(name)
        keep = tuple(current)[: counts[name]] if current is not None else ()
        grants[name] = ColumnMask.from_columns(keep, width)
        taken.update(keep)
    free = [c for c in range(width) if c not in taken]
    for name in broker.resident:
        need = counts[name] - grants[name].count()
        if need > 0:
            grab, free = free[:need], free[need:]
            grants[name] = grants[name] | ColumnMask.from_columns(grab, width)
    return grants


def reference_grants(broker: ColumnBroker) -> dict[str, ColumnMask]:
    """The grants a forced rebalance of ``broker`` installs."""
    return assign_columns(broker, target_counts(broker))
