"""Declarative sweep specifications: jobs, axes, content hashing.

A :class:`SimJob` names a *runner* — a top-level function, referenced
by dotted path ``"package.module:function"`` so worker processes can
import it — plus JSON-serializable keyword parameters.  The job's
:meth:`~SimJob.content_hash` is a stable digest of (runner, params);
the engine uses it as the key of the result cache, which is what makes
repeated sweeps incremental: change one axis value and only the new
points simulate.

A :class:`SweepSpec` enumerates the cartesian product of axis values
over a base parameter set — the declarative
(workload x geometry x assignment/policy) enumeration the experiments
submit instead of hand-rolled nested loops.

The content hash also folds in the **active kernel backend**
(:func:`repro.sim.engine.backends.active_backend`): results computed
by the numpy and compiled lockstep kernels are defined to be
bit-identical, but cache entries must never silently vouch for a
backend that did not actually produce them — a cache hit under
``REPRO_KERNEL=compiled`` proves the compiled kernel ran, which is
what the perf gate and the differential oracle rely on.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.sim.engine import backends

#: Bump when result semantics change to invalidate old disk caches.
CACHE_FORMAT_VERSION = 2


def _canonical(value: Any) -> Any:
    """Normalize params for hashing/serialization (tuples -> lists).

    Dict keys must already be strings: coercing (say) ``1`` and
    ``"1"`` to the same key would give two different jobs the same
    content hash — and the wrong cached result.
    """
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(
                    f"job parameter dict key {key!r} must be a string "
                    "(non-string keys would collide in the content hash)"
                )
        return {key: _canonical(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (int, float)):
        return value
    if hasattr(value, "item") and callable(value.item):
        return _canonical(value.item())  # numpy scalar
    raise TypeError(
        f"job parameter {value!r} ({type(value).__name__}) is not "
        "JSON-serializable; pass plain python values"
    )


def canonical_json(value: Any) -> str:
    """Deterministic JSON used for hashing and cache files."""
    return json.dumps(
        _canonical(value), sort_keys=True, separators=(",", ":")
    )


def runner_path(runner: str | Callable[..., Any]) -> str:
    """The stable string reference of a runner."""
    if isinstance(runner, str):
        if ":" not in runner:
            raise ValueError(
                f"runner path {runner!r} must look like "
                "'package.module:function'"
            )
        return runner
    return f"{runner.__module__}:{runner.__qualname__}"


def resolve_runner(runner: str | Callable[..., Any]) -> Callable[..., Any]:
    """Import a runner from its dotted path (no-op for callables)."""
    if callable(runner):
        return runner
    module_name, _, attribute = runner_path(runner).partition(":")
    module = importlib.import_module(module_name)
    target: Any = module
    for part in attribute.split("."):
        target = getattr(target, part)
    if not callable(target):
        raise TypeError(f"runner {runner!r} resolved to non-callable")
    return target


@dataclass(frozen=True)
class SimJob:
    """One unit of sweep work: a runner plus its parameters.

    Attributes:
        runner: Dotted path ``"module:function"`` or a callable (a
            callable must be importable from its module to cross a
            process boundary; any callable works on the serial
            backend).
        params: Keyword arguments for the runner; must be
            JSON-serializable (tuples are normalized to lists).
        label: Display/reporting name; not part of the content hash.
    """

    runner: str | Callable[..., Any]
    params: Mapping[str, Any] = field(default_factory=dict)
    label: str = ""  # repro: ignore[R002] -- display-only name; excluding it lets relabeled sweeps share cached results

    def content_hash(self) -> str:
        """Stable digest identifying this job's result.

        Covers (format version, kernel backend, runner, params): jobs
        executed under different kernel backends hash differently, so
        :class:`~repro.sim.engine.cache.ResultCache` entries never
        cross-hit between backends.
        """
        payload = canonical_json(
            {
                "version": CACHE_FORMAT_VERSION,
                "kernel": backends.active_backend(),
                "runner": runner_path(self.runner),
                "params": dict(self.params),
            }
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def display_label(self) -> str:
        """The label, or a compact params rendering."""
        if self.label:
            return self.label
        rendered = ",".join(
            f"{key}={value!r}" for key, value in sorted(self.params.items())
        )
        return f"{runner_path(self.runner)}({rendered})"

    def execute(self) -> Any:
        """Run the job in this process."""
        return resolve_runner(self.runner)(**dict(self.params))


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian sweep: base params x all combinations of axis values.

    >>> spec = SweepSpec(
    ...     name="demo",
    ...     runner="repro.experiments.runners:trace_sim",
    ...     base={"kind": "zipf"},
    ...     axes={"columns": (2, 4), "total_bytes": (1024, 2048)},
    ... )
    >>> [job.params["columns"] for job in spec.jobs()]
    [2, 2, 4, 4]
    """

    name: str
    runner: str | Callable[..., Any]
    base: Mapping[str, Any] = field(default_factory=dict)
    axes: Mapping[str, Sequence[Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        overlap = set(self.base) & set(self.axes)
        if overlap:
            raise ValueError(
                f"axes {sorted(overlap)} also appear in base params"
            )

    def jobs(self) -> list[SimJob]:
        """Enumerate the sweep as concrete jobs (axis-major order)."""
        axis_names = list(self.axes)
        combos = itertools.product(
            *(self.axes[name] for name in axis_names)
        )
        out = []
        for values in combos:
            params = dict(self.base)
            params.update(zip(axis_names, values))
            point = ",".join(
                f"{name}={value}"
                for name, value in zip(axis_names, values)
            )
            out.append(
                SimJob(
                    runner=self.runner,
                    params=params,
                    label=f"{self.name}[{point}]" if point else self.name,
                )
            )
        return out

    def __len__(self) -> int:
        count = 1
        for values in self.axes.values():
            count *= len(values)
        return count
