"""Span tracing for the benchmark's traced run.

The traced run wraps the public entry points of each ``repro`` layer
from here, outside the program: nothing under ``src/`` is edited or
instrumented, and the untimed runs install no wrapper at all.  A
wrapper records one span per call (layer, start, end, enclosing span,
and a request id where one exists) and bumps per-layer counters.
Spans stay in memory until the run writes them out.

Between two ``await`` points the program is synchronous, so spans
nest strictly on one stack: a span's self time is its duration minus
the durations of its direct children, and the self times of all spans
plus the unwrapped residual add up to the traced wall time.  The one
asynchronous entry point, ``FleetService.submit``, is kept off that
stack as a *request* span (submit to decision, keyed by tenant name);
the admit spans of the same tenant carry that name and point at it as
their cause.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

clock = time.perf_counter


@dataclass
class Span:
    """One recorded call.

    ``parent`` indexes the enclosing span (-1 at top level); ``cause``
    indexes the request span that led to it (-1 when none).
    """

    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    ident: Any = None
    cause: int = -1



def _row_accesses(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    # lockstep_run_compiled(rows, tags, state, ...): one access per row.
    counts["sim.engine.kernel_accesses"] += len(args[0])


def _segment_accesses(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    # The schedule walks take (seg_jobs, seg_pos, seg_len, ...).
    counts["sim.engine.kernel_accesses"] += int(args[2].sum())


def _recorded(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["workloads.recorded_accesses"] += len(result.trace)


def _executor_accesses(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["sim.executor.accesses"] += int(result.accesses)


def _adaptive_counts(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["runtime.windows"] += len(result.observations)
    counts["runtime.remaps"] += int(result.remap_count)


def _spec_name(args: tuple, kwargs: dict) -> Any:
    return args[1].name


def _spec_names(args: tuple, kwargs: dict) -> Any:
    return tuple(spec.name for spec in args[1])


def _tenant_name(args: tuple, kwargs: dict) -> Any:
    return args[1]


@dataclass(frozen=True)
class Wrap:
    """One wrapped entry point: ``target`` is ``func`` or ``Class.method``."""

    module: str
    target: str
    layer: str
    count: Optional[Callable[[Counter, tuple, dict, Any], None]] = None
    ident: Optional[Callable[[tuple, dict], Any]] = None


#: Every wrapped call, by layer.  Layers are ``repro`` modules; a
#: layer's self time is what its calls spend outside the calls of the
#: layers below it.
WRAPS: tuple[Wrap, ...] = (
    Wrap("repro.experiments.figure5", "run_figure5", "experiments"),
    Wrap("repro.experiments.adaptive", "run_adaptive_comparison", "experiments"),
    Wrap("repro.experiments.runners", "figure5_matrix", "experiments"),
    Wrap("repro.experiments.runners", "adaptive_point", "experiments"),
    Wrap("repro.trace.cli", "main", "trace.cli"),
    Wrap("repro.sim.engine.scheduler", "SweepEngine.run", "sim.engine.sweep"),
    Wrap("repro.workloads.base", "Workload.record", "workloads.record", count=_recorded),
    Wrap("repro.trace.columnar", "load_npz", "trace.load"),
    Wrap("repro.trace.columnar", "ColumnarTrace.blocks_for", "trace.blocks"),
    Wrap("repro.profiling.profiler", "profile_trace", "profiling.profile"),
    Wrap("repro.layout.algorithm", "DataLayoutPlanner.plan_from_profile", "layout.plan"),
    Wrap("repro.sim.multitask", "quantum_tables", "sim.multitask.schedule"),
    Wrap("repro.sim.multitask", "quantum_schedule", "sim.multitask.schedule"),
    Wrap("repro.sim.multitask", "walk_tables", "sim.multitask.schedule"),
    Wrap("repro.sim.engine.multitask_batch", "_Schedule.__init__", "sim.multitask.schedule"),
    Wrap("repro.sim.engine.multitask_batch", "simulate_multitask_matrix", "sim.engine.matrix"),
    Wrap("repro.sim.engine.fused", "fused_multitask_run", "sim.engine.fused"),
    Wrap("repro.sim.engine.batched", "LockstepCache.run", "sim.engine.prep"),
    Wrap("repro.sim.engine._compiled", "lockstep_run_compiled", "sim.engine.kernel", count=_row_accesses),
    Wrap("repro.sim.engine._compiled", "schedule_count_compiled", "sim.engine.kernel", count=_segment_accesses),
    Wrap("repro.sim.engine._compiled", "fused_multitask_compiled", "sim.engine.kernel", count=_segment_accesses),
    Wrap("repro.sim.executor", "TraceExecutor.run", "sim.executor.run", count=_executor_accesses),
    Wrap("repro.baselines.page_coloring", "PageColoringBaseline.run", "baselines.page_coloring"),
    Wrap("repro.runtime.adaptive", "AdaptiveExecutor.run", "runtime.adaptive", count=_adaptive_counts),
    Wrap("repro.fleet.broker", "demand_curves", "fleet.broker.price"),
    Wrap("repro.fleet.broker", "ColumnBroker.prime", "fleet.broker.admit"),
    Wrap("repro.fleet.broker", "ColumnBroker.admit", "fleet.broker.admit", ident=_tenant_name),
    Wrap("repro.fleet.service.shard", "ShardServer.prime_admissions", "fleet.service.shard.admit", ident=_spec_names),
    Wrap("repro.fleet.service.shard", "ShardServer.admit", "fleet.service.shard.admit", ident=_spec_name),
    Wrap("repro.fleet.service.shard", "ShardServer.advance", "fleet.service.shard.advance"),
    Wrap("repro.fleet.service.shard", "ShardServer.snapshot", "fleet.service.shard.snapshot"),
    Wrap("repro.fleet.service.shard", "ShardServer.check_disjoint", "fleet.service.shard.audit"),
)

#: The asynchronous request entry point (recorded off the span stack).
SUBMIT = ("repro.fleet.service.daemon", "FleetService.submit")

#: Generator whose yields are counted (no span: each step is a slice).
CHUNKS = ("repro.trace.columnar", "ColumnarTrace.iter_chunks", "trace.chunks")

#: Constructor whose instances report memo hit ratios.
SESSIONS = ("repro.layout.session", "PlannerSession.__init__")

#: Coroutine whose completions are counted: the service clock wakes
#: every task blocked in ``wait_until``/``drain`` through one
#: ``asyncio.Event``, and each completed wait is one such wakeup.
WAKEUPS = ("asyncio", "Event.wait", "fleet.service.daemon.clock_wakeups")


def _resolve(target: str, module: Any) -> tuple[Any, str]:
    owner = module
    *path, name = target.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.requests: list[Span] = []
        self.counts: Counter = Counter()
        self.sessions: list[Any] = []
        self._stack: list[int] = []
        self._request_of: dict[str, int] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def begin(self, layer: str, ident: Any = None) -> int:
        """Open a span under the current one; returns its index."""
        cause = self._request_of.get(ident, -1) if isinstance(ident, str) else -1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(layer, clock(), parent=parent, ident=ident, cause=cause))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        """Close the innermost span, which must be ``index``."""
        self.spans[index].end = clock()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """A ``with`` block recorded as one span of ``layer``."""
        index = self.begin(layer)
        try:
            yield
        finally:
            self.end(index)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap_call(self, original: Callable, wrap: Wrap) -> Callable:
        tracer = self
        layer, count, ident = wrap.layer, wrap.count, wrap.ident

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = tracer.begin(layer, ident(args, kwargs) if ident else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced

    def _wrap_submit(self, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        async def traced(service: Any, spec: Any, *args: Any, **kwargs: Any) -> Any:
            request = Span("fleet.service.daemon.submit", clock(), ident=spec.name)
            tracer._request_of[spec.name] = len(tracer.requests)
            tracer.requests.append(request)
            try:
                return await original(service, spec, *args, **kwargs)
            finally:
                request.end = clock()

        return traced

    def _wrap_chunks(self, original: Callable, key: str) -> Callable:
        counts = self.counts

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            for chunk in original(*args, **kwargs):
                counts[key] += 1
                yield chunk

        return traced

    def _wrap_wakeups(self, original: Callable, key: str) -> Callable:
        counts = self.counts

        @functools.wraps(original)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            result = await original(*args, **kwargs)
            counts[key] += 1
            return result

        return traced

    def _wrap_sessions(self, original: Callable) -> Callable:
        sessions = self.sessions

        @functools.wraps(original)
        def traced(session: Any, *args: Any, **kwargs: Any) -> None:
            original(session, *args, **kwargs)
            sessions.append(session)

        return traced

    def _patch(self, module_name: str, target: str, make: Callable[[Callable], Callable]) -> None:
        module = importlib.import_module(module_name)
        owner, name = _resolve(target, module)
        original = getattr(owner, name)
        replacement = make(original)
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)
        if owner is not module:
            return
        # A function imported by name elsewhere is rebound there too.
        for other in list(sys.modules.values()):
            names = getattr(other, "__dict__", None)
            if other is module or not isinstance(names, dict):
                continue
            for attr, value in list(names.items()):
                if value is original:
                    self._patches.append((other, attr, original))
                    setattr(other, attr, replacement)

    def watch_sessions(self) -> None:
        """Collect every planner session constructed from now on.

        Separate from :meth:`install` so that sessions a service builds
        before the traced round (serve's, at set-up) are counted too.
        """
        self._patch(*SESSIONS, self._wrap_sessions)

    def install(self) -> None:
        """Wrap every entry point in :data:`WRAPS` (and the extras)."""
        for wrap in WRAPS:
            self._patch(wrap.module, wrap.target, lambda f, w=wrap: self._wrap_call(f, w))
        self._patch(*SUBMIT, self._wrap_submit)
        self._patch(CHUNKS[0], CHUNKS[1], lambda f: self._wrap_chunks(f, CHUNKS[2]))
        self._patch(WAKEUPS[0], WAKEUPS[1], lambda f: self._wrap_wakeups(f, WAKEUPS[2]))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def layer_times(self) -> tuple[Counter, Counter, float]:
        """Per-layer self seconds, per-layer calls, top-level seconds.

        A layer's calls count only its outermost spans (a call that
        the same layer made again is part of the first one's work).
        Raises when a span is not inside its parent, which would make
        self times meaningless.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                parent = self.spans[span.parent]
                if not parent.start <= span.start <= span.end <= parent.end:
                    raise RuntimeError(f"span {span} is not inside its parent")
                child[span.parent] += span.end - span.start
        self_seconds: Counter = Counter()
        calls: Counter = Counter()
        top = 0.0
        for index, span in enumerate(self.spans):
            duration = span.end - span.start
            self_seconds[span.layer] += duration - child[index]
            if span.parent < 0:
                top += duration
            if span.parent < 0 or self.spans[span.parent].layer != span.layer:
                calls[span.layer] += 1
        return self_seconds, calls, top

    def export(self) -> dict[str, Any]:
        """All spans as plain data (times relative to the first span)."""
        origin = min((s.start for s in self.spans + self.requests), default=0.0)

        def rows(spans: list[Span]) -> list[list[Any]]:
            return [
                [s.layer, round(s.start - origin, 7), round(s.end - origin, 7), s.parent, s.ident, s.cause]
                for s in spans
            ]

        return {
            "columns": ["layer", "start_s", "end_s", "parent", "id", "cause"],
            "spans": rows(self.spans),
            "requests": rows(self.requests),
        }

