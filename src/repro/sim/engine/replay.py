"""One replay path: a trace streams through one cache.

:func:`replay_trace` replays one trace at one cache point; ``repro
trace replay`` and the ``trace_sim`` sweep runner call nothing else.
It streams bounded
:meth:`~repro.trace.columnar.ColumnarTrace.iter_chunks` windows into
one :class:`~repro.sim.engine.batched.LockstepCache` on the selected
kernel backend, handing each window's byte addresses to the kernel,
which shifts them itself.  A memory-mapped ``.npz`` archive thus
replays at a flat footprint however long it is.

The sweep engine's process backend parallelizes *across* sweep
points; one point stays in one process.  Splitting a point's sets
over worker processes would have every worker read and filter the
whole trace, and on the compiled kernel that filter alone costs about
as much as replaying the trace through one cache.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.cache.geometry import CacheGeometry
from repro.sim.engine.batched import FastSimResult, LockstepCache
from repro.trace.columnar import DEFAULT_CHUNK_ACCESSES, ColumnarTrace
from repro.trace.dinero import load_any


def replay_trace(
    trace_or_path: Union[ColumnarTrace, str, Path],
    geometry: CacheGeometry,
    *,
    chunk_accesses: int = DEFAULT_CHUNK_ACCESSES,
    uniform_mask: Optional[int] = None,
    kernel: Optional[str] = None,
    mmap: bool = True,
) -> FastSimResult:
    """Replay one trace through one cache; its hit/miss/bypass counts.

    ``trace_or_path`` is a trace, or a ``.npz`` or dinero file opened
    with :func:`~repro.trace.dinero.load_any` (``mmap`` memory-maps an
    archive).  ``kernel`` pins the lockstep backend (None follows the
    session's active backend).  The counts do not depend on
    ``chunk_accesses``.
    """
    trace = (
        trace_or_path
        if isinstance(trace_or_path, ColumnarTrace)
        else load_any(trace_or_path, mmap=mmap)
    )
    cache = LockstepCache(geometry, backend=kernel)
    for window in trace.iter_chunks(chunk_accesses):
        cache.run(
            window.addresses,
            uniform_mask=uniform_mask,
            offset_bits=geometry.offset_bits,
        )
    return cache.result()
