"""Trace infrastructure: memory-reference streams with variable labels.

A :class:`~repro.trace.trace.Trace` is the contract between the
workloads, the profiler and the simulators: parallel numpy columns
(:class:`~repro.trace.columnar.ColumnarTrace`), one row per memory
access, holding

* a byte address and an access size,
* a read/write flag,
* the program variable it belongs to (for profiling/layout), and
* a *gap* — the number of non-memory instructions executed since the
  previous access (so CPI can be computed without modelling an ISA),

with cached block-number columns, so million-access traces stay
cheap.  There is one way in per source:
:class:`~repro.trace.columnar.ColumnarRecorder`, the recorder the
instrumented workloads record into; :func:`~repro.trace.columnar.load_npz`
for the ``.npz`` format :meth:`~repro.trace.columnar.ColumnarTrace.save_npz`
writes (memory-mappable for streaming replay); and
:func:`~repro.trace.dinero.load_trace` for dinero text.  Both loaders
refuse a bad record with a ``ValueError`` that names it.
"""

from repro.trace.columnar import (
    ColumnarRecorder,
    ColumnarTrace,
    load_npz,
)
from repro.trace.dinero import load_trace, save_trace
from repro.trace.filters import concatenate
from repro.trace.generator import (
    looped_working_set,
    pointer_chase,
    random_uniform,
    sequential_stream,
    strided_stream,
    zipf_accesses,
)
from repro.trace.trace import Trace

__all__ = [
    "ColumnarRecorder",
    "ColumnarTrace",
    "Trace",
    "load_npz",
    "concatenate",
    "load_trace",
    "looped_working_set",
    "pointer_chase",
    "random_uniform",
    "save_trace",
    "sequential_stream",
    "strided_stream",
    "zipf_accesses",
]
