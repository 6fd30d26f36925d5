"""Trace infrastructure: memory-reference streams with variable labels.

A :class:`~repro.trace.trace.Trace` is the contract between the
workloads, the profiler and the simulators: a sequence of memory
accesses, each carrying

* a byte address,
* a read/write flag,
* the program variable it belongs to (for profiling/layout), and
* a *gap* — the number of non-memory instructions executed since the
  previous access (so CPI can be computed without modelling an ISA).

Traces are stored columnar
(:class:`~repro.trace.columnar.ColumnarTrace`: parallel numpy arrays,
with cached block-number columns) so million-access traces stay
cheap; :class:`~repro.trace.columnar.ColumnarRecorder` is the one
recorder, the append-only constructor the instrumented workloads
record into, and :func:`~repro.trace.columnar.load_npz` /
:meth:`~repro.trace.columnar.ColumnarTrace.save_npz` are the on-disk
``.npz`` format (memory-mappable for streaming replay).
"""

from repro.trace.access import MemoryAccess
from repro.trace.columnar import (
    ColumnarRecorder,
    ColumnarTrace,
    load_npz,
    open_npz,
)
from repro.trace.dinero import load_trace, save_trace
from repro.trace.filters import (
    concatenate,
    filter_by_range,
    filter_by_variable,
    relocate,
)
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
    "MemoryAccess",
    "Trace",
    "load_npz",
    "open_npz",
    "concatenate",
    "filter_by_range",
    "filter_by_variable",
    "load_trace",
    "looped_working_set",
    "pointer_chase",
    "random_uniform",
    "relocate",
    "save_trace",
    "sequential_stream",
    "strided_stream",
    "zipf_accesses",
]
