"""The trace type under its historical name.

:class:`Trace` is :class:`~repro.trace.columnar.ColumnarTrace`: every
consumer imports the columnar class by this name, so the whole stack
shares one parallel-array representation.  The representation, the
:class:`~repro.trace.columnar.ColumnarRecorder` that workloads record
into, and the ``.npz`` format all live in :mod:`repro.trace.columnar`.
"""

from repro.trace.columnar import ColumnarTrace

#: Historical name: every consumer imports the columnar class as Trace.
Trace = ColumnarTrace
