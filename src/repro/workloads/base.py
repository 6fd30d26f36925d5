"""Workload base class: memory map + trace recorder + phase markers.

Every workload records through one
:class:`~repro.trace.columnar.ColumnarRecorder`, built in
:meth:`Workload.__init__` and shared by all of its traced storage.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.mem.layout import MemoryMap
from repro.mem.symbols import SymbolTable
from repro.trace.columnar import ColumnarRecorder
from repro.trace.trace import Trace
from repro.workloads.arrays import Number, TracedArray, TracedScalar


@dataclass(frozen=True)
class PhaseMarker:
    """A labelled region of a workload's trace.

    ``[start, stop)`` are trace positions; ``label`` names the routine
    or phase (e.g. ``"idct"`` or ``"frame3"``).
    """

    label: str
    start: int
    stop: int


@dataclass
class WorkloadRun:
    """The product of running one workload.

    Attributes:
        name: Workload name.
        trace: The recorded reference stream.
        memory_map: Where every variable lives.
        phases: Labelled trace regions (per routine/frame).
        outputs: Named numeric results for verification.
    """

    name: str
    trace: Trace
    memory_map: MemoryMap
    phases: list[PhaseMarker] = field(default_factory=list)
    outputs: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def symbols(self) -> SymbolTable:
        """The symbol table of the memory map."""
        return self.memory_map.symbols

    def phase_trace(self, label: str) -> Trace:
        """Concatenated sub-trace of every phase with ``label``."""
        from repro.trace.filters import concatenate

        pieces = [
            self.trace.slice(marker.start, marker.stop)
            for marker in self.phases
            if marker.label == label
        ]
        if not pieces:
            raise KeyError(f"no phase labelled {label!r}")
        if len(pieces) == 1:
            return pieces[0]
        return concatenate(pieces, name=f"{self.name}:{label}")

    def phase_labels(self) -> list[str]:
        """Distinct phase labels in first-appearance order."""
        seen: list[str] = []
        for marker in self.phases:
            if marker.label not in seen:
                seen.append(marker.label)
        return seen


class Workload(ABC):
    """Base class for instrumented kernels.

    Subclasses allocate traced storage in ``__init__`` (or lazily) via
    :meth:`array`/:meth:`scalar` and implement :meth:`run` by indexing
    it; :meth:`record` drives the run and packages the result.

    Args:
        name: Workload name (also the trace name).
        element_size: Default element size in bytes.
        base_address: Where the workload's variables start.
        page_size: Memory-map page size; variables are page-aligned so
            each can be tinted independently.
        seed: Seed for any stochastic input generation.
    """

    def __init__(
        self,
        name: str,
        element_size: int = 2,
        base_address: int = 0x10000,
        page_size: int = 64,
        seed: int = 0,
    ):
        self.name = name
        self.element_size = element_size
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.memory_map = MemoryMap(
            base=base_address, page_size=page_size, page_aligned=True
        )
        self.builder = ColumnarRecorder(name)
        self.phases: list[PhaseMarker] = []
        self.outputs: dict[str, np.ndarray] = {}
        self._phase_stack: list[tuple[str, int]] = []

    # ------------------------------------------------------------------
    # Storage allocation
    # ------------------------------------------------------------------
    def array(
        self,
        name: str,
        element_count: int,
        element_size: Optional[int] = None,
        dtype: np.dtype | type = np.int64,
        initial: Optional[Sequence[Number]] = None,
    ) -> TracedArray:
        """Allocate and wrap a traced array."""
        variable = self.memory_map.allocate_array(
            name,
            element_count,
            element_size=element_size or self.element_size,
        )
        return TracedArray(variable, self.builder, dtype=dtype, initial=initial)

    def scalar(
        self,
        name: str,
        initial: Number = 0,
        element_size: Optional[int] = None,
    ) -> TracedScalar:
        """Allocate and wrap a traced scalar."""
        variable = self.memory_map.allocate_scalar(
            name, element_size=element_size or self.element_size
        )
        return TracedScalar(variable, self.builder, initial=initial)

    # ------------------------------------------------------------------
    # Instrumentation helpers
    # ------------------------------------------------------------------
    def work(self, instructions: int = 1) -> None:
        """Record non-memory compute instructions (ALU work)."""
        self.builder.add_gap(instructions)

    def begin_phase(self, label: str) -> None:
        """Open a labelled trace region (may nest)."""
        self._phase_stack.append((label, len(self.builder)))

    def end_phase(self) -> None:
        """Close the innermost open phase."""
        if not self._phase_stack:
            raise RuntimeError("end_phase() without begin_phase()")
        label, start = self._phase_stack.pop()
        self.phases.append(PhaseMarker(label, start, len(self.builder)))

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    @abstractmethod
    def run(self) -> None:
        """Execute the computation, recording accesses."""

    def record(self) -> WorkloadRun:
        """Run the workload once and package the result."""
        self.run()
        if self._phase_stack:
            raise RuntimeError(
                f"unclosed phases at end of run: "
                f"{[label for label, _ in self._phase_stack]}"
            )
        return WorkloadRun(
            name=self.name,
            trace=self.builder.build(),
            memory_map=self.memory_map,
            phases=list(self.phases),
            outputs=dict(self.outputs),
        )
