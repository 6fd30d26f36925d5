"""R003: FFI drift — ctypes declarations must match the C kernel.

The compiled lockstep kernel crosses the FFI with hand-written
``argtypes``/``restype`` declarations in
:mod:`repro.sim.engine._compiled`.  Nothing checks them against
``_lockstep.c`` at build time: an argument inserted on the C side
shifts every later parameter, and ctypes happily marshals garbage —
int64 read as a pointer, a state array scribbled over.  Because both
kernels are differential-tested the corruption *usually* surfaces,
but as a runtime crash far from the cause (or, worse, only on inputs
the oracle did not draw).

This rule parses every sibling ``*.c`` file of a module that declares
ctypes signatures (:mod:`repro.analysis.cparse`), cross-checks name,
arity, per-position type width, and restype, and reports **one
finding per drifted function** naming each mismatch.
"""

from __future__ import annotations

import ast
from typing import Sequence

from repro.analysis.cparse import (
    compare_declarations,
    extract_ctypes_declarations,
    parse_prototypes,
)
from repro.analysis.engine import ModuleContext
from repro.analysis.registry import Rule, RuleMeta


class FfiDrift(Rule):
    """Cross-check ctypes argtypes/restype against C prototypes."""

    meta = RuleMeta(
        id="R003",
        name="ffi-drift",
        summary=(
            "ctypes argtypes/restype declarations must match the "
            "sibling C source's exported prototypes"
        ),
        rationale=(
            "ctypes has no header to check against: a drifted "
            "declaration marshals wrong-width or misordered "
            "arguments silently, corrupting simulation state in "
            "ways that surface as distant crashes or — on unlucky "
            "inputs — wrong numbers.  A 40-line C-prototype parser "
            "catches the drift at commit time."
        ),
        example=(
            "ctypes declaration of repro_fused_multitask() drifted "
            "from its C prototype: argument 7 (int32_t blocks_is32) "
            "expects c_int32, argtypes declares c_int64"
        ),
    )

    # Module-level rule: everything happens in finish_module, after
    # the single walk confirmed the module parses.
    interests = ()

    def finish_module(self, ctx: ModuleContext) -> None:
        """Compare this module's declarations to sibling C sources."""
        declarations = extract_ctypes_declarations(ctx.tree)
        if not declarations:
            return
        directory = ctx.path.parent
        if not directory.is_dir():
            return
        c_sources = sorted(directory.glob("*.c"))
        if not c_sources:
            ctx.report(
                self.meta.id,
                ast.Module(body=[], type_ignores=[]),
                "module declares ctypes signatures but no sibling "
                "*.c source exists to check them against",
                line=1,
            )
            return
        prototypes = []
        for source_path in c_sources:
            prototypes.extend(
                parse_prototypes(
                    source_path.read_text(encoding="utf-8")
                )
            )
        for drift in compare_declarations(prototypes, declarations):
            ctx.report(
                self.meta.id,
                ctx.tree,
                drift.message(),
                line=drift.line,
            )
