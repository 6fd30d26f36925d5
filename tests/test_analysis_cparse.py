"""The R003 C-prototype parser, checked against the real kernel.

Two layers: unit tests of the parser/comparator on the *actual*
``_lockstep.c`` / ``_compiled.py`` pair (which must agree), and
mutation fixtures — a deliberately broken copy of the wrapper whose
drift the rule must catch with **exactly one** finding per mutation.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis.cparse import (
    compare_declarations,
    expected_ctype,
    extract_ctypes_declarations,
    parse_prototypes,
)
from repro.analysis.engine import analyze_module
from repro.analysis.rules.ffi_drift import FfiDrift

ENGINE_DIR = (
    Path(__file__).resolve().parents[1] / "src" / "repro" / "sim" / "engine"
)
KERNEL_C = ENGINE_DIR / "_lockstep.c"
WRAPPER_PY = ENGINE_DIR / "_compiled.py"

#: The kernel's exported functions and their C-side arity.
EXPORTED = {
    "repro_lockstep_flags": 17,
    "repro_fused_multitask": 16,
    "repro_fleet_segment": 16,
}


class TestExpectedCtype:
    """C declaration -> ctypes class mapping."""

    @pytest.mark.parametrize(
        ("declaration", "ctype"),
        [
            ("int64_t n", "c_int64"),
            ("int32_t blocks_is32", "c_int32"),
            ("const int64_t *blocks", "c_void_p"),
            ("const void *restrict data", "c_void_p"),
            ("double scale", "c_double"),
            ("void", None),
            ("struct opaque thing", None),
        ],
    )
    def test_mapping(self, declaration, ctype):
        """Scalars map by width; any pointer is a raw address."""
        assert expected_ctype(declaration) == ctype


class TestRealKernelPair:
    """The shipped C source and wrapper must agree exactly."""

    def test_all_exports_parsed(self):
        """Every API function is found with the right arity."""
        prototypes = {
            prototype.name: prototype
            for prototype in parse_prototypes(
                KERNEL_C.read_text(encoding="utf-8")
            )
        }
        assert set(prototypes) == set(EXPORTED)
        for name, arity in EXPORTED.items():
            prototype = prototypes[name]
            assert len(prototype.params) == arity, name
            assert prototype.return_type == "void"
            assert prototype.expected_restype is None
            assert all(
                param.ctype is not None for param in prototype.params
            ), f"{name}: unparsed parameter"

    def test_wrapper_declarations_extracted(self):
        """argtypes/restype for every export, aliases resolved."""
        import ast

        tree = ast.parse(WRAPPER_PY.read_text(encoding="utf-8"))
        declarations = extract_ctypes_declarations(tree)
        assert set(EXPORTED) <= set(declarations)
        for name, arity in EXPORTED.items():
            declaration = declarations[name]
            assert len(declaration.argtypes) == arity, name
            assert declaration.restype is None
            assert None not in declaration.argtypes, name

    def test_zero_drift(self):
        """The real pair is in sync: the comparator returns nothing."""
        import ast

        prototypes = parse_prototypes(
            KERNEL_C.read_text(encoding="utf-8")
        )
        declarations = extract_ctypes_declarations(
            ast.parse(WRAPPER_PY.read_text(encoding="utf-8"))
        )
        assert compare_declarations(prototypes, declarations) == []

    def test_comment_stripping_keeps_line_numbers(self):
        """Prototype line numbers point into the original source."""
        source = KERNEL_C.read_text(encoding="utf-8")
        lines = source.splitlines()
        for prototype in parse_prototypes(source):
            assert prototype.name in lines[prototype.line - 1]


#: Textual mutations of the real wrapper; each must yield exactly one
#: R003 finding naming the mutated function.
MUTATIONS = {
    "wrong-width": (
        "        i64, ptr, ptr, ptr, ptr, ptr, ptr, i32, ptr, i64, i64, i64,",
        "        i64, ptr, ptr, ptr, ptr, ptr, ptr, i64, ptr, i64, i64, i64,",
    ),
    "swapped-arg-order": (
        "        i64, ptr, ptr, ptr, ptr, ptr, ptr, i32, ptr, i64, i64, i64,",
        "        i64, ptr, ptr, ptr, ptr, ptr, i32, ptr, ptr, i64, i64, i64,",
    ),
    "missing-arg": (
        "        i64, ptr, ptr, ptr, ptr, ptr, ptr, i32, ptr, i64, i64, i64,",
        "        i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, i64, i64, i64,",
    ),
}


class TestMutationFixtures:
    """R003 catches each way the wrapper can drift."""

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutation_yields_one_finding(
        self, mutation: str, tmp_path: Path
    ):
        """One broken declaration -> exactly one R003 finding."""
        original, mutated = MUTATIONS[mutation]
        wrapper_source = WRAPPER_PY.read_text(encoding="utf-8")
        assert original in wrapper_source, (
            "mutation anchor drifted from _compiled.py; update the "
            "fixture alongside the declaration"
        )
        broken = wrapper_source.replace(original, mutated)
        (tmp_path / "_lockstep.c").write_text(
            KERNEL_C.read_text(encoding="utf-8"), encoding="utf-8"
        )
        broken_path = tmp_path / "_compiled.py"
        broken_path.write_text(broken, encoding="utf-8")
        findings, _ = analyze_module(
            broken,
            "src/repro/sim/engine/_compiled.py",
            [FfiDrift()],
            path=broken_path,
        )
        assert len(findings) == 1, [f.render() for f in findings]
        finding = findings[0]
        assert finding.rule == "R003"
        assert "repro_fused_multitask" in finding.message

    def test_missing_c_source_flagged(self, tmp_path: Path):
        """Declarations with no sibling .c file cannot be checked."""
        source = textwrap.dedent(
            """
            import ctypes

            def _declare(lib):
                lib.orphan_fn.restype = None
                lib.orphan_fn.argtypes = [ctypes.c_int64]
                return lib
            """
        )
        module_path = tmp_path / "wrapper.py"
        module_path.write_text(source, encoding="utf-8")
        findings, _ = analyze_module(
            source, "src/repro/x/wrapper.py", [FfiDrift()],
            path=module_path,
        )
        assert len(findings) == 1
        assert "no sibling *.c source" in findings[0].message

    def test_undeclared_export_flagged(self, tmp_path: Path):
        """A C export the wrapper never declares is drift too."""
        (tmp_path / "kernel.c").write_text(
            "#define API __attribute__((visibility(\"default\")))\n"
            "API void declared_fn(int64_t n) { (void)n; }\n"
            "API void forgotten_fn(int64_t n) { (void)n; }\n",
            encoding="utf-8",
        )
        source = textwrap.dedent(
            """
            import ctypes

            def _declare(lib):
                lib.declared_fn.restype = None
                lib.declared_fn.argtypes = [ctypes.c_int64]
                return lib
            """
        )
        module_path = tmp_path / "wrapper.py"
        module_path.write_text(source, encoding="utf-8")
        findings, _ = analyze_module(
            source, "src/repro/x/wrapper.py", [FfiDrift()],
            path=module_path,
        )
        assert len(findings) == 1
        assert "forgotten_fn" in findings[0].message
