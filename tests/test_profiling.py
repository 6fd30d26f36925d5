"""Tests for the profiler, conflict weights and static analysis."""

import numpy as np
import pytest

from repro.mem.address import AddressRange
from repro.mem.symbols import SymbolTable, Variable, VariableKind
from repro.profiling.ir import access, branch, compute, loop
from repro.profiling.profiler import Profile, profile_trace
from repro.profiling.static_analysis import analyze_program
from repro.trace.columnar import ColumnarRecorder
from repro.utils.intervals import Interval


def interleaved_trace():
    """a a b a b b c c — canonical lifetimes fixture."""
    builder = ColumnarRecorder()
    pattern = ["a", "a", "b", "a", "b", "b", "c", "c"]
    bases = {"a": 0x100, "b": 0x200, "c": 0x300}
    cursor = {"a": 0, "b": 0, "c": 0}
    for name in pattern:
        builder.append(bases[name] + cursor[name] * 2, variable=name)
        cursor[name] += 1
    return builder.build()


def lifetimes(trace) -> dict[str, Interval]:
    """Each variable's lifetime as the profile records it."""
    return {
        name: entry.lifetime
        for name, entry in profile_trace(trace).variables.items()
    }


class TestLifetimes:
    def test_intervals(self):
        intervals = lifetimes(interleaved_trace())
        assert intervals["a"] == Interval(0, 4)
        assert intervals["b"] == Interval(2, 6)
        assert intervals["c"] == Interval(6, 8)

    def test_disjoint(self):
        intervals = lifetimes(interleaved_trace())
        assert not intervals["a"].overlaps(intervals["c"])
        assert intervals["a"].overlaps(intervals["b"])


class TestProfiler:
    def test_counts_and_lifetime(self):
        profile = profile_trace(interleaved_trace())
        a = profile.variables["a"]
        assert a.access_count == 3
        assert a.lifetime == Interval(0, 4)
        assert a.read_count == 3 and a.write_count == 0

    def test_write_counts(self):
        builder = ColumnarRecorder()
        builder.append(0, is_write=True, variable="x")
        builder.append(2, is_write=False, variable="x")
        profile = profile_trace(builder.build())
        x = profile.variables["x"]
        assert x.write_count == 1 and x.read_count == 1

    def test_sizes_from_symbols(self):
        table = SymbolTable()
        table.add(Variable("a", AddressRange(0x100, 64), element_size=2))
        builder = ColumnarRecorder()
        builder.append(0x100, variable="a")
        profile = profile_trace(builder.build(), table)
        assert profile.variables["a"].size == 64

    def test_by_address_attribution(self):
        table = SymbolTable()
        table.add(Variable("lo", AddressRange(0x100, 16)))
        table.add(Variable("hi", AddressRange(0x200, 16)))
        builder = ColumnarRecorder()
        builder.append(0x104, variable="whatever")
        builder.append(0x20A, variable="whatever")
        builder.append(0x900)  # outside everything
        profile = profile_trace(builder.build(), table, by_address=True)
        assert profile.variables["lo"].access_count == 1
        assert profile.variables["hi"].access_count == 1
        assert "whatever" not in profile.variables

    def test_by_address_requires_symbols(self):
        with pytest.raises(ValueError):
            profile_trace(interleaved_trace(), by_address=True)

    def test_by_address_with_subarrays(self):
        """Attribution against split units — what the planner does."""
        parent = Variable("big", AddressRange(0x0, 64), element_size=2)
        table = SymbolTable()
        for piece in parent.split(32):
            table.add(piece)
        builder = ColumnarRecorder()
        builder.append(0x00, variable="big")
        builder.append(0x20, variable="big")
        builder.append(0x3E, variable="big")
        profile = profile_trace(builder.build(), table, by_address=True)
        assert profile.variables["big#0"].access_count == 1
        assert profile.variables["big#1"].access_count == 2

    def test_density(self):
        table = SymbolTable()
        table.add(Variable("a", AddressRange(0, 16)))
        builder = ColumnarRecorder()
        for _ in range(32):
            builder.append(0, variable="a")
        profile = profile_trace(builder.build(), table)
        assert profile.variables["a"].density == 2.0

    def test_heavily_accessed_ordering(self):
        profile = profile_trace(interleaved_trace())
        names = [v.name for v in profile.heavily_accessed(2)]
        assert names[0] in ("a", "b")
        assert len(names) == 2

    def test_accesses_in(self):
        profile = profile_trace(interleaved_trace())
        a = profile.variables["a"]
        assert a.accesses_in(Interval(0, 2)) == 2
        assert a.accesses_in(Interval(4, 8)) == 0


class TestPairWeights:
    def test_min_rule(self):
        """Paper: w = MIN(accesses of each variable in the overlap)."""
        profile = profile_trace(interleaved_trace())
        # Overlap of a and b is [2, 4): a has 1 access (pos 3),
        # b has 1 access (pos 2) -> w = 1.
        assert profile.pair_weight("a", "b") == 1

    def test_disjoint_lifetimes_weight_zero(self):
        profile = profile_trace(interleaved_trace())
        assert profile.pair_weight("a", "c") == 0

    def test_weight_symmetry(self):
        profile = profile_trace(interleaved_trace())
        assert profile.pair_weight("a", "b") == profile.pair_weight("b", "a")

    def test_weight_matrix_gives_min_rule_weights(self):
        profile = profile_trace(interleaved_trace())
        names = ["a", "b", "c"]
        matrix = profile.weight_matrix(names)
        assert matrix.tolist() == [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
        for i, first in enumerate(names):
            for j, second in enumerate(names):
                if i != j:
                    assert matrix[i, j] == profile.pair_weight(first, second)

    def test_weight_matrix_zero_for_disjoint_lifetimes(self):
        profile = profile_trace(interleaved_trace())
        matrix = profile.weight_matrix(["c", "a"])
        assert matrix.tolist() == [[0, 0], [0, 0]]

    def test_relative_ordering(self):
        """The paper's stated requirement: heavier interleaving gives a
        relatively heavier edge."""
        builder = ColumnarRecorder()
        # x and y interleave 10 times; x and z once.
        for index in range(10):
            builder.append(0x000 + index, variable="x")
            builder.append(0x100 + index, variable="y")
        builder.append(0x200, variable="z")
        builder.append(0x00F, variable="x")
        profile = profile_trace(builder.build())
        assert profile.pair_weight("x", "y") > profile.pair_weight("x", "z")


class TestStaticAnalysis:
    def test_loop_multiplies_counts(self):
        program = loop(10, access("a", count=2), compute(1))
        profile = analyze_program(program)
        assert profile.variables["a"].access_count == 20

    def test_nested_loops(self):
        program = loop(4, loop(8, access("a")))
        profile = analyze_program(program)
        assert profile.variables["a"].access_count == 32

    def test_branch_probability_scales(self):
        program = loop(
            100, branch(0.25, access("rare"), access("common"))
        )
        profile = analyze_program(program)
        assert profile.variables["rare"].access_count == 25
        assert profile.variables["common"].access_count == 75

    def test_sequential_lifetimes_disjoint(self):
        from repro.profiling.ir import SeqNode

        program = SeqNode.of(
            loop(10, access("first")),
            loop(10, access("second")),
        )
        profile = analyze_program(program)
        first = profile.variables["first"].lifetime
        second = profile.variables["second"].lifetime
        assert not first.overlaps(second)
        assert profile.pair_weight("first", "second") == 0

    def test_interleaved_lifetimes_overlap(self):
        program = loop(10, access("a"), access("b"))
        profile = analyze_program(program)
        assert profile.pair_weight("a", "b") > 0

    def test_sizes_from_symbols(self):
        table = SymbolTable()
        table.add(Variable("a", AddressRange(0, 64)))
        profile = analyze_program(loop(4, access("a")), table)
        assert profile.variables["a"].size == 64

    def test_static_matches_measured_on_simple_kernel(self):
        """The static estimate tracks a measured profile of the same
        loop nest (relative ordering, not exact values)."""
        # Measured: for i in 100: read a, read b; then for i in 50: c.
        builder = ColumnarRecorder()
        for index in range(100):
            builder.append(0x000 + (index % 8) * 2, variable="a")
            builder.append(0x100 + (index % 8) * 2, variable="b")
        for index in range(50):
            builder.append(0x200 + (index % 8) * 2, variable="c")
        measured = profile_trace(builder.build())

        from repro.profiling.ir import SeqNode

        program = SeqNode.of(
            loop(100, access("a"), access("b")),
            loop(50, access("c")),
        )
        static = analyze_program(program)
        # Same relative structure: a-b heavy, a-c and b-c zero.
        assert static.pair_weight("a", "b") > 0
        assert static.pair_weight("a", "c") == 0
        assert measured.pair_weight("a", "b") > 0
        assert measured.pair_weight("a", "c") == 0
        # Counts agree exactly for this deterministic nest.
        for name in ("a", "b", "c"):
            assert (
                static.variables[name].access_count
                == measured.variables[name].access_count
            )

    def test_write_fraction(self):
        profile = analyze_program(
            loop(10, access("a", write_fraction=0.5))
        )
        assert profile.variables["a"].write_count == 5

    def test_ir_validation(self):
        with pytest.raises(ValueError):
            access("a", count=-1)
        with pytest.raises(ValueError):
            access("a", write_fraction=1.5)
        with pytest.raises(ValueError):
            loop(-1, access("a"))
        with pytest.raises(ValueError):
            branch(2.0, access("a"))
        with pytest.raises(ValueError):
            compute(-1)
