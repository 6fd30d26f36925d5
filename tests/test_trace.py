"""Tests for trace storage, builder, generators, dinero I/O, concatenate."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.dinero import load_trace, save_trace
from repro.trace.filters import concatenate
from repro.trace.generator import (
    KINDS,
    generate,
    looped_working_set,
    pointer_chase,
    random_uniform,
    sequential_stream,
    strided_stream,
    zipf_accesses,
)
from repro.trace.columnar import ColumnarRecorder
from repro.trace.trace import Trace


class TestBuilder:
    def test_gap_attaches_to_next_access(self):
        builder = ColumnarRecorder()
        builder.add_gap(3)
        builder.append(0x100, variable="a")
        builder.append(0x104, variable="a")
        trace = builder.build()
        assert list(trace.gaps) == [3, 0]
        assert trace.instruction_count == 5

    def test_negative_gap_rejected(self):
        builder = ColumnarRecorder()
        with pytest.raises(ValueError):
            builder.add_gap(-1)

    def test_negative_address_rejected(self):
        builder = ColumnarRecorder()
        with pytest.raises(ValueError):
            builder.append(-5)

    def test_variable_interning(self):
        builder = ColumnarRecorder()
        builder.append(0, variable="a")
        builder.append(4, variable="b")
        builder.append(8, variable="a")
        trace = builder.build()
        assert trace.variables() == ["a", "b"]
        assert trace.variable_of(2) == "a"

    def test_unlabelled_access(self):
        builder = ColumnarRecorder()
        builder.append(0)
        assert builder.build().variable_of(0) is None


class TestTrace:
    def build(self):
        builder = ColumnarRecorder(name="t")
        for index in range(10):
            builder.add_gap(1)
            builder.append(
                index * 16,
                is_write=(index % 2 == 1),
                variable="even" if index % 2 == 0 else "odd",
            )
        return builder.build()

    def test_positions_of(self):
        trace = self.build()
        assert list(trace.positions_of("even")) == [0, 2, 4, 6, 8]
        assert list(trace.positions_of("missing")) == []

    def test_slice(self):
        trace = self.build()
        piece = trace.slice(2, 5)
        assert len(piece) == 3
        assert piece.addresses[0] == 32

    def test_repeat(self):
        trace = self.build()
        doubled = trace.repeat(2)
        assert len(doubled) == 20
        assert doubled.addresses[10] == 0

    def test_repeat_invalid(self):
        with pytest.raises(ValueError):
            self.build().repeat(0)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            Trace(
                np.zeros(2, dtype=np.int64),
                np.zeros(1, dtype=bool),
                np.zeros(2, dtype=np.int64),
                np.zeros(2, dtype=np.int64),
                [],
            )

    def test_empty(self):
        trace = Trace.empty()
        assert len(trace) == 0
        assert trace.instruction_count == 0


class TestGenerators:
    def test_sequential(self):
        trace = sequential_stream(0x100, 4, element_size=2)
        assert list(trace.addresses) == [0x100, 0x102, 0x104, 0x106]

    def test_strided(self):
        trace = strided_stream(0, 3, stride=64)
        assert list(trace.addresses) == [0, 64, 128]

    def test_looped_working_set(self):
        trace = looped_working_set(0, working_set_bytes=8, passes=3,
                                   element_size=2)
        assert len(trace) == 12
        assert trace.addresses[0] == trace.addresses[4]

    def test_random_uniform_deterministic(self):
        first = random_uniform(0, 256, 50, seed=3)
        second = random_uniform(0, 256, 50, seed=3)
        assert list(first.addresses) == list(second.addresses)

    def test_random_uniform_bounds(self):
        trace = random_uniform(0x1000, 128, 100, seed=0)
        assert trace.addresses.min() >= 0x1000
        assert trace.addresses.max() < 0x1080

    def test_random_write_fraction(self):
        trace = random_uniform(0, 256, 400, seed=1, write_fraction=0.5)
        writes = trace.writes.sum()
        assert 100 < writes < 300

    def test_zipf_concentration(self):
        trace = zipf_accesses(0, 4096, 2000, exponent=2.0, seed=0)
        values, counts = np.unique(trace.addresses, return_counts=True)
        # The hottest element dominates under a steep Zipf.
        assert counts.max() > len(trace) * 0.3

    def test_zipf_rejects_exponent(self):
        with pytest.raises(ValueError):
            zipf_accesses(0, 64, 10, exponent=1.0)

    def test_pointer_chase_visits_all_nodes(self):
        trace = pointer_chase(0, node_count=16, hops=16, seed=2)
        assert len(set(trace.addresses.tolist())) == 16

    #: What ``generate(kind, 2000, base=0x4000, span=1024,
    #: element_size=4, seed=5)`` names, kind by kind.
    NAMED = {
        "sequential": lambda: sequential_stream(
            0x4000, 2000, element_size=4
        ),
        "looped": lambda: looped_working_set(
            0x4000, 1024, 2000 // 512, element_size=4
        ),
        "random": lambda: random_uniform(
            0x4000, 1024, 2000, element_size=4, seed=5
        ),
        "zipf": lambda: zipf_accesses(
            0x4000, 1024, 2000, element_size=4, seed=5
        ),
        "pointer_chase": lambda: pointer_chase(
            0x4000, 1024 // 16, 2000, seed=5
        ),
    }

    @pytest.mark.parametrize("kind", KINDS)
    def test_generate_equals_the_generator_it_names(self, kind):
        generated = generate(
            kind, 2000, base=0x4000, span=1024, element_size=4, seed=5
        )
        named = self.NAMED[kind]()
        for column in (
            "addresses", "sizes", "writes", "gaps", "variable_ids"
        ):
            assert np.array_equal(
                getattr(generated, column), getattr(named, column)
            ), column
        assert generated.variable_names == named.variable_names
        assert generated.name == named.name

    @pytest.mark.parametrize("kind", KINDS)
    def test_cli_generate_writes_what_generate_draws(self, tmp_path, kind):
        """`repro trace generate` passes its trace options through to
        the one generator table."""
        from repro.trace.cli import main as trace_main

        out = tmp_path / "t.din"
        assert trace_main(
            [
                "generate", str(out), "--kind", kind, "--count", "700",
                "--base", "4096", "--span", "512", "--element-size", "4",
                "--seed", "3",
            ]
        ) == 0
        written = load_trace(out)
        drawn = generate(
            kind, 700, base=4096, span=512, element_size=4, seed=3
        )
        assert np.array_equal(written.addresses, drawn.addresses)
        assert np.array_equal(written.writes, drawn.writes)

    def test_generate_rejects_an_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown trace kind 'bogus'"):
            generate("bogus", 10, base=0, span=64, element_size=1, seed=0)


class TestDinero:
    def test_round_trip_with_extensions(self):
        builder = ColumnarRecorder()
        builder.add_gap(3)
        builder.append(0x1000, is_write=True, variable="block")
        builder.append(0x2000)
        trace = builder.build()
        buffer = io.StringIO()
        save_trace(trace, buffer)
        loaded = load_trace(io.StringIO(buffer.getvalue()))
        assert list(loaded.addresses) == [0x1000, 0x2000]
        assert list(loaded.writes) == [True, False]
        assert loaded.variable_of(0) == "block"
        assert loaded.instruction_count == trace.instruction_count

    def test_plain_two_column_format(self):
        loaded = load_trace(io.StringIO("0 1f0\n1 200\n2 300\n"))
        assert list(loaded.addresses) == [0x1F0, 0x200, 0x300]
        assert list(loaded.writes) == [False, True, False]

    def test_comments_and_blanks_ignored(self):
        loaded = load_trace(io.StringIO("# header\n\n0 10\n"))
        assert len(loaded) == 1

    def test_bad_label(self):
        with pytest.raises(ValueError, match="unknown access label"):
            load_trace(io.StringIO("7 100\n"))

    def test_bad_address(self):
        with pytest.raises(ValueError, match="bad address"):
            load_trace(io.StringIO("0 zz\n"))

    def test_kernel_space_addresses_fold_into_int64(self):
        """Addresses in [2**63, 2**64) load as their int64 two's
        complement (as a uint64 ``.npz`` column does) and write back
        as the same unsigned hex."""
        text = "0 10\n0 ffffffff81000000\n1 8000000000000000\n"
        loaded = load_trace(io.StringIO(text))
        assert list(loaded.addresses) == [
            0x10, 0xFFFFFFFF81000000 - 2**64, -(2**63)
        ]
        written = io.StringIO()
        save_trace(loaded, written)
        assert written.getvalue() == text

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("0 10\n0 10000000000000000\n",
             "line 2: address '10000000000000000'"),
            ("0 10\n0 -8\n", "line 2: address '-8'"),
            ("0 10 -3 a\n0 8 0\n1 20 2 b\n", "line 1: gap '-3'"),
            ("0 10 0\n0 20 9223372036854775808\n",
             "line 2: gap '9223372036854775808'"),
            ("0 10 4611686018427387904\n0 20 4611686018427387904\n",
             "line 2: the instruction total passes 2\\*\\*63 - 1"),
            ("0 10 9223372036854775806\n0 20\n",
             "line 2: the instruction total passes 2\\*\\*63 - 1"),
        ],
        ids=["address-beyond-uint64", "negative-address",
             "negative-gap", "gap-beyond-int64", "total-beyond-int64",
             "total-beyond-int64-without-a-gap"],
    )
    def test_impossible_records_name_their_line(self, text, message):
        """A negative or wider-than-64-bit address, a negative or
        int64-overflowing gap, and the line whose access takes the
        instruction total past 2**63 - 1 fail at load time, naming
        the line."""
        with pytest.raises(ValueError, match=message):
            load_trace(io.StringIO(text))

    def test_largest_instruction_total_loads(self):
        loaded = load_trace(io.StringIO("0 10 9223372036854775806\n"))
        assert loaded.instruction_count == 2**63 - 1

    def test_a_file_is_named_with_its_line(self, tmp_path):
        path = tmp_path / "bad.din"
        path.write_text("0 10\n7 20\n")
        with pytest.raises(ValueError) as raised:
            load_trace(path)
        assert str(raised.value).startswith(f"{path}: line 2: unknown")

    def test_largest_int64_address_loads(self):
        loaded = load_trace(io.StringIO("0 7fffffffffffffff\n"))
        assert list(loaded.addresses) == [2**63 - 1]

    def test_bad_gap(self):
        with pytest.raises(ValueError, match="bad gap"):
            load_trace(io.StringIO("0 10 xx\n"))

    def test_short_line(self):
        with pytest.raises(ValueError, match="expected"):
            load_trace(io.StringIO("0\n"))

    def test_file_round_trip(self, tmp_path):
        trace = sequential_stream(0, 5)
        path = tmp_path / "trace.din"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert list(loaded.addresses) == list(trace.addresses)


@given(
    entries=st.lists(
        st.tuples(
            st.integers(0, 2**30),
            st.booleans(),
            st.integers(0, 50),
            st.sampled_from(["a", "b", None]),
        ),
        max_size=40,
    )
)
@settings(max_examples=30, deadline=None)
def test_dinero_round_trip_property(entries):
    builder = ColumnarRecorder()
    for address, is_write, gap, variable in entries:
        builder.add_gap(gap)
        builder.append(address, is_write=is_write, variable=variable)
    trace = builder.build()
    buffer = io.StringIO()
    save_trace(trace, buffer)
    loaded = load_trace(io.StringIO(buffer.getvalue()))
    assert list(loaded.addresses) == list(trace.addresses)
    assert list(loaded.writes) == list(trace.writes)
    assert list(loaded.gaps) == list(trace.gaps)
    assert [loaded.variable_of(i) for i in range(len(loaded))] == [
        trace.variable_of(i) for i in range(len(trace))
    ]


class TestFilters:
    def test_concatenate_merges_variable_tables(self):
        first = sequential_stream(0, 3, variable="x")
        second = sequential_stream(64, 3, variable="y")
        joined = concatenate([first, second])
        assert len(joined) == 6
        assert joined.variable_of(0) == "x"
        assert joined.variable_of(3) == "y"

    def test_concatenate_shared_variable_names(self):
        first = sequential_stream(0, 2, variable="x")
        second = sequential_stream(64, 2, variable="x")
        joined = concatenate([first, second])
        assert joined.variables() == ["x"]
        assert len(joined.positions_of("x")) == 4

    def test_concatenate_empty(self):
        assert len(concatenate([])) == 0
