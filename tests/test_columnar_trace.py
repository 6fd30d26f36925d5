"""The columnar trace core: recorder, derived columns, on-disk format."""

import io
import re
import warnings
import zipfile

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.trace import (
    ColumnarRecorder,
    ColumnarTrace,
    Trace,
    load_npz,
    open_npz,
)
from repro.trace.columnar import NO_VARIABLE

from oracles.recording import TraceBuilder

#: Length of the long scalar runs the seal test records between bulk
#: calls.
LONG_RUN = 1 << 14


def small_trace() -> ColumnarTrace:
    recorder = ColumnarRecorder(name="unit")
    recorder.add_gap(2)
    recorder.append(0x1000, variable="a", size=2)
    recorder.append(0x2000, is_write=True, variable="b", size=4)
    recorder.append(0x3000)
    recorder.append_run(0x4000, count=3, stride=8, variable="a")
    return recorder.build()


def assert_same_recording(recorded, reference) -> None:
    """Every column and the variable-name table are identical."""
    for column in ("addresses", "sizes", "writes", "gaps", "variable_ids"):
        assert np.array_equal(
            getattr(recorded, column), getattr(reference, column)
        ), column
    assert recorded.variable_names == reference.variable_names


class TestRecorder:
    def test_trace_is_the_columnar_class(self):
        assert Trace is ColumnarTrace

    def test_scalar_appends_match_legacy_builder(self):
        recorder = ColumnarRecorder(name="t")
        legacy = TraceBuilder(name="t")
        for builder in (recorder, legacy):
            builder.add_gap(3)
            builder.append(0x10, variable="x", size=2)
            builder.append(0x20, is_write=True, variable="y")
            builder.add_gap(1)
            builder.append(0x30)
            builder.append(0x40, variable="x")
        assert_same_recording(recorder.build(), legacy.build())

    def test_recording_across_chunk_seals_matches_reference(self):
        """Long runs of scalar appends, sealed by every bulk call and
        interleaved with pending gaps, record what the reference
        recorder records; lengths and pending gaps agree after every
        step (phase markers are taken from them)."""
        recorder = ColumnarRecorder(name="t")
        legacy = TraceBuilder(name="t")
        # An unused name, a name the recorder already knows and a new
        # one, first used out of table order, plus an unlabelled access.
        donor = ColumnarTrace.from_columns(
            [0x5000, 0x5008, 0x5010, 0x5018, 0x5020],
            writes=[False, True, False, False, True],
            gaps=[1, 0, 2, 0, 3],
            variable_ids=[2, 1, NO_VARIABLE, 2, 1],
            variable_names=["unused", "q", "s"],
            sizes=[4, 2, 1, 4, 8],
        )

        def scalars(builder, count, base):
            for index in range(count):
                if index % 7 == 0:
                    builder.add_gap(index % 4 + 1)
                builder.append(
                    base + 2 * index,
                    is_write=index % 3 == 0,
                    variable=("p", "q", None)[index % 3],
                    size=4 if index % 5 == 0 else None,
                )

        steps = [
            lambda builder: builder.add_gap(3),
            lambda builder: scalars(builder, 100, 0x1000),
            lambda builder: builder.add_gap(2),
            lambda builder: builder.append_many(
                [0x50, 0x60, 0x70],
                is_write=[True, False, True],
                variable="q",
                gaps=[0, 4, 1],
                sizes=[2, 2, 8],
            ),
            lambda builder: scalars(
                builder, 2 * LONG_RUN + 5, 0x40000
            ),
            lambda builder: builder.add_gap(6),
            lambda builder: builder.append_run(
                0x9000, count=9, stride=16, variable="r", gap_each=2,
                size=2,
            ),
            lambda builder: builder.add_gap(1),
            lambda builder: builder.extend(donor),
            lambda builder: builder.append_many([0x77, 0x78], gap_each=3),
            lambda builder: scalars(builder, 11, 0x200000),
        ]
        for step in steps:
            step(recorder)
            step(legacy)
            assert len(recorder) == len(legacy)
            assert recorder.pending_gap == legacy.pending_gap
        recorded = recorder.build()
        assert len(recorded) > 2 * LONG_RUN
        assert_same_recording(recorded, legacy.build())

    @pytest.mark.parametrize(
        "first, variable_ids, names, ids",
        [
            (None, [1, 1], ["b"], [0, 0]),
            ("z", [1, 0, 1], ["z", "b", "a"], [0, 1, 2, 1]),
        ],
    )
    def test_extend_interns_used_names_in_first_access_order(
        self, first, variable_ids, names, ids
    ):
        """A donor's unused names are dropped and its used ones are
        interned in the order its accesses first use them."""
        donor = ColumnarTrace.from_columns(
            [8 * (index + 1) for index in range(len(variable_ids))],
            variable_ids=variable_ids,
            variable_names=["a", "b"],
        )
        recorder = ColumnarRecorder(name="t")
        legacy = TraceBuilder(name="t")
        for builder in (recorder, legacy):
            if first is not None:
                builder.append(0x100, variable=first)
            builder.extend(donor)
        recorded = recorder.build()
        assert recorded.variable_names == names
        assert recorded.variable_ids.tolist() == ids
        assert_same_recording(recorded, legacy.build())

    def test_append_many_matches_scalar_loop(self):
        bulk = ColumnarRecorder(name="t")
        loop = ColumnarRecorder(name="t")
        addresses = [0x10, 0x20, 0x30]
        gaps = [0, 2, 1]
        bulk.add_gap(5)  # pending gap folds into the first access
        bulk.append_many(
            addresses, is_write=[False, True, False],
            variable="v", gaps=gaps, sizes=[2, 2, 4],
        )
        loop.add_gap(5)
        for address, write, gap, size in zip(
            addresses, [False, True, False], gaps, [2, 2, 4]
        ):
            loop.add_gap(gap)
            loop.append(address, is_write=write, variable="v", size=size)
        a, b = bulk.build(), loop.build()
        assert np.array_equal(a.gaps, b.gaps)
        assert np.array_equal(a.addresses, b.addresses)
        assert np.array_equal(a.writes, b.writes)
        assert np.array_equal(a.sizes, b.sizes)

    def test_append_many_does_not_mutate_caller_gaps(self):
        recorder = ColumnarRecorder()
        gaps = np.array([0, 1], dtype=np.int64)
        recorder.add_gap(7)
        recorder.append_many([1, 2], gaps=gaps)
        assert gaps[0] == 0  # pending fold happened on a copy

    def test_append_many_copies_caller_buffers(self):
        """Callers may reuse scratch arrays after appending."""
        recorder = ColumnarRecorder()
        buffer = np.array([16, 32], dtype=np.int64)
        flags = np.array([False, True])
        recorder.append_many(buffer, is_write=flags)
        buffer[:] = [999, 998]
        flags[:] = True
        recorder.append_many(buffer, is_write=flags)
        trace = recorder.build()
        assert trace.addresses.tolist() == [16, 32, 999, 998]
        assert trace.writes.tolist() == [False, True, True, True]

    def test_extend_reinterns_variables(self):
        first = ColumnarRecorder()
        first.append(0x10, variable="x")
        recorder = ColumnarRecorder()
        recorder.append(0x20, variable="y")
        recorder.extend(first.build())
        trace = recorder.build()
        assert trace.variables() == ["y", "x"]
        assert trace.variable_of(1) == "x"

    def test_validation(self):
        recorder = ColumnarRecorder()
        with pytest.raises(ValueError):
            recorder.append(-1)
        with pytest.raises(ValueError):
            recorder.add_gap(-1)
        with pytest.raises(ValueError):
            recorder.append_many([-5])
        with pytest.raises(ValueError):
            recorder.append_many([1, 2], gaps=[1])

    def test_trailing_gap_stays_pending_across_build(self):
        recorder = ColumnarRecorder(name="t")
        legacy = TraceBuilder(name="t")
        for builder in (recorder, legacy):
            builder.append(0x10, variable="x")
            builder.add_gap(4)
            builder.add_gap(2)
        assert recorder.pending_gap == legacy.pending_gap == 6
        assert recorder.build().instruction_count == 1
        assert recorder.pending_gap == 6
        for builder in (recorder, legacy):
            builder.append(0x20, variable="y")
        assert recorder.pending_gap == 0
        assert_same_recording(recorder.build(), legacy.build())

    def test_traced_slots_match_general_append(self):
        """Recording through slot codes equals the general append."""
        slotted = ColumnarRecorder(name="t")
        general = ColumnarRecorder(name="t")
        record_address, record_slot = slotted.sinks()
        write_b = slotted.slot("b", 4, True)
        read_a = slotted.slot("a", 2, False)
        for address, code, variable, size, write in (
            (0x10, write_b, "b", 4, True),
            (0x20, read_a, "a", 2, False),
            (0x14, write_b, "b", 4, True),
        ):
            record_address(address)
            record_slot(code)
            general.append(address, write, variable, size)
        assert slotted.slot("a", 2, False) == read_a
        assert_same_recording(slotted.build(), general.build())
        assert general.build().variable_names == ["b", "a"]

    def test_empty_build(self):
        recorder = ColumnarRecorder(name="t")
        recorder.slot("unused", 4, True)
        trace = recorder.build()
        assert len(trace) == 0 and trace.variable_names == []


class TestFromColumns:
    @pytest.mark.parametrize(
        "ids, names, message",
        [
            ([0, -2, 1], ["a", "b"], r"variable_ids\[1\] = -2; must be in "
             r"\[-1, 2\)"),
            ([0, 5, 0], ["a"], r"variable_ids\[1\] = 5; must be in "
             r"\[-1, 1\)"),
            ([0, 0, 0], None, r"variable_ids\[0\] = 0; must be in "
             r"\[-1, 0\)"),
        ],
    )
    def test_rejects_variable_ids_outside_name_table(
        self, ids, names, message
    ):
        with pytest.raises(ValueError, match=message):
            ColumnarTrace.from_columns(
                [1, 2, 3], variable_ids=ids, variable_names=names
            )

    def test_rejects_negative_gaps(self):
        with pytest.raises(ValueError, match=r"gaps\[2\] = -3; must be >= 0"):
            ColumnarTrace.from_columns([1, 2, 3], gaps=[0, 1, -3])

    def test_accepts_the_edges_of_both_domains(self):
        trace = ColumnarTrace.from_columns(
            [1, 2, 3],
            gaps=[0, 0, 7],
            variable_ids=[NO_VARIABLE, 0, 1],
            variable_names=["a", "b"],
        )
        assert trace.variables() == ["a", "b"]
        assert trace.cumulative_instructions.tolist() == [1, 2, 10]


class TestDerivedColumns:
    def test_blocks_for_cached_and_offset(self):
        trace = small_trace()
        blocks = trace.blocks_for(4)
        assert blocks is trace.blocks_for(4)  # cached
        assert np.array_equal(blocks, trace.addresses >> 4)
        shifted = trace.blocks_for(4, address_offset=1 << 8)
        assert np.array_equal(shifted, (trace.addresses + (1 << 8)) >> 4)
        unaligned = trace.blocks_for(4, address_offset=3)
        assert np.array_equal(unaligned, (trace.addresses + 3) >> 4)

    def test_slices_inherit_block_columns(self):
        trace = small_trace()
        parent = trace.blocks_for(4)
        window = trace.slice(1, 4)
        assert np.shares_memory(window.blocks_for(4), parent)

    def test_cumulative_instructions(self):
        trace = small_trace()
        expected = np.cumsum(trace.gaps + 1)
        assert np.array_equal(trace.cumulative_instructions, expected)

    @pytest.mark.parametrize(
        ("gaps", "message"),
        [
            ([-1, -1, -1], r"trace 'g': gaps\[0\] = -1; must be >= 0"),
            ([0, 1, -3], r"trace 'g': gaps\[2\] = -3; must be >= 0"),
        ],
    )
    def test_cumulative_instructions_rejects_negative_gaps(
        self, gaps, message
    ):
        """The constructor admits any gap (``load_npz`` checks dtypes
        only); the column the schedulers read names the first
        negative one instead of yielding a non-increasing sum."""
        trace = ColumnarTrace(
            np.arange(3, dtype=np.int64),
            np.zeros(3, dtype=bool),
            np.array(gaps, dtype=np.int64),
            np.full(3, NO_VARIABLE, dtype=np.int64),
            [],
            name="g",
        )
        with pytest.raises(ValueError, match=message):
            trace.cumulative_instructions

    def test_iter_chunks_are_views_covering_trace(self):
        trace = small_trace()
        pieces = list(trace.iter_chunks(2))
        assert sum(len(piece) for piece in pieces) == len(trace)
        assert np.shares_memory(pieces[0].addresses, trace.addresses)
        rejoined = np.concatenate(
            [piece.addresses for piece in pieces]
        )
        assert np.array_equal(rejoined, trace.addresses)


class TestNpzFormat:
    def test_round_trip(self, tmp_path):
        trace = small_trace()
        path = trace.save_npz(tmp_path / "t.npz")
        loaded = load_npz(path)
        for column in (
            "addresses", "sizes", "writes", "gaps", "variable_ids"
        ):
            assert np.array_equal(
                getattr(loaded, column), getattr(trace, column)
            ), column
        assert loaded.variable_names == trace.variable_names
        assert loaded.name == trace.name

    def test_extension_appended(self, tmp_path):
        trace = small_trace()
        path = trace.save_npz(tmp_path / "bare")
        assert path.name == "bare.npz"
        assert path.exists()

    def test_mmap_load_is_file_backed_and_equal(self, tmp_path):
        trace = small_trace()
        path = trace.save_npz(tmp_path / "t.npz")
        mapped = open_npz(path)
        assert isinstance(mapped.addresses.base, np.memmap)
        for column in (
            "addresses", "sizes", "writes", "gaps", "variable_ids"
        ):
            assert np.array_equal(
                getattr(mapped, column), getattr(trace, column)
            ), column

    def test_mmap_load_maps_the_file_once(self, tmp_path):
        """Every column is a view of one map of the archive."""
        path = small_trace().save_npz(tmp_path / "t.npz")
        mapped = open_npz(path)
        bases = {
            id(getattr(mapped, column).base)
            for column in (
                "addresses", "sizes", "writes", "gaps", "variable_ids"
            )
        }
        assert len(bases) == 1
        assert not mapped.addresses.flags.writeable

    @pytest.mark.parametrize("mmap", [False, True])
    def test_truncated_member_is_named(self, tmp_path, mmap):
        """A member whose stored bytes are shorter than its npy
        header's shape fails naming the member, in both modes."""
        columns = {
            "addresses": np.array([16, 32, 48], dtype=np.int64),
            "sizes": np.ones(3, dtype=np.int32),
            "writes": np.zeros(3, dtype=bool),
            "gaps": np.zeros(3, dtype=np.int64),
            "variable_ids": np.full(3, -1, dtype=np.int64),
        }
        path = tmp_path / "truncated.npz"
        with zipfile.ZipFile(path, "w") as archive:
            for column, values in columns.items():
                member = io.BytesIO()
                np.lib.format.write_array(member, values)
                data = member.getvalue()
                if column == "gaps":  # header claims 9 entries, holds 3
                    data = data.replace(b"'shape': (3,)", b"'shape': (9,)")
                archive.writestr(f"{column}.npy", data)
        with pytest.raises(ValueError, match=r"member 'gaps'"):
            load_npz(path, mmap=mmap)

    def test_mmap_streaming_replay_matches_eager(self, tmp_path):
        from repro.sim.engine.batched import LockstepCache

        trace = small_trace().repeat(50)
        path = trace.save_npz(tmp_path / "long.npz")
        geometry = CacheGeometry(line_size=16, sets=4, columns=2)
        streamed = LockstepCache(geometry)
        for window in open_npz(path).iter_chunks(16):
            streamed.run(window.blocks_for(geometry.offset_bits))
        eager = LockstepCache(geometry)
        eager.run(trace.blocks_for(geometry.offset_bits))
        assert streamed.result() == eager.result()

    def test_rejects_non_trace_archives(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, whatever=np.arange(3))
        with pytest.raises(ValueError, match="not a columnar trace"):
            load_npz(path)

    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize(
        ("column", "values"),
        [
            ("addresses", np.array([16.7, 1e30])),
            ("sizes", np.array([1.0, 2.5])),
            ("gaps", np.array([0.0, 3.9])),
            ("variable_ids", np.array([0.0, 0.5])),
            ("writes", np.array([0.0, 0.25])),
            ("addresses", np.array(["16", "32"])),
        ],
    )
    def test_rejects_non_integer_columns(
        self, tmp_path, mmap, column, values
    ):
        """A float (or string) column is an error naming the file, the
        member and its dtype, raised before any value is converted."""
        columns = {
            "addresses": np.array([16, 32], dtype=np.int64),
            "sizes": np.ones(2, dtype=np.int32),
            "writes": np.array([False, True]),
            "gaps": np.zeros(2, dtype=np.int64),
            "variable_ids": np.zeros(2, dtype=np.int64),
        }
        columns[column] = values
        path = tmp_path / "bad.npz"
        np.savez(path, variable_names=np.array(["v"]), **columns)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no lossy cast happens
            with pytest.raises(ValueError) as raised:
                load_npz(path, mmap=mmap)
        message = str(raised.value)
        assert str(path) in message
        assert repr(column) in message
        assert str(values.dtype) in message

    @pytest.mark.parametrize("mmap", [False, True])
    def test_accepts_integer_write_flags(self, tmp_path, mmap):
        path = tmp_path / "int_writes.npz"
        np.savez(
            path,
            addresses=np.array([16, 32], dtype=np.uint32),
            sizes=np.ones(2, dtype=np.int16),
            writes=np.array([0, 1], dtype=np.uint8),
            gaps=np.zeros(2, dtype=np.int32),
            variable_ids=np.array([-1, -1], dtype=np.int8),
        )
        trace = load_npz(path, mmap=mmap)
        assert trace.writes.tolist() == [False, True]
        assert trace.addresses.tolist() == [16, 32]

    def test_rejects_future_format_version(self, tmp_path):
        trace = small_trace()
        path = trace.save_npz(tmp_path / "t.npz")
        arrays = dict(np.load(path, allow_pickle=False))
        arrays["format_version"] = np.int64(99)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="format version"):
            load_npz(path)


def _archive_with_ids(path, ids, names):
    """An archive whose ``variable_ids`` column holds ``ids`` as is."""
    count = len(ids)
    np.savez(
        path,
        addresses=np.arange(count, dtype=np.int64) * 16,
        sizes=np.ones(count, dtype=np.int32),
        writes=np.zeros(count, dtype=bool),
        gaps=np.zeros(count, dtype=np.int64),
        variable_ids=np.array(ids, dtype=np.int64),
        variable_names=np.array(names),
    )
    return path


def _id_consumers(trace):
    """Every path that resolves a loaded trace's ids to names."""
    from repro.baselines.panda import PandaBaseline
    from repro.layout.session import trace_digest
    from repro.mem.layout import MemoryMap
    from repro.profiling.profiler import profile_trace
    from repro.trace.dinero import save_trace
    from repro.trace.filters import filter_by_variable
    from repro.workloads.base import WorkloadRun

    run = WorkloadRun(name="loaded", trace=trace, memory_map=MemoryMap())
    panda = PandaBaseline(
        scratchpad_bytes=64,
        cache_geometry=CacheGeometry(line_size=16, sets=4, columns=2),
    )
    return {
        "variables": trace.variables,
        "variable_of": lambda: trace.variable_of(1),
        "positions_of": lambda: trace.positions_of("a"),
        "profile_trace": lambda: profile_trace(trace),
        "filter_by_variable": lambda: filter_by_variable(trace, ["a"]),
        "panda": lambda: panda.plan(run),
        "save_trace": lambda: save_trace(trace, io.StringIO()),
        "trace_digest": lambda: trace_digest(trace),
    }


class TestLoadedVariableIds:
    """An archive's ids are range-checked once, on first use, with the
    error ``from_columns`` gives, naming the archive and the first bad
    position; opening and replaying read no id data."""

    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize(
        "consumer",
        [
            "variables", "variable_of", "positions_of", "profile_trace",
            "filter_by_variable", "panda", "save_trace", "trace_digest",
        ],
    )
    @pytest.mark.parametrize(
        "ids, names, bad",
        [
            ([0, -2, 1], ["a", "b", "c"], r"\[1\] = -2; must be in \[-1, 3\)"),
            ([0, -2, 1], ["a"], r"\[1\] = -2; must be in \[-1, 1\)"),
            ([0, 0, 5], ["a", "b"], r"\[2\] = 5; must be in \[-1, 2\)"),
        ],
    )
    def test_every_consumer_rejects_an_out_of_range_id(
        self, tmp_path, mmap, consumer, ids, names, bad
    ):
        path = _archive_with_ids(tmp_path / "ids.npz", ids, names)
        trace = load_npz(path, mmap=mmap)
        with pytest.raises(ValueError) as raised:
            _id_consumers(trace)[consumer]()
        message = str(raised.value)
        assert message.startswith(f"{path}: variable_ids")
        assert re.search(bad, message), message

    @pytest.mark.parametrize("mmap", [False, True])
    def test_a_window_names_its_position_in_the_archive(
        self, tmp_path, mmap
    ):
        path = _archive_with_ids(
            tmp_path / "ids.npz", [0, 1, 0, 1, 7, 0], ["a", "b"]
        )
        windows = list(load_npz(path, mmap=mmap).iter_chunks(2))
        assert windows[1].variables() == ["a", "b"]
        with pytest.raises(ValueError, match=r"variable_ids\[4\] = 7"):
            windows[2].variable_of(0)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_valid_ids_are_checked_once(self, tmp_path, mmap, monkeypatch):
        from repro.trace import columnar

        calls = []
        check = columnar._check_domain

        def counting(column, *args, **kwargs):
            calls.append(column)
            return check(column, *args, **kwargs)

        monkeypatch.setattr(columnar, "_check_domain", counting)
        path = small_trace().save_npz(tmp_path / "t.npz")
        calls.clear()
        trace = load_npz(path, mmap=mmap)
        assert calls == []
        for consumer in _id_consumers(trace).values():
            consumer()
        assert trace.variables() == small_trace().variables()
        id_checks = [column for column in calls if "variable_ids" in column]
        assert id_checks == [f"{path}: variable_ids"]
        calls.clear()
        small_trace().variables()  # recorder-built: nothing to check
        assert calls == []

    @pytest.mark.parametrize("mmap", ["--no-mmap", None])
    def test_replay_reads_no_ids(self, tmp_path, mmap, capsys):
        """Replay never resolves a name, so a bad id does not stop it."""
        from repro.trace.cli import main as trace_main

        path = _archive_with_ids(tmp_path / "ids.npz", [0, -2, 9], ["a"])
        options = ["replay", str(path), "--size", "256", "--columns", "2"]
        assert trace_main(
            options + ([mmap] if mmap else []), prog="repro trace"
        ) == 0
        assert "accesses=3 hits=0 misses=3" in capsys.readouterr().out
