"""External traces fail at the boundary, naming the bad record.

A ``.npz`` archive is checked in two steps.  :func:`load_npz` reads each
member's dtype and shape from its npy header (O(1), memory-mapped or
not) and refuses a missing member, a non-integer dtype, a column that
is not 1-D and columns of unequal length.  The values are checked once,
on the first read of a value column: variable ids in ``[-1,
len(variable_names))``, sizes of at least 1, gaps of at least 0, and an
instruction total that fits in int64.  Replay reads only the addresses
and runs no value check.  ``repro trace stats``/``profile``/``replay``
turn either refusal into one line on stderr and exit 2.

The property draws archives from random columns and holds each one to
an independent verdict: it loads and replays to ``ColumnCache``'s
counts on either kernel, eager or memory-mapped, or it raises a
``ValueError`` naming the file and a bad column (and, for values, the
first bad position).
"""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.cache.geometry import CacheGeometry
from repro.sim.engine import backends
from repro.sim.engine.replay import replay_trace
from repro.trace.cli import main as trace_main
from repro.trace.columnar import ColumnarTrace, load_npz

from oracles.column_cache import reference_streams

KERNELS = ["numpy"]
if backends.compiled_available():
    KERNELS.append("compiled")

GEOMETRY = CacheGeometry(line_size=16, sets=4, columns=2)

#: The five trace columns, in the order the loader checks them.
COLUMNS = ("addresses", "sizes", "writes", "gaps", "variable_ids")

INTEGERS = (
    "int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64"
)

#: How a broken member may be stored: a column of any dtype, missing,
#: with too many dimensions or none, or of the wrong length.
FORMS = ("column", "missing", "2-D", "scalar", "short", "long")

#: Values a well-formed trace holds, per column (ids: see _draw_values).
VALID = {
    "addresses": (0, 1 << 12),
    "sizes": (1, 8),
    "writes": (0, 1),
    "gaps": (0, 4),
}

LIMIT = 1 << 63


def _draw_values(draw, column, dtype, shape, names, wild):
    """Column values: in the column's valid range or, ``wild``, anywhere
    in the dtype's (negative, zero and edge values) or all huge (in
    64 bits, any two pass ``2**63 - 1``)."""
    if dtype.kind == "f":
        return draw(hnp.arrays(dtype, shape))
    if dtype.kind == "b":
        return draw(hnp.arrays(dtype, shape, elements=st.booleans()))
    info = np.iinfo(dtype)
    low, high = VALID.get(column, (-1, len(names) - 1))
    low, high = max(low, info.min), min(high, info.max)
    huge = 1 << (info.bits - 2)
    if wild and draw(st.booleans()):
        elements = st.integers(huge, min(info.max, LIMIT - 1))
    elif wild or low > high:
        edges = {info.min, info.max, huge, 0, max(info.min, -1)}
        elements = st.integers(info.min, info.max) | st.sampled_from(
            sorted(edges)
        )
    else:
        elements = st.integers(low, high)
    return draw(hnp.arrays(dtype, shape, elements=elements))


@st.composite
def archives(draw):
    """``(members, names)``: the archive's trace members, as stored.

    Up to two *broken* columns take any form and dtype; up to three
    *wild* columns take any value of their dtype.  The rest are
    well-formed integer columns of valid values.
    """
    length = draw(st.integers(0, 12))
    names = draw(st.lists(st.sampled_from("abc"), unique=True, max_size=3))
    broken = draw(st.sets(st.sampled_from(COLUMNS), max_size=2))
    wild = draw(st.sets(st.sampled_from(COLUMNS), max_size=3))
    members = {}
    for column in COLUMNS:
        form = draw(st.sampled_from(FORMS)) if column in broken else "column"
        if form == "missing":
            continue
        shape = {
            "column": (length,),
            "2-D": (length, 1),
            "scalar": (),
            "short": (max(length - 1, 0),),
            "long": (length + 1,),
        }[form]
        dtypes = INTEGERS + ("bool",) * (column in broken | {"writes"})
        dtypes += ("float64",) * (column in broken)
        dtypes += ("int64", "uint64") * 2 * (column in wild)
        dtype = np.dtype(draw(st.sampled_from(dtypes)))
        members[column] = _draw_values(
            draw, column, dtype, shape, names, column in wild
        )
    return members, names


def _structural_faults(members):
    """What names each column the loader must refuse in its message."""
    missing = [column for column in COLUMNS if column not in members]
    if missing:
        return [repr(column) for column in missing]
    length = members["addresses"].shape[:1]
    return [
        f"member {column!r} has"
        for column, values in members.items()
        if values.dtype.kind not in ("biu" if column == "writes" else "iu")
        or values.ndim != 1
        or (members["addresses"].ndim == 1 and values.shape != length)
    ]


def _first(flags):
    return int(np.argmax(flags)) if flags.any() else None


def _value_faults(members, names):
    """``{column: first bad position}`` of the value check.

    Stored integers reach the trace as its int64 columns hold them
    (uint64 values at or above ``2**63`` fold to negative, as addresses
    do); sizes are held as int32.  The instruction total is summed in
    Python integers.
    """
    ids = members["variable_ids"].astype(np.int64)
    sizes = members["sizes"].astype(np.int32)
    gaps = members["gaps"].astype(np.int64)
    faults = {}
    for column, bad in (
        ("variable_ids", (ids < -1) | (ids >= len(names))),
        ("sizes", sizes < 1),
        ("gaps", gaps < 0),
    ):
        first = _first(bad)
        if first is not None:
            faults.setdefault(column, first)
    if "gaps" not in faults:
        total = 0
        for position, gap in enumerate(gaps.tolist()):
            total += gap + 1
            if total >= LIMIT:
                faults["gaps"] = position
                break
    return faults


def _reference_counts(addresses):
    """``(accesses, hits, misses)`` of the scalar ``ColumnCache``."""
    blocks = addresses.astype(np.int64) >> GEOMETRY.offset_bits
    hits, _, _ = reference_streams(GEOMETRY, blocks)
    return len(blocks), int(hits.sum()), len(blocks) - int(hits.sum())


@given(
    archive=archives(),
    mmap=st.booleans(),
    kernel=st.sampled_from(KERNELS),
    chunk=st.integers(1, 16),
)
def test_an_archive_loads_and_replays_or_is_refused_by_name(
    archive, mmap, kernel, chunk
):
    members, names = archive
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "drawn.npz"
        np.savez(path, variable_names=np.array(names, dtype=str), **members)
        faults = _structural_faults(members)
        if faults:
            with pytest.raises(ValueError) as raised:
                load_npz(path, mmap=mmap)
            message = str(raised.value)
            assert message.startswith(f"{path}: "), message
            assert any(name in message for name in faults), message
            return
        trace = load_npz(path, mmap=mmap)
        result = replay_trace(
            trace, GEOMETRY, chunk_accesses=chunk, kernel=kernel
        )
        assert (result.accesses, result.hits, result.misses) == (
            _reference_counts(members["addresses"])
        )
        values = _value_faults(members, names)
        if values:
            with pytest.raises(ValueError) as raised:
                trace.instruction_count
            message = str(raised.value)
            assert message.startswith(f"{path}: "), message
            assert any(
                f"{column}[{position}]" in message
                for column, position in values.items()
            ), (message, values)
            return
        total = len(trace) + sum(members["gaps"].astype(np.int64).tolist())
        assert trace.instruction_count == total
        if len(trace):
            assert int(trace.cumulative_instructions[-1]) == total
        ids = members["variable_ids"].astype(np.int64).tolist()
        assert trace.variables() == sorted(
            {names[i] for i in ids if i >= 0}, key=names.index
        )


def _archive(path, length=40, **columns):
    """A valid ``length``-access archive with ``columns`` replaced."""
    stored = {
        "addresses": np.arange(length, dtype=np.int64) * 16,
        "sizes": np.ones(length, dtype=np.int32),
        "writes": np.zeros(length, dtype=bool),
        "gaps": np.zeros(length, dtype=np.int64),
        "variable_ids": np.zeros(length, dtype=np.int64),
    }
    stored.update(columns)
    np.savez(path, variable_names=np.array(["a"]), **stored)
    return path


#: Archives the loader refuses, and its message after the path.
LOAD_PROBES = {
    "column-2d-sizes-0": (
        {
            "addresses": np.arange(40, dtype=np.int64).reshape(40, 1),
            "sizes": np.zeros(40, dtype=np.int32),
        },
        "member 'addresses' has shape (40, 1); a trace column must be 1-D",
    ),
    "unequal-lengths": (
        {"gaps": np.zeros(39, dtype=np.int64)},
        "member 'gaps' has 39 entries, 'addresses' has 40; trace columns "
        "must be of one length",
    ),
}

#: Archives the value check refuses, and its message after the path.
VALUE_PROBES = {
    "gaps-minus-one": (
        {"gaps": np.full(40, -1, dtype=np.int64)},
        "gaps[0] = -1; must be >= 0",
    ),
    "gaps-two-to-62": (
        {"gaps": np.full(40, 1 << 62, dtype=np.int64)},
        "gaps[1] = 4611686018427387904; takes the instruction total past "
        "2**63 - 1",
    ),
    "sizes-0": (
        {"sizes": np.zeros(40, dtype=np.int32)},
        "sizes[0] = 0; must be >= 1",
    ),
    "sizes-minus-4": (
        {"sizes": np.array([1] * 7 + [-4] * 33, dtype=np.int32)},
        "sizes[7] = -4; must be >= 1",
    ),
}


class TestProbes:
    """Fixed archives: each refusal's exact message, and the edges that
    load."""

    @pytest.mark.parametrize("mmap", [False, True])
    def test_a_file_that_is_no_zip_archive_is_named(self, tmp_path, mmap):
        path = tmp_path / "t.npz"
        path.write_text("0 10\n0 20\n")
        with pytest.raises(ValueError) as raised:
            load_npz(path, mmap=mmap)
        assert str(raised.value).startswith(f"{path}: not a zip archive")

    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize("probe", sorted(LOAD_PROBES))
    def test_the_loader_refuses_by_member(self, tmp_path, probe, mmap):
        columns, message = LOAD_PROBES[probe]
        path = _archive(tmp_path / "t.npz", **columns)
        with pytest.raises(ValueError) as raised:
            load_npz(path, mmap=mmap)
        assert str(raised.value) == f"{path}: {message}"

    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize("probe", sorted(VALUE_PROBES))
    @pytest.mark.parametrize(
        "consumer", ["instruction_count", "cumulative_instructions"]
    )
    def test_the_value_check_refuses_by_position(
        self, tmp_path, probe, mmap, consumer
    ):
        """``instruction_count`` and ``cumulative_instructions`` share
        one check, which names the archive, column and position."""
        columns, message = VALUE_PROBES[probe]
        trace = load_npz(_archive(tmp_path / "t.npz", **columns), mmap=mmap)
        for _ in range(2):  # a refused check stays refused
            with pytest.raises(ValueError) as raised:
                getattr(trace, consumer)
            assert str(raised.value) == f"{tmp_path / 't.npz'}: {message}"

    def test_a_window_names_its_position_in_the_archive(self, tmp_path):
        gaps = np.zeros(40, dtype=np.int64)
        gaps[25] = -3
        path = _archive(tmp_path / "t.npz", gaps=gaps)
        windows = list(load_npz(path, mmap=True).iter_chunks(10))
        assert windows[1].instruction_count == 10
        with pytest.raises(ValueError, match=r"gaps\[25\] = -3"):
            windows[2].gaps

    def test_the_largest_total_loads(self, tmp_path):
        gaps = np.zeros(40, dtype=np.int64)
        gaps[-1] = LIMIT - 41
        trace = load_npz(_archive(tmp_path / "t.npz", gaps=gaps))
        assert trace.instruction_count == LIMIT - 1
        assert int(trace.cumulative_instructions[-1]) == LIMIT - 1

    def test_the_check_runs_once_and_keeps_the_cumulative_column(
        self, tmp_path, monkeypatch
    ):
        from repro.trace import columnar

        calls = []
        check = columnar._check_domain

        def counting(column, *args, **kwargs):
            calls.append(column)
            return check(column, *args, **kwargs)

        monkeypatch.setattr(columnar, "_check_domain", counting)
        path = _archive(tmp_path / "t.npz", gaps=np.full(40, 2))
        trace = load_npz(path, mmap=True)
        assert calls == []
        assert trace.instruction_count == 120
        cumulative = trace.cumulative_instructions
        assert cumulative is trace.cumulative_instructions
        assert cumulative.tolist() == list(range(3, 121, 3))
        assert trace.variables() == ["a"]
        assert trace.sizes.tolist() == [1] * 40
        assert calls == [
            f"{path}: variable_ids", f"{path}: sizes", f"{path}: gaps"
        ]

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("mmap", [False, True])
    def test_uint64_addresses_fold_and_replay(self, tmp_path, mmap, kernel):
        """Addresses at or above ``2**63`` load folded into int64 and
        replay as ``ColumnCache`` runs the folded addresses."""
        stored = np.arange(40, dtype=np.uint64) * np.uint64(48) + np.uint64(
            (1 << 64) - 16 * 20
        )
        path = _archive(tmp_path / "t.npz", addresses=stored)
        trace = load_npz(path, mmap=mmap)
        folded = [
            value - (1 << 64) if value >= LIMIT else value
            for value in stored.tolist()
        ]
        assert trace.addresses.tolist() == folded
        assert min(folded) < 0 <= max(folded)
        result = replay_trace(trace, GEOMETRY, kernel=kernel)
        assert (result.accesses, result.hits, result.misses) == (
            _reference_counts(np.array(folded, dtype=np.int64))
        )
        assert trace.instruction_count == 40

    def test_stats_is_profile(self, tmp_path):
        """`repro trace stats` on a recorded archive prints `profile`'s
        table."""
        path = tmp_path / "gzip.npz"
        assert trace_main(["record", "gzip", str(path), "--param",
                           "input_bytes=1024"]) == 0
        printed = {}
        for verb in ("stats", "profile"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert trace_main([verb, str(path)], prog="repro trace") == 0
            printed[verb] = out.getvalue()
        assert printed["stats"] == printed["profile"]
        assert "density" in printed["stats"]
        assert f"{path}: " in printed["stats"]


def _run_verb(verb, path):
    return subprocess.run(
        [sys.executable, "-m", "repro", "trace", verb, str(path)],
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize(
    "verb, probe",
    [("stats", "gaps-minus-one"), ("profile", "sizes-0"),
     ("replay", "column-2d-sizes-0")],
)
def test_a_refused_archive_is_a_usage_error(tmp_path, verb, probe):
    """One line on stderr, exit 2 and no traceback, as a bad ``--mask``
    is; replay refuses only what the loader refuses."""
    columns, message = {**LOAD_PROBES, **VALUE_PROBES}[probe]
    path = _archive(tmp_path / "t.npz", **columns)
    completed = _run_verb(verb, path)
    assert completed.returncode == 2, completed.stderr
    assert "Traceback" not in completed.stderr
    assert completed.stderr.splitlines() == [
        f"repro trace {'replay' if verb == 'replay' else 'profile'}: "
        f"error: {path}: {message}"
    ]
    assert completed.stdout == ""


def test_a_dinero_file_named_npz_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "t.npz"
    path.write_text("0 10\n0 20\n")
    for verb in ("stats", "replay"):
        with pytest.raises(SystemExit) as raised:
            trace_main([verb, str(path)], prog="repro trace")
        assert raised.value.code == 2
        assert f"error: {path}: not a zip archive" in capsys.readouterr().err


@pytest.mark.parametrize("probe", sorted(VALUE_PROBES))
def test_replay_runs_no_value_check(tmp_path, capsys, probe):
    columns, _ = VALUE_PROBES[probe]
    path = _archive(tmp_path / "t.npz", **columns)
    assert trace_main(["replay", str(path)], prog="repro trace") == 0
    assert "accesses=40 hits=0 misses=40" in capsys.readouterr().out


def test_a_dinero_refusal_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "t.din"
    path.write_text("0 10 4611686018427387904\n0 20 4611686018427387904\n")
    for verb in ("profile", "replay"):
        with pytest.raises(SystemExit) as raised:
            trace_main([verb, str(path)], prog="repro trace")
        assert raised.value.code == 2
        assert capsys.readouterr().err == (
            f"repro trace {verb}: error: {path}: line 2: the instruction "
            "total passes 2**63 - 1\n"
        )


def test_in_memory_traces_are_not_value_checked():
    trace = ColumnarTrace(
        np.arange(3, dtype=np.int64),
        np.zeros(3, dtype=bool),
        np.zeros(3, dtype=np.int64),
        np.zeros(3, dtype=np.int64),
        ["a"],
        sizes=np.zeros(3, dtype=np.int32),
    )
    assert trace.sizes.tolist() == [0, 0, 0]
