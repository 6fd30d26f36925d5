"""The counting path: ``LockstepCache`` totals straight from the kernel.

On the compiled backend :meth:`LockstepCache.run` hands its block (or
byte-address) column to ``repro_lockstep_flags``, which derives each
access's row and tag in the loop and adds the batch's hits and
bypasses into a 2-slot count, so no row, tag or flag array is built;
:meth:`LockstepCache.run_with_flags` builds only its hit flags.  The
numpy backend splits rows and tags and sums its flags: the reference.
Held here, on both kernels:

* ``run``'s counts and final state equal the flags run's and the
  reference ``ColumnCache``'s, with per-access masks (empty ones
  bypass) or one uniform mask (0 included);
* runs split into chunks of 1, len − 1, len and len + 1 equal one run;
* ``run(addresses, offset_bits=g.offset_bits)`` equals
  ``run(addresses >> g.offset_bits)``, for addresses with random
  in-line offsets and at both ends of int64;
* the kernel's input forms (rows and tags, or one column of blocks or
  addresses) agree on every output, and its count adds;
* a 64-way geometry falls back to numpy with the same counts;
* ``repro trace replay`` prints the same counts for an ``.npz`` and a
  ``.din`` copy of one trace, memory-mapped or not, and replays a
  dinero trace whose addresses straddle ``2**63`` as ``ColumnCache``
  does on the unsigned addresses.

Draws cover ``strategies.BLOCK_DOMAINS``, 1-set and 63-way geometries
and 1-access traces.
"""

import contextlib
import io
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.column_cache import ColumnCache
from repro.cache.geometry import CacheGeometry
from repro.sim.engine import _compiled
from repro.sim.engine.backends import compiled_available
from repro.sim.engine.batched import (
    LockstepCache,
    LockstepState,
    lockstep_run,
)
from repro.trace.cli import main as trace_main
from repro.trace.columnar import ColumnarTrace
from repro.trace.dinero import save_trace
from repro.trace.generator import zipf_accesses
from repro.utils.bitvector import ColumnMask

from oracles.column_cache import reference_streams
from strategies import block_trace_cases

#: Every kernel backend this host can run.
KERNELS = ("numpy", "compiled") if compiled_available() else ("numpy",)

requires_compiled = pytest.mark.skipif(
    not compiled_available(),
    reason="compiled lockstep kernel unavailable (no usable C compiler)",
)


def resident_lines(state):
    """``{(row, way, tag)}`` of every valid line of a lockstep state."""
    rows, ways = np.nonzero(state.valid())
    return {
        (int(row), int(way), int(state.tags[row, way]))
        for row, way in zip(rows, ways)
    }


def reference_lines(cache):
    """The same set for a reference ``ColumnCache``."""
    return {
        (line.set_index, line.column, line.tag)
        for line in cache.resident_lines()
    }


def same_state(left, right):
    return (
        np.array_equal(left.tags, right.tags)
        and np.array_equal(left.last_use, right.last_use)
        and np.array_equal(left.clock, right.clock)
    )


@st.composite
def counting_cases(draw):
    """A block trace case with either its per-access masks or one
    uniform mask (None = all columns, 0 = every miss bypasses)."""
    geometry, blocks, mask_bits = draw(block_trace_cases())
    full = (1 << geometry.columns) - 1
    form = draw(st.sampled_from(["per-access", "uniform"]))
    if form == "per-access":
        return geometry, blocks, {"mask_bits": mask_bits}
    uniform = draw(
        st.one_of(st.none(), st.just(0), st.integers(0, full))
    )
    return geometry, blocks, {"uniform_mask": uniform}


@pytest.mark.parametrize("kernel", KERNELS)
@given(case=counting_cases())
def test_counts_equal_flags_run_and_reference(case, kernel):
    geometry, blocks, masks = case
    counting = LockstepCache(geometry, backend=kernel)
    counted = counting.run(blocks, **masks)
    flagging = LockstepCache(geometry, backend=kernel)
    flags = flagging.run_with_flags(blocks, **masks)
    ref_hits, ref_bypasses, reference = reference_streams(
        geometry, blocks, **masks
    )
    assert np.array_equal(flags, ref_hits)
    assert counted == flagging.result() == counting.result()
    assert counted.hits == int(ref_hits.sum())
    assert counted.misses == len(blocks) - counted.hits
    assert counted.bypasses == int(ref_bypasses.sum())
    assert same_state(counting.state, flagging.state)
    assert resident_lines(counting.state) == reference_lines(reference)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("uniform_mask", [0, 1])
def test_uniform_masks_on_one_set(kernel, uniform_mask):
    """A 1-set cache under an empty or a one-column uniform mask."""
    geometry = CacheGeometry(line_size=16, sets=1, columns=4)
    blocks = np.array([0, 1, 0, 2, 0, 0, 3], dtype=np.int64)
    ref_hits, ref_bypasses, _ = reference_streams(
        geometry, blocks, uniform_mask=uniform_mask
    )
    result = LockstepCache(geometry, backend=kernel).run(
        blocks, uniform_mask=uniform_mask
    )
    assert (result.hits, result.bypasses) == (
        int(ref_hits.sum()),
        int(ref_bypasses.sum()),
    )


@pytest.mark.parametrize("kernel", KERNELS)
@given(case=counting_cases(), data=st.data())
def test_chunked_runs_equal_one_run(case, data, kernel):
    geometry, blocks, masks = case
    blocks = np.asarray(blocks, dtype=np.int64)
    length = len(blocks)
    chunk = data.draw(
        st.sampled_from(sorted({1, max(length - 1, 1), length, length + 1}))
    )
    whole = LockstepCache(geometry, backend=kernel)
    whole.run(blocks, **masks)
    chunked = LockstepCache(geometry, backend=kernel)
    for start in range(0, length, chunk):
        piece = slice(start, start + chunk)
        if "mask_bits" in masks:
            bits = np.asarray(masks["mask_bits"], dtype=np.int64)
            chunked.run(blocks[piece], mask_bits=bits[piece])
        else:
            chunked.run(blocks[piece], **masks)
    assert chunked.result() == whole.result()
    assert same_state(chunked.state, whole.state)


@st.composite
def address_cases(draw):
    """A geometry and byte addresses: drawn blocks shifted back to
    addresses with random in-line offsets, plus both int64 ends."""
    geometry, blocks, _masks = draw(block_trace_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    blocks = np.asarray(blocks, dtype=np.int64)
    offsets = rng.integers(0, geometry.line_size, len(blocks))
    addresses = (blocks << np.int64(geometry.offset_bits)) | offsets
    ends = np.array([-(2**63), 2**63 - 1], dtype=np.int64)
    where = draw(st.sampled_from(["front", "back", "both", "none"]))
    if where in ("front", "both"):
        addresses = np.concatenate((ends, addresses))
    if where in ("back", "both"):
        addresses = np.concatenate((addresses, ends[::-1]))
    return geometry, addresses.astype(np.int64)


@given(case=address_cases())
def test_offset_bits_equals_shifted_blocks(case):
    geometry, addresses = case
    shifted = addresses >> np.int64(geometry.offset_bits)
    expected = LockstepCache(geometry, backend="numpy")
    expected.run(shifted)
    for kernel in KERNELS:
        direct = LockstepCache(geometry, backend=kernel)
        result = direct.run(addresses, offset_bits=geometry.offset_bits)
        assert result == expected.result(), kernel
        assert same_state(direct.state, expected.state), kernel


@requires_compiled
@pytest.mark.parametrize("collect", ["flags", "misses", "depths"])
@given(case=block_trace_cases())
def test_kernel_input_forms_agree(case, collect):
    """Rows and tags, or the block column the kernel splits itself:
    the same outputs and state in every collect mode, and the count
    adds into what the slots already hold."""
    geometry, blocks, mask_bits = case
    blocks = np.asarray(blocks, dtype=np.int64)
    masks = np.asarray(mask_bits, dtype=np.int64)
    split_state = LockstepState.cold(geometry.sets, geometry.columns)
    split = lockstep_run(
        blocks & np.int64(geometry.sets - 1),
        blocks >> np.int64(geometry.index_bits),
        split_state,
        mask_bits=masks,
        collect=collect,
        backend="compiled",
    )
    state = LockstepState.cold(geometry.sets, geometry.columns)
    counts = np.array([5, 7], dtype=np.int64)
    derived = _compiled.lockstep_run_compiled(
        blocks, None, state, masks, None, collect, counts=counts
    )
    if collect == "flags":
        assert np.array_equal(derived[0], split[0])
        assert np.array_equal(derived[1], split[1])
        hits, bypasses = int(split[0].sum()), int(split[1].sum())
        assert counts.tolist() == [5 + hits, 7 + bypasses]
    else:
        assert np.array_equal(np.sort(derived), np.sort(split))
    assert same_state(state, split_state)


@requires_compiled
@pytest.mark.parametrize("uniform_mask", [None, 0, 0b1011, 1 << 63])
def test_sixty_four_ways_fall_back_to_numpy(monkeypatch, uniform_mask):
    """Past the C kernel's 63-way limit the compiled backend counts on
    numpy, with the numpy backend's (and the reference's) counts."""
    geometry = CacheGeometry(line_size=16, sets=2, columns=64)
    rng = np.random.default_rng(64)
    blocks = rng.integers(-200, 200, 3000).astype(np.int64)
    expected = LockstepCache(geometry, backend="numpy").run(
        blocks, uniform_mask=uniform_mask
    )

    def refuse(*args, **kwargs):
        raise AssertionError("a 64-way cache reached the C kernel")

    monkeypatch.setattr(_compiled, "lockstep_run_compiled", refuse)
    cache = LockstepCache(geometry, backend="compiled")
    assert cache.run(blocks, uniform_mask=uniform_mask) == expected
    ref_hits, ref_bypasses, _ = reference_streams(
        geometry, blocks, uniform_mask=uniform_mask
    )
    assert expected.hits == int(ref_hits.sum())
    assert expected.bypasses == int(ref_bypasses.sum())


# ----------------------------------------------------------------------
# repro trace replay: one trace, two file formats, both kernels
# ----------------------------------------------------------------------
_COUNTS = re.compile(r"accesses=(\d+) hits=(\d+) misses=(\d+)")


def replay(path, *options):
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = trace_main(
            ["replay", str(path), *options], prog="repro trace"
        )
    assert code == 0
    found = _COUNTS.search(printed.getvalue())
    assert found, printed.getvalue()
    return tuple(int(value) for value in found.groups())


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "no-mmap"])
def test_replay_counts_npz_equal_din(tmp_path, kernel, mmap):
    trace = zipf_accesses(0x10000, 1 << 14, 5000, element_size=4, seed=9)
    npz = trace.save_npz(tmp_path / "trace.npz")
    din = tmp_path / "trace.din"
    save_trace(trace, din)
    options = [
        "--size", "2048", "--columns", "4", "--mask", "7",
        "--chunk-size", "777", "--kernel", kernel,
    ]
    if not mmap:
        options.append("--no-mmap")
    geometry = CacheGeometry.from_sizes(2048, line_size=16, columns=4)
    ref_hits, _, _ = reference_streams(
        geometry, trace.blocks_for(geometry.offset_bits), uniform_mask=7
    )
    expected = (5000, int(ref_hits.sum()), 5000 - int(ref_hits.sum()))
    assert replay(npz, *options) == expected
    assert replay(din, *options) == expected


@pytest.mark.parametrize("kernel", KERNELS)
def test_replay_of_addresses_straddling_two_to_the_63(tmp_path, kernel):
    """A kernel-space dinero trace folds into int64 and replays with
    the hits and misses ``ColumnCache`` gives the unsigned addresses."""
    geometry = CacheGeometry.from_sizes(1024, line_size=16, columns=2)
    rng = np.random.default_rng(63)
    unsigned = [
        2**63 + int(delta) * 8 for delta in rng.integers(-600, 600, 4000)
    ]
    din = tmp_path / "kernel.din"
    din.write_text(
        "".join(f"0 {address:x}\n" for address in unsigned),
        encoding="ascii",
    )
    reference = ColumnCache(geometry, policy="lru")
    full = ColumnMask((1 << geometry.columns) - 1, geometry.columns)
    hits = sum(
        reference.access(address, mask=full).hit for address in unsigned
    )
    counts = replay(
        din, "--size", "1024", "--columns", "2", "--chunk-size", "999",
        "--kernel", kernel,
    )
    assert counts == (len(unsigned), hits, len(unsigned) - hits)
    folded = ColumnarTrace.from_columns(
        [address - 2**64 if address >= 2**63 else address
         for address in unsigned]
    )
    result = LockstepCache(geometry, backend=kernel).run(
        folded.addresses, offset_bits=geometry.offset_bits
    )
    assert (result.accesses, result.hits) == (len(unsigned), hits)
