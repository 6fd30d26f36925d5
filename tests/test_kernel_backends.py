"""Kernel-backend registry, the replay path, chunk boundaries.

Three concerns, one file:

* the ``REPRO_KERNEL`` registry: ``auto`` falls back to numpy with
  exactly one warning, an explicit ``compiled`` fails loudly when no
  compiler is usable, and the active backend is folded into
  ``SimJob.content_hash`` so result-cache entries never cross-hit
  between backends;
* the one replay path (:func:`~repro.sim.engine.replay.replay_trace`):
  a trace streamed in any chunk size, on either kernel, from memory or
  from any trace file format, gives the one-shot counts;
* chunk-streamed replay: ``iter_chunks`` windows through a stateful
  :class:`~repro.sim.engine.batched.LockstepCache` — including chunks
  far smaller than a scheduling round and warm-prefix splits — pinned
  against exact counts so a silent accounting change cannot land.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.sim.engine import _compiled, backends
from repro.sim.engine.batched import (
    LockstepCache,
    LockstepState,
    lockstep_run,
)
from repro.sim.engine.replay import replay_trace
from repro.sim.engine.spec import SimJob
from repro.trace.cli import main as trace_main
from repro.trace.columnar import ColumnarTrace
from repro.trace.dinero import save_trace

from strategies import replay_cases

requires_compiled = pytest.mark.skipif(
    not backends.compiled_available(),
    reason="compiled lockstep kernel unavailable (no usable C compiler)",
)

KERNELS = ["numpy"]
if backends.compiled_available():
    KERNELS.append("compiled")


@pytest.fixture
def clean_registry(monkeypatch):
    """A fresh registry with no REPRO_KERNEL override (registry tests
    request this explicitly; the Hypothesis properties pass backends
    by name and never touch the process-wide selection)."""
    monkeypatch.delenv(backends.KERNEL_ENV, raising=False)
    backends.reset_backend()
    yield
    backends.reset_backend()


def _force_unavailable(monkeypatch, reason="no C compiler (test)"):
    monkeypatch.setattr(_compiled, "available", lambda: False)
    monkeypatch.setattr(_compiled, "unavailable_reason", lambda: reason)


def _force_available(monkeypatch):
    monkeypatch.setattr(_compiled, "available", lambda: True)
    monkeypatch.setattr(_compiled, "unavailable_reason", lambda: None)


# ----------------------------------------------------------------------
# Registry: resolution, fallback, loud failure
# ----------------------------------------------------------------------
def test_numpy_always_resolves(clean_registry):
    assert backends.resolve_backend("numpy") == "numpy"


def test_unknown_backend_errors(clean_registry):
    with pytest.raises(backends.KernelBackendError, match="unknown"):
        backends.resolve_backend("fortran")


def test_auto_prefers_compiled_when_available(clean_registry, monkeypatch):
    _force_available(monkeypatch)
    assert backends.resolve_backend("auto") == "compiled"


def test_auto_falls_back_with_exactly_one_warning(clean_registry, monkeypatch):
    _force_unavailable(monkeypatch)
    with pytest.warns(RuntimeWarning, match="numpy"):
        assert backends.resolve_backend("auto") == "numpy"
    # The second resolution is silent: one warning per process.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert backends.resolve_backend("auto") == "numpy"


def test_explicit_compiled_errors_loudly_when_unavailable(
    clean_registry, monkeypatch
):
    _force_unavailable(monkeypatch, reason="cc exploded")
    with pytest.raises(backends.KernelBackendError, match="cc exploded"):
        backends.resolve_backend("compiled")
    # The same loud failure through the environment default.
    monkeypatch.setenv(backends.KERNEL_ENV, "compiled")
    with pytest.raises(backends.KernelBackendError):
        backends.active_backend()


def test_env_override_pins_numpy(clean_registry, monkeypatch):
    monkeypatch.setenv(backends.KERNEL_ENV, "numpy")
    assert backends.active_backend() == "numpy"


def test_set_backend_overrides_and_failed_set_keeps_previous(
    clean_registry, monkeypatch
):
    assert backends.set_backend("numpy") == "numpy"
    assert backends.active_backend() == "numpy"
    _force_unavailable(monkeypatch)
    with pytest.raises(backends.KernelBackendError):
        backends.set_backend("compiled")
    assert backends.active_backend() == "numpy"


def test_ways_beyond_compiled_limit_run_numpy(monkeypatch):
    """Geometries past the C kernel's way limit silently use numpy."""
    assert not _compiled.supports(_compiled.MAX_COMPILED_WAYS + 1)
    rows = np.zeros(4, dtype=np.int64)
    tags = np.arange(4, dtype=np.int64)
    state = LockstepState.cold(1, _compiled.MAX_COMPILED_WAYS + 1)
    hits, bypasses = lockstep_run(rows, tags, state, backend="compiled")
    assert not hits.any() and not bypasses.any()


# ----------------------------------------------------------------------
# ResultCache identity: backends never cross-hit
# ----------------------------------------------------------------------
def test_content_hash_differs_between_backends(clean_registry, monkeypatch):
    """The cache-key regression: one job, two backends, two digests."""
    _force_available(monkeypatch)
    job = SimJob(
        runner="repro.experiments.runners:trace_sim",
        params={"kind": "zipf", "count": 1000},
    )
    backends.set_backend("numpy")
    numpy_digest = job.content_hash()
    assert job.content_hash() == numpy_digest  # stable within a backend
    backends.set_backend("compiled")
    compiled_digest = job.content_hash()
    assert numpy_digest != compiled_digest


# ----------------------------------------------------------------------
# One replay path: streamed counts equal the one-shot run
# ----------------------------------------------------------------------
def _reference_result(trace, geometry, uniform_mask=None):
    cache = LockstepCache(geometry, backend="numpy")
    cache.run(
        trace.blocks_for(geometry.offset_bits), uniform_mask=uniform_mask
    )
    return cache.result()


@given(
    case=replay_cases(),
    kernel=st.sampled_from(KERNELS),
    uniform_mask=st.one_of(st.none(), st.integers(0, 15)),
)
def test_replay_matches_one_shot_at_any_chunk(case, kernel, uniform_mask):
    """Property: any (chunk, kernel, mask) replays to the one-shot run."""
    geometry, trace, chunk = case
    expected = _reference_result(trace, geometry, uniform_mask)
    result = replay_trace(
        trace,
        geometry,
        chunk_accesses=chunk,
        uniform_mask=uniform_mask,
        kernel=kernel,
    )
    assert result == expected


def _fixed_trace(geometry, length=1001, seed=42):
    rng = np.random.default_rng(seed)
    addresses = (
        rng.integers(0, geometry.total_lines * 3, length).astype(np.int64)
        * geometry.line_size
    )
    return ColumnarTrace.from_columns(addresses, name="pinned")


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "source, options",
    [("trace.npz", []), ("trace.npz", ["--no-mmap"]), ("trace.din", [])],
    ids=["npz", "npz-no-mmap", "din"],
)
def test_replay_trace_reads_every_format(
    tmp_path, capsys, source, options, kernel
):
    """An archive, mapped or loaded, and a dinero file give the
    one-shot counts through replay_trace and `repro trace replay`."""
    geometry = CacheGeometry(line_size=16, sets=16, columns=4)
    trace = _fixed_trace(geometry, length=4096, seed=7)
    path = tmp_path / source
    if source.endswith(".npz"):
        trace.save_npz(path)
    else:
        save_trace(trace, path)
    expected = _reference_result(trace, geometry)
    result = replay_trace(
        path,
        geometry,
        chunk_accesses=513,
        kernel=kernel,
        mmap=not options,
    )
    assert result == expected
    assert trace_main(
        [
            "replay", str(path), "--size", "1024", "--columns", "4",
            "--chunk-size", "513", "--kernel", kernel, *options,
        ],
        prog="repro trace",
    ) == 0
    assert (
        f"accesses={expected.accesses} hits={expected.hits} "
        f"misses={expected.misses} " in capsys.readouterr().out
    )


# ----------------------------------------------------------------------
# Chunk-streamed replay: pinned counts (audit of iter_chunks + warm-up)
# ----------------------------------------------------------------------
#: Exact counts of the seed-42 pinned trace through an 8x4 cache with
#: mask 0b0110.  The audit behind this pin found *no* duplicate
#: warm-up accounting for chunks smaller than a scheduling round —
#: these constants keep it that way.
_PINNED = {"accesses": 1001, "hits": 173, "misses": 828, "bypasses": 0}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("chunk", [1, 2, 7, 1000, 1001, 1002])
def test_chunk_streamed_replay_pinned(kernel, chunk):
    """Streaming any chunk size reproduces the pinned exact counts."""
    geometry = CacheGeometry(line_size=16, sets=8, columns=4)
    trace = _fixed_trace(geometry)
    cache = LockstepCache(geometry, backend=kernel)
    for window in trace.iter_chunks(chunk):
        cache.run(
            window.blocks_for(geometry.offset_bits), uniform_mask=0b0110
        )
    result = cache.result()
    assert result.accesses == _PINNED["accesses"]
    assert result.hits == _PINNED["hits"]
    assert result.misses == _PINNED["misses"]
    assert result.bypasses == _PINNED["bypasses"]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("chunk", [1, 2, 7, 1000, 1001, 1002])
def test_replay_trace_pinned(kernel, chunk):
    """The replay path, which hands the kernel byte addresses and the
    line shift, streams to the same pinned counts."""
    geometry = CacheGeometry(line_size=16, sets=8, columns=4)
    result = replay_trace(
        _fixed_trace(geometry),
        geometry,
        chunk_accesses=chunk,
        uniform_mask=0b0110,
        kernel=kernel,
    )
    assert result.accesses == _PINNED["accesses"]
    assert result.hits == _PINNED["hits"]
    assert result.misses == _PINNED["misses"]
    assert result.bypasses == _PINNED["bypasses"]


@pytest.mark.parametrize("kernel", KERNELS)
def test_warm_prefix_then_chunked_tail_pinned(kernel):
    """A warm prefix followed by a tiny-chunk tail changes nothing."""
    geometry = CacheGeometry(line_size=16, sets=8, columns=4)
    trace = _fixed_trace(geometry)
    cache = LockstepCache(geometry, backend=kernel)
    cache.run(
        trace.slice(0, 137).blocks_for(geometry.offset_bits),
        uniform_mask=0b0110,
    )
    for window in trace.slice(137, len(trace)).iter_chunks(5):
        cache.run(
            window.blocks_for(geometry.offset_bits), uniform_mask=0b0110
        )
    result = cache.result()
    assert result.hits == _PINNED["hits"]
    assert result.misses == _PINNED["misses"]


@requires_compiled
@given(case=replay_cases())
def test_one_shot_compiled_equals_numpy_on_replay_cases(case):
    """Cross-check: the same drawn traces one-shot on both kernels."""
    geometry, trace, _chunk = case
    blocks = trace.blocks_for(geometry.offset_bits)
    numpy_result = LockstepCache(geometry, backend="numpy").run(blocks)
    compiled_result = LockstepCache(geometry, backend="compiled").run(blocks)
    assert compiled_result == numpy_result
