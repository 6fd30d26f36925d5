"""Set-sharded trace simulation: fan independent sets over processes.

LRU sets never interact, so a block trace can be partitioned by
``set_index % shards`` (vectorized with numpy) and each shard
simulated independently — on another core, or simply as a smaller
in-process run.  Aggregate hit/miss/bypass counts are exact: every
access lands in exactly one shard, and the per-set access order within
a shard is the original trace order (boolean selection is stable).
Per-shard tallies merge deterministically: plain sums, accumulated in
shard order.

:func:`simulate_columnar_sharded` / :func:`simulate_npz_sharded` are
*single-sweep-point* scaling: one large
:class:`~repro.trace.columnar.ColumnarTrace` is streamed in bounded
chunks (``iter_chunks``, so a memory-mapped ``.npz`` archive keeps
every worker's working set cache-resident) and partitioned by set
index on the fly.  Each shard is its own
:class:`~repro.sim.engine.batched.LockstepCache` on the selected
kernel backend, fed that shard's blocks and counting them the way
every other caller does (on the compiled kernel, without building
rows, tags or flags); a single shard takes each window's addresses
whole.  The sweep engine's process backend parallelizes *across*
sweep points; this fans the sets of a single point across cores.

The equivalence suite asserts the sharded runs agree bit-for-bit with
the reference ``ColumnCache`` and the unsharded lockstep run, on both
kernels.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

import numpy as np

if TYPE_CHECKING:
    from repro.trace.columnar import ColumnarTrace

from repro.cache.geometry import CacheGeometry
from repro.sim.engine import backends
from repro.sim.engine.batched import FastSimResult, LockstepCache


# ----------------------------------------------------------------------
# Single-sweep-point sharding: chunk-streamed columnar traces
# ----------------------------------------------------------------------
#: Default streaming window (accesses per chunk).  Small enough that a
#: chunk's columns stay cache-resident, large enough to amortize the
#: per-chunk kernel dispatch.
DEFAULT_CHUNK_ACCESSES = 1 << 18


def _resolve_masks(
    window: "ColumnarTrace",
    geometry: CacheGeometry,
    uniform_mask: Optional[int],
    variable_masks: Optional[Mapping[str, int]],
    default_mask: Optional[int],
) -> tuple[Optional[np.ndarray], Optional[int]]:
    """(mask_bits, uniform_mask) for one trace window."""
    if variable_masks is None:
        return None, uniform_mask
    default = (
        (1 << geometry.columns) - 1
        if default_mask is None
        else int(default_mask)
    )
    return window.mask_bits_for(variable_masks, default), None


def _stream_shards(
    trace: "ColumnarTrace",
    geometry: CacheGeometry,
    owned: Sequence[int],
    shards: int,
    chunk_accesses: int,
    uniform_mask: Optional[int],
    variable_masks: Optional[Mapping[str, int]],
    default_mask: Optional[int],
    kernel: Optional[str],
) -> list[FastSimResult]:
    """Stream a columnar trace once through the ``owned`` shards.

    Each owned shard advances its own
    :class:`~repro.sim.engine.batched.LockstepCache` on ``kernel``
    over the accesses whose set index lands in it (``set % shards``),
    in trace order; accesses of other shards are skipped.  Returns one
    tally per owned shard, in ``owned`` order.
    """
    caches = [LockstepCache(geometry, backend=kernel) for _ in owned]
    for window in trace.iter_chunks(chunk_accesses):
        mask_bits, uniform = _resolve_masks(
            window, geometry, uniform_mask, variable_masks, default_mask
        )
        if shards == 1:
            # The one shard is the whole trace: the kernel shifts the
            # window's addresses itself.
            caches[0].run(
                window.addresses,
                mask_bits,
                uniform,
                offset_bits=geometry.offset_bits,
            )
            continue
        blocks = window.blocks_for(geometry.offset_bits)
        rows = blocks & np.int64(geometry.sets - 1)
        assignment = rows % np.int64(shards)
        for shard, cache in zip(owned, caches):
            keep = np.flatnonzero(assignment == shard)
            if len(keep):
                cache.run(
                    blocks[keep],
                    None if mask_bits is None else mask_bits[keep],
                    uniform,
                )
    return [cache.result() for cache in caches]


def _stream_one_shard(
    trace: "ColumnarTrace",
    geometry: CacheGeometry,
    shard: int,
    shards: int,
    chunk_accesses: int,
    uniform_mask: Optional[int],
    variable_masks: Optional[Mapping[str, int]],
    default_mask: Optional[int],
    kernel: Optional[str],
) -> tuple[int, int, int]:
    """Stream one shard's accesses off a columnar trace.

    Returns ``(accesses, hits, bypasses)`` for the accesses whose set
    index lands in this shard; all other accesses are skipped without
    touching the shard's state.
    """
    (result,) = _stream_shards(
        trace,
        geometry,
        (shard,),
        shards,
        chunk_accesses,
        uniform_mask,
        variable_masks,
        default_mask,
        kernel,
    )
    return result.accesses, result.hits, result.bypasses


def simulate_columnar_sharded(
    trace: "ColumnarTrace",
    geometry: CacheGeometry,
    *,
    shards: Optional[int] = None,
    chunk_accesses: int = DEFAULT_CHUNK_ACCESSES,
    uniform_mask: Optional[int] = None,
    variable_masks: Optional[Mapping[str, int]] = None,
    default_mask: Optional[int] = None,
    kernel: Optional[str] = None,
) -> FastSimResult:
    """Simulate one columnar trace set-sharded, in process.

    The trace streams once through bounded ``iter_chunks`` windows;
    within each window the accesses are partitioned by
    ``set_index % shards`` and each shard advances its own
    :class:`~repro.sim.engine.batched.LockstepCache`.  Because sets
    never interact, per-shard hit/miss/bypass tallies merged in shard
    order (plain sums) are bit-identical to the unsharded run —
    whatever the shard count or how chunk boundaries fall.

    ``variable_masks`` (with ``default_mask``) derives per-access
    replacement masks from the trace's variable labels; mutually
    exclusive with ``uniform_mask``.  ``kernel`` pins the lockstep
    backend (None follows the session's active backend).
    """
    if uniform_mask is not None and variable_masks is not None:
        raise ValueError(
            "give either uniform_mask or variable_masks, not both"
        )
    shard_count = max(
        1, min(shards if shards is not None else 1, geometry.sets)
    )
    kernel_name = (
        backends.active_backend()
        if kernel is None
        else backends.resolve_backend(kernel)
    )
    tallies = _stream_shards(
        trace,
        geometry,
        range(shard_count),
        shard_count,
        chunk_accesses,
        uniform_mask,
        variable_masks,
        default_mask,
        kernel_name,
    )
    # Deterministic merge: sums accumulated in shard order.
    return FastSimResult(
        hits=sum(tally.hits for tally in tallies),
        misses=sum(tally.misses for tally in tallies),
        bypasses=sum(tally.bypasses for tally in tallies),
    )


def _simulate_npz_shard(
    payload: tuple[
        str,
        CacheGeometry,
        int,
        int,
        int,
        Optional[int],
        Optional[dict],
        Optional[int],
        str,
    ],
) -> tuple[int, int, int]:
    """Worker: mmap the archive, stream one shard, return tallies."""
    (
        path,
        geometry,
        shard,
        shards,
        chunk_accesses,
        uniform_mask,
        variable_masks,
        default_mask,
        kernel,
    ) = payload
    from repro.trace.columnar import load_npz

    trace = load_npz(path, mmap=True)
    return _stream_one_shard(
        trace,
        geometry,
        shard,
        shards,
        chunk_accesses,
        uniform_mask,
        variable_masks,
        default_mask,
        kernel,
    )


def simulate_npz_sharded(
    trace_path: Union[str, Path],
    geometry: CacheGeometry,
    *,
    shards: Optional[int] = None,
    workers: int = 1,
    chunk_accesses: int = DEFAULT_CHUNK_ACCESSES,
    uniform_mask: Optional[int] = None,
    variable_masks: Optional[Mapping[str, int]] = None,
    default_mask: Optional[int] = None,
    kernel: Optional[str] = None,
) -> FastSimResult:
    """Shard one ``.npz`` trace's sets across worker processes.

    Each worker memory-maps the archive independently and streams it
    in bounded chunks (:meth:`ColumnarTrace.iter_chunks`), keeping
    only the accesses of its set shard — no worker ever materializes
    the full trace, so working sets stay cache-resident however large
    the archive is.  ``shards`` defaults to ``workers``; ``workers <=
    1`` runs the single-pass in-process path
    (:func:`simulate_columnar_sharded`).  Tallies merge
    deterministically in shard order and are bit-identical to the
    unsharded run.
    """
    if uniform_mask is not None and variable_masks is not None:
        raise ValueError(
            "give either uniform_mask or variable_masks, not both"
        )
    from repro.trace.columnar import load_npz

    path = str(trace_path)
    shard_count = max(
        1,
        min(
            shards if shards is not None else max(workers, 1),
            geometry.sets,
        ),
    )
    kernel_name = (
        backends.active_backend()
        if kernel is None
        else backends.resolve_backend(kernel)
    )
    if workers <= 1 or shard_count == 1:
        return simulate_columnar_sharded(
            load_npz(path, mmap=True),
            geometry,
            shards=shard_count,
            chunk_accesses=chunk_accesses,
            uniform_mask=uniform_mask,
            variable_masks=variable_masks,
            default_mask=default_mask,
            kernel=kernel_name,
        )
    payloads = [
        (
            path,
            geometry,
            shard,
            shard_count,
            chunk_accesses,
            uniform_mask,
            dict(variable_masks) if variable_masks is not None else None,
            default_mask,
            kernel_name,
        )
        for shard in range(shard_count)
    ]
    with ProcessPoolExecutor(max_workers=workers) as pool:  # repro: ignore[R005] -- resolved kernel name travels in each shard payload, stronger than env pinning
        counts = list(pool.map(_simulate_npz_shard, payloads))
    total = sum(count[0] for count in counts)
    hits = sum(count[1] for count in counts)
    bypasses = sum(count[2] for count in counts)
    return FastSimResult(
        hits=hits, misses=total - hits, bypasses=bypasses
    )
