"""Synthetic access-pattern generators.

These produce the classic locality archetypes (streams, strides, hot
working sets, Zipf mixes, pointer chases) used by unit tests, the
ablation benches, and microbenchmark examples.  All generators are
deterministic given their seed, and all build their traces as whole
columns (:meth:`~repro.trace.columnar.ColumnarTrace.from_columns`) —
no per-access Python objects, so million-access synthetic traces are
numpy-speed.  :func:`generate` draws one of them by kind name, for
``repro trace generate`` and the ``trace_sim`` sweep runner.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.trace.trace import Trace


def sequential_stream(
    base: int,
    count: int,
    element_size: int = 2,
    variable: Optional[str] = "stream",
    writes: bool = False,
    name: str = "sequential",
) -> Trace:
    """``count`` consecutive element accesses starting at ``base``."""
    addresses = base + np.arange(count, dtype=np.int64) * element_size
    return Trace.from_columns(
        addresses,
        writes=writes,
        variable=variable,
        sizes=np.full(count, element_size, dtype=np.int32),
        name=name,
    )


def strided_stream(
    base: int,
    count: int,
    stride: int,
    variable: Optional[str] = "strided",
    name: str = "strided",
) -> Trace:
    """``count`` accesses separated by ``stride`` bytes."""
    addresses = base + np.arange(count, dtype=np.int64) * stride
    return Trace.from_columns(
        addresses, variable=variable, name=name
    )


def looped_working_set(
    base: int,
    working_set_bytes: int,
    passes: int,
    element_size: int = 2,
    variable: Optional[str] = "hot",
    name: str = "looped",
) -> Trace:
    """Repeated sequential sweeps over a fixed working set.

    The canonical temporal-locality pattern: fits-in-cache working sets
    approach 100% hits after the first pass; oversized ones thrash LRU.
    """
    elements = working_set_bytes // element_size
    one_pass = base + np.arange(elements, dtype=np.int64) * element_size
    addresses = np.tile(one_pass, passes)
    return Trace.from_columns(
        addresses,
        variable=variable,
        sizes=np.full(len(addresses), element_size, dtype=np.int32),
        name=name,
    )


def random_uniform(
    base: int,
    span_bytes: int,
    count: int,
    element_size: int = 2,
    seed: int = 0,
    write_fraction: float = 0.0,
    variable: Optional[str] = "random",
    name: str = "random",
) -> Trace:
    """Uniform random accesses over ``[base, base + span_bytes)``."""
    rng = np.random.default_rng(seed)
    elements = max(span_bytes // element_size, 1)
    indices = rng.integers(0, elements, size=count)
    write_flags = rng.random(count) < write_fraction
    return Trace.from_columns(
        base + indices.astype(np.int64) * element_size,
        writes=write_flags,
        variable=variable,
        sizes=np.full(count, element_size, dtype=np.int32),
        name=name,
    )


def zipf_accesses(
    base: int,
    span_bytes: int,
    count: int,
    element_size: int = 2,
    exponent: float = 1.2,
    seed: int = 0,
    variable: Optional[str] = "zipf",
    name: str = "zipf",
) -> Trace:
    """Zipf-distributed accesses: a few hot lines, a long cold tail."""
    if exponent <= 1.0:
        raise ValueError(f"zipf exponent must exceed 1.0, got {exponent}")
    rng = np.random.default_rng(seed)
    elements = max(span_bytes // element_size, 1)
    ranks = rng.zipf(exponent, size=count)
    indices = (ranks - 1) % elements
    return Trace.from_columns(
        base + indices.astype(np.int64) * element_size,
        variable=variable,
        sizes=np.full(count, element_size, dtype=np.int32),
        name=name,
    )


def pointer_chase(
    base: int,
    node_count: int,
    hops: int,
    node_size: int = 16,
    seed: int = 0,
    variable: Optional[str] = "list",
    name: str = "pointer_chase",
) -> Trace:
    """A random-permutation linked-list walk (no spatial locality).

    The walk visits the permutation cycle containing node 0, so the
    ``hops``-long node sequence is the cycle tiled — computed by
    rolling the permutation order rather than chasing pointers one
    Python hop at a time.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(node_count).astype(np.int64)
    # order[i] -> order[i+1] is the successor relation; starting from
    # order[0], the visit sequence is simply `order` tiled to length.
    repeats = -(-hops // node_count) if node_count else 0
    nodes = np.tile(order, max(repeats, 1))[:hops]
    return Trace.from_columns(
        base + nodes * node_size,
        variable=variable,
        sizes=np.full(hops, node_size, dtype=np.int32),
        name=name,
    )


#: The kinds :func:`generate` draws.
KINDS = ("looped", "pointer_chase", "random", "sequential", "zipf")


def generate(
    kind: str,
    count: int,
    *,
    base: int,
    span: int,
    element_size: int,
    seed: int,
) -> Trace:
    """A synthetic trace of one of :data:`KINDS`, from ``base``.

    ``span`` bytes bound the random and Zipf draws, the looped working
    set (swept as many times as ``count // (span // 2)``, at least
    once) and the pointer chase's 16-byte nodes; ``sequential`` runs
    ``count`` elements.

    Raises:
        ValueError: for an unknown ``kind``.
    """
    if kind == "sequential":
        return sequential_stream(base, count, element_size=element_size)
    if kind == "looped":
        passes = max(count // max(span // 2, 1), 1)
        return looped_working_set(
            base, span, passes, element_size=element_size
        )
    if kind == "random":
        return random_uniform(
            base, span, count, element_size=element_size, seed=seed
        )
    if kind == "zipf":
        return zipf_accesses(
            base, span, count, element_size=element_size, seed=seed
        )
    if kind == "pointer_chase":
        return pointer_chase(base, max(span // 16, 1), count, seed=seed)
    raise ValueError(
        f"unknown trace kind {kind!r}; choose from {list(KINDS)}"
    )
