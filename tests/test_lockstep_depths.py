"""LRU stack depths: the lockstep kernel's depth output, and the curve.

``lockstep_run(..., collect="depths")`` returns, per access, the hit
line's rank among its row's valid ways by ``last_use`` (0 = most
recently used), or ``ways`` on a miss, leaving the state exactly as
the other collect modes do.  LRU is a stack algorithm (Mattson et al.,
1970), so on a cold, unmasked run the depth is the access's position
in its set's recency stack, and an access hits in a ``c``-way cache
iff its depth is below ``c``.  The fleet broker's measured demand
curve (:func:`repro.fleet.broker.solo_misses`) is read off that one
pass.  Held here:

* depths equal those of a per-set Python LRU stack;
* the numpy and compiled kernels agree on depths and final state bit
  for bit, from warm states and with per-access masks, and the state
  equals the flags mode's;
* the depth-derived curve equals the bank-batch oracle
  (``oracles/pricing.py``) and one solo simulation per grant size.

Draws cover ``strategies.BLOCK_DOMAINS``, 1-set and 63-way geometries
and 1-access windows.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fleet.broker import solo_misses
from repro.sim.engine.backends import (
    compiled_available,
    reset_backend,
    set_backend,
)
from repro.sim.engine.batched import LockstepState, lockstep_run

from oracles.pricing import bank_batch_solo_misses
from strategies import block_trace_cases, draw_blocks, small_geometries
from test_fleet_broker import per_candidate_misses

#: Every kernel backend this host can run.
KERNELS = ("numpy", "compiled") if compiled_available() else ("numpy",)

#: numpy scalar-tail cutoffs: no tail, a narrow tail, the default,
#: all tail.
CUTOFFS = (0, 4, 96, 10**9)


def stack_depths(blocks, geometry):
    """Per-access depth in a per-set Python LRU stack (MRU first),
    ``columns`` for a line the stack no longer (or never) held."""
    stacks = {}
    depths = []
    for block in blocks:
        stack = stacks.setdefault(block % geometry.sets, [])
        if block in stack:
            depths.append(stack.index(block))
            stack.remove(block)
        else:
            depths.append(geometry.columns)
        stack.insert(0, block)
        del stack[geometry.columns:]
    return depths


def run_depths(
    geometry, blocks, state, kernel, mask_bits=None, cutoff=96
):
    blocks = np.asarray(blocks, dtype=np.int64)
    return lockstep_run(
        blocks & np.int64(geometry.sets - 1),
        blocks >> np.int64(geometry.index_bits),
        state,
        mask_bits=mask_bits,
        scalar_cutoff=cutoff,
        collect="depths",
        backend=kernel,
    )


def copy_state(state):
    return LockstepState(
        tags=state.tags.copy(),
        last_use=state.last_use.copy(),
        clock=state.clock.copy(),
    )


@st.composite
def block_windows(draw, max_windows=3, max_length=300):
    """A geometry and 1-3 block windows (1-access ones on purpose)."""
    geometry = draw(small_geometries())
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    windows = []
    for _ in range(draw(st.integers(1, max_windows))):
        length = draw(st.one_of(st.just(1), st.integers(1, max_length)))
        windows.append(draw_blocks(draw, rng, geometry, length))
    return geometry, windows


@pytest.mark.parametrize("kernel", KERNELS)
@given(case=block_windows(max_windows=1, max_length=400),
       cutoff=st.sampled_from(CUTOFFS))
def test_depths_equal_a_python_lru_stack(case, cutoff, kernel):
    geometry, (blocks,) = case
    depths = run_depths(
        geometry,
        blocks,
        LockstepState.cold(geometry.sets, geometry.columns),
        kernel,
        cutoff=cutoff,
    )
    assert depths.dtype == np.uint8
    assert depths.tolist() == stack_depths(blocks.tolist(), geometry)


@given(case=block_trace_cases(), warm=st.integers(0, 200),
       cutoff=st.sampled_from(CUTOFFS))
def test_kernels_agree_on_depths_and_state(case, warm, cutoff):
    """From a warm state and under per-access masks (empty ones
    bypass), every kernel leaves the state the flags mode leaves and
    reports the same depths, hits exactly where depth < ways."""
    geometry, blocks, mask_bits = case
    blocks = np.asarray(blocks, dtype=np.int64)
    masks = np.asarray(mask_bits, dtype=np.int64)
    prefix = min(warm, len(blocks) - 1)
    start = LockstepState.cold(geometry.sets, geometry.columns)
    run_depths(geometry, blocks[:prefix], start, "numpy", masks[:prefix])
    flags_state = copy_state(start)
    suffix = blocks[prefix:]
    hit_flags, _ = lockstep_run(
        suffix & np.int64(geometry.sets - 1),
        suffix >> np.int64(geometry.index_bits),
        flags_state,
        mask_bits=masks[prefix:],
        backend="numpy",
    )
    for kernel in KERNELS:
        state = copy_state(start)
        depths = run_depths(
            geometry, suffix, state, kernel, masks[prefix:], cutoff
        )
        assert np.array_equal(depths < geometry.columns, hit_flags)
        assert np.array_equal(state.tags, flags_state.tags), kernel
        assert np.array_equal(state.last_use, flags_state.last_use)
        assert np.array_equal(state.clock, flags_state.clock)
        if kernel == "numpy":
            reference = depths
        assert depths.dtype == reference.dtype
        assert np.array_equal(depths, reference), kernel


@pytest.mark.parametrize("kernel", KERNELS)
@given(case=block_windows())
def test_depth_curve_equals_bank_batch_and_per_candidate(case, kernel):
    geometry, windows = case
    set_backend(kernel)
    try:
        curve = solo_misses(windows, geometry)
        banks = bank_batch_solo_misses(windows, geometry)
    finally:
        reset_backend()
    assert curve.shape == (len(windows), geometry.columns)
    assert np.array_equal(curve, banks)
    for blocks, row in zip(windows, curve):
        assert row.tolist() == per_candidate_misses(blocks, geometry)


@pytest.mark.parametrize("kernel", KERNELS)
def test_empty_batch_returns_empty_depths(kernel):
    state = LockstepState.cold(2, 3)
    depths = lockstep_run(
        np.zeros(0, np.int64), np.zeros(0, np.int64), state,
        collect="depths", backend=kernel,
    )
    assert depths.dtype == np.uint8 and len(depths) == 0
