"""Page coloring against the per-access reference, on both kernels.

:class:`~repro.baselines.page_coloring.PageColoringBaseline` keeps its
relocation as one sorted page table and translates a whole address
column with one ``searchsorted``; the simulated cache then reads the
physical byte addresses itself.  ``tests/oracles/page_coloring.py``
builds the relocation page by page as a dict and looks every access up
on its own.  Held here:

* the page table and the copied bytes equal the reference's, on
  random layouts that include no colored variable (an empty table), a
  single page, and pages two variables share;
* ``translate`` equals the reference on addresses that mix mapped
  pages, unmapped pages, page 0 and both ends of int64 (an unmapped
  address's identity plus ``2**40`` wraps modulo ``2**64``, where the
  reference's exact integer leaves int64);
* ``run`` and ``run_uncolored`` equal the reference addresses
  replayed through ``ReferenceCache`` in hits, misses and cycles,
  1-access traces included;
* ``plan`` end to end on random workloads.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.page_coloring import (
    PageColoringBaseline,
    PageColoringPlan,
)
from repro.cache.geometry import CacheGeometry
from repro.mem.layout import MemoryMap
from repro.sim.config import TimingConfig
from repro.sim.engine.backends import (
    compiled_available,
    reset_backend,
    set_backend,
)
from repro.trace.columnar import ColumnarTrace
from repro.workloads.base import WorkloadRun

from oracles.page_coloring import (
    fold_int64,
    reference_counts,
    reference_page_map,
    reference_translate,
)
from strategies import random_workload

KERNELS = ("numpy", "compiled") if compiled_available() else ("numpy",)

TIMING = TimingConfig(miss_penalty=10, uncached_penalty=10)

#: Addresses every draw may include: page 0, -1, both ends of int64
#: and both sides of the last address whose identity plus ``2**40``
#: still fits in int64.
EDGE_ADDRESSES = (
    0,
    1,
    -1,
    -(2**63),
    2**63 - 1,
    2**63 - 1 - 2**40,
    2**63 - 2**40,
)


@contextlib.contextmanager
def pinned(kernel):
    """Run the block with the session's lockstep kernel pinned."""
    set_backend(kernel)
    try:
        yield
    finally:
        reset_backend()


@st.composite
def colored_layouts(draw):
    """``(baseline, memory map, variable colors)``.

    ``form`` picks the table's shape: ``empty`` colors no variable,
    ``one-page`` colors one variable inside a single page, ``shared``
    puts two differently colored variables on one page, ``random``
    colors a random subset of up to four variables.
    """
    geometry = CacheGeometry(
        line_size=draw(st.sampled_from([16, 32])),
        sets=draw(st.sampled_from([1, 2, 4, 8])),
        columns=draw(st.sampled_from([1, 2, 4])),
    )
    page_size = draw(
        st.sampled_from(
            [size for size in (8, 16, 32, 64, 128, 256)
             if size <= geometry.column_bytes]
        )
    )
    baseline = PageColoringBaseline(
        geometry, page_size=page_size, timing=TIMING
    )
    colors = baseline.page_colors
    color = st.integers(0, colors - 1)
    form = draw(st.sampled_from(["empty", "one-page", "shared", "random"]))
    memory_map = MemoryMap(
        base=draw(st.sampled_from([0, page_size, 0x1000])),
        page_size=page_size,
        page_aligned=form != "shared" and draw(st.booleans()),
    )
    variable_colors: dict[str, int] = {}
    if form == "one-page":
        memory_map.allocate("v0", draw(st.integers(1, page_size)), 1)
        variable_colors["v0"] = draw(color)
    elif form == "shared":
        half = max(page_size // 2, 1)
        memory_map.allocate("v0", draw(st.integers(1, half)), 1)
        memory_map.allocate("v1", draw(st.integers(1, half)), 1)
        first = draw(color)
        variable_colors = {"v0": first, "v1": (first + 1) % colors}
    else:
        count = draw(st.integers(0, 4))
        for index in range(count):
            size = draw(st.integers(1, 3 * page_size))
            memory_map.allocate(f"v{index}", size, 1)
        if form == "random":
            for index in range(count):
                if draw(st.booleans()):
                    variable_colors[f"v{index}"] = draw(color)
    return baseline, memory_map, variable_colors


def build_plan(baseline, memory_map, variable_colors):
    """The production page table for given variable colors."""
    plan = PageColoringPlan(
        colors=baseline.page_colors, variable_colors=dict(variable_colors)
    )
    run = WorkloadRun(
        name="layout",
        trace=ColumnarTrace.empty(),
        memory_map=memory_map,
    )
    baseline._build_page_map(run, plan)
    return plan


def draw_addresses(draw, page_map, page_size):
    """Addresses mixing mapped pages (random in-page offsets),
    unmapped pages, page 0 and :data:`EDGE_ADDRESSES`."""
    length = draw(st.one_of(st.just(1), st.integers(1, 200)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    mapped = sorted(page_map)
    addresses = []
    for _ in range(length):
        kind = int(rng.integers(0, 4))
        if kind == 0 and mapped:
            page = mapped[int(rng.integers(0, len(mapped)))]
            addresses.append(page * page_size + int(rng.integers(page_size)))
        elif kind == 1:
            addresses.append(int(rng.integers(-(1 << 20), 1 << 20)))
        elif kind == 2:
            addresses.append(int(rng.integers(0, page_size)))
        else:
            addresses.append(
                EDGE_ADDRESSES[int(rng.integers(len(EDGE_ADDRESSES)))]
            )
    return addresses


@st.composite
def translation_cases(draw):
    """``(baseline, plan, reference page map, addresses, gaps)``."""
    baseline, memory_map, variable_colors = draw(colored_layouts())
    plan = build_plan(baseline, memory_map, variable_colors)
    page_map, _copied = reference_page_map(
        memory_map, variable_colors, baseline.page_size,
        baseline.page_colors,
    )
    addresses = draw_addresses(draw, page_map, baseline.page_size)
    gaps = draw(
        st.lists(
            st.integers(0, 3),
            min_size=len(addresses),
            max_size=len(addresses),
        )
    )
    return baseline, plan, page_map, addresses, gaps


@given(case=colored_layouts())
def test_page_table_equals_reference(case):
    baseline, memory_map, variable_colors = case
    plan = build_plan(baseline, memory_map, variable_colors)
    page_map, copied = reference_page_map(
        memory_map, variable_colors, baseline.page_size,
        baseline.page_colors,
    )
    assert plan.page_map == page_map
    assert plan.remap_copy_bytes == copied
    assert plan.pages.dtype == plan.frames.dtype == np.int64
    assert np.all(np.diff(plan.pages) > 0)


@given(case=translation_cases())
def test_translate_equals_reference(case):
    baseline, plan, page_map, addresses, _gaps = case
    exact = reference_translate(addresses, page_map, baseline.page_size)
    physical = baseline.translate(np.array(addresses, dtype=np.int64), plan)
    assert physical.dtype == np.int64
    assert physical.tolist() == [fold_int64(value) for value in exact]


def reference_result(baseline, addresses, gaps):
    """``(hits, misses, cycles)`` of physical addresses on the cache."""
    hits, misses = reference_counts(baseline.cache_geometry, addresses)
    instructions = len(addresses) + sum(gaps)
    return hits, misses, instructions + misses * TIMING.miss_penalty


def outcome(result):
    return result.hits, result.misses, result.cycles


@pytest.mark.parametrize("kernel", KERNELS)
@given(case=translation_cases())
def test_runs_equal_reference_on_the_cache(kernel, case):
    baseline, plan, page_map, addresses, gaps = case
    run = WorkloadRun(
        name="case",
        trace=ColumnarTrace.from_columns(addresses, gaps=gaps),
        memory_map=MemoryMap(),
    )
    colored = reference_translate(addresses, page_map, baseline.page_size)
    with pinned(kernel):
        result = baseline.run(run, plan, charge_initial_copies=True)
        uncolored = baseline.run_uncolored(run)
    assert outcome(result) == reference_result(baseline, colored, gaps)
    assert result.accesses == len(addresses)
    assert result.setup_cycles == plan.remap_copy_bytes
    assert outcome(uncolored) == reference_result(baseline, addresses, gaps)


@pytest.mark.parametrize("kernel", KERNELS)
def test_one_access_on_a_mapped_page(kernel):
    baseline = PageColoringBaseline(
        CacheGeometry(line_size=16, sets=4, columns=1), page_size=16,
        timing=TIMING,
    )
    memory_map = MemoryMap(base=0x100, page_size=16, page_aligned=True)
    memory_map.allocate("v0", 16, 1)
    plan = build_plan(baseline, memory_map, {"v0": 3})
    assert plan.page_map == {0x10: 3}
    run = WorkloadRun(
        name="one",
        trace=ColumnarTrace.from_columns([0x105], gaps=[2]),
        memory_map=memory_map,
    )
    assert baseline.translate(run.trace.addresses, plan).tolist() == [0x35]
    with pinned(kernel):
        result = baseline.run(run, plan)
    assert outcome(result) == (0, 1, 3 + TIMING.miss_penalty)


@pytest.mark.parametrize("kernel", KERNELS)
@given(case=random_workload(max_length=200))
def test_plan_end_to_end(kernel, case):
    """``plan`` colors a random workload; its table, translation and
    simulated cycles equal the reference's for those colors."""
    run, _scratchpad, _split = case
    baseline = PageColoringBaseline(
        CacheGeometry(line_size=16, sets=16, columns=1), page_size=64,
        timing=TIMING,
    )
    plan = baseline.plan(run)
    page_map, copied = reference_page_map(
        run.memory_map, plan.variable_colors, 64, baseline.page_colors
    )
    assert plan.page_map == page_map
    assert plan.remap_copy_bytes == copied
    addresses = run.trace.addresses.tolist()
    colored = reference_translate(addresses, page_map, 64)
    with pinned(kernel):
        result = baseline.run(run, plan)
    assert outcome(result) == reference_result(
        baseline, colored, run.trace.gaps.tolist()
    )
