"""Demand pricing against its references, served.

The broker prices a probe's measured curve from one full-width
lockstep pass's LRU stack depths
(:func:`~repro.fleet.broker.solo_misses`), and its plan curve
``W(1..columns)`` with one :func:`~repro.layout.merge.merge_ladder`
pass, only where the measured curve falls.  Swapping any of these for
its reference — the paper's merge loop run once per grant size
(:func:`oracles.merge.color_with_merging_reference`), one masked row
bank per grant size (:func:`oracles.pricing.bank_batch_solo_misses`),
or W priced on every probe
(:func:`oracles.pricing.price_every_probe`) — must change nothing a
serve population shows: every demand curve priced, every broker's
final demands, tickets, migrations, audits, tenant telemetry,
``fleet top`` frames and the flushed event streams.  A Hypothesis
property holds single probes to the price-every-probe reference.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fleet import broker as broker_module
from repro.fleet.broker import demand_curves
from repro.fleet.service import FleetService
from repro.layout import algorithm
from repro.layout.coloring import DEFAULT_NODE_BUDGET
from repro.mem.layout import MemoryMap
from repro.trace.columnar import ColumnarRecorder
from repro.workloads.base import WorkloadRun

from oracles.merge import color_with_merging_reference
from oracles.pricing import bank_batch_solo_misses, price_every_probe
from strategies import random_workload, small_geometries
from test_service_clock import SERVE, final_state, serve, tiny_load


def per_k_ladder(
    graph, ks, strategy="exact", seed=0, node_budget=DEFAULT_NODE_BUDGET
):
    """The ladder's contract, met by one merge loop per ``k``."""
    return {
        k: color_with_merging_reference(
            graph, k, strategy, seed, node_budget
        )
        for k in sorted(set(ks))
    }


def served(
    load,
    frame_interval,
    path,
    monkeypatch,
    ladder=None,
    misses=None,
    pricing=None,
):
    """Serve ``load``; returns its whole state and event streams."""
    priced = []
    phase_probes = []
    price = pricing or broker_module.demand_curves

    def recording(probes, *args, **kwargs):
        curves = price(probes, *args, **kwargs)
        priced.append(curves)
        phase_probes.extend(
            slices for _, slices in probes if slices is not None
        )
        return curves

    with monkeypatch.context() as patch:
        patch.setattr(broker_module, "demand_curves", recording)
        if ladder is not None:
            patch.setattr(algorithm, "merge_ladder", ladder)
        if misses is not None:
            patch.setattr(broker_module, "solo_misses", misses)
        service, report, frames = serve(FleetService, load, frame_interval)
    state = final_state(service, report, frames)
    state["priced"] = priced
    state["phase_probes"] = phase_probes
    state["demands"] = [shard.broker.demands for shard in service.shards]
    state["snapshot"] = service.snapshot().as_dict()
    with np.load(service.flush_events(path)) as archive:
        streams = {key: archive[key] for key in archive.files}
    return state, streams


@pytest.mark.parametrize("seed, frame_interval", [(1, None), (2, 3000)])
def test_ladder_prices_serve_like_the_per_k_loop(
    seed, frame_interval, tmp_path, monkeypatch
):
    load = tiny_load(seed=seed)
    ladder_state, ladder_streams = served(
        load, frame_interval, tmp_path / "ladder.npz", monkeypatch
    )
    loop_state, loop_streams = served(
        load, frame_interval, tmp_path / "loop.npz", monkeypatch,
        ladder=per_k_ladder,
    )
    assert ladder_state["migrations"], "no migration exercised"
    # Some probe must value a column beyond its first, or a ladder
    # that priced every W(k) alike would pass unnoticed.
    assert any(
        len(set(curve.plan_costs)) > 1
        for batch in ladder_state["priced"]
        for curve in batch
        if curve.plan_costs is not None
    )
    for key in loop_state:
        assert ladder_state[key] == loop_state[key], key
    assert ladder_streams.keys() == loop_streams.keys()
    for key, column in loop_streams.items():
        assert np.array_equal(ladder_streams[key], column), key


@pytest.mark.parametrize("seed, frame_interval", [(1, None), (2, 3000)])
def test_stack_depths_price_serve_like_the_bank_batch(
    seed, frame_interval, tmp_path, monkeypatch
):
    load = tiny_load(seed=seed)
    depth_state, depth_streams = served(
        load, frame_interval, tmp_path / "depths.npz", monkeypatch
    )
    bank_state, bank_streams = served(
        load, frame_interval, tmp_path / "banks.npz", monkeypatch,
        misses=bank_batch_solo_misses,
    )
    # Phase windows (slices of a tenant's trace) were priced, and some
    # measured curve values a column beyond its first.
    assert depth_state["phase_probes"], "no phase window priced"
    assert any(
        len(set(curve.measured_costs)) > 1
        for batch in depth_state["priced"]
        for curve in batch
    )
    for key in bank_state:
        assert depth_state[key] == bank_state[key], key
    assert depth_streams.keys() == bank_streams.keys()
    for key, column in bank_streams.items():
        assert np.array_equal(depth_streams[key], column), key


def assert_prices_like(got, reference, columns):
    """``got`` prices every grant size like ``reference``, which has
    W on every probe: the same measured curve, cost and marginal
    benefit at every ``c``, and the same W wherever ``got`` has one."""
    assert got.measured_costs == reference.measured_costs
    assert got.plan_costs in (None, reference.plan_costs)
    for c in range(1, columns + 1):
        assert got.cost(c) == reference.cost(c)
    for c in range(2, columns + 1):
        assert got.marginal_benefit(c) == reference.marginal_benefit(c)


@pytest.mark.parametrize("seed, frame_interval", [(1, None), (2, 3000)])
def test_flat_probes_skip_w_and_serve_like_pricing_every_probe(
    seed, frame_interval, tmp_path, monkeypatch
):
    load = tiny_load(seed=seed)
    skip_state, skip_streams = served(
        load, frame_interval, tmp_path / "skip.npz", monkeypatch
    )
    every_state, every_streams = served(
        load, frame_interval, tmp_path / "every.npz", monkeypatch,
        pricing=price_every_probe,
    )
    columns = SERVE.service.geometry.columns
    got = [curve for batch in skip_state["priced"] for curve in batch]
    reference = [
        curve for batch in every_state["priced"] for curve in batch
    ]
    # W was skipped on some probes and priced on others.
    assert any(curve.plan_costs is None for curve in got)
    assert any(curve.plan_costs is not None for curve in got)
    assert [len(batch) for batch in skip_state["priced"]] == [
        len(batch) for batch in every_state["priced"]
    ]
    for curve, expected in zip(got, reference):
        assert_prices_like(curve, expected, columns)
    for demands, expected in zip(
        skip_state["demands"], every_state["demands"], strict=True
    ):
        assert demands.keys() == expected.keys()
        for name, curve in demands.items():
            assert_prices_like(curve, expected[name], columns)
    for key in every_state.keys() - {"priced", "demands"}:
        assert skip_state[key] == every_state[key], key
    assert skip_streams.keys() == every_streams.keys()
    for key, column in every_streams.items():
        assert np.array_equal(skip_streams[key], column), key


def strided_run(name, indices, stride):
    """A one-array run reading byte ``i * stride`` of the array for
    each ``i`` in ``indices``."""
    memory_map = MemoryMap(base=0x10000)
    array = memory_map.allocate(name, (max(indices) + 1) * stride)
    builder = ColumnarRecorder(name=name)
    for index in indices:
        builder.append(array.range.base + index * stride, variable=name)
    return WorkloadRun(
        name=name, trace=builder.build(), memory_map=memory_map
    )


@st.composite
def pricing_probes(draw):
    """``(geometry, run, slices)``: a random workload under a random,
    empty or one-access window, a pure stream, or a run whose blocks
    all map to one set."""
    geometry = draw(small_geometries())
    kind = draw(
        st.sampled_from(["random", "empty", "one", "stream", "one-set"])
    )
    if kind == "stream":
        count = draw(st.integers(1, 200))
        return geometry, strided_run(
            "stream", range(count), geometry.line_size
        ), None
    if kind == "one-set":
        indices = draw(st.lists(st.integers(0, 6), min_size=1, max_size=80))
        return geometry, strided_run(
            "one-set", indices, geometry.sets * geometry.line_size
        ), None
    run = draw(random_workload())[0]
    length = len(run.trace)
    start = draw(st.integers(0, length - 1))
    if kind == "empty":
        return geometry, run, [(start, start)]
    if kind == "one":
        return geometry, run, [(start, start + 1)]
    bounds = st.integers(0, length)
    pieces = draw(st.lists(st.tuples(bounds, bounds), max_size=3))
    return geometry, run, [tuple(sorted(piece)) for piece in pieces]


@given(probe=pricing_probes(), limit=st.integers(1, 400))
def test_w_is_priced_exactly_where_the_measured_curve_falls(probe, limit):
    geometry, run, slices = probe
    (got,) = demand_curves([(run, slices)], geometry, limit)
    (reference,) = price_every_probe([(run, slices)], geometry, limit)
    measured = got.measured_costs
    assert measured == reference.measured_costs
    falls = any(a > b for a, b in zip(measured, measured[1:]))
    assert (got.plan_costs is not None) == falls
    if falls:
        assert got.plan_costs == reference.plan_costs
    plan = reference.plan_costs
    for c in range(2, geometry.columns + 1):
        assert got.marginal_benefit(c) == min(
            max(plan[c - 2] - plan[c - 1], 0),
            max(measured[c - 2] - measured[c - 1], 0),
        )
