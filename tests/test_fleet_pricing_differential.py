"""Demand pricing against its references, served.

The broker prices a probe's plan curve ``W(1..columns)`` with one
:func:`~repro.layout.merge.merge_ladder` pass, and its measured curve
from one full-width lockstep pass's LRU stack depths
(:func:`~repro.fleet.broker.solo_misses`).  Swapping either for its
reference — the paper's merge loop run once per grant size
(:func:`oracles.merge.color_with_merging_reference`), or one masked
row bank per grant size
(:func:`oracles.pricing.bank_batch_solo_misses`) — must change nothing
a serve population shows: every demand curve priced, every broker's
final demands, tickets, migrations, audits, tenant telemetry,
``fleet top`` frames and the flushed event streams.
"""

import numpy as np
import pytest

from repro.fleet import broker as broker_module
from repro.fleet.service import FleetService
from repro.layout import algorithm
from repro.layout.coloring import DEFAULT_NODE_BUDGET

from oracles.merge import color_with_merging_reference
from oracles.pricing import bank_batch_solo_misses
from test_service_clock import final_state, serve, tiny_load


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
    load, frame_interval, path, monkeypatch, ladder=None, misses=None
):
    """Serve ``load``; returns its whole state and event streams."""
    priced = []
    phase_probes = []
    price = broker_module.demand_curves

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
