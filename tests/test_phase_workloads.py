"""The phase-heavy workloads: real results, real phase structure."""

import numpy as np
import pytest

from repro.workloads.packet import PacketPipeline
from repro.workloads.suite import available_workloads, make_workload
from repro.workloads.transform import (
    PhasedFFT,
    TwoPassTransform,
    zigzag_order,
)

from oracles.numerics import (
    reference_fft,
    reference_pipeline,
    reference_twopass,
)


class TestPacketPipeline:
    def test_outputs_match_reference(self):
        run = PacketPipeline(batches=2, rounds=2, seed=7).record()
        reference = reference_pipeline(2, 2, 7)
        for name, expected in reference.items():
            assert np.array_equal(run.outputs[name], expected), name

    def test_phase_structure(self):
        run = PacketPipeline(batches=2, rounds=1, seed=0).record()
        assert run.phase_labels() == ["parse", "route", "shape", "emit"]
        assert len(run.phases) == 8  # 4 stages x 2 batches
        # Stages are equal-length sweeps and cover the whole trace.
        lengths = {
            marker.stop - marker.start for marker in run.phases
        }
        assert len(lengths) == 1
        assert run.phases[-1].stop == len(run.trace)

    def test_stage_working_sets_rotate(self):
        run = PacketPipeline(batches=1, rounds=1, seed=0).record()
        active = {
            label: set(run.phase_trace(label).variables())
            for label in run.phase_labels()
        }
        tables = {"flow_tbl", "route_tbl", "stats_tbl", "police_tbl"}
        for label, variables in active.items():
            assert "payload" in variables, label
            assert len(variables & tables) == 3, label
        # Every pair of tables is co-active somewhere (the K4).
        for first in tables:
            for second in tables - {first}:
                assert any(
                    {first, second} <= variables
                    for variables in active.values()
                ), (first, second)

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            PacketPipeline(batches=0)
        with pytest.raises(ValueError, match=">= 1"):
            PacketPipeline(rounds=0)


class TestTwoPassTransform:
    def test_outputs_match_reference(self):
        run = TwoPassTransform(blocks=4, frames=2, seed=3).record()
        reference = reference_twopass(4, 2, 3)
        assert np.array_equal(run.outputs["coeffs"], reference["coeffs"])
        assert np.array_equal(run.outputs["output"], reference["output"])

    def test_zigzag_is_a_permutation(self):
        order = zigzag_order()
        assert sorted(order) == list(range(64))
        assert order[:4] == [0, 1, 8, 16]

    def test_phases_alternate(self):
        run = TwoPassTransform(blocks=2, frames=3, seed=0).record()
        labels = [marker.label for marker in run.phases]
        assert labels == ["transform", "quantize"] * 3

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            TwoPassTransform(blocks=0)


class TestPhasedFFT:
    def test_matches_reference(self):
        run = PhasedFFT(n=128, transforms=2, seed=5).record()
        assert np.array_equal(
            run.outputs["fft_work"], reference_fft(128, 2, 5)
        )

    def test_phase_labels(self):
        run = PhasedFFT(n=64, transforms=1).record()
        assert run.phase_labels() == [
            "bitrev", "stage0", "stage1", "stage2", "stage3", "stage4",
            "stage5",
        ]

    def test_validation(self):
        with pytest.raises(ValueError, match="power of two"):
            PhasedFFT(n=48)
        with pytest.raises(ValueError, match="transforms"):
            PhasedFFT(n=64, transforms=0)


class TestRegistry:
    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("packet", {"batches": 1, "rounds": 1}),
            ("twopass", {"blocks": 2, "frames": 1}),
            ("fft_phased", {"n": 64, "transforms": 1}),
        ],
    )
    def test_new_workloads_registered(self, name, kwargs):
        assert name in available_workloads()
        run = make_workload(name, seed=0, **kwargs).record()
        assert len(run.trace) > 0
        assert run.phases
