"""Sweep engine tests: specs, hashing, scheduling, result caching."""

import json

import pytest

from repro.cache.geometry import CacheGeometry
from repro.sim.engine.cache import MISS, ResultCache
from repro.sim.engine.scheduler import SweepEngine
from repro.sim.engine.spec import (
    SimJob,
    SweepSpec,
    canonical_json,
    resolve_runner,
    runner_path,
)
from repro.trace import generator
from repro.trace.dinero import save_trace

from oracles.column_cache import reference_streams

TRACE_SIM = "repro.experiments.runners:trace_sim"


class TestSpec:
    def test_sweep_enumerates_cartesian_product(self):
        spec = SweepSpec(
            name="demo",
            runner=TRACE_SIM,
            base={"kind": "zipf", "count": 100},
            axes={"columns": [2, 4], "total_bytes": [1024, 2048]},
        )
        jobs = spec.jobs()
        assert len(jobs) == len(spec) == 4
        assert [job.params["columns"] for job in jobs] == [2, 2, 4, 4]
        assert [job.params["total_bytes"] for job in jobs] == [
            1024, 2048, 1024, 2048,
        ]
        assert all(job.params["kind"] == "zipf" for job in jobs)
        assert jobs[0].label == "demo[columns=2,total_bytes=1024]"

    def test_axes_cannot_shadow_base(self):
        with pytest.raises(ValueError, match="also appear in base"):
            SweepSpec(
                name="bad",
                runner=TRACE_SIM,
                base={"count": 1},
                axes={"count": [1, 2]},
            )

    def test_content_hash_stable_and_sensitive(self):
        job = SimJob(runner=TRACE_SIM, params={"count": 10, "kind": "zipf"})
        same = SimJob(runner=TRACE_SIM, params={"kind": "zipf", "count": 10})
        different = SimJob(
            runner=TRACE_SIM, params={"kind": "zipf", "count": 11}
        )
        assert job.content_hash() == same.content_hash()
        assert job.content_hash() != different.content_hash()

    def test_hash_ignores_label_and_tuple_list_spelling(self):
        first = SimJob(
            runner=TRACE_SIM, params={"quanta": (1, 2)}, label="a"
        )
        second = SimJob(
            runner=TRACE_SIM, params={"quanta": [1, 2]}, label="b"
        )
        assert first.content_hash() == second.content_hash()

    def test_non_serializable_params_rejected(self):
        job = SimJob(runner=TRACE_SIM, params={"bad": object()})
        with pytest.raises(TypeError, match="not"):
            job.content_hash()

    def test_runner_path_and_resolution(self):
        assert runner_path(TRACE_SIM) == TRACE_SIM
        resolved = resolve_runner(TRACE_SIM)
        assert callable(resolved)
        assert runner_path(resolved) == TRACE_SIM
        with pytest.raises(ValueError, match="module"):
            runner_path("no-colon-here")

    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": (2, 3)}) == (
            '{"a":[2,3],"b":1}'
        )


class TestEngineExecution:
    def test_serial_runs_jobs_in_order(self):
        calls = []

        def runner(value):
            calls.append(value)
            return value * 2

        engine = SweepEngine(workers=1, backend="serial")
        jobs = [
            SimJob(runner=runner, params={"value": index})
            for index in range(4)
        ]
        outcomes = engine.run(jobs)
        assert [outcome.value for outcome in outcomes] == [0, 2, 4, 6]
        assert calls == [0, 1, 2, 3]
        assert all(not outcome.cached for outcome in outcomes)

    def test_process_backend_matches_serial(self):
        spec = SweepSpec(
            name="zipf",
            runner=TRACE_SIM,
            base={"kind": "zipf", "count": 400},
            axes={"columns": [2, 4]},
        )
        serial = SweepEngine(workers=1, backend="serial").values(spec)
        pooled = SweepEngine(workers=2, backend="process").values(spec)
        assert serial == pooled

    @pytest.mark.parametrize("source", [*generator.KINDS, ".npz", ".din"])
    def test_trace_sim_matches_reference(self, tmp_path, source):
        """Every kind the runner draws, its trace parameters passed
        through, and a ``trace_path`` (an archive, memory-mapped, or
        dinero text) replay to the reference counts."""
        kind = source if source in generator.KINDS else "zipf"
        drawn = {
            "base": 0x8004, "span": 2048, "element_size": 4, "seed": 9
        }
        trace = generator.generate(kind, 1500, **drawn)
        if source in generator.KINDS:
            params = {"kind": kind, "count": 1500, **drawn}
        else:
            path = tmp_path / f"trace{source}"
            if source == ".npz":
                trace.save_npz(path)
            else:
                save_trace(trace, path)
            params = {"trace_path": str(path)}
        fast = SweepEngine(workers=1, backend="serial").values(
            [SimJob(runner=TRACE_SIM, params={**params, "columns": 2})]
        )[0]
        geometry = CacheGeometry.from_sizes(16384, line_size=16, columns=2)
        hits, bypasses, _ = reference_streams(
            geometry, trace.blocks_for(geometry.offset_bits)
        )
        assert fast == {
            "accesses": len(trace),
            "hits": int(hits.sum()),
            "misses": len(trace) - int(hits.sum()),
            "bypasses": int(bypasses.sum()),
        }

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            SweepEngine(backend="gpu")


class TestResultCaching:
    def test_second_run_served_from_memory_cache(self):
        executions = []

        def runner(value):
            executions.append(value)
            return value + 1

        engine = SweepEngine(workers=1, backend="serial")
        jobs = [SimJob(runner=runner, params={"value": 7})]
        first = engine.run(jobs)
        second = engine.run(jobs)
        assert executions == [7]  # ran exactly once
        assert not first[0].cached and second[0].cached
        assert first[0].value == second[0].value == 8
        assert engine.stats["executed"] == 1
        assert engine.stats["from_cache"] == 1

    def test_disk_cache_survives_engine_restart(self, tmp_path):
        spec = SweepSpec(
            name="zipf",
            runner=TRACE_SIM,
            base={"kind": "zipf", "count": 300},
            axes={"columns": [2, 4]},
        )
        first_engine = SweepEngine(
            workers=1, backend="serial", cache_dir=tmp_path
        )
        first = first_engine.values(spec)
        assert first_engine.stats["executed"] == 2

        second_engine = SweepEngine(
            workers=1, backend="serial", cache_dir=tmp_path
        )
        outcomes = second_engine.run(spec)
        assert [outcome.value for outcome in outcomes] == first
        assert all(outcome.cached for outcome in outcomes)
        assert second_engine.stats["executed"] == 0

    def test_extending_an_axis_only_runs_new_points(self, tmp_path):
        engine = SweepEngine(workers=1, backend="serial", cache_dir=tmp_path)
        narrow = SweepSpec(
            name="zipf",
            runner=TRACE_SIM,
            base={"kind": "zipf", "count": 300},
            axes={"columns": [2]},
        )
        wide = SweepSpec(
            name="zipf",
            runner=TRACE_SIM,
            base={"kind": "zipf", "count": 300},
            axes={"columns": [2, 4]},
        )
        engine.run(narrow)
        outcomes = engine.run(wide)
        assert [outcome.cached for outcome in outcomes] == [True, False]

    def test_cache_files_are_self_describing(self, tmp_path):
        engine = SweepEngine(workers=1, backend="serial", cache_dir=tmp_path)
        job = SimJob(
            runner=TRACE_SIM,
            params={"kind": "zipf", "count": 200},
            label="demo-job",
        )
        engine.run([job])
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert payload["runner"] == TRACE_SIM
        assert payload["params"]["count"] == 200
        assert payload["value"]["accesses"] == 200

    def test_corrupt_cache_file_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = SimJob(runner=TRACE_SIM, params={"count": 1})
        digest = job.content_hash()
        (tmp_path / f"{digest}.json").write_text("{not json")
        assert cache.get(digest) is MISS

    def test_valid_json_without_value_key_is_miss(self, tmp_path):
        """Regression: a parseable file with the wrong shape used to
        count as a hit returning None, and pinned that None in the
        memory tier."""
        cache = ResultCache(tmp_path)
        job = SimJob(runner=TRACE_SIM, params={"count": 2})
        digest = job.content_hash()
        path = tmp_path / f"{digest}.json"
        path.write_text('{"runner": "x", "params": {}}')
        assert cache.get(digest) is MISS
        # Not pinned: a repeat lookup is still a miss, not a None hit.
        assert cache.get(digest) is MISS
        assert cache.hits == 0 and cache.misses == 2
        # The bad file is quarantined so the slot can be recomputed.
        assert not path.exists()
        assert path.with_suffix(".json.corrupt").exists()
        value = cache.put(digest, job, {"accesses": 2})
        assert cache.get(digest) == value

    def test_wrong_shape_payloads_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        for payload in ('["list"]', '"text"', "{bad json"):
            job = SimJob(runner=TRACE_SIM, params={"p": payload})
            digest = job.content_hash()
            path = tmp_path / f"{digest}.json"
            path.write_text(payload)
            assert cache.get(digest) is MISS
            assert not path.exists()
            assert path.with_suffix(".json.corrupt").exists()

    def test_stale_temp_files_swept_on_open(self, tmp_path):
        """Regression: a writer killed between mkstemp and os.replace
        leaked ``*.tmp`` files into the cache directory forever."""
        first = ResultCache(tmp_path)
        job = SimJob(runner=TRACE_SIM, params={"count": 3})
        digest = job.content_hash()
        first.put(digest, job, {"accesses": 3})
        (tmp_path / "deadbeef.tmp").write_text("partial write")
        (tmp_path / "cafe.tmp").write_text("")
        reopened = ResultCache(tmp_path)
        assert list(tmp_path.glob("*.tmp")) == []
        # Real cache contents survive the sweep.
        assert reopened.get(digest) == {"accesses": 3}
