"""The column broker: admission, reclamation, re-grant, baselines."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.fleet import (
    ColumnBroker,
    ColumnDemand,
    FleetAdmissionError,
    SharedPool,
    StaticEqualSplit,
    demand_curve,
    demand_curves,
)
from repro.fleet import broker as broker_module
from repro.layout import partition
from repro.layout import session as session_module
from repro.layout.algorithm import LayoutConfig
from repro.layout.partition import split_for_columns
from repro.layout.session import PlannerSession
from repro.mem.address import AddressRange
from repro.mem.layout import MemoryMap
from repro.mem.symbols import Variable
from repro.sim.config import MULTITASK_TIMING, TimingConfig
from repro.sim.engine.batched import LockstepCache
from repro.trace.trace import Trace
from repro.utils.bitvector import ColumnMask
from repro.workloads.base import WorkloadRun
from repro.workloads.suite import make_workload

from oracles import broker as reference


def record(name, **kwargs):
    return make_workload(name, **kwargs).record()


@pytest.fixture(scope="module")
def small_runs():
    return {
        "crc": record("crc32", message_bytes=256, seed=1),
        "hist": record("histogram", sample_count=256, bin_count=32, seed=2),
        "fir": record("fir", signal_length=256, tap_count=16, seed=3),
        "scan": record(
            "scan", buffer_bytes=8192, stride_bytes=16, passes=2, seed=4
        ),
        "gzip": record(
            "gzip", input_bytes=1024, window_bits=10, hash_bits=9, seed=5
        ),
    }


@pytest.fixture
def geometry():
    return CacheGeometry(line_size=16, sets=32, columns=8)


class TestDemandCurve:
    def test_measured_costs_non_increasing(self, small_runs, geometry):
        demand = demand_curve(small_runs["gzip"], geometry)
        assert len(demand.measured_costs) == geometry.columns
        for before, after in zip(
            demand.measured_costs, demand.measured_costs[1:]
        ):
            assert after <= before

    def test_scan_has_flat_measured_curve(self, small_runs, geometry):
        """A pure stream gains nothing from extra columns, so its W is
        never priced."""
        demand = demand_curve(small_runs["scan"], geometry)
        # Essentially all accesses miss regardless of the grant.
        spread = demand.measured_costs[0] - demand.measured_costs[-1]
        assert spread <= demand.measured_costs[0] * 0.02
        assert demand.plan_costs is None
        assert all(
            demand.marginal_benefit(c) == 0
            for c in range(2, geometry.columns + 1)
        )

    def test_hot_table_tenant_values_early_columns(
        self, small_runs, geometry
    ):
        demand = demand_curve(small_runs["crc"], geometry)
        assert demand.marginal_benefit(2) > 0

    def test_marginal_benefit_validates(self, small_runs, geometry):
        demand = demand_curve(small_runs["crc"], geometry)
        with pytest.raises(ValueError):
            demand.marginal_benefit(1)
        with pytest.raises(ValueError):
            demand.cost(0)


def per_candidate_misses(blocks, geometry):
    """One solo simulation per candidate grant size, each against its
    own ``c``-column geometry: the misses at ``c = 1..columns``."""
    return [
        int(
            LockstepCache(
                CacheGeometry(
                    line_size=geometry.line_size,
                    sets=geometry.sets,
                    columns=columns,
                )
            )
            .run(blocks)
            .misses
        )
        for columns in range(1, geometry.columns + 1)
    ]


def per_candidate_demand(run, geometry, profile_accesses=8192):
    """The pre-batching reference: one plan and one solo simulation
    per candidate grant size, each against its own ``c``-column
    geometry; no plan curve where the measured one is flat."""
    session = PlannerSession()
    column_bytes = geometry.sets * geometry.line_size
    units = split_for_columns(run.memory_map.symbols, column_bytes)
    trace = run.trace
    if len(trace) > profile_accesses:
        trace = trace.slice(0, profile_accesses)
    profile = session.profile(trace, units, by_address=True)
    plan_costs = []
    for columns in range(1, geometry.columns + 1):
        config = LayoutConfig(
            columns=columns,
            column_bytes=column_bytes,
            line_size=geometry.line_size,
            split_oversized=False,
        )
        assignment = session.plan_from_profile(config, profile, units)
        plan_costs.append(int(assignment.predicted_cost))
    blocks = trace.addresses >> geometry.offset_bits
    measured = tuple(per_candidate_misses(blocks, geometry))
    return ColumnDemand(
        plan_costs=tuple(plan_costs) if measured[0] > measured[-1] else None,
        measured_costs=measured,
    )


class TestBatchedDemandCurves:
    """One fused kernel batch == one solo simulation per candidate."""

    def test_batch_matches_per_candidate_loop(
        self, small_runs, geometry
    ):
        """All tenants x all candidate grant sizes in one kernel call
        must price identically to simulating every candidate geometry
        by itself."""
        runs = list(small_runs.values())
        batched = demand_curves(
            [(run, None) for run in runs], geometry
        )
        for run, got in zip(runs, batched):
            assert got == per_candidate_demand(run, geometry)
        # Only the scan's curve is flat (1,025 misses at every grant).
        assert [got.plan_costs is None for got in batched] == [
            name == "scan" for name in small_runs
        ]

    def test_batch_seeds_the_session_cache(self, small_runs, geometry):
        """A curve priced in a batch is a pure cache hit afterwards —
        for the singular API and for a repeated batch alike."""
        session = PlannerSession()
        runs = list(small_runs.values())
        batched = demand_curves(
            [(run, None) for run in runs], geometry, session=session
        )
        misses_after_batch = session.cache.misses
        again = demand_curve(runs[0], geometry, session=session)
        assert again == batched[0]
        assert demand_curves(
            [(run, None) for run in runs], geometry, session=session
        ) == batched
        assert session.cache.misses == misses_after_batch

    def test_duplicate_probes_collapse(self, small_runs, geometry):
        """The same workload twice in one batch computes once."""
        session = PlannerSession()
        run = small_runs["crc"]
        first, second = demand_curves(
            [(run, None), (run, None)], geometry, session=session
        )
        assert first == second == per_candidate_demand(run, geometry)

    def test_prime_makes_admissions_cache_hits(
        self, small_runs, geometry
    ):
        """`ColumnBroker.prime` batch-prices prospective tenants so
        the subsequent one-by-one admits recompute nothing."""
        broker = ColumnBroker(geometry, MULTITASK_TIMING)
        runs = {
            "a": small_runs["gzip"],
            "b": small_runs["crc"],
            "c": small_runs["hist"],
        }
        broker.prime(list(runs.values()))
        misses_after_prime = broker.session.cache.misses
        for name, run in runs.items():
            broker.admit(name, run)
        assert broker.session.cache.misses == misses_after_prime
        broker.check_disjoint()
        # The primed curves are the ones admission would have computed.
        for name, run in runs.items():
            assert broker.demands[name] == per_candidate_demand(
                run, geometry
            )


class TestProbeKeys:
    """A probe is keyed by its run trace's digest, its slices clipped
    to the profiled prefix, and its column units' digest; it is priced
    by its window's content."""

    def test_equal_content_at_different_slices_prices_equally(
        self, small_runs, geometry
    ):
        crc = small_runs["crc"]
        length = len(crc.trace)
        twice = WorkloadRun(
            name="crc-twice",
            trace=crc.trace.repeat(2),
            memory_map=crc.memory_map,
        )
        session = PlannerSession()
        first, second = demand_curves(
            [(twice, [(0, length)]), (twice, [(length, 2 * length)])],
            geometry,
            profile_accesses=length,
            session=session,
        )
        assert len(session.cache) == 2  # different keys, both computed
        assert first == second
        assert first == per_candidate_demand(crc, geometry, length)

    def test_equal_windows_share_one_key(self, small_runs, geometry):
        """The prefix, spelt as None, as one slice, or as adjacent and
        empty pieces running past the profiled bound, is one entry."""
        run = small_runs["hist"]
        limit = 300
        assert len(run.trace) > limit + 50
        session = PlannerSession()
        curves = demand_curves(
            [
                (run, None),
                (run, [(0, limit)]),
                (run, [(0, 100), (100, 100), (100, limit + 50)]),
            ],
            geometry,
            profile_accesses=limit,
            session=session,
        )
        assert curves[0] == curves[1] == curves[2]
        assert len(session.cache) == 1

    def test_memo_hit_hashes_splits_and_builds_nothing(
        self, small_runs, geometry, monkeypatch
    ):
        run = small_runs["fir"]
        slices = [(40, 90), (0, 30)]
        session = PlannerSession()
        priced = demand_curve(run, geometry, slices=slices, session=session)

        def forbidden(*args, **kwargs):
            raise AssertionError("work on a memo hit")

        monkeypatch.setattr(session_module.hashlib, "sha256", forbidden)
        monkeypatch.setattr(partition, "split_for_columns", forbidden)
        monkeypatch.setattr(Trace, "slice", forbidden)
        monkeypatch.setattr(broker_module, "solo_misses", forbidden)
        again = demand_curve(run, geometry, slices=slices, session=session)
        assert again == priced

    def test_new_variable_drops_the_units_pin(self, small_runs, geometry):
        """Growing the run's symbol table re-splits it: the key (and
        so the curve's entry) follows the table's content."""
        crc = small_runs["crc"]
        run = WorkloadRun(
            name="crc-copy", trace=crc.trace, memory_map=MemoryMap()
        )
        for variable in crc.memory_map.symbols:
            run.memory_map.symbols.add(variable)
        session = PlannerSession()
        demand_curve(run, geometry, session=session)
        top = max(v.range.end for v in run.memory_map.symbols)
        run.memory_map.symbols.add(Variable("late", AddressRange(top, 64)))
        demand_curve(run, geometry, session=session)
        assert len(session.cache) == 2


class TestColumnBroker:
    def test_admission_grants_disjoint_and_complete(
        self, small_runs, geometry
    ):
        broker = ColumnBroker(geometry, MULTITASK_TIMING)
        broker.admit("a", small_runs["gzip"])
        broker.admit("b", small_runs["crc"])
        broker.admit("c", small_runs["hist"])
        broker.check_disjoint()
        # All columns are always placed: an idle column serves nobody.
        assert broker.free_columns().is_empty()
        assert set(broker.resident) == {"a", "b", "c"}
        for name in ("a", "b", "c"):
            assert not broker.grant_of(name).is_empty()
            assert f"tenant:{name}" in broker.tint_table

    def test_rejection_when_zero_columns_free(self, small_runs):
        geometry = CacheGeometry(line_size=16, sets=32, columns=2)
        broker = ColumnBroker(geometry, MULTITASK_TIMING)
        broker.admit("a", small_runs["crc"])
        broker.admit("b", small_runs["hist"])
        with pytest.raises(FleetAdmissionError):
            broker.admit("c", small_runs["fir"])
        # The failed admission left no residue.
        assert broker.resident == ["a", "b"]
        assert "c" not in broker.demands
        broker.check_disjoint()

    def test_departure_releases_and_regrants(self, small_runs, geometry):
        broker = ColumnBroker(geometry, MULTITASK_TIMING)
        broker.admit("a", small_runs["gzip"])
        broker.admit("b", small_runs["crc"])
        before = broker.grant_of("a").count()
        charges = broker.depart("b")
        assert "b" not in broker.grants
        assert "tenant:b" not in broker.tint_table
        # The survivor absorbed the released columns (and was charged
        # a tint rewrite for the re-grant).
        assert broker.grant_of("a").count() > before
        assert broker.grant_of("a").count() == geometry.columns
        assert charges == {
            "a": MULTITASK_TIMING.remap_tint_cycles
        }
        broker.check_disjoint()

    def test_priority_weighted_allocation(self, small_runs, geometry):
        """Two tenants with the same demand: priority decides."""
        broker = ColumnBroker(geometry, MULTITASK_TIMING)
        broker.admit("low", small_runs["gzip"], priority=1)
        broker.admit("high", small_runs["gzip"], priority=3)
        assert (
            broker.grant_of("high").count()
            >= broker.grant_of("low").count()
        )

    def test_arrival_reclaims_from_low_value_tenant(
        self, small_runs, geometry
    ):
        """A demanding newcomer pulls columns out of a scan's grant."""
        broker = ColumnBroker(geometry, MULTITASK_TIMING)
        broker.admit("stream", small_runs["scan"], priority=1)
        assert broker.grant_of("stream").count() == geometry.columns
        broker.admit("hot", small_runs["gzip"], priority=2)
        broker.check_disjoint()
        assert broker.grant_of("hot").count() > broker.grant_of(
            "stream"
        ).count()

    def test_refresh_with_hysteresis_keeps_allocation(
        self, small_runs, geometry
    ):
        broker = ColumnBroker(
            geometry, MULTITASK_TIMING, min_benefit_cycles=10**9
        )
        broker.admit("a", small_runs["gzip"])
        broker.admit("b", small_runs["crc"])
        grants_before = dict(broker.grants)
        charges = broker.refresh(
            "a", small_runs["gzip"], [(0, len(small_runs["gzip"].trace))]
        )
        assert charges == {}
        assert broker.grants == grants_before

    def test_refresh_then_admit_keeps_disjoint(
        self, small_runs, geometry
    ):
        """An arrival right after an in-flight repartition composes."""
        broker = ColumnBroker(geometry, MULTITASK_TIMING)
        broker.admit("a", small_runs["gzip"])
        broker.admit("b", small_runs["crc"])
        broker.refresh("a", small_runs["gzip"], [(0, 512), (512, 2048)])
        broker.admit("c", small_runs["hist"])
        broker.check_disjoint()
        assert broker.free_columns().is_empty()

    def test_duplicate_admission_rejected(self, small_runs, geometry):
        broker = ColumnBroker(geometry, MULTITASK_TIMING)
        broker.admit("a", small_runs["crc"])
        with pytest.raises(ValueError):
            broker.admit("a", small_runs["crc"])

    def test_depart_unknown_raises(self, geometry):
        broker = ColumnBroker(geometry, MULTITASK_TIMING)
        with pytest.raises(KeyError):
            broker.depart("ghost")

    def test_rewrite_log_records_reasons(self, small_runs, geometry):
        broker = ColumnBroker(geometry, MULTITASK_TIMING)
        broker.admit("a", small_runs["gzip"])
        broker.admit("b", small_runs["crc"])
        broker.depart("a")
        reasons = {rewrite.reason for rewrite in broker.rewrites}
        assert "arrival" in reasons
        assert "departure" in reasons


class TestBaselines:
    def test_shared_pool_full_mask(self, small_runs, geometry):
        pool = SharedPool(geometry, MULTITASK_TIMING, max_tenants=2)
        pool.admit("a", small_runs["crc"])
        pool.admit("b", small_runs["hist"])
        full = ColumnMask.all_columns(geometry.columns)
        assert pool.grants["a"] == full
        assert pool.grants["b"] == full
        with pytest.raises(FleetAdmissionError):
            pool.admit("c", small_runs["fir"])
        pool.depart("a")
        pool.admit("c", small_runs["fir"])
        assert pool.resident == ["b", "c"]

    def test_static_equal_split_slots(self, small_runs, geometry):
        split = StaticEqualSplit(geometry, MULTITASK_TIMING, slots=4)
        split.admit("a", small_runs["crc"])
        split.admit("b", small_runs["hist"])
        assert split.grants["a"].count() == geometry.columns // 4
        assert not split.grants["a"].overlaps(split.grants["b"])
        # Slots are stable: refresh never moves a static partition.
        before = split.grants["a"]
        split.refresh("a", small_runs["crc"], [(0, 64)])
        assert split.grants["a"] == before
        # Departing frees the slot for the next arrival.
        split.depart("a")
        split.admit("c", small_runs["fir"])
        assert split.grants["c"] == before

    def test_static_equal_split_rejects_when_full(
        self, small_runs, geometry
    ):
        split = StaticEqualSplit(geometry, MULTITASK_TIMING, slots=2)
        split.admit("a", small_runs["crc"])
        split.admit("b", small_runs["hist"])
        with pytest.raises(FleetAdmissionError):
            split.admit("c", small_runs["fir"])


def broker_state(width, demands, priorities, owners=(), miss_penalty=20):
    """A broker whose residents hold ``demands`` and ``priorities``, in
    admission order, and whose column ``c`` is granted to resident
    ``owners[c]`` (-1 or absent: free; a resident owning none has
    just arrived)."""
    broker = ColumnBroker(
        CacheGeometry(line_size=16, sets=4, columns=width),
        TimingConfig(miss_penalty=miss_penalty),
    )
    for index, (demand, priority) in enumerate(zip(demands, priorities)):
        name = f"t{index}"
        broker._order.append(name)
        broker.demands[name] = demand
        broker.priorities[name] = priority
        bits = sum(1 << c for c, owner in enumerate(owners) if owner == index)
        if bits:
            broker.grants[name] = ColumnMask(bits, width)
    return broker


@st.composite
def demand_of(draw, width):
    """A curve over ``width`` grant sizes: flat with no W, or falling
    (some steps may be 0) with a W that falls anywhere or stays flat."""
    kind = draw(st.sampled_from(["flat", "falling", "falling, flat W"]))
    top = draw(st.integers(0, 500))
    if kind == "flat":
        return ColumnDemand(None, (top,) * width)
    steps = draw(
        st.lists(st.integers(0, 40), min_size=width - 1, max_size=width - 1)
    )
    measured = tuple(top + sum(steps[i:]) for i in range(width))
    if kind == "falling":
        plan = tuple(
            draw(st.lists(st.integers(0, 500), min_size=width, max_size=width))
        )
    else:
        plan = (draw(st.integers(0, 500)),) * width
    return ColumnDemand(plan, measured)


@st.composite
def allocator_states(draw):
    """Widths 1-63, 1..width residents of priority 1-4, and random
    disjoint current grants, some residents holding none."""
    width = draw(st.sampled_from([1, 2, 3, 4, 8, 16, 63]) | st.integers(1, 63))
    count = draw(st.integers(1, width))
    owners = draw(
        st.lists(st.integers(-1, count - 1), min_size=width, max_size=width)
    )
    return broker_state(
        width,
        [draw(demand_of(width)) for _ in range(count)],
        draw(st.lists(st.integers(1, 4), min_size=count, max_size=count)),
        owners,
        draw(st.sampled_from([0, 1, 20])),
    )


class TestAllocatorReference:
    """The waterfill over benefits priced once, on grant bits, against
    the column-by-column allocator in ``tests/oracles/broker.py``."""

    def assert_matches(self, broker):
        for demand in broker.demands.values():
            for c in range(2, broker.geometry.columns + 1):
                assert demand.marginal_benefit(c) == (
                    reference.marginal_benefit(demand, c)
                ), c
        counts = reference.target_counts(broker)
        assert broker._target_counts() == list(counts.values())
        expected = reference.assign_columns(broker, counts)
        broker._rebalance("arrival", force=True)
        assert broker.grants == expected
        broker.check_disjoint()

    @given(broker=allocator_states())
    def test_grants_and_benefits_match(self, broker):
        self.assert_matches(broker)

    def test_tie_in_gain_and_priority_goes_to_the_earlier_arrival(self):
        demand = ColumnDemand((9, 4, 2), (9, 5, 3))
        broker = broker_state(3, [demand, demand], [2, 2], owners=[1])
        self.assert_matches(broker)
        assert broker._target_counts() == [2, 1]
        # t1 keeps column 0; the arrival takes the lowest free ones.
        assert broker.grants["t0"] == ColumnMask.of(1, 2, width=3)

    def test_zero_miss_penalty_leaves_priority_then_arrival(self):
        falling = ColumnDemand((50, 20, 10, 5, 1, 0), (60, 30, 9, 4, 2, 0))
        broker = broker_state(
            6, [falling] * 3, [1, 3, 3], owners=[0, 0, 2], miss_penalty=0
        )
        self.assert_matches(broker)
        assert broker._target_counts() == [1, 4, 1]
