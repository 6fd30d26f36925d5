"""Properties of the tenant-hash router and shard-fleet invariants.

Two families, both hypothesis-driven:

* **Routing stability** — rendezvous hashing's defining property:
  changing the shard count re-routes exactly the tenants whose route
  involves the added/removed shard; everyone else stays put.  Pins
  (live migration) overlay the hash.
* **Disjoint columns under churn** — an arbitrary interleaving of
  admissions (router-placed), departures, migrations and serving
  segments across a two-shard fleet never leaves a cache column
  granted to two tenants on any shard.
"""

import functools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.fleet import FleetConfig, TenantSpec
from repro.fleet.service import ShardServer, TenantHashRouter, shard_score
from repro.sim.config import MULTITASK_TIMING
from repro.workloads.suite import make_workload

TENANTS = st.lists(
    st.text(min_size=1, max_size=16),
    unique=True,
    min_size=1,
    max_size=40,
)


class TestRendezvousStability:
    @given(tenants=TENANTS, shards=st.integers(1, 8))
    def test_growing_moves_only_tenants_onto_the_new_shard(
        self, tenants, shards
    ):
        small = TenantHashRouter(shards)
        big = TenantHashRouter(shards + 1)
        for tenant in tenants:
            before = small.rendezvous(tenant)
            after = big.rendezvous(tenant)
            if after != before:
                assert after == shards  # moved onto the added shard

    @given(tenants=TENANTS, shards=st.integers(2, 8))
    def test_shrinking_moves_only_the_removed_shards_tenants(
        self, tenants, shards
    ):
        big = TenantHashRouter(shards)
        small = TenantHashRouter(shards - 1)
        for tenant in tenants:
            before = big.rendezvous(tenant)
            after = small.rendezvous(tenant)
            if before != shards - 1:
                assert after == before  # survivors stay put

    @given(tenants=TENANTS, shards=st.integers(1, 8))
    def test_route_is_the_argmax_of_shard_score(self, tenants, shards):
        router = TenantHashRouter(shards)
        for tenant in tenants:
            routed = router.route(tenant)
            best = max(
                range(shards),
                key=lambda shard: shard_score(tenant, shard),
            )
            assert routed == best

    @given(tenant=st.text(min_size=1, max_size=16))
    def test_route_is_deterministic_across_instances(self, tenant):
        assert TenantHashRouter(5).route(tenant) == TenantHashRouter(
            5
        ).route(tenant)


class TestPins:
    @given(
        tenants=TENANTS,
        shards=st.integers(2, 6),
        data=st.data(),
    )
    def test_pin_overrides_and_unpin_restores(
        self, tenants, shards, data
    ):
        router = TenantHashRouter(shards)
        for tenant in tenants:
            hashed = router.route(tenant)
            target = data.draw(
                st.integers(0, shards - 1), label="pin target"
            )
            router.pin(tenant, target)
            assert router.route(tenant) == target
            router.unpin(tenant)
            assert router.route(tenant) == hashed


# ----------------------------------------------------------------------
# Fleet churn: disjoint columns on every shard after every operation.
# ----------------------------------------------------------------------

TIMING = MULTITASK_TIMING
CONFIG = FleetConfig(quantum_instructions=64, window_instructions=512)


@functools.lru_cache(maxsize=None)
def _run_pool():
    return (
        make_workload("crc32", seed=11, message_bytes=128).record(),
        make_workload(
            "histogram", seed=12, sample_count=128, bin_count=16
        ).record(),
        make_workload(
            "fir", seed=13, signal_length=128, tap_count=8
        ).record(),
    )


OPS = st.lists(
    st.tuples(
        st.sampled_from(["admit", "depart", "migrate", "advance"]),
        st.integers(0, 31),
    ),
    max_size=30,
)


@settings(max_examples=25, deadline=None)
@given(ops=OPS)
# tenant-0000 migrates from its hash home, shard 1, to shard 0 and is
# pinned there; its second migration bounces back from a full shard 1.
# The daemon keeps the pin, so the router still finds it on shard 0.
@example(
    ops=[
        ("admit", 8), ("admit", 4), ("admit", 16), ("admit", 7),
        ("admit", 31), ("admit", 28), ("migrate", 30), ("admit", 24),
        ("admit", 13), ("admit", 6), ("admit", 31), ("admit", 1),
        ("migrate", 24),
    ]
)
def test_disjoint_columns_survive_arbitrary_churn(ops):
    geometry = CacheGeometry(line_size=16, sets=32, columns=4)
    router = TenantHashRouter(2)
    shards = [
        ShardServer(index, geometry, TIMING, CONFIG)
        for index in range(2)
    ]
    pool = _run_pool()
    homes: dict[str, int] = {}
    counter = 0

    for action, arg in ops:
        if action == "admit":
            name = f"tenant-{counter:04d}"
            spec = TenantSpec(
                name=name,
                run=pool[arg % len(pool)],
                priority=1 + arg % 3,
                address_offset=counter << 32,
            )
            counter += 1
            home = router.route(name)
            if shards[home].admit(spec):
                homes[name] = home
        elif action == "depart" and homes:
            name = sorted(homes)[arg % len(homes)]
            shards[homes.pop(name)].depart(name)
            router.unpin(name)
        elif action == "migrate" and homes:
            name = sorted(homes)[arg % len(homes)]
            source = homes[name]
            target = 1 - source
            migrant = shards[source].extract(name)
            if shards[target].inject(migrant):
                router.pin(name, target)
                homes[name] = target
            elif not shards[source].inject(migrant):
                # No shard can take it back.  As in the daemon's
                # FleetService._maybe_migrate, only then is it
                # unpinned: a bounce-back keeps any pin, since the
                # source may be a pinned shard, not the hash home.
                del homes[name]
                router.unpin(name)
        else:
            for shard in shards:
                shard.advance()

        for shard in shards:
            shard.broker.check_disjoint()  # raises on violation
        granted = {
            name
            for shard in shards
            for name in shard.broker.grants
        }
        assert granted == set(homes)
        # The router always knows where every resident lives: the
        # hash route for tenants it placed, the pin for migrants.
        for name, home in homes.items():
            assert router.route(name) == home
