"""A staged packet-processing pipeline — the phase-heavy stress case.

Network data planes run in *stages*: parse a batch, route it, shape
it, emit it.  Each stage cycles over its own per-flow tables while the
packet payload *streams* through untouched-again — the classic
pattern a software-controlled cache exploits: confine the stream to
one column and the reused tables hit forever, where LRU on a standard
cache lets the stream's always-recent lines evict every table line
between revisits.

The four tables rotate three-at-a-time through the stages, so every
pair of tables is co-active (interleaved) in some stage: the union
conflict graph is a K4 over the tables, *plus* the stream needs a
column of its own in every stage — five columns' worth of isolation
demanded from a four-column cache.  No single static assignment
avoids a thrashing pair, while each individual stage four-colors
perfectly (three tables + the stream).  That is the gap the
phase-adaptive runtime closes.

Data (defaults; tables are one 512-byte column each):

==============  =======  ==========================================
array           bytes    role
==============  =======  ==========================================
``flow_tbl``    512      per-flow connection state
``route_tbl``   512      next-hop table
``stats_tbl``   512      per-route counters
``police_tbl``  512      traffic-shaping token buckets
``payload``     2048     packet bytes, streamed once per sweep
==============  =======  ==========================================

Stage working sets: parse {flow, route, stats}, route {flow, route,
police}, shape {flow, stats, police}, emit {route, stats, police} —
plus ``payload`` everywhere.

The computation is real: a toy checksum/state pipeline whose final
table contents the tests recompute untraced and verify.
"""

from __future__ import annotations

from repro.workloads.base import Workload

#: Elements per 512-byte table (2-byte elements).
SLOTS = 256
#: Elements in the streamed payload ring (2 KB).
PAYLOAD_ELEMENTS = 1024
#: Payload elements consumed per flow slot (one full ring per sweep).
PAYLOAD_PER_SLOT = PAYLOAD_ELEMENTS // SLOTS

#: Stage name -> (read table, read table, accumulate table).
STAGES: tuple[tuple[str, tuple[str, str, str]], ...] = (
    ("parse", ("flow_tbl", "route_tbl", "stats_tbl")),
    ("route", ("flow_tbl", "route_tbl", "police_tbl")),
    ("shape", ("flow_tbl", "stats_tbl", "police_tbl")),
    ("emit", ("route_tbl", "stats_tbl", "police_tbl")),
)


class PacketPipeline(Workload):
    """Parse -> route -> shape -> emit over batches of packets.

    Args:
        batches: Full pipeline rounds (each runs all four stages).
        rounds: Sweeps over the flow slots per stage.
        seed: Input randomization seed.
    """

    def __init__(
        self, batches: int = 2, rounds: int = 4, seed: int = 0, **kwargs
    ):
        super().__init__(name="packet_pipeline", seed=seed, **kwargs)
        if batches < 1 or rounds < 1:
            raise ValueError("batches and rounds must be >= 1")
        self.batches = batches
        self.rounds = rounds
        self.tables = {
            "flow_tbl": self.array(
                "flow_tbl",
                SLOTS,
                initial=self.rng.integers(0, 1 << 14, SLOTS),
            ),
            "route_tbl": self.array(
                "route_tbl",
                SLOTS,
                initial=self.rng.integers(0, 1 << 14, SLOTS),
            ),
            "stats_tbl": self.array("stats_tbl", SLOTS),
            "police_tbl": self.array("police_tbl", SLOTS),
        }
        self.payload = self.array(
            "payload",
            PAYLOAD_ELEMENTS,
            initial=self.rng.integers(0, 256, PAYLOAD_ELEMENTS),
        )

    def _stage(self, first: str, second: str, accumulate: str) -> None:
        """One stage: sweep the slots ``rounds`` times.

        Per slot: stream the slot's payload chunk (checksum), read two
        tables, fold the result into the third.
        """
        tables = self.tables
        for _ in range(self.rounds):
            for slot in range(SLOTS):
                self.work(1)  # header pointer arithmetic
                checksum = 0
                base = slot * PAYLOAD_PER_SLOT
                for offset in range(PAYLOAD_PER_SLOT):
                    checksum += self.payload[base + offset]
                self.work(1)  # table index computation
                left = tables[first][slot]
                right = tables[second][slot]
                current = tables[accumulate][slot]
                tables[accumulate][slot] = (
                    current + left + right + checksum
                ) & 0x3FFF

    def run(self) -> None:
        for _ in range(self.batches):
            for label, (first, second, accumulate) in STAGES:
                self.begin_phase(label)
                self._stage(first, second, accumulate)
                self.end_phase()
        for name, table in self.tables.items():
            self.outputs[name] = table.snapshot()

