"""Workload shapes: who sends what, how often, to how many nodes.

Pure data, so the driver can validate a workload name without importing the
program. Every workload is open loop in simulated time: each task is due at
a fixed point of a schedule, whatever happened to the tasks before it.

Each workload carries both task kinds, so every end-to-end metric is defined
on every workload. The kind a workload is not about runs as a low-rate probe
against a second, small record, so it does not change the shape of the main
record the load works on.
"""

from __future__ import annotations

from dataclasses import dataclass

MAIN = 0  # the record the load works on
SIDE = 1  # a small record that only probes touch

SEED_READINGS = 5  # readings the owner stores in each record before the load


@dataclass(frozen=True)
class Stream:
    """One open-loop task stream: `count` tasks of one kind at `rate_hz`."""

    kind: str  # "write" | "read"
    record: int  # MAIN | SIDE
    count: int
    rate_hz: float  # tasks per simulated second
    devices: int  # devices the stream's tasks rotate over
    phase: float = 0.0  # offset of the first task, as a share of the period


@dataclass(frozen=True)
class Shape:
    nodes: int
    crashed: int
    block_interval_ms: int
    streams: tuple
    # A crash workload must hit the crashed proposer's turn while writes are
    # outstanding, or its tail latency would not show the round change.
    expect_round_change: bool = False

    def scaled(self, share: float) -> "Shape":
        """The same rates over a shorter load, for quick checks of the benchmark."""
        streams = tuple(
            Stream(s.kind, s.record, max(1, int(s.count * share)), s.rate_hz, s.devices, s.phase)
            for s in self.streams
        )
        return Shape(self.nodes, self.crashed, self.block_interval_ms, streams, False)


SHAPES = {
    # 20 authorities, the last one crashed. Writes arrive at 400/s against a
    # capacity of 500 txs per 250 ms block; the load runs past height 19,
    # the crashed node's first turn to propose.
    "write_n20_crash": Shape(
        nodes=20,
        crashed=1,
        block_interval_ms=250,
        streams=(
            Stream("write", MAIN, count=2200, rate_hz=400.0, devices=20),
            Stream("read", SIDE, count=110, rate_hz=20.0, devices=2, phase=0.5),
        ),
        expect_round_change=True,
    ),
    # 4 nodes serve 2000 reads/s round-robin, half their combined service
    # rate of 4000/s (one query per 1000 us per node).
    "read_n4": Shape(
        nodes=4,
        crashed=0,
        block_interval_ms=500,
        streams=(
            Stream("read", MAIN, count=3000, rate_hz=2000.0, devices=8),
            Stream("write", SIDE, count=30, rate_hz=20.0, devices=2, phase=0.5),
        ),
    ),
    # 8 nodes; writes and reads interleave at the same rate on one record,
    # so read replies grow to hundreds of readings as writes finalize.
    "mixed_n8": Shape(
        nodes=8,
        crashed=0,
        block_interval_ms=500,
        streams=(
            Stream("write", MAIN, count=1200, rate_hz=300.0, devices=8),
            Stream("read", MAIN, count=1200, rate_hz=300.0, devices=8, phase=0.5),
        ),
    ),
}
