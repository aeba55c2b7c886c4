"""Pinned outcomes of three seeded runs.

The values were recorded before the ledger records became immutable and
started caching their bytes and hashes. A change to how records are built,
encoded or hashed must leave every one of them as it is: the tip hash, the
world digest, the digest of the full event trace and the alert count.
"""

import hashlib
from dataclasses import replace

import pytest

from edgelinker.bench import default_attack_config
from edgelinker.sim import ScenarioConfig, run_scenario


def _lifecycle():
    return run_scenario(ScenarioConfig(), 42)


def _write_cell():
    return run_scenario(ScenarioConfig(nodes=20, workload="write", tasks=500, block_interval_ms=500), 42)


def _insertion_drill():
    cfg = replace(default_attack_config(), attack="insertion", stop_on_done=False, duration_s=45.0)
    return run_scenario(cfg, 7)


GOLDEN = {
    "lifecycle_seed42": (
        _lifecycle,
        "0bc54e46b3ab5439f773761adfdade28c8128e8a1f530f092f1b6dd0438ffce4",
        "ca9d846779cd19008f7ef906b445385eaac4c015779a9410d8f6a7f78c23eb2b",
        "c4a9492b218c6478564e39c02bed6f0fbe2d507c4f49ca936ce1c6db33ae41bb",
        0,
    ),
    "write_n20_t500_seed42": (
        _write_cell,
        "339814ae3d20d8a5799b6725c63c798455d1f0bfece24a62e9e03c5feb683f7f",
        "e213827b5efbf314dee651a420751ae8da344b6dcd2cb42cff6b13729ed9a024",
        "e8938f38db16ff931c4ee0faff202a10a6e4329e94fdf955c36d8ffd2e71b112",
        0,
    ),
    "insertion_drill_seed7": (
        _insertion_drill,
        "d19fc21dbe5ab7c0c3afc9602cd65ba4cabc1e4876337a1d775144bcc6ca9dc9",
        "424e71cea27259ee2bb9d9cbb0677ac43eb6e59c8d7714636c35a17394593f8e",
        "18ca1b6022db2b2495113145b9f9d279d0305328d5cde894ff62c7c3c9fd9dea",
        20,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seeded_run_matches_golden(name):
    run, tip, world, trace_digest, alerts = GOLDEN[name]
    trace = run()
    honest = trace.meta["honest"]
    assert {trace.final[n].tip_hash.hex() for n in honest} == {tip}
    assert {trace.final[n].world.digest().hex() for n in honest} == {world}
    assert hashlib.sha256(trace.jsonl().encode()).hexdigest() == trace_digest
    assert sum(len(f.alerts) for f in trace.final.values()) == alerts
