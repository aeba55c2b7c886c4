import hashlib

import pytest

from edgelinker import channel
from edgelinker.bench import CSV_COLUMNS
from edgelinker.chain import GenesisConfig, make_genesis
from edgelinker.channel import generate_keypair


def tseed(label) -> bytes:
    return hashlib.sha256(f"test-seed:{label}".encode()).digest()


def kp(label):
    return generate_keypair(tseed(label))


def load_csv(path) -> list:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, line.strip().split(","))) for line in fh if line.strip()]


def non_timing_columns(rows) -> list:
    """Rows restricted to deterministic columns (measured_ prefix stripped out)."""
    keep = [c for c in CSV_COLUMNS if not c.startswith("measured_")]
    return [{c: row[c] for c in keep} for row in rows]


@pytest.fixture(autouse=True)
def no_verdict_left_behind():
    """Every test takes or drops each verdict it hands to `verify_digest`, so none reaches the next test."""
    yield
    left = len(channel._handed)
    channel.drop_verdicts()
    assert not left, f"{left} handed verdicts outlived the test"


@pytest.fixture
def keys():
    return [kp(i) for i in range(8)]


@pytest.fixture
def genesis_one(keys):
    """Single-authority genesis with a well-funded client account."""
    cfg = GenesisConfig(
        authorities=[keys[0].public_key],
        initial_balances={keys[1].public_key: 10**12, keys[2].public_key: 10**12},
        block_interval_ms=1000,
    )
    return cfg, make_genesis(cfg)
