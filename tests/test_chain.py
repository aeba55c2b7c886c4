import hashlib
import random
from dataclasses import replace

import pytest

from edgelinker.chain import (
    Block,
    Chain,
    GenesisConfig,
    NotAuthority,
    Transfer,
    Violation,
    build_block,
    compute_tx_root,
    hash_block,
    hash_tx,
    make_genesis,
    make_transaction,
    validate_block,
    verify_transaction,
)
from edgelinker.channel import sign_digest
from tests.conftest import kp

NOW_MS = 1_700_000_000_000


def transfer_tx(sender, nonce, amount=10):
    return make_transaction(sender, nonce, NOW_MS + nonce, Transfer(to=kp("sink").public_key, amount=amount))


def append(chain, block, genesis):
    """Validate `block` against the chain's tip under the genesis rules, then append it."""
    assert validate_block(block, chain.tip, genesis) == []
    chain.blocks.append(block)


def resign(header, keypair):
    """A copy of the header signed by `keypair` over its current fields."""
    digest = hashlib.sha256(header.signing_bytes()).digest()
    return replace(header, proposer_signature=sign_digest(keypair.private_key, digest))


@pytest.fixture
def setup(keys):
    authority = keys[0]
    cfg = GenesisConfig(authorities=[authority.public_key])
    genesis = make_genesis()
    return authority, cfg, genesis


def test_genesis_hash_constant_for_fixed_config(setup):
    _, _, genesis = setup
    assert hash_block(genesis) == hash_block(make_genesis())
    assert genesis.header.height == 0
    assert genesis.header.prev_hash == bytes(32)


def test_every_config_shares_one_genesis_block(setup):
    # The genesis block is the same under every config; a config's authority set decides which chains extend it.
    authority, cfg, genesis = setup
    other = GenesisConfig(authorities=[kp("other authority").public_key])
    block = build_block([], genesis, authority, NOW_MS, cfg)
    assert validate_block(block, genesis, cfg) == []
    assert validate_block(block, genesis, other) == [Violation.NOT_AUTHORITY]
    with pytest.raises(NotAuthority):
        build_block([], genesis, authority, NOW_MS, other)


def test_hash_tx_changes_with_every_field():
    sender = kp("mut")
    base = transfer_tx(sender, 1)
    variants = [
        transfer_tx(sender, 2),
        make_transaction(sender, 1, NOW_MS + 99, base.payload),
        make_transaction(sender, 1, NOW_MS + 1, Transfer(to=kp("other").public_key, amount=10)),
        make_transaction(sender, 1, NOW_MS + 1, Transfer(to=kp("sink").public_key, amount=11)),
        make_transaction(sender, 1, NOW_MS + 1, base.payload, gas_limit=123_456),
        make_transaction(kp("mut2"), 1, NOW_MS + 1, base.payload),
    ]
    hashes = {hash_tx(base)} | {hash_tx(v) for v in variants}
    assert len(hashes) == 1 + len(variants)


def test_tx_order_changes_root_and_block_hash(setup):
    authority, cfg, genesis = setup
    sender = kp("order")
    t1, t2 = transfer_tx(sender, 1), transfer_tx(sender, 2)
    b1 = build_block([t1, t2], genesis, authority, NOW_MS, cfg)
    b2 = Block(header=b1.header, transactions=[t2, t1])
    assert compute_tx_root(b1.transactions) != compute_tx_root(b2.transactions)


class TestBuildBlock:
    def test_empty_heartbeat_block_is_valid(self, setup):
        authority, cfg, genesis = setup
        block = build_block([], genesis, authority, NOW_MS, cfg)
        assert block.transactions == ()
        assert validate_block(block, genesis, cfg) == []

    def test_cap_holds_back_overflow(self, setup):
        authority, cfg, genesis = setup
        sender = kp("bulk")
        pending = [transfer_tx(sender, n) for n in range(1, 601)]
        assert cfg.max_txs == 500
        block = build_block(pending, genesis, authority, NOW_MS, cfg)
        assert len(block.transactions) == 500
        included = {hash_tx(t) for t in block.transactions}
        remaining = [t for t in pending if hash_tx(t) not in included]
        assert len(remaining) == 100

    def test_orders_by_sender_then_nonce(self, setup):
        authority, cfg, genesis = setup
        s1, s2 = sorted((kp("s1"), kp("s2")), key=lambda p: p.public_key)
        pending = [transfer_tx(s2, 2), transfer_tx(s1, 2), transfer_tx(s2, 1), transfer_tx(s1, 1)]
        block = build_block(pending, genesis, authority, NOW_MS, cfg)
        order = [(t.sender, t.nonce) for t in block.transactions]
        assert order == [(s1.public_key, 1), (s1.public_key, 2), (s2.public_key, 1), (s2.public_key, 2)]

    def test_non_authority_rejected(self, setup):
        _, cfg, genesis = setup
        outsider = kp("outsider")
        with pytest.raises(NotAuthority):
            build_block([], genesis, outsider, NOW_MS, cfg)


class TestValidateBlock:
    def _good(self, setup, txs=None):
        authority, cfg, genesis = setup
        sender = kp("v")
        txs = txs if txs is not None else [transfer_tx(sender, 1)]
        return authority, cfg, genesis, build_block(txs, genesis, authority, NOW_MS, cfg)

    def test_honest_block_valid(self, setup):
        _, cfg, genesis, block = self._good(setup)
        assert validate_block(block, genesis, cfg) == []

    @pytest.mark.parametrize(
        "corrupt,violation",
        [
            ("parent", Violation.BAD_PARENT_LINK),
            ("height", Violation.BAD_HEIGHT),
            ("timestamp", Violation.BAD_TIMESTAMP),
            ("proposer", Violation.NOT_AUTHORITY),
            ("signature", Violation.BAD_PROPOSER_SIGNATURE),
            ("tx_root", Violation.BAD_TX_ROOT),
            ("tx_signature", Violation.BAD_TX_SIGNATURE),
            ("max_txs", Violation.TOO_MANY_TXS),
        ],
    )
    def test_each_targeted_corruption_yields_exactly_that_violation(self, setup, corrupt, violation):
        authority, cfg, genesis, block = self._good(setup)
        header, txs = block.header, block.transactions
        max_txs = len(txs)

        if corrupt == "parent":
            header = resign(replace(header, prev_hash=bytes(32)), authority)
        elif corrupt == "height":
            header = resign(replace(header, height=header.height + 1, prev_hash=hash_block(genesis)), authority)
        elif corrupt == "timestamp":
            header = resign(replace(header, timestamp=genesis.header.timestamp), authority)
        elif corrupt == "proposer":
            outsider = kp("imposter")
            header = resign(replace(header, proposer=outsider.public_key), outsider)
        elif corrupt == "signature":
            header = replace(header, proposer_signature=bytes(64))
        elif corrupt == "tx_root":
            header = resign(replace(header, tx_root=bytes(32)), authority)
        elif corrupt == "tx_signature":
            txs = (replace(txs[0], signature=bytes(64)),) + txs[1:]  # insertion-style forgery
            header = resign(replace(header, tx_root=compute_tx_root(txs)), authority)
        elif corrupt == "max_txs":
            max_txs -= 1  # a block one over the genesis cap

        violations = validate_block(Block(header=header, transactions=txs), genesis, replace(cfg, max_txs=max_txs))
        assert violations == [violation]

    def test_multiple_violations_all_reported(self, setup):
        _, cfg, genesis, block = self._good(setup)
        block = replace(block, header=replace(block.header, prev_hash=bytes(32), timestamp=0))
        violations = validate_block(block, genesis, cfg)
        assert Violation.BAD_PARENT_LINK in violations
        assert Violation.BAD_TIMESTAMP in violations
        assert Violation.BAD_PROPOSER_SIGNATURE in violations  # header was re-keyed by the edits


class TestAppend:
    def test_append_grows_chain(self, setup):
        authority, cfg, genesis = setup
        chain = Chain([genesis])
        block = build_block([], genesis, authority, NOW_MS, cfg)
        append(chain, block, cfg)
        assert chain.height == 1 and chain.tip is block

    def test_replaying_recorded_blocks_reproduces_tip_hash(self, setup):
        # Oracle: independently rebuild the chain from the recorded blocks.
        authority, cfg, genesis = setup
        rng = random.Random(3)
        sender = kp("replay")
        chain = Chain([genesis])
        nonce = 1
        for i in range(100):
            txs = []
            for _ in range(rng.randrange(0, 4)):
                txs.append(transfer_tx(sender, nonce))
                nonce += 1
            block = build_block(txs, chain.tip, authority, NOW_MS + (i + 1) * 1000, cfg)
            append(chain, block, cfg)
        fresh = Chain([make_genesis()])
        for block in chain.blocks[1:]:
            append(fresh, block, cfg)
        assert fresh.tip_hash() == chain.tip_hash()
        assert fresh.height == 100


def test_any_single_field_mutation_in_history_detected(setup):
    # Data-integrity sweep: corrupt one field anywhere, revalidate the chain.
    authority, cfg, genesis = setup
    chain = Chain([genesis])
    sender = kp("hist")
    for i in range(5):
        block = build_block([transfer_tx(sender, i + 1)], chain.tip, authority, NOW_MS + i * 1000, cfg)
        append(chain, block, cfg)

    def chain_valid(blocks):
        return all(validate_block(blocks[i], blocks[i - 1], cfg) == [] for i in range(1, len(blocks)))

    assert chain_valid(chain.blocks)

    for i in range(1, len(chain.blocks)):
        block = chain.blocks[i]
        forged = replace(block.transactions[0], payload=Transfer(to=bytes(32), amount=999))
        mutated = list(chain.blocks)
        mutated[i] = replace(block, transactions=(forged,) + block.transactions[1:])
        assert not chain_valid(mutated)
        mutated = list(chain.blocks)
        mutated[i] = replace(block, header=replace(block.header, timestamp=block.header.timestamp + 1))
        assert not chain_valid(mutated)
    assert chain_valid(chain.blocks)  # the corrupted copies left the originals as they were


def test_transaction_signature_verifies_under_sender():
    tx = transfer_tx(kp("sig"), 1)
    assert verify_transaction(tx)
    assert not verify_transaction(replace(tx, signature=bytes(64)))


def test_a_changed_copy_does_not_keep_the_verdict():
    tx = transfer_tx(kp("sig"), 1)
    assert verify_transaction(tx) and tx._valid is True
    forged = replace(tx, nonce=tx.nonce + 1)
    assert forged._valid is None
    assert not verify_transaction(forged) and forged._valid is False
    assert verify_transaction(tx)
