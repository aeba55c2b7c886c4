import copy
import gc
import random
import weakref
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgelinker.chain import (
    Call,
    Chain,
    Deploy,
    GasSchedule,
    GenesisConfig,
    Transfer,
    build_block,
    hash_tx,
    make_genesis,
    make_transaction,
)
from edgelinker.codec import READING, DecodeError, enc_readings
from edgelinker.contracts import (
    FEE_SINK,
    MAX_HEART_RATE,
    PERMITTER_PERMISSION,
    READ_PERMISSION,
    RESULT_DENIED,
    RESULT_FAILED,
    RESULT_OK,
    WRITE_PERMISSION,
    BadNonce,
    InsufficientBalance,
    PermissionDenied,
    UnknownContract,
    WorldState,
    Account,
    apply_block,
    contract_address,
    decode_reading_args,
    encode_permission_args,
    encode_reading_args,
    execute_transaction,
    genesis_world,
    grant_permission,
    has_permission,
    initialize,
    next_state,
    read_history,
    replay_chain,
    revoke_permission,
)
from tests.conftest import kp

NOW_MS = 1_700_000_000_000
SCHEDULE = GasSchedule()


def total_supply(world: WorldState) -> int:
    return sum(acct.balance for acct in world.accounts.values())


def addr(label):
    return kp(label).public_key


class TestPermissionTable:
    def test_initialize_gives_deployer_the_permitter_role(self):
        table = initialize(addr("A"))
        assert has_permission(table, PERMITTER_PERMISSION, addr("A"))

    def test_initialize_grants_nothing_else(self):
        table = initialize(addr("A"))
        assert not has_permission(table, WRITE_PERMISSION, addr("A"))
        assert not has_permission(table, PERMITTER_PERMISSION, addr("B"))

    def test_unknown_permission_id_is_false(self):
        table = initialize(addr("A"))
        assert not has_permission(table, b"\xff" * 32, addr("A"))

    def test_grant_then_member(self):
        table = initialize(addr("A"))
        grant_permission(table, addr("A"), WRITE_PERMISSION, addr("B"))
        assert has_permission(table, WRITE_PERMISSION, addr("B"))

    def test_grant_requires_permitter(self):
        table = initialize(addr("A"))
        before = table.encode()
        with pytest.raises(PermissionDenied):
            grant_permission(table, addr("B"), WRITE_PERMISSION, addr("B"))
        assert table.encode() == before

    def test_grant_idempotent(self):
        table = initialize(addr("A"))
        grant_permission(table, addr("A"), WRITE_PERMISSION, addr("B"))
        once = table.encode()
        grant_permission(table, addr("A"), WRITE_PERMISSION, addr("B"))
        assert table.encode() == once

    def test_revoke_removes_access(self):
        table = initialize(addr("A"))
        grant_permission(table, addr("A"), READ_PERMISSION, addr("D"))
        revoke_permission(table, addr("A"), READ_PERMISSION, addr("D"))
        assert not has_permission(table, READ_PERMISSION, addr("D"))

    def test_revoke_non_member_is_noop_success(self):
        table = initialize(addr("A"))
        before = table.encode()
        revoke_permission(table, addr("A"), READ_PERMISSION, addr("D"))
        assert table.encode() == before

    def test_revoke_requires_permitter(self):
        table = initialize(addr("A"))
        with pytest.raises(PermissionDenied):
            revoke_permission(table, addr("B"), PERMITTER_PERMISSION, addr("A"))

    @settings(max_examples=100, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["grant", "revoke", "has"]),
                st.integers(0, 4),  # caller index
                st.integers(0, 2),  # permission index
                st.integers(0, 4),  # subject index
            ),
            max_size=50,
        )
    )
    def test_matches_naive_set_oracle(self, ops):
        actors = [addr(f"actor{i}") for i in range(5)]
        perms = [PERMITTER_PERMISSION, WRITE_PERMISSION, READ_PERMISSION]
        table = initialize(actors[0])
        oracle = {PERMITTER_PERMISSION: {actors[0]}}
        for op, caller_i, perm_i, subject_i in ops:
            caller, perm, subject = actors[caller_i], perms[perm_i], actors[subject_i]
            allowed = caller in oracle.get(PERMITTER_PERMISSION, set())
            if op == "grant":
                if allowed:
                    oracle.setdefault(perm, set()).add(subject)
                    grant_permission(table, caller, perm, subject)
                else:
                    with pytest.raises(PermissionDenied):
                        grant_permission(table, caller, perm, subject)
            elif op == "revoke":
                if allowed:
                    oracle.get(perm, set()).discard(subject)
                    revoke_permission(table, caller, perm, subject)
                else:
                    with pytest.raises(PermissionDenied):
                        revoke_permission(table, caller, perm, subject)
            else:
                assert has_permission(table, perm, subject) == (subject in oracle.get(perm, set()))
        for perm in perms:
            for subject in actors:
                assert has_permission(table, perm, subject) == (subject in oracle.get(perm, set()))


@pytest.fixture
def world():
    w = WorldState()
    w.accounts[addr("patient")] = Account(balance=10**9, next_nonce=1)
    w.accounts[addr("doctor")] = Account(balance=10**9, next_nonce=1)
    return w


def deploy_contract(w, owner_label="patient", nonce=1):
    owner = kp(owner_label)
    tx = make_transaction(owner, nonce, NOW_MS, Deploy("health_record", b""))
    receipt = execute_transaction(w, tx, SCHEDULE, height=1)
    return contract_address(owner.public_key, nonce), receipt


class TestExecution:
    def test_deploy_costs_exactly_the_schedule_price(self, world):
        _, receipt = deploy_contract(world)
        assert receipt.gas_used == 701_382
        assert receipt.result == RESULT_OK

    def test_fee_flows_to_sink_before_sweep(self, world):
        before = world.balance(addr("patient"))
        deploy_contract(world)
        assert world.balance(addr("patient")) == before - 701_382
        assert world.balance(FEE_SINK) == 701_382

    def test_add_reading_requires_write_permission(self, world):
        contract, _ = deploy_contract(world)
        patient = kp("patient")
        grant = make_transaction(
            patient, 2, NOW_MS, Call(contract, "grant", encode_permission_args(WRITE_PERMISSION, patient.public_key))
        )
        assert execute_transaction(world, grant, SCHEDULE, 1).gas_used == 23_521
        reading = make_transaction(patient, 3, NOW_MS, Call(contract, "add_reading", encode_reading_args(NOW_MS, 72)))
        receipt = execute_transaction(world, reading, SCHEDULE, 1)
        assert receipt.gas_used == 48_182
        assert receipt.result == RESULT_OK
        assert world.contracts[contract].readings == [(NOW_MS, 72)]

    @pytest.mark.parametrize("args", [encode_reading_args(NOW_MS, 72)[:-1], encode_reading_args(NOW_MS, 72) + b"\x00", b""])
    def test_reading_args_of_the_wrong_length_fail_but_pay(self, world, args):
        contract, _ = deploy_contract(world)
        patient = kp("patient")
        grant = Call(contract, "grant", encode_permission_args(WRITE_PERMISSION, patient.public_key))
        execute_transaction(world, make_transaction(patient, 2, NOW_MS, grant), SCHEDULE, 1)
        with pytest.raises(DecodeError):
            decode_reading_args(args)
        receipt = execute_transaction(world, make_transaction(patient, 3, NOW_MS, Call(contract, "add_reading", args)), SCHEDULE, 1)
        assert (receipt.result, receipt.reason, receipt.gas_used) == (RESULT_FAILED, "bad_args", 48_182)
        assert world.contracts[contract].readings == []

    def test_a_heart_rate_above_the_maximum_fails_but_pays(self, world):
        contract, _ = deploy_contract(world)
        patient = kp("patient")
        grant = Call(contract, "grant", encode_permission_args(WRITE_PERMISSION, patient.public_key))
        execute_transaction(world, make_transaction(patient, 2, NOW_MS, grant), SCHEDULE, 1)
        for nonce, rate in ((3, MAX_HEART_RATE + 1), (4, MAX_HEART_RATE)):
            call = Call(contract, "add_reading", encode_reading_args(NOW_MS, rate))
            receipt = execute_transaction(world, make_transaction(patient, nonce, NOW_MS, call), SCHEDULE, 1)
            expected = (RESULT_FAILED, "bad_args") if rate > MAX_HEART_RATE else (RESULT_OK, "")
            assert (receipt.result, receipt.reason, receipt.gas_used) == (*expected, 48_182)
        assert world.contracts[contract].readings == [(NOW_MS, MAX_HEART_RATE)]

    @pytest.mark.parametrize("method", ["grant", "revoke"])
    @pytest.mark.parametrize(
        "args",
        [b"", b"\x00\x00", encode_permission_args(READ_PERMISSION, b"d" * 32) + b"\x00"],
        ids=["empty", "cut_length", "trailing_byte"],
    )
    def test_malformed_permission_args_fail_and_change_no_permission(self, world, method, args):
        contract, _ = deploy_contract(world)
        patient = kp("patient")
        table = copy.deepcopy(world.contracts[contract].permission_table)
        tx = make_transaction(patient, 2, NOW_MS, Call(contract, method, args))
        receipt = execute_transaction(world, tx, SCHEDULE, 1)
        assert (receipt.result, receipt.reason) == (RESULT_FAILED, "bad_args")
        assert world.contracts[contract].permission_table == table

    @settings(max_examples=50, deadline=None)
    @given(ts=st.integers(0, 2**64 - 1), hr=st.integers(0, 2**64 - 1))
    def test_reading_args_round_trip(self, ts, hr):
        args = encode_reading_args(ts, hr)
        assert len(args) == 16
        assert decode_reading_args(args) == (ts, hr)

    def test_reading_event_carries_the_args_bytes(self, world):
        contract, _ = deploy_contract(world)
        patient = kp("patient")
        grant = Call(contract, "grant", encode_permission_args(WRITE_PERMISSION, patient.public_key))
        execute_transaction(world, make_transaction(patient, 2, NOW_MS, grant), SCHEDULE, 1)
        args = encode_reading_args(NOW_MS, 72)
        receipt = execute_transaction(world, make_transaction(patient, 3, NOW_MS, Call(contract, "add_reading", args)), SCHEDULE, 1)
        assert receipt.result == RESULT_OK
        assert READING.pack(*world.contracts[contract].readings[-1]) == args

    def test_revoke_costs_exactly_the_schedule_price(self, world):
        contract, _ = deploy_contract(world)
        patient = kp("patient")
        args = encode_permission_args(READ_PERMISSION, addr("doctor"))
        execute_transaction(world, make_transaction(patient, 2, NOW_MS, Call(contract, "grant", args)), SCHEDULE, 1)
        receipt = execute_transaction(
            world, make_transaction(patient, 3, NOW_MS, Call(contract, "revoke", args)), SCHEDULE, 1
        )
        assert receipt.gas_used == 21_948
        assert receipt.result == RESULT_OK

    def test_denied_call_still_pays(self, world):
        contract, _ = deploy_contract(world)
        doctor = kp("doctor")
        before = world.balance(doctor.public_key)
        reading = make_transaction(doctor, 1, NOW_MS, Call(contract, "add_reading", encode_reading_args(NOW_MS, 80)))
        receipt = execute_transaction(world, reading, SCHEDULE, 1)
        assert receipt.result == RESULT_DENIED
        assert receipt.gas_used == 48_182
        assert world.balance(doctor.public_key) == before - 48_182
        assert world.contracts[contract].readings == []

    def test_flooding_attacker_drains_in_floor_balance_over_gas_calls(self, world):
        # Arithmetic oracle: how many times does the fee fit into the purse?
        contract, _ = deploy_contract(world)
        attacker = kp("attacker")
        balance = 100_000
        world.accounts[attacker.public_key] = Account(balance=balance, next_nonce=1)
        expected = balance // SCHEDULE.add_data
        assert expected == 2
        processed = 0
        for nonce in range(1, expected + 2):
            tx = make_transaction(attacker, nonce, NOW_MS, Call(contract, "add_reading", encode_reading_args(NOW_MS, 1)))
            if nonce <= expected:
                receipt = execute_transaction(world, tx, SCHEDULE, 1)
                assert receipt.result == RESULT_DENIED
                processed += 1
            else:
                with pytest.raises(InsufficientBalance):
                    execute_transaction(world, tx, SCHEDULE, 1)
        assert processed == expected
        assert world.balance(attacker.public_key) == balance - expected * SCHEDULE.add_data

    def test_bad_nonce_rejected_without_state_change(self, world):
        patient = kp("patient")
        snapshot = world.encode()
        tx = make_transaction(patient, 5, NOW_MS, Deploy("health_record", b""))
        with pytest.raises(BadNonce):
            execute_transaction(world, tx, SCHEDULE, 1)
        assert world.encode() == snapshot

    def test_insufficient_balance_does_not_consume_nonce(self, world):
        broke = kp("broke")
        world.accounts[broke.public_key] = Account(balance=10, next_nonce=1)
        tx = make_transaction(broke, 1, NOW_MS, Transfer(addr("doctor"), 1))
        with pytest.raises(InsufficientBalance):
            execute_transaction(world, tx, SCHEDULE, 1)
        assert world.accounts[broke.public_key].next_nonce == 1

    def test_transfer_moves_coins_after_fee(self, world):
        patient, doctor = kp("patient"), kp("doctor")
        before_p, before_d = world.balance(patient.public_key), world.balance(doctor.public_key)
        tx = make_transaction(patient, 1, NOW_MS, Transfer(doctor.public_key, 1000))
        receipt = execute_transaction(world, tx, SCHEDULE, 1)
        assert receipt.result == RESULT_OK and receipt.gas_used == 21_000
        assert world.balance(patient.public_key) == before_p - 21_000 - 1000
        assert world.balance(doctor.public_key) == before_d + 1000

    def test_transfer_beyond_balance_fails_but_pays_fee(self, world):
        patient = kp("patient")
        before = world.balance(patient.public_key)
        tx = make_transaction(patient, 1, NOW_MS, Transfer(addr("doctor"), 10**12))
        receipt = execute_transaction(world, tx, SCHEDULE, 1)
        assert receipt.result == RESULT_FAILED and receipt.reason == "insufficient_funds"
        assert world.balance(patient.public_key) == before - 21_000

    def test_unknown_contract_and_method(self, world):
        patient = kp("patient")
        r1 = execute_transaction(
            world, make_transaction(patient, 1, NOW_MS, Call(bytes(32), "add_reading", encode_reading_args(1, 1))), SCHEDULE, 1
        )
        assert r1.result == RESULT_FAILED and r1.reason == "unknown_contract"
        contract, _ = deploy_contract(world, nonce=2)
        r2 = execute_transaction(world, make_transaction(patient, 3, NOW_MS, Call(contract, "selfdestruct", b"")), SCHEDULE, 1)
        assert r2.result == RESULT_FAILED and r2.reason == "unknown_method"

    def test_deploy_of_unknown_kind_fails_and_pays(self, world):
        patient = kp("patient")
        before = world.balance(patient.public_key)
        tx = make_transaction(patient, 1, NOW_MS, Deploy("no_such_contract_kind", b"init"))
        receipt = execute_transaction(world, tx, SCHEDULE, 1)
        assert (receipt.result, receipt.reason) == (RESULT_FAILED, "unknown_contract_kind")
        assert receipt.gas_used == SCHEDULE.deploy
        assert world.balance(patient.public_key) == before - SCHEDULE.deploy
        assert world.next_nonce(patient.public_key) == 2
        assert world.contracts == {}

    def test_execution_is_deterministic(self, world):
        w2 = copy.deepcopy(world)
        patient = kp("patient")
        tx = make_transaction(patient, 1, NOW_MS, Deploy("health_record", b""))
        execute_transaction(world, tx, SCHEDULE, 3)
        execute_transaction(w2, tx, SCHEDULE, 3)
        assert world.encode() == w2.encode()


class TestFeesAndSupply:
    def test_apply_block_sweeps_fees_to_proposer(self, world):
        authority = kp("authority")
        patient = kp("patient")
        cfg = GenesisConfig(authorities=[authority.public_key])
        genesis = make_genesis(cfg)
        txs = [make_transaction(patient, 1, NOW_MS, Deploy("health_record", b""))]
        block = build_block(txs, genesis, authority, NOW_MS)
        receipts = apply_block(world, block, SCHEDULE)
        assert [r.result for r in receipts] == [RESULT_OK]
        assert world.balance(authority.public_key) == 701_382
        assert world.balance(FEE_SINK) == 0

    def test_total_supply_constant_under_random_blocks(self, world):
        # Coins move, never mint or burn, over a random finalized history.
        authority = kp("authority")
        cfg = GenesisConfig(authorities=[authority.public_key])
        genesis = make_genesis(cfg)
        rng = random.Random(12)
        supply = total_supply(world)
        patient = kp("patient")
        nonce = 1
        parent = genesis
        for height in range(1, 6):
            txs = []
            for _ in range(rng.randrange(0, 4)):
                kind = rng.randrange(3)
                if kind == 0:
                    payload = Deploy("health_record", b"")
                elif kind == 1:
                    payload = Transfer(addr("doctor"), rng.randrange(1, 5000))
                else:
                    payload = Call(bytes(32), "add_reading", encode_reading_args(1, 1))
                txs.append(make_transaction(patient, nonce, NOW_MS + height, payload))
                nonce += 1
            block = build_block(txs, parent, authority, NOW_MS + height * 1000)
            apply_block(world, block, SCHEDULE)
            parent = block
            assert total_supply(world) == supply

    def test_skipped_transactions_recorded_not_executed(self, world):
        authority = kp("authority")
        patient = kp("patient")
        cfg = GenesisConfig(authorities=[authority.public_key])
        genesis = make_genesis(cfg)
        good = make_transaction(patient, 1, NOW_MS, Transfer(addr("doctor"), 5))
        wrong_nonce = make_transaction(patient, 9, NOW_MS, Transfer(addr("doctor"), 5))
        block = build_block([good, wrong_nonce], genesis, authority, NOW_MS)
        receipts = apply_block(world, block, SCHEDULE)
        assert [r.result for r in receipts] == [RESULT_OK, "skipped"]
        assert receipts[1].gas_used == 0


class TestReadHistory:
    def _with_readings(self, world):
        contract, _ = deploy_contract(world)
        patient = kp("patient")
        execute_transaction(
            world,
            make_transaction(patient, 2, NOW_MS, Call(contract, "grant", encode_permission_args(WRITE_PERMISSION, patient.public_key))),
            SCHEDULE,
            1,
        )
        readings = [(NOW_MS + i * 1000, 60 + i) for i in range(10)]
        for i, (ts, hr) in enumerate(readings):
            execute_transaction(
                world,
                make_transaction(patient, 3 + i, NOW_MS, Call(contract, "add_reading", encode_reading_args(ts, hr))),
                SCHEDULE,
                1,
            )
        return contract, readings

    def test_owner_reads_everything(self, world):
        contract, readings = self._with_readings(world)
        assert read_history(world, contract, addr("patient"), 0, 2**62) == readings

    def test_granted_then_revoked_reader(self, world):
        """A revoke adds no reading, so the revoked reader's next read of the
        same range finds it cached: the permission check must still deny it."""
        contract, readings = self._with_readings(world)
        patient = kp("patient")
        args = encode_permission_args(READ_PERMISSION, addr("doctor"))
        execute_transaction(world, make_transaction(patient, 13, NOW_MS, Call(contract, "grant", args)), SCHEDULE, 1)
        assert read_history(world, contract, addr("doctor"), 0, 2**62) == readings
        execute_transaction(world, make_transaction(patient, 14, NOW_MS, Call(contract, "revoke", args)), SCHEDULE, 1)
        with pytest.raises(PermissionDenied):
            read_history(world, contract, addr("doctor"), 0, 2**62)
        with pytest.raises(PermissionDenied):
            read_history(world, contract, addr("stranger"), 0, 2**62)
        assert read_history(world, contract, addr("patient"), 0, 2**62) == readings

    def test_unknown_contract(self, world):
        with pytest.raises(UnknownContract):
            read_history(world, bytes(32), addr("patient"), 0, 1)

    @settings(max_examples=40, deadline=None)
    @given(lo=st.integers(0, 20), hi=st.integers(0, 20))
    def test_range_filter_matches_linear_scan_oracle(self, lo, hi):
        w = WorldState()
        w.accounts[addr("patient")] = Account(balance=10**9, next_nonce=1)
        contract, readings = TestReadHistory()._with_readings(w)
        from_ts, to_ts = NOW_MS + lo * 500, NOW_MS + hi * 500
        oracle = [r for r in readings if from_ts <= r[0] <= to_ts]
        assert read_history(w, contract, addr("patient"), from_ts, to_ts) == oracle

    RANGES = ((0, 20), (4, 12), (7, 7), (15, 3))  # in half seconds after NOW_MS; the last is empty

    @settings(max_examples=40, deadline=None)
    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("add"), st.integers(0, 20), st.integers(40, 200)),
                st.tuples(st.just("read"), st.sampled_from(RANGES)),
            ),
            max_size=16,
        )
    )
    def test_writes_between_reads_match_linear_scan_oracle(self, steps):
        """Reads of a few ranges repeat between writes and after them; every
        result is the scan of the log as it stands, and a caller that changes
        its result changes no later one."""
        w = WorldState()
        w.accounts[addr("patient")] = Account(balance=10**10, next_nonce=1)
        contract, log = TestReadHistory()._with_readings(w)
        patient, nonce = kp("patient"), 13
        for step in steps:
            if step[0] == "add":
                reading = (NOW_MS + step[1] * 500, step[2])
                call = Call(contract, "add_reading", encode_reading_args(*reading))
                receipt = execute_transaction(w, make_transaction(patient, nonce, NOW_MS, call), SCHEDULE, 1)
                assert receipt.result == RESULT_OK
                log.append(reading)
                nonce += 1
            else:
                from_ts, to_ts = (NOW_MS + half_s * 500 for half_s in step[1])
                got = read_history(w, contract, addr("patient"), from_ts, to_ts)
                assert got == [r for r in log if from_ts <= r[0] <= to_ts]
                assert got.packed == enc_readings(got)
                got.append((0, 0))


def test_replay_chain_rebuilds_world(world):
    authority = kp("authority")
    patient = kp("patient")
    cfg = GenesisConfig(
        authorities=[authority.public_key],
        initial_balances={patient.public_key: 10**9, addr("doctor"): 10**9},
    )
    from edgelinker.chain import validate_block

    chain = Chain([make_genesis(cfg)])
    live = genesis_world(cfg)
    nonce = 1
    for height in range(1, 4):
        txs = [make_transaction(patient, nonce, NOW_MS + height, Transfer(addr("doctor"), height))]
        nonce += 1
        block = build_block(txs, chain.tip, authority, NOW_MS + height * 1000)
        assert validate_block(block, chain.tip, cfg.authorities) == []
        chain.blocks.append(block)
        apply_block(live, block, SCHEDULE)
    assert replay_chain(chain, cfg).encode() == live.encode()


class TestGasSchedule:
    def test_reads_have_no_gas_key(self):
        # Reads are served off-chain and charged nothing, so the schedule has no price for them.
        assert "read_query" not in {f.name for f in fields(GasSchedule)}


# One step of a random history: (kind, sender label, argument).
TX_KINDS = (
    "deploy", "deploy_unknown", "grant", "revoke", "add_reading", "transfer", "denied", "skipped_nonce", "skipped_balance"
)
tx_specs = st.tuples(st.sampled_from(TX_KINDS), st.sampled_from(("patient", "doctor")), st.integers(0, 3))


class TestNextState:
    """The shared successor state against `apply_block` on an independent state."""

    AUTHORITY = kp("authority")
    PEOPLE = {label: kp(label) for label in ("patient", "doctor", "pauper")}

    @classmethod
    def config(cls):
        balances = {cls.PEOPLE["patient"].public_key: 10**9, cls.PEOPLE["doctor"].public_key: 10**9}
        return GenesisConfig(authorities=[cls.AUTHORITY.public_key], initial_balances=balances)

    @classmethod
    def transactions(cls, specs, nonces: dict, now_ms: int) -> list:
        """Signed transactions for `specs`; `nonces` holds each sender's next nonce and is advanced."""
        contract = contract_address(cls.PEOPLE["patient"].public_key, 1)
        permissions = (WRITE_PERMISSION, READ_PERMISSION, WRITE_PERMISSION, PERMITTER_PERMISSION)
        txs = []
        for kind, label, arg in specs:
            if kind == "skipped_balance":
                label = "pauper"  # no balance for any fee
            sender = cls.PEOPLE[label]
            target = cls.PEOPLE["doctor" if arg % 2 else "patient"].public_key
            perm_args = encode_permission_args(permissions[arg], target)
            payload = {
                "deploy": Deploy("health_record", b""),
                "deploy_unknown": Deploy("no_such_contract_kind", b""),
                "grant": Call(contract, "grant", perm_args),
                "revoke": Call(contract, "revoke", perm_args),
                "add_reading": Call(contract, "add_reading", encode_reading_args(NOW_MS + arg, 60 + arg)),
                "transfer": Transfer(cls.PEOPLE["pauper"].public_key, 10**10 if arg == 3 else arg + 1),
                "denied": Call(contract, "grant", encode_permission_args(WRITE_PERMISSION, kp("stranger").public_key)),
            }.get(kind, Transfer(target, 1))
            if kind == "denied":
                sender = cls.PEOPLE["doctor"]  # never a permitter: the call pays and is denied
            nonce = nonces.get(sender.public_key, 1)
            if kind == "skipped_nonce":
                txs.append(make_transaction(sender, nonce + 5, now_ms, payload))
                continue
            txs.append(make_transaction(sender, nonce, now_ms, payload))
            if kind != "skipped_balance":
                nonces[sender.public_key] = nonce + 1
        return txs

    @settings(max_examples=25, deadline=None)
    @given(
        blocks=st.lists(st.lists(tx_specs, max_size=6), min_size=1, max_size=5),
        fork=st.tuples(st.integers(0, 4), st.lists(tx_specs, min_size=1, max_size=4)),
    )
    def test_matches_apply_block_and_leaves_the_state_before_unchanged(self, blocks, fork):
        cfg = self.config()
        chain = Chain([make_genesis(cfg)])
        shared, oracle = genesis_world(cfg), genesis_world(cfg)
        nonces: dict = {}
        first = [("deploy", "patient", 0)]  # the contract every call names
        for height, specs in enumerate(blocks, start=1):
            before, before_bytes = shared, shared.encode()
            fork_nonces = dict(nonces)
            block = build_block(self.transactions(first + specs, nonces, NOW_MS + height), chain.tip, self.AUTHORITY, NOW_MS + height)
            first = []
            after = next_state(shared, block, SCHEDULE)
            receipts = apply_block(oracle, block, SCHEDULE)
            assert after.encode() == oracle.encode()
            assert after.receipts == tuple(receipts)
            assert after.finalized == before.finalized | {hash_tx(tx) for tx in block.transactions}
            assert next_state(before, block, SCHEDULE) is after
            assert before.encode() == before_bytes

            if fork[0] == height - 1:
                # Another block on the same state: its own successor, and neither state moves.
                other_txs = self.transactions(fork[1], fork_nonces, NOW_MS + height + 7)
                other = build_block(other_txs, chain.tip, self.AUTHORITY, NOW_MS + height + 7)
                after_bytes = after.encode()
                alt = next_state(before, other, SCHEDULE)
                alt_oracle = replay_chain(chain, cfg)
                alt_receipts = apply_block(alt_oracle, other, SCHEDULE)
                assert alt is not after
                assert alt.encode() == alt_oracle.encode() and alt.receipts == tuple(alt_receipts)
                assert next_state(before, block, SCHEDULE) is after
                assert after.encode() == after_bytes and before.encode() == before_bytes

            chain.blocks.append(block)
            shared = after
        assert replay_chain(chain, cfg).encode() == shared.encode()

    def test_every_result_kind_occurs(self):
        """The kinds above produce every receipt result, so the property covers them."""
        cfg = self.config()
        specs = [(kind, "patient", 0) for kind in TX_KINDS] + [("add_reading", "doctor", 1), ("transfer", "patient", 3)]
        txs = self.transactions([("deploy", "patient", 0)] + specs, {}, NOW_MS)
        world = next_state(genesis_world(cfg), build_block(txs, make_genesis(cfg), self.AUTHORITY, NOW_MS), SCHEDULE)
        assert {r.result for r in world.receipts} == {RESULT_OK, RESULT_DENIED, RESULT_FAILED, "skipped"}
        assert {r.reason for r in world.receipts if r.result == "skipped"} == {"BadNonce", "InsufficientBalance"}

    def test_the_state_before_keeps_no_successor_alive(self):
        cfg = self.config()
        world = genesis_world(cfg)
        block = build_block(self.transactions([("transfer", "patient", 0)], {}, NOW_MS), make_genesis(cfg), self.AUTHORITY, NOW_MS)
        after = next_state(world, block, SCHEDULE)
        expected, link = after.encode(), weakref.ref(after)
        del after
        gc.collect()
        assert link() is None
        assert next_state(world, block, SCHEDULE).encode() == expected

    def test_a_block_under_another_schedule_is_applied_again(self):
        cfg = self.config()
        world = genesis_world(cfg)
        block = build_block(self.transactions([("deploy", "patient", 0)], {}, NOW_MS), make_genesis(cfg), self.AUTHORITY, NOW_MS)
        cheap = GasSchedule(deploy=5)
        after, after_cheap = next_state(world, block, SCHEDULE), next_state(world, block, cheap)
        oracle = genesis_world(cfg)
        apply_block(oracle, block, cheap)
        assert after_cheap.encode() == oracle.encode() != after.encode()
