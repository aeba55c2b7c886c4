import contextlib
import hashlib
import os
import random
import signal
import subprocess
import sys
import time

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from hypothesis import given, settings
from hypothesis import strategies as st

import edgelinker.channel as ch
from edgelinker.channel import (
    ChannelMessage,
    Endpoint,
    SecureEnvelope,
    derive_shared_key,
    generate_keypair,
    open_message,
    seal_message,
)
from edgelinker import sim as sim_module
from edgelinker.codec import DecodeError
from edgelinker.sim import LinkModel, RunAhead, ScenarioConfig, Simulation, run_scenario
from tests.conftest import kp, tseed

NOW_MS = 1_700_000_000_000


def msg_for(sender, body=b"payload", nonce=1, ts=NOW_MS):
    return ChannelMessage(timestamp=ts, nonce=nonce, identification=sender.public_key, body=body)


def sealed(sender, receiver, nonce=1, ts=NOW_MS):
    """Envelope bytes from `sender` to `receiver` carrying a chosen counter."""
    return seal_message(msg_for(sender, nonce=nonce, ts=ts), sender.private_key, receiver.public_key).to_bytes()


class TestKeypairs:
    def test_same_seed_same_keys(self):
        assert generate_keypair(bytes(32)) == generate_keypair(bytes(32))

    def test_public_key_rederivable_from_private(self):
        pair = kp("rederive")
        again = generate_keypair(pair.private_key)
        assert again.public_key == pair.public_key

    def test_distinct_seeds_distinct_public_keys(self):
        seen = {generate_keypair(tseed(f"kp{i}")).public_key for i in range(200)}
        assert len(seen) == 200

    def test_bad_seed_length(self):
        with pytest.raises(ValueError):
            generate_keypair(b"\x01" * 31)


class TestSharedKey:
    def test_role_symmetry(self):
        a, b = kp("a"), kp("b")
        assert derive_shared_key(a.private_key, b.public_key) == derive_shared_key(b.private_key, a.public_key)

    def test_distinct_peers_distinct_keys(self):
        # Brute check over random triples.
        a = kp("alice")
        keys = {derive_shared_key(a.private_key, kp(f"peer{i}").public_key) for i in range(50)}
        assert len(keys) == 50

    def test_malformed_public_key(self):
        a = kp("a")
        with pytest.raises(ch.InvalidPublicKey):
            derive_shared_key(a.private_key, b"\x02" * 31)

    def test_non_canonical_point_rejected(self):
        a = kp("a")
        with pytest.raises(ch.InvalidPublicKey):
            derive_shared_key(a.private_key, b"\xff" * 32)


class TestSealOpen:
    def test_round_trip(self):
        a, b = kp("a"), kp("b")
        m = msg_for(a)
        assert open_message(seal_message(m, a.private_key, b.public_key), b.private_key, a.public_key) == m

    def test_resealing_differs_but_both_open(self):
        a, b = kp("a"), kp("b")
        m = msg_for(a)
        e1 = seal_message(m, a.private_key, b.public_key)
        e2 = seal_message(m, a.private_key, b.public_key)
        assert e1.ciphertext != e2.ciphertext
        assert open_message(e1, b.private_key, a.public_key) == m
        assert open_message(e2, b.private_key, a.public_key) == m

    def test_identity_mismatch_on_seal(self):
        a, b, c = kp("a"), kp("b"), kp("c")
        m = ChannelMessage(NOW_MS, 1, c.public_key, b"x")
        with pytest.raises(ch.IdentityMismatch):
            seal_message(m, a.private_key, b.public_key)

    def test_third_party_never_gets_a_message(self):
        a, b, c = kp("a"), kp("b"), kp("c")
        env = seal_message(msg_for(a), a.private_key, b.public_key)
        with pytest.raises(ch.ChannelError):
            open_message(env, b.private_key, c.public_key)
        with pytest.raises(ch.ChannelError):
            open_message(env, c.private_key, a.public_key)

    def test_kept_ciphers_open_nothing_of_another_pair_nor_tampered(self):
        """Each pair's cipher is built once and kept, for both directions."""
        a, b, c = kp("a"), kp("b"), kp("c")
        to_b = seal_message(msg_for(a), a.private_key, b.public_key)
        to_c = seal_message(msg_for(a), a.private_key, c.public_key)
        assert open_message(to_b, b.private_key, a.public_key) == msg_for(a)
        key = ch.derive_shared_key(a.private_key, b.public_key)
        assert ch._cipher(key) is ch._cipher(ch.derive_shared_key(b.private_key, a.public_key))
        with pytest.raises(ch.DecryptFailed):
            open_message(to_c, b.private_key, a.public_key)
        tampered = SecureEnvelope(to_b.sender_hint, to_b.ciphertext[:-1] + bytes([to_b.ciphertext[-1] ^ 1]))
        with pytest.raises(ch.DecryptFailed):
            open_message(tampered, b.private_key, a.public_key)

    def test_every_byte_mutation_rejected(self):
        a, b = kp("a"), kp("b")
        env = seal_message(msg_for(a, body=b"tamper-me"), a.private_key, b.public_key)
        raw = env.to_bytes()
        for i in range(len(raw)):
            mutated = bytearray(raw)
            mutated[i] ^= 0x01
            with pytest.raises(ch.ChannelError):
                open_message(SecureEnvelope.from_bytes(bytes(mutated)), b.private_key, a.public_key)

    @settings(max_examples=30, deadline=None)
    @given(body=st.binary(max_size=256), nonce=st.integers(1, 2**40), ts=st.integers(0, 2**41))
    def test_round_trip_property(self, body, nonce, ts):
        a, b = kp("prop-a"), kp("prop-b")
        m = ChannelMessage(ts, nonce, a.public_key, body)
        assert open_message(seal_message(m, a.private_key, b.public_key), b.private_key, a.public_key) == m

    def test_plain_round_trip(self):
        a = kp("a")
        m = msg_for(a, body=b"plain")
        assert ChannelMessage.decode(m.encode()) == m

    def test_seeded_rng_gives_deterministic_envelopes(self):
        a, b = kp("a"), kp("b")
        m = msg_for(a)
        e1 = seal_message(m, a.private_key, b.public_key, rng=random.Random(5))
        e2 = seal_message(m, a.private_key, b.public_key, rng=random.Random(5))
        assert e1 == e2


def sealed_plaintext(sender, receiver, plaintext):
    """An envelope from `sender` whose AEAD holds `plaintext` as it is: it decrypts, whatever it carries."""
    nonce = bytes(ch.AEAD_NONCE_LEN)
    ciphertext = ch._cipher(derive_shared_key(sender.private_key, receiver.public_key)).encrypt(nonce, plaintext, None)
    return SecureEnvelope(sender.public_key, nonce + ciphertext)


class TestOpenRejects:
    """Each reject of `open_message` past the sender hint, in the order it checks."""

    def test_a_ciphertext_shorter_than_a_nonce_and_tag(self):
        a, b = kp("a"), kp("b")
        short = SecureEnvelope(a.public_key, bytes(ch.AEAD_NONCE_LEN + ch.AEAD_TAG_LEN - 1))
        with pytest.raises(ch.DecryptFailed, match="ciphertext too short"):
            open_message(short, b.private_key, a.public_key)

    def test_a_plaintext_shorter_than_a_signature(self):
        a, b = kp("a"), kp("b")
        with pytest.raises(ch.DecryptFailed, match="shorter than a signature"):
            open_message(sealed_plaintext(a, b, bytes(ch.SIG_LEN - 1)), b.private_key, a.public_key)

    def test_a_malformed_inner_message(self):
        a, b = kp("a"), kp("b")
        encoded = msg_for(a).encode()[:-1]  # cut inside the body
        signature = ch.sign_digest(a.private_key, hashlib.sha256(encoded).digest())
        with pytest.raises(ch.DecryptFailed, match="malformed inner message"):
            open_message(sealed_plaintext(a, b, encoded + signature), b.private_key, a.public_key)

    def test_an_inner_signature_that_does_not_verify(self):
        a, b = kp("a"), kp("b")
        encoded = msg_for(a).encode()
        signature = ch.sign_digest(a.private_key, hashlib.sha256(encoded + b"other").digest())
        with pytest.raises(ch.SignatureInvalid, match="digest signature"):
            open_message(sealed_plaintext(a, b, encoded + signature), b.private_key, a.public_key)
        # The same bytes under the right signature open.
        signature = ch.sign_digest(a.private_key, hashlib.sha256(encoded).digest())
        assert open_message(sealed_plaintext(a, b, encoded + signature), b.private_key, a.public_key) == msg_for(a)


class TestWireModes:
    def test_secure_wire_round_trip(self):
        a, b = kp("a"), kp("b")
        m = msg_for(a, body=b"wire")
        raw = Endpoint(a, "secure", random.Random(3)).seal(b.public_key, b"wire", NOW_MS)
        assert raw == seal_message(m, a.private_key, b.public_key, rng=random.Random(3)).to_bytes()
        assert ch.open_wire(raw, "secure", b.private_key) == m  # sender taken from the hint
        assert ch.open_wire(raw, "secure", b.private_key, a.public_key) == m

    def test_plain_wire_round_trip(self):
        a, b = kp("a"), kp("b")
        m = msg_for(a, body=b"wire")
        raw = Endpoint(a, "plain").seal(b.public_key, b"wire", NOW_MS)
        assert raw == m.encode()
        assert ch.open_wire(raw, "plain", b.private_key) == m

    def test_wrong_expected_sender_fails_to_open(self):
        a, b, c = kp("a"), kp("b"), kp("c")
        raw = Endpoint(a, "secure").seal(b.public_key, b"payload", NOW_MS)
        with pytest.raises(ch.DecryptFailed):
            ch.open_wire(raw, "secure", b.private_key, c.public_key)


class TestReplayProtection:
    """`Endpoint.open` accepts from each sender exactly the next counter."""

    def test_counter_must_increment_by_one(self):
        a, b = kp("a"), kp("b")
        receiver = Endpoint(b, "secure")
        assert receiver.open(sealed(a, b, nonce=1), NOW_MS).nonce == 1
        with pytest.raises(ch.NonceReplayed) as replayed:
            receiver.open(sealed(a, b, nonce=1), NOW_MS)
        assert replayed.value.message == msg_for(a, nonce=1)
        assert receiver.open(sealed(a, b, nonce=2), NOW_MS).nonce == 2

    def test_gap_rejected(self):
        a, b = kp("a"), kp("b")
        receiver = Endpoint(b, "secure")
        receiver.open(sealed(a, b, nonce=1), NOW_MS)
        with pytest.raises(ch.NonceGap):
            receiver.open(sealed(a, b, nonce=3), NOW_MS)

    def test_stale_timestamp_rejected(self):
        a, b = kp("a"), kp("b")
        receiver = Endpoint(b, "secure")
        receiver.open(sealed(a, b, nonce=1), NOW_MS)
        with pytest.raises(ch.StaleTimestamp):
            receiver.open(sealed(a, b, nonce=2, ts=NOW_MS - 5 * 60 * 1000), NOW_MS)
        # nonce was not consumed by the stale message
        assert receiver.open(sealed(a, b, nonce=2), NOW_MS).nonce == 2

    def test_future_timestamp_rejected(self):
        a, b = kp("a"), kp("b")
        receiver = Endpoint(b, "secure")
        assert ch.CLOCK_SKEW_MS == 30_000
        with pytest.raises(ch.StaleTimestamp):
            receiver.open(sealed(a, b, nonce=1, ts=NOW_MS + 31_000), NOW_MS)
        assert receiver.open(sealed(a, b, nonce=1, ts=NOW_MS + 30_000), NOW_MS).nonce == 1

    def test_senders_are_independent(self):
        a, b, c = kp("a"), kp("b"), kp("c")
        receiver = Endpoint(b, "secure")
        assert receiver.open(sealed(a, b, nonce=1), NOW_MS).identification == a.public_key
        assert receiver.open(sealed(c, b, nonce=1), NOW_MS).identification == c.public_key

    @settings(max_examples=50, deadline=None)
    @given(attempts=st.lists(st.integers(0, 6), min_size=1, max_size=40))
    def test_accepted_nonces_are_exactly_one_to_k(self, attempts):
        # Whatever interleaving arrives, the accepted subsequence is 1,2,3,...
        a, b = kp("a"), kp("b")
        receiver = Endpoint(b, "secure")
        accepted = []
        for nonce in attempts:
            try:
                accepted.append(receiver.open(sealed(a, b, nonce=nonce), NOW_MS).nonce)
            except ch.CounterRejected:
                pass
        assert accepted == list(range(1, len(accepted) + 1))


class TestEndpoint:
    def test_counters_start_at_one_and_are_independent_per_peer(self):
        a, b, c = kp("a"), kp("b"), kp("c")
        sender = Endpoint(a, "secure")
        sent = [(peer, sender.seal(peer.public_key, b"x", NOW_MS)) for peer in (b, c, b, b, c)]
        nonces = [ch.open_wire(raw, "secure", peer.private_key).nonce for peer, raw in sent]
        assert nonces == [1, 1, 2, 3, 2]

    def test_plain_round_trip(self):
        a, b = kp("a"), kp("b")
        sender, receiver = Endpoint(a, "plain"), Endpoint(b, "plain")
        assert receiver.open(sender.seal(b.public_key, b"plain", NOW_MS), NOW_MS) == msg_for(a, body=b"plain")
        replayed = Endpoint(a, "plain").seal(b.public_key, b"plain", NOW_MS)
        with pytest.raises(ch.NonceReplayed):
            receiver.open(replayed, NOW_MS)

    def test_equal_rng_seeds_seal_equal_bytes(self):
        a, b = kp("a"), kp("b")
        first, second = Endpoint(a, "secure", random.Random(9)), Endpoint(a, "secure", random.Random(9))
        for body in (b"one", b"two", b"three"):
            assert first.seal(b.public_key, body, NOW_MS) == second.seal(b.public_key, body, NOW_MS)

    def test_bytes_that_do_not_open(self):
        a, b, c = kp("a"), kp("b"), kp("c")
        with pytest.raises(ch.DecryptFailed):
            Endpoint(c, "secure").open(sealed(a, b), NOW_MS)
        with pytest.raises(DecodeError):
            Endpoint(b, "secure").open(b"x" * 10, NOW_MS)
        with pytest.raises(DecodeError):
            Endpoint(b, "plain").open(b"\x01garbage", NOW_MS)

    @pytest.mark.parametrize(
        "exc, reason",
        [
            (ch.ChannelError, "bad_wire"),
            (ch.InvalidPublicKey, "invalid_public_key"),
            (ch.IdentityMismatch, "identity_mismatch"),
            (ch.DecryptFailed, "decrypt_failed"),
            (ch.SignatureInvalid, "signature_invalid"),
            (ch.NonceReplayed, "nonce_replayed"),
            (ch.NonceGap, "nonce_gap"),
            (ch.StaleTimestamp, "stale_timestamp"),
        ],
    )
    def test_each_failure_names_its_trace_reason(self, exc, reason):
        assert exc.reason == reason
        assert issubclass(exc, ch.ChannelError)


def test_envelope_wire_format_layout():
    a, b = kp("a"), kp("b")
    env = seal_message(msg_for(a), a.private_key, b.public_key)
    raw = env.to_bytes()
    assert raw[:32] == a.public_key  # cleartext routing hint
    assert len(raw) >= 32 + 12 + 16
    assert SecureEnvelope.from_bytes(raw) == env


def test_signature_binds_message_digest():
    # Independent recomputation of the sign-then-encrypt layout: the last 64
    # plaintext bytes are a signature over the SHA-256 of the encoded message.
    a, b = kp("a"), kp("b")
    m = msg_for(a, body=b"audit")
    env = seal_message(m, a.private_key, b.public_key)
    key = derive_shared_key(b.private_key, a.public_key)
    from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

    plaintext = ChaCha20Poly1305(key).decrypt(env.ciphertext[:12], env.ciphertext[12:], None)
    encoded, sig = plaintext[:-64], plaintext[-64:]
    assert encoded == m.encode()
    assert ch.verify_digest(a.public_key, sig, hashlib.sha256(encoded).digest())


class Overran(Exception):
    """Not an OSError, so no handler of a failed system call in the program swallows it."""


@contextlib.contextmanager
def deadline(seconds):
    """Raise Overran in the block if it runs longer than `seconds`."""

    def expire(*_args):
        raise Overran(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def flip_bit(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


READS = ScenarioConfig(nodes=4, workload="read", tasks=1000, block_interval_ms=200)
MIXED = ScenarioConfig(nodes=4, workload="mixed", tasks=600, block_interval_ms=200)
LOSSY_WRITES = ScenarioConfig(
    nodes=4, workload="write", tasks=200, block_interval_ms=200, link=LinkModel(drop_probability=0.05)
)


@pytest.fixture
def worker(monkeypatch):
    """Every run forks its run-ahead worker, also where it would not by itself."""
    if not hasattr(os, "fork"):
        pytest.skip("the run-ahead worker needs os.fork")
    monkeypatch.setattr(sim_module, "_can_run_ahead", lambda: True)


def at_event(monkeypatch, number, action):
    """Call `action(sim)` in the loop, just before it dispatches event `number`
    (1-based), so after the worker has forked."""
    count = [0]
    original = Simulation._dispatch

    def dispatch(sim, item):
        count[0] += 1
        if count[0] == number:
            action(sim)
        original(sim, item)

    monkeypatch.setattr(Simulation, "_dispatch", dispatch)


def worker_verdicts(monkeypatch) -> list:
    """Every (triple, verdict) the loop files from the worker's records."""
    taking, verdicts = [], []
    file, take = RunAhead._file, RunAhead.take

    def filing(ahead, triple, verdict):
        if taking:
            verdicts.append((triple, verdict))
        file(ahead, triple, verdict)

    def taking_record(ahead, actor_id, idx):
        taking.append(idx)
        try:
            return take(ahead, actor_id, idx)
        finally:
            taking.pop()

    monkeypatch.setattr(RunAhead, "_file", filing)
    monkeypatch.setattr(RunAhead, "take", taking_record)
    return verdicts


def handed_at_close(monkeypatch) -> list:
    """The verdicts handed over and not yet taken when each run-ahead worker is
    closed; checks that closing drops them and uninstalls the worker."""
    left, close = [], RunAhead.close

    def closing(ahead):
        assert ch.helper is ahead
        left.append(dict(ahead.handed))
        close(ahead)
        assert not ahead.handed and ch.helper is None

    monkeypatch.setattr(RunAhead, "close", closing)
    return left


def returned_verdicts(monkeypatch, filed_after=()) -> list:
    """Every (triple, verdict, late) the worker sends back on the loop's own
    signatures, as the loop files it; `late` says whether the triple was in
    the collection `filed_after` by then."""
    polling, verdicts = [], []
    file, file_verdicts = RunAhead._file, RunAhead._file_verdicts

    def filing(ahead, triple, verdict):
        if polling:
            verdicts.append((triple, verdict, triple in filed_after))
        file(ahead, triple, verdict)

    def reading_pipe(ahead):
        polling.append(True)
        try:
            file_verdicts(ahead)
        finally:
            polling.pop()

    monkeypatch.setattr(RunAhead, "_file", filing)
    monkeypatch.setattr(RunAhead, "_file_verdicts", reading_pipe)
    return verdicts


def verified_inline(monkeypatch, triples: set) -> None:
    """Add to `triples` every triple verified in this process from now on."""
    original = ch._verify_inline

    def verify(public_key, signature, digest):
        triples.add(public_key + signature + digest)
        return original(public_key, signature, digest)

    monkeypatch.setattr(ch, "_verify_inline", verify)


def count_inline_verifies(monkeypatch, keys: list) -> None:
    """Append to `keys` the public key of every verification made in this process from now on."""
    original = ch._verify_inline

    def verify(public_key, signature, digest):
        keys.append(public_key)
        return original(public_key, signature, digest)

    monkeypatch.setattr(ch, "_verify_inline", verify)


def device_keys(sim) -> set:
    return {actor.keypair.public_key for actor in sim.actors.values()}


def same_results(a, b) -> bool:
    return a.jsonl() == b.jsonl() and all(
        a.final[n].tip_hash == b.final[n].tip_hash and a.final[n].world.digest() == b.final[n].world.digest()
        for n in a.final
    )


def assert_stopped_worker_changes_nothing(monkeypatch, config, seed) -> None:
    """Stop the worker with SIGSTOP at event 150 of a run: it gives the
    undisturbed results, and no dispatch takes RUN_AHEAD_TIMEOUT_S + 5 s."""
    undisturbed = run_scenario(config, seed)
    stopped, longest = [], [0.0]

    def stop(sim):
        stopped.append(sim._ahead)
        os.kill(sim._ahead.pid, signal.SIGSTOP)

    at_event(monkeypatch, 150, stop)
    timed = Simulation._dispatch

    def dispatch(sim, item):
        start = time.monotonic()
        timed(sim, item)
        longest[0] = max(longest[0], time.monotonic() - start)

    monkeypatch.setattr(Simulation, "_dispatch", dispatch)
    with deadline(60):
        disturbed = run_scenario(config, seed)
    assert sim_module.RUN_AHEAD_TIMEOUT_S * 0.9 <= longest[0] < sim_module.RUN_AHEAD_TIMEOUT_S + 5
    with pytest.raises(ChildProcessError):  # ended and reaped
        os.waitpid(stopped[0].pid, os.WNOHANG)
    assert same_results(disturbed, undisturbed)


class TestVerifyingAhead:
    """The run-ahead worker signs for the devices and verifies each signature
    it makes before the loop needs the verdict."""

    def test_worker_verdicts_equal_inline_verdicts(self, worker, monkeypatch):
        verdicts = worker_verdicts(monkeypatch)
        run_scenario(MIXED, 21)
        assert len(verdicts) > 600  # a tx signature and a channel signature per write, one per read
        for triple, verdict in verdicts:
            key, signature, digest = triple[:32], triple[32:96], triple[96:]
            assert verdict is ch._verify_inline(key, signature, digest) is True

    def test_a_thousand_signatures_ahead_of_their_verifies(self, worker, monkeypatch):
        verdicts = worker_verdicts(monkeypatch)
        left = handed_at_close(monkeypatch)
        trace = run_scenario(READS, 22)
        assert len(trace.of_kind("task_reply")) == READS.tasks
        assert len(verdicts) >= 1000 and all(verdict for _triple, verdict in verdicts)
        # On a lossless link the loop took every one; what is left are verdicts
        # on the loop's own signatures that came back after it had verified them.
        (handed,) = left
        assert not {triple for triple, _verdict in verdicts} & set(handed)

    def test_no_verdict_outlives_a_run(self, worker, monkeypatch):
        """Verdicts for envelopes lost on the way are never taken; they end with the run."""
        left = handed_at_close(monkeypatch)
        run_scenario(LOSSY_WRITES, 3)
        assert left[0]  # and closing the worker dropped them
        inline = []
        count_inline_verifies(monkeypatch, inline)
        assert all(ch.verify_digest(t[:32], t[32:96], t[96:]) for t in left[0])
        assert len(inline) == len(left[0])

    def test_a_stopped_worker_never_blocks_signing(self, worker, monkeypatch):
        """A worker that sends nothing ends the loop's wait within RUN_AHEAD_TIMEOUT_S;
        the loop then signs for the devices itself, with the same results."""
        assert_stopped_worker_changes_nothing(monkeypatch, MIXED, 23)

    def test_a_stopped_worker_never_blocks_the_signing_of_replies(self, worker, monkeypatch):
        """On reads the loop asks the worker to verify each reply it signs; once
        the worker is stopped those requests go nowhere, and none is sent after
        the loop ended the worker and prepares its wakes again."""
        closed, close, request = [], RunAhead.close, RunAhead.signed

        def closing(ahead):
            close(ahead)
            closed.append(ahead)

        def requesting(ahead, triple):
            assert ahead not in closed, "a signature was sent to an ended worker"
            request(ahead, triple)

        monkeypatch.setattr(RunAhead, "close", closing)
        monkeypatch.setattr(RunAhead, "signed", requesting)
        assert_stopped_worker_changes_nothing(monkeypatch, READS, 27)
        assert len(closed) == 2  # the undisturbed run's worker, and the stopped one

    def test_signing_never_waits_on_the_worker(self, monkeypatch):
        """Signatures made while the worker is stopped overfill the request pipe,
        and once it is dead they meet a broken pipe: each is dropped, and the
        loop signs on and verifies inline."""
        if not hasattr(os, "fork"):
            pytest.skip("the run-ahead worker needs os.fork")

        def pause(*_pipes):
            try:
                signal.pause()
            finally:
                os._exit(0)

        monkeypatch.setattr(sim_module, "_run_ahead_main", pause)
        pair, ahead = kp("ahead"), RunAhead([])
        digests = [hashlib.sha256(str(i).encode()).digest() for i in range(1000)]  # past the pipe's 64 KiB
        try:
            os.kill(ahead.pid, signal.SIGSTOP)
            with deadline(30):
                for digest in digests[:800]:
                    ch.sign_digest(pair.private_key, digest)
                os.kill(ahead.pid, signal.SIGKILL)
                os.waitid(os.P_PID, ahead.pid, os.WEXITED | os.WNOWAIT)  # dead, but left unreaped
                signatures = [ch.sign_digest(pair.private_key, digest) for digest in digests[800:]]
            assert all(ch.verify_digest(pair.public_key, sig, dig) for sig, dig in zip(signatures, digests[800:]))
        finally:
            ahead.close()
        assert not ahead.handed and ch.helper is None

    def test_node_reply_verdicts_come_from_the_worker(self, worker, monkeypatch):
        """The worker also verifies signatures the loop makes; a device opening
        a node's reply takes such a verdict where it came back in time."""
        returned = returned_verdicts(monkeypatch)
        left = handed_at_close(monkeypatch)
        node_keys, replies = set(), set()
        at_event(monkeypatch, 1, lambda sim: node_keys.update(pair.public_key for pair in sim.node_keys.values()))
        verify = ch.verify_digest

        def opening(public_key, signature, digest):
            if public_key in node_keys:  # nodes seal only to devices
                replies.add(public_key + signature + digest)
            return verify(public_key, signature, digest)

        monkeypatch.setattr(ch, "verify_digest", opening)
        trace = run_scenario(READS, 28)
        assert len(trace.of_kind("task_reply")) == READS.tasks
        taken = {triple: verdict for triple, verdict, _late in returned if triple not in left[0]}
        assert set(taken) & replies
        for triple, verdict in taken.items():
            assert verdict is ch._verify_inline(triple[:32], triple[32:96], triple[96:]) is True

    def test_a_verdict_back_after_its_check_is_never_taken(self, worker, monkeypatch):
        """Verdicts the loop reads only after it verified their triples inline
        stay untaken until the run drops them."""
        verified = set()
        returned = returned_verdicts(monkeypatch, filed_after=verified)
        left = handed_at_close(monkeypatch)
        held, file_verdicts = [0], RunAhead._file_verdicts

        def held_back(ahead):
            """Leave the worker's first verdicts in the pipe while the loop verifies their triples."""
            held[0] += 1
            if held[0] > 300:
                file_verdicts(ahead)
            else:
                time.sleep(0.001)  # time for the worker to answer, also on one CPU

        monkeypatch.setattr(RunAhead, "_file_verdicts", held_back)
        at_event(monkeypatch, 1, lambda _sim: verified_inline(monkeypatch, verified))
        run_scenario(READS, 29)
        late = {triple for triple, _verdict, late in returned if late}
        assert late and late <= set(left[0])  # and closing the worker dropped them

    def test_a_triple_in_flight_is_verified_inline(self, worker, monkeypatch):
        """Records the worker had not handed over when it died are prepared
        again in the loop, so their signatures are verified there."""
        undisturbed = run_scenario(MIXED, 24)
        verified, devices, split = [], set(), []

        def kill(sim):
            devices.update(device_keys(sim))
            split.append(len(verified))
            os.kill(sim._ahead.pid, signal.SIGKILL)
            os.waitid(os.P_PID, sim._ahead.pid, os.WEXITED | os.WNOWAIT)

        at_event(monkeypatch, 1, lambda _sim: count_inline_verifies(monkeypatch, verified))
        at_event(monkeypatch, 150, kill)
        disturbed = run_scenario(MIXED, 24)
        before, after = set(verified[: split[0]]), set(verified[split[0] :])
        assert before and not devices & before
        assert devices & after
        assert same_results(disturbed, undisturbed)

    def test_a_digest_of_any_length_is_recorded(self, monkeypatch):
        """The worker's own `channel.helper` lists every signature it makes, and hands over no verdict."""
        pair = kp("recorded")
        digest = hashlib.sha256(b"recorded").digest()
        ch.helper = signed = sim_module._Recorder()
        try:
            short = ch.sign_digest(pair.private_key, b"twenty bytes, no sha")
            signature = ch.sign_digest(pair.private_key, digest)
            inline = []
            count_inline_verifies(monkeypatch, inline)
            assert ch.verify_digest(pair.public_key, signature, digest) and inline == [pair.public_key]
        finally:
            ch.helper = None
        ch.sign_digest(pair.private_key, b"after the recorder")
        assert signed == [pair.public_key + short + b"twenty bytes, no sha", pair.public_key + signature + digest]
        assert all(ch.verify_triple(triple) for triple in signed)
        assert not ch.verify_triple(pair.public_key + short + b"twenty bytes, no sha!")

    @pytest.mark.skipif(not hasattr(os, "sched_getscheduler"), reason="scheduling policies are Linux-only")
    def test_worker_runs_at_normal_priority(self, worker, monkeypatch):
        """The loop waits on the worker, so it must not wait for an idle CPU."""
        policies = []
        at_event(monkeypatch, 10, lambda sim: policies.append(os.sched_getscheduler(sim._ahead.pid)))
        run_scenario(MIXED, 25)
        assert policies == [os.SCHED_OTHER]

    def test_verify_digest_takes_the_worker_verdict(self, worker, monkeypatch):
        def no_device_verifies(sim):
            devices = device_keys(sim)
            original = ch._verify_inline

            def verify(public_key, signature, digest):
                if public_key in devices:
                    pytest.fail("a device signature was verified in the loop")
                return original(public_key, signature, digest)

            monkeypatch.setattr(ch, "_verify_inline", verify)

        at_event(monkeypatch, 1, no_device_verifies)
        trace = run_scenario(MIXED, 26)
        assert len(trace.of_kind("task_confirmed")) + len(trace.of_kind("task_reply")) >= MIXED.tasks


def idle_worker(monkeypatch) -> RunAhead:
    """A run-ahead worker, serving as `channel.helper`, whose process ends at once."""
    if not hasattr(os, "fork"):
        pytest.skip("the run-ahead worker needs os.fork")
    monkeypatch.setattr(sim_module, "_run_ahead_main", lambda *_fds: os._exit(0))
    return RunAhead([])


class Handing(dict):
    """A stand-in `channel.helper` that files the verdict on each triple
    signed, and hands each over once."""

    def signed(self, triple: bytes) -> None:
        self[triple] = ch.verify_triple(triple)

    def verdict(self, triple: bytes):
        return self.pop(triple, None)


@pytest.fixture(scope="class", params=["inline", "worker"])
def verifier(request):
    """How a signature's verdict is reached: inline by `verify_digest`, or
    handed over by a `channel.helper` that filed it ahead of the check."""
    return request.param


class TestVerdictCache:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.binary(min_size=32, max_size=32),
        digest=st.binary(min_size=32, max_size=32),
        bit=st.integers(0, 8 * 64 - 1),
    )
    def test_verify_digest_equals_inline_verification(self, verifier, seed, digest, bit):
        pair = generate_keypair(seed)
        handing = Handing()
        ch.helper = handing if verifier == "worker" else None
        try:
            signature = ch.sign_digest(pair.private_key, digest)
            if verifier == "worker":
                assert handing == {pair.public_key + signature + digest: True}
            other_key = generate_keypair(hashlib.sha256(seed).digest()).public_key
            triples = [
                (pair.public_key, signature, digest),
                (pair.public_key, flip_bit(signature, bit), digest),
                (pair.public_key, signature, hashlib.sha256(digest).digest()),
                (other_key, signature, digest),
            ]
            for _ in range(2):  # a handed verdict is taken the first time only
                for key, sig, dig in triples:
                    assert ch.verify_digest(key, sig, dig) is ch._verify_inline(key, sig, dig)
            assert not handing
        finally:
            ch.helper = None

    def test_a_handed_verdict_is_taken_once(self, monkeypatch):
        pair = kp("taken")
        digest = hashlib.sha256(b"taken").digest()
        ahead = idle_worker(monkeypatch)
        try:
            signature = ch.sign_digest(pair.private_key, digest)
            triple = pair.public_key + signature + digest
            ahead._file(triple, ch.verify_triple(triple))
            inline = []
            count_inline_verifies(monkeypatch, inline)
            assert ch.verify_digest(pair.public_key, signature, digest) and inline == []
            assert ch.verify_digest(pair.public_key, signature, digest) and inline == [pair.public_key]
        finally:
            ahead.close()

    def test_the_loop_hands_over_nothing(self, monkeypatch):
        monkeypatch.setattr(sim_module, "_can_run_ahead", lambda: False)
        monkeypatch.setattr(RunAhead, "_file", lambda *_args: pytest.fail("a verdict was handed over"))
        helpers = []
        at_event(monkeypatch, 100, lambda _sim: helpers.append(ch.helper))
        run_scenario(ScenarioConfig(nodes=4, workload="mixed", tasks=60, block_interval_ms=200), 29)
        assert helpers == [None]

    def test_the_bound_drops_the_oldest_verdict_first(self, monkeypatch):
        monkeypatch.setattr(sim_module, "VERDICTS_KEPT", 8)
        pair = kp("kept")
        ahead = idle_worker(monkeypatch)
        try:
            triples = []
            for i in range(50):
                digest = hashlib.sha256(b"kept %d" % i).digest()
                triples.append(pair.public_key + ch.sign_digest(pair.private_key, digest) + digest)
                ahead._file(triples[-1], True)
                assert list(ahead.handed) == triples[-8:]
            inline = []
            count_inline_verifies(monkeypatch, inline)
            for triple in (triples[-1], triples[0]):
                assert ch.verify_digest(triple[:32], triple[32:96], triple[96:])
            assert inline == [pair.public_key]  # the oldest was dropped, so verified when asked
        finally:
            ahead.close()
        assert not ahead.handed and ch.helper is None


def test_nothing_forks_outside_a_simulation_run(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked outside Simulation.run"))
    a, b = kp("a"), kp("b")
    assert open_message(seal_message(msg_for(a), a.private_key, b.public_key), b.private_key, a.public_key)
    digest = hashlib.sha256(b"no fork").digest()
    assert ch.verify_digest(a.public_key, ch.sign_digest(a.private_key, digest), digest)


# --- the two Ed25519 libraries ---------------------------------------------------

needs_sodium = pytest.mark.skipif(ch._sodium is None, reason="libsodium cannot be loaded on this platform")

GROUP_ORDER = 2**252 + 27742317777372353535851937790883648493  # L, the order of the base point

# The canonical encodings of the eight points of small order: the identity,
# the point of order 2, the two of order 4 and the four of order 8.
SMALL_ORDER = [
    bytes.fromhex(h)
    for h in (
        "0100000000000000000000000000000000000000000000000000000000000000",
        "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000080",
        "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
        "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
        "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
        "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
    )
]


def openssl_verdict(public_key: bytes, signature: bytes, digest: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, digest)
        return True
    except (InvalidSignature, ValueError):
        return False


@st.composite
def verify_inputs(draw):
    """A (public key, signature, digest) triple: honest, or bent in one of the
    ways the two verifiers might judge differently."""
    seed = draw(st.binary(min_size=32, max_size=32))
    digest = draw(st.binary(min_size=1, max_size=64))
    key = generate_keypair(seed).public_key
    signature = Ed25519PrivateKey.from_private_bytes(seed).sign(digest)
    case = draw(st.sampled_from(["honest", "key_bit", "signature_bit", "digest_bit", "s_past_l", "random", "small_order"]))
    if case == "key_bit":
        key = flip_bit(key, draw(st.integers(0, 8 * 32 - 1)))
    elif case == "signature_bit":
        signature = flip_bit(signature, draw(st.integers(0, 8 * 64 - 1)))
    elif case == "digest_bit":
        digest = flip_bit(digest, draw(st.integers(0, 8 * len(digest) - 1)))
    elif case == "s_past_l":
        s = int.from_bytes(signature[32:], "little") + GROUP_ORDER * draw(st.integers(1, 15))
        signature = signature[:32] + s.to_bytes(32, "little")
    elif case == "random":
        key, signature = draw(st.binary(min_size=32, max_size=32)), draw(st.binary(min_size=64, max_size=64))
    else:
        key = draw(st.sampled_from(SMALL_ORDER + [key]))
        r = draw(st.sampled_from(SMALL_ORDER + [signature[:32]]))
        signature = r + draw(st.sampled_from([bytes(32), signature[32:]]))
    return key, signature, digest


class TestEd25519Libraries:
    """libsodium signs and verifies where it loads; every verdict stays OpenSSL's."""

    @settings(max_examples=400, deadline=None)
    @given(inputs=verify_inputs())
    def test_every_verdict_is_openssls(self, inputs):
        assert ch._verify_inline(*inputs) is openssl_verdict(*inputs)

    def test_a_libsodium_refusal_is_settled_by_openssl(self):
        # R and A the identity and S = 0: [S]B = R + [k]A holds for every digest,
        # which OpenSSL accepts and libsodium refuses as a small-order key.
        identity = SMALL_ORDER[0]
        signature, digest = identity + bytes(32), hashlib.sha256(b"small order").digest()
        assert openssl_verdict(identity, signature, digest)
        if ch._sodium is not None:
            assert ch._sodium.crypto_sign_verify_detached(signature, digest, len(digest), identity) != 0
        assert ch._verify_inline(identity, signature, digest) is True

    @needs_sodium
    def test_libsodium_alone_accepts_an_honest_signature(self, monkeypatch):
        pair = kp("sodium only")
        digest = hashlib.sha256(b"sodium only").digest()
        signature = ch.sign_digest(pair.private_key, digest)
        monkeypatch.setattr(ch, "Ed25519PublicKey", None)  # any OpenSSL verification would raise
        assert ch._verify_inline(pair.public_key, signature, digest) is True

    @needs_sodium
    @settings(max_examples=100, deadline=None)
    @given(seed=st.binary(min_size=32, max_size=32), digest=st.binary(max_size=128))
    def test_libsodium_signs_what_openssl_signs(self, seed, digest):
        assert ch.sign_digest(seed, digest) == Ed25519PrivateKey.from_private_bytes(seed).sign(digest)

    @needs_sodium
    def test_loading_libsodium_starts_no_process(self):
        """Where a known soname opens, importing the channel neither runs
        `ldconfig` through `ctypes.util.find_library` nor imports `subprocess`."""
        if ch._sodium._name not in ch.SODIUM_SONAMES:
            pytest.skip("libsodium loads here only under a name that find_library found")
        probe = "import sys, edgelinker.channel as ch; print(ch._sodium is not None, 'subprocess' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["True", "False"]

    @needs_sodium
    def test_a_run_without_libsodium_gives_the_same_results(self, monkeypatch):
        crash = ScenarioConfig(nodes=4, crashed=1, workload="write", tasks=300, block_interval_ms=200)
        runs = []
        for handle in (ch._sodium, None):
            monkeypatch.setattr(ch, "_sodium", handle)
            runs.append(run_scenario(crash, 27))
        on, off = runs
        assert hashlib.sha256(on.jsonl().encode()).digest() == hashlib.sha256(off.jsonl().encode()).digest()
        assert {n: (f.tip_hash, f.world.digest()) for n, f in on.final.items()} == {
            n: (f.tip_hash, f.world.digest()) for n, f in off.final.items()
        }
        assert len(on.of_kind("task_confirmed")) > 0
