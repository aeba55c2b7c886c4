import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgelinker.channel as ch
from edgelinker.channel import (
    ChannelMessage,
    RejectReason,
    ReplayState,
    SecureEnvelope,
    derive_shared_key,
    generate_keypair,
    open_message,
    seal_message,
)
from tests.conftest import kp, tseed

NOW_MS = 1_700_000_000_000


def msg_for(sender, body=b"payload", nonce=1, ts=NOW_MS):
    return ChannelMessage(timestamp=ts, nonce=nonce, identification=sender.public_key, body=body)


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


class TestWireModes:
    def test_secure_wire_round_trip(self):
        a, b = kp("a"), kp("b")
        m = msg_for(a, body=b"wire")
        raw = ch.seal_wire(m, "secure", a.private_key, b.public_key, random.Random(3))
        assert raw == seal_message(m, a.private_key, b.public_key, rng=random.Random(3)).to_bytes()
        assert ch.open_wire(raw, "secure", b.private_key) == m  # sender taken from the hint
        assert ch.open_wire(raw, "secure", b.private_key, a.public_key) == m

    def test_plain_wire_round_trip(self):
        a, b = kp("a"), kp("b")
        m = msg_for(a, body=b"wire")
        raw = ch.seal_wire(m, "plain", a.private_key, b.public_key)
        assert raw == m.encode()
        assert ch.open_wire(raw, "plain", b.private_key) == m

    def test_wrong_expected_sender_fails_to_open(self):
        a, b, c = kp("a"), kp("b"), kp("c")
        raw = ch.seal_wire(msg_for(a), "secure", a.private_key, b.public_key)
        with pytest.raises(ch.DecryptFailed):
            ch.open_wire(raw, "secure", b.private_key, c.public_key)


class TestReplayProtection:
    def test_counter_must_increment_by_one(self):
        a = kp("a")
        rs = ReplayState()
        assert rs.check_and_record(msg_for(a, nonce=1), NOW_MS).accepted
        verdict = rs.check_and_record(msg_for(a, nonce=1), NOW_MS)
        assert not verdict.accepted and verdict.reason == RejectReason.NONCE_REPLAYED
        assert rs.check_and_record(msg_for(a, nonce=2), NOW_MS).accepted

    def test_gap_rejected(self):
        a = kp("a")
        rs = ReplayState()
        rs.check_and_record(msg_for(a, nonce=1), NOW_MS)
        verdict = rs.check_and_record(msg_for(a, nonce=3), NOW_MS)
        assert verdict.reason == RejectReason.NONCE_GAP

    def test_stale_timestamp_rejected(self):
        a = kp("a")
        rs = ReplayState()
        rs.check_and_record(msg_for(a, nonce=1), NOW_MS)
        old = msg_for(a, nonce=2, ts=NOW_MS - 5 * 60 * 1000)
        verdict = rs.check_and_record(old, NOW_MS)
        assert verdict.reason == RejectReason.STALE_TIMESTAMP
        # nonce was not consumed by the stale message
        assert rs.check_and_record(msg_for(a, nonce=2), NOW_MS).accepted

    def test_future_timestamp_rejected(self):
        a = kp("a")
        rs = ReplayState(clock_skew_ms=30_000)
        verdict = rs.check_and_record(msg_for(a, nonce=1, ts=NOW_MS + 31_000), NOW_MS)
        assert verdict.reason == RejectReason.STALE_TIMESTAMP

    def test_senders_are_independent(self):
        a, b = kp("a"), kp("b")
        rs = ReplayState()
        assert rs.check_and_record(msg_for(a, nonce=1), NOW_MS).accepted
        assert rs.check_and_record(msg_for(b, nonce=1), NOW_MS).accepted

    @settings(max_examples=50, deadline=None)
    @given(attempts=st.lists(st.integers(0, 6), min_size=1, max_size=40))
    def test_accepted_nonces_are_exactly_one_to_k(self, attempts):
        # Whatever interleaving arrives, the accepted subsequence is 1,2,3,...
        a = kp("a")
        rs = ReplayState()
        accepted = []
        for nonce in attempts:
            if rs.check_and_record(msg_for(a, nonce=nonce), NOW_MS).accepted:
                accepted.append(nonce)
        assert accepted == list(range(1, len(accepted) + 1))


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
