"""Identity keys and the authenticated device-to-fog channel.

Every entity holds one static keypair; the 32-byte public key is also its
network identity. Messages travel sign-then-encrypt: the sender signs the
SHA-256 digest of the canonically encoded message, appends the 64-byte
signature, and encrypts the pair with ChaCha20-Poly1305 under a pairwise
Diffie-Hellman key. The symmetric key is derived through HKDF over the raw
X25519 secret plus both identity keys sorted lexicographically, so it is
useless between any other pair of parties.

Replay protection is an application-level counter per ordered pair of
parties, kept by each party's `Endpoint`: a receiver accepts from a sender
only the counter after the last one it accepted, with a timestamp inside
CLOCK_SKEW_MS of its own clock.

A forked process may sign on this one's behalf: it lists its signatures with
`recording_signatures`, verifies them with `verify_triple`, and hands each
verdict over through `file_verdict` (the precedent is geth's transaction
sender cacher). `verify_digest` takes a handed verdict once, and verifies
inline, storing nothing, whatever was not handed over. A signed ledger record
keeps its own verdict (`chain.Signed.verified`), so the nodes handed one
record share its check. Every verdict is a real Ed25519 verification.

libsodium signs and verifies Ed25519 where it loads (through `ctypes`, with
`crypto_sign_detached` and `crypto_sign_verify_detached`); `cryptography`'s
OpenSSL backend does so where it does not. Both make the same RFC 8032
signature, byte for byte. Their verifiers differ on small-order and
non-canonical points, where libsodium refuses what OpenSSL may accept, and
never the other way round. So the verdict rule is: libsodium's acceptance is
final, and its refusal is settled by OpenSSL. Every verdict is therefore
the one OpenSSL alone gives.
"""

from __future__ import annotations

import ctypes
import hashlib
import secrets
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .codec import BYTES, U64, Codec, DecodeError, Reader, Record, enc_bytes

KEY_LEN = 32
SIG_LEN = 64
AEAD_NONCE_LEN = 12
AEAD_TAG_LEN = 16

_KDF_INFO = b"edgelinker/channel/v1"
_CURVE_P = 2**255 - 19


SODIUM_SONAMES = ("libsodium.so.23", "libsodium.so.26")  # libsodium 1.0.18, and 1.0.19 on


def _open_sodium():
    """libsodium under a known soname, else where `ctypes.util.find_library`
    finds it: that import brings in `subprocess`, and the call runs `ldconfig -p`."""
    for name in SODIUM_SONAMES:
        with suppress(OSError):
            return ctypes.CDLL(name)
    from ctypes.util import find_library

    name = find_library("sodium")
    return None if name is None else ctypes.CDLL(name)


def _load_sodium():
    """libsodium, initialised, with the C signatures of the calls made here
    declared; None where it cannot be loaded or initialised."""
    try:
        lib = _open_sodium()
        init, sign, verify = lib.sodium_init, lib.crypto_sign_detached, lib.crypto_sign_verify_detached
    except (OSError, AttributeError):  # found but not loadable, not found (None), or not libsodium
        return None
    buf, size = ctypes.c_char_p, ctypes.c_ulonglong
    init.argtypes, init.restype = (), ctypes.c_int
    sign.argtypes, sign.restype = (buf, ctypes.c_void_p, buf, size, buf), ctypes.c_int
    verify.argtypes, verify.restype = (buf, buf, size, buf), ctypes.c_int
    return lib if init() >= 0 else None


_sodium = _load_sodium()  # loaded once, so a forked process inherits it


class ChannelError(Exception):
    """Base class for secure-channel failures; `reason` names the failure in traces."""

    reason = "bad_wire"


class InvalidPublicKey(ChannelError):
    reason = "invalid_public_key"


class IdentityMismatch(ChannelError):
    reason = "identity_mismatch"


class DecryptFailed(ChannelError):
    reason = "decrypt_failed"


class SignatureInvalid(ChannelError):
    reason = "signature_invalid"


@dataclass(frozen=True)
class KeyPair:
    """Static identity keypair; public_key is the network identity."""

    public_key: bytes
    private_key: bytes


def generate_keypair(seed: bytes) -> KeyPair:
    """Derive a keypair from 32 bytes of entropy; same seed, same keys."""
    if len(seed) != KEY_LEN:
        raise ValueError(f"seed must be {KEY_LEN} bytes, got {len(seed)}")
    return KeyPair(public_key=_ed_public(seed), private_key=seed)


@lru_cache(maxsize=4096)
def _ed_private(seed: bytes) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(seed)


@lru_cache(maxsize=4096)
def _ed_public(seed: bytes) -> bytes:
    return _ed_private(seed).public_key().public_bytes_raw()


@lru_cache(maxsize=4096)
def _sodium_secret(seed: bytes) -> bytes:
    """libsodium's 64-byte secret key, seed || public key."""
    return seed + _ed_public(seed)


@lru_cache(maxsize=4096)
def _x_private(seed: bytes) -> X25519PrivateKey:
    # Same scalar derivation an Ed25519-to-X25519 secret conversion uses.
    scalar = hashlib.sha512(seed).digest()[:KEY_LEN]
    return X25519PrivateKey.from_private_bytes(scalar)


def _ed_pk_to_x25519(public_key: bytes) -> bytes:
    """Map an Ed25519 public point to the equivalent X25519 u-coordinate."""
    if len(public_key) != KEY_LEN:
        raise InvalidPublicKey(f"public key must be {KEY_LEN} bytes")
    y = int.from_bytes(public_key, "little") & ((1 << 255) - 1)
    if y >= _CURVE_P:
        raise InvalidPublicKey("non-canonical point encoding")
    denom = (1 - y) % _CURVE_P
    if denom == 0:
        raise InvalidPublicKey("degenerate point")
    u = (1 + y) * pow(denom, -1, _CURVE_P) % _CURVE_P
    return u.to_bytes(KEY_LEN, "little")


@lru_cache(maxsize=8192)
def _derive_cached(private_seed: bytes, peer_public: bytes) -> bytes:
    own_public = _ed_public(private_seed)
    peer_u = _ed_pk_to_x25519(peer_public)
    try:
        raw = _x_private(private_seed).exchange(X25519PublicKey.from_public_bytes(peer_u))
    except ValueError as exc:
        raise InvalidPublicKey(str(exc)) from exc
    lo, hi = sorted((own_public, peer_public))
    kdf = HKDF(algorithm=hashes.SHA256(), length=KEY_LEN, salt=None, info=_KDF_INFO + lo + hi)
    return kdf.derive(raw)


def derive_shared_key(private_key: bytes, peer_public: bytes) -> bytes:
    """32-byte pairwise key; symmetric in roles and bound to both identities."""
    return _derive_cached(bytes(private_key), bytes(peer_public))


def sign_digest(private_seed: bytes, digest: bytes) -> bytes:
    seed, digest = bytes(private_seed), bytes(digest)
    if _sodium is None:
        signature = _ed_private(seed).sign(digest)
    else:
        out = ctypes.create_string_buffer(SIG_LEN)
        # _ed_public refuses a seed of any length but 32, so the secret is 64 bytes.
        _sodium.crypto_sign_detached(out, None, digest, len(digest), _sodium_secret(seed))
        signature = out.raw
    if _signed is not None:
        _signed.append(_ed_public(seed) + signature + digest)
    return signature


def _verify_inline(public_key: bytes, signature: bytes, digest: bytes) -> bool:
    # libsodium reads 32 key and 64 signature bytes unchecked, so only lengths that fit reach it.
    if (
        _sodium is not None
        and len(public_key) == KEY_LEN
        and len(signature) == SIG_LEN
        and _sodium.crypto_sign_verify_detached(signature, digest, len(digest), public_key) == 0
    ):
        return True
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, digest)
        return True
    except (InvalidSignature, ValueError):
        return False


VERDICTS_KEPT = 1 << 15  # handed verdicts not yet taken; past this the oldest is dropped

# Verdicts handed over and not yet taken, oldest first, keyed by public key ||
# signature || digest: unambiguous, since only a key and a signature of the
# right lengths are ever looked up.
_handed: dict = {}


def file_verdict(triple: bytes, verdict: bool) -> None:
    """Hand `verify_digest` the verdict of a (public key || signature || digest) triple, to take once."""
    _handed[triple] = verdict
    if len(_handed) > VERDICTS_KEPT:
        del _handed[next(iter(_handed))]


def drop_verdicts() -> None:
    """Forget every handed verdict not yet taken."""
    _handed.clear()


def verify_digest(public_key: bytes, signature: bytes, digest: bytes) -> bool:
    if len(public_key) != KEY_LEN or len(signature) != SIG_LEN:
        return False
    public_key, signature, digest = bytes(public_key), bytes(signature), bytes(digest)
    verdict = _handed.pop(public_key + signature + digest, None)
    return _verify_inline(public_key, signature, digest) if verdict is None else verdict


_signed: Optional[list] = None  # while a list, sign_digest appends each triple it makes


@contextmanager
def recording_signatures():
    """Inside the block, `sign_digest` appends each (public key || signature
    || digest) triple it makes to the yielded list."""
    global _signed
    _signed = []
    try:
        yield _signed
    finally:
        _signed = None


def verify_triple(triple: bytes) -> bool:
    """A real Ed25519 verification of a triple `recording_signatures` listed."""
    return _verify_inline(triple[:KEY_LEN], triple[KEY_LEN : KEY_LEN + SIG_LEN], triple[KEY_LEN + SIG_LEN :])


def _read_identification(r: Reader) -> bytes:
    key = r.bytes_()
    if len(key) != KEY_LEN:
        raise DecodeError("identification must be a 32-byte public key")
    return key


@dataclass
class ChannelMessage(Record):
    """Inner authenticated unit: counter nonce, timestamp, sender identity, body."""

    timestamp: int  # unix milliseconds
    nonce: int  # per-sender counter, starts at 1
    identification: bytes  # sender public key
    body: bytes  # serialized transaction or query

    WIRE_TAG = 0x01
    LAYOUT = (
        ("timestamp", U64),
        ("nonce", U64),
        ("identification", Codec(enc_bytes, _read_identification)),
        ("body", BYTES),
    )


@dataclass
class SecureEnvelope:
    """Wire unit: cleartext routing hint plus AEAD output.

    ciphertext starts with the random 12-byte AEAD nonce, followed by the
    encryption of encode(message) || signature.
    """

    sender_hint: bytes
    ciphertext: bytes

    def to_bytes(self) -> bytes:
        return self.sender_hint + self.ciphertext

    @classmethod
    def from_bytes(cls, data: bytes) -> "SecureEnvelope":
        if len(data) < KEY_LEN + AEAD_NONCE_LEN + AEAD_TAG_LEN:
            raise DecodeError("envelope too short")
        return cls(sender_hint=data[:KEY_LEN], ciphertext=data[KEY_LEN:])


def seal_message(
    message: ChannelMessage,
    sender_private: bytes,
    receiver_public: bytes,
    rng=None,
) -> SecureEnvelope:
    """Sign the message digest, append the signature, encrypt both.

    rng lets simulations draw the cipher nonce from a seeded stream; by
    default it is fresh OS randomness per call.
    """
    sender_public = _ed_public(bytes(sender_private))
    if message.identification != sender_public:
        raise IdentityMismatch("identification field does not match signing key")
    key = derive_shared_key(sender_private, receiver_public)
    encoded = message.encode()
    signature = sign_digest(sender_private, hashlib.sha256(encoded).digest())
    aead_nonce = rng.randbytes(AEAD_NONCE_LEN) if rng is not None else secrets.token_bytes(AEAD_NONCE_LEN)
    ct = ChaCha20Poly1305(key).encrypt(aead_nonce, encoded + signature, None)
    return SecureEnvelope(sender_hint=sender_public, ciphertext=aead_nonce + ct)


def open_message(envelope: SecureEnvelope, receiver_private: bytes, sender_public: bytes) -> ChannelMessage:
    """Decrypt, verify the embedded signature, and return the message.

    Raises DecryptFailed on wrong keys or any ciphertext tampering, and
    SignatureInvalid when decryption succeeds but authentication does not.
    """
    if envelope.sender_hint != sender_public:
        raise DecryptFailed("sender hint does not match expected sender")
    if len(envelope.ciphertext) < AEAD_NONCE_LEN + AEAD_TAG_LEN:
        raise DecryptFailed("ciphertext too short")
    key = derive_shared_key(receiver_private, sender_public)
    aead_nonce = envelope.ciphertext[:AEAD_NONCE_LEN]
    try:
        plaintext = ChaCha20Poly1305(key).decrypt(aead_nonce, envelope.ciphertext[AEAD_NONCE_LEN:], None)
    except InvalidTag as exc:
        raise DecryptFailed("authentication tag mismatch") from exc
    if len(plaintext) < SIG_LEN:
        raise DecryptFailed("plaintext shorter than a signature")
    encoded, signature = plaintext[:-SIG_LEN], plaintext[-SIG_LEN:]
    try:
        message = ChannelMessage.decode(encoded)
    except DecodeError as exc:
        raise DecryptFailed(f"malformed inner message: {exc}") from exc
    if not verify_digest(sender_public, signature, hashlib.sha256(encoded).digest()):
        raise SignatureInvalid("digest signature does not verify under sender key")
    if message.identification != sender_public:
        raise SignatureInvalid("identification field does not match sender key")
    return message


MODES = ("secure", "plain")
CLOCK_SKEW_MS = 30_000  # largest accepted distance between a message's timestamp and the receiver's clock


def open_wire(raw: bytes, mode: str, receiver_private: bytes, sender_public: Optional[bytes] = None) -> ChannelMessage:
    """Open the bytes that carry a message in channel `mode`, without any
    counter check. With no `sender_public`, a sealed envelope is opened as
    coming from the sender its cleartext hint names.

    Raises ChannelError or DecodeError when the bytes do not open.
    """
    if mode == "secure":
        envelope = SecureEnvelope.from_bytes(raw)
        sender = envelope.sender_hint if sender_public is None else sender_public
        return open_message(envelope, receiver_private, sender)
    return ChannelMessage.decode(raw)


class CounterRejected(ChannelError):
    """The bytes opened, but the message is not its sender's next one; `message` is what opened."""

    def __init__(self, message: ChannelMessage, expected: int):
        super().__init__(f"nonce {message.nonce} at timestamp {message.timestamp}, expected nonce {expected}")
        self.message = message


class NonceReplayed(CounterRejected):
    reason = "nonce_replayed"


class NonceGap(CounterRejected):
    reason = "nonce_gap"


class StaleTimestamp(CounterRejected):
    reason = "stale_timestamp"


class Endpoint:
    """One party's end of every channel it holds: its keys, the channel mode
    and one counter per peer in each direction.

    Single-writer: the owning party must serialize its calls.
    """

    def __init__(self, keypair: KeyPair, mode: str, rng=None):
        self.keypair = keypair
        self.mode = mode
        self.rng = rng  # stream of the cipher nonces; None means fresh OS randomness
        self.last_sent: dict = {}  # peer public key -> last counter sealed to it
        self.last_accepted: dict = {}  # sender public key -> last counter accepted from it

    def seal(self, peer_public: bytes, body: bytes, now_ms: int) -> bytes:
        """The bytes that carry `body` to the peer under the next counter:
        a sealed envelope in secure mode, the plain encoding otherwise."""
        nonce = self.last_sent.get(peer_public, 0) + 1
        self.last_sent[peer_public] = nonce
        message = ChannelMessage(now_ms, nonce, self.keypair.public_key, body)
        if self.mode == "secure":
            return seal_message(message, self.keypair.private_key, peer_public, rng=self.rng).to_bytes()
        return message.encode()

    def open(self, raw: bytes, now_ms: int) -> ChannelMessage:
        """Open the bytes and accept only the sender's next counter inside the skew window.

        Raises a CounterRejected subclass for a message that opens but is not
        accepted, which consumes no counter, and another ChannelError or a
        DecodeError for bytes that do not open.
        """
        message = open_wire(raw, self.mode, self.keypair.private_key)
        expected = self.last_accepted.get(message.identification, 0) + 1
        if message.nonce < expected:
            raise NonceReplayed(message, expected)
        if message.nonce > expected:
            raise NonceGap(message, expected)
        if abs(message.timestamp - now_ms) > CLOCK_SKEW_MS:
            raise StaleTimestamp(message, expected)
        self.last_accepted[message.identification] = message.nonce
        return message
