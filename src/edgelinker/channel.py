"""Identity keys and the authenticated device-to-fog channel.

Every entity holds one static keypair; the 32-byte public key is also its
network identity. Messages travel sign-then-encrypt: the sender signs the
SHA-256 digest of the canonically encoded message, appends the 64-byte
signature, and encrypts the pair with ChaCha20-Poly1305 under a pairwise
Diffie-Hellman key. The symmetric key is derived through HKDF over the raw
X25519 secret plus both identity keys sorted lexicographically, so it is
useless between any other pair of parties.

Replay protection is an application-level counter: each sender's nonce must
increase by exactly one per accepted message, and timestamps must fall
inside a configurable skew window.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass, field
from enum import Enum
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

from .codec import DecodeError, Reader, enc_bytes, enc_u64, enc_u8

KEY_LEN = 32
SIG_LEN = 64
AEAD_NONCE_LEN = 12
AEAD_TAG_LEN = 16

_KDF_INFO = b"edgelinker/channel/v1"
_CURVE_P = 2**255 - 19


class ChannelError(Exception):
    """Base class for secure-channel failures."""


class InvalidPublicKey(ChannelError):
    pass


class IdentityMismatch(ChannelError):
    pass


class DecryptFailed(ChannelError):
    pass


class SignatureInvalid(ChannelError):
    pass


@dataclass(frozen=True)
class KeyPair:
    """Static identity keypair; public_key is the network identity."""

    public_key: bytes
    private_key: bytes


def generate_keypair(seed: bytes) -> KeyPair:
    """Derive a keypair from 32 bytes of entropy; same seed, same keys."""
    if len(seed) != KEY_LEN:
        raise ValueError(f"seed must be {KEY_LEN} bytes, got {len(seed)}")
    public = _ed_private(seed).public_key().public_bytes_raw()
    return KeyPair(public_key=public, private_key=seed)


@lru_cache(maxsize=4096)
def _ed_private(seed: bytes) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(seed)


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
    u = (1 + y) * pow(denom, _CURVE_P - 2, _CURVE_P) % _CURVE_P
    return u.to_bytes(KEY_LEN, "little")


@lru_cache(maxsize=8192)
def _derive_cached(private_seed: bytes, peer_public: bytes) -> bytes:
    own_public = _ed_private(private_seed).public_key().public_bytes_raw()
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
    return _ed_private(bytes(private_seed)).sign(digest)


@lru_cache(maxsize=1 << 16)
def _verify_cached(public_key: bytes, signature: bytes, digest: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, digest)
        return True
    except (InvalidSignature, ValueError):
        return False


def verify_digest(public_key: bytes, signature: bytes, digest: bytes) -> bool:
    if len(public_key) != KEY_LEN or len(signature) != SIG_LEN:
        return False
    return _verify_cached(bytes(public_key), bytes(signature), bytes(digest))


@dataclass
class ChannelMessage:
    """Inner authenticated unit: counter nonce, timestamp, sender identity, body."""

    timestamp: int  # unix milliseconds
    nonce: int  # per-sender counter, starts at 1
    identification: bytes  # sender public key
    body: bytes  # serialized transaction or query

    WIRE_TAG = 0x01

    def encode(self) -> bytes:
        return (
            enc_u8(self.WIRE_TAG)
            + enc_u64(self.timestamp)
            + enc_u64(self.nonce)
            + enc_bytes(self.identification)
            + enc_bytes(self.body)
        )

    @classmethod
    def decode(cls, data: bytes) -> "ChannelMessage":
        r = Reader(data)
        r.expect_tag(cls.WIRE_TAG)
        timestamp = r.u64()
        nonce = r.u64()
        identification = r.bytes_()
        body = r.bytes_()
        r.expect_eof()
        if len(identification) != KEY_LEN:
            raise DecodeError("identification must be a 32-byte public key")
        return cls(timestamp=timestamp, nonce=nonce, identification=identification, body=body)


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
    aead_nonce: Optional[bytes] = None,
    rng=None,
) -> SecureEnvelope:
    """Sign the message digest, append the signature, encrypt both.

    aead_nonce/rng exist so simulations can draw the cipher nonce from a
    seeded stream; by default it is fresh OS randomness per call.
    """
    sender_public = _ed_private(bytes(sender_private)).public_key().public_bytes_raw()
    if message.identification != sender_public:
        raise IdentityMismatch("identification field does not match signing key")
    key = derive_shared_key(sender_private, receiver_public)
    encoded = message.encode()
    signature = sign_digest(sender_private, hashlib.sha256(encoded).digest())
    if aead_nonce is None:
        aead_nonce = rng.randbytes(AEAD_NONCE_LEN) if rng is not None else secrets.token_bytes(AEAD_NONCE_LEN)
    if len(aead_nonce) != AEAD_NONCE_LEN:
        raise ValueError("AEAD nonce must be 12 bytes")
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


def seal_wire(message: ChannelMessage, mode: str, sender_private: bytes, receiver_public: bytes, rng=None) -> bytes:
    """The bytes that carry `message` in channel `mode`: a sealed envelope, or the plain encoding."""
    if mode == "secure":
        return seal_message(message, sender_private, receiver_public, rng=rng).to_bytes()
    return message.encode()


def open_wire(raw: bytes, mode: str, receiver_private: bytes, sender_public: Optional[bytes] = None) -> ChannelMessage:
    """Inverse of seal_wire. With no `sender_public`, a sealed envelope is
    opened as coming from the sender its cleartext hint names.

    Raises ChannelError or DecodeError when the bytes do not open.
    """
    if mode == "secure":
        envelope = SecureEnvelope.from_bytes(raw)
        sender = envelope.sender_hint if sender_public is None else sender_public
        return open_message(envelope, receiver_private, sender)
    return ChannelMessage.decode(raw)


class RejectReason(str, Enum):
    NONCE_REPLAYED = "nonce_replayed"
    NONCE_GAP = "nonce_gap"
    STALE_TIMESTAMP = "stale_timestamp"


@dataclass
class ReplayVerdict:
    accepted: bool
    reason: Optional[RejectReason] = None
    expected_nonce: int = 0


@dataclass
class ReplayState:
    """Highest accepted counter per sender, plus the timestamp window.

    Single-writer: the owning node must serialize check_and_record calls.
    """

    last_nonce: dict = field(default_factory=dict)
    clock_skew_ms: int = 30_000

    def check_and_record(self, message: ChannelMessage, now_ms: int) -> ReplayVerdict:
        """Accept only the next counter value inside the skew window."""
        last = self.last_nonce.get(message.identification, 0)
        expected = last + 1
        if message.nonce <= last:
            return ReplayVerdict(False, RejectReason.NONCE_REPLAYED, expected)
        if message.nonce > expected:
            return ReplayVerdict(False, RejectReason.NONCE_GAP, expected)
        if abs(message.timestamp - now_ms) > self.clock_skew_ms:
            return ReplayVerdict(False, RejectReason.STALE_TIMESTAMP, expected)
        self.last_nonce[message.identification] = message.nonce
        return ReplayVerdict(True, None, expected)

    def observe_floor(self, sender: bytes, nonce: int) -> None:
        """Raise the stored floor, e.g. when rebuilding from ledger history."""
        if nonce > self.last_nonce.get(sender, 0):
            self.last_nonce[sender] = nonce
