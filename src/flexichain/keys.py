"""Ed25519 signing primitives for constructed identities and trusted modules.

Ed25519 is used everywhere a signature appears: constructed node identities
sign transactions, trusted modules sign enrollment requests. Signatures are
deterministic, which keeps replayed protocol runs byte-identical.
"""

from __future__ import annotations

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

PUBLIC_KEY_LENGTH = 32
SEED_LENGTH = 32


def signing_key_from_seed(seed: bytes) -> Ed25519PrivateKey:
    """Deterministically build a private key from 32 seed bytes."""
    if len(seed) != SEED_LENGTH:
        raise ValueError(f"seed must be {SEED_LENGTH} bytes, got {len(seed)}")
    return Ed25519PrivateKey.from_private_bytes(seed)


def public_bytes(key: Ed25519PrivateKey) -> bytes:
    return key.public_key().public_bytes_raw()


def sign_message(key: Ed25519PrivateKey, message: bytes) -> bytes:
    return key.sign(message)


def verify_signature(public: bytes, signature: bytes, message: bytes) -> bool:
    """True iff signature verifies; malformed keys or signatures are False."""
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


def is_valid_public_key(public: bytes) -> bool:
    if len(public) != PUBLIC_KEY_LENGTH:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(public)
        return True
    except ValueError:
        return False
