"""Node identity derivation: extrinsic parameters, UIDs, and tokens.

A node's real unique identity (UID) is derived from its extrinsic
parameters -- the manufacturing values it presents at enrollment -- through
a two-stage generator: SHA-256 binds the extrinsic digest to the UID of the
previously enrolled node, and scrypt stretches the result into the
128-byte UID. Only a one-way 32-byte token of the UID (the TUID) ever
appears on chain; the match layer checks a claimed UID against its token
without revealing anything about other UIDs.

scrypt runs on `cryptography`'s kernel (the OpenSSL it bundles), in
`scrypt_kdf` only: every join, genesis and full-mode verification derives
through it, the last sometimes in worker processes (`nodechain` says
when). Before anything is allocated, `scrypt_kdf` refuses what
`hashlib.scrypt` refused: an allocation of 128 * r * (N + p + 2) bytes
beyond a budget of scrypt's memory plus 32 MiB, a budget beyond
2^31 - 1, and an output length outside [1, 2^31 - 1]. On 2 vCPUs
(Python 3.11, the cryptography 48 wheel with its bundled OpenSSL 4.0) one
128-byte derivation took 10-12 us at cost 2, r 1 and 25-27 ms at cost
2^13, r 8, against 16-18 us and 27-30 ms for `hashlib.scrypt` (OpenSSL
3.0), which returns the same bytes. A `cryptography` built against the
system OpenSSL was not measured.

The scrypt parameters and the tokenization salt are network-secret
configuration. They are never embedded in blocks or message payloads.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass

from cryptography.hazmat.primitives.kdf.scrypt import Scrypt

from .errors import InvalidKdf, InvalidParameters
from .keys import is_valid_public_key
from .wire import BYTES, INT, Immutable, Record, sha256, wire

UID_LENGTH = 128
TUID_LENGTH = 32
MAC_LENGTH = 6
FIRMWARE_DIGEST_LENGTH = 32
# Every join runs scrypt, whose memory `scrypt_memory` counts. `scrypt_kdf`
# allows up to about 2 GiB per derivation; a scenario stops at 256 MiB, 16
# times the default (cost 2^14, block_size 8, parallelism 1), and a full
# verification's derivations together never hold more at once.
MAX_SCRYPT_MEMORY = 2**28


@dataclass(frozen=True)
class ExtrinsicParameters(Record):
    """Manufacturing and constructed identity values presented at enrollment.

    The first six fields are the manufacturing identity; their `prefix()` is
    hashed into container 1. The constructed public ID travels separately as
    container 2 and doubles as the node's transaction-signing key.
    """

    mac_address: bytes = wire(BYTES)
    firmware_digest: bytes = wire(BYTES)
    puf_signature: bytes = wire(BYTES)
    process_power_class: int = wire(INT)
    location_tag: bytes = wire(BYTES)
    ip_address: bytes = wire(BYTES)
    constructed_public_id: bytes = wire(BYTES)

    NOUN = "extrinsic parameters"
    PREFIX = 6

    def __post_init__(self):
        if len(self.mac_address) != MAC_LENGTH:
            raise InvalidParameters("mac_address must be 6 bytes")
        if len(self.firmware_digest) != FIRMWARE_DIGEST_LENGTH:
            raise InvalidParameters("firmware_digest must be 32 bytes")
        if not self.puf_signature:
            raise InvalidParameters("puf_signature must be non-empty")
        if not 0 <= self.process_power_class < 2**32:
            raise InvalidParameters("process_power_class out of range")
        if not self.location_tag:
            raise InvalidParameters("location_tag must be non-empty")
        if len(self.ip_address) not in (4, 16):
            raise InvalidParameters("ip_address must be 4 or 16 bytes")
        if not is_valid_public_key(self.constructed_public_id):
            raise InvalidParameters("constructed_public_id is not a valid public key")


@dataclass(frozen=True)
class Uid(Immutable):
    """Real node identity: the scrypt-derived key. Kept off chain."""

    value: bytes

    def __post_init__(self):
        if not self.value:
            raise InvalidParameters("uid must be non-empty")


@dataclass(frozen=True)
class TokenizedUid(Immutable):
    """One-way 32-byte token of a UID; the only identity form stored on chain."""

    value: bytes

    def __post_init__(self):
        if len(self.value) != TUID_LENGTH:
            raise InvalidParameters("tuid must be 32 bytes")


@dataclass(frozen=True)
class KdfParameters(Immutable):
    """scrypt work parameters OpenSSL accepts, plus network salt. Secret network configuration."""

    cost: int
    block_size: int
    parallelism: int
    salt: bytes
    output_length: int = UID_LENGTH

    def __post_init__(self):
        if self.cost <= 1 or self.cost & (self.cost - 1) != 0:
            raise InvalidKdf("cost must be a power of two greater than 1")
        if self.block_size < 1:
            raise InvalidKdf("block_size must be positive")
        if self.parallelism < 1:
            raise InvalidKdf("parallelism must be positive")
        if self.output_length < 1:
            raise InvalidKdf("output_length must be positive")
        scrypt_budget(self.cost, self.block_size, self.parallelism)


def zero_uid(length: int = UID_LENGTH) -> Uid:
    """The all-zero previous UID anchoring the genesis derivation."""
    return Uid(b"\x00" * length)


def scrypt_memory(cost: int, block_size: int, parallelism: int) -> int:
    """scrypt's working memory for these parameters: 128 * N * r * p bytes."""
    return 128 * cost * block_size * parallelism


def scrypt_budget(cost: int, block_size: int, parallelism: int) -> int:
    """scrypt's memory plus 32 MiB: the most hashlib.scrypt let it allocate.

    InvalidKdf where OpenSSL refuses the parameters: N >= 2^(16 r), found by
    bit length, or B and V, 128 * r * (N + p + 2) bytes, beyond the budget.
    """
    if cost.bit_length() > 16 * block_size:
        raise InvalidKdf("scrypt refuses these parameters: cost >= 2^(16 * block_size)")
    budget = scrypt_memory(cost, block_size, parallelism) + (32 << 20)
    allocated = 128 * block_size * (cost + parallelism + 2)
    if allocated > budget:
        raise InvalidKdf(f"scrypt refuses these parameters: B and V need {allocated} "
                         f"bytes, beyond the budget of {budget}")
    return budget


def scrypt_kdf(
    password: bytes,
    salt: bytes,
    cost: int,
    block_size: int,
    parallelism: int,
    length: int,
) -> bytes:
    """The raw scrypt submodule (RFC 7914), on `cryptography`'s kernel.

    InvalidKdf where OpenSSL refuses the parameters (`scrypt_budget`), and
    where they break the memory or length limits the module docstring
    states, which also gives the measured cost per call.
    """
    # `cryptography` lets OpenSSL allocate without limit, so hashlib.scrypt's
    # limits are checked first: the budget and the length must fit a C int.
    if scrypt_budget(cost, block_size, parallelism) > 2**31 - 1:
        raise InvalidKdf("scrypt refuses these parameters: their budget exceeds 2^31 - 1")
    if not 1 <= length <= 2**31 - 1:
        raise InvalidKdf(f"scrypt refuses these parameters: length {length} "
                         f"is not in [1, 2^31 - 1]")
    try:
        return Scrypt(salt=salt, length=length, n=cost, r=block_size,
                      p=parallelism).derive(password)
    except (ValueError, OverflowError, MemoryError) as exc:
        raise InvalidKdf(f"scrypt refuses these parameters: {exc}") from exc


def hash_extrinsic(params: ExtrinsicParameters) -> tuple[bytes, bytes]:
    """Split parameters into the two request containers.

    Container 1 is the SHA-256 digest of the canonical manufacturing
    serialization; container 2 is the constructed public ID verbatim.
    """
    if not isinstance(params, ExtrinsicParameters):
        raise InvalidParameters("expected ExtrinsicParameters")
    return sha256(params.prefix()), params.constructed_public_id


def derive_uid(container1: bytes, prev_uid: Uid, kdf: KdfParameters) -> Uid:
    """Generate a UID: SHA-256(container1 || previous UID) fed into scrypt."""
    if len(container1) != 32:
        raise InvalidParameters("container1 must be a 32-byte digest")
    if not isinstance(kdf, KdfParameters):
        raise InvalidKdf("expected KdfParameters")
    password = sha256(container1 + prev_uid.value)
    derived = scrypt_kdf(
        password,
        kdf.salt,
        kdf.cost,
        kdf.block_size,
        kdf.parallelism,
        kdf.output_length,
    )
    return Uid(derived)


def tokenize_uid(uid: Uid, token_salt: bytes) -> TokenizedUid:
    """One-way token: SHA-256(uid || salt)."""
    return TokenizedUid(sha256(uid.value + token_salt))


def match_layer(tuid: TokenizedUid, uid: Uid, token_salt: bytes) -> bool:
    """Check that a claimed UID tokenizes to the on-chain TUID.

    Comparison is constant-shape via hmac.compare_digest.
    """
    expected = tokenize_uid(uid, token_salt)
    return hmac.compare_digest(expected.value, tuid.value)
