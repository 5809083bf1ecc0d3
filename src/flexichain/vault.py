"""Offline distributed vault binding real UIDs to on-chain tokens.

Every backup and edge node that has joined holds the network's one vault
log; subscriber and CPS nodes never hold one. The vault is "offline" in the
sense that it only answers calls originating in the owning node's local
context -- a lookup whose provenance is a network message is rejected
before any entry is read. Lookups are counted by origin so a trace audit
can prove that no remote read ever succeeded.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import (
    ConsistencyViolation,
    DuplicateIdentity,
    IndexGap,
    OfflineViolation,
    Unauthorized,
)
from .identity import TokenizedUid, Uid, tokenize_uid
from .wire import BYTES, INT, TEXT, Record, encode_log, token


class NodeRole(enum.Enum):
    BACKUP = "backup"
    EDGE = "edge"
    SUBSCRIBER = "subscriber"
    CPS_IOT = "cps"


class CallOrigin(enum.Enum):
    LOCAL = "local"
    REMOTE = "remote"


#: Roles allowed to write vault entries and respond to enrollments.
FULL_NODE_ROLES = frozenset({NodeRole.BACKUP, NodeRole.EDGE})


@dataclass(frozen=True)
class VaultEntry(Record):
    """One enrollment record: the token/real-UID binding plus its provenance."""

    enrollment_index: int
    real_uid: Uid
    tuid: TokenizedUid
    extrinsic_digest: bytes
    module_id: str

    NOUN = "vault entry"
    FIELDS = (("enrollment_index", INT), ("real_uid", token(Uid)),
              ("tuid", token(TokenizedUid)), ("extrinsic_digest", BYTES),
              ("module_id", TEXT))


class Vault:
    """A vault log. Single writer, provenance-gated reads."""

    def __init__(self, token_salt: bytes):
        self._token_salt = token_salt
        self._entries: list[VaultEntry] = []
        self._by_tuid: dict[bytes, VaultEntry] = {}
        self._extrinsic_digests: set[bytes] = set()
        self._reads = {CallOrigin.LOCAL: 0, CallOrigin.REMOTE: 0}
        self._remote_rejections = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple[VaultEntry, ...]:
        return tuple(self._entries)

    def append(self, entry: VaultEntry, caller_role: NodeRole) -> None:
        if caller_role not in FULL_NODE_ROLES:
            raise Unauthorized(f"role {caller_role.value} cannot write the vault")
        if entry.enrollment_index != len(self._entries) + 1:
            raise IndexGap(
                f"expected index {len(self._entries) + 1}, got {entry.enrollment_index}"
            )
        if tokenize_uid(entry.real_uid, self._token_salt) != entry.tuid:
            raise ConsistencyViolation("tuid does not tokenize from real_uid")
        # Every stored entry passed the tokenize check above under this same
        # salt, so a repeated real UID brings a repeated TUID: this one
        # check also rejects a real UID that is already bound.
        if entry.tuid.value in self._by_tuid:
            raise DuplicateIdentity("tuid or real uid already bound")
        self._entries.append(entry)
        self._by_tuid[entry.tuid.value] = entry
        self._extrinsic_digests.add(entry.extrinsic_digest)

    def holds_extrinsic(self, digest: bytes) -> bool:
        """Whether some entry was enrolled with this extrinsic digest."""
        return digest in self._extrinsic_digests

    def lookup(self, tuid: TokenizedUid, origin: CallOrigin) -> VaultEntry | None:
        """Return the entry for a token, or None. Rejects remote provenance."""
        if origin is CallOrigin.REMOTE:
            self._remote_rejections += 1
            raise OfflineViolation("vault is offline: remote lookups are rejected")
        entry = self._by_tuid.get(tuid.value)
        self._reads[origin] += 1
        return entry

    def entry_at(self, enrollment_index: int) -> VaultEntry | None:
        """Positional access for chain verification (local use only)."""
        if 1 <= enrollment_index <= len(self._entries):
            return self._entries[enrollment_index - 1]
        return None

    def audit(self) -> dict[str, int]:
        """Read counters by provenance. remote_reads must stay 0 forever."""
        return {
            "local_reads": self._reads[CallOrigin.LOCAL],
            "remote_reads": self._reads[CallOrigin.REMOTE],
            "remote_rejections": self._remote_rejections,
        }

    def serialize(self) -> bytes:
        """Canonical vault file: length-prefixed entries in enrollment order."""
        return encode_log(self._entries)
