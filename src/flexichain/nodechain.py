"""NodeChain: the linked ledger of virtual existence blocks.

Each enrolled node is mirrored on chain by one virtual existence block
holding its tokenized UID, constructed public key, and extrinsic digest.
Blocks are linked by header digests, and the Virtual Existence State (VES)
-- a monotone counter plus the head digest -- is the version every node
must match before it may authenticate. Because the extrinsic digest is
committed inside the header, any hardware change on a node shows up as a
header mismatch that every ledger holder can observe.

Every block, genesis included, enters through `append_virtual_block`, called
by the binding step in `consensus`; `verify_chain` replays its derivation.

Full-mode `verify_chain` costs one scrypt derivation per block. Each takes
the block's extrinsic digest and the previous vault entry's UID, both known
before any derivation runs, so the derivations are independent: they go to
`workers.fork_map`, which places them. Under 32 MiB of scrypt memory in all
they run in this process; otherwise in no more processes than fit together
in the scrypt memory of one join. Threads would not help, since
`cryptography`'s scrypt holds the GIL.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import partial

from .errors import (
    EmptyChain,
    IntegrityViolation,
    StaleState,
    UnknownNode,
)
from .identity import (
    MAX_SCRYPT_MEMORY,
    ExtrinsicParameters,
    KdfParameters,
    TokenizedUid,
    Uid,
    derive_uid,
    hash_extrinsic,
    scrypt_memory,
    tokenize_uid,
    zero_uid,
)
from .wire import BYTES, INT, ZERO32, Record, decode_log, encode_log, sha256, token
from .workers import fork_map


@dataclass(frozen=True)
class VirtualExistenceBlock(Record):
    """On-chain mirror of one enrolled node; its header digest commits the fields before it."""

    tuid: TokenizedUid
    constructed_public_key: bytes
    prev_link: bytes
    nns_index: int
    timestamp: int
    extrinsic_digest: bytes
    header_digest: bytes

    NOUN = "block"
    FIELDS = (("tuid", token(TokenizedUid)), ("constructed_public_key", BYTES),
              ("prev_link", BYTES), ("nns_index", INT), ("timestamp", INT),
              ("extrinsic_digest", BYTES), ("header_digest", BYTES))
    PREFIX = 6

    @classmethod
    def create(
        cls,
        tuid: TokenizedUid,
        constructed_public_key: bytes,
        prev_link: bytes,
        nns_index: int,
        timestamp: int,
        extrinsic_digest: bytes,
    ) -> "VirtualExistenceBlock":
        block = cls(tuid, constructed_public_key, prev_link, nns_index, timestamp,
                    extrinsic_digest, header_digest=ZERO32)
        return replace(block, header_digest=block.recomputed_header())

    def recomputed_header(self) -> bytes:
        return sha256(self.prefix())


@dataclass(frozen=True)
class VesState:
    """Virtual Existence State: ledger version counter and head digest."""

    index: int
    head_digest: bytes


class ViolationKind(enum.Enum):
    LINK_BREAK = "LinkBreak"
    HEADER_MISMATCH = "HeaderMismatch"
    TOKEN_MISMATCH = "TokenMismatch"
    INDEX_GAP = "IndexGap"


@dataclass(frozen=True)
class Violation:
    """First failing position found by verify_chain."""

    index: int
    kind: ViolationKind


class NodeChainLedger:
    """Append-only chain of virtual existence blocks.

    Appends are serialized through a single writer; the block tuple handed
    out to readers is immutable.
    """

    def __init__(self):
        self._blocks: list[VirtualExistenceBlock] = []

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def blocks(self) -> tuple[VirtualExistenceBlock, ...]:
        return tuple(self._blocks)

    @property
    def ves(self) -> VesState:
        if not self._blocks:
            return VesState(index=0, head_digest=ZERO32)
        return VesState(index=len(self._blocks), head_digest=self._blocks[-1].header_digest)

    def block_at(self, nns_index: int) -> VirtualExistenceBlock:
        if not 1 <= nns_index <= len(self._blocks):
            raise UnknownNode(f"no block at index {nns_index}")
        return self._blocks[nns_index - 1]

    def serialize(self) -> bytes:
        return encode_log(self._blocks)

    @classmethod
    def deserialize(cls, data: bytes) -> "NodeChainLedger":
        ledger = cls()
        ledger._blocks = decode_log(VirtualExistenceBlock, data)
        return ledger


def append_virtual_block(ledger: NodeChainLedger, block: VirtualExistenceBlock) -> None:
    """Append the next virtual block after checking index, link, and header."""
    ves = ledger.ves
    if block.nns_index != ves.index + 1:
        raise StaleState(
            f"expected nns_index {ves.index + 1}, got {block.nns_index}"
        )
    if block.prev_link != ves.head_digest:
        raise IntegrityViolation("prev_link does not match chain head")
    if block.recomputed_header() != block.header_digest:
        raise IntegrityViolation("header digest does not verify")
    ledger._blocks.append(block)


def verify_chain(
    ledger: NodeChainLedger,
    kdf: KdfParameters | None = None,
    vault=None,
    token_salt: bytes | None = None,
) -> Violation | None:
    """Walk the chain; return None if intact, else the first violation.

    Link-only mode checks indices, links, and header digests. Full mode,
    with `kdf`, `vault` and `token_salt` all given, also requires every
    block's TUID to tokenize from the vault's real UID and recomputes the
    whole UID derivation chain entry by entry. Any other mix of the three
    is a TypeError.

    The cheap checks run first, in chain order, up to the first failure;
    the derivations of the blocks before it run after them, in the runs
    `workers.fork_map` places. The violation at the lowest index wins, so
    the result is the one a single block-by-block walk would return.
    """
    given = [arg is not None for arg in (kdf, vault, token_salt)]
    if any(given) != all(given):
        raise TypeError("verify_chain takes kdf, vault and token_salt together or none")
    full_mode = all(given)
    if len(ledger) == 0:
        raise EmptyChain("cannot verify an empty chain")
    prev_digest = ZERO32
    prev_uid = zero_uid(kdf.output_length) if full_mode else None
    jobs: list[tuple[int, bytes, Uid, Uid]] = []
    found = None
    for i, block in enumerate(ledger.blocks, start=1):
        if block.nns_index != i:
            found = Violation(i, ViolationKind.INDEX_GAP)
        elif block.prev_link != prev_digest:
            found = Violation(i, ViolationKind.LINK_BREAK)
        elif block.recomputed_header() != block.header_digest:
            found = Violation(i, ViolationKind.HEADER_MISMATCH)
        elif full_mode:
            entry = vault.entry_at(i)
            if (entry is None
                    or tokenize_uid(entry.real_uid, token_salt) != block.tuid
                    or entry.extrinsic_digest != block.extrinsic_digest):
                found = Violation(i, ViolationKind.TOKEN_MISMATCH)
            else:
                jobs.append((i, block.extrinsic_digest, prev_uid, entry.real_uid))
                prev_uid = entry.real_uid
        if found is not None:
            break
        prev_digest = block.header_digest
    if not jobs:
        return found
    memory = scrypt_memory(kdf.cost, kdf.block_size, kdf.parallelism)
    # All processes together hold no more scrypt memory than one join may.
    most = MAX_SCRYPT_MEMORY // memory if len(jobs) * memory >= POOL_SCRYPT_WORK else 1
    mismatches = fork_map(partial(_first_mismatch, kdf=kdf), jobs, most)
    return next((Violation(i, ViolationKind.TOKEN_MISMATCH)
                 for i in mismatches if i is not None), found)


# Total scrypt memory (derivations times `scrypt_memory`) below which a full
# verification derives serially: under it, forking the workers costs more
# than they save. Measured on 2 CPUs (ROADMAP.md, Baseline).
POOL_SCRYPT_WORK = 32 << 20


def _first_mismatch(
    jobs: list[tuple[int, bytes, Uid, Uid]], kdf: KdfParameters
) -> int | None:
    """Chain index of the first (index, extrinsic digest, previous UID,
    expected UID) whose derivation differs, or None.

    It reads `derive_uid` by its global name when called, so a wrapper
    patched in, as the benchmark's tracer does, runs here and in a forked
    worker alike.
    """
    for i, digest, prev_uid, expected in jobs:
        if derive_uid(digest, prev_uid, kdf) != expected:
            return i
    return None


def detect_header_change(
    block: VirtualExistenceBlock, reported: ExtrinsicParameters
) -> bytes | None:
    """Compare freshly reported parameters against `block`, the node's
    on-chain block.

    Returns None when nothing changed, otherwise the new container-1 digest,
    so observers can see exactly what the node now claims to be.
    """
    new_digest, _ = hash_extrinsic(reported)
    if new_digest == block.extrinsic_digest:
        return None
    return new_digest
