"""Layer-0 DAG ledger: typed data blocks over registered layer-1 branches.

The layer-0 ledger aggregates independent branches, one per block type
tag, and is the only table of them: it maps each branch id to its tag.
Tag "A" is reserved for the virtual-existence branch mirrored from the
NodeChain; data branches are allocated sequential tags starting at "B".
Every data block carries two arcs into its own branch: a chain arc to
the most recent same-type block, and a pseudorandom arc to an earlier
same-type block chosen by the block's own transaction root. Ordering is
time consensus: ascending timestamp with header-digest tie-break. A block's
chain of narration is its authenticators' tokens: `encode` derives the
digests that chain them, and `decode` refuses digests that do not chain.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, replace
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .consensus import FinalityMode, check_finality
from .errors import (
    BadSignature,
    DuplicateBranch,
    IntegrityViolation,
    NoTransactions,
    UnknownBranch,
)
from .identity import TokenizedUid
from .keys import sign_message, verify_signature
from .wire import BYTES, INT, TEXT, ZERO32, Record, counted, narration, nested, sha256

# The branch id of the NodeChain mirror, which holds tag "A".
VIRTUAL_BRANCH_ID = "virtual-existence"


# ---------------------------------------------------------------------------
# Transactions and Merkle commitment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Transaction(Record):
    """A signed payload from one sender into one branch; its signature covers the rest."""

    sender: bytes
    block_type_tag: str
    payload: bytes
    timestamp: int
    signature: bytes

    NOUN = "transaction"
    FIELDS = (("sender", BYTES), ("block_type_tag", TEXT), ("payload", BYTES),
              ("timestamp", INT), ("signature", BYTES))
    PREFIX = 4

    @classmethod
    def signed(
        cls, key, sender: bytes, tag: str, payload: bytes, timestamp: int
    ) -> "Transaction":
        """A transaction signed by `key`, the private half of `sender`."""
        message = cls.signing_bytes(sender, tag, payload, timestamp)
        return cls(sender, tag, payload, timestamp, sign_message(key, message))

    def digest(self) -> bytes:
        return sha256(self.encode())

    def verify(self) -> bool:
        return verify_signature(self.sender, self.signature, self.prefix())

    def check_decoded(self) -> None:
        if not self.verify():
            raise BadSignature("transaction signature does not verify")


def merkle_root(leaves: list[bytes]) -> bytes:
    """Pairwise SHA-256 tree; an odd node is paired with itself.

    A single leaf is its own root. Empty input is rejected by callers
    before reaching here.
    """
    level = list(leaves)
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [
            sha256(level[i] + level[i + 1]) for i in range(0, len(level), 2)
        ]
    return level[0]


# ---------------------------------------------------------------------------
# Data blocks and the chain of narration
# ---------------------------------------------------------------------------

NARRATION_SEED = ZERO32


def narration_fold(tuids: tuple[TokenizedUid, ...], digest: bytes = NARRATION_SEED) -> bytes:
    """Hash-chain the authenticator tokens onto `digest`:
    d_i = SHA-256(d_{i-1} || tuid_i)."""
    for tuid in tuids:
        digest = sha256(digest + tuid.value)
    return digest


@dataclass(frozen=True)
class DataBlock(Record):
    """One data-exchange block of a layer-1 branch.

    The header digest commits the tag, transaction root, both arcs, and
    the timestamp. Narration accumulates after creation as authenticators
    attest, so it is deliberately outside the header.

    `narration` lists the authenticators' tokens in attestation order, and
    `narrated` is their set, for constant-time membership and finality
    tests. It is derived, so it is never encoded or compared: it is built
    once when a block is constructed or decoded, and `with_narration_entry`
    hands the next block this set extended by one token instead of
    rebuilding it.
    """

    block_type_tag: str
    transactions: tuple[Transaction, ...]
    tx_root: bytes
    prev_same_type: bytes
    random_arc: bytes
    narration: tuple[TokenizedUid, ...]
    timestamp: int
    header_digest: bytes
    narrated: frozenset[TokenizedUid] = field(init=False, compare=False, repr=False)
    narrated_with: InitVar[frozenset[TokenizedUid] | None] = None

    NOUN = "block"
    FIELDS = (("block_type_tag", TEXT), ("tx_root", BYTES), ("prev_same_type", BYTES),
              ("random_arc", BYTES), ("timestamp", INT), ("header_digest", BYTES),
              ("transactions", counted(nested(Transaction))),
              ("narration", narration(TokenizedUid, narration_fold, NARRATION_SEED)))
    PREFIX = 5

    def __post_init__(self, narrated_with: frozenset[TokenizedUid] | None) -> None:
        if narrated_with is None:
            narrated_with = frozenset(self.narration)
        object.__setattr__(self, "narrated", narrated_with)

    def recomputed_header(self) -> bytes:
        return sha256(self.prefix())

    def with_parents(self, prev_same_type: bytes, random_arc: bytes) -> "DataBlock":
        """Attach arcs and seal the header."""
        block = replace(self, prev_same_type=prev_same_type, random_arc=random_arc)
        return replace(block, header_digest=block.recomputed_header())

    def with_narration_entry(self, tuid: TokenizedUid) -> "DataBlock":
        return replace(
            self, narration=self.narration + (tuid,), narrated_with=self.narrated | {tuid}
        )


def build_candidate_block(
    pool: Iterable[Transaction],
    sender: bytes,
    tag: str,
    window: tuple[int, int],
) -> DataBlock:
    """Collect one sender's transactions of one type inside a time window.

    The window is half-open: t_start <= timestamp < t_end. `pool` is read
    once and left as it is. Transactions are ordered canonically by
    (timestamp, digest) and committed under a Merkle root. Arcs and
    narration are attached later; the candidate is unsealed. The block
    timestamp is the window close.
    """
    t_start, t_end = window
    matching = [
        tx
        for tx in pool
        if tx.sender == sender
        and tx.block_type_tag == tag
        and t_start <= tx.timestamp < t_end
    ]
    if not matching:
        raise NoTransactions(
            f"no transactions for sender/tag {tag!r} in [{t_start}, {t_end})"
        )
    for tx in matching:
        if not tx.verify():
            raise BadSignature("pool transaction signature does not verify")
    matching.sort(key=lambda tx: (tx.timestamp, tx.digest()))
    root = merkle_root([tx.digest() for tx in matching])
    return DataBlock(
        block_type_tag=tag,
        transactions=tuple(matching),
        tx_root=root,
        prev_same_type=ZERO32,
        random_arc=ZERO32,
        narration=(),
        timestamp=t_end,
        header_digest=ZERO32,
    )


# ---------------------------------------------------------------------------
# The layer-0 ledger state
# ---------------------------------------------------------------------------

def _tag_for(index: int) -> str:
    """Sequential tag names: A, B, ..., Z, AA, AB, ..."""
    name = ""
    index += 1
    while index:
        index, rem = divmod(index - 1, 26)
        name = chr(ord("A") + rem) + name
    return name


@dataclass(frozen=True)
class LedgerRecord:
    """One node of the layer-0 DAG: a branch genesis marker or a data block."""

    digest: bytes
    tag: str
    timestamp: int
    block: DataBlock | None  # None for genesis markers

    @property
    def is_genesis(self) -> bool:
        return self.block is None


class Layer0Ledger:
    """Append-only DAG of finalized blocks across all branches.

    The ledger owns the branch table. `branches` maps each branch id to its
    tag, in registration order: the virtual-existence branch holds tag A
    from creation, and every registered branch takes the next tag. The
    ledger holds only plain containers, so `copy.deepcopy` copies it, alone
    or inside a `netsim.Network`.
    """

    def __init__(self, virtual_genesis_digest: bytes):
        self._records: dict[bytes, LedgerRecord] = {}
        self._by_tag: dict[str, list[bytes]] = {}  # genesis marker first
        self._tags: dict[str, str] = {}
        self._tx_digests: set[bytes] = set()  # of every finalized transaction
        self.register_branch(VIRTUAL_BRANCH_ID, virtual_genesis_digest, timestamp=0)

    @property
    def branches(self) -> Mapping[str, str]:
        return MappingProxyType(self._tags)

    def register_branch(
        self, branch_id: str, genesis_digest: bytes, timestamp: int
    ) -> str:
        """Add a branch and its genesis marker; return the branch's tag."""
        if branch_id in self._tags:
            raise DuplicateBranch(f"branch id {branch_id!r} already registered")
        tag = _tag_for(len(self._tags))
        self._tags[branch_id] = tag
        record = LedgerRecord(genesis_digest, tag, timestamp, None)
        self._records[record.digest] = record
        self._by_tag[tag] = [record.digest]
        return tag

    def _branch(self, tag: str) -> list[bytes]:
        """The branch's record digests, genesis marker first: the list itself."""
        branch = self._by_tag.get(tag)
        if branch is None:
            raise UnknownBranch(f"no branch registered for tag {tag!r}")
        return branch

    def record(self, digest: bytes) -> LedgerRecord | None:
        return self._records.get(digest)

    def blocks(self, tag: str | None = None) -> list[DataBlock]:
        digests = (
            self._by_tag.get(tag, []) if tag is not None else list(self._records)
        )
        return [
            self._records[d].block
            for d in digests
            if self._records[d].block is not None
        ]

    def select_parents(self, candidate: DataBlock) -> tuple[bytes, bytes]:
        """Deterministic arc choice for a candidate block.

        The chain arc is the newest same-type record; the random arc is the
        record indexed by the candidate's tx_root reduced modulo the branch's
        record count, the genesis marker being index 0. Both are read from
        the branch in place. An unregistered tag raises `UnknownBranch`.
        """
        branch = self._branch(candidate.block_type_tag)
        pick = int.from_bytes(candidate.tx_root, "big") % len(branch)
        return branch[-1], branch[pick]

    def append_block(self, block: DataBlock, roster: Sequence[TokenizedUid],
                     mode: FinalityMode, latest_count: int = 1) -> None:
        """Store a final block after arc and commitment checks: the one way
        a data block enters the ledger, honest or adversarial.

        The tag must name a registered branch (else `UnknownBranch`), and
        the block joins the end of that branch. The header digest must
        verify, which refuses an unsealed candidate's all-zero one. The
        transactions must be strictly increasing by (timestamp, digest): the
        canonical order, with no transaction repeated. The Merkle rule pairs
        an odd last leaf with itself, so a repeated last transaction would
        otherwise keep the block's tx_root (CVE-2012-2459). Every
        transaction must carry the block's tag and come from one sender, as
        `build_candidate_block` collects them. A transaction that an earlier
        block already finalized is refused. The narration must list distinct
        tokens, every one on the `roster`, and `check_finality` must hold.
        Signatures were checked where each transaction entered its block,
        narration digests where the block's bytes did (`DataBlock.decode`).
        """
        branch = self._branch(block.block_type_tag)
        txs = block.transactions
        if not txs or any(
            tx.block_type_tag != block.block_type_tag or tx.sender != txs[0].sender
            for tx in txs
        ):
            raise IntegrityViolation(
                "transactions must share the block's tag and one sender"
            )
        if block.recomputed_header() != block.header_digest:
            raise IntegrityViolation("header digest does not verify")
        if len(block.narrated) != len(block.narration):
            raise IntegrityViolation("narration repeats a token")
        tx_digests = [tx.digest() for tx in block.transactions]
        if merkle_root(tx_digests) != block.tx_root:
            raise IntegrityViolation("tx_root does not match transactions")
        order = [(tx.timestamp, d) for tx, d in zip(block.transactions, tx_digests)]
        if any(a >= b for a, b in zip(order, order[1:])):
            raise IntegrityViolation("transactions repeated or out of canonical order")
        if not self._tx_digests.isdisjoint(tx_digests):
            raise IntegrityViolation("transaction already finalized")
        for arc in (block.prev_same_type, block.random_arc):
            target = self._records.get(arc)
            if target is None or target.tag != block.block_type_tag:
                raise IntegrityViolation("arc does not reference a same-type record")
            if target.timestamp >= block.timestamp:
                raise IntegrityViolation("arc must reference a strictly earlier record")
        if not block.narrated.issubset(roster):
            raise IntegrityViolation("narration names a token not on the roster")
        if not check_finality(block, roster, mode, latest_count):
            raise IntegrityViolation("narration is not final")
        record = LedgerRecord(block.header_digest, block.block_type_tag,
                              block.timestamp, block)
        self._records[record.digest] = record
        branch.append(record.digest)
        self._tx_digests.update(tx_digests)

    def topological_order(self) -> list[bytes]:
        """All record digests ascending by (timestamp, digest)."""
        return [
            r.digest
            for r in sorted(self._records.values(), key=lambda r: (r.timestamp, r.digest))
        ]

    def export_text(self) -> str:
        """One line per record for trace inspection.

        Format: `digest tag kind prev random timestamp narration`, with
        `-` standing in for the absent arcs of a genesis marker.
        """
        lines = []
        for digest in self.topological_order():
            rec = self._records[digest]
            if rec.is_genesis:
                lines.append(
                    f"{rec.digest.hex()} {rec.tag} genesis - - {rec.timestamp} 0"
                )
            else:
                b = rec.block
                lines.append(
                    f"{rec.digest.hex()} {rec.tag} data {b.prev_same_type.hex()} "
                    f"{b.random_arc.hex()} {rec.timestamp} {len(b.narration)}"
                )
        return "\n".join(lines) + "\n"
