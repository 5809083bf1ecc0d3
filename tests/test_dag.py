"""Layer-0 DAG tests: Merkle commitment, arcs, ordering, branches."""

import dataclasses
import hashlib
import random
import struct
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexichain.consensus import FinalityMode
from flexichain.dag import (
    DataBlock,
    Layer0Ledger,
    Transaction,
    build_candidate_block,
    merkle_root,
    narration_fold,
)
from flexichain.errors import (
    BadSignature,
    DuplicateBranch,
    IntegrityViolation,
    NoTransactions,
    ProtocolError,
    UnknownBranch,
)
from flexichain.identity import TokenizedUid
from flexichain.keys import public_bytes
from flexichain.netsim import ScenarioConfig, run_scenario
from flexichain.wire import ZERO32, encode_fields, lp

from conftest import make_signing_key, material

VIRTUAL_GENESIS = material("dag/virtual-genesis", 32)
DEMO = str(resources.files("flexichain") / "scenarios" / "demo.json")
# The one enrolled identity of the unit-test ledger: a block it narrates is
# final against ROSTER.
NARRATOR = TokenizedUid(material("dag/narrator", 32))
ROSTER = [NARRATOR]
EXHAUSTIVE, NARRATED = FinalityMode.EXHAUSTIVE, FinalityMode.NARRATED


def signed_tx(label: str, tag: str = "B", timestamp: int = 100) -> Transaction:
    key = make_signing_key(label)
    sender = public_bytes(key)
    payload = material(f"dag/payload/{label}", 24)
    return Transaction.signed(key, sender, tag, payload, timestamp)


def ledger_with_branch() -> tuple[Layer0Ledger, str]:
    ledger = Layer0Ledger(VIRTUAL_GENESIS)
    tag = ledger.register_branch("telemetry", material("dag/branch-b", 32), timestamp=1)
    return ledger, tag


def sealed_block(
    ledger: Layer0Ledger, label: str, tag: str, at: int, narrators=(NARRATOR,)
) -> DataBlock:
    tx = signed_tx(label, tag, timestamp=at - 1)
    candidate = build_candidate_block([tx], tx.sender, tag, (at - 2, at))
    prev, rand = ledger.select_parents(candidate)
    block = candidate.with_parents(prev, rand)
    for tuid in narrators:
        block = block.with_narration_entry(tuid)
    return block


# ---------------------------------------------------------------------------
# Merkle commitment
# ---------------------------------------------------------------------------

def reference_merkle(leaves):
    """Independent recursive oracle with the same duplicate-last rule."""
    if len(leaves) == 1:
        return leaves[0]
    if len(leaves) % 2 == 1:
        leaves = leaves + [leaves[-1]]
    parents = [
        hashlib.sha256(leaves[i] + leaves[i + 1]).digest()
        for i in range(0, len(leaves), 2)
    ]
    return reference_merkle(parents)


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 7, 8, 13])
def test_merkle_root_matches_recursive_oracle(count):
    leaves = [material(f"dag/leaf/{i}", 32) for i in range(count)]
    assert merkle_root(leaves) == reference_merkle(leaves)


def test_merkle_mutation_changes_root():
    rng = random.Random(0x3E1F)
    for _ in range(40):
        count = rng.randrange(1, 10)
        leaves = [rng.randbytes(32) for _ in range(count)]
        root = merkle_root(leaves)
        victim = rng.randrange(count)
        mutated = bytearray(leaves[victim])
        mutated[rng.randrange(32)] ^= 1 << rng.randrange(8)
        leaves[victim] = bytes(mutated)
        assert merkle_root(leaves) != root


# ---------------------------------------------------------------------------
# Transactions and candidate blocks
# ---------------------------------------------------------------------------

def test_transaction_signature_round_trip():
    tx = signed_tx("alice")
    assert tx.verify()
    tampered = dataclasses.replace(tx, payload=b"forged")
    assert not tampered.verify()


def test_transaction_encode_decode_round_trip():
    tx = signed_tx("alice")
    # The signed fields in wire order, then the signature.
    assert tx.encode() == encode_fields(tx.sender, b"B", tx.payload, 100, tx.signature)
    decoded = Transaction.decode(tx.encode())
    assert decoded == tx and decoded.verify()


def test_transaction_decode_refuses_trailing_bytes():
    tx = signed_tx("alice")
    with pytest.raises(ValueError, match="trailing bytes after transaction"):
        Transaction.decode(tx.encode() + lp(b"Z"))


def test_candidate_block_commits_matching_transactions():
    txs = [signed_tx("alice", timestamp=t) for t in (100, 101, 102)]
    sender = txs[0].sender
    block = build_candidate_block(txs, sender, "B", (100, 103))
    assert len(block.transactions) == 3
    ordered = sorted(txs, key=lambda t: (t.timestamp, t.digest()))
    assert block.tx_root == reference_merkle([tx.digest() for tx in ordered])
    assert block.narration == ()
    assert block.header_digest == ZERO32  # unsealed


def test_candidate_block_filters_other_senders():
    mine = [signed_tx("alice", timestamp=100)]
    other = [signed_tx("bob", timestamp=100)]
    block = build_candidate_block(mine + other, mine[0].sender, "B", (99, 101))
    assert block.transactions == tuple(mine)


def test_candidate_block_window_is_half_open():
    txs = [signed_tx("alice", timestamp=t) for t in (99, 100, 104, 105)]
    sender = txs[0].sender
    block = build_candidate_block(txs, sender, "B", (100, 105))
    assert [tx.timestamp for tx in block.transactions] == [100, 104]


def test_candidate_block_empty_set_rejected():
    with pytest.raises(NoTransactions):
        build_candidate_block([], b"\x00" * 32, "B", (0, 10))
    tx = signed_tx("alice", timestamp=500)
    with pytest.raises(NoTransactions):
        build_candidate_block([tx], tx.sender, "B", (0, 10))


def test_candidate_block_rejects_bad_signature():
    tx = dataclasses.replace(signed_tx("alice"), signature=b"\x00" * 64)
    with pytest.raises(BadSignature):
        build_candidate_block([tx], tx.sender, "B", (99, 101))


def test_transaction_ordering_is_canonical():
    txs = [signed_tx(f"alice/{i}", timestamp=100) for i in range(4)]
    # All share a timestamp but not a sender; use one sender's clones instead.
    key = make_signing_key("alice")
    sender = public_bytes(key)
    txs = [
        Transaction.signed(key, sender, "B", material(f"dag/tie/{i}", 8), 100)
        for i in range(4)
    ]
    block = build_candidate_block(list(reversed(txs)), sender, "B", (100, 101))
    digests = [tx.digest() for tx in block.transactions]
    assert digests == sorted(digests)


# ---------------------------------------------------------------------------
# Branch table
# ---------------------------------------------------------------------------

def test_reserved_virtual_branch_and_sequential_tags():
    ledger = Layer0Ledger(VIRTUAL_GENESIS)
    assert ledger.branches == {"virtual-existence": "A"}
    assert ledger.topological_order() == [VIRTUAL_GENESIS]
    assert ledger.record(VIRTUAL_GENESIS).tag == "A"
    first = ledger.register_branch("telemetry", material("dag/b", 32), timestamp=1)
    assert first == "B"
    second = ledger.register_branch("firmware", material("dag/c", 32), timestamp=1)
    assert second == "C"
    assert ledger.branches["firmware"] == "C"


def test_duplicate_branch_rejected():
    ledger = Layer0Ledger(VIRTUAL_GENESIS)
    ledger.register_branch("telemetry", material("dag/b", 32), timestamp=1)
    with pytest.raises(DuplicateBranch):
        ledger.register_branch("telemetry", material("dag/c", 32), timestamp=2)
    with pytest.raises(DuplicateBranch):
        ledger.register_branch("virtual-existence", material("dag/d", 32), timestamp=2)
    assert ledger.record(material("dag/b", 32)).tag == "B"
    assert len(ledger.topological_order()) == 2  # no marker for dag/c or dag/d
    assert len(ledger.branches) == 2


def test_registry_size_counts_reserved_tag():
    ledger = Layer0Ledger(VIRTUAL_GENESIS)
    for i in range(5):
        ledger.register_branch(f"branch-{i}", material(f"dag/g{i}", 32), timestamp=1)
    assert len(ledger.branches) == 6


# ---------------------------------------------------------------------------
# Parent selection
# ---------------------------------------------------------------------------

def test_first_block_arcs_point_at_branch_genesis():
    ledger, tag = ledger_with_branch()
    candidate = build_candidate_block(
        [signed_tx("alice", tag, 10)], signed_tx("alice", tag, 10).sender, tag, (9, 11)
    )
    prev, rand = ledger.select_parents(candidate)
    assert prev == rand == material("dag/branch-b", 32)


def test_select_parents_deterministic():
    ledger, tag = ledger_with_branch()
    candidate = sealed_block(ledger, "alice", tag, 10)
    assert ledger.select_parents(candidate) == ledger.select_parents(candidate)


@pytest.mark.parametrize("use", [
    lambda ledger, block: ledger.select_parents(block),
    lambda ledger, block: ledger.append_block(block, ROSTER, EXHAUSTIVE),
], ids=["select_parents", "append_block"])
def test_select_parents_unregistered_tag(use):
    ledger, _ = ledger_with_branch()
    tx = signed_tx("alice", "Z", 10)
    block = build_candidate_block([tx], tx.sender, "Z", (9, 11)).with_parents(
        material("dag/branch-b", 32), material("dag/branch-b", 32)
    ).with_narration_entry(NARRATOR)
    with pytest.raises(UnknownBranch):
        use(ledger, block)
    assert ledger.blocks() == []


@pytest.mark.parametrize("data_blocks", [0, 1, 4, 17])
def test_random_arc_uses_tx_root_modular_index(data_blocks):
    ledger, tag = ledger_with_branch()
    for i in range(data_blocks):
        ledger.append_block(sealed_block(ledger, f"n{i}", tag, 10 + 2 * i), ROSTER, EXHAUSTIVE)
    ancestors = [material("dag/branch-b", 32)] + [b.header_digest for b in ledger.blocks(tag)]
    assert len(ancestors) == data_blocks + 1
    candidate = build_candidate_block(
        [signed_tx("probe", tag, 100)], signed_tx("probe", tag, 100).sender, tag,
        (99, 101),
    )
    expected_index = int.from_bytes(candidate.tx_root, "big") % len(ancestors)
    prev, rand = ledger.select_parents(candidate)
    assert prev == ancestors[-1]
    assert rand == ancestors[expected_index]


# ---------------------------------------------------------------------------
# Appending and ordering
# ---------------------------------------------------------------------------

def test_append_block_validations():
    ledger, tag = ledger_with_branch()
    block = sealed_block(ledger, "alice", tag, 10)
    unsealed = dataclasses.replace(block, header_digest=b"\x00" * 32)
    with pytest.raises(IntegrityViolation, match="header digest does not verify"):
        ledger.append_block(unsealed, ROSTER, EXHAUSTIVE)
    wrong_root = dataclasses.replace(block, tx_root=b"\x11" * 32)
    with pytest.raises(IntegrityViolation, match="header digest does not verify"):
        ledger.append_block(wrong_root, ROSTER, EXHAUSTIVE)
    # Sealed over the wrong root, the header verifies and the Merkle check refuses it.
    resealed = wrong_root.with_parents(block.prev_same_type, block.random_arc)
    assert resealed.recomputed_header() == resealed.header_digest
    with pytest.raises(IntegrityViolation, match="tx_root does not match transactions"):
        ledger.append_block(resealed, ROSTER, EXHAUSTIVE)
    ledger.append_block(block, ROSTER, EXHAUSTIVE)
    # The same block again: its transactions are final, which refuses it first.
    with pytest.raises(IntegrityViolation, match="transaction already finalized"):
        ledger.append_block(block, ROSTER, EXHAUSTIVE)
    assert ledger.blocks(tag) == [block]


def test_append_block_refuses_an_arc_outside_its_branch():
    ledger, tag = ledger_with_branch()
    firmware_genesis = material("dag/firm", 32)
    ledger.register_branch("firmware", firmware_genesis, timestamp=1)
    block = sealed_block(ledger, "alice", tag, 10)
    prev, rand = block.prev_same_type, block.random_arc
    # Another branch's genesis marker, and a digest the ledger never stored.
    for arcs in ((firmware_genesis, rand), (prev, firmware_genesis), (b"\x33" * 32, rand)):
        with pytest.raises(IntegrityViolation, match="arc does not reference a same-type record"):
            ledger.append_block(block.with_parents(*arcs), ROSTER, EXHAUSTIVE)
    assert ledger.blocks() == []
    ledger.append_block(block, ROSTER, EXHAUSTIVE)


def test_append_block_rejects_an_already_finalized_transaction():
    ledger, tag = ledger_with_branch()
    tx = signed_tx("alice", tag, timestamp=9)
    for window, appends in (((8, 10), True), ((8, 11), False)):
        candidate = build_candidate_block([tx], tx.sender, tag, window)
        block = candidate.with_parents(*ledger.select_parents(candidate))
        block = block.with_narration_entry(NARRATOR)
        if appends:
            ledger.append_block(block, ROSTER, EXHAUSTIVE)
        else:
            with pytest.raises(IntegrityViolation, match="already finalized"):
                ledger.append_block(block, ROSTER, EXHAUSTIVE)
    assert len(ledger.blocks(tag)) == 1


def test_append_block_rejects_a_repeated_or_out_of_order_transaction():
    ledger, tag = ledger_with_branch()
    key = make_signing_key("alice")
    sender = public_bytes(key)
    txs = [Transaction.signed(key, sender, tag, material(f"dag/rep/{i}", 24), 5 + i)
           for i in range(3)]
    candidate = build_candidate_block(txs, sender, tag, (0, 10))
    # The duplicate-last-leaf Merkle rule gives the repeated block the same root.
    repeated = dataclasses.replace(
        candidate, transactions=candidate.transactions + candidate.transactions[-1:]
    )
    assert merkle_root([tx.digest() for tx in repeated.transactions]) == candidate.tx_root
    reversed_txs = candidate.transactions[::-1]
    reordered = dataclasses.replace(
        candidate, transactions=reversed_txs,
        tx_root=merkle_root([tx.digest() for tx in reversed_txs]),
    )
    parents = ledger.select_parents(candidate)
    for bad in (repeated, reordered):
        bad = bad.with_parents(*parents).with_narration_entry(NARRATOR)
        with pytest.raises(IntegrityViolation, match="repeated or out of canonical order"):
            ledger.append_block(bad, ROSTER, EXHAUSTIVE)
    ledger.append_block(
        candidate.with_parents(*parents).with_narration_entry(NARRATOR), ROSTER, EXHAUSTIVE
    )
    assert [len(b.transactions) for b in ledger.blocks(tag)] == [3]


def test_append_block_rejects_a_mixed_branch_or_sender_block():
    ledger, tag = ledger_with_branch()
    other = ledger.register_branch("firmware", material("dag/firm", 32), timestamp=1)
    alice = signed_tx("alice", tag, timestamp=5)
    candidate = build_candidate_block([alice], alice.sender, tag, (0, 10))
    parents = ledger.select_parents(candidate)
    alice_key = make_signing_key("alice")
    alice_other = Transaction.signed(alice_key, alice.sender, other, b"other", 6)
    mixed = {
        "another branch's tag, second sender": (alice, signed_tx("bob", other, 6)),
        "another branch's tag": (alice, alice_other),
        "second sender": (alice, signed_tx("bob", tag, 6)),
        "no transactions": (),
    }
    for label, txs in mixed.items():
        # Canonical order, a recomputed root and a sealed header: only the
        # block's composition is wrong.
        assert [tx.timestamp for tx in txs] == sorted(tx.timestamp for tx in txs)
        bad = dataclasses.replace(
            candidate, transactions=txs,
            tx_root=merkle_root([tx.digest() for tx in txs]) if txs else b"\x00" * 32,
        ).with_parents(*parents).with_narration_entry(NARRATOR)
        with pytest.raises(IntegrityViolation, match="one sender"):
            ledger.append_block(bad, ROSTER, EXHAUSTIVE)
    ledger.append_block(
        candidate.with_parents(*parents).with_narration_entry(NARRATOR), ROSTER, EXHAUSTIVE
    )
    assert [b.transactions for b in ledger.blocks()] == [(alice,)]


def test_append_block_rejects_equal_timestamp_arc():
    ledger, tag = ledger_with_branch()
    tx = signed_tx("alice", tag, 0)
    candidate = build_candidate_block([tx], tx.sender, tag, (0, 1))
    block = candidate.with_parents(*ledger.select_parents(candidate))
    block = block.with_narration_entry(NARRATOR)
    # Branch genesis sits at t=1; the block timestamp is also 1.
    with pytest.raises(IntegrityViolation, match="strictly earlier"):
        ledger.append_block(block, ROSTER, EXHAUSTIVE)


STRANGER = TokenizedUid(material("dag/stranger", 32))  # on no roster


@pytest.mark.parametrize(
    "narrators,mode,reason",
    [
        ((), EXHAUSTIVE, "narration is not final"),
        ((), NARRATED, "narration is not final"),
        ((STRANGER,), NARRATED, "not on the roster"),
        ((NARRATOR, STRANGER), NARRATED, "not on the roster"),
    ],
    ids=["unattested-exhaustive", "unattested-narrated", "stranger-only",
         "final-plus-stranger"],
)
def test_append_block_refuses_a_block_that_is_not_final_on_the_roster(
    narrators, mode, reason
):
    ledger, tag = ledger_with_branch()
    block = sealed_block(ledger, "alice", tag, 10, narrators=narrators)
    with pytest.raises(IntegrityViolation, match=reason):
        ledger.append_block(block, ROSTER, mode)
    assert ledger.blocks(tag) == []
    ledger.append_block(sealed_block(ledger, "alice", tag, 10), ROSTER, mode)
    assert len(ledger.blocks(tag)) == 1


def test_datablock_decode_refuses_a_forged_transaction_signature():
    ledger, tag = ledger_with_branch()
    key = make_signing_key("alice")
    sender = public_bytes(key)
    txs = [Transaction.signed(key, sender, tag, material(f"dag/forge/{i}", 24), 5 + i)
           for i in range(2)]
    candidate = build_candidate_block(txs, sender, tag, (0, 10))
    # A forged payload under the old signature, committed by a recomputed
    # root and a resealed header: only the signature gives it away.
    forged_tx = dataclasses.replace(candidate.transactions[1], payload=b"forged")
    forged = dataclasses.replace(
        candidate, transactions=(candidate.transactions[0], forged_tx),
        tx_root=merkle_root([candidate.transactions[0].digest(), forged_tx.digest()]),
    ).with_parents(*ledger.select_parents(candidate)).with_narration_entry(NARRATOR)
    assert forged.recomputed_header() == forged.header_digest
    with pytest.raises(BadSignature):
        DataBlock.decode(forged.encode())
    honest = candidate.with_parents(*ledger.select_parents(candidate))
    assert DataBlock.decode(honest.encode()) == honest


def test_topological_order_single_genesis():
    ledger = Layer0Ledger(VIRTUAL_GENESIS)
    assert ledger.topological_order() == [VIRTUAL_GENESIS]


def test_topological_order_sorts_by_time_then_digest():
    ledger, tag = ledger_with_branch()
    b1 = sealed_block(ledger, "alice", tag, 10)
    ledger.append_block(b1, ROSTER, EXHAUSTIVE)
    b2 = sealed_block(ledger, "bob", tag, 20)
    ledger.append_block(b2, ROSTER, EXHAUSTIVE)
    order = ledger.topological_order()
    assert order.index(b1.header_digest) < order.index(b2.header_digest)

    # Equal timestamps in independent branches break ties by digest.
    other = ledger.register_branch("firmware", material("dag/firm", 32), timestamp=1)
    c1 = sealed_block(ledger, "carol", other, 20)
    ledger.append_block(c1, ROSTER, EXHAUSTIVE)
    order = ledger.topological_order()
    first, second = sorted([b2.header_digest, c1.header_digest])
    assert order.index(first) < order.index(second)


def test_every_block_follows_its_arc_targets():
    rng = random.Random(0xDA6)
    ledger, tag = ledger_with_branch()
    for i in range(12):
        block = sealed_block(ledger, f"n{rng.randrange(1000)}", tag, 10 + 3 * i)
        ledger.append_block(block, ROSTER, EXHAUSTIVE)
    order = ledger.topological_order()
    position = {digest: i for i, digest in enumerate(order)}
    for block in ledger.blocks(tag):
        assert position[block.header_digest] > position[block.prev_same_type]
        assert position[block.header_digest] > position[block.random_arc]


# ---------------------------------------------------------------------------
# Narration and serialization
# ---------------------------------------------------------------------------

def test_narration_fold_matches_nested_hash():
    t1, t2, t3 = (TokenizedUid(material(f"dag/t{i}", 32)) for i in range(3))
    zero = b"\x00" * 32
    expected = hashlib.sha256(
        hashlib.sha256(hashlib.sha256(zero + t1.value).digest() + t2.value).digest()
        + t3.value
    ).digest()
    assert narration_fold((t1, t2, t3)) == expected

    ledger, tag = ledger_with_branch()
    block = sealed_block(ledger, "alice", tag, 10, narrators=(t1, t2, t3))
    assert block.encode().endswith(lp(t3.value) + lp(expected))


def demo_finalized_block() -> tuple[Layer0Ledger, DataBlock, tuple]:
    """A fresh ledger holding the demo's branch, its finalized "B" block
    decoded from the wire, and the demo's finality rules (roster, mode)."""
    net = run_scenario(ScenarioConfig.from_file(DEMO)).network
    (block,) = net.layer0.blocks("B")
    ledger = Layer0Ledger(net.nodechain.block_at(1).header_digest)
    genesis = net.layer0.record(block.prev_same_type)
    ledger.register_branch("telemetry", genesis.digest, genesis.timestamp)
    rules = (net.roster(), net.config.finality_mode)
    return ledger, DataBlock.decode(block.encode()), rules


def test_decode_refuses_a_narration_digest_that_does_not_chain():
    ledger, block, rules = demo_finalized_block()
    encoded = block.encode()
    # The encoding ends with the narration's (TUID, digest) pairs, each
    # field a 4-byte length and 32 bytes.
    pairs_at = len(encoded) - 72 * len(block.narration)
    for i in range(len(block.narration)):
        digest_at = pairs_at + 72 * i + 40
        assert encoded[digest_at - 4:digest_at] == (32).to_bytes(4, "big")
        for position in range(digest_at, digest_at + 32):
            forged = bytearray(encoded)
            forged[position] ^= 0x01
            with pytest.raises(IntegrityViolation, match="narration digest does not chain"):
                DataBlock.decode(bytes(forged))
    # A pair appended with a digest that does not chain is refused too.
    appended = (encoded[:pairs_at - 12] + encode_fields(len(block.narration) + 1)
                + encoded[pairs_at:] + lp(b"\x07" * 32) + lp(ZERO32))
    with pytest.raises(IntegrityViolation, match="narration digest does not chain"):
        DataBlock.decode(appended)
    ledger.append_block(DataBlock.decode(encoded), *rules)
    assert ledger.blocks("B") == [block]


def test_append_block_rejects_a_repeated_narration_token():
    ledger, block, rules = demo_finalized_block()
    repeated = block.with_narration_entry(block.narration[0])
    assert len(repeated.narration) == len(block.narration) + 1
    with pytest.raises(IntegrityViolation, match="narration repeats a token"):
        ledger.append_block(DataBlock.decode(repeated.encode()), *rules)
    assert ledger.blocks("B") == []


def test_every_single_byte_mutation_of_a_finalized_block_is_refused():
    ledger, block, rules = demo_finalized_block()
    encoded = block.encode()
    accepted = []
    for position in range(len(encoded)):
        mutated = bytearray(encoded)
        mutated[position] ^= 0x01
        try:
            ledger.append_block(DataBlock.decode(bytes(mutated)), *rules)
        except (ValueError, ProtocolError):
            continue
        accepted.append(position)
    assert accepted == []
    ledger.append_block(DataBlock.decode(encoded), *rules)
    assert ledger.blocks("B") == [block]


def test_datablock_encode_decode_round_trip():
    ledger, tag = ledger_with_branch()
    block = sealed_block(ledger, "alice", tag, 10)
    block = block.with_narration_entry(TokenizedUid(material("dag/auth", 32)))
    decoded = DataBlock.decode(block.encode())
    assert decoded == block


def test_datablock_decode_refuses_trailing_bytes():
    ledger, tag = ledger_with_branch()
    block = sealed_block(ledger, "alice", tag, 10, narrators=())
    with pytest.raises(ValueError, match="trailing bytes after block"):
        DataBlock.decode(block.encode() + lp(b"Z"))
    (tx,) = block.transactions
    padded_tx = (
        block.prefix() + lp(block.header_digest)
        + encode_fields(1) + lp(tx.encode() + lp(b"Z")) + encode_fields(0)
    )
    with pytest.raises(ValueError, match="trailing bytes after transaction"):
        DataBlock.decode(padded_tx)
    # The same bytes without the padding are the block itself.
    assert DataBlock.decode(
        block.prefix() + lp(block.header_digest)
        + encode_fields(1) + lp(tx.encode()) + encode_fields(0)
    ) == block


def test_export_text_lists_all_records():
    ledger, tag = ledger_with_branch()
    block = sealed_block(ledger, "alice", tag, 10)
    ledger.append_block(block, ROSTER, EXHAUSTIVE)
    text = ledger.export_text()
    lines = text.strip().splitlines()
    assert len(lines) == 3  # virtual genesis, branch genesis, one data block
    assert any(line.endswith("genesis - - 0 0") for line in lines)
    assert block.header_digest.hex() in text


def reference_encoding(block: DataBlock) -> bytes:
    """A data block's bytes as the README's file formats lay them out: each
    field prefixed with its 4-byte big-endian length, integers as 8 bytes
    big-endian; the header fields (tag, tx root, chain arc, random arc,
    timestamp), the header digest, the transaction count and transactions
    (sender, tag, payload, timestamp, signature), then the narration count
    and (TUID, digest) pairs, each digest SHA-256 of the one before it (32
    zero bytes first) and the TUID."""
    def field(value: bytes) -> bytes:
        return struct.pack(">I", len(value)) + value

    def integer(value: int) -> bytes:
        return field(struct.pack(">Q", value))

    out = [field(block.block_type_tag.encode()), field(block.tx_root),
           field(block.prev_same_type), field(block.random_arc),
           integer(block.timestamp), field(block.header_digest),
           integer(len(block.transactions))]
    for tx in block.transactions:
        out.append(field(field(tx.sender) + field(tx.block_type_tag.encode())
                         + field(tx.payload) + integer(tx.timestamp)
                         + field(tx.signature)))
    out.append(integer(len(block.narration)))
    digest = bytes(32)
    for tuid in block.narration:
        digest = hashlib.sha256(digest + tuid.value).digest()
        out.append(field(tuid.value) + field(digest))
    return b"".join(out)


NARRATORS = [TokenizedUid(material(f"dag/narrator/{i}", 32)) for i in range(6)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(NARRATORS), max_size=20))
def test_narrated_set_tracks_the_narration(narrators):
    ledger, tag = ledger_with_branch()
    block = sealed_block(ledger, "alice", tag, 10, narrators=())
    assert block.narrated == frozenset()
    for tuid in narrators:
        block = block.with_narration_entry(tuid)
        assert block.narrated == set(block.narration)
    assert block.encode() == reference_encoding(block)
    decoded = DataBlock.decode(block.encode())
    assert decoded == block and decoded.encode() == block.encode()
    assert decoded.narrated == set(block.narration) == set(narrators)
