"""NodeChain tests: genesis, linking, verification, and change detection."""

import dataclasses
import hashlib
import os
import random
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexichain import identity, nodechain
from flexichain.consensus import ModuleRegistry, enroll_request, enroll_respond, genesis
from flexichain.errors import (
    EmptyChain,
    IntegrityViolation,
    StaleState,
    UnknownNode,
)
from flexichain.identity import (
    MAX_SCRYPT_MEMORY,
    TokenizedUid,
    Uid,
    derive_uid,
    hash_extrinsic,
    tokenize_uid,
    zero_uid,
)
from flexichain.keys import public_bytes, signing_key_from_seed
from flexichain.nodechain import (
    NodeChainLedger,
    Violation,
    ViolationKind,
    VirtualExistenceBlock,
    VesState,
    append_virtual_block,
    detect_header_change,
    verify_chain,
)
from flexichain.vault import NodeRole, Vault, VaultEntry
from flexichain.wire import ZERO32, lp

from conftest import CHEAP_KDF, TOKEN_SALT, assert_no_child_left, make_params, material


def build_chain(n: int):
    """Genesis plus n-1 enrollments, mirroring the responder flow."""
    params = [make_params(f"node-{i}") for i in range(n)]
    ledger, vault, prev_uid = genesis(params[0], "tm-1", CHEAP_KDF, TOKEN_SALT)
    for i in range(1, n):
        c1, c2 = hash_extrinsic(params[i])
        uid_i = derive_uid(c1, prev_uid, CHEAP_KDF)
        block = VirtualExistenceBlock.create(
            tuid=tokenize_uid(uid_i, TOKEN_SALT),
            constructed_public_key=c2,
            prev_link=ledger.ves.head_digest,
            nns_index=ledger.ves.index + 1,
            timestamp=i * 10,
            extrinsic_digest=c1,
        )
        append_virtual_block(ledger, block)
        vault.append(
            VaultEntry(i + 1, uid_i, block.tuid, c1, "tm-1"), NodeRole.BACKUP
        )
        prev_uid = uid_i
    return ledger, vault, params


def stored_with(ledger: NodeChainLedger, index: int, block) -> NodeChainLedger:
    """The chain read back from a file in which block `index` (0-based) was replaced."""
    blocks = list(ledger.blocks)
    blocks[index] = block
    return NodeChainLedger.deserialize(b"".join(lp(b.encode()) for b in blocks))


# ---------------------------------------------------------------------------
# Genesis
# ---------------------------------------------------------------------------

def test_genesis_chain_shape():
    # Block 1 at index 1, linked to 32 zero bytes and bound as vault entry 1.
    ledger, vault, uid = genesis(make_params("bn"), "tm-1", CHEAP_KDF, TOKEN_SALT)
    block = ledger.block_at(1)
    assert len(ledger) == 1
    assert (block.nns_index, block.prev_link) == (1, b"\x00" * 32)
    assert ledger.ves == VesState(1, block.header_digest)
    assert len(uid.value) == 128
    assert vault.entries == (
        VaultEntry(1, uid, block.tuid, block.extrinsic_digest, "tm-1"),
    )
    assert verify_chain(ledger, CHEAP_KDF, vault, TOKEN_SALT) is None


def test_genesis_uid_matches_generator_recomputation():
    params = make_params("bn")
    ledger, _, uid = genesis(params, "tm-1", CHEAP_KDF, TOKEN_SALT)
    c1, _ = hash_extrinsic(params)
    assert uid == derive_uid(c1, zero_uid(), CHEAP_KDF)
    assert ledger.blocks[0].tuid == tokenize_uid(uid, TOKEN_SALT)


def test_genesis_and_enrollments_equal_the_hand_built_chain():
    # One binding step writes genesis and every join: the bytes are those of
    # build_chain's hand-built loop.
    ledger, vault, params = build_chain(5)
    key = signing_key_from_seed(material("module/tm-1", 32))
    registry = ModuleRegistry({"tm-1": public_bytes(key)})
    chain, log, _ = genesis(params[0], "tm-1", CHEAP_KDF, TOKEN_SALT)
    for i in range(1, 5):
        request = enroll_request(params[i], "tm-1", key, registry, material(f"nonce/{i}", 8))
        enroll_respond(NodeRole.BACKUP, registry, chain, log, request, CHEAP_KDF, TOKEN_SALT,
                       timestamp=i * 10)
    assert chain.serialize() == ledger.serialize()
    assert log.serialize() == vault.serialize()


# ---------------------------------------------------------------------------
# Appending
# ---------------------------------------------------------------------------

def test_append_advances_ves_by_one():
    ledger, _, _ = build_chain(3)
    assert ledger.ves.index == 3


def test_append_replay_is_stale():
    ledger, _, _ = build_chain(2)
    replay = ledger.blocks[-1]
    with pytest.raises(StaleState):
        append_virtual_block(ledger, replay)


def test_append_broken_link_rejected():
    ledger, _, _ = build_chain(2)
    block = VirtualExistenceBlock.create(
        tuid=ledger.blocks[0].tuid,
        constructed_public_key=ledger.blocks[0].constructed_public_key,
        prev_link=b"\xff" * 32,
        nns_index=3,
        timestamp=99,
        extrinsic_digest=ledger.blocks[0].extrinsic_digest,
    )
    with pytest.raises(IntegrityViolation):
        append_virtual_block(ledger, block)


def test_append_bad_header_digest_rejected():
    ledger, _, _ = build_chain(2)
    good = VirtualExistenceBlock.create(
        tuid=ledger.blocks[0].tuid,
        constructed_public_key=ledger.blocks[0].constructed_public_key,
        prev_link=ledger.ves.head_digest,
        nns_index=3,
        timestamp=99,
        extrinsic_digest=ledger.blocks[0].extrinsic_digest,
    )
    forged = dataclasses.replace(good, header_digest=b"\x00" * 32)
    with pytest.raises(IntegrityViolation):
        append_virtual_block(ledger, forged)


def test_head_digest_matches_independent_fold():
    # Recompute every header digest from raw struct packing, walking the
    # links forward; the final digest must equal the ledger head.
    ledger, _, _ = build_chain(4)

    def lp(b: bytes) -> bytes:
        return struct.pack(">I", len(b)) + b

    def u64(v: int) -> bytes:
        return lp(struct.pack(">Q", v))

    prev = b"\x00" * 32
    for block in ledger.blocks:
        header = (
            lp(block.tuid.value)
            + lp(block.constructed_public_key)
            + lp(prev)
            + u64(block.nns_index)
            + u64(block.timestamp)
            + lp(block.extrinsic_digest)
        )
        prev = hashlib.sha256(header).digest()
    assert prev == ledger.ves.head_digest


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def test_verify_fresh_chain_ok():
    ledger, vault, _ = build_chain(3)
    assert verify_chain(ledger) is None
    assert verify_chain(ledger, kdf=CHEAP_KDF, vault=vault, token_salt=TOKEN_SALT) is None


@pytest.mark.parametrize(
    "given", [("kdf",), ("vault",), ("token_salt",), ("kdf", "vault"), ("vault", "token_salt"),
              ("kdf", "token_salt")],
)
def test_verify_takes_the_full_mode_arguments_together(given):
    ledger, vault, _ = build_chain(2)
    full = {"kdf": CHEAP_KDF, "vault": vault, "token_salt": TOKEN_SALT}
    # kdf alone once checked links only, without deriving a single UID.
    with pytest.raises(TypeError, match="together or none"):
        verify_chain(ledger, **{name: full[name] for name in given})


def test_verify_empty_chain():
    with pytest.raises(EmptyChain):
        verify_chain(NodeChainLedger())


def test_verify_detects_mutated_extrinsic_digest():
    ledger, _, _ = build_chain(3)
    target = ledger.blocks[1]
    mutated = dataclasses.replace(target, extrinsic_digest=b"\x13" * 32)
    violation = verify_chain(stored_with(ledger, 1, mutated))
    assert violation is not None
    assert violation.index == 2
    assert violation.kind is ViolationKind.HEADER_MISMATCH


def test_verify_detects_token_mismatch_via_vault():
    ledger, vault, _ = build_chain(3)
    swapped = dataclasses.replace(
        vault.entries[2], real_uid=Uid(b"\x55" * 128)
    )
    vault._entries[2] = swapped
    violation = verify_chain(ledger, kdf=CHEAP_KDF, vault=vault, token_salt=TOKEN_SALT)
    assert violation is not None
    assert violation.index == 3
    assert violation.kind is ViolationKind.TOKEN_MISMATCH


def test_verify_detects_index_gap():
    ledger, _, _ = build_chain(3)
    block = ledger.blocks[2]
    violation = verify_chain(stored_with(ledger, 2, dataclasses.replace(block, nns_index=7)))
    assert violation is not None
    assert violation.index == 3
    assert violation.kind is ViolationKind.INDEX_GAP


MUTABLE_FIELDS = (
    "constructed_public_key",
    "prev_link",
    "extrinsic_digest",
    "header_digest",
)


def test_fuzzed_single_byte_mutations_detected():
    rng = random.Random(0xFADE)
    for _ in range(60):
        ledger, _, _ = build_chain(4)
        index = rng.randrange(len(ledger))
        block = ledger.blocks[index]
        field = rng.choice(MUTABLE_FIELDS)
        value = bytearray(getattr(block, field))
        value[rng.randrange(len(value))] ^= 1 << rng.randrange(8)
        mutated = dataclasses.replace(block, **{field: bytes(value)})
        violation = verify_chain(stored_with(ledger, index, mutated))
        assert violation is not None
        assert violation.index <= index + 1


def test_replay_yields_identical_serialization():
    first, _, _ = build_chain(4)
    second, _, _ = build_chain(4)
    assert first.serialize() == second.serialize()
    decoded = NodeChainLedger.deserialize(first.serialize())
    assert decoded.serialize() == first.serialize()
    assert verify_chain(decoded) is None


# ---------------------------------------------------------------------------
# Full-mode derivations in worker processes
# ---------------------------------------------------------------------------

def force_pool(monkeypatch, cpus: int = 2) -> list[int]:
    """Split full-mode derivations over up to `cpus` processes, and fail
    unless they run where `workers.fork_map` places them.

    `derive_uid` becomes a closure at both of its bindings, as the
    benchmark's tracer makes it. `fork_map`, at nodechain's binding, raises
    unless the first range derives in this process and each other range in
    a child of its own. Returns the pids of the children forked from here on.
    """
    parent, derive, run = os.getpid(), identity.derive_uid, nodechain.fork_map
    forked, fork = [], os.fork

    def derive_wrapped(*args):
        return derive(*args)

    def fork_map_placed(fn, chunks):
        def placed(numbered):
            k, chunk = numbered
            assert (os.getpid() == parent) == (k == 0), f"range {k} derived in the wrong process"
            return os.getpid(), fn(chunk)

        pids, results = zip(*run(placed, list(enumerate(chunks))))
        assert len(set(pids)) == len(chunks), "two ranges shared a process"
        return list(results)

    def recorded():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(nodechain, "POOL_SCRYPT_WORK", 0)
    monkeypatch.setattr(nodechain, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(nodechain, "fork_map", fork_map_placed)
    monkeypatch.setattr(os, "fork", recorded)
    for module in (identity, nodechain):
        monkeypatch.setattr(module, "derive_uid", derive_wrapped)
    return forked


def test_pool_derives_while_derive_uid_is_wrapped(monkeypatch):
    ledger, vault, _ = build_chain(5)
    forked = force_pool(monkeypatch)
    assert verify_chain(ledger, kdf=CHEAP_KDF, vault=vault, token_salt=TOKEN_SALT) is None
    assert len(forked) == 1
    assert_no_child_left()


def test_a_second_thread_keeps_the_derivations_in_this_process(monkeypatch):
    ledger, vault = mutated(5, [("uid", 3)])
    full = {"kdf": CHEAP_KDF, "vault": vault, "token_salt": TOKEN_SALT}
    serial = verify_chain(ledger, **full)
    assert serial == Violation(4, ViolationKind.TOKEN_MISMATCH)

    def no_fork():
        raise RuntimeError("forked")

    monkeypatch.setattr(nodechain, "POOL_SCRYPT_WORK", 0)
    monkeypatch.setattr(nodechain, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert verify_chain(ledger, **full) == serial
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    # Alone again, the same call forks.
    with pytest.raises(RuntimeError, match="forked"):
        verify_chain(ledger, **full)


@pytest.mark.parametrize(
    "jobs,memory,cpus,workers",
    [
        (12, 8 << 20, 2, 2),   # ingest-kdf: 96 MiB of scrypt work
        (384, 256, 2, 1),      # enroll-384: far below the threshold
        (12, 8 << 20, 1, 1),   # one CPU
        (64, MAX_SCRYPT_MEMORY, 8, 1),  # one derivation fills a join's cap
        (64, MAX_SCRYPT_MEMORY // 4, 8, 4),
        (3, 16 << 20, 8, 3),   # no more workers than derivations
        (3, 8 << 20, 2, 1),    # 24 MiB: forking costs more than it saves
    ],
)
def test_pool_size(jobs, memory, cpus, workers):
    assert nodechain._pool_workers(jobs, memory, cpus) == workers


def walk_chain(ledger, kdf, vault, token_salt):
    """Full-mode verification block by block, each derivation in turn."""
    prev_digest, prev_uid = ZERO32, zero_uid(kdf.output_length)
    for i, block in enumerate(ledger.blocks, start=1):
        if block.nns_index != i:
            return Violation(i, ViolationKind.INDEX_GAP)
        if block.prev_link != prev_digest:
            return Violation(i, ViolationKind.LINK_BREAK)
        if block.recomputed_header() != block.header_digest:
            return Violation(i, ViolationKind.HEADER_MISMATCH)
        entry = vault.entry_at(i)
        if (entry is None or tokenize_uid(entry.real_uid, token_salt) != block.tuid
                or entry.extrinsic_digest != block.extrinsic_digest
                or derive_uid(block.extrinsic_digest, prev_uid, kdf) != entry.real_uid):
            return Violation(i, ViolationKind.TOKEN_MISMATCH)
        prev_uid, prev_digest = entry.real_uid, block.header_digest
    return None


def relinked(blocks: list, start: int) -> list:
    """`blocks` with those from position `start` on rebuilt onto the ones before."""
    out = blocks[:start]
    for b in blocks[start:]:
        out.append(VirtualExistenceBlock.create(
            b.tuid, b.constructed_public_key, out[-1].header_digest if out else ZERO32,
            b.nns_index, b.timestamp, b.extrinsic_digest))
    return out


def mutated(n: int, mutations: list[tuple[str, int]]):
    """An n-block chain and its vault, with each (kind, 0-based position) applied."""
    ledger, vault, _ = build_chain(n)
    blocks, entries = list(ledger.blocks), list(vault.entries)
    forged = Uid(b"\x55" * 128)
    # Mutations that rebuild the blocks after theirs go first, so that the
    # rebuild does not repair the others; dropped entries go last.
    order = ("uid", "token", "vault_uid", "extrinsic", "header", "link", "drop")
    for kind, j in sorted(mutations, key=lambda m: (order.index(m[0]), m[1])):
        if kind == "uid":  # a consistent forgery: only the derivation differs
            entries[j] = dataclasses.replace(
                entries[j], real_uid=forged, tuid=tokenize_uid(forged, TOKEN_SALT))
            blocks[j] = dataclasses.replace(blocks[j], tuid=entries[j].tuid)
            blocks = relinked(blocks, j)
        elif kind == "token":
            blocks[j] = dataclasses.replace(blocks[j], tuid=TokenizedUid(b"\x77" * 32))
            blocks = relinked(blocks, j)
        elif kind == "vault_uid":
            entries[j] = dataclasses.replace(entries[j], real_uid=forged)
        elif kind == "extrinsic":
            entries[j] = dataclasses.replace(entries[j], extrinsic_digest=b"\x13" * 32)
        elif kind == "header":
            blocks[j] = dataclasses.replace(blocks[j], header_digest=b"\x01" * 32)
        elif kind == "link":
            blocks[j] = dataclasses.replace(blocks[j], prev_link=b"\x02" * 32)
        elif j < len(entries):
            del entries[j]
    chain = NodeChainLedger.deserialize(b"".join(lp(b.encode()) for b in blocks))
    log = Vault(TOKEN_SALT)
    log._entries = entries
    return chain, log


@st.composite
def mutated_chains(draw):
    n = draw(st.integers(3, 8))
    # A forgery passes every check but the derivation, at any position. The
    # others fail a check before it, from the third block on, so that at
    # least two derivations always reach the pool.
    forgeries = draw(st.lists(st.tuples(st.just("uid"), st.integers(0, n - 1)), max_size=2))
    cheap = draw(st.lists(st.tuples(
        st.sampled_from(("token", "vault_uid", "extrinsic", "header", "link", "drop")),
        st.integers(2, n - 1)), max_size=2))
    return n, forgeries + cheap


@settings(max_examples=40, deadline=None)
@given(chain=mutated_chains(), cpus=st.integers(2, 4))
def test_pool_returns_the_serial_violation(chain, cpus):
    ledger, vault = mutated(*chain)
    full = {"kdf": CHEAP_KDF, "vault": vault, "token_salt": TOKEN_SALT}
    serial = verify_chain(ledger, **full)
    assert serial == walk_chain(ledger, **full)
    with pytest.MonkeyPatch.context() as monkeypatch:
        forked = force_pool(monkeypatch, cpus)
        assert verify_chain(ledger, **full) == serial
    assert forked, "no range was derived in a child"
    assert_no_child_left()


# ---------------------------------------------------------------------------
# Header-change monitoring
# ---------------------------------------------------------------------------

def test_identical_report_is_no_change():
    ledger, _, params = build_chain(3)
    assert detect_header_change(ledger.block_at(2), params[1]) is None


def test_changed_mac_raises_alert_with_new_digest():
    ledger, _, params = build_chain(3)
    mac = bytearray(params[1].mac_address)
    mac[0] ^= 0x01
    changed = dataclasses.replace(params[1], mac_address=bytes(mac))
    new_digest = detect_header_change(ledger.block_at(2), changed)
    assert new_digest == hash_extrinsic(changed)[0]
    assert new_digest != ledger.blocks[1].extrinsic_digest


def test_unknown_index_rejected():
    ledger, _, params = build_chain(2)
    with pytest.raises(UnknownNode):
        detect_header_change(ledger.block_at(5), params[0])
    with pytest.raises(UnknownNode):
        detect_header_change(ledger.block_at(0), params[0])
