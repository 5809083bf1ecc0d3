"""NodeChain tests: genesis, linking, verification, and change detection."""

import dataclasses
import hashlib
import random
import struct

import pytest

from flexichain.consensus import ModuleRegistry, enroll_request, enroll_respond, genesis
from flexichain.errors import (
    EmptyChain,
    IntegrityViolation,
    StaleState,
    UnknownNode,
)
from flexichain.identity import (
    TrustedModuleCredential,
    Uid,
    derive_uid,
    hash_extrinsic,
    tokenize_uid,
    zero_uid,
)
from flexichain.keys import public_bytes, signing_key_from_seed
from flexichain.nodechain import (
    NodeChainLedger,
    ViolationKind,
    VirtualExistenceBlock,
    VesState,
    append_virtual_block,
    detect_header_change,
    verify_chain,
)
from flexichain.vault import NodeRole, VaultEntry
from flexichain.wire import lp

from conftest import CHEAP_KDF, TOKEN_SALT, make_params, material


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
    credential = TrustedModuleCredential("tm-1", public_bytes(key), key)
    registry = ModuleRegistry({"tm-1": credential.public_key})
    chain, log, _ = genesis(params[0], "tm-1", CHEAP_KDF, TOKEN_SALT)
    for i in range(1, 5):
        request = enroll_request(params[i], credential, registry, material(f"nonce/{i}", 8))
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
# Header-change monitoring
# ---------------------------------------------------------------------------

def test_identical_report_is_no_change():
    ledger, _, params = build_chain(3)
    assert detect_header_change(ledger, 2, params[1]) is None


def test_changed_mac_raises_alert_with_new_digest():
    ledger, _, params = build_chain(3)
    mac = bytearray(params[1].mac_address)
    mac[0] ^= 0x01
    changed = dataclasses.replace(params[1], mac_address=bytes(mac))
    new_digest = detect_header_change(ledger, 2, changed)
    assert new_digest == hash_extrinsic(changed)[0]
    assert new_digest != ledger.blocks[1].extrinsic_digest


def test_unknown_index_rejected():
    ledger, _, params = build_chain(2)
    with pytest.raises(UnknownNode):
        detect_header_change(ledger, 5, params[0])
    with pytest.raises(UnknownNode):
        detect_header_change(ledger, 0, params[0])
