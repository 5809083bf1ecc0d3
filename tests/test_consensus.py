"""Consensus tests: enrollment exchange, attestation, finality rules."""

import dataclasses
import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexichain.consensus import (
    NONCE_LENGTH,
    AuthenticationMessage,
    EnrollmentRequest,
    FinalityMode,
    ModuleRegistry,
    authenticate_block,
    check_finality,
    enroll_request,
    enroll_respond,
    genesis,
)
from flexichain.dag import DataBlock, Transaction, build_candidate_block
from flexichain.errors import (
    AlreadyEnrolled,
    BadSignature,
    EmptyChain,
    EmptyRoster,
    IdentityMismatch,
    InvalidParameters,
    StaleState,
    Unauthorized,
    UnknownModule,
)
from flexichain.identity import (
    TokenizedUid,
    Uid,
    derive_uid,
    tokenize_uid,
)
from flexichain.keys import public_bytes, sign_message, signing_key_from_seed
from flexichain.nodechain import NodeChainLedger
from flexichain.vault import CallOrigin, NodeRole, Vault
from flexichain.wire import lp

from conftest import CHEAP_KDF, TOKEN_SALT, make_params, make_signing_key, material


def module_key(module_id: str):
    """Trusted module `module_id`'s private key."""
    return signing_key_from_seed(material(f"module/{module_id}", 32))


@pytest.fixture
def registry() -> ModuleRegistry:
    return ModuleRegistry({mid: public_bytes(module_key(mid)) for mid in ("tm-1", "tm-2")})


@pytest.fixture
def responder(registry):
    """The state a backup node answers from right after genesis."""
    ledger, vault, uid = genesis(make_params("bn"), "tm-1", CHEAP_KDF, TOKEN_SALT)
    return SimpleNamespace(
        role=NodeRole.BACKUP,
        module_registry=registry,
        ledger=ledger,
        vault=vault,
        uid=uid,
    )


def respond(responder, request, timestamp):
    """`enroll_respond` from the fixture's role, registry, chain and vault."""
    return enroll_respond(
        responder.role, responder.module_registry, responder.ledger, responder.vault,
        request, CHEAP_KDF, TOKEN_SALT, timestamp=timestamp,
    )


def data_block(label: str = "payload") -> DataBlock:
    key = make_signing_key(label)
    sender = public_bytes(key)
    tx = Transaction.signed(key, sender, "B", material(f"consensus/{label}", 16), 100)
    return build_candidate_block([tx], sender, "B", (99, 101)).with_parents(
        b"\x01" * 32, b"\x02" * 32
    )


def enrolled_participant(responder, label: str):
    request = enroll_request(
        make_params(label), "tm-2", module_key("tm-2"), responder.module_registry,
        nonce=material(f"nonce/{label}", 8),
    )
    response = respond(responder, request, timestamp=50)
    entry = responder.vault.lookup(response.virtual_block.tuid, CallOrigin.LOCAL)
    return SimpleNamespace(tuid=entry.tuid, hardware_uid=entry.real_uid, vault=None)


# ---------------------------------------------------------------------------
# Enrollment request
# ---------------------------------------------------------------------------

def test_request_signature_verifies(registry):
    key = module_key("tm-1")
    request = enroll_request(make_params("n1"), "tm-1", key, registry, nonce=b"\x00" * 8)
    from flexichain.keys import verify_signature

    assert verify_signature(
        public_bytes(key),
        request.module_signature,
        request.signing_bytes(request.container1, request.container2),
    )


def test_request_unknown_module(registry):
    with pytest.raises(UnknownModule):
        enroll_request(make_params("n1"), "tm-9", module_key("tm-9"), registry,
                       nonce=b"\x00" * 8)


def test_request_mismatched_module_key(registry):
    # Module id tm-1 presented with tm-2's key.
    with pytest.raises(UnknownModule):
        enroll_request(make_params("n1"), "tm-1", module_key("tm-2"), registry,
                       nonce=b"\x00" * 8)


def test_request_nonce_must_have_its_length(registry):
    with pytest.raises(InvalidParameters, match=f"nonce must be {NONCE_LENGTH} bytes"):
        enroll_request(make_params("n1"), "tm-1", module_key("tm-1"), registry,
                       nonce=b"\x00" * (NONCE_LENGTH - 1))


def test_request_replay_is_byte_identical(registry):
    key = module_key("tm-1")
    nonce = material("nonce/replay", 8)
    first = enroll_request(make_params("n1"), "tm-1", key, registry, nonce)
    second = enroll_request(make_params("n1"), "tm-1", key, registry, nonce)
    assert first.encode() == second.encode()


# ---------------------------------------------------------------------------
# Enrollment response
# ---------------------------------------------------------------------------

def test_respond_creates_matching_vault_entry(responder):
    request = enroll_request(
        make_params("n1"), "tm-2", module_key("tm-2"), responder.module_registry,
        nonce=b"\x01" * 8,
    )
    response = respond(responder, request, timestamp=10)
    assert response.virtual_block.nns_index == 2
    entry = responder.vault.entries[-1]
    assert entry.enrollment_index == 2
    # Independent generator recomputation: previous UID is the genesis UID.
    assert entry.real_uid == derive_uid(request.container1, responder.uid, CHEAP_KDF)
    assert entry.tuid == tokenize_uid(entry.real_uid, TOKEN_SALT)
    assert response.virtual_block.tuid == entry.tuid


def test_respond_duplicate_enrollment(responder):
    request = enroll_request(
        make_params("n1"), "tm-2", module_key("tm-2"), responder.module_registry,
        nonce=b"\x01" * 8,
    )
    respond(responder, request, timestamp=10)
    with pytest.raises(AlreadyEnrolled):
        respond(responder, request, timestamp=11)


def test_respond_requires_full_node_role(responder):
    request = enroll_request(
        make_params("n1"), "tm-2", module_key("tm-2"), responder.module_registry,
        nonce=b"\x01" * 8,
    )
    with pytest.raises(Unauthorized):
        enroll_respond(
            NodeRole.SUBSCRIBER, responder.module_registry, responder.ledger,
            responder.vault, request, CHEAP_KDF, TOKEN_SALT, timestamp=10,
        )


def test_respond_without_genesis_state_mints_nothing(responder):
    # Without the EmptyChain check the binding step would bind this request
    # against the all-zero UID: a second genesis.
    request = enroll_request(
        make_params("n1"), "tm-2", module_key("tm-2"), responder.module_registry,
        nonce=b"\x01" * 8,
    )
    ledger, vault = NodeChainLedger(), Vault(TOKEN_SALT)
    with pytest.raises(EmptyChain):
        enroll_respond(NodeRole.EDGE, responder.module_registry, ledger, vault, request,
                       CHEAP_KDF, TOKEN_SALT, timestamp=10)
    assert len(ledger) == 0 and len(vault) == 0


def test_respond_rejects_forged_signature(responder):
    request = enroll_request(
        make_params("n1"), "tm-2", module_key("tm-2"), responder.module_registry,
        nonce=b"\x01" * 8,
    )
    forged = type(request)(
        container1=request.container1,
        container2=request.container2,
        module_id="tm-1",  # signature was made by tm-2
        module_signature=request.module_signature,
        nonce=request.nonce,
    )
    with pytest.raises(BadSignature):
        respond(responder, forged, timestamp=10)


def test_respond_refuses_a_container2_that_is_no_public_key(responder):
    # Validly signed by tm-2, but 31 bytes are no Ed25519 public key.
    key = module_key("tm-2")
    container1, container2 = material("consensus/c1", 32), material("consensus/c2", 31)
    signature = sign_message(key, EnrollmentRequest.signing_bytes(container1, container2))
    request = EnrollmentRequest(container1, container2, "tm-2", signature, b"\x01" * 8)
    assert request.verify(public_bytes(key))
    with pytest.raises(InvalidParameters, match="container2 is not a valid public key"):
        respond(responder, request, timestamp=50)
    assert (len(responder.ledger), len(responder.vault)) == (1, 1)


def test_real_uid_never_in_message_encodings(responder):
    # The vault binding travels on the provisioning channel only; no network
    # message encoding may carry real UID bytes.
    request = enroll_request(
        make_params("n1"), "tm-2", module_key("tm-2"), responder.module_registry,
        nonce=b"\x01" * 8,
    )
    response = respond(responder, request, timestamp=10)
    real_uid = responder.vault.entries[-1].real_uid.value
    assert real_uid not in request.encode()
    assert real_uid not in response.encode()
    assert real_uid not in response.virtual_block.encode()


def test_enrollment_chain_recomputes(responder):
    for i in range(5):
        request = enroll_request(
            make_params(f"chain-{i}"), "tm-2", module_key("tm-2"),
            responder.module_registry, nonce=material(f"nonce/{i}", 8),
        )
        respond(responder, request, timestamp=10 + i)
    entries = responder.vault.entries
    prev = Uid(b"\x00" * 128)
    for entry in entries:
        assert entry.real_uid == derive_uid(entry.extrinsic_digest, prev, CHEAP_KDF)
        prev = entry.real_uid


# ---------------------------------------------------------------------------
# Attestation
# ---------------------------------------------------------------------------

def test_first_authentication_extends_narration(responder):
    node = enrolled_participant(responder, "auth-1")
    block = data_block()
    ves = responder.ledger.ves.index
    attested = authenticate_block(node, block, ves, ves, TOKEN_SALT)
    # Not a duplicate: the block passed in does not narrate the node yet.
    assert node.tuid not in block.narrated
    assert attested.narration == (node.tuid,)


def test_duplicate_authentication_is_noop(responder):
    node = enrolled_participant(responder, "auth-1")
    block = data_block()
    ves = responder.ledger.ves.index
    once = authenticate_block(node, block, ves, ves, TOKEN_SALT)
    again = authenticate_block(node, once, ves, ves, TOKEN_SALT)
    # A duplicate: the block passed in already narrates the node, and it
    # comes back unchanged.
    assert node.tuid in once.narrated
    assert again is once
    assert len(again.narration) == 1


def test_narration_digest_matches_hash_fold(responder):
    import hashlib

    nodes = [enrolled_participant(responder, f"auth-{i}") for i in range(3)]
    block = data_block()
    ves = responder.ledger.ves.index
    for node in nodes:
        block = authenticate_block(node, block, ves, ves, TOKEN_SALT)
    digest = b"\x00" * 32
    for node in nodes:
        digest = hashlib.sha256(digest + node.tuid.value).digest()
    # The encoding ends with the last (TUID, digest) pair of the narration.
    assert block.encode().endswith(lp(nodes[-1].tuid.value) + lp(digest))


def test_stale_ves_blocks_authentication(responder):
    node = enrolled_participant(responder, "auth-1")
    ves = responder.ledger.ves.index
    with pytest.raises(StaleState):
        authenticate_block(node, data_block(), ves - 1, ves, TOKEN_SALT)
    # After syncing, the same node authenticates fine.
    block = authenticate_block(node, data_block(), ves, ves, TOKEN_SALT)
    assert len(block.narration) == 1


def test_unenrolled_node_cannot_authenticate(responder):
    ghost = SimpleNamespace(tuid=None, hardware_uid=None, vault=None)
    ves = responder.ledger.ves.index
    with pytest.raises(IdentityMismatch):
        authenticate_block(ghost, data_block(), ves, ves, TOKEN_SALT)


def test_node_with_hardware_but_no_token_is_not_enrolled(responder):
    # A device that holds a real UID but was never given its token is refused
    # as not enrolled, before the match layer is handed a missing token.
    node = enrolled_participant(responder, "auth-1")
    node.tuid = None
    ves = responder.ledger.ves.index
    with pytest.raises(IdentityMismatch, match="node is not enrolled"):
        authenticate_block(node, data_block(), ves, ves, TOKEN_SALT)


def test_match_layer_failure_blocks_authentication(responder):
    node = enrolled_participant(responder, "auth-1")
    node.hardware_uid = Uid(b"\xee" * 128)
    ves = responder.ledger.ves.index
    with pytest.raises(IdentityMismatch):
        authenticate_block(node, data_block(), ves, ves, TOKEN_SALT)


def test_full_node_authenticates_against_its_vault(responder):
    node = enrolled_participant(responder, "auth-1")
    node.vault = responder.vault
    ves = responder.ledger.ves.index
    block = authenticate_block(node, data_block(), ves, ves, TOKEN_SALT)
    assert len(block.narration) == 1
    # A vault copy that disagrees with the hardware identity blocks it.
    node2 = enrolled_participant(responder, "auth-2")
    node2.vault = responder.vault
    node2.hardware_uid = responder.vault.entries[0].real_uid  # someone else's
    ves = responder.ledger.ves.index
    with pytest.raises(IdentityMismatch):
        authenticate_block(node2, data_block(), ves, ves, TOKEN_SALT)


def test_full_node_whose_vault_lacks_its_token_cannot_authenticate(responder):
    node = enrolled_participant(responder, "auth-1")
    # Another genesis's vault holds only that network's backup node.
    _, node.vault, _ = genesis(make_params("other-bn"), "tm-1", CHEAP_KDF, TOKEN_SALT)
    assert node.vault.lookup(node.tuid, CallOrigin.LOCAL) is None
    ves = responder.ledger.ves.index
    with pytest.raises(IdentityMismatch, match="vault entry does not match hardware identity"):
        authenticate_block(node, data_block(), ves, ves, TOKEN_SALT)


def test_authentication_message_encoding_round_trips(responder):
    node = enrolled_participant(responder, "auth-1")
    key = make_signing_key("auth-1")
    digest = data_block().header_digest
    ves = responder.ledger.ves.index
    payload = AuthenticationMessage.signing_bytes(digest, node.tuid, ves)
    message = AuthenticationMessage(digest, node.tuid, ves, sign_message(key, payload))
    clone = AuthenticationMessage(digest, node.tuid, ves, sign_message(key, payload))
    assert message.encode() == clone.encode()


def test_each_message_verifies_its_own_signing_bytes(registry):
    node_key, tm_key = make_signing_key("auth-1"), module_key("tm-1")
    tuid = TokenizedUid(material("consensus/tuid", 32))
    payload = AuthenticationMessage.signing_bytes(b"\x07" * 32, tuid, 3)
    message = AuthenticationMessage(b"\x07" * 32, tuid, 3, sign_message(node_key, payload))
    assert message.encode() == payload + lp(message.signature)
    assert message.verify(public_bytes(node_key))
    assert not message.verify(public_bytes(tm_key))
    assert not dataclasses.replace(message, local_ves_index=4).verify(public_bytes(node_key))

    request = enroll_request(make_params("n1"), "tm-1", tm_key, registry, nonce=b"\x00" * 8)
    assert request.encode().startswith(
        request.signing_bytes(request.container1, request.container2)
    )
    assert request.verify(public_bytes(tm_key))
    assert not request.verify(public_bytes(module_key("tm-2")))
    assert not dataclasses.replace(request, container1=b"\x00" * 32).verify(public_bytes(tm_key))


# ---------------------------------------------------------------------------
# Finality
# ---------------------------------------------------------------------------

def tuids(*labels: str) -> list[TokenizedUid]:
    return [TokenizedUid(material(f"finality/{label}", 32)) for label in labels]


def narrated_block(narration: list[TokenizedUid]) -> DataBlock:
    block = data_block("finality")
    for tuid in narration:
        block = block.with_narration_entry(tuid)
    return block


def test_full_roster_final_in_both_modes():
    roster = tuids("a", "b", "c")
    block = narrated_block(roster)
    assert check_finality(block, roster, FinalityMode.EXHAUSTIVE)
    assert check_finality(block, roster, FinalityMode.NARRATED)


def test_latest_only_is_narrated_not_exhaustive():
    roster = tuids("a", "b", "c")
    block = narrated_block([roster[-1]])
    assert check_finality(block, roster, FinalityMode.NARRATED)
    assert not check_finality(block, roster, FinalityMode.EXHAUSTIVE)


def test_empty_narration_never_final():
    roster = tuids("a", "b")
    block = narrated_block([])
    assert not check_finality(block, roster, FinalityMode.EXHAUSTIVE)
    assert not check_finality(block, roster, FinalityMode.NARRATED)


def test_empty_roster_rejected():
    with pytest.raises(EmptyRoster):
        check_finality(narrated_block([]), [], FinalityMode.NARRATED)


def test_configurable_latest_count():
    roster = tuids("a", "b", "c", "d")
    block = narrated_block(roster[-2:])
    assert check_finality(block, roster, FinalityMode.NARRATED, latest_count=2)
    assert not check_finality(
        narrated_block([roster[-1]]), roster, FinalityMode.NARRATED, latest_count=2
    )


def test_exhaustive_implies_narrated_by_enumeration():
    # Brute force over all narration subsets for roster sizes 1..6.
    for size in range(1, 7):
        roster = tuids(*[f"n{size}/{i}" for i in range(size)])
        for mask in itertools.product((0, 1), repeat=size):
            subset = [t for t, keep in zip(roster, mask) if keep]
            block = narrated_block(subset)
            exhaustive = check_finality(block, roster, FinalityMode.EXHAUSTIVE)
            narrated = check_finality(block, roster, FinalityMode.NARRATED)
            if exhaustive:
                assert narrated


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_check_finality_matches_the_set_rule(data):
    token = st.binary(min_size=32, max_size=32).map(TokenizedUid)
    roster = data.draw(st.lists(token, min_size=1, max_size=10, unique=True))
    outsiders = data.draw(st.lists(token, max_size=2))
    narration = data.draw(st.lists(st.sampled_from(roster + outsiders), max_size=14))
    latest_count = data.draw(st.integers(1, len(roster) + 2))
    block = narrated_block(narration)
    narrated = {t.value for t in narration}
    assert check_finality(block, roster, FinalityMode.EXHAUSTIVE) == (
        narrated == {t.value for t in roster}
    )
    assert check_finality(block, roster, FinalityMode.NARRATED, latest_count) == all(
        t.value in narrated for t in roster[-latest_count:]
    )
