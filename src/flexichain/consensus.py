"""Proof of Rapid Authentication: enrollment and block attestation.

Enrollment is a request/response exchange. The request carries the two
containers (extrinsic digest + constructed public ID) signed by a trusted
module whose public key was predefined to the backup node at genesis. The
responder -- the backup node, or any enrolled edge node -- checks it, and
one binding step derives the UID, appends the virtual existence block and
binds the UID in the vault; the block is broadcast as the response. Genesis
binds the backup node as identity 1 through the same step.

Blocks reach finality by accumulating authenticator tokens in their chain
of narration. Exhaustive finality demands every enrolled identity; narrated
finality accepts the most recently enrolled identity standing in for all
earlier ones, since each UID is derived from its predecessor.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, KeysView, Sequence

from .errors import (
    AlreadyEnrolled,
    BadSignature,
    EmptyChain,
    EmptyRoster,
    IdentityMismatch,
    IntegrityViolation,
    InvalidParameters,
    StaleState,
    Unauthorized,
    UnknownModule,
)
from .identity import (
    ExtrinsicParameters,
    KdfParameters,
    TokenizedUid,
    Uid,
    derive_uid,
    hash_extrinsic,
    match_layer,
    tokenize_uid,
    zero_uid,
)
from .keys import is_valid_public_key, public_bytes, sign_message, verify_signature
from .nodechain import NodeChainLedger, VirtualExistenceBlock, append_virtual_block
from .vault import CallOrigin, FULL_NODE_ROLES, NodeRole, Vault, VaultEntry
from .wire import BYTES, INT, TEXT, Record, nested, token, wire

if TYPE_CHECKING:
    from .dag import DataBlock

NONCE_LENGTH = 8


class FinalityMode(enum.Enum):
    EXHAUSTIVE = "exhaustive"
    NARRATED = "narrated"


class ModuleRegistry:
    """Genesis registry of trusted-module public keys."""

    def __init__(self, modules: dict[str, bytes]):
        self._modules = dict(modules)

    def public_key(self, module_id: str) -> bytes:
        if module_id not in self._modules:
            raise UnknownModule(f"module {module_id!r} not in genesis registry")
        return self._modules[module_id]


@dataclass(frozen=True)
class EnrollmentRequest(Record):
    """The two containers plus the trusted-module attestation over them."""

    container1: bytes = wire(BYTES)
    container2: bytes = wire(BYTES)
    module_id: str = wire(TEXT)
    module_signature: bytes = wire(BYTES)
    nonce: bytes = wire(BYTES)

    NOUN = "enrollment request"
    PREFIX = 2

    def verify(self, public_key: bytes) -> bool:
        return verify_signature(public_key, self.module_signature, self.prefix())


@dataclass(frozen=True)
class EnrollmentResponse(Record):
    """Broadcast result of an enrollment: the node's virtual block, the new
    chain head, then the VES index, head digest and vault entry index that
    block implies (`of`): its index, digest, index."""

    virtual_block: VirtualExistenceBlock = wire(nested(VirtualExistenceBlock))
    ves_index: int = wire(INT)
    ves_head_digest: bytes = wire(BYTES)
    vault_index: int = wire(INT)

    NOUN = "enrollment response"

    @classmethod
    def of(cls, block: VirtualExistenceBlock) -> "EnrollmentResponse":
        return cls(block, block.nns_index, block.header_digest, block.nns_index)

    def check_decoded(self) -> None:
        if self != self.of(self.virtual_block):
            raise IntegrityViolation("response contradicts its virtual block")


@dataclass(frozen=True)
class AuthenticationMessage(Record):
    """A node's signed attestation of one data block."""

    block_digest: bytes = wire(BYTES)
    tuid: TokenizedUid = wire(token(TokenizedUid))
    local_ves_index: int = wire(INT)
    signature: bytes = wire(BYTES)

    NOUN = "authentication message"
    PREFIX = 3

    def verify(self, public_key: bytes) -> bool:
        return verify_signature(public_key, self.signature, self.prefix())


def enroll_request(
    params: ExtrinsicParameters,
    module_id: str,
    module_key,
    registry: ModuleRegistry,
    nonce: bytes,
) -> EnrollmentRequest:
    """Build the two-container request, signed with `module_key`, trusted
    module `module_id`'s private key. UnknownModule unless the registry
    holds `module_id` with that key's public half."""
    if registry.public_key(module_id) != public_bytes(module_key):
        raise UnknownModule("module key does not match the registry")
    if len(nonce) != NONCE_LENGTH:
        raise InvalidParameters(f"nonce must be {NONCE_LENGTH} bytes")
    container1, container2 = hash_extrinsic(params)
    signature = sign_message(module_key, EnrollmentRequest.signing_bytes(container1, container2))
    return EnrollmentRequest(container1, container2, module_id, signature, nonce)


def _bind(
    ledger: NodeChainLedger, vault: Vault, role: NodeRole,
    container1: bytes, container2: bytes, module_id: str,
    kdf: KdfParameters, token_salt: bytes, timestamp: int,
) -> tuple[VirtualExistenceBlock, Uid]:
    """Derive the next UID, bind it in the vault, and append its virtual block.

    The previous UID feeding the generator is the last vault entry's real
    UID, or the all-zero UID for genesis. The vault entry goes first: the
    vault may refuse it, but not a block built on the chain's own head, so
    a refused join leaves neither behind and the chain and vault keep the
    same length.
    """
    prev_uid = vault.entry_at(len(vault)).real_uid if len(vault) else zero_uid(kdf.output_length)
    uid = derive_uid(container1, prev_uid, kdf)
    ves = ledger.ves
    block = VirtualExistenceBlock.create(
        tuid=tokenize_uid(uid, token_salt),
        constructed_public_key=container2,
        prev_link=ves.head_digest,
        nns_index=ves.index + 1,
        timestamp=timestamp,
        extrinsic_digest=container1,
    )
    vault.append(VaultEntry(block.nns_index, uid, block.tuid, container1, module_id), role)
    append_virtual_block(ledger, block)
    return block, uid


def genesis(
    params: ExtrinsicParameters,
    module_id: str,
    kdf: KdfParameters,
    token_salt: bytes,
    timestamp: int = 0,
) -> tuple[NodeChainLedger, Vault, Uid]:
    """The chain and vault holding the backup node as identity 1, and its UID."""
    ledger, vault = NodeChainLedger(), Vault(token_salt)
    container1, container2 = hash_extrinsic(params)
    _, uid = _bind(ledger, vault, NodeRole.BACKUP, container1, container2,
                   module_id, kdf, token_salt, timestamp)
    return ledger, vault, uid


def enroll_respond(
    role: NodeRole,
    registry: ModuleRegistry,
    ledger: NodeChainLedger,
    vault: Vault,
    request: EnrollmentRequest,
    kdf: KdfParameters,
    token_salt: bytes,
    timestamp: int,
) -> EnrollmentResponse:
    """Check the request as a responder of `role`, then bind the new
    identity in `ledger` and `vault`.

    Only backup and edge nodes may respond, and only once genesis has
    bound identity 1: an empty vault would otherwise mint a second genesis.
    """
    if role not in FULL_NODE_ROLES:
        raise Unauthorized(f"role {role.value} cannot respond to enrollment")
    if not request.verify(registry.public_key(request.module_id)):
        raise BadSignature("module signature does not verify")
    if not is_valid_public_key(request.container2):
        raise InvalidParameters("container2 is not a valid public key")
    if len(vault) == 0:
        raise EmptyChain("responder holds no genesis state")
    if vault.holds_extrinsic(request.container1):
        raise AlreadyEnrolled("extrinsic digest already enrolled")
    block, _ = _bind(
        ledger, vault, role, request.container1, request.container2,
        request.module_id, kdf, token_salt, timestamp,
    )
    return EnrollmentResponse.of(block)


def authenticate_block(
    node,
    block: DataBlock,
    local_ves_index: int,
    network_ves_index: int,
    token_salt: bytes,
) -> DataBlock:
    """The block with its chain of narration extended by this node's token.

    Only the node's `tuid` (None until enrolled), `hardware_uid` and `vault`
    are read. The node must be enrolled, hold the ledger at the network's
    current version (the NNS handshake), and pass the match layer for its
    own identity. A full node additionally checks the vault it holds against
    the hardware-held UID. Re-authentication is an idempotent no-op: the
    block comes back unchanged, and a caller tells a duplicate by
    `node.tuid in block.narrated` on the block it passed in.
    """
    if node.tuid is None:
        raise IdentityMismatch("node is not enrolled")
    if local_ves_index != network_ves_index:
        raise StaleState(f"local VES {local_ves_index} != network VES {network_ves_index}")
    if node.hardware_uid is None or not match_layer(node.tuid, node.hardware_uid, token_salt):
        raise IdentityMismatch("match layer failed for authenticator identity")
    if node.vault is not None:
        entry = node.vault.lookup(node.tuid, CallOrigin.LOCAL)
        if entry is None or entry.real_uid != node.hardware_uid:
            raise IdentityMismatch("vault entry does not match hardware identity")
    if node.tuid in block.narrated:
        return block
    return block.with_narration_entry(node.tuid)


def check_finality(
    block: DataBlock,
    roster: Sequence[TokenizedUid] | KeysView[TokenizedUid],
    mode: FinalityMode,
    latest_count: int = 1,
) -> bool:
    """Decide finality from the narration against the enrollment roster, a
    list or a live view of the enrolled tokens in enrollment order.

    Exhaustive: the narration token set equals the roster set. Narrated:
    the narration contains the `latest_count` most recently enrolled
    tokens (default: just the latest), read from the roster's end.

    The roster lists distinct tokens, so in exhaustive mode equal sizes
    plus containment is set equality; the containment walk runs only on
    the attestation that brings the narration up to the roster's size.
    """
    if not roster:
        raise EmptyRoster("finality requires a non-empty roster")
    narrated = block.narrated
    if mode is FinalityMode.EXHAUSTIVE:
        return len(narrated) == len(roster) and narrated.issuperset(roster)
    return narrated.issuperset(islice(reversed(roster), latest_count))
