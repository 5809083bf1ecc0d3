"""Proof of Rapid Authentication: enrollment and block attestation.

Enrollment is a request/response exchange. The request carries the two
containers (extrinsic digest + constructed public ID) signed by a trusted
module whose public key was predefined to the backup node at genesis. The
responder -- the backup node, or any enrolled edge node -- derives the new
UID, stores the vault binding, and broadcasts the node's virtual existence
block as the response.

Blocks reach finality by accumulating authenticator tokens in their chain
of narration. Exhaustive finality demands every enrolled identity; narrated
finality accepts the most recently enrolled identity standing in for all
earlier ones, since each UID is derived from its predecessor.

Responder and authenticator states are duck-typed. A responder needs
`role`, `module_registry`, `ledger`, and `vault` attributes; an
authenticator needs `tuid` (None until enrolled), `hardware_uid`,
`local_ves_index`, and (for full nodes) `vault`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .dag import DataBlock
from .errors import (
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
from .identity import (
    ExtrinsicParameters,
    KdfParameters,
    TokenizedUid,
    TrustedModuleCredential,
    derive_uid,
    hash_extrinsic,
    match_layer,
    tokenize_uid,
)
from .keys import is_valid_public_key, sign_message, verify_signature
from .nodechain import NodeChainLedger, VesState, VirtualExistenceBlock, append_virtual_block
from .vault import CallOrigin, FULL_NODE_ROLES, VaultEntry
from .wire import encode_fields, lp

NONCE_LENGTH = 8


class FinalityMode(enum.Enum):
    EXHAUSTIVE = "exhaustive"
    NARRATED = "narrated"


class ModuleRegistry:
    """Genesis registry of trusted-module public keys."""

    def __init__(self, modules: dict[str, bytes]):
        self._modules = dict(modules)

    def __contains__(self, module_id: str) -> bool:
        return module_id in self._modules

    def public_key(self, module_id: str) -> bytes:
        if module_id not in self._modules:
            raise UnknownModule(f"module {module_id!r} not in genesis registry")
        return self._modules[module_id]


@dataclass(frozen=True)
class EnrollmentRequest:
    """The two containers plus the trusted-module attestation over them."""

    container1: bytes
    container2: bytes
    module_id: str
    module_signature: bytes
    nonce: bytes

    @staticmethod
    def signing_bytes(container1: bytes, container2: bytes) -> bytes:
        return lp(container1) + lp(container2)

    def encode(self) -> bytes:
        return encode_fields(
            self.container1,
            self.container2,
            self.module_id.encode(),
            self.module_signature,
            self.nonce,
        )


@dataclass(frozen=True)
class EnrollmentResponse:
    """Broadcast result of an enrollment: the node's virtual block."""

    virtual_block: VirtualExistenceBlock
    ledger_snapshot_ref: VesState
    vault_delta_ref: int

    def encode(self) -> bytes:
        return encode_fields(
            self.virtual_block.encode(),
            self.ledger_snapshot_ref.index,
            self.ledger_snapshot_ref.head_digest,
            self.vault_delta_ref,
        )


@dataclass(frozen=True)
class AuthenticationMessage:
    """A node's signed attestation of one data block."""

    block_digest: bytes
    tuid: TokenizedUid
    local_ves_index: int
    signature: bytes

    @staticmethod
    def signing_bytes(block_digest: bytes, tuid: TokenizedUid, ves_index: int) -> bytes:
        return encode_fields(block_digest, tuid.value, ves_index)

    def encode(self) -> bytes:
        return encode_fields(
            self.block_digest, self.tuid.value, self.local_ves_index, self.signature
        )


class AuthResult(NamedTuple):
    block: DataBlock
    duplicate: bool


def enroll_request(
    params: ExtrinsicParameters,
    credential: TrustedModuleCredential,
    registry: ModuleRegistry,
    nonce: bytes,
) -> EnrollmentRequest:
    """Build the two-container request, attested by the trusted module."""
    if credential.module_id not in registry:
        raise UnknownModule(f"module {credential.module_id!r} not in genesis registry")
    if registry.public_key(credential.module_id) != credential.public_key:
        raise UnknownModule("credential public key does not match the registry")
    if len(nonce) != NONCE_LENGTH:
        raise InvalidParameters(f"nonce must be {NONCE_LENGTH} bytes")
    container1, container2 = hash_extrinsic(params)
    signature = sign_message(
        credential.private_key, EnrollmentRequest.signing_bytes(container1, container2)
    )
    return EnrollmentRequest(
        container1=container1,
        container2=container2,
        module_id=credential.module_id,
        module_signature=signature,
        nonce=nonce,
    )


def enroll_respond(
    responder,
    request: EnrollmentRequest,
    kdf: KdfParameters,
    token_salt: bytes,
    timestamp: int,
) -> EnrollmentResponse:
    """Derive the UID, bind it in the vault, and append the virtual block.

    Only backup and edge nodes may respond. The previous UID feeding the
    generator is the most recent vault entry's real UID.
    """
    if responder.role not in FULL_NODE_ROLES:
        raise Unauthorized(f"role {responder.role.value} cannot respond to enrollment")
    registry: ModuleRegistry = responder.module_registry
    module_key = registry.public_key(request.module_id)
    message = EnrollmentRequest.signing_bytes(request.container1, request.container2)
    if not verify_signature(module_key, request.module_signature, message):
        raise BadSignature("module signature does not verify")
    if not is_valid_public_key(request.container2):
        raise InvalidParameters("container2 is not a valid public key")
    vault = responder.vault
    if len(vault) == 0:
        raise EmptyChain("responder holds no genesis state")
    if vault.holds_extrinsic(request.container1):
        raise AlreadyEnrolled("extrinsic digest already enrolled")

    prev_uid = vault.entry_at(len(vault)).real_uid
    uid = derive_uid(request.container1, prev_uid, kdf)
    tuid = tokenize_uid(uid, token_salt)
    ledger: NodeChainLedger = responder.ledger
    ves = ledger.ves
    block = VirtualExistenceBlock.create(
        tuid=tuid,
        constructed_public_key=request.container2,
        prev_link=ves.head_digest,
        nns_index=ves.index + 1,
        timestamp=timestamp,
        extrinsic_digest=request.container1,
    )
    new_ves = append_virtual_block(ledger, block)
    entry = VaultEntry(
        enrollment_index=block.nns_index,
        real_uid=uid,
        tuid=tuid,
        extrinsic_digest=request.container1,
        module_id=request.module_id,
    )
    vault.append(entry, responder.role)
    return EnrollmentResponse(
        virtual_block=block,
        ledger_snapshot_ref=new_ves,
        vault_delta_ref=entry.enrollment_index,
    )


def authenticate_block(
    node,
    block: DataBlock,
    network_ves_index: int,
    token_salt: bytes,
) -> AuthResult:
    """Extend a block's chain of narration with this node's token.

    The node must be enrolled, hold a ledger copy at the network's current
    version (the NNS handshake), and pass the match layer for its own
    identity. Full nodes additionally check the vault they hold against the
    hardware-held UID. Re-authentication is an idempotent no-op flagged as
    a duplicate.
    """
    if node.tuid is None:
        raise IdentityMismatch("node is not enrolled")
    if node.local_ves_index != network_ves_index:
        raise StaleState(
            f"local VES {node.local_ves_index} != network VES {network_ves_index}"
        )
    if node.hardware_uid is None or not match_layer(node.tuid, node.hardware_uid, token_salt):
        raise IdentityMismatch("match layer failed for authenticator identity")
    if getattr(node, "vault", None) is not None:
        entry = node.vault.lookup(node.tuid, CallOrigin.LOCAL)
        if entry is None or entry.real_uid != node.hardware_uid:
            raise IdentityMismatch("vault entry does not match hardware identity")
    if node.tuid in block.narrated:
        return AuthResult(block, duplicate=True)
    return AuthResult(block.with_narration_entry(node.tuid), duplicate=False)


def check_finality(
    block: DataBlock,
    roster: Sequence[TokenizedUid],
    mode: FinalityMode,
    latest_count: int = 1,
) -> bool:
    """Decide finality from the narration against the enrollment roster.

    Exhaustive: the narration token set equals the roster set. Narrated:
    the narration contains the `latest_count` most recently enrolled
    tokens (default: just the latest).

    The roster lists distinct tokens, so in exhaustive mode equal sizes
    plus containment is set equality; the containment walk runs only on
    the attestation that brings the narration up to the roster's size.
    """
    if not roster:
        raise EmptyRoster("finality requires a non-empty roster")
    narrated = block.narrated
    if mode is FinalityMode.EXHAUSTIVE:
        return len(narrated) == len(roster) and narrated.issuperset(roster)
    return narrated.issuperset(roster[-latest_count:])
