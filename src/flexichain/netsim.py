"""The network: one scenario's protocol state, stepped event by event.

A `Network` runs a parsed scenario (`scenario.ScenarioConfig`) on a virtual
clock, one script event per `step`. Every value it consumes (signing keys,
nonces, payloads) is derived from the scenario seed by `scenario.material`,
and all timestamps come from the script, so a scenario replays to a
byte-identical trace.

The NodeChain, the layer-0 ledger (which owns the branch table) and the
module registry are network state, passed to `consensus` as arguments; a
node holds only its own facts. An online member reads the shared chain, so
the VES it presents at the NNS gate is the network's; a node that goes
offline is refused before that gate, and no event brings it back. The vault
is one log, which every full node member holds, and every vault read
carries its provenance. A network holds only plain data, so
`copy.deepcopy(net)` branches a run: the copy shares no mutable state with
the original and steps on to the same bytes. Frozen records (identities,
KDF parameters, blocks, transactions) copy as themselves, so a copy shares
them.

An `authenticate` event is one round, `Network.authenticate`. It hands
the attestations of its online members to `workers.fork_map`, with no more
processes than leave each at least half of `PARALLEL_ATTESTATIONS`: on 2
CPUs a round of 96 or more signs and verifies them in two processes, the
second forked for the round and reaped before it returns; a smaller one,
or one beside another thread, stays in this process. Either way the trace
is the same.

An `attack` event goes to `adversary.inject_attack`, which acts on the
network only through its public methods and attributes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import KeysView

import numpy as np

from . import consensus, dag, nodechain, secmodel
from .adversary import inject_attack
from .consensus import (
    NONCE_LENGTH,
    AuthenticationMessage,
    FinalityMode,
    ModuleRegistry,
    check_finality,
)
from .errors import (
    AlreadyInitialized,
    BlockNotPending,
    DomainError,
    IdentityMismatch,
    ProtocolError,
    Unauthorized,
)
from .identity import ExtrinsicParameters, TokenizedUid, Uid
from .keys import public_bytes, sign_message, signing_key_from_seed
from .scenario import ScenarioConfig, material
from .vault import CallOrigin, FULL_NODE_ROLES, NodeRole, Vault
from .wire import encode_fields, lp, sha256
from .workers import fork_map

# Attestations in one round from which `Network.authenticate` signs and
# verifies them on every CPU, giving each process at least half as many.
# Forked time over serial time of a round split over 2 processes, by its
# attestations, as the range of medians of 15 or 25 alternations over up to
# five sets on a shared 2-vCPU machine: 16: 1.85, 32: 1.22-1.44, 48:
# 0.96-1.13, 64: 0.89-1.06, 96: 0.76-0.88, 128: 0.76-0.96, 256: 0.74-0.93.
# 64 is break-even there; 96 is the smallest size measured as a clear win.
# Splits over more than 2 processes are unmeasured.
PARALLEL_ATTESTATIONS = 96


# ---------------------------------------------------------------------------
# Node actors
# ---------------------------------------------------------------------------

@dataclass
class NodeState:
    """What one actor, honest or fabricated, holds itself."""

    name: str
    role: NodeRole
    module_id: str
    params: ExtrinsicParameters
    signing_key: object  # Ed25519PrivateKey
    via: str | None = None
    tuid: TokenizedUid | None = None
    hardware_uid: Uid | None = None  # real UID held in the node's secure hardware
    vault: Vault | None = None  # full nodes: the network's log, from admission on
    online: bool = True  # until a `disable` event

    @property
    def public_id(self) -> bytes:
        return self.params.constructed_public_id

    @property
    def enrolled(self) -> bool:
        return self.tuid is not None


# ---------------------------------------------------------------------------
# The network
# ---------------------------------------------------------------------------

class Network:
    """All shared protocol state plus the per-node actors of one scenario."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.clock = 0
        self.trace: list[str] = []
        self.metrics: dict = {
            "enrollments": 0,
            "rejected_enrollments": 0,
            "transactions": 0,
            "blocks_built": 0,
            "blocks_finalized": 0,
            "authentications": 0,
            "duplicate_authentications": 0,
            "rejections": 0,
            "attacks": [],
        }

        self._module_keys = {
            mid: signing_key_from_seed(material(config.seed, "module", mid))
            for mid in config.modules
        }
        self.module_registry = ModuleRegistry(
            {mid: public_bytes(key) for mid, key in self._module_keys.items()}
        )

        self.nodes: dict[str, NodeState] = {}
        for spec in config.nodes:
            signing_seed = material(config.seed, "constructed-key", spec["name"])
            self.nodes[spec["name"]] = self.new_node(spec, signing_seed)
        self.backup = next(n for n in self.nodes.values() if n.role is NodeRole.BACKUP)

        # Members in enrollment (= chain) order: tuid -> (node, on-chain block);
        # the keys are the roster finality is decided against.
        self._members: dict[
            TokenizedUid, tuple[NodeState, nodechain.VirtualExistenceBlock]
        ] = {}

        # Genesis: the backup node's virtual existence is block 1.
        self.nodechain, self.vault, self.backup.hardware_uid = consensus.genesis(
            self.backup.params, self.backup.module_id, config.kdf, config.token_salt
        )
        genesis_block = self.nodechain.block_at(1)
        self._admit(self.backup, genesis_block)

        self.layer0 = dag.Layer0Ledger(genesis_block.header_digest)
        self.tx_pool: dict[dag.Transaction, None] = {}  # in arrival order
        self.pending_blocks: dict[bytes, dag.DataBlock] = {}
        self.latest_pending: bytes | None = None
        # Identities attacks have fabricated; the adversary numbers the next.
        self.fabrications = 0

        self.record(self.backup.name, "genesis", genesis_block.encode())

    # -- bookkeeping --------------------------------------------------------

    def record(self, actor: str, event: str, payload: bytes) -> None:
        """Append a trace line stamped with the network clock."""
        digest = sha256(payload).hex()
        self.trace.append(f"t={self.clock} actor={actor} event={event} payload={digest}")

    def reject(self, actor: str, action: str, exc: Exception) -> None:
        self.metrics["rejections"] += 1
        payload = f"{action}:{type(exc).__name__}".encode()
        self.record(actor, "reject", payload)

    def trace_digest(self) -> bytes:
        return sha256(("\n".join(self.trace) + "\n").encode())

    def new_node(self, spec: dict, signing_seed: bytes) -> NodeState:
        """An actor built from a parsed `nodes` record, with a constructed key
        derived from `signing_seed`."""
        key = signing_key_from_seed(signing_seed)
        return NodeState(
            name=spec["name"],
            role=spec["role"],
            module_id=spec["module"],
            params=ExtrinsicParameters(constructed_public_id=public_bytes(key),
                                       **spec["extrinsic"]),
            signing_key=key,
            via=spec["via"],
        )

    def request(self, node: NodeState, nonce: bytes) -> consensus.EnrollmentRequest:
        """`node`'s request, signed by its trusted module; an unregistered
        module holds no key, and the registry refuses it first."""
        return consensus.enroll_request(
            node.params, node.module_id, self._module_keys.get(node.module_id),
            self.module_registry, nonce[:NONCE_LENGTH],
        )

    def respond(
        self, responder: NodeState, node: NodeState, request: consensus.EnrollmentRequest
    ) -> consensus.EnrollmentResponse:
        """`responder` checks and binds `request`; `node` becomes its member."""
        response = consensus.enroll_respond(
            responder.role, self.module_registry, self.nodechain, self.vault, request,
            self.config.kdf, self.config.token_salt, timestamp=self.clock,
        )
        self._admit(node, response.virtual_block)
        return response

    def _admit(self, node: NodeState, block: nodechain.VirtualExistenceBlock) -> None:
        """Make `node` the member behind the on-chain `block`, which a
        responder just accepted.

        A full node holds the network's vault log. The vault refuses a
        repeated token, so every `block.tuid` is a new member.
        """
        node.tuid = block.tuid
        if node.role in FULL_NODE_ROLES:
            node.vault = self.vault
        self._members[block.tuid] = (node, block)
        self.metrics["enrollments"] += 1

    @property
    def finality(self) -> tuple[KeysView[TokenizedUid], FinalityMode, int]:
        """The rules `check_finality` and `append_block` take: the roster, a
        live view of the members' tokens in enrollment order, the finality
        mode and the latest count."""
        return self._members.keys(), self.config.finality_mode, self.config.latest_count

    def roster(self) -> list[TokenizedUid]:
        """A copy of the on-chain identity roster in enrollment order."""
        return list(self._members)

    def node_for_tuid(self, tuid: TokenizedUid) -> NodeState | None:
        member = self._members.get(tuid)
        return member[0] if member else None

    def full_nodes(self) -> list[NodeState]:
        return [n for n in self.nodes.values() if n.vault is not None]

    def responder(self) -> NodeState:
        """The backup node, or the first enrolled online edge node."""
        if self.backup.online:
            return self.backup
        for node, _ in self._members.values():
            if node.online and node.role is NodeRole.EDGE:
                return node
        raise Unauthorized("no eligible enrollment responder is online")

    # -- event handlers -----------------------------------------------------

    def run_script(self) -> None:
        for ev in self.config.script:
            self.step(ev)

    def step(self, ev: dict) -> None:
        """Handle one parsed script event at its time."""
        self.clock = ev["at"]
        getattr(self, f"_handle_{ev['event']}")(ev)

    def _handle_genesis(self, ev: dict) -> None:
        raise AlreadyInitialized("network already has a genesis chain")

    def _handle_join(self, ev: dict) -> None:
        node = self.nodes[ev["node"]]
        try:
            self.enroll(node)
        except ProtocolError as exc:
            self.metrics["rejected_enrollments"] += 1
            self.reject(node.name, "join", exc)

    def enroll(self, node: NodeState) -> None:
        """Full request/response/broadcast flow for one joining node."""
        if not node.online:
            raise Unauthorized("offline node cannot join")
        request = self.request(node, material(self.config.seed, "nonce", node.name))
        self.record(node.name, "request", request.encode())
        responder = self._route_responder(node)
        response = self.respond(responder, node, request)
        self.record(responder.name, "response", response.encode())
        # The joining node receives its hardware identity; a full node
        # already holds the vault.
        provisioned = self.vault.lookup(response.virtual_block.tuid, CallOrigin.LOCAL)
        node.hardware_uid = provisioned.real_uid
        self.record(node.name, "sync", encode_fields(len(self.nodechain)))

    def _route_responder(self, node: NodeState) -> NodeState:
        if node.role is NodeRole.SUBSCRIBER and node.via:
            via = self.nodes[node.via]
            if via.online and via.enrolled and via.role is NodeRole.EDGE:
                return via
        return self.responder()

    def _handle_register_branch(self, ev: dict) -> None:
        branch_id = ev["branch"]
        genesis_digest = sha256(
            b"flexichain.branch-genesis"
            + lp(branch_id.encode())
            + lp(self.nodechain.ves.head_digest)
        )
        tag = self.layer0.register_branch(branch_id, genesis_digest, self.clock)
        self.record("network", "branch", encode_fields(
            tag.encode(), branch_id.encode(), genesis_digest
        ))

    def _handle_transactions(self, ev: dict) -> None:
        node = self.nodes[ev["node"]]
        tag = self.layer0.branches[ev["branch"]]
        if not (node.enrolled and node.online):
            self.reject(node.name, "transactions", Unauthorized("node not enrolled or offline"))
            return
        for _ in range(ev["count"]):
            payload = material(self.config.seed, "tx", node.name, self.metrics["transactions"])
            tx = dag.Transaction.signed(
                node.signing_key, node.public_id, tag, payload, self.clock
            )
            self.tx_pool[tx] = None
            self.metrics["transactions"] += 1
            self.record(node.name, "tx", tx.encode())

    def _handle_build_block(self, ev: dict) -> None:
        node = self.nodes[ev["node"]]
        tag = self.layer0.branches[ev["branch"]]
        try:
            candidate = dag.build_candidate_block(
                self.tx_pool, node.public_id, tag, ev["window"]
            )
            prev, rand = self.layer0.select_parents(candidate)
            block = candidate.with_parents(prev, rand)
        except ProtocolError as exc:
            self.reject(node.name, "build_block", exc)
            return
        self.pending_blocks[block.header_digest] = block
        self.latest_pending = block.header_digest
        self.metrics["blocks_built"] += 1
        self.record(node.name, "block_candidate", block.encode())

    def _handle_authenticate(self, ev: dict) -> None:
        digest = self.latest_pending if ev["block"] == "latest" else ev["block"]
        if digest not in self.pending_blocks:
            self.reject("network", "authenticate", ProtocolError("no pending block"))
            return
        who = ev["nodes"]
        if who == "all":
            authenticators = [n for n, _ in self._members.values() if n.online]
        else:
            authenticators = [self.nodes[name] for name in who]
        self.authenticate(authenticators, digest)

    def authenticate(self, nodes: list[NodeState], block_digest: bytes) -> None:
        """One round of signed attestations over a pending block, node by node.

        Each authenticator gates itself first (enrollment, NNS handshake,
        match layer, then its extrinsic parameters against the header of its
        on-chain block); receivers then verify the broadcast attestation
        against the node's on-chain constructed key. An online member reads
        the shared chain, so the VES index it presents is the network's.

        Signing and verifying read nothing the round changes, so the
        attestation of every online member the round names is signed and
        checked up front in the runs `workers.fork_map` places, each of at
        least half of `PARALLEL_ATTESTATIONS` attestations. That includes
        members whose gates refuse them and those reached after the block
        finalized, whose attestation is then never used. Signatures are
        deterministic and the gates still run per node, in order, so the
        trace and the vault's read counters are those of signing each
        attestation when its node is reached.
        """
        ves_index = len(self.nodechain)
        signers = {n.name: n for n in nodes if n.online and n.tuid in self._members}
        signed = dict(zip(signers, chain.from_iterable(fork_map(
            lambda run: [self._attestation(n, block_digest, ves_index) for n in run],
            list(signers.values()),
            2 * len(signers) // PARALLEL_ATTESTATIONS,
        ))))
        for node in nodes:
            block = self.pending_blocks.get(block_digest)
            if block is None:
                # The block finalized earlier in this round.
                self.reject(node.name, "authenticate",
                            BlockNotPending("block is no longer pending"))
                continue
            try:
                if not node.online:
                    raise Unauthorized("offline node cannot attest")
                attested = consensus.authenticate_block(
                    node, block, ves_index, ves_index, self.config.token_salt
                )
                if nodechain.detect_header_change(self._members[node.tuid][1], node.params):
                    raise IdentityMismatch(
                        "header check: extrinsic parameters differ from the chain")
                message, verified = signed[node.name]
                if not verified:
                    raise Unauthorized("attestation signature does not verify")
            except ProtocolError as exc:
                self.reject(node.name, "authenticate", exc)
                continue
            if node.tuid in block.narrated:
                self.metrics["duplicate_authentications"] += 1
                self.record(node.name, "duplicate_auth", message.encode())
                continue
            self.pending_blocks[block_digest] = attested
            self.metrics["authentications"] += 1
            self.record(node.name, "auth", message.encode())
            self._check_block_finality(block_digest)

    def _attestation(
        self, node: NodeState, block_digest: bytes, ves_index: int
    ) -> tuple[AuthenticationMessage, bool]:
        """A member's signed attestation, and whether it verifies against the
        constructed key of its on-chain block."""
        message = AuthenticationMessage(
            block_digest=block_digest,
            tuid=node.tuid,
            local_ves_index=ves_index,
            signature=sign_message(
                node.signing_key,
                AuthenticationMessage.signing_bytes(block_digest, node.tuid, ves_index),
            ),
        )
        return message, message.verify(self._members[node.tuid][1].constructed_public_key)

    def _check_block_finality(self, block_digest: bytes) -> None:
        block = self.pending_blocks[block_digest]
        if not check_finality(block, *self.finality):
            return
        try:
            self.layer0.append_block(block, *self.finality)
        except ProtocolError as exc:
            self.reject("network", "finalize", exc)
            return
        del self.pending_blocks[block_digest]
        # All pooled: the block was built from the pool; append_block refuses finalized txs.
        for tx in block.transactions:
            del self.tx_pool[tx]
        if self.latest_pending == block_digest:
            self.latest_pending = None
        self.metrics["blocks_finalized"] += 1
        self.record("network", "finalized", block.encode())

    def _handle_disable(self, ev: dict) -> None:
        """Take the node offline for the rest of the run."""
        node = self.nodes[ev["node"]]
        node.online = False
        self.record(node.name, "disable", b"")

    def _handle_attack(self, ev: dict) -> None:
        self.metrics["attacks"].append(inject_attack(self, ev))

    # -- summary ------------------------------------------------------------

    def vault_audit(self) -> dict[str, int]:
        """The read counters of the network's vault log, the only one read."""
        return self.vault.audit()

    def summary(self) -> dict:
        roles = {}
        for node in self.nodes.values():
            roles[node.role.value] = roles.get(node.role.value, 0) + 1
        return {
            **self.metrics,
            "nodes_by_role": roles,
            "nodechain_length": len(self.nodechain),
            "vault_size": len(self.vault),
            "finality_mode": self.config.finality_mode.value,
            "vault_audit": self.vault_audit(),
            "trace_digest": self.trace_digest().hex(),
        }


@dataclass(frozen=True)
class SimulationResult:
    network: Network
    trace: tuple[str, ...]
    metrics: dict
    trace_digest: bytes


def run_scenario(config: ScenarioConfig) -> SimulationResult:
    """Execute a scenario on a fresh network and return its trace."""
    net = Network(config)
    net.run_script()
    return SimulationResult(
        network=net,
        trace=tuple(net.trace),
        metrics=net.metrics,
        trace_digest=net.trace_digest(),
    )


# ---------------------------------------------------------------------------
# Monte-Carlo sampling of the analytic attack model
# ---------------------------------------------------------------------------

# Stage draws per chunk: 1 MiB of doubles. Of the budgets measured on a
# 2-vCPU machine (2^15 to 2^18) with the word-wise test below, 2^16 and
# 2^17 sampled the `montecarlo` grid fastest.
MC_CHUNK_DRAWS = 2**17


def monte_carlo_attack(
    category: int,
    n: int,
    amplitude: float,
    per_node: float,
    trials: int,
    seed: int,
) -> float:
    """Empirical estimate of A * x**n by direct simulation.

    Each trial passes one Bernoulli(A) gate followed by n independent
    Bernoulli(x) per-node stages; the estimate is the success fraction.

    The random stream is that of `np.random.default_rng([seed, category,
    n])`: `trials` gate draws, then `trials * n` stage draws, trial by
    trial. PCG64 spends one 64-bit output per double, so a second
    generator with the same seed, advanced by `trials` outputs, starts at
    the first stage draw. The trials are sampled in chunks of
    `MC_CHUNK_DRAWS // n` rows (at least one), each taking its gates from
    the first generator and its stages from the second, so the estimate
    is the one a single draw of the whole stream gives. Every chunk is
    drawn and tested in buffers allocated once per call, so memory is
    O(MC_CHUNK_DRAWS + n) whatever `trials` is.
    """
    secmodel.CategoryFactors(amplitude, per_node)  # refuses a non-probability
    if trials < 1:
        raise DomainError("trials must be at least 1")
    if n < 1:
        raise DomainError("node count must be at least 1")
    gates = np.random.default_rng([seed, category, n])
    stages = np.random.default_rng([seed, category, n])
    stages.bit_generator.advance(trials)
    rows = min(trials, max(1, MC_CHUNK_DRAWS // n))
    gate = np.empty(rows)
    draws = np.empty((rows, n))
    # A row's n stage outcomes, True where the stage failed, read as n // w
    # unsigned words of the widest w in 8, 4, 2, 1 bytes that divides n. A
    # trial succeeds iff its gate did not fail and the OR of its words is 0,
    # on any byte order. Two of the grid's three n take one word per row.
    failed = np.empty((rows, n), dtype=bool)
    words = failed.view(f"u{next(w for w in (8, 4, 2, 1) if n % w == 0)}")
    gate_failed = np.empty(rows, dtype=bool)
    any_failed = np.empty(rows, dtype=words.dtype)
    successes = 0
    for start in range(0, trials, rows):
        size = min(rows, trials - start)
        gates.random(out=gate[:size])
        stages.random(out=draws[:size])
        np.greater_equal(gate[:size], amplitude, out=gate_failed[:size])
        np.greater_equal(draws[:size], per_node, out=failed[:size])
        np.bitwise_or(gate_failed[:size], words[:size, 0], out=any_failed[:size])
        for j in range(1, words.shape[1]):
            np.bitwise_or(any_failed[:size], words[:size, j], out=any_failed[:size])
        successes += size - int(np.count_nonzero(any_failed[:size]))
    return successes / trials
