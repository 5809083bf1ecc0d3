"""Deterministic discrete-event harness for the protocol.

A scenario is a JSON document executed on a virtual clock. One table per
object (`SCENARIO`, `KDF`, `NODE`, `EXTRINSIC`, and `EVENTS` for the script
events `join`, `register_branch`, `transactions`, `build_block`,
`authenticate`, `attack`, `disable`, `genesis`) gives every field's rule and
default; see "Scenario schema" below and README.md. Every value the simulation
consumes -- extrinsic fixtures, signing keys, nonces, payloads -- is
derived from the scenario seed by counter-mode SHA-256, and all timestamps
come from the script, so a scenario replays to a byte-identical trace.

The authoritative NodeChain is shared state (honest full copies are
byte-identical by construction), and so is the layer-0 ledger, which owns
the branch table. A node's VES cursor, which the NNS gate checks, is read
from the chain: an online member is at the head, and a node that goes
offline keeps the version it held. The vault follows the same pattern: one
log, which every online full node holds and an offline one keeps a snapshot
of, and every vault read carries its provenance for the offline audit.

Adversaries are modeled by an explicit capability lattice. An attack event
holds a subset of {constructed_keys, module_key, vault_access, tuids} and
attempts its category's protocol actions with exactly those secrets; the
outcome records the first check that blocked it (module registry,
signature, NNS gate, match layer, offline gate, or finality quorum).
Knowing TUIDs grants nothing extra: they are already public on chain.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, field, fields

import numpy as np

from . import consensus, dag, identity, nodechain
from .consensus import (
    AuthenticationMessage,
    FinalityMode,
    ModuleRegistry,
    check_finality,
)
from .errors import (
    AlreadyInitialized,
    BlockNotPending,
    ConfigError,
    DomainError,
    OfflineViolation,
    ProtocolError,
    Unauthorized,
    UnknownBranch,
)
from .identity import (
    ExtrinsicParameters,
    KdfParameters,
    TokenizedUid,
    TrustedModuleCredential,
    Uid,
    match_layer,
)
from .keys import public_bytes, sign_message, signing_key_from_seed, verify_signature
from .vault import CallOrigin, FULL_NODE_ROLES, NodeRole, Vault, VaultEntry
from .wire import ZERO32, encode_fields, encode_u64, lp, sha256

# Name prefix of the identities an attack fabricates. Scenario nodes may not
# use it: a fabricated node would take over such a node's name and share its
# extrinsic fixture.
SYBIL_PREFIX = "sybil-"
SECRET_KINDS = frozenset({"constructed_keys", "module_key", "vault_access", "tuids"})


# ---------------------------------------------------------------------------
# Seeded fixture derivation
# ---------------------------------------------------------------------------

def _material(seed: int, *labels: object) -> bytes:
    """32 deterministic bytes bound to the seed and a label path."""
    blob = b"flexichain.fixture" + encode_u64(seed)
    for label in labels:
        if isinstance(label, int):
            blob += lp(encode_u64(label))
        elif isinstance(label, bytes):
            blob += lp(label)
        else:
            blob += lp(str(label).encode())
    return sha256(blob)


# ---------------------------------------------------------------------------
# Scenario schema
# ---------------------------------------------------------------------------
#
# Every JSON object of a scenario has one table: key -> (rule, default).
# `_walk` applies a table: it refuses unknown keys and fills in every absent
# one, so the simulator reads parsed fields and applies no default again.
# - A rule takes (value, key path, context) and returns the parsed value or
#   raises ConfigError naming the path. No rule takes `bool` for an integer.
# - A default is what the file would hold and goes through the rule, except
#   a callable one, which computes the parsed value from the fields parsed
#   so far in this object and at the top level.
# - REQUIRED marks a key without a default; null is accepted exactly where
#   the default is None.

REQUIRED = object()
U64_MAX = 2**64 - 1
# A transactions event signs one transaction per unit, ~0.35 ms each: 4096
# stays near 1.4 s, and the generated workloads use at most 16.
MAX_TX_COUNT = 4096
# Genesis allocates a zero UID of this size and the vault keeps UIDs
# of it: 1024 bytes is eight times the default.
MAX_UID_LENGTH = 1024
# Scope keys of the names declared so far; no scenario key has a space.
_NODE_NAMES, _BRANCH_NAMES = "node names", "branch names"


def _fail(path: str, what: str, value) -> None:
    raise ConfigError(f"{path or 'scenario'}: must be {what}, not {reprlib.repr(value)}")


def _walk(table: dict, raw, path: str, scope: dict, out: dict | None = None) -> dict:
    """Apply one table to the object `raw` found at `path`, into `out`.

    `scope` holds the top-level fields and the names declared so far; the
    top level is walked into `scope` itself.
    """
    if type(raw) is not dict:
        _fail(path, "an object", raw)
    prefix = f"{path}." if path else ""
    for key in raw:
        if key not in table:
            raise ConfigError(f"{prefix}{key}: unknown key")
    out = {} if out is None else out
    for key, (rule, default) in table.items():
        if key in raw:
            value = raw[key]
        elif default is REQUIRED:
            raise ConfigError(f"{prefix}{key}: required")
        elif callable(default):
            out[key] = default({**scope, **out})
            continue
        else:
            value = default
        out[key] = None if value is None and default is None else rule(value, prefix + key, scope)
    return out


def _rule(what: str, ok, parse=None):
    """Values for which `ok(value, scope)` holds, converted by `parse`."""
    def rule(value, path, scope):
        if not ok(value, scope):
            _fail(path, what, value)
        return parse(value) if parse else value
    return rule


def _integer(lo: int, hi: int = U64_MAX):
    bound = "2^64)" if hi == U64_MAX else f"{hi}]"
    return _rule(f"an integer in [{lo}, {bound}", lambda v, s: type(v) is int and lo <= v <= hi)


def _hex_length(value) -> int:
    try:
        return len(bytes.fromhex(value))
    except (TypeError, ValueError):
        return -1


def _hex(what: str, length_ok=lambda n: n >= 0):
    return _rule(what, lambda v, s: length_ok(_hex_length(v)), bytes.fromhex)


def _choice(options: dict):
    """One of the names in `options`, parsed to the value it maps to."""
    what = "one of " + ", ".join(map(repr, options))
    return _rule(what, lambda v, s: type(v) is str and v in options, options.get)


def _list(item, what: str = "a list", min_length: int = 0, into=tuple):
    def rule(value, path, scope):
        if type(value) is not list or len(value) < min_length:
            _fail(path, what, value)
        return into(item(v, f"{path}[{i}]", scope) for i, v in enumerate(value))
    return rule


def _fields(table: dict, make):
    """An object walked by `table` and built by `make`."""
    def rule(value, path, scope):
        parsed = _walk(table, value, path, scope)
        try:
            return make(**parsed)
        except ProtocolError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return rule


def _declare_node(value, path, scope):
    name = _text(value, path, scope)
    if name.startswith(SYBIL_PREFIX):
        raise ConfigError(f"{path}: prefix {SYBIL_PREFIX!r} is reserved for fabricated identities")
    if name in scope[_NODE_NAMES]:
        raise ConfigError(f"{path}: duplicate {name!r}")
    scope[_NODE_NAMES].add(name)
    return name


def _declare_branch(value, path, scope):
    scope[_BRANCH_NAMES].add(_text(value, path, scope))
    return value


def _either(word: str, rule):
    """The literal `word`, or a value `rule` takes."""
    return lambda v, path, scope: v if v == word else rule(v, path, scope)


_bool = _rule("true or false", lambda v, s: type(v) is bool)
_text = _rule("a non-empty string", lambda v, s: type(v) is str and v != "")
_object = _rule("an object", lambda v, s: type(v) is dict, dict)  # its reader walks it
_node_ref = _rule("a declared node name", lambda v, s: type(v) is str and v in s[_NODE_NAMES])
_branch_ref = _rule("a branch registered earlier in the script",
                    lambda v, s: type(v) is str and v in s[_BRANCH_NAMES])
_window = _rule(
    "two integers [start, end] in [0, 2^64) with start <= end",
    lambda v, s: type(v) is list and len(v) == 2
    and all(type(t) is int and 0 <= t <= U64_MAX for t in v) and v[0] <= v[1],
    tuple,
)


def _fixture(label: str, size: int | None = None):
    """The default of an extrinsic field: seeded bytes bound to the node."""
    return lambda s: _material(s["seed"], label, s["name"])[:size]


EXTRINSIC = {
    "mac_address": (_hex("6 hex-encoded bytes", lambda n: n == identity.MAC_LENGTH),
                    _fixture("mac", identity.MAC_LENGTH)),
    "firmware_digest": (_hex("32 hex-encoded bytes",
                             lambda n: n == identity.FIRMWARE_DIGEST_LENGTH),
                        _fixture("firmware")),
    "puf_signature": (_hex("a non-empty hex string", lambda n: n > 0), _fixture("puf")),
    "process_power_class": (_integer(0, 2**32 - 1),
                            lambda s: _material(s["seed"], "power", s["name"])[0] % 8),
    "location_tag": (_hex("a non-empty hex string", lambda n: n > 0), _fixture("location", 8)),
    "ip_address": (_hex("4 or 16 hex-encoded bytes", lambda n: n in (4, 16)), _fixture("ip", 4)),
}


@dataclass(frozen=True)
class NodeSpec:
    name: str
    role: NodeRole
    module: str
    via: str | None = None
    extrinsic: dict = field(default_factory=dict)  # overrides, see EXTRINSIC


NODE = {
    "name": (_declare_node, REQUIRED),
    "role": (_choice({r.value: r for r in NodeRole}), REQUIRED),
    # A module outside `modules` is allowed here: such a node's enrollment
    # must be rejected at runtime, not at parse time.
    "module": (_text, REQUIRED),
    "via": (_text, None),  # a node declared anywhere; checked after the walk
    "extrinsic": (_object, {}),
}

KDF = {
    "cost": (_integer(2), 2**14),
    "block_size": (_integer(1), 8),
    "parallelism": (_integer(1), 1),
    "salt": (_hex("a hex string"), lambda s: _material(s["seed"], "kdf-salt")[:16]),
    "output_length": (_integer(1, MAX_UID_LENGTH), identity.UID_LENGTH),
}


def _event_rows(**rows) -> dict:
    return {"at": (_integer(0), REQUIRED), "event": (_text, REQUIRED), **rows}


EVENTS = {
    "join": _event_rows(node=(_node_ref, REQUIRED)),
    "register_branch": _event_rows(branch=(_declare_branch, REQUIRED)),
    "transactions": _event_rows(
        node=(_node_ref, REQUIRED),
        branch=(_branch_ref, REQUIRED),
        count=(_integer(0, MAX_TX_COUNT), 1),
    ),
    "build_block": _event_rows(
        node=(_node_ref, REQUIRED),
        branch=(_branch_ref, REQUIRED),
        window=(_window, lambda s: (0, s["at"])),
    ),
    "authenticate": _event_rows(
        block=(_either("latest", _hex("'latest' or 32 hex-encoded bytes", lambda n: n == 32)),
               "latest"),
        nodes=(_either("all", _list(_node_ref, "'all' or a list")), "all"),
    ),
    "attack": _event_rows(
        category=(_integer(1, 4), REQUIRED),
        targets=(_list(_node_ref), []),
        secrets=(_list(_choice({k: k for k in sorted(SECRET_KINDS)}), into=frozenset), []),
        stale_ledger=(_bool, False),
        attempt_remote_vault=(_bool, None),  # None: only brute force tries remotely
        branch=(_text, None),
    ),
    "disable": _event_rows(node=(_node_ref, REQUIRED)),
    "genesis": _event_rows(),
}
EVENT_KINDS = frozenset(EVENTS)


def _event(value, path, scope):
    kind = _object(value, path, scope).get("event")
    if type(kind) is not str or kind not in EVENTS:
        _fail(f"{path}.event", "one of " + ", ".join(EVENTS), kind)
    return _walk(EVENTS[kind], value, path, scope)


SCENARIO = {
    "seed": (_integer(0), 0),
    "finality_mode": (_choice({m.value: m for m in FinalityMode}), "exhaustive"),
    "kdf": (_fields(KDF, KdfParameters), {}),
    "token_salt": (_hex("a hex string"), lambda s: _material(s["seed"], "token-salt")[:16]),
    "latest_count": (_integer(1), 1),
    "modules": (_list(_text, "a non-empty list", 1), REQUIRED),
    "nodes": (_list(_fields(NODE, NodeSpec), "a non-empty list", 1), REQUIRED),
    "script": (_list(_event), []),
}


def make_extrinsic(
    seed: int, name: str, signing_seed: bytes, overrides: dict | None = None,
    path: str = "extrinsic",
) -> ExtrinsicParameters:
    """Synthetic extrinsic fixture for one node (PUF readout stand-in), with
    the scenario's `extrinsic` overrides, found at `path`, applied."""
    parsed = _walk(EXTRINSIC, overrides or {}, path, {"seed": seed, "name": name})
    public = public_bytes(signing_key_from_seed(signing_seed))
    return ExtrinsicParameters(constructed_public_id=public, **parsed)


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    kdf: KdfParameters
    token_salt: bytes
    finality_mode: FinalityMode
    latest_count: int
    modules: tuple[str, ...]
    nodes: tuple[NodeSpec, ...]
    script: tuple[dict, ...]

    @classmethod
    def from_dict(cls, data: dict, seed_override: int | None = None) -> "ScenarioConfig":
        if seed_override is not None:
            _integer(0)(seed_override, "--seed", None)
            if type(data) is dict:
                data = {**data, "seed": seed_override}
        scope = {_NODE_NAMES: set(), _BRANCH_NAMES: set()}
        _walk(SCENARIO, data, "", scope, out=scope)
        config = cls(**{key: scope[key] for key in SCENARIO})
        # The checks no single field can make.
        if [s.role for s in config.nodes].count(NodeRole.BACKUP) != 1:
            raise ConfigError("nodes: exactly one backup node is required")
        for i, spec in enumerate(config.nodes):
            if spec.via is not None and spec.via not in scope[_NODE_NAMES]:
                raise ConfigError(f"nodes[{i}].via: unknown node {spec.via!r}")
        for i in range(1, len(config.script)):
            if config.script[i]["at"] < config.script[i - 1]["at"]:
                raise ConfigError(f"script[{i}].at: events must be time-ordered")
        return config

    @classmethod
    def from_file(cls, path: str, seed_override: int | None = None) -> "ScenarioConfig":
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            data = json.loads(raw)
        except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, too deep
            raise ConfigError(f"scenario: invalid JSON ({exc})") from exc
        return cls.from_dict(data, seed_override=seed_override)


# ---------------------------------------------------------------------------
# Node actors
# ---------------------------------------------------------------------------

@dataclass
class NodeState:
    """Runtime state of one actor, honest or fabricated."""

    name: str
    role: NodeRole
    module_id: str
    params: ExtrinsicParameters
    signing_key: object  # Ed25519PrivateKey
    via: str | None = None
    tuid: TokenizedUid | None = None
    hardware_uid: Uid | None = None  # real UID held in the node's secure hardware
    vault: Vault | None = None
    ledger: nodechain.NodeChainLedger | None = None
    module_registry: ModuleRegistry | None = None
    ves_at_disable: int | None = None  # None while the node is online

    @property
    def public_id(self) -> bytes:
        return self.params.constructed_public_id

    @property
    def online(self) -> bool:
        return self.ves_at_disable is None

    @property
    def enrolled(self) -> bool:
        return self.tuid is not None

    @property
    def local_ves_index(self) -> int:
        """The NodeChain version this node holds.

        An online member reads the shared chain, so it is at the head; an
        offline node holds the version it had when it went down; a node
        not yet admitted holds none.
        """
        if self.ves_at_disable is not None:
            return self.ves_at_disable
        return len(self.ledger) if self.ledger is not None else 0

    def disable(self) -> None:
        """Take the node offline; its ledger view and its vault stop here.

        Once offline the cursor reads the frozen value and the vault is
        left as it is, so disabling twice keeps the first version.
        """
        if self.online and self.vault is not None:
            self.vault = self.vault.snapshot()
        self.ves_at_disable = self.local_ves_index


@dataclass(frozen=True)
class AttackEvent:
    category: int
    targets: tuple[str, ...] = ()
    secrets: frozenset[str] = frozenset()
    stale_ledger: bool = False
    attempt_remote_vault: bool | None = None  # default: brute-force tries remotely
    branch: str | None = None

    @classmethod
    def from_dict(cls, ev: dict) -> "AttackEvent":
        """The attack of a parsed script event; its keys are these fields."""
        return cls(**{f.name: ev[f.name] for f in fields(cls)})

    @property
    def tries_remote_vault(self) -> bool:
        if self.attempt_remote_vault is not None:
            return self.attempt_remote_vault
        return self.category == 4

    def encode(self) -> bytes:
        return encode_fields(
            self.category,
            ",".join(self.targets).encode(),
            ",".join(sorted(self.secrets)).encode(),
            b"\x01" if self.stale_ledger else b"\x00",
            b"\x01" if self.tries_remote_vault else b"\x00",
            (self.branch or "").encode(),
        )


@dataclass(frozen=True)
class AttackOutcome:
    category: int
    succeeded: bool
    blocked_at: str | None
    detail: str = ""

    def encode(self) -> bytes:
        return encode_fields(
            self.category,
            b"\x01" if self.succeeded else b"\x00",
            (self.blocked_at or "").encode(),
            self.detail.encode(),
        )

    def as_dict(self) -> dict:
        return {
            "category": self.category,
            "succeeded": self.succeeded,
            "blocked_at": self.blocked_at,
            "detail": self.detail,
        }


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
            mid: signing_key_from_seed(_material(config.seed, "module", mid))
            for mid in config.modules
        }
        self.module_registry = ModuleRegistry(
            {mid: public_bytes(key) for mid, key in self._module_keys.items()}
        )

        self.nodes: dict[str, NodeState] = {
            spec.name: self._new_node(
                spec, _material(config.seed, "constructed-key", spec.name),
                f"nodes[{i}].extrinsic",
            )
            for i, spec in enumerate(config.nodes)
        }
        self.backup = next(n for n in self.nodes.values() if n.role is NodeRole.BACKUP)

        # Members in enrollment (= chain) order: tuid -> (node, on-chain block),
        # and their tokens as the roster finality is decided against.
        self._members: dict[
            TokenizedUid, tuple[NodeState, nodechain.VirtualExistenceBlock]
        ] = {}
        self._roster: list[TokenizedUid] = []

        # Genesis: the backup node's virtual existence is block 1.
        self.nodechain, genesis_uid = nodechain.genesis_chain(
            self.backup.params, config.kdf, config.token_salt, timestamp=0
        )
        genesis_block = self.nodechain.block_at(1)
        self.vault = Vault(config.token_salt)
        self.vault.append(
            VaultEntry(
                enrollment_index=1,
                real_uid=genesis_uid,
                tuid=genesis_block.tuid,
                extrinsic_digest=genesis_block.extrinsic_digest,
                module_id=self.backup.module_id,
            ),
            NodeRole.BACKUP,
        )
        self.backup.hardware_uid = genesis_uid
        self._admit(self.backup, genesis_block)

        self.layer0 = dag.Layer0Ledger(genesis_block.header_digest)
        self.tx_pool: list[dag.Transaction] = []
        self.pending_blocks: dict[bytes, dag.DataBlock] = {}
        self.latest_pending: bytes | None = None
        self._fraud_counter = 0
        self._tx_counter = 0

        self.record(0, self.backup.name, "genesis", genesis_block.encode())

    # -- bookkeeping --------------------------------------------------------

    def record(self, at: int, actor: str, event: str, payload: bytes) -> None:
        self.trace.append(f"t={at} actor={actor} event={event} payload={sha256(payload).hex()}")

    def reject(self, at: int, actor: str, action: str, exc: Exception) -> None:
        self.metrics["rejections"] += 1
        payload = f"{action}:{type(exc).__name__}".encode()
        self.record(at, actor, "reject", payload)

    def trace_digest(self) -> bytes:
        return sha256(("\n".join(self.trace) + "\n").encode())

    def _new_node(
        self, spec: NodeSpec, signing_seed: bytes, path: str = "extrinsic"
    ) -> NodeState:
        """An actor whose constructed key and extrinsic fixture derive from
        `signing_seed`; `path` names its overrides in errors."""
        return NodeState(
            name=spec.name,
            role=spec.role,
            module_id=spec.module,
            params=make_extrinsic(
                self.config.seed, spec.name, signing_seed, spec.extrinsic, path
            ),
            signing_key=signing_key_from_seed(signing_seed),
            via=spec.via,
            module_registry=self.module_registry,
        )

    def _credential(self, module_id: str) -> TrustedModuleCredential:
        """The trusted module's credential; empty for an unregistered module."""
        module_key = self._module_keys.get(module_id)
        return TrustedModuleCredential(
            module_id=module_id,
            public_key=public_bytes(module_key) if module_key else b"",
            private_key=module_key,
        )

    def _admit(self, node: NodeState, block: nodechain.VirtualExistenceBlock) -> None:
        """Make `node` the member behind the on-chain `block`, which a
        responder just accepted.

        A full node holds the network's vault log. The vault refuses a
        repeated token, so every `block.tuid` is new and the roster stays a
        list of distinct tokens.
        """
        node.tuid = block.tuid
        node.ledger = self.nodechain
        if node.role in FULL_NODE_ROLES:
            node.vault = self.vault
        self._members[block.tuid] = (node, block)
        self._roster.append(block.tuid)
        self.metrics["enrollments"] += 1

    def roster(self) -> list[TokenizedUid]:
        """A copy of the on-chain identity roster in enrollment order."""
        return list(self._roster)

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

    def network_ves_index(self) -> int:
        return self.nodechain.ves.index

    # -- event handlers -----------------------------------------------------

    def run_script(self) -> None:
        for ev in self.config.script:
            self.clock = ev["at"]
            kind = ev["event"]
            handler = getattr(self, f"_handle_{kind}")
            handler(ev)

    def _handle_genesis(self, ev: dict) -> None:
        raise AlreadyInitialized("network already has a genesis chain")

    def _handle_join(self, ev: dict) -> None:
        node = self.nodes[ev["node"]]
        try:
            self.enroll(node, at=self.clock)
        except ProtocolError as exc:
            self.metrics["rejected_enrollments"] += 1
            self.reject(self.clock, node.name, "join", exc)

    def enroll(self, node: NodeState, at: int) -> None:
        """Full request/response/broadcast flow for one joining node."""
        if not node.online:
            raise Unauthorized("offline node cannot join")
        nonce = _material(self.config.seed, "nonce", node.name)[:8]
        request = consensus.enroll_request(
            node.params, self._credential(node.module_id), self.module_registry, nonce
        )
        self.record(at, node.name, "request", request.encode())

        responder = self._route_responder(node)
        response = consensus.enroll_respond(
            responder, request, self.config.kdf, self.config.token_salt, timestamp=at
        )
        self.record(at, responder.name, "response", response.encode())
        block = response.virtual_block
        # The joining node receives its ledger view, its hardware identity,
        # and (for full roles) the vault.
        self._admit(node, block)
        provisioned = responder.vault.lookup(block.tuid, CallOrigin.LOCAL)
        node.hardware_uid = provisioned.real_uid
        self.record(at, node.name, "sync", encode_fields(node.local_ves_index))

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
        self.record(self.clock, "network", "branch", encode_fields(
            tag.encode(), branch_id.encode(), genesis_digest
        ))

    def _handle_transactions(self, ev: dict) -> None:
        node = self.nodes[ev["node"]]
        tag = self.layer0.branches[ev["branch"]]
        if not (node.enrolled and node.online):
            self.reject(self.clock, node.name, "transactions",
                        Unauthorized("node not enrolled or offline"))
            return
        for _ in range(ev["count"]):
            payload = _material(self.config.seed, "tx", node.name, self._tx_counter)
            self._tx_counter += 1
            tx = dag.Transaction.signed(
                node.signing_key, node.public_id, tag, payload, self.clock
            )
            self.tx_pool.append(tx)
            self.metrics["transactions"] += 1
            self.record(self.clock, node.name, "tx", tx.encode())

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
            self.reject(self.clock, node.name, "build_block", exc)
            return
        self.pending_blocks[block.header_digest] = block
        self.latest_pending = block.header_digest
        self.metrics["blocks_built"] += 1
        self.record(self.clock, node.name, "block_candidate", block.encode())

    def _handle_authenticate(self, ev: dict) -> None:
        digest = self.latest_pending if ev["block"] == "latest" else ev["block"]
        if digest not in self.pending_blocks:
            self.reject(self.clock, "network", "authenticate",
                        ProtocolError("no pending block"))
            return
        who = ev["nodes"]
        if who == "all":
            authenticators = [n for n, _ in self._members.values() if n.online]
        else:
            authenticators = [self.nodes[name] for name in who]
        for node in authenticators:
            self.authenticate(node, digest, at=self.clock)

    def authenticate(self, node: NodeState, block_digest: bytes, at: int) -> None:
        """One node's signed attestation over a pending block.

        The authenticator gates itself first (enrollment, NNS handshake,
        match layer); receivers then verify the broadcast attestation
        against the node's on-chain constructed key.
        """
        block = self.pending_blocks.get(block_digest)
        if block is None:
            # The block finalized earlier in this round of attestations.
            self.reject(at, node.name, "authenticate",
                        BlockNotPending("block is no longer pending"))
            return
        try:
            if not node.online:
                raise Unauthorized("offline node cannot attest")
            result = consensus.authenticate_block(
                node, block, self.network_ves_index(), self.config.token_salt
            )
            message = AuthenticationMessage(
                block_digest=block_digest,
                tuid=node.tuid,
                local_ves_index=node.local_ves_index,
                signature=sign_message(
                    node.signing_key,
                    AuthenticationMessage.signing_bytes(
                        block_digest, node.tuid, node.local_ves_index
                    ),
                ),
            )
            self._verify_auth_message(message)
        except ProtocolError as exc:
            self.reject(at, node.name, "authenticate", exc)
            return
        if result.duplicate:
            self.metrics["duplicate_authentications"] += 1
            self.record(at, node.name, "duplicate_auth", message.encode())
            return
        self.pending_blocks[block_digest] = result.block
        self.metrics["authentications"] += 1
        self.record(at, node.name, "auth", message.encode())
        self._check_block_finality(block_digest, at)

    def _verify_auth_message(self, message: AuthenticationMessage) -> None:
        """Receivers check the attestation signature against the on-chain key."""
        member = self._members.get(message.tuid)
        if member is None:
            raise Unauthorized("attestation from an identity not on chain")
        payload = AuthenticationMessage.signing_bytes(
            message.block_digest, message.tuid, message.local_ves_index
        )
        if not verify_signature(member[1].constructed_public_key, message.signature, payload):
            raise Unauthorized("attestation signature does not verify")

    def _check_block_finality(self, block_digest: bytes, at: int) -> None:
        block = self.pending_blocks[block_digest]
        final = check_finality(
            block, self._roster, self.config.finality_mode, self.config.latest_count
        )
        if not final:
            return
        try:
            self.layer0.append_block(block)
        except ProtocolError as exc:
            self.reject(at, "network", "finalize", exc)
            return
        del self.pending_blocks[block_digest]
        finalized = set(block.transactions)
        self.tx_pool = [tx for tx in self.tx_pool if tx not in finalized]
        if self.latest_pending == block_digest:
            self.latest_pending = None
        self.metrics["blocks_finalized"] += 1
        self.record(at, "network", "finalized", block.encode())

    def _handle_disable(self, ev: dict) -> None:
        node = self.nodes[ev["node"]]
        node.disable()
        self.record(self.clock, node.name, "disable", b"")

    def _handle_attack(self, ev: dict) -> None:
        event = AttackEvent.from_dict(ev)
        self.record(self.clock, "adversary", "attack", event.encode())
        outcome = inject_attack(self, event)
        self.metrics["attacks"].append(outcome.as_dict())
        self.record(self.clock, "adversary", "attack_outcome", outcome.encode())

    # -- summary ------------------------------------------------------------

    def vault_audit(self) -> dict[str, int]:
        """Read counters summed over the log and each offline node's snapshot."""
        totals = {"local_reads": 0, "remote_reads": 0, "remote_rejections": 0}
        for vault in (self.vault, *(n.vault for n in self.full_nodes() if not n.online)):
            for key, value in vault.audit().items():
                totals[key] += value
        return totals

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
# Adversary model
# ---------------------------------------------------------------------------

def inject_attack(net: Network, event: AttackEvent) -> AttackOutcome:
    """Attempt one attack category with exactly the event's secrets.

    The adversary walks the protocol in its category's natural order and
    the outcome records the first check that stopped it. Nothing here
    bypasses the protocol surface: enrollment goes through the real
    responder, vault access goes through provenance-tagged lookups, and
    finality is evaluated with the real narration rules.
    """
    at = net.clock

    def blocked(stage: str, detail: str = "") -> AttackOutcome:
        return AttackOutcome(event.category, False, stage, detail)

    # Fabricated-identity enrollment. Mandatory for Sybil; any category
    # holding a registered module key may strengthen itself the same way.
    fake: NodeState | None = None
    if event.category == 1 and "module_key" not in event.secrets:
        return blocked("module registry", "no registered module key")
    if "module_key" in event.secrets:
        fake = _enroll_fabricated_identity(net, at)
        if fake is None:
            return blocked("module registry", "no responder accepted enrollment")

    # Author the fraudulent block.
    if fake is not None:
        author = fake
    elif "constructed_keys" in event.secrets and event.targets:
        author = net.nodes[event.targets[0]]
    else:
        return blocked("signature", "no usable signing identity")
    block = _craft_fraud_block(net, author, event)

    # NNS gate: an adversary replaying against a stale ledger view.
    if event.stale_ledger:
        return blocked("NNS gate", "ledger version cursor lags the network")

    # Authentication: the adversary attests as every identity it can sign
    # for, acquiring each real UID through the only channels that exist.
    attempt_order: list[NodeState] = []
    if "constructed_keys" in event.secrets:
        attempt_order.extend(net.nodes[name] for name in event.targets)
    if fake is not None:
        attempt_order.append(fake)

    responder_vault = net.responder().vault
    for actor in attempt_order:
        if not actor.enrolled:
            continue
        if "vault_access" in event.secrets:
            # Compromised full-node endpoint: reads carry local provenance.
            entry = responder_vault.lookup(actor.tuid, CallOrigin.LOCAL)
            uid = entry.real_uid if entry else None
        elif event.tries_remote_vault:
            try:
                responder_vault.lookup(actor.tuid, CallOrigin.REMOTE)
            except OfflineViolation:
                return blocked("offline gate", "remote vault lookup rejected")
            uid = None
        else:
            uid = None
        if uid is None:
            return blocked("match layer", f"no real UID for {actor.name}")
        if not match_layer(actor.tuid, uid, net.config.token_salt):
            return blocked("match layer", f"token mismatch for {actor.name}")
        block = block.with_narration_entry(actor.tuid)

    final = check_finality(
        block, net._roster, net.config.finality_mode, net.config.latest_count
    )
    if final:
        net.record(at, "adversary", "fraud_finalized", block.encode())
        return AttackOutcome(event.category, True, None, "fraudulent block finalized")
    return blocked("finality quorum", "insufficient authenticators")


def _enroll_fabricated_identity(net: Network, at: int) -> NodeState | None:
    """Enroll a Sybil identity with a stolen (real) module key."""
    net._fraud_counter += 1
    name = f"{SYBIL_PREFIX}{net._fraud_counter}"
    module_id = net.config.modules[0]
    fake = net._new_node(
        NodeSpec(name, NodeRole.CPS_IOT, module_id),
        _material(net.config.seed, "sybil-key", net._fraud_counter),
    )
    try:
        nonce = _material(net.config.seed, "sybil-nonce", net._fraud_counter)[:8]
        request = consensus.enroll_request(
            fake.params, net._credential(module_id), net.module_registry, nonce
        )
        responder = net.responder()
        response = consensus.enroll_respond(
            responder, request, net.config.kdf, net.config.token_salt, timestamp=at
        )
    except ProtocolError:
        return None
    net.record(at, name, "attack_enroll", response.encode())
    # The fabricated device has no genuine hardware (hardware_uid stays
    # None): its real UID exists only inside the vault.
    net._admit(fake, response.virtual_block)
    net.nodes[name] = fake
    return fake


def _craft_fraud_block(net: Network, author: NodeState, event: AttackEvent) -> dag.DataBlock:
    """A block of forged payload signed with whatever key the adversary holds."""
    tag = net.layer0.branches.get(event.branch)
    if tag in (None, dag.VIRTUAL_BRANCH_TAG):
        tag = "B"  # the first data branch, registered or not
    payload = _material(net.config.seed, "fraud", net._fraud_counter, author.name)
    tx = dag.Transaction.signed(
        author.signing_key, author.public_id, tag, payload, net.clock
    )
    candidate = dag.build_candidate_block(
        [tx], author.public_id, tag, (net.clock, net.clock + 1)
    )
    try:
        prev, rand = net.layer0.select_parents(candidate)
    except UnknownBranch:
        prev, rand = ZERO32, ZERO32
    return candidate.with_parents(prev, rand)


# ---------------------------------------------------------------------------
# Monte-Carlo sampling of the analytic attack model
# ---------------------------------------------------------------------------

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
    """
    if not 0.0 <= amplitude <= 1.0:
        raise DomainError("amplitude must be a probability")
    if not 0.0 <= per_node <= 1.0:
        raise DomainError("per-node factor must be a probability")
    if trials < 1:
        raise DomainError("trials must be at least 1")
    if n < 1:
        raise DomainError("node count must be at least 1")
    rng = np.random.default_rng([seed, category, n])
    gate = rng.random(trials) < amplitude
    stages = rng.random((trials, n)) < per_node
    successes = np.logical_and(gate, stages.all(axis=1))
    return float(successes.sum()) / trials
