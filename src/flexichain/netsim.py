"""Deterministic discrete-event harness for the protocol.

A scenario is a JSON document executed on a virtual clock. One table per
object (`SCENARIO`, `KDF`, `NODE`, `EXTRINSIC`, and `EVENTS` for the script
events `join`, `register_branch`, `transactions`, `build_block`,
`authenticate`, `attack`, `disable`, `genesis`) gives every field's rule and
default; see "Scenario schema" below and README.md. The simulator reads each
node and each event as the plain dict its table's walk produced. Every value
it consumes (extrinsic fixtures, signing keys, nonces, payloads) is derived
from the scenario seed by counter-mode SHA-256, and all timestamps come from
the script, so a scenario replays to a byte-identical trace.

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

Adversaries are modeled by an explicit capability lattice. An attack event
holds a subset of {constructed_keys, module_key, vault_access, tuids} and
attempts its category's protocol actions with exactly those secrets. Its
outcome is the dict `summary.json` lists under `attacks`: the category,
whether it succeeded, and the first check that blocked it (module registry,
signature, ledger validation, NNS gate, vault access, offline gate, match
layer, or finality quorum). A final fraud block must pass
`Layer0Ledger.append_block`, as an honest one does. Knowing TUIDs grants
nothing extra: they are already public on chain.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from . import consensus, dag, identity, nodechain
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
    ConfigError,
    DomainError,
    IdentityMismatch,
    OfflineViolation,
    ProtocolError,
    Unauthorized,
    UnknownBranch,
)
from .identity import (
    ExtrinsicParameters,
    KdfParameters,
    TokenizedUid,
    Uid,
    match_layer,
)
from .keys import public_bytes, sign_message, signing_key_from_seed
from .vault import CallOrigin, FULL_NODE_ROLES, NodeRole, Vault
from .wire import encode_fields, encode_u64, lp, sha256
from .workers import fork_map

# Name prefix of the identities an attack fabricates. Scenario nodes may not
# use it: a fabricated node would take over such a node's name and share its
# extrinsic fixture.
SYBIL_PREFIX = "sybil-"
SECRET_KINDS = frozenset({"constructed_keys", "module_key", "vault_access", "tuids"})
# Key brute force: the one attack category that looks the vault up remotely.
REMOTE_VAULT_CATEGORY = 4
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
# Seeded fixture derivation
# ---------------------------------------------------------------------------

def _material(seed: int, *labels: object) -> bytes:
    """32 deterministic bytes bound to the seed and a label path."""
    blob = b"flexichain.fixture" + encode_u64(seed)
    for label in labels:
        if isinstance(label, int):
            blob += lp(encode_u64(label))
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


def _declare(names: str, reserved, why: str):
    """A new name in the scope `names`, refusing a repeat and a `reserved` one."""
    def declare(value, path, scope):
        name = _text(value, path, scope)
        if reserved(name):
            raise ConfigError(f"{path}: {why}")
        if name in scope[names]:
            raise ConfigError(f"{path}: duplicate {name!r}")
        scope[names].add(name)
        return name
    return declare


def _distinct(rule):
    """The list `rule` parses, refusing an item that repeats an earlier one."""
    def distinct(value, path, scope):
        items, seen = rule(value, path, scope), set()
        for j, item in enumerate(items):
            if item in seen:
                raise ConfigError(f"{path}[{j}]: duplicate {item!r}")
            seen.add(item)
        return items
    return distinct


def _either(word: str, rule):
    """The literal `word`, or a value `rule` takes."""
    return lambda v, path, scope: v if v == word else rule(v, path, scope)


_bool = _rule("true or false", lambda v, s: type(v) is bool)
_text = _rule("a non-empty string", lambda v, s: type(v) is str and v != "")
_object = _rule("an object", lambda v, s: type(v) is dict, dict)  # walked by _event or from_dict
_node_ref = _rule("a declared node name", lambda v, s: type(v) is str and v in s[_NODE_NAMES])
_branch_ref = _rule("a branch registered earlier in the script",
                    lambda v, s: type(v) is str and v in s[_BRANCH_NAMES])
_window = _rule(
    "two integers [start, end] in [0, 2^64) with start <= end",
    lambda v, s: type(v) is list and len(v) == 2
    and all(type(t) is int and 0 <= t <= U64_MAX for t in v) and v[0] <= v[1],
    tuple,
)
_declare_node = _declare(_NODE_NAMES, lambda name: name.startswith(SYBIL_PREFIX),
                         f"prefix {SYBIL_PREFIX!r} is reserved for fabricated identities")
_declare_branch = _declare(_BRANCH_NAMES, lambda name: name == dag.VIRTUAL_BRANCH_ID,
                           f"{dag.VIRTUAL_BRANCH_ID!r} is reserved for the NodeChain mirror")


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


NODE = {
    "name": (_declare_node, REQUIRED),
    "role": (_choice({r.value: r for r in NodeRole}), REQUIRED),
    # A module outside `modules` is allowed here: such a node's enrollment
    # must be rejected at runtime, not at parse time.
    "module": (_text, REQUIRED),
    "via": (_text, None),  # a node declared anywhere; checked after the walk
    "extrinsic": (_object, {}),  # walked by EXTRINSIC last, in ScenarioConfig.from_dict
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
        at=(_integer(0, U64_MAX - 1), REQUIRED),  # the fraud block is sealed at `at` + 1
        category=(_integer(1, 4), REQUIRED),
        targets=(_distinct(_list(_node_ref)), []),
        secrets=(_list(_choice({k: k for k in sorted(SECRET_KINDS)}), into=frozenset), []),
        stale_ledger=(_bool, False),
        branch=(_branch_ref, None),  # None: tag "B", registered or not
    ),
    "disable": _event_rows(node=(_node_ref, REQUIRED)),
    "genesis": _event_rows(),
}


def _event(value, path, scope):
    kind = _object(value, path, scope).get("event", REQUIRED)
    if kind is REQUIRED:
        raise ConfigError(f"{path}.event: required")
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
    "nodes": (_list(_fields(NODE, dict), "a non-empty list", 1), REQUIRED),
    "script": (_list(_event), []),
}


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    kdf: KdfParameters
    token_salt: bytes
    finality_mode: FinalityMode
    latest_count: int
    modules: tuple[str, ...]
    nodes: tuple[dict, ...]
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
        kdf = config.kdf
        memory = identity.scrypt_memory(kdf.cost, kdf.block_size, kdf.parallelism)
        if memory > identity.MAX_SCRYPT_MEMORY:
            raise ConfigError("kdf: 128 * cost * block_size * parallelism must be at most "
                              "2^28 (256 MiB of scrypt memory per join)")
        if [s["role"] for s in config.nodes].count(NodeRole.BACKUP) != 1:
            raise ConfigError("nodes: exactly one backup node is required")
        for i, spec in enumerate(config.nodes):
            if spec["via"] is not None and spec["via"] not in scope[_NODE_NAMES]:
                raise ConfigError(f"nodes[{i}].via: unknown node {spec['via']!r}")
        for i in range(1, len(config.script)):
            if config.script[i]["at"] < config.script[i - 1]["at"]:
                raise ConfigError(f"script[{i}].at: events must be time-ordered")
        # Each node's extrinsic fixture (a PUF readout stand-in) with its
        # overrides, walked after every check above, whose errors come first.
        return replace(config, nodes=tuple(
            {**spec, "extrinsic": _walk(EXTRINSIC, spec["extrinsic"], f"nodes[{i}].extrinsic",
                                        {"seed": config.seed, "name": spec["name"]})}
            for i, spec in enumerate(config.nodes)
        ))

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
            mid: signing_key_from_seed(_material(config.seed, "module", mid))
            for mid in config.modules
        }
        self.module_registry = ModuleRegistry(
            {mid: public_bytes(key) for mid, key in self._module_keys.items()}
        )

        self.nodes: dict[str, NodeState] = {}
        for spec in config.nodes:
            signing_seed = _material(config.seed, "constructed-key", spec["name"])
            self.nodes[spec["name"]] = self._new_node(spec, signing_seed)
        self.backup = next(n for n in self.nodes.values() if n.role is NodeRole.BACKUP)

        # Members in enrollment (= chain) order: tuid -> (node, on-chain block),
        # and their tokens as the roster finality is decided against.
        self._members: dict[
            TokenizedUid, tuple[NodeState, nodechain.VirtualExistenceBlock]
        ] = {}
        self._roster: list[TokenizedUid] = []
        # check_finality's and append_block's rules; the roster grows in place.
        self._finality = (self._roster, config.finality_mode, config.latest_count)

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
        self._fraud_counter = 0

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

    def _new_node(self, spec: dict, signing_seed: bytes) -> NodeState:
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

    def _request(self, node: NodeState, nonce: bytes) -> consensus.EnrollmentRequest:
        """`node`'s request, signed by its trusted module; an unregistered
        module holds no key, and the registry refuses it first."""
        return consensus.enroll_request(
            node.params, node.module_id, self._module_keys.get(node.module_id),
            self.module_registry, nonce[:NONCE_LENGTH],
        )

    def _respond(
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
        repeated token, so every `block.tuid` is new and the roster stays a
        list of distinct tokens.
        """
        node.tuid = block.tuid
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
        request = self._request(node, _material(self.config.seed, "nonce", node.name))
        self.record(node.name, "request", request.encode())
        responder = self._route_responder(node)
        response = self._respond(responder, node, request)
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
            payload = _material(self.config.seed, "tx", node.name, self.metrics["transactions"])
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
        if not check_finality(block, *self._finality):
            return
        try:
            self.layer0.append_block(block, *self._finality)
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
        self.record("adversary", "attack", _attack_bytes(ev))
        outcome = inject_attack(self, ev)
        self.metrics["attacks"].append(outcome)
        self.record("adversary", "attack_outcome", encode_fields(
            outcome["category"], b"\x01" if outcome["succeeded"] else b"\x00",
            (outcome["blocked_at"] or "").encode(), outcome["detail"].encode(),
        ))

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
# Adversary model
# ---------------------------------------------------------------------------

def _attack_bytes(ev: dict) -> bytes:
    """The trace payload of a parsed attack event."""
    return encode_fields(
        ev["category"],
        ",".join(ev["targets"]).encode(),
        ",".join(sorted(ev["secrets"])).encode(),
        b"\x01" if ev["stale_ledger"] else b"\x00",
        b"\x01" if ev["category"] == REMOTE_VAULT_CATEGORY else b"\x00",
        (ev["branch"] or "").encode(),
    )


def inject_attack(net: Network, ev: dict) -> dict:
    """Attempt one attack category with exactly the parsed event's secrets.

    The adversary walks the protocol in its category's natural order and
    the outcome records the first check that stopped it. Nothing here
    bypasses the protocol surface: enrollment goes through the real
    responder, vault access goes through provenance-tagged lookups, and
    finality is evaluated with the real narration rules.

    Stages: module registry, signature, ledger validation (no such branch),
    NNS gate, vault access, offline gate, match layer, finality quorum, and
    ledger validation (`append_block`, which keeps a block it accepts).
    """
    category, targets, secrets = ev["category"], ev["targets"], ev["secrets"]

    def blocked(stage: str | None, detail: str) -> dict:
        return {"category": category, "succeeded": stage is None,
                "blocked_at": stage, "detail": detail}

    # Fabricated-identity enrollment. Mandatory for Sybil; any category
    # holding a registered module key may strengthen itself the same way.
    fake: NodeState | None = None
    if category == 1 and "module_key" not in secrets:
        return blocked("module registry", "no registered module key")
    if "module_key" in secrets:
        fake = _enroll_fabricated_identity(net)
        if fake is None:
            return blocked("module registry", "no responder accepted enrollment")

    # Author the fraudulent block.
    if fake is not None:
        author = fake
    elif "constructed_keys" in secrets and targets:
        author = net.nodes[targets[0]]
    else:
        return blocked("signature", "no usable signing identity")
    try:
        block = _craft_fraud_block(net, author, ev["branch"])
    except UnknownBranch as exc:  # the ledger has no arcs to offer
        return blocked("ledger validation", str(exc))

    # NNS gate: an adversary replaying against a stale ledger view.
    if ev["stale_ledger"]:
        return blocked("NNS gate", "ledger version cursor lags the network")

    # Authentication: the adversary attests as every identity it can sign
    # for, acquiring each real UID through the only channels that exist.
    attempt_order: list[NodeState] = []
    if "constructed_keys" in secrets:
        attempt_order.extend(net.nodes[name] for name in targets)
    if fake is not None:
        attempt_order.append(fake)

    # No vault lookup changes whether a node is online: one scan serves all.
    remote = category == REMOTE_VAULT_CATEGORY
    reads_vault = "vault_access" in secrets or remote
    vault_offline = reads_vault and not any(n.online for n in net.full_nodes())
    for actor in attempt_order:
        if not actor.enrolled:
            continue
        if vault_offline:
            return blocked("vault access", "no full node is online")
        if "vault_access" in secrets:
            # Compromised full-node endpoint: reads carry local provenance.
            uid = net.vault.lookup(actor.tuid, CallOrigin.LOCAL).real_uid
        elif remote:
            try:
                uid = net.vault.lookup(actor.tuid, CallOrigin.REMOTE).real_uid
            except OfflineViolation:
                return blocked("offline gate", "remote vault lookup rejected")
        else:
            return blocked("match layer", f"no real UID for {actor.name}")
        if not match_layer(actor.tuid, uid, net.config.token_salt):
            return blocked("match layer", f"token mismatch for {actor.name}")
        block = block.with_narration_entry(actor.tuid)

    if not check_finality(block, *net._finality):
        return blocked("finality quorum", "insufficient authenticators")
    try:
        net.layer0.append_block(block, *net._finality)
    except ProtocolError as exc:
        return blocked("ledger validation", str(exc))
    net.record("adversary", "fraud_finalized", block.encode())
    return blocked(None, "fraudulent block finalized")


def _enroll_fabricated_identity(net: Network) -> NodeState | None:
    """Enroll a Sybil identity with a stolen (real) module key."""
    net._fraud_counter += 1
    name = f"{SYBIL_PREFIX}{net._fraud_counter}"
    fake = net._new_node(
        {"name": name, "role": NodeRole.CPS_IOT, "module": net.config.modules[0], "via": None,
         "extrinsic": _walk(EXTRINSIC, {}, "", {"seed": net.config.seed, "name": name})},
        _material(net.config.seed, "sybil-key", net._fraud_counter),
    )
    try:
        request = net._request(fake, _material(net.config.seed, "sybil-nonce", net._fraud_counter))
        response = net._respond(net.responder(), fake, request)
    except ProtocolError:
        return None
    net.record(name, "attack_enroll", response.encode())
    # The fabricated device has no genuine hardware (hardware_uid stays
    # None): its real UID exists only inside the vault.
    net.nodes[name] = fake
    return fake


def _craft_fraud_block(net: Network, author: NodeState, branch: str | None) -> dag.DataBlock:
    """A forged block on `branch` (None: tag "B"), signed by `author`."""
    tag = "B" if branch is None else net.layer0.branches[branch]
    payload = _material(net.config.seed, "fraud", net._fraud_counter, author.name)
    tx = dag.Transaction.signed(
        author.signing_key, author.public_id, tag, payload, net.clock
    )
    candidate = dag.build_candidate_block(
        [tx], author.public_id, tag, (net.clock, net.clock + 1)
    )
    return candidate.with_parents(*net.layer0.select_parents(candidate))


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
    if not 0.0 <= amplitude <= 1.0:
        raise DomainError("amplitude must be a probability")
    if not 0.0 <= per_node <= 1.0:
        raise DomainError("per-node factor must be a probability")
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
