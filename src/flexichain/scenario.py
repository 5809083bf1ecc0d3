"""The scenario file: its schema, and the fixtures derived from its seed.

A scenario is a JSON document executed on a virtual clock. One table per
object (`SCENARIO`, `KDF`, `NODE`, `EXTRINSIC`, and `EVENTS` for the script
events `join`, `register_branch`, `transactions`, `build_block`,
`authenticate`, `attack`, `disable`, `genesis`) gives every field's rule and
default; one walker applies them, and `ScenarioConfig.from_dict` returns
each node and each event as the plain dict its table's walk produced. Every
value a run consumes (extrinsic fixtures, signing keys, nonces, payloads) is
derived from the scenario seed by `material`, counter-mode SHA-256, and all
timestamps come from the script, so a scenario replays to a byte-identical
trace.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, replace

from . import dag, identity
from .consensus import FinalityMode
from .errors import ConfigError, ProtocolError
from .identity import KdfParameters
from .vault import NodeRole
from .wire import encode_u64, lp, sha256

# Name prefix of the identities an attack fabricates. Scenario nodes may not
# use it: a fabricated node would take over such a node's name and share its
# extrinsic fixture.
SYBIL_PREFIX = "sybil-"
SECRET_KINDS = frozenset({"constructed_keys", "module_key", "vault_access", "tuids"})


# ---------------------------------------------------------------------------
# Seeded fixture derivation
# ---------------------------------------------------------------------------

def material(seed: int, *labels: object) -> bytes:
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
    return lambda s: material(s["seed"], label, s["name"])[:size]


EXTRINSIC = {
    "mac_address": (_hex("6 hex-encoded bytes", lambda n: n == identity.MAC_LENGTH),
                    _fixture("mac", identity.MAC_LENGTH)),
    "firmware_digest": (_hex("32 hex-encoded bytes",
                             lambda n: n == identity.FIRMWARE_DIGEST_LENGTH),
                        _fixture("firmware")),
    "puf_signature": (_hex("a non-empty hex string", lambda n: n > 0), _fixture("puf")),
    "process_power_class": (_integer(0, 2**32 - 1),
                            lambda s: material(s["seed"], "power", s["name"])[0] % 8),
    "location_tag": (_hex("a non-empty hex string", lambda n: n > 0), _fixture("location", 8)),
    "ip_address": (_hex("4 or 16 hex-encoded bytes", lambda n: n in (4, 16)), _fixture("ip", 4)),
}


def extrinsic(seed: int, name: str, overrides: dict, path: str = "extrinsic") -> dict:
    """Node `name`'s extrinsic fixture (a PUF readout stand-in), with the
    fields `overrides` sets, for a scenario node or a fabricated one."""
    return _walk(EXTRINSIC, overrides, path, {"seed": seed, "name": name})


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
    "salt": (_hex("a hex string"), lambda s: material(s["seed"], "kdf-salt")[:16]),
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
    "token_salt": (_hex("a hex string"), lambda s: material(s["seed"], "token-salt")[:16]),
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
        # Each node's extrinsic fixture, walked after every check above,
        # whose errors come first.
        return replace(config, nodes=tuple(
            {**spec, "extrinsic": extrinsic(config.seed, spec["name"], spec["extrinsic"],
                                            f"nodes[{i}].extrinsic")}
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

