"""Simulator tests: scenario parsing, protocol flows, adversary model."""

import copy
import json
import math
import os
import threading
import tracemalloc
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexichain.consensus import AuthenticationMessage
from flexichain.errors import (
    AlreadyInitialized,
    ConfigError,
    DomainError,
    DuplicateIdentity,
)
from flexichain.identity import TokenizedUid
from flexichain.keys import sign_message
from flexichain import adversary, netsim, vault, workers
from flexichain import scenario as schema
from flexichain.netsim import Network, monte_carlo_attack, run_scenario
from flexichain.nodechain import verify_chain
from flexichain.scenario import ScenarioConfig
from flexichain.secmodel import CategoryFactors
from flexichain.wire import encode_fields, sha256

from conftest import (
    assert_no_child_left,
    fork_every_round,
    material,
    record_forks,
    record_runs,
)

CHEAP_KDF_JSON = {"cost": 16, "block_size": 1, "parallelism": 1, "output_length": 128}


def scenario(nodes=None, script=None, mode="exhaustive", seed=7, extra=None):
    data = {
        "seed": seed,
        "finality_mode": mode,
        "kdf": dict(CHEAP_KDF_JSON),
        "modules": ["tm-1", "tm-2"],
        "nodes": nodes
        or [
            {"name": "bn", "role": "backup", "module": "tm-1"},
            {"name": "e1", "role": "edge", "module": "tm-2"},
            {"name": "s1", "role": "subscriber", "module": "tm-2", "via": "e1"},
            {"name": "c1", "role": "cps", "module": "tm-2"},
        ],
        "script": script or [],
    }
    if extra:
        data.update(extra)
    return data


JOIN_ALL = [
    {"at": 10, "event": "join", "node": "e1"},
    {"at": 20, "event": "join", "node": "s1"},
    {"at": 30, "event": "join", "node": "c1"},
]

BLOCK_FLOW = JOIN_ALL + [
    {"at": 40, "event": "register_branch", "branch": "telemetry"},
    {"at": 50, "event": "transactions", "node": "c1", "branch": "telemetry", "count": 3},
    {"at": 60, "event": "build_block", "node": "c1", "branch": "telemetry", "window": [45, 60]},
    {"at": 70, "event": "authenticate", "block": "latest", "nodes": "all"},
]


# ---------------------------------------------------------------------------
# Configuration parsing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.update(nodes=[]), "nodes"),
        (lambda d: d.update(modules=[]), "modules"),
        (lambda d: d.update(seed="zero"), "seed"),
        (lambda d: d.update(finality_mode="immediate"), "finality_mode"),
        (lambda d: d["nodes"].append({"name": "bn2", "role": "backup", "module": "tm-1"}),
         "backup"),
        (lambda d: d["nodes"].append({"name": "bn", "role": "cps", "module": "tm-1"}),
         "duplicate"),
        (lambda d: d["nodes"].append({"name": "x", "role": "router", "module": "tm-1"}),
         "role"),
        (lambda d: d["nodes"].append({"name": "x", "role": "cps", "module": "tm-1",
                                      "via": "nope"}), "via"),
        (lambda d: d.update(script=[{"at": 1, "event": "teleport"}]), "event"),
        (lambda d: d.update(script=[{"at": -5, "event": "join", "node": "e1"}]), "at"),
        (lambda d: d.update(script=[{"at": 9, "event": "join", "node": "ghost"}]), "node"),
        (lambda d: d.update(script=[
            {"at": 5, "event": "transactions", "node": "c1", "branch": "nope"}
        ]), "branch"),
        (lambda d: d.update(script=[
            {"at": 9, "event": "join", "node": "e1"},
            {"at": 5, "event": "join", "node": "c1"},
        ]), "time-ordered"),
        (lambda d: d.update(script=[
            {"at": 5, "event": "attack", "category": 9}
        ]), "category"),
        (lambda d: d.update(script=[
            {"at": 5, "event": "attack", "category": 1, "secrets": ["warp"]}
        ]), "secrets"),
        (lambda d: d["script"][4].update(count=-3), "count"),
        (lambda d: d["script"][5].update(window=[5]), "window"),
        (lambda d: d["script"][5].update(window="ab"), "window"),
        (lambda d: d["script"][5].update(window=[60, 45]), "window"),
        (lambda d: d["nodes"].append({"name": "sybil-1", "role": "cps", "module": "tm-2"}),
         "sybil-"),
        # Values the canonical encoding or the parser's sets cannot take.
        pytest.param(lambda d: d.update(seed=-1), "seed", id="seed-negative"),
        pytest.param(lambda d: d["script"][6].update(at=2**64), "at", id="at-2^64"),
        pytest.param(lambda d: d["script"][5].update(window=[45, 2**64]), "window",
                     id="window-2^64"),
        pytest.param(lambda d: d["nodes"][3].update(extrinsic=5), "extrinsic",
                     id="extrinsic-int"),
        pytest.param(lambda d: d["nodes"][3].update(extrinsic=["mac_address"]),
                     "extrinsic", id="extrinsic-list"),
        pytest.param(lambda d: d["nodes"][2].update(via=["e1"]), "via", id="via-list"),
        pytest.param(lambda d: d["nodes"][2].update(via={"e1": 1}), "via", id="via-dict"),
        pytest.param(lambda d: d["script"][6].update(nodes=[["bn"]]), "nodes",
                     id="authenticate-nodes-list"),
        pytest.param(lambda d: d["script"].append(
            {"at": 80, "event": "attack", "category": 2, "targets": [{"e1": 1}]}
        ), "targets", id="attack-targets-dict"),
        pytest.param(lambda d: d["script"].append(
            {"at": 80, "event": "attack", "category": 2, "secrets": [["tuids"]]}
        ), "secrets", id="attack-secrets-list"),
        pytest.param(lambda d: d.update(modules=[["tm-1"], "tm-2"]), "modules",
                     id="modules-list"),
        pytest.param(lambda d: d["script"].append(
            {"at": 80, "event": "attack", "category": 1, "branch": 5}
        ), "branch", id="attack-branch-int"),
        # A repeated target once narrated its token twice.
        pytest.param(lambda d: d["script"].append(
            {"at": 80, "event": "attack", "category": 3, "targets": ["bn", "e1", "c1", "c1"]}
        ), "script[7].targets[3]: duplicate 'c1'", id="attack-target-repeated"),
        # A list where a name is meant once ended in `TypeError: unhashable`.
        pytest.param(lambda d: d["nodes"][1].update(role=["edge"]), "nodes[1].role",
                     id="role-list"),
        pytest.param(lambda d: d["script"][0].update(event=["join"]), "script[0].event",
                     id="event-list"),
        pytest.param(lambda d: d["script"][0].update(node=["e1"]), "script[0].node",
                     id="join-node-list"),
        pytest.param(lambda d: d["script"][4].update(branch=["telemetry"]),
                     "script[4].branch", id="transactions-branch-list"),
        # `bool` is not an integer, and a flag is a JSON bool.
        pytest.param(lambda d: d["script"][0].update(at=True), "script[0].at", id="at-true"),
        pytest.param(lambda d: d.update(latest_count=True), "latest_count",
                     id="latest_count-true"),
        pytest.param(lambda d: d["script"][4].update(count=True), "script[4].count",
                     id="count-true"),
        pytest.param(lambda d: d["script"].append(
            {"at": 80, "event": "attack", "category": True}
        ), "script[7].category", id="category-true"),
        pytest.param(lambda d: d.update(seed=True), "seed", id="seed-true"),
        pytest.param(lambda d: d["script"].append(
            {"at": 80, "event": "attack", "category": 4, "stale_ledger": "no"}
        ), "script[7].stale_ledger", id="stale_ledger-string"),
        # A misspelt key once left its field at the default.
        pytest.param(lambda d: d["script"][4].update(cuont=3), "script[4].cuont",
                     id="unknown-event-key"),
        pytest.param(lambda d: d["kdf"].update(slat="00"), "kdf.slat", id="unknown-kdf-key"),
        pytest.param(lambda d: d.update(sede=1), "sede", id="unknown-top-level-key"),
        pytest.param(lambda d: d["script"][4].update(count=schema.MAX_TX_COUNT + 1),
                     "script[4].count", id="count-over-bound"),
        pytest.param(lambda d: d["script"][6].update(block="zz"), "script[6].block",
                     id="block-not-hex"),
        # Genesis allocates a zero UID of this size before scrypt runs.
        pytest.param(lambda d: d["kdf"].update(output_length=2**63), "kdf.output_length",
                     id="output_length-2^63"),
    ],
)
def test_config_errors_name_the_offending_key(mutate, needle):
    data = scenario(script=[dict(ev) for ev in BLOCK_FLOW])
    mutate(data)
    with pytest.raises(ConfigError) as excinfo:
        ScenarioConfig.from_dict(data)
    assert needle in str(excinfo.value)


def test_count_bound_is_accepted():
    data = scenario(script=[dict(ev) for ev in BLOCK_FLOW])
    data["script"][4]["count"] = schema.MAX_TX_COUNT
    assert ScenarioConfig.from_dict(data).script[4]["count"] == schema.MAX_TX_COUNT


def test_scrypt_memory_is_bounded_at_parse_time():
    # Parsing runs no scrypt. 2^28 bytes (cost 2^18, block_size 8) is the
    # most a scenario may ask each join for; scrypt_kdf would allow 2^30.
    at_bound = scenario(extra={"kdf": {"cost": 2**18, "block_size": 8}})
    assert ScenarioConfig.from_dict(at_bound).kdf.cost == 2**18
    for kdf in ({"cost": 2**20, "block_size": 8},
                {"cost": 2**18, "block_size": 8, "parallelism": 2}):
        with pytest.raises(ConfigError, match=r"^kdf: .* at most 2\^28"):
            ScenarioConfig.from_dict(scenario(extra={"kdf": kdf}))


def test_parsed_events_carry_every_default():
    script = ScenarioConfig.from_dict(scenario(script=[
        {"at": 10, "event": "register_branch", "branch": "b"},
        {"at": 20, "event": "transactions", "node": "c1", "branch": "b"},
        {"at": 30, "event": "build_block", "node": "c1", "branch": "b"},
        {"at": 40, "event": "authenticate"},
        {"at": 50, "event": "attack", "category": 4},
    ])).script
    assert script[1]["count"] == 1
    assert script[2]["window"] == (0, 30)
    assert (script[3]["block"], script[3]["nodes"]) == ("latest", "all")
    assert script[4] == {"at": 50, "event": "attack", "category": 4, "targets": (),
                         "secrets": frozenset(), "stale_ledger": False, "branch": None}


# Wrong shapes substituted into every field of every table. A field is
# exempt from a shape only where its rule takes it.
WRONG_SHAPES = {
    "true": True, "list": [None], "object": {"?": 0}, "null": None,
    "negative": -1, "2^64": 2**64, "empty-string": "",
}
HEX_ANY_LENGTH = {"kdf.salt", "token_salt"}
# The value that makes a `_schema_fields` setter delete its key instead.
MISSING = object()


def _demo_with_every_event():
    data = json.loads(resources.files("flexichain").joinpath("scenarios/demo.json").read_text())
    data["script"] += [
        {"at": 90, "event": "disable", "node": "c1"},
        {"at": 100, "event": "genesis"},
    ]
    return data


def _schema_fields():
    """(path, setter) for every schema field, placed into the demo."""
    demo = _demo_with_every_event()
    first = {}
    for i, ev in enumerate(demo["script"]):
        first.setdefault(ev["event"], i)
    assert set(first) == set(schema.EVENTS)

    def at(*keys):
        def put(data, value):
            target = data
            for key in keys[:-1]:
                target = target.setdefault(key, {}) if isinstance(target, dict) else target[key]
            if value is MISSING:
                target.pop(keys[-1], None)
            else:
                target[keys[-1]] = value
        return put

    for key, row in schema.SCENARIO.items():
        yield key, row, at(key)
    for key, row in schema.KDF.items():
        yield f"kdf.{key}", row, at("kdf", key)
    for key, row in schema.NODE.items():
        yield f"nodes[3].{key}", row, at("nodes", 3, key)
    for key, row in schema.EXTRINSIC.items():
        # Overrides are walked after the rest of the file.
        yield f"nodes.extrinsic.{key}", row, at("nodes", 3, "extrinsic", key)
    for kind, table in schema.EVENTS.items():
        for key, row in table.items():
            yield f"script[{first[kind]}].{key}", row, at("script", first[kind], key)


@pytest.mark.parametrize("shape", list(WRONG_SHAPES), ids=list(WRONG_SHAPES))
@pytest.mark.parametrize(
    "path,row,put", list(_schema_fields()), ids=[p for p, _, _ in _schema_fields()]
)
def test_every_schema_field_refuses_wrong_shapes(path, row, put, shape):
    rule, default = row
    value = WRONG_SHAPES[shape]
    if (value is None and default is None) or (value is True and rule is schema._bool) \
            or (value == "" and path in HEX_ANY_LENGTH):
        pytest.skip("the field takes this value")
    data = _demo_with_every_event()
    put(data, value)
    with pytest.raises(ConfigError) as excinfo:
        ScenarioConfig.from_dict(data)
    # The overrides sit on node 3, and the error names it.
    expected = path.replace("nodes.extrinsic.", "nodes[3].extrinsic.")
    if path == "nodes[3].extrinsic" and shape == "object":
        expected = "nodes[3].extrinsic.?"  # an unknown override
    assert str(excinfo.value).startswith(expected), str(excinfo.value)


@pytest.mark.parametrize(
    "path,row,put", list(_schema_fields()), ids=[p for p, _, _ in _schema_fields()]
)
def test_every_schema_field_without_its_key(path, row, put):
    data = _demo_with_every_event()
    put(data, MISSING)
    if row[1] is not schema.REQUIRED:
        ScenarioConfig.from_dict(data)  # the default stands in
        return
    with pytest.raises(ConfigError) as excinfo:
        ScenarioConfig.from_dict(data)
    assert str(excinfo.value).startswith(f"{path}: required"), str(excinfo.value)


def test_seed_override_wins():
    config = ScenarioConfig.from_dict(scenario(seed=5), seed_override=99)
    assert config.seed == 99
    with pytest.raises(ConfigError, match="--seed"):
        ScenarioConfig.from_dict(scenario(seed=5), seed_override=-1)


def _with_extrinsic(seed: int, overrides: dict | None = None) -> ScenarioConfig:
    """`scenario(seed=seed)` parsed, with `overrides` on node 2 (`s1`)."""
    data = scenario(seed=seed)
    if overrides is not None:
        data["nodes"][2]["extrinsic"] = overrides
    return ScenarioConfig.from_dict(data)


def test_fixture_derivation_is_seed_deterministic():
    seed_a = _with_extrinsic(1).nodes[2]["extrinsic"]
    seed_a2 = _with_extrinsic(1).nodes[2]["extrinsic"]
    seed_b = _with_extrinsic(2).nodes[2]["extrinsic"]
    assert seed_a == seed_a2
    assert seed_a["mac_address"] != seed_b["mac_address"]
    # Bound to the node's name, not its place in `nodes`.
    data = scenario(seed=1)
    data["nodes"].reverse()
    reordered = {spec["name"]: spec["extrinsic"] for spec in ScenarioConfig.from_dict(data).nodes}
    assert reordered["s1"] == seed_a
    assert reordered["c1"] != seed_a


def test_extrinsic_overrides_apply():
    config = _with_extrinsic(1, {"mac_address": "0a0b0c0d0e0f", "process_power_class": 3})
    fixture = config.nodes[2]["extrinsic"]
    assert fixture["mac_address"] == bytes.fromhex("0a0b0c0d0e0f")
    assert fixture["process_power_class"] == 3
    default = _with_extrinsic(1).nodes[2]["extrinsic"]
    assert fixture["firmware_digest"] == default["firmware_digest"]
    params = Network(config).nodes["s1"].params
    assert (params.mac_address, params.process_power_class) == (fixture["mac_address"], 3)
    with pytest.raises(ConfigError):
        _with_extrinsic(1, {"mac_address": "zz"})
    with pytest.raises(ConfigError):
        _with_extrinsic(1, {"serial": "00"})


@pytest.mark.parametrize(
    "field,value",
    [
        ("process_power_class", 1.7),  # once truncated to 1
        ("process_power_class", "3"),  # once accepted
        ("mac_address", "00"),  # once an InvalidParameters at network build
        ("ip_address", "0102"),
        ("puf_signature", ""),
    ],
)
def test_extrinsic_override_of_the_wrong_shape_names_its_field(field, value):
    with pytest.raises(ConfigError, match=rf"^nodes\[2\]\.extrinsic\.{field}: "):
        _with_extrinsic(1, {field: value})


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------

def test_genesis_only_scenario():
    result = run_scenario(ScenarioConfig.from_dict(scenario()))
    net = result.network
    assert len(net.nodechain) == 1
    assert len(net.backup.vault) == 1
    assert net.metrics["blocks_built"] == 0
    assert net.metrics["enrollments"] == 1


def test_four_node_join_script():
    config = ScenarioConfig.from_dict(scenario(script=list(JOIN_ALL)))
    first = run_scenario(config)
    second = run_scenario(config)
    assert first.trace_digest == second.trace_digest
    assert first.metrics["enrollments"] == 4
    net = first.network
    assert len(net.nodechain) == 4
    assert len(net.backup.vault) == 4
    assert verify_chain(
        net.nodechain, kdf=config.kdf, vault=net.backup.vault,
        token_salt=config.token_salt,
    ) is None


def test_refused_vault_write_keeps_chain_and_vault_in_lockstep(monkeypatch):
    nodes = [{"name": "bn", "role": "backup", "module": "tm-1"},
             {"name": "e1", "role": "edge", "module": "tm-2"}]
    nodes += [{"name": f"c{i}", "role": "cps", "module": "tm-2"} for i in range(1, 7)]
    script = [{"at": 10 * i, "event": "join", "node": node["name"]}
              for i, node in enumerate(nodes[1:], start=1)]
    config = ScenarioConfig.from_dict(scenario(nodes=nodes, script=script))
    writes = []
    append = vault.Vault.append

    def refuse_third_write(self, entry, caller_role):
        # Write 1 is genesis, so write 3 is the second join's.
        writes.append(entry.enrollment_index)
        if len(writes) == 3:
            raise DuplicateIdentity("injected refusal")
        return append(self, entry, caller_role)

    monkeypatch.setattr(vault.Vault, "append", refuse_third_write)
    net = run_scenario(config).network
    assert net.metrics["rejected_enrollments"] == 1
    assert len(net.nodechain) == len(net.vault) == 7
    assert not net.nodes["c1"].enrolled
    # The join after the refused one binds the index the refusal left free.
    assert net.nodes["c2"].enrolled
    assert net.vault.entry_at(3).tuid == net.nodes["c2"].tuid
    assert verify_chain(
        net.nodechain, kdf=config.kdf, vault=net.vault, token_salt=config.token_salt,
    ) is None


def test_unregistered_module_join_rejected():
    nodes = [
        {"name": "bn", "role": "backup", "module": "tm-1"},
        {"name": "rogue", "role": "cps", "module": "tm-x"},
    ]
    config = ScenarioConfig.from_dict(
        scenario(nodes=nodes, script=[{"at": 10, "event": "join", "node": "rogue"}])
    )
    result = run_scenario(config)
    assert result.metrics["rejected_enrollments"] == 1
    assert len(result.network.nodechain) == 1
    assert any("reject" in line for line in result.trace)


def test_three_runs_identical_trace_digest():
    config = ScenarioConfig.from_dict(scenario(script=list(BLOCK_FLOW)))
    digests = {run_scenario(config).trace_digest for _ in range(3)}
    assert len(digests) == 1


def test_block_flow_finalizes_exhaustively():
    result = run_scenario(ScenarioConfig.from_dict(scenario(script=list(BLOCK_FLOW))))
    assert result.metrics["blocks_built"] == 1
    assert result.metrics["blocks_finalized"] == 1
    assert result.metrics["authentications"] == 4
    blocks = result.network.layer0.blocks("B")
    assert len(blocks) == 1
    assert len(blocks[0].narration) == 4


def test_vault_replication_byte_identical():
    nodes = [
        {"name": "bn", "role": "backup", "module": "tm-1"},
        {"name": "e1", "role": "edge", "module": "tm-2"},
        {"name": "e2", "role": "edge", "module": "tm-2"},
        {"name": "c1", "role": "cps", "module": "tm-2"},
    ]
    script = [
        {"at": 10, "event": "join", "node": "e1"},
        {"at": 20, "event": "join", "node": "e2"},
        {"at": 30, "event": "join", "node": "c1"},
    ]
    net = run_scenario(ScenarioConfig.from_dict(scenario(nodes=nodes, script=script))).network
    blobs = {node.name: node.vault.serialize() for node in net.full_nodes()}
    assert len(blobs) == 3
    assert len(set(blobs.values())) == 1
    assert all(node.vault is net.vault for node in net.full_nodes())


def test_subscriber_routes_through_assigned_edge():
    script = [
        {"at": 10, "event": "join", "node": "e1"},
        {"at": 20, "event": "join", "node": "s1"},
    ]
    result = run_scenario(ScenarioConfig.from_dict(scenario(script=script)))
    # The response to s1 comes from its assigned edge node, not the backup.
    responses = [line for line in result.trace if "event=response" in line]
    assert "actor=e1" in responses[-1]


def test_spf_edge_takes_over_after_backup_disabled():
    nodes = [
        {"name": "bn", "role": "backup", "module": "tm-1"},
        {"name": "e1", "role": "edge", "module": "tm-2"},
        {"name": "c1", "role": "cps", "module": "tm-2"},
    ]
    script = [
        {"at": 10, "event": "join", "node": "e1"},
        {"at": 20, "event": "disable", "node": "bn"},
        {"at": 30, "event": "join", "node": "c1"},
        {"at": 40, "event": "register_branch", "branch": "telemetry"},
        {"at": 50, "event": "transactions", "node": "c1", "branch": "telemetry"},
        {"at": 60, "event": "build_block", "node": "c1", "branch": "telemetry"},
        {"at": 70, "event": "authenticate", "block": "latest", "nodes": "all"},
    ]
    result = run_scenario(
        ScenarioConfig.from_dict(scenario(nodes=nodes, script=script, mode="narrated"))
    )
    net = result.network
    assert result.metrics["enrollments"] == 3
    assert result.metrics["blocks_finalized"] == 1
    responses = [line for line in result.trace if "event=response" in line]
    assert "actor=e1" in responses[-1]
    assert len(net.nodechain) == 3


def test_offline_node_that_missed_a_join_is_unauthorized():
    """An offline node is refused before the NNS gate: `Network.authenticate`
    rejects it as `Unauthorized`, so no VES index of it is ever compared."""
    nodes = [
        {"name": "bn", "role": "backup", "module": "tm-1"},
        {"name": "e1", "role": "edge", "module": "tm-2"},
        {"name": "c1", "role": "cps", "module": "tm-2"},
    ]
    script = [
        {"at": 10, "event": "join", "node": "e1"},
        {"at": 15, "event": "register_branch", "branch": "telemetry"},
        {"at": 20, "event": "transactions", "node": "bn", "branch": "telemetry"},
        {"at": 25, "event": "disable", "node": "e1"},
        {"at": 30, "event": "join", "node": "c1"},  # e1 misses this broadcast
        {"at": 40, "event": "build_block", "node": "bn", "branch": "telemetry",
         "window": [0, 40]},
        {"at": 50, "event": "authenticate", "block": "latest", "nodes": ["e1"]},
    ]
    result = run_scenario(ScenarioConfig.from_dict(scenario(nodes=nodes, script=script)))
    reason = sha256(b"authenticate:Unauthorized").hex()
    assert result.trace[-1] == f"t=50 actor=e1 event=reject payload={reason}"


def demo_through(last_at: int, extra: list[dict]):
    """The bundled demo cut after its event at `last_at`, then `extra`."""
    data = json.loads(
        (resources.files("flexichain") / "scenarios" / "demo.json").read_text()
    )
    data["script"] = [ev for ev in data["script"] if ev["at"] <= last_at] + extra
    return run_scenario(ScenarioConfig.from_dict(data))


def test_sync_reports_the_chain_length_at_each_join():
    nodes = [
        {"name": "bn", "role": "backup", "module": "tm-1"},
        {"name": "e1", "role": "edge", "module": "tm-2"},
        {"name": "c1", "role": "cps", "module": "tm-2"},
        {"name": "c2", "role": "cps", "module": "tm-2"},
    ]
    script = [
        {"at": 10, "event": "join", "node": "e1"},
        {"at": 15, "event": "disable", "node": "c2"},  # before it joins
        {"at": 20, "event": "disable", "node": "e1"},
        {"at": 30, "event": "join", "node": "c1"},
        {"at": 40, "event": "disable", "node": "e1"},  # a second disable
        {"at": 50, "event": "join", "node": "c2"},
    ]
    result = run_scenario(ScenarioConfig.from_dict(scenario(nodes=nodes, script=script)))
    net = result.network
    assert len(net.nodechain) == 3
    assert not net.nodes["c2"].enrolled and net.metrics["rejected_enrollments"] == 1
    # Each joining node syncs to the chain its own block just extended.
    syncs = [line for line in result.trace if " event=sync " in line]
    assert syncs == [
        f"t={at} actor={name} event=sync payload={sha256(encode_fields(length)).hex()}"
        for at, name, length in ((10, "e1", 2), (30, "c1", 3))
    ]


def test_transactions_from_a_node_before_it_joins_are_refused():
    result = demo_through(20, [
        {"at": 25, "event": "register_branch", "branch": "telemetry"},
        {"at": 30, "event": "transactions", "node": "c1", "branch": "telemetry", "count": 3},
    ])
    reason = sha256(b"transactions:Unauthorized").hex()
    assert result.trace[-1] == f"t=30 actor=c1 event=reject payload={reason}"
    assert result.metrics["transactions"] == 0 and result.network.tx_pool == {}


def test_join_with_no_responder_online_is_refused_after_its_request():
    # The backup node is down and no edge node has joined to take over.
    result = demo_through(0, [
        {"at": 5, "event": "disable", "node": "bn"},
        {"at": 10, "event": "join", "node": "c1"},
    ])
    assert result.metrics["rejected_enrollments"] == 1
    reason = sha256(b"join:Unauthorized").hex()
    assert result.trace[-2].startswith("t=10 actor=c1 event=request ")
    assert result.trace[-1] == f"t=10 actor=c1 event=reject payload={reason}"
    assert len(result.network.nodechain) == 1


def test_a_final_block_whose_transactions_are_already_final_stays_pending():
    # Two pending blocks hold the same three transactions; the second
    # finalizes, and the first, once final on the roster, is refused.
    net = demo_through(60, [
        {"at": 65, "event": "build_block", "node": "c1", "branch": "telemetry",
         "window": [45, 61]},
    ]).network
    first, second = net.pending_blocks
    net.step({"at": 70, "event": "authenticate", "block": "latest", "nodes": "all"})
    assert second not in net.pending_blocks
    net.step({"at": 75, "event": "authenticate", "block": first, "nodes": "all"})
    assert net.metrics["blocks_finalized"] == 1
    reason = sha256(b"finalize:IntegrityViolation").hex()
    assert net.trace[-1] == f"t=75 actor=network event=reject payload={reason}"
    assert first in net.pending_blocks
    assert [len(b.transactions) for b in net.layer0.blocks("B")] == [3]


def test_a_second_disable_only_records_another_disable():
    nodes = [
        {"name": "bn", "role": "backup", "module": "tm-1"},
        {"name": "e1", "role": "edge", "module": "tm-2"},
    ]
    net = run_scenario(ScenarioConfig.from_dict(scenario(nodes=nodes, script=[
        {"at": 10, "event": "join", "node": "e1"},
        {"at": 20, "event": "disable", "node": "e1"},
    ]))).network
    e1 = net.nodes["e1"]
    trace, metrics = list(net.trace), dict(net.metrics)
    net.step({"at": 30, "event": "disable", "node": "e1"})
    assert net.trace == trace + [f"t=30 actor=e1 event=disable payload={sha256(b'').hex()}"]
    assert net.metrics == metrics
    assert not e1.online and e1.vault is net.vault


def test_fraud_block_never_takes_the_virtual_existence_tag():
    _, net = run_attack({"category": 1, "secrets": ["module_key"]})
    author = net.nodes["sybil-1"]
    net.layer0.register_branch("firmware", material("netsim/firmware", 32), net.clock)
    for branch, tag in ((None, "B"), ("telemetry", "B"), ("firmware", "C")):
        assert adversary._craft_fraud_block(net, author, branch).block_type_tag == tag


def test_offline_node_cannot_attest():
    result = demo_through(60, [
        {"at": 65, "event": "disable", "node": "bn"},
        {"at": 70, "event": "authenticate", "block": "latest",
         "nodes": ["bn", "e1", "s1", "c1"]},
    ])
    assert result.metrics["blocks_finalized"] == 0
    assert result.metrics["authentications"] == 3
    assert result.metrics["rejections"] == 1
    rejects = [line for line in result.trace if "event=reject" in line]
    assert len(rejects) == 1 and "actor=bn" in rejects[0]


def test_attester_whose_hardware_changed_is_refused_at_the_header_check():
    """A joined node that reports other hardware than its on-chain block
    commits to is refused before it signs; its own hardware attests."""
    net = demo_through(60, []).network
    e1 = net.nodes["e1"]
    honest = e1.params
    e1.params = replace(honest, firmware_digest=material("netsim/new-firmware", 32))
    net.step({"at": 70, "event": "authenticate", "block": "latest", "nodes": ["e1"]})
    reason = sha256(b"authenticate:IdentityMismatch").hex()
    assert net.trace[-1] == f"t=70 actor=e1 event=reject payload={reason}"
    assert net.metrics["authentications"] == 0
    e1.params = honest
    net.step({"at": 75, "event": "authenticate", "block": "latest", "nodes": ["e1"]})
    assert " actor=e1 event=auth " in net.trace[-1]
    assert net.metrics["authentications"] == 1


def test_transaction_is_finalized_at_most_once():
    result = demo_through(70, [
        {"at": 75, "event": "build_block", "node": "c1", "branch": "telemetry",
         "window": [45, 61]},
        {"at": 80, "event": "authenticate", "block": "latest", "nodes": "all"},
    ])
    net = result.network
    assert result.metrics["blocks_finalized"] == 1
    assert [len(b.transactions) for b in net.layer0.blocks("B")] == [3]
    assert net.tx_pool == {}


def test_reattestation_by_a_member_is_a_duplicate():
    result = demo_through(60, [
        {"at": 70, "event": "authenticate", "block": "latest", "nodes": ["c1", "e1"]},
        {"at": 75, "event": "authenticate", "block": "latest", "nodes": ["c1"]},
    ])
    assert result.metrics["authentications"] == 2
    assert result.metrics["duplicate_authentications"] == 1
    assert result.metrics["rejections"] == 0
    assert "t=75 actor=c1 event=duplicate_auth" in result.trace[-1]


def test_member_that_attested_then_went_offline_is_unauthorized():
    result = demo_through(60, [
        {"at": 70, "event": "authenticate", "block": "latest", "nodes": ["c1"]},
        {"at": 72, "event": "disable", "node": "c1"},
        {"at": 75, "event": "authenticate", "block": "latest", "nodes": ["c1"]},
    ])
    assert result.metrics["authentications"] == 1
    assert result.metrics["duplicate_authentications"] == 0
    assert result.metrics["rejections"] == 1
    reason = sha256(b"authenticate:Unauthorized").hex()
    assert result.trace[-1] == f"t=75 actor=c1 event=reject payload={reason}"


def test_roster_is_a_copy_of_the_chain_after_every_join():
    config = ScenarioConfig.from_dict(scenario(script=list(BLOCK_FLOW)))
    net = Network(config)
    for ev in config.script:
        net.clock = ev["at"]
        getattr(net, f"_handle_{ev['event']}")(ev)
        chain = [b.tuid for b in net.nodechain.blocks]
        roster = net.roster()
        assert roster == chain
        roster.reverse()
        roster.append(TokenizedUid(b"\x07" * 32))
        assert net.roster() == chain
    assert len(chain) == 4
    assert net.metrics["blocks_finalized"] == 1


# ---------------------------------------------------------------------------
# Attestation rounds
# ---------------------------------------------------------------------------

def pending_round(joins=JOIN_ALL, builder="c1") -> Network:
    """A network with `joins` done and `builder`'s block pending at t=60."""
    return run_scenario(ScenarioConfig.from_dict(scenario(script=joins + [
        {"at": 40, "event": "register_branch", "branch": "telemetry"},
        {"at": 50, "event": "transactions", "node": builder, "branch": "telemetry"},
        {"at": 60, "event": "build_block", "node": builder, "branch": "telemetry"},
    ]))).network


ROUND = {"at": 70, "event": "authenticate", "block": "latest", "nodes": "all"}


def round_of(members: int) -> Network:
    """`members` enrolled online nodes and c1's block pending, at t = 10 * members + 20."""
    cps = [f"c{i}" for i in range(1, members)]
    nodes = [{"name": "bn", "role": "backup", "module": "tm-1"}]
    nodes += [{"name": c, "role": "cps", "module": "tm-2"} for c in cps]
    script = [{"at": 10 * i, "event": "join", "node": c} for i, c in enumerate(cps, start=1)]
    t = 10 * members
    script += [
        {"at": t, "event": "register_branch", "branch": "telemetry"},
        {"at": t + 10, "event": "transactions", "node": "c1", "branch": "telemetry"},
        {"at": t + 20, "event": "build_block", "node": "c1", "branch": "telemetry"},
    ]
    return run_scenario(ScenarioConfig.from_dict(scenario(nodes=nodes, script=script))).network


@pytest.mark.parametrize(
    "members,cpus,runs",
    [
        (2, 2, [2]),             # ingest-kdf's rounds
        (33, 2, [33]),           # enroll-384's rounds
        (95, 2, [95]),
        (96, 2, [48, 48]),       # PARALLEL_ATTESTATIONS
        (143, 3, [71, 72]),
        (144, 3, [48, 48, 48]),
        (256, 2, [128, 128]),    # attest-256's rounds
        (256, 1, [256]),
    ],
)
def test_a_round_signs_in_runs_of_at_least_half_parallel_attestations(
    monkeypatch, members, cpus, runs
):
    net = round_of(members)
    serial = copy.deepcopy(net)
    serial.step({**ROUND, "at": 10 * members + 30})
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    forked, placed = record_forks(monkeypatch), record_runs(monkeypatch, netsim)
    net.step({**ROUND, "at": 10 * members + 30})
    assert placed == [runs]
    assert len(forked) == len(runs) - 1
    assert_no_child_left()
    assert net.trace == serial.trace
    assert net.metrics["authentications"] == members


def test_attestation_is_checked_against_the_on_chain_key(monkeypatch):
    """c1's on-chain block is swapped for one holding e1's constructed key:
    only c1 is refused, whether its attestation is checked here or, split
    over two processes, in a forked worker."""
    net = pending_round()
    c1, e1 = net.nodes["c1"], net.nodes["e1"]
    _, block = net._members[c1.tuid]
    net._members[c1.tuid] = (c1, replace(block, constructed_public_key=e1.public_id))
    serial, forked_net = copy.deepcopy(net), copy.deepcopy(net)
    serial.step(ROUND)
    forked = fork_every_round(monkeypatch)
    forked_net.step(ROUND)
    assert len(forked) == 1
    assert_no_child_left()
    assert forked_net.trace == serial.trace
    reason = sha256(b"authenticate:Unauthorized").hex()
    assert [line for line in serial.trace if "event=reject" in line] == [
        f"t=70 actor=c1 event=reject payload={reason}"
    ]
    assert serial.metrics["authentications"] == 3


def test_attestation_from_an_identity_not_on_chain_is_rejected(monkeypatch):
    """c1 never joined: the round signs nothing for it and refuses it."""
    net = pending_round(joins=JOIN_ALL[:2], builder="e1")
    signed = []

    def recorded(key, message):
        signed.append(message)
        return sign_message(key, message)

    monkeypatch.setattr(netsim, "sign_message", recorded)
    net.step({"at": 70, "event": "authenticate", "block": "latest", "nodes": ["c1", "e1"]})
    e1 = net.nodes["e1"].tuid
    assert signed == [AuthenticationMessage.signing_bytes(net.latest_pending, e1, 3)]
    reason = sha256(b"authenticate:IdentityMismatch").hex()
    assert net.trace[-2] == f"t=70 actor=c1 event=reject payload={reason}"
    assert " actor=e1 event=auth " in net.trace[-1]


def test_a_worker_that_raises_lands_no_attestation(monkeypatch):
    net = pending_round()
    trace, metrics, pending = list(net.trace), copy.deepcopy(net.metrics), dict(net.pending_blocks)
    parent = os.getpid()

    def sign_here_only(key, message):
        if os.getpid() != parent:
            raise RuntimeError("signed in a worker")
        return sign_message(key, message)

    fork_every_round(monkeypatch)
    monkeypatch.setattr(netsim, "sign_message", sign_here_only)
    with pytest.raises(RuntimeError, match="signed in a worker"):
        net.step(ROUND)
    assert_no_child_left()
    assert (net.trace, net.metrics, net.pending_blocks) == (trace, metrics, pending)


def test_a_second_thread_keeps_the_round_in_this_process(monkeypatch):
    net = pending_round()
    serial, alone_later = copy.deepcopy(net), copy.deepcopy(net)
    serial.step(ROUND)
    fork_every_round(monkeypatch)

    def no_fork():
        raise RuntimeError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        net.step(ROUND)
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert net.trace == serial.trace
    # Alone again, the same round forks.
    with pytest.raises(RuntimeError, match="forked"):
        alone_later.step(ROUND)


def test_genesis_event_raises_already_initialized():
    config = ScenarioConfig.from_dict(
        scenario(script=[{"at": 5, "event": "genesis"}])
    )
    with pytest.raises(AlreadyInitialized):
        run_scenario(config)


def test_summary_audit_reports_zero_remote_reads():
    result = run_scenario(ScenarioConfig.from_dict(scenario(script=list(BLOCK_FLOW))))
    audit = result.network.vault_audit()
    assert audit["remote_reads"] == 0
    assert audit["local_reads"] > 0


# ---------------------------------------------------------------------------
# Adversary model
# ---------------------------------------------------------------------------

ATTACK_NODES = [
    {"name": "bn", "role": "backup", "module": "tm-1"},
    {"name": "e1", "role": "edge", "module": "tm-2"},
    {"name": "v", "role": "cps", "module": "tm-2"},
    {"name": "w", "role": "cps", "module": "tm-2"},
]

ATTACK_JOINS = [
    {"at": 10, "event": "join", "node": "e1"},
    {"at": 20, "event": "join", "node": "v"},
    {"at": 30, "event": "join", "node": "w"},
    {"at": 40, "event": "register_branch", "branch": "telemetry"},
]


def run_attack(attack: dict, mode: str = "narrated"):
    script = ATTACK_JOINS + [dict(attack, at=50, event="attack")]
    result = run_scenario(
        ScenarioConfig.from_dict(scenario(nodes=ATTACK_NODES, script=script, mode=mode))
    )
    outcomes = result.metrics["attacks"]
    assert len(outcomes) == 1
    return outcomes[0], result.network


def test_sybil_without_module_key_blocked_at_registry():
    outcome, _ = run_attack({"category": 1, "secrets": []})
    assert not outcome["succeeded"]
    assert outcome["blocked_at"] == "module registry"


def test_sybil_with_module_key_blocked_at_match_layer():
    outcome, net = run_attack({"category": 1, "secrets": ["module_key"]})
    assert not outcome["succeeded"]
    assert outcome["blocked_at"] == "match layer"
    # The fabricated identity did enroll: module compromise is visible on chain.
    assert len(net.nodechain) == 5


def test_sybil_with_module_key_and_vault_finalizes_narrated():
    outcome, _ = run_attack(
        {"category": 1, "secrets": ["module_key", "vault_access"]}, mode="narrated"
    )
    assert outcome["succeeded"]
    assert outcome["blocked_at"] is None


def test_phishing_with_constructed_key_blocked_at_match_layer():
    outcome, _ = run_attack(
        {"category": 2, "targets": ["v"], "secrets": ["constructed_keys", "tuids"]}
    )
    assert not outcome["succeeded"]
    assert outcome["blocked_at"] == "match layer"


@pytest.mark.parametrize("mode", ["exhaustive", "narrated"])
def test_phishing_with_vault_access_blocked_at_quorum(mode):
    outcome, _ = run_attack(
        {"category": 2, "targets": ["v"], "secrets": ["constructed_keys", "vault_access"]},
        mode=mode,
    )
    assert not outcome["succeeded"]
    assert outcome["blocked_at"] == "finality quorum"


@pytest.mark.parametrize("mode", ["exhaustive", "narrated"])
def test_majority_with_all_secrets_succeeds(mode):
    outcome, net = run_attack(
        {
            "category": 3,
            "targets": ["bn", "e1", "v", "w"],
            "secrets": ["constructed_keys", "vault_access", "tuids"],
        },
        mode=mode,
    )
    assert outcome["succeeded"]
    # The ledger accepted the fraud block: it is final on the real roster.
    (fraud,) = net.layer0.blocks("B")
    assert fraud.transactions[0].sender == net.nodes["bn"].public_id
    assert fraud.narration == tuple(net.roster())


def test_attack_on_an_unregistered_branch_is_refused_by_the_ledger():
    # No branch is registered, so the ledger has no arcs for the block.
    script = ATTACK_JOINS[:3] + [{
        "at": 50, "event": "attack", "category": 3,
        "targets": ["bn", "e1", "v", "w"], "secrets": ["constructed_keys", "vault_access"],
    }]
    result = run_scenario(ScenarioConfig.from_dict(scenario(nodes=ATTACK_NODES, script=script)))
    assert result.metrics["attacks"] == [{
        "category": 3, "succeeded": False, "blocked_at": "ledger validation",
        "detail": "no branch registered for tag 'B'",
    }]
    assert result.network.layer0.blocks() == []
    assert not any("event=fraud_finalized" in line for line in result.trace)


def test_majority_partial_coalition_blocked_at_quorum():
    outcome, _ = run_attack(
        {
            "category": 3,
            "targets": ["e1", "v"],
            "secrets": ["constructed_keys", "vault_access"],
        },
        mode="exhaustive",
    )
    assert not outcome["succeeded"]
    assert outcome["blocked_at"] == "finality quorum"


def test_brute_force_blocked_at_offline_gate():
    outcome, net = run_attack(
        {"category": 4, "targets": ["v"], "secrets": ["constructed_keys"]}
    )
    assert not outcome["succeeded"]
    assert outcome["blocked_at"] == "offline gate"
    audit = net.vault_audit()
    assert audit["remote_rejections"] >= 1
    assert audit["remote_reads"] == 0


def test_stale_adversary_blocked_at_nns_gate():
    outcome, _ = run_attack(
        {
            "category": 2,
            "targets": ["v"],
            "secrets": ["constructed_keys"],
            "stale_ledger": True,
        }
    )
    assert not outcome["succeeded"]
    assert outcome["blocked_at"] == "NNS gate"


def demo_attack(attack: dict, before=(), last_at: int = 70) -> tuple[dict, Network]:
    """The one outcome of `attack` at t=80 on the demo cut after `last_at`,
    then `before`."""
    result = demo_through(last_at, [*before, dict(attack, at=80, event="attack")])
    (outcome,) = result.metrics["attacks"]
    return outcome, result.network


def test_attack_with_no_signing_identity_is_blocked_at_the_signature():
    # Tokens are public on chain: they sign nothing.
    outcome, _ = demo_attack({"category": 2, "targets": ["e1"], "secrets": ["tuids"]})
    assert outcome == {"category": 2, "succeeded": False, "blocked_at": "signature",
                       "detail": "no usable signing identity"}


def test_sybil_with_no_responder_online_is_blocked_at_the_registry():
    outcome, net = demo_attack({"category": 1, "secrets": ["module_key"]}, before=[
        {"at": 72, "event": "disable", "node": "bn"},
        {"at": 74, "event": "disable", "node": "e1"},
    ])
    assert outcome == {"category": 1, "succeeded": False, "blocked_at": "module registry",
                       "detail": "no responder accepted enrollment"}
    assert net.metrics["enrollments"] == 4 and len(net.nodechain) == 4


def test_fraud_block_older_than_its_branch_head_is_refused_by_the_ledger():
    # The honest block closes its window at t=1000, after the attack at t=80,
    # so a fraud block's chain arc cannot point at an earlier record.
    honest = [
        {"at": 60, "event": "build_block", "node": "c1", "branch": "telemetry",
         "window": [45, 1000]},
        {"at": 70, "event": "authenticate", "block": "latest", "nodes": "all"},
    ]
    outcome, net = demo_attack({
        "category": 2, "targets": ["bn", "e1", "s1", "c1"], "branch": "telemetry",
        "secrets": ["constructed_keys", "vault_access"],
    }, before=honest, last_at=50)
    assert net.metrics["blocks_finalized"] == 1
    assert outcome == {"category": 2, "succeeded": False, "blocked_at": "ledger validation",
                       "detail": "arc must reference a strictly earlier record"}
    assert [b.timestamp for b in net.layer0.blocks("B")] == [1000]
    assert not any("event=fraud_finalized" in line for line in net.trace)


@pytest.mark.parametrize(
    "attack",
    [
        {"category": 2, "targets": ["v"], "secrets": ["constructed_keys", "vault_access"]},
        {"category": 4, "targets": ["v"], "secrets": ["constructed_keys"]},
    ],
    ids=["vault_access", "remote lookup"],
)
def test_vault_read_with_no_full_node_online_is_blocked(attack):
    # Before the attack, both full nodes go down: nothing holds the vault log.
    script = ATTACK_JOINS + [
        {"at": 41, "event": "disable", "node": "bn"},
        {"at": 42, "event": "disable", "node": "e1"},
        dict(attack, at=50, event="attack"),
    ]
    result = run_scenario(ScenarioConfig.from_dict(scenario(nodes=ATTACK_NODES, script=script)))
    assert result.metrics["attacks"] == [{
        "category": attack["category"], "succeeded": False,
        "blocked_at": "vault access", "detail": "no full node is online",
    }]
    assert result.network.vault_audit()["remote_rejections"] == 0


# ---------------------------------------------------------------------------
# Monte-Carlo sampling
# ---------------------------------------------------------------------------

def test_monte_carlo_unit_per_node_factor():
    trials = 100_000
    estimate = monte_carlo_attack(1, 10, 0.25, 1.0, trials, seed=11)
    assert abs(estimate - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / trials)


def test_monte_carlo_zero_per_node_factor():
    assert monte_carlo_attack(1, 3, 0.25, 0.0, 5000, seed=1) == 0.0


def test_monte_carlo_matches_analytic_band():
    trials = 1_000_000
    analytic = 0.25 * 0.9215**4
    estimate = monte_carlo_attack(1, 4, 0.25, 0.9215, trials, seed=3)
    sigma = math.sqrt(analytic * (1 - analytic) / trials)
    assert abs(estimate - analytic) <= 3 * sigma
    assert estimate == pytest.approx(0.1803, abs=2e-3)


def test_monte_carlo_deterministic_per_seed():
    a = monte_carlo_attack(2, 6, 0.25, 0.9, 10_000, seed=5)
    b = monte_carlo_attack(2, 6, 0.25, 0.9, 10_000, seed=5)
    c = monte_carlo_attack(2, 6, 0.25, 0.9, 10_000, seed=6)
    assert a == b
    assert a != c


@pytest.mark.parametrize(
    "kwargs",
    [
        {"amplitude": 1.5},
        {"amplitude": -0.1},
        {"per_node": 1.01},
        {"trials": 0},
        {"n": 0},
    ],
)
def test_monte_carlo_domain_errors(kwargs):
    args = {"category": 1, "n": 4, "amplitude": 0.25, "per_node": 0.9,
            "trials": 100, "seed": 0}
    args.update(kwargs)
    with pytest.raises(DomainError):
        monte_carlo_attack(**args)


@pytest.mark.parametrize("factor", [1.5, -0.1])
@pytest.mark.parametrize("field,message", [
    ("amplitude", "amplitude must be a probability"),
    ("per_node", "per-node factor must be a probability"),
])
def test_monte_carlo_refuses_a_factor_as_the_model_does(field, message, factor):
    # The sampler takes its factors through `secmodel.CategoryFactors`.
    factors = {"amplitude": 0.25, "per_node": 0.9, field: factor}
    with pytest.raises(DomainError) as model:
        CategoryFactors(**factors)
    with pytest.raises(DomainError) as sampler:
        monte_carlo_attack(1, 4, trials=100, seed=0, **factors)
    assert str(sampler.value) == str(model.value) == message


def _monte_carlo_in_one_piece(category, n, amplitude, per_node, trials, seed):
    """Reference: every trial drawn at once from one generator."""
    rng = np.random.default_rng([seed, category, n])
    gate = rng.random(trials) < amplitude
    stages = rng.random((trials, n)) < per_node
    successes = np.logical_and(gate, stages.all(axis=1))
    return float(successes.sum()) / trials


_PROBABILITY = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _chunk_shapes(draw):
    """(n, trials), the trials at and around the chunk boundaries for n."""
    n = draw(st.integers(1, 40))
    rows = netsim.MC_CHUNK_DRAWS // n  # trials per chunk
    trials = draw(st.sampled_from([1, rows - 1, rows, rows + 1]) | st.builds(
        lambda k, r: k * rows + r, st.integers(1, 3), st.integers(0, rows - 1)
    ))
    return n, trials


@settings(max_examples=60, deadline=None)
@given(
    category=st.integers(1, 4),
    shape=_chunk_shapes(),
    amplitude=_PROBABILITY,
    per_node=_PROBABILITY,
    seed=st.integers(0, 2**64 - 1),
)
def test_chunked_monte_carlo_equals_the_one_piece_draw(
    category, shape, amplitude, per_node, seed
):
    n, trials = shape
    assert monte_carlo_attack(category, n, amplitude, per_node, trials, seed) == (
        _monte_carlo_in_one_piece(category, n, amplitude, per_node, trials, seed)
    )


def _first_trial_draws(category, n, trials, seed):
    """The first trial's gate draw and the largest of its stage draws, in a
    `trials`-trial run."""
    gates = np.random.default_rng([seed, category, n])
    stages = np.random.default_rng([seed, category, n])
    stages.bit_generator.advance(trials)
    return float(gates.random()), float(stages.random(n).max())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 12, 16, 17, 40])
def test_monte_carlo_equals_the_one_piece_draw_at_every_word_width(n):
    # The n in the list reach each width of the words a row's stage
    # outcomes are read in (1, 2, 4 and 8 bytes), and the trials each side
    # of the chunk boundaries. One amplitude and one per_node are actual
    # draws, so the gate or stage that drew it failed: each passes only
    # below its probability.
    category, seed = 2, 12345
    rows = netsim.MC_CHUNK_DRAWS // n
    for trials in (1, rows - 1, rows, rows + 1, 2 * rows + 3):
        gate, stage = _first_trial_draws(category, n, trials, seed)
        for amplitude in (1.0, 0.75, gate):
            for per_node in (0.0, 1.0, stage):
                args = (category, n, amplitude, per_node, trials, seed)
                assert monte_carlo_attack(*args) == _monte_carlo_in_one_piece(*args), args
    # A lone trial succeeds iff its gate draw is below the amplitude and
    # every stage draw is below per_node.
    gate, stage = _first_trial_draws(category, n, 1, seed)
    above = np.nextafter(gate, 2.0), np.nextafter(stage, 2.0)
    assert monte_carlo_attack(category, n, *above, 1, seed) == 1.0
    assert monte_carlo_attack(category, n, gate, above[1], 1, seed) == 0.0
    assert monte_carlo_attack(category, n, above[0], stage, 1, seed) == 0.0


def test_monte_carlo_memory_does_not_grow_with_trials():
    # The first call imports numpy.random, whose modules are not the
    # sampler's memory.
    monte_carlo_attack(1, 1, 0.25, 0.9, 1, seed=3)
    # n = 1 takes the most: 2^17 rows of a gate and a stage draw, 2 MiB of
    # doubles, and three bytes of outcomes a row.
    for n in (1, 16):
        tracemalloc.start()
        try:
            monte_carlo_attack(1, n, 0.25, 0.9, 10**6, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Drawn in one piece, 10^6 trials at n = 16 take 128 MB of stage
        # draws alone.
        assert peak < 3 * 2**20, (n, peak)


def test_monte_carlo_band_coverage_is_at_least_99_percent():
    trials = 2000
    analytic = 0.25 * 0.9215**4
    sigma = math.sqrt(analytic * (1 - analytic) / trials)
    in_band = 0
    experiments = 300
    for seed in range(experiments):
        estimate = monte_carlo_attack(1, 4, 0.25, 0.9215, trials, seed=seed)
        if abs(estimate - analytic) <= 3 * sigma:
            in_band += 1
    assert in_band / experiments >= 0.99
