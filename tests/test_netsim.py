"""Simulator tests: scenario parsing, protocol flows, adversary model."""

import json
import math
from importlib import resources

import pytest

from flexichain.consensus import AuthenticationMessage
from flexichain.errors import AlreadyInitialized, ConfigError, DomainError, Unauthorized
from flexichain.identity import TokenizedUid
from flexichain.keys import sign_message
from flexichain import netsim
from flexichain.netsim import (
    AttackEvent,
    Network,
    ScenarioConfig,
    make_extrinsic,
    monte_carlo_attack,
    run_scenario,
)
from flexichain.nodechain import verify_chain
from flexichain.wire import sha256

from conftest import material

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
        pytest.param(lambda d: d["script"][4].update(count=netsim.MAX_TX_COUNT + 1),
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
    data["script"][4]["count"] = netsim.MAX_TX_COUNT
    assert ScenarioConfig.from_dict(data).script[4]["count"] == netsim.MAX_TX_COUNT


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
    assert AttackEvent.from_dict(script[4]) == AttackEvent(category=4)


# Wrong shapes substituted into every field of every table. A field is
# exempt from a shape only where its rule takes it.
WRONG_SHAPES = {
    "true": True, "list": [None], "object": {"?": 0}, "null": None,
    "negative": -1, "2^64": 2**64, "empty-string": "",
}
HEX_ANY_LENGTH = {"kdf.salt", "token_salt"}


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
    assert set(first) == netsim.EVENT_KINDS

    def at(*keys):
        def put(data, value):
            target = data
            for key in keys[:-1]:
                target = target.setdefault(key, {}) if isinstance(target, dict) else target[key]
            target[keys[-1]] = value
        return put

    for key, row in netsim.SCENARIO.items():
        yield key, row, at(key)
    for key, row in netsim.KDF.items():
        yield f"kdf.{key}", row, at("kdf", key)
    for key, row in netsim.NODE.items():
        yield f"nodes[3].{key}", row, at("nodes", 3, key)
    for key, row in netsim.EXTRINSIC.items():
        # Overrides are applied, and checked, when the network is built.
        yield f"nodes.extrinsic.{key}", row, at("nodes", 3, "extrinsic", key)
    for kind, table in netsim.EVENTS.items():
        for key, row in table.items():
            yield f"script[{first[kind]}].{key}", row, at("script", first[kind], key)


@pytest.mark.parametrize("shape", list(WRONG_SHAPES), ids=list(WRONG_SHAPES))
@pytest.mark.parametrize(
    "path,row,put", list(_schema_fields()), ids=[p for p, _, _ in _schema_fields()]
)
def test_every_schema_field_refuses_wrong_shapes(path, row, put, shape):
    rule, default = row
    value = WRONG_SHAPES[shape]
    if (value is None and default is None) or (value is True and rule is netsim._bool) \
            or (value == "" and path in HEX_ANY_LENGTH):
        pytest.skip("the field takes this value")
    data = _demo_with_every_event()
    put(data, value)
    with pytest.raises(ConfigError) as excinfo:
        Network(ScenarioConfig.from_dict(data))
    # The overrides sit on node 3, and the build-time error names it.
    expected = path.replace("nodes.extrinsic.", "nodes[3].extrinsic.")
    if path == "nodes[3].extrinsic" and shape == "object":
        expected = "nodes[3].extrinsic.?"  # an unknown override, refused at build
    assert str(excinfo.value).startswith(expected), str(excinfo.value)


def test_seed_override_wins():
    config = ScenarioConfig.from_dict(scenario(seed=5), seed_override=99)
    assert config.seed == 99
    with pytest.raises(ConfigError, match="--seed"):
        ScenarioConfig.from_dict(scenario(seed=5), seed_override=-1)


def test_fixture_derivation_is_seed_deterministic():
    seed_a = make_extrinsic(1, "n", material("k1", 32))
    seed_a2 = make_extrinsic(1, "n", material("k1", 32))
    seed_b = make_extrinsic(2, "n", material("k1", 32))
    assert seed_a == seed_a2
    assert seed_a.mac_address != seed_b.mac_address


def test_extrinsic_overrides_apply():
    fixture = make_extrinsic(
        1, "n", material("k1", 32),
        overrides={"mac_address": "0a0b0c0d0e0f", "process_power_class": 3},
    )
    assert fixture.mac_address == bytes.fromhex("0a0b0c0d0e0f")
    assert fixture.process_power_class == 3
    with pytest.raises(ConfigError):
        make_extrinsic(1, "n", material("k1", 32), overrides={"mac_address": "zz"})
    with pytest.raises(ConfigError):
        make_extrinsic(1, "n", material("k1", 32), overrides={"serial": "00"})


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
        make_extrinsic(1, "n", material("k1", 32), overrides={field: value},
                       path="nodes[2].extrinsic")


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


def test_offline_node_fails_nns_gate():
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
    rejects = [line for line in result.trace if "event=reject" in line]
    assert any("actor=e1" in line for line in rejects)
    assert result.network.nodes["e1"].local_ves_index == 2  # missed index 3


def demo_through(last_at: int, extra: list[dict]):
    """The bundled demo cut after its event at `last_at`, then `extra`."""
    data = json.loads(
        (resources.files("flexichain") / "scenarios" / "demo.json").read_text()
    )
    data["script"] = [ev for ev in data["script"] if ev["at"] <= last_at] + extra
    return run_scenario(ScenarioConfig.from_dict(data))


def test_ves_cursor_is_read_from_the_chain_and_frozen_by_disable():
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
    net = run_scenario(
        ScenarioConfig.from_dict(scenario(nodes=nodes, script=script))
    ).network
    assert len(net.nodechain) == 3
    cursors = {name: node.local_ves_index for name, node in net.nodes.items()}
    assert cursors == {"bn": 3, "e1": 2, "c1": 3, "c2": 0}
    assert not net.nodes["c2"].enrolled and net.metrics["rejected_enrollments"] == 1
    # The vault stops with the cursor: e1 keeps the log as it stood.
    assert net.nodes["bn"].vault is net.vault and len(net.vault) == 3
    assert net.nodes["e1"].vault is not net.vault
    assert net.nodes["e1"].vault.entries == net.vault.entries[:2]


def test_a_second_disable_keeps_the_first_snapshot():
    nodes = [
        {"name": "bn", "role": "backup", "module": "tm-1"},
        {"name": "e1", "role": "edge", "module": "tm-2"},
    ]
    net = run_scenario(ScenarioConfig.from_dict(scenario(
        nodes=nodes, script=[{"at": 10, "event": "join", "node": "e1"}]
    ))).network
    e1 = net.nodes["e1"]
    e1.disable()
    snapshot = e1.vault
    e1.disable()
    assert e1.vault is snapshot and e1.local_ves_index == 2


def test_fraud_block_never_takes_the_virtual_existence_tag():
    _, net = run_attack({"category": 1, "secrets": ["module_key"]})
    author = net.nodes["sybil-1"]
    net.layer0.register_branch("firmware", material("netsim/firmware", 32), net.clock)
    for branch, tag in ((None, "B"), ("telemetry", "B"), ("firmware", "C"),
                        ("virtual-existence", "B"), ("unregistered", "B")):
        event = AttackEvent(category=1, branch=branch)
        assert netsim._craft_fraud_block(net, author, event).block_type_tag == tag


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


def test_transaction_is_finalized_at_most_once():
    result = demo_through(70, [
        {"at": 75, "event": "build_block", "node": "c1", "branch": "telemetry",
         "window": [45, 61]},
        {"at": 80, "event": "authenticate", "block": "latest", "nodes": "all"},
    ])
    net = result.network
    assert result.metrics["blocks_finalized"] == 1
    assert [len(b.transactions) for b in net.layer0.blocks("B")] == [3]
    assert net.tx_pool == []


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


def signed_attestation(net, tuid: TokenizedUid, signer: str) -> AuthenticationMessage:
    digest = b"\x42" * 32
    key = net.nodes[signer].signing_key
    signature = sign_message(key, AuthenticationMessage.signing_bytes(digest, tuid, 4))
    return AuthenticationMessage(digest, tuid, 4, signature)


def test_attestation_is_checked_against_the_on_chain_key():
    net = run_scenario(ScenarioConfig.from_dict(scenario(script=JOIN_ALL))).network
    c1 = net.nodes["c1"].tuid
    net._verify_auth_message(signed_attestation(net, c1, "c1"))
    with pytest.raises(Unauthorized):
        net._verify_auth_message(signed_attestation(net, c1, "e1"))


def test_attestation_from_an_identity_not_on_chain_is_rejected():
    net = run_scenario(ScenarioConfig.from_dict(scenario(script=JOIN_ALL))).network
    stranger = TokenizedUid(b"\x07" * 32)
    with pytest.raises(Unauthorized):
        net._verify_auth_message(signed_attestation(net, stranger, "c1"))


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
    outcome, _ = run_attack(
        {
            "category": 3,
            "targets": ["bn", "e1", "v", "w"],
            "secrets": ["constructed_keys", "vault_access", "tuids"],
        },
        mode=mode,
    )
    assert outcome["succeeded"]


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
