"""Behaviour pins: the simulator is deterministic, so its bytes are fixed.

A refactor that keeps behaviour keeps these digests. A change that moves
one of them changes behaviour, and must say so and re-record the pin.
"""

import copy
import hashlib
import json
from collections.abc import KeysView
from dataclasses import fields
from importlib import resources

import pytest

from flexichain import dag, identity, netsim
from flexichain.cli import _replayed_artifacts, _write_artifacts, main
from flexichain.netsim import Network, SimulationResult, run_scenario
from flexichain.nodechain import verify_chain
from flexichain.scenario import ScenarioConfig

from conftest import assert_no_child_left, fork_every_round

DEMO = str(resources.files("flexichain") / "scenarios" / "demo.json")

# SHA-256 of the files `flexichain run` writes for the bundled demo.
# `verify` compares only the first four. summary.json is pinned too: its
# `vault_audit` holds the read counters of the network's vault log, so it
# moves when the simulator reads the vault more or less often, which no
# other pin shows. ROADMAP item 5 will add fields to it and so
# change this pin on purpose.
DEMO_ARTIFACTS = {
    "trace.txt": "477217c004237251fd611da9d13b8e490609b0accc8a18640bc716bb21ed664f",
    "nodechain.bin": "ded7bf37b36ab185a026c565f9678c836ab3b19c6f14e459cefbaaa6ccd83b90",
    "layer0.txt": "b5839c6b12553ba9cd3b87398e04879f674a73ee3fffd8d8a6682720d2cd6559",
    "vault.bin": "6c6c0ff680d52297e34613114e25d605f3dd11be64fcbd5c25a274447a145512",
    "summary.json": "117be4ac03bb662f17d8b8d4e6af5f33a83a5d5fac6fad0d90c78aa04e9de975",
}

# SHA-256 of the three CSVs `flexichain tables` writes.
TABLES = {
    "blockchain_attack_probabilities.csv":
        "44227f39a24ca5103e5a9f62a986983703543c2faa1f0b4d40edadb3dd38ae05",
    "flexichain_attack_probabilities.csv":
        "c61d804bc1e7fd6477ff5fdf2560fb3cb8c0f7509d32031a46f31f015b9d09cf",
    "security_comparison.csv":
        "2d1ae5508d124566247e6188a2130042e71e81b4719933dc63558c5f44dd841c",
}

SCALE_64_TRACE = "d687e0989a48a5405b2bff78d9e7182edd8b9139c202f045b16c31234e0b2562"
# SHA-256 of the vault log every online edge node holds after the n=64
# scenario.
SCALE_64_EDGE_VAULT = "3b5602d35c9e4d4b9da77628a71361904f4b899b25ae048ac121d5893053a7a6"

EXHAUSTIVE_64_TRACE = "fc90cce54bcbc5244f60879b5e6a9320696ccf56faac74bf82a0b8e5a1289397"

# SHA-256 of the nodechain.bin, layer0.txt and vault.bin that `run` writes
# for each scale scenario; the trace is pinned above.
SCALE_64_LEDGERS = {
    "nodechain.bin": "053025c0b9e84e958bda8e8b735a54482b4f06e87ee1fed560ff4e3c9645290d",
    "layer0.txt": "f426237781c157e4a0d31f4af6f81e7478d74c1f5ac0f01684e50b750fe29834",
    "vault.bin": SCALE_64_EDGE_VAULT,
}
EXHAUSTIVE_64_LEDGERS = {
    "nodechain.bin": "b5b3230d8d5946b7f1e32903aba406d6a63956c53b0bf205853141d35893b734",
    "layer0.txt": "ebf7fc01dd9fc76482e24548f8cb28acbd6d6fcba2f3ea40d6428bac47f832df",
    "vault.bin": "b1fdad90dcc91557929c3935064142ff2c821be0877fcea3028b51d9f3f2398d",
}

# SHA-256 of `flexichain montecarlo` stdout, with its exit code. At
# --trials 12345 one cell falls outside its 3-sigma band.
MONTECARLO_STDOUT = {
    (): ("6a6cbadd9df65f97685b966d7477649d826ca4dbb5dc410bda99ad552fb06a9d", 0),
    ("--trials", "12345", "--seed", "99"):
        ("8a4d2f46b35bff90ac3e2056621cc3e8d51872031a344906c617ace3841a2c43", 1),
}


def ledger_digests(result) -> dict[str, str]:
    """SHA-256 of the ledger artifacts `run` writes for `result`."""
    return {
        name: hashlib.sha256(data).hexdigest()
        for name, data in _replayed_artifacts(result).items() if name != "trace.txt"
    }


def full_mode_violation(net: Network):
    """Full-mode `verify_chain` of `net`'s chain against its vault log.

    `verify` does not run it: its replay derives each UID once, and
    deriving the same inputs again could fail only if `derive_uid` were
    not deterministic. The tests keep the check on the chains they build.
    """
    return verify_chain(net.nodechain, kdf=net.config.kdf, vault=net.vault,
                        token_salt=net.config.token_salt)


def scale_64() -> dict:
    """n=64: 8 edges, the backup down after join 32, a narrated round
    every 16 joins, and one Sybil attack holding a stolen module key.

    Covers new-edge vault copies, failover responders and the
    fabricated-identity enrollment path.
    """
    edges = [f"e{i}" for i in range(1, 9)]
    cps = [f"c{i}" for i in range(1, 56)]
    nodes = [{"name": "bn", "role": "backup", "module": "tm-1"}]
    nodes += [{"name": e, "role": "edge", "module": "tm-2"} for e in edges]
    nodes += [{"name": c, "role": "cps", "module": "tm-2"} for c in cps]
    script = []

    def emit(event):
        script.append({"at": 10 * (len(script) + 1), **event})

    emit({"event": "register_branch", "branch": "telemetry"})
    for i, name in enumerate(edges + cps, start=1):
        emit({"event": "join", "node": name})
        if i == 32:
            emit({"event": "disable", "node": "bn"})
        if i == 40:
            emit({"event": "attack", "category": 1, "secrets": ["module_key"]})
        if i % 16 == 0:
            t = 10 * (len(script) + 1)
            emit({"event": "transactions", "node": name, "branch": "telemetry",
                  "count": 4})
            emit({"event": "build_block", "node": name, "branch": "telemetry",
                  "window": [t, t + 1]})
            emit({"event": "authenticate", "block": "latest", "nodes": "all"})
    return {
        "seed": 64,
        "finality_mode": "narrated",
        "kdf": {"cost": 2, "block_size": 1, "parallelism": 1},
        "modules": ["tm-1", "tm-2"],
        "nodes": nodes,
        "script": script,
    }


def exhaustive_64() -> dict:
    """n=64: 8 edges, 8 subscribers routed through them, exhaustive
    finality with a round every 16 joins and one after the last.

    Every node stays online, so every block must finalize, and each
    `authenticate "all"` attests in enrollment order.
    """
    edges = [f"e{i}" for i in range(1, 9)]
    subscribers = [f"s{i}" for i in range(1, 9)]
    cps = [f"c{i}" for i in range(1, 48)]
    nodes = [{"name": "bn", "role": "backup", "module": "tm-1"}]
    nodes += [{"name": e, "role": "edge", "module": "tm-2"} for e in edges]
    nodes += [{"name": s, "role": "subscriber", "module": "tm-2", "via": e}
              for s, e in zip(subscribers, edges)]
    nodes += [{"name": c, "role": "cps", "module": "tm-2"} for c in cps]
    script = []

    def emit(event):
        script.append({"at": 10 * (len(script) + 1), **event})

    def round_by(name):
        t = 10 * (len(script) + 1)
        emit({"event": "transactions", "node": name, "branch": "telemetry",
              "count": 4})
        emit({"event": "build_block", "node": name, "branch": "telemetry",
              "window": [t, t + 1]})
        emit({"event": "authenticate", "block": "latest", "nodes": "all"})

    emit({"event": "register_branch", "branch": "telemetry"})
    joiners = edges + subscribers + cps
    for i, name in enumerate(joiners, start=1):
        emit({"event": "join", "node": name})
        if i % 16 == 0:
            round_by(name)
    round_by(joiners[-1])
    return {
        "seed": 65,
        "finality_mode": "exhaustive",
        "kdf": {"cost": 2, "block_size": 1, "parallelism": 1},
        "modules": ["tm-1", "tm-2"],
        "nodes": nodes,
        "script": script,
    }


def test_demo_artifacts_are_pinned(tmp_path):
    assert main(["run", "--scenario", DEMO, "--out", str(tmp_path)]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in DEMO_ARTIFACTS
    }
    assert digests == DEMO_ARTIFACTS
    assert full_mode_violation(run_scenario(ScenarioConfig.from_file(DEMO)).network) is None


def test_tables_are_pinned(tmp_path, capsys):
    assert main(["tables", "--out", str(tmp_path)]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()
    }
    assert digests == TABLES


def test_scale_64_is_pinned():
    result = run_scenario(ScenarioConfig.from_dict(scale_64()))
    net = result.network
    summary = net.summary()
    assert summary["enrollments"] == 65  # backup, 63 joins, one Sybil
    assert summary["blocks_finalized"] == 3
    assert summary["attacks"][0]["blocked_at"] == "match layer"
    assert result.trace_digest.hex() == SCALE_64_TRACE
    assert ledger_digests(result) == SCALE_64_LEDGERS
    edge_vaults = {
        hashlib.sha256(n.vault.serialize()).hexdigest()
        for n in net.full_nodes() if n.online
    }
    assert edge_vaults == {SCALE_64_EDGE_VAULT}
    assert all(n.vault is net.vault for n in net.full_nodes() if n.online)
    # The backup went offline after join 32.
    assert not net.backup.online
    assert net.vault_audit() == {"local_reads": 88, "remote_reads": 0, "remote_rejections": 0}
    assert full_mode_violation(net) is None


def test_nodes_hold_no_shared_state():
    """No actor mirrors the network's chain or registry; an online full
    node's vault is the network's log itself."""
    net = run_scenario(ScenarioConfig.from_dict(scale_64())).network
    shared = (net.nodechain, net.module_registry)
    for node in net.nodes.values():
        held = [getattr(node, f.name) for f in fields(node)]
        assert not any(value is s for value in held for s in shared), node.name
    online_full = [n for n in net.full_nodes() if n.online]
    assert len(online_full) == 8 and all(n.vault is net.vault for n in online_full)


def test_scale_64_runs_then_verifies_after_the_backup_failover(tmp_path):
    """The backup is offline at the end; vault.bin is the network's vault
    log, which no node going offline changes, so `verify`'s replay writes
    the same bytes."""
    scenario = tmp_path / "scale_64.json"
    scenario.write_text(json.dumps(scale_64()))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "vault.bin").read_bytes()).hexdigest() == SCALE_64_EDGE_VAULT
    assert main(["verify", "--scenario", str(scenario), "--out", str(out)]) == 0


def test_scale_64_membership_lookups():
    net = run_scenario(ScenarioConfig.from_dict(scale_64())).network
    roster = net.roster()
    assert roster == [b.tuid for b in net.nodechain.blocks]
    members = [net.node_for_tuid(t) for t in roster]
    assert [n.tuid for n in members] == roster
    assert members[0] is net.backup and members[-1].name == "c55"
    assert "sybil-1" in {n.name for n in members}
    assert len({n.name for n in members}) == len(roster) == 65


def test_exhaustive_64_is_pinned():
    result = run_scenario(ScenarioConfig.from_dict(exhaustive_64()))
    summary = result.network.summary()
    assert summary["enrollments"] == 64
    assert summary["blocks_built"] == summary["blocks_finalized"] == 4
    # Each round is attested by the whole roster: 17 + 33 + 49 + 64.
    assert summary["authentications"] == 163
    assert summary["rejections"] == 0
    assert result.trace_digest.hex() == EXHAUSTIVE_64_TRACE
    assert ledger_digests(result) == EXHAUSTIVE_64_LEDGERS
    assert full_mode_violation(result.network) is None


def test_forked_rounds_keep_every_pin(monkeypatch, tmp_path):
    """Every attestation round split over two processes, as a round of
    `PARALLEL_ATTESTATIONS` members is: the same bytes as in one process."""
    forked = fork_every_round(monkeypatch)
    assert main(["run", "--scenario", DEMO, "--out", str(tmp_path)]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in DEMO_ARTIFACTS
    }
    assert digests == DEMO_ARTIFACTS
    assert len(forked) == 1  # the demo's one round
    for config, trace, ledgers, rounds in (
        (scale_64, SCALE_64_TRACE, SCALE_64_LEDGERS, 3),
        (exhaustive_64, EXHAUSTIVE_64_TRACE, EXHAUSTIVE_64_LEDGERS, 4),
    ):
        forked.clear()
        result = run_scenario(ScenarioConfig.from_dict(config()))
        assert result.trace_digest.hex() == trace
        assert ledger_digests(result) == ledgers
        assert len(forked) == rounds
    assert_no_child_left()


@pytest.mark.parametrize(
    "config,trace",
    [(scale_64, SCALE_64_TRACE), (exhaustive_64, EXHAUSTIVE_64_TRACE)],
    ids=["scale_64", "exhaustive_64"],
)
def test_a_copy_taken_mid_run_replays_with_forked_rounds(monkeypatch, config, trace):
    fork_every_round(monkeypatch)
    config = ScenarioConfig.from_dict(config())
    net, cut = Network(config), len(config.script) // 2
    for ev in config.script[:cut]:
        net.step(ev)
    branch = copy.deepcopy(net)
    for ev in config.script[cut:]:
        branch.step(ev)
    assert branch.trace_digest().hex() == trace
    assert_no_child_left()


def reappended_layer0(net: Network) -> dag.Layer0Ledger:
    """A fresh ledger with `net`'s branch markers, into which every block
    `net` finalized is appended again, decoded from its bytes.

    Each block is checked against the roster it finalized on: the roster cut
    after the newest token its narration names.
    """
    records = map(net.layer0.record, net.layer0.topological_order())
    genesis = {r.tag: r for r in records if r.is_genesis}
    markers = [(branch, genesis[tag]) for branch, tag in net.layer0.branches.items()]
    (_, virtual), *registered = markers
    fresh = dag.Layer0Ledger(virtual.digest)
    for branch, marker in registered:
        fresh.register_branch(branch, marker.digest, marker.timestamp)
    roster = net.roster()
    position = {tuid: i for i, tuid in enumerate(roster)}
    for block in net.layer0.blocks():
        cut = 1 + max(position[tuid] for tuid in block.narrated)
        fresh.append_block(dag.DataBlock.decode(block.encode()), roster[:cut],
                           net.config.finality_mode, net.config.latest_count)
    return fresh


@pytest.mark.parametrize(
    "config,finalized",
    [(lambda: ScenarioConfig.from_file(DEMO), 1),
     (lambda: ScenarioConfig.from_dict(scale_64()), 3),
     (lambda: ScenarioConfig.from_dict(exhaustive_64()), 4)],
    ids=["demo", "scale_64", "exhaustive_64"],
)
def test_finalized_blocks_reappend_from_their_bytes(config, finalized):
    net = run_scenario(config()).network
    fresh = reappended_layer0(net)
    assert len(fresh.blocks()) == finalized
    assert fresh.export_text() == net.layer0.export_text()


def demo_with_bystanders() -> dict:
    """The demo with e1 and s1 sending before and after c1's block is
    built, so the pool holds transactions of two times across its
    finalization."""
    with open(DEMO) as fh:
        data = json.load(fh)
    send = {"event": "transactions", "branch": "telemetry", "count": 2}
    data["script"][4:4] = [{"at": 45, "node": "e1", **send}]
    data["script"][7:7] = [{"at": 65, "node": "s1", **send}]
    return data


@pytest.mark.parametrize(
    "config",
    [lambda: ScenarioConfig.from_file(DEMO), lambda: ScenarioConfig.from_dict(scale_64()),
     lambda: ScenarioConfig.from_dict(demo_with_bystanders())],
    ids=["demo", "scale_64", "demo_with_bystanders"],
)
def test_pool_holds_exactly_the_unfinalized_transactions(config):
    """Stepped one event at a time, as the benchmark drives the network:
    the pool never holds a finalized transaction, shrinks by exactly each
    finalized honest block, and keeps arrival order."""
    config = config()
    net = Network(config)
    built: set[bytes] = set()  # every honest block; fraud blocks skip the pool
    for ev in config.script:
        net.step(ev)
        built.update(net.pending_blocks)
        finalized = net.layer0.blocks()
        honest = [b for b in finalized if b.header_digest in built]
        assert len(honest) == net.metrics["blocks_finalized"]
        assert {tx for b in finalized for tx in b.transactions}.isdisjoint(net.tx_pool)
        assert len(net.tx_pool) == net.metrics["transactions"] - sum(
            len(b.transactions) for b in honest
        )
        stamps = [tx.timestamp for tx in net.tx_pool]
        assert stamps == sorted(stamps)
    assert net.metrics["blocks_finalized"] > 0


class Unreadable:
    """Stands in for a vault that no code may touch."""

    def __getattribute__(self, name):
        raise AssertionError(f"read .{name} of an offline node's vault")


def run_with_offline_vaults_unreadable(config: ScenarioConfig):
    """`config` stepped one event at a time, each full node's vault made
    `Unreadable` once it is disabled; the result and the vaults replaced."""
    net = Network(config)
    replaced = 0
    for ev in config.script:
        net.step(ev)
        if ev["event"] == "disable" and net.nodes[ev["node"]].vault is not None:
            net.nodes[ev["node"]].vault = Unreadable()
            replaced += 1
    result = SimulationResult(net, tuple(net.trace), net.metrics, net.trace_digest())
    return result, replaced


def test_no_run_reads_an_offline_nodes_vault(tmp_path):
    demo, replaced = run_with_offline_vaults_unreadable(ScenarioConfig.from_file(DEMO))
    assert replaced == 0
    _write_artifacts(demo, str(tmp_path))
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in DEMO_ARTIFACTS
    }
    assert digests == DEMO_ARTIFACTS
    scale, replaced = run_with_offline_vaults_unreadable(ScenarioConfig.from_dict(scale_64()))
    assert replaced == 1  # the backup
    assert scale.trace_digest.hex() == SCALE_64_TRACE
    assert ledger_digests(scale) == SCALE_64_LEDGERS
    assert scale.network.summary()["vault_audit"] == {
        "local_reads": 88, "remote_reads": 0, "remote_rejections": 0,
    }


def test_montecarlo_stdout_is_pinned(capsys):
    for flags, pinned in MONTECARLO_STDOUT.items():
        code = main(["montecarlo", *flags])
        stdout = capsys.readouterr().out.encode()
        assert (hashlib.sha256(stdout).hexdigest(), code) == pinned, flags


def test_network_build_derives_each_key_once(monkeypatch):
    calls = []
    derive = netsim.signing_key_from_seed

    def counted(seed):
        calls.append(seed)
        return derive(seed)

    monkeypatch.setattr(netsim, "signing_key_from_seed", counted)
    config = ScenarioConfig.from_dict(scale_64())
    Network(config)
    # One key per node and one per trusted module.
    assert len(calls) == len(config.nodes) + len(config.modules) == 66


def test_verify_derives_each_identity_once(monkeypatch, tmp_path):
    scenario = tmp_path / "scale_64.json"
    scenario.write_text(json.dumps(scale_64()))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    calls = []
    kdf = identity.scrypt_kdf

    def counted(*args, **kwargs):
        calls.append(args)
        return kdf(*args, **kwargs)

    monkeypatch.setattr(identity, "scrypt_kdf", counted)
    assert main(["verify", "--scenario", str(scenario), "--out", str(out)]) == 0
    # The replay binds 65 identities (backup, 63 joins, one Sybil), one
    # derivation each; no second pass re-derives them.
    assert len(calls) == 65


def test_each_finalized_transaction_is_verified_once(monkeypatch):
    calls = []
    verify = dag.Transaction.verify

    def counted(tx):
        calls.append(tx.digest())
        return verify(tx)

    monkeypatch.setattr(dag.Transaction, "verify", counted)
    result = run_scenario(ScenarioConfig.from_dict(exhaustive_64()))
    finalized = [tx.digest() for b in result.network.layer0.blocks() for tx in b.transactions]
    # Four rounds of four transactions, each checked where it enters its block.
    assert sorted(calls) == sorted(finalized) and len(calls) == 16


def plain_bytes(net: Network) -> dict[str, bytes]:
    """The four artifacts `verify` compares, and the summary, for `net`."""
    result = SimulationResult(net, tuple(net.trace), net.metrics, net.trace_digest())
    summary = json.dumps(net.summary(), sort_keys=True).encode()
    return {**_replayed_artifacts(result), "summary.json": summary}


def branch_points(config: ScenarioConfig, every: int):
    """(network, copy, cut): a `copy.deepcopy` of the network before each
    `every`th event of the script, and after the last; the network steps
    on after each copy."""
    net = Network(config)
    for cut in range(len(config.script) + 1):
        if cut % every == 0 or cut == len(config.script):
            yield net, copy.deepcopy(net), cut
        if cut < len(config.script):
            net.step(config.script[cut])


# The demo copied after every event; scale_64 after every 8th, which puts
# copies on both sides of the backup's failover and of the attack.
BRANCHED = pytest.mark.parametrize(
    "config,every",
    [(lambda: ScenarioConfig.from_file(DEMO), 1),
     (lambda: ScenarioConfig.from_dict(scale_64()), 8)],
    ids=["demo", "scale_64"],
)


@BRANCHED
def test_a_copied_run_steps_on_to_the_same_bytes(config, every):
    config = config()
    plain = plain_bytes(run_scenario(config).network)
    for _, branch, cut in branch_points(config, every):
        for ev in config.script[cut:]:
            branch.step(ev)
        assert plain_bytes(branch) == plain, cut


@BRANCHED
def test_stepping_a_copy_leaves_the_original_unchanged(config, every):
    config = config()
    def seen(net):
        return net.trace_digest(), net.roster(), len(net.vault), list(net.tx_pool)

    for net, branch, cut in branch_points(config, every):
        before = seen(net)
        for ev in config.script[cut:]:
            branch.step(ev)
        assert seen(net) == before, cut
        assert branch.vault is not net.vault and branch.layer0 is not net.layer0


@BRANCHED
def test_a_copy_keeps_its_own_aliases(config, every):
    """Within one copy, the vault log, the roster and each actor stay one
    object, however many places hold them."""
    for _, branch, cut in branch_points(config(), every):
        full = branch.full_nodes()
        assert full and all(n.vault is branch.vault for n in full), cut
        # The roster is a view of the members' tokens, not a list of its own.
        roster = branch.finality[0]
        assert isinstance(roster, KeysView) and roster == branch._members.keys()
        assert branch.backup is branch.nodes[branch.backup.name]
        assert all(node is branch.nodes[node.name] for node, _ in branch._members.values())


def test_a_copy_numbers_its_own_fabrications():
    """The fabrication counter is network state: a copy taken before two
    Sybil attacks fabricates the same two identities as the original."""
    data = scale_64()
    data["script"].append({"at": data["script"][-1]["at"] + 10, "event": "attack",
                           "category": 2, "secrets": ["module_key"]})
    config = ScenarioConfig.from_dict(data)
    first = next(i for i, ev in enumerate(config.script) if ev["event"] == "attack")
    net = Network(config)
    for ev in config.script[:first]:
        net.step(ev)
    branch = copy.deepcopy(net)
    for run in (net, branch):
        for ev in config.script[first:]:
            run.step(ev)
    assert branch.trace_digest() == net.trace_digest()
    for run in (net, branch):
        assert [name for name in run.nodes if name.startswith("sybil-")] == [
            "sybil-1", "sybil-2"]
        assert [a["category"] for a in run.metrics["attacks"]] == [1, 2]


def test_frozen_records_copy_as_themselves():
    """A copy of a run shares its frozen records instead of rebuilding them."""
    net = run_scenario(ScenarioConfig.from_file(DEMO)).network
    node = next(n for n in net.nodes.values() if n.hardware_uid is not None)
    block = net.layer0.blocks()[0]
    records = [node.params, node.hardware_uid, node.tuid, net.config.kdf,
               net.nodechain.blocks[0], block, block.transactions[0]]
    assert [type(r).__name__ for r in records] == [
        "ExtrinsicParameters", "Uid", "TokenizedUid", "KdfParameters",
        "VirtualExistenceBlock", "DataBlock", "Transaction"]
    for record in records:
        assert copy.deepcopy(record) is record
    branch = copy.deepcopy(net)
    assert branch.nodes[node.name].params is node.params
