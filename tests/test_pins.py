"""Behaviour pins: the simulator is deterministic, so its bytes are fixed.

A refactor that keeps behaviour keeps these digests. A change that moves
one of them changes behaviour, and must say so and re-record the pin.
"""

import hashlib
import json
from importlib import resources

from flexichain.cli import main
from flexichain.netsim import ScenarioConfig, run_scenario

DEMO = str(resources.files("flexichain") / "scenarios" / "demo.json")

# SHA-256 of the four deterministic artifacts of `flexichain run` on the
# bundled demo. summary.json is left out: `verify` does not compare it.
DEMO_ARTIFACTS = {
    "trace.txt": "477217c004237251fd611da9d13b8e490609b0accc8a18640bc716bb21ed664f",
    "nodechain.bin": "ded7bf37b36ab185a026c565f9678c836ab3b19c6f14e459cefbaaa6ccd83b90",
    "layer0.txt": "b5839c6b12553ba9cd3b87398e04879f674a73ee3fffd8d8a6682720d2cd6559",
    "vault.bin": "6c6c0ff680d52297e34613114e25d605f3dd11be64fcbd5c25a274447a145512",
}

SCALE_64_TRACE = "d687e0989a48a5405b2bff78d9e7182edd8b9139c202f045b16c31234e0b2562"
# SHA-256 of the vault log every online edge node holds after the n=64
# scenario.
SCALE_64_EDGE_VAULT = "3b5602d35c9e4d4b9da77628a71361904f4b899b25ae048ac121d5893053a7a6"

EXHAUSTIVE_64_TRACE = "fc90cce54bcbc5244f60879b5e6a9320696ccf56faac74bf82a0b8e5a1289397"


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


def test_scale_64_is_pinned():
    result = run_scenario(ScenarioConfig.from_dict(scale_64()))
    net = result.network
    summary = net.summary()
    assert summary["enrollments"] == 65  # backup, 63 joins, one Sybil
    assert summary["blocks_finalized"] == 3
    assert summary["attacks"][0]["blocked_at"] == "match layer"
    assert result.trace_digest.hex() == SCALE_64_TRACE
    edge_vaults = {
        hashlib.sha256(n.vault.serialize()).hexdigest()
        for n in net.full_nodes() if n.online
    }
    assert edge_vaults == {SCALE_64_EDGE_VAULT}
    assert all(n.vault is net.vault for n in net.full_nodes() if n.online)
    # The backup went offline after join 32 and missed every later delta.
    assert len(net.backup.vault) == net.backup.local_ves_index == 33
    assert {n.local_ves_index for n in net.nodes.values() if n.online} == {65}
    assert net.vault_audit() == {"local_reads": 88, "remote_reads": 0, "remote_rejections": 0}


def test_scale_64_runs_then_verifies_after_the_backup_failover(tmp_path):
    """The backup is offline at the end, so vault.bin and the chain check
    use the network's vault log, not the backup's stale snapshot."""
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
