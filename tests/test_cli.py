"""CLI tests: subcommands, exit codes, reproducible outputs."""

import hashlib
import json
import os
import tempfile
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flexichain import netsim
from flexichain.cli import main

DEMO = str(resources.files("flexichain") / "scenarios" / "demo.json")


def read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_demo_scenario(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenario", DEMO, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "enrollments: 4" in stdout
    for name in ("trace.txt", "nodechain.bin", "layer0.txt", "vault.bin", "summary.json"):
        assert (out / name).exists()
    summary = json.loads(read(out / "summary.json"))
    assert summary["enrollments"] == 4
    assert summary["blocks_finalized"] == 1
    assert summary["vault_audit"]["remote_reads"] == 0


def test_run_twice_produces_identical_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", DEMO, "--out", str(a)]) == 0
    assert main(["run", "--scenario", DEMO, "--out", str(b)]) == 0
    for name in ("trace.txt", "nodechain.bin", "layer0.txt", "vault.bin", "summary.json"):
        assert read(a / name) == read(b / name)


def test_run_missing_scenario_is_usage_error(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2
    assert "cannot read scenario" in capsys.readouterr().err


def test_run_malformed_scenario_names_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "modules": ["tm-1"],
        "nodes": [{"name": "bn", "role": "router", "module": "tm-1"}],
    }))
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "role" in capsys.readouterr().err


def test_run_protocol_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "double-genesis.json"
    bad.write_text(json.dumps({
        "seed": 1,
        "kdf": {"cost": 16, "block_size": 1, "parallelism": 1},
        "modules": ["tm-1"],
        "nodes": [{"name": "bn", "role": "backup", "module": "tm-1"}],
        "script": [{"at": 5, "event": "genesis"}],
    }))
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "AlreadyInitialized" in capsys.readouterr().err


def test_run_node_named_with_the_sybil_prefix_is_a_config_error(tmp_path, capsys):
    # A scenario node named like a fabricated identity would collide with
    # the Sybil's name and extrinsic fixture.
    bad = tmp_path / "sybil-name.json"
    bad.write_text(json.dumps({
        "seed": 1,
        "finality_mode": "narrated",
        "kdf": {"cost": 16, "block_size": 1, "parallelism": 1},
        "modules": ["tm-1", "tm-2"],
        "nodes": [
            {"name": "bn", "role": "backup", "module": "tm-1"},
            {"name": "e1", "role": "edge", "module": "tm-2"},
            {"name": "sybil-1", "role": "cps", "module": "tm-2"},
        ],
        "script": [
            {"at": 10, "event": "join", "node": "e1"},
            {"at": 20, "event": "join", "node": "sybil-1"},
            {"at": 30, "event": "attack", "category": 1, "secrets": ["module_key"]},
        ],
    }))
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "sybil-" in capsys.readouterr().err


def test_run_late_attestation_is_a_rejection(tmp_path):
    # Narrated finality: c1 is the newest identity, so its attestation
    # finalizes the block and bn's comes after the block left the pool.
    data = json.loads(read(DEMO))
    data["finality_mode"] = "narrated"
    data["script"][6]["nodes"] = ["c1", "bn"]
    path = tmp_path / "late.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    summary = json.loads(read(out / "summary.json"))
    assert summary["blocks_finalized"] == 1
    assert summary["rejections"] == 1
    reason = hashlib.sha256(b"authenticate:BlockNotPending").hexdigest()
    assert f"actor=bn event=reject payload={reason}" in read(out / "trace.txt").decode()


def test_seed_flag_overrides_scenario(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", DEMO, "--out", str(a)]) == 0
    assert main(["run", "--scenario", DEMO, "--seed", "123", "--out", str(b)]) == 0
    assert read(a / "trace.txt") != read(b / "trace.txt")


def test_negative_seed_flag_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenario", DEMO, "--seed", "-1", "--out", str(out)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_out_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("FLEXICHAIN_OUT", str(tmp_path / "envout"))
    assert main(["run", "--scenario", DEMO]) == 0
    assert (tmp_path / "envout" / "trace.txt").exists()


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_tables_pass_and_emit(tmp_path, capsys):
    assert main(["tables", "--out", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("PASS") == 3
    for name in (
        "blockchain_attack_probabilities.csv",
        "flexichain_attack_probabilities.csv",
        "security_comparison.csv",
    ):
        assert (tmp_path / name).exists()


def test_tables_corruption_hook_fails_naming_cell(tmp_path, capsys):
    assert main([
        "tables", "--out", str(tmp_path),
        "--corrupt-cell", "blockchain:44:category2=0.5",
    ]) == 1
    captured = capsys.readouterr()
    assert "FAIL blockchain" in captured.out
    assert "n=44" in captured.err
    assert "category2" in captured.err


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

def test_montecarlo_validation_passes(capsys):
    assert main(["montecarlo", "--trials", "20000", "--seed", "0"]) == 0
    stdout = capsys.readouterr().out
    # both chains x four categories x three node counts
    assert stdout.count("PASS") == 24
    assert "FAIL" not in stdout


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_after_run(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenario", DEMO, "--out", str(out)]) == 0
    assert main(["verify", "--scenario", DEMO, "--out", str(out)]) == 0
    assert "PASS artifacts replay byte-identically" in capsys.readouterr().out


def test_verify_detects_tampered_trace(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenario", DEMO, "--out", str(out)]) == 0
    data = bytearray(read(out / "trace.txt"))
    data[5] ^= 0xFF
    (out / "trace.txt").write_bytes(bytes(data))
    assert main(["verify", "--scenario", DEMO, "--out", str(out)]) == 1
    assert "replay mismatch: trace.txt" in capsys.readouterr().out


def test_verify_missing_artifacts(tmp_path, capsys):
    assert main(["verify", "--scenario", DEMO, "--out", str(tmp_path / "empty")]) == 2
    assert "cannot read artifact" in capsys.readouterr().err


def test_verify_protocol_error_exits_one(tmp_path, capsys):
    data = json.loads(read(DEMO))
    data["script"].append({"at": 90, "event": "genesis"})
    path = tmp_path / "double-genesis.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "AlreadyInitialized" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# malformed input: exit 1 or 2 with a one-line message, never a traceback
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["montecarlo", "--trials", "10", "--seed", "-1"],
        ["montecarlo", "--trials", "0"],
        ["montecarlo", "--trials", "many"],
        ["tables", "--corrupt-cell", "garbage"],
        ["tables", "--corrupt-cell", "blockchain:99:category2=0.5"],
        ["tables", "--corrupt-cell", "blockchain:4:nope=0.5"],
        ["tables", "--corrupt-cell", "garbage:4:category2=0.5"],
        ["tables", "--corrupt-cell", "blockchain:4:category2=half"],
        ["run", "--scenario", DEMO, "--seed", "18446744073709551616"],
        ["verify", "--scenario", DEMO, "--seed", "x"],
    ],
    ids=lambda argv: " ".join(argv[0:1] + argv[-2:]),
)
def test_malformed_flag_is_a_usage_error(argv, tmp_path, capsys):
    if argv[0] != "montecarlo":
        argv = argv + ["--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


def _demo_mutated(tmp_path, mutate):
    data = json.loads(read(DEMO))
    mutate(data)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "mutate,code,needle",
    [
        # scrypt parameters hashlib refuses: a protocol error (InvalidKdf).
        (lambda d: d["kdf"].update(cost=2**40), 1, "InvalidKdf"),
        (lambda d: d["kdf"].update(cost=2**16, block_size=1), 1, "InvalidKdf"),
        (lambda d: d["kdf"].update(block_size=2**20), 1, "InvalidKdf"),
        # Extrinsic overrides are checked when the network is built, and the
        # error names the node.
        (lambda d: d["nodes"][3].update(extrinsic={"process_power_class": 1.7}), 2,
         "error: nodes[3].extrinsic.process_power_class: "),
        (lambda d: d["nodes"][3].update(extrinsic={"process_power_class": "3"}), 2,
         "error: nodes[3].extrinsic.process_power_class: "),
        (lambda d: d["nodes"][3].update(extrinsic={"mac_address": "00"}), 2,
         "error: nodes[3].extrinsic.mac_address: "),
        (lambda d: d["nodes"][1].update(extrinsic={"ip_address": "0102"}), 2,
         "error: nodes[1].extrinsic.ip_address: "),
    ],
    ids=["cost-2^40", "cost-2^16-r1", "block_size-2^20", "power-class-float",
         "power-class-string", "mac-one-byte", "ip-two-bytes-on-edge"],
)
@pytest.mark.parametrize("command", ["run", "verify"])
def test_scenario_refused_at_build_exits_with_one_line(
    tmp_path, capsys, command, mutate, code, needle
):
    path = _demo_mutated(tmp_path, mutate)
    assert main([command, "--scenario", path, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert needle in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "content",
    [b'{"seed": "\xff"}', b"[" * 200_000],
    ids=["not-utf-8", "nested-too-deep"],
)
@pytest.mark.parametrize("command", ["run", "verify"])
def test_unreadable_scenario_is_a_config_error(tmp_path, capsys, command, content):
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    assert main([command, "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scenario: invalid JSON")
    assert err.count("\n") == 1


def test_unreadable_scenario_file_is_worded_alike_by_run_and_verify(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["run", "--scenario", missing, "--out", str(tmp_path)]) == 2
    run_err = capsys.readouterr().err
    assert main(["verify", "--scenario", missing, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == run_err
    assert run_err.startswith("error: cannot read scenario:")


def _field_slots(demo):
    """Every (container path, key) of the demo that a schema table governs."""
    slots = [((), key) for key in netsim.SCENARIO]
    slots += [(("kdf",), key) for key in netsim.KDF]
    for i in range(len(demo["nodes"])):
        slots += [(("nodes", i), key) for key in netsim.NODE]
    for i, ev in enumerate(demo["script"]):
        slots += [(("script", i), key) for key in netsim.EVENTS[ev["event"]]]
    return slots


_DEMO = json.loads(read(DEMO))
# Values of every JSON shape. Integers stay small or far beyond a C long,
# so that no valid-looking KDF parameter asks scrypt for much memory.
_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 64),
    st.sampled_from([2**63, 2**64 - 1, 2**64, 1.5, "", "latest", "all", "e1", "c1",
                     "telemetry", "narrated", "cps", "00" * 32, [], [None], ["e1"],
                     [45, 60], {}, {"?": 0}]),
    st.text(max_size=6),
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(slot=st.sampled_from(_field_slots(_DEMO)), value=_VALUES)
def test_any_single_field_mutation_exits_cleanly(capsys, slot, value):
    (parents, key) = slot
    data = json.loads(json.dumps(_DEMO))
    target = data
    for step in parents:
        target = target[step]
    target[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        out = os.path.join(tmp, "out")
        code = main(["run", "--scenario", path, "--out", out])
        assert code in (0, 1, 2)
        if code == 0:
            assert main(["verify", "--scenario", path, "--out", out]) == 0
    assert "Traceback" not in capsys.readouterr().err
