"""CLI tests: subcommands, exit codes, reproducible outputs."""

import argparse
import hashlib
import json
import os
import re
import tempfile
import threading
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flexichain import cli, netsim, scenario, secmodel, workers
from flexichain.cli import MAX_TRIALS, build_parser, main
from flexichain.errors import ConfigError, DomainError

from conftest import assert_no_child_left, record_forks, record_runs
from test_pins import MONTECARLO_STDOUT, full_mode_violation, reappended_layer0

DEMO = str(resources.files("flexichain") / "scenarios" / "demo.json")
README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_run_attack_with_no_full_node_online_records_its_outcome(tmp_path):
    # The only full node is down when the attack comes; the attack needs no
    # vault read, so it gets as far as the match layer and the run goes on.
    path = tmp_path / "no-full-node.json"
    path.write_text(json.dumps({
        "seed": 3,
        "kdf": {"cost": 16, "block_size": 1, "parallelism": 1},
        "modules": ["tm-1", "tm-2"],
        "nodes": [
            {"name": "bn", "role": "backup", "module": "tm-1"},
            {"name": "c1", "role": "cps", "module": "tm-2"},
        ],
        "script": [
            {"at": 10, "event": "join", "node": "c1"},
            {"at": 20, "event": "register_branch", "branch": "telemetry"},
            {"at": 30, "event": "disable", "node": "bn"},
            {"at": 40, "event": "attack", "category": 2, "targets": ["c1"],
             "secrets": ["constructed_keys"]},
        ],
    }))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    summary = json.loads(read(out / "summary.json"))
    assert summary["attacks"] == [{"category": 2, "succeeded": False,
                                   "blocked_at": "match layer",
                                   "detail": "no real UID for c1"}]
    assert main(["verify", "--scenario", str(path), "--out", str(out)]) == 0


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


def test_tables_corruption_hook_fails_naming_cell(tmp_path, capsys, monkeypatch):
    row = list(secmodel.BLOCKCHAIN_REFERENCE[44])
    row[1] = 0.5  # category2
    monkeypatch.setitem(secmodel.BLOCKCHAIN_REFERENCE, 44, tuple(row))
    assert main(["tables", "--out", str(tmp_path)]) == 1
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


def test_montecarlo_accepts_the_trials_cap():
    # Parsed only: 10^8 trials per cell would sample for minutes.
    args = build_parser().parse_args(["montecarlo", "--trials", str(MAX_TRIALS)])
    assert args.trials == MAX_TRIALS == 10**8


def grid_over(monkeypatch, cpus: int) -> list[int]:
    """Make `montecarlo` spread its grid over `cpus` processes; the returned
    list collects the pid of each child forked from here on."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    return record_forks(monkeypatch)


def montecarlo_pin(flags, capsys) -> tuple[str, int]:
    """(SHA-256 of the stdout, exit code) of `montecarlo` with `flags`."""
    code = main(["montecarlo", *flags])
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(), code


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_montecarlo_over_every_cpu_prints_the_pinned_stdout(monkeypatch, capsys, cpus):
    forked, placed = grid_over(monkeypatch, cpus), record_runs(monkeypatch, cli)
    for flags, pinned in MONTECARLO_STDOUT.items():
        assert montecarlo_pin(flags, capsys) == pinned, flags
    # The 24 cells in one run per CPU: on 2 CPUs, one table's 12 cells each,
    # 112 stage draws per trial.
    assert placed == [[24 // cpus] * cpus] * len(MONTECARLO_STDOUT)
    assert len(forked) == len(MONTECARLO_STDOUT) * (cpus - 1)
    assert_no_child_left()


def test_a_cell_that_raises_in_a_child_raises_here(monkeypatch):
    grid_over(monkeypatch, 2)
    parent, sample = os.getpid(), cli.monte_carlo_attack

    def refused_in_a_child(category, n, *args):
        if os.getpid() != parent:
            raise DomainError(f"category {category} n={n} refused in a child")
        return sample(category, n, *args)

    monkeypatch.setattr(cli, "monte_carlo_attack", refused_in_a_child)
    with pytest.raises(DomainError, match="refused in a child"):
        main(["montecarlo", "--trials", "100"])
    assert_no_child_left()


def test_montecarlo_beside_a_second_thread_forks_nothing(monkeypatch, capsys):
    grid_over(monkeypatch, 2)

    def no_fork():
        raise RuntimeError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        stdout = montecarlo_pin((), capsys)
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert stdout == MONTECARLO_STDOUT[()]


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
        ["montecarlo", "--trials", str(10**8 + 1)],
        ["montecarlo", "--trials", str(2**63)],
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
        # scrypt memory beyond 2^28 bytes is refused at parse time.
        (lambda d: d["kdf"].update(cost=2**40), 2, "error: kdf: "),
        (lambda d: d["kdf"].update(block_size=2**20), 2, "error: kdf: "),
        # scrypt parameters OpenSSL refuses are refused at parse time too:
        # cost >= 2^(16 * block_size), and B and V (640 MiB) beyond the
        # 288 MiB budget although scrypt's memory is 2^28.
        (lambda d: d["kdf"].update(cost=2**16, block_size=1), 2, "error: kdf: "),
        (lambda d: d["kdf"].update(cost=2, block_size=2**20), 2, "error: kdf: "),
        # Extrinsic overrides are checked at parse time too, and the error
        # names the node.
        (lambda d: d["nodes"][3].update(extrinsic={"process_power_class": 1.7}), 2,
         "error: nodes[3].extrinsic.process_power_class: "),
        (lambda d: d["nodes"][3].update(extrinsic={"process_power_class": "3"}), 2,
         "error: nodes[3].extrinsic.process_power_class: "),
        (lambda d: d["nodes"][3].update(extrinsic={"mac_address": "00"}), 2,
         "error: nodes[3].extrinsic.mac_address: "),
        (lambda d: d["nodes"][1].update(extrinsic={"ip_address": "0102"}), 2,
         "error: nodes[1].extrinsic.ip_address: "),
        # Only key brute force tries the vault remotely; the key that once
        # chose otherwise is gone, so a file that sets it is refused.
        (lambda d: d["script"][7].update(attempt_remote_vault=False), 2,
         "error: script[7].attempt_remote_vault: unknown key"),
    ],
    ids=["cost-2^40", "block_size-2^20", "cost-2^16-r1", "cost-2-block_size-2^20",
         "power-class-float",
         "power-class-string", "mac-one-byte", "ip-two-bytes-on-edge",
         "attempt-remote-vault"],
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
    "event,needle",
    [
        # A misspelt branch once sent a succeeding attack to tag "B", the
        # first data branch, and finalized the fraud block there.
        ({"event": "attack", "category": 3, "targets": ["bn", "e1", "s1", "c1"],
          "secrets": ["constructed_keys", "vault_access"], "branch": "telemtry"},
         "error: script[8].branch: must be a branch registered earlier in the script"),
        # A repeated branch once ended the run in DuplicateBranch (exit 1).
        ({"event": "register_branch", "branch": "telemetry"},
         "error: script[8].branch: duplicate 'telemetry'"),
        ({"event": "register_branch", "branch": "virtual-existence"},
         "error: script[8].branch: 'virtual-existence' is reserved"),
    ],
    ids=["attack-misspelt", "register-repeated", "register-reserved"],
)
def test_branch_names_are_checked_at_parse_time(tmp_path, capsys, event, needle):
    path = _demo_mutated(tmp_path, lambda d: d["script"].append(dict(event, at=90)))
    out = tmp_path / "o"
    assert main(["run", "--scenario", path, "--out", str(out)]) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "at,code",
    [(2**64 - 2, 0), (2**64 - 1, 2)],
    ids=["2^64-2", "2^64-1"],
)
def test_attack_at_leaves_room_for_the_fraud_block_seal(tmp_path, capsys, at, code):
    # The fraud block is sealed at `at` + 1, which must still fit in a u64;
    # at 2^64-1 the run once ended in struct.error.
    path = _demo_mutated(tmp_path, lambda d: d["script"][7].update(at=at))
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    if code:
        assert err == ("error: script[7].at: must be an integer in "
                       f"[0, {2**64 - 2}], not {2**64 - 1}\n")
    else:
        assert err == ""


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
    slots = [((), key) for key in scenario.SCENARIO]
    slots += [(("kdf",), key) for key in scenario.KDF]
    for i in range(len(demo["nodes"])):
        slots += [(("nodes", i), key) for key in scenario.NODE]
    for i, ev in enumerate(demo["script"]):
        slots += [(("script", i), key) for key in scenario.EVENTS[ev["event"]]]
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
# The names the demo declares, by kind.
_DECLARED = [[node["name"] for node in _DEMO["nodes"]], _DEMO["modules"],
             [ev["branch"] for ev in _DEMO["script"] if ev["event"] == "register_branch"]]


def _valid_near(value):
    """Values of `value`'s own type, which the schema often accepts: an
    integer near it, another declared name of its kind, or the list with
    one item dropped. None if `value` has none."""
    if type(value) is int:
        return st.integers(max(value - 3, 0), value + 3)
    for names in _DECLARED:
        if value in names and len(names) > 1:
            return st.sampled_from([name for name in names if name != value])
    if isinstance(value, list) and value:
        return st.integers(0, len(value) - 1).map(lambda i: value[:i] + value[i + 1:])
    return None


def _slot_value(slot):
    """A slot and its new value. Most `_VALUES` draws exit 2, and only a
    draw that exits 0 reaches the verify and re-append checks, so half the
    draws of a slot with a valid near value take one. (Inside `one_of`,
    each of `_VALUES`'s branches would weigh as much as the near draws.)"""
    parents, key = slot
    original = _DEMO
    for step in parents:
        original = original[step]
    near = _valid_near(original[key]) if key in original else None
    if near is None:
        return st.tuples(st.just(slot), _VALUES)
    return st.tuples(st.just(slot), st.booleans().flatmap(lambda v: near if v else _VALUES))


_SLOT_VALUES = st.sampled_from(_field_slots(_DEMO)).flatmap(_slot_value)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(slot_value=_SLOT_VALUES)
def test_any_single_field_mutation_exits_cleanly(capsys, slot_value):
    ((parents, key), value) = slot_value
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
        try:
            scenario.ScenarioConfig.from_file(path)
        except ConfigError:
            assert code == 2
        else:
            assert code != 2  # a parsed file builds and runs
        if code == 0:
            # verify replays the run, compares the artifacts byte for byte
            # and checks that the vault was never read remotely. The re-run
            # chain must also pass full-mode verification, and each
            # finalized block must re-append from its bytes on the roster it
            # finalized on.
            assert main(["verify", "--scenario", path, "--out", out]) == 0
            net = netsim.run_scenario(scenario.ScenarioConfig.from_file(path)).network
            assert full_mode_violation(net) is None
            assert reappended_layer0(net).export_text() == net.layer0.export_text()
    assert "Traceback" not in capsys.readouterr().err


# Flag values of every kind argparse meets. A valid --trials stays at most
# 64 so that no draw samples for long, and no text draw holds a digit.
_FLAG_VALUES = st.one_of(
    st.integers(-2, 64).map(str),
    st.sampled_from([str(2**63), str(2**64 - 1), str(2**64), str(MAX_TRIALS + 1), "1.5",
                     "0x10", "", "-", "-h", "--out", "many"]),
    st.text(alphabet=" +-._ex", max_size=4),
)
# --out stays inside the example's temporary directory, which holds the
# demo's artifacts in `out` and a plain file named `file`.
_OUT_PARTS = st.lists(st.sampled_from(["out", "file", "new", "."]), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_flag_of_any_subcommand_exits_cleanly(capsys, data):
    options = _parser_options()
    command = data.draw(st.sampled_from(sorted(options)))
    flag = data.draw(st.sampled_from(sorted(options[command] - {"--scenario"})))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        assert main(["run", "--scenario", DEMO, "--out", out]) == 0
        Path(tmp, "file").write_text("")
        defaults = {"--scenario": DEMO, "--out": out, "--trials": "64"}
        argv = [command]
        for option in sorted(options[command] & set(defaults)):
            argv += [option, defaults[option]]
        if flag == "--out":
            value = os.path.join(tmp, *data.draw(_OUT_PARTS))
        else:
            value = data.draw(_FLAG_VALUES)
        assert main([*argv, flag, value]) in (0, 1, 2)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err


# ---------------------------------------------------------------------------
# documentation
# ---------------------------------------------------------------------------

def _synopsis_options() -> dict[str, set[str]]:
    """The options README's CLI synopsis names, by subcommand."""
    section = README.read_text().split("## CLI", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split() for line in block.splitlines() if line.startswith("flexichain ")]
    return {
        words[1]: {w.strip("[]") for w in words if w.strip("[").startswith("-")}
        for words in lines
    }


def _parser_options() -> dict[str, set[str]]:
    """The options `build_parser()` accepts, by subcommand, hidden ones included."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
        for name, parser in sub.choices.items()
    }


def test_readme_synopsis_names_every_option():
    assert _synopsis_options() == _parser_options()


def _backticked(cell: str) -> set[str]:
    return set(re.findall(r"`([^`]+)`", cell))


def _readme_schema_keys() -> dict[str, set[str]]:
    """The keys README's "Scenario files" tables name: by table for the
    top level, `kdf`, a node and `extrinsic`, and by event kind besides
    `at` and `event`, which every event has."""
    section = README.read_text().split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    tables, rows = [], None
    for line in section.splitlines():
        if not line.startswith("|"):
            rows = None
            continue
        if rows is None:
            rows = []
            tables.append(rows)
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    # Each table's rows past its header and rule.
    *objects, events = [rows[2:] for rows in tables]
    keys = {
        label: {key for row in rows for key in _backticked(row[0])}
        for label, rows in zip(("SCENARIO", "KDF", "NODE", "EXTRINSIC"), objects, strict=True)
    }
    kinds: set[str] = set()
    for row in events:
        kinds = _backticked(row[0]) or kinds  # a blank first cell continues the kinds above
        for kind in kinds:
            keys.setdefault(kind, set()).update(_backticked(row[1]) - {"at", "event"})
    return keys


def test_readme_schema_tables_name_every_key():
    expected = {"SCENARIO": set(scenario.SCENARIO), "KDF": set(scenario.KDF),
                "NODE": set(scenario.NODE), "EXTRINSIC": set(scenario.EXTRINSIC)}
    expected |= {kind: set(table) - {"at", "event"} for kind, table in scenario.EVENTS.items()}
    assert _readme_schema_keys() == expected
