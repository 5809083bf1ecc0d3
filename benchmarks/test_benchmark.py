"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]

from flexichain import identity, netsim  # noqa: E402

import run  # noqa: E402
import scenarios  # noqa: E402
from tracer import Tracer, install_layers  # noqa: E402

# Each workload's shape at a size that runs in well under a second.
TINY = {
    "enroll-384": dict(scenarios.SHAPES["enroll-384"], n=40, edges=4,
                        round_every=4, attestors=5, disable_backup_after=20),
    "attest-256": dict(scenarios.SHAPES["attest-256"], n=16, edges=2, rounds=2),
    "ingest-kdf": dict(scenarios.SHAPES["ingest-kdf"], n=12, rounds=3,
                       tx_per_block=4, kdf_cost=16),
}


@pytest.fixture(autouse=True)
def repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def tiny(workload: str, seed: int) -> dict:
    return scenarios.generate(seed=seed, **TINY[workload])


def digest(scenario: dict) -> str:
    config = netsim.ScenarioConfig.from_dict(scenario)
    return netsim.run_scenario(config).trace_digest.hex()


@pytest.mark.parametrize("workload", sorted(scenarios.SHAPES))
def test_generator_is_deterministic_per_seed(workload):
    shape = scenarios.SHAPES[workload]
    assert scenarios.generate(seed=7, **shape) == scenarios.generate(seed=7, **shape)
    assert digest(tiny(workload, 7)) == digest(tiny(workload, 7))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_different_seeds_give_different_digests(workload):
    assert digest(tiny(workload, 1)) != digest(tiny(workload, 2))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_instances_pass_the_gate(workload):
    rep = run.run_rep(tiny(workload, 3))
    out = run.Collector()
    assert run.check_rep(rep, digest(tiny(workload, 3)), out, workload), out.errors
    assert rep.rejected == 0
    assert rep.blocks, "every workload finalizes blocks"


@pytest.mark.parametrize("workload", sorted(scenarios.SHAPES))
def test_window_closes_increase_strictly(workload):
    script = scenarios.generate(seed=1, **scenarios.SHAPES[workload])["script"]
    closes = [ev["window"][1] for ev in script if ev["event"] == "build_block"]
    assert closes and all(a < b for a, b in zip(closes, closes[1:]))


def test_gate_rejects_a_wrong_pin():
    rep = run.run_rep(tiny("attest-256", 4))
    out = run.Collector()
    assert not run.check_rep(rep, "00" * 32, out, "attest-256")
    assert out.failed == 1 and "pinned" in out.errors[0]
    assert out.attempted == len(rep.dt)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_digest_equals_untraced(workload):
    scenario = tiny(workload, 6)
    original = identity.derive_uid
    tracer = Tracer()
    install_layers(tracer)
    try:
        rep = run.run_rep(scenario, tracer)
    finally:
        tracer.uninstall()
    assert identity.derive_uid is original
    assert rep.digest == digest(scenario)
    assert tracer.calls["netsim.enroll"] > 0
    assert tracer.calls["identity.derive_uid"] >= tracer.calls["netsim.enroll"]
    # Every script event runs inside a handler span, and the handlers' own
    # work is part of the unattributed time.
    assert rep.run_s - rep.covered_s < 0.1 * rep.run_s
    glue, rest = run.unattributed(rep, tracer)
    assert 0 < glue <= rest < rep.run_s


def test_tracer_reaches_from_import_bindings():
    from flexichain import consensus, keys

    original = keys.sign_message
    tracer = Tracer()
    install_layers(tracer)
    try:
        assert netsim.check_finality is consensus.check_finality
        assert netsim.sign_message is keys.sign_message is consensus.sign_message
        assert netsim.sign_message is not original
    finally:
        tracer.uninstall()
    assert netsim.sign_message is original


def test_pin_matches_run_scenario():
    with open(os.path.join(ROOT, "benchmarks", "pins.json")) as fh:
        pins = json.load(fh)
    assert sorted(pins) == sorted(run.WORKLOADS)
    assert digest(run.scenario_for("attest-256", 0)) == pins["attest-256"]["0"]


def test_tail_keeps_ten_samples_beyond():
    reps = [run.run_rep(tiny("attest-256", 8)) for _ in range(4)]
    p, value, count = run.tail(reps, "join_ms", guaranteed=3)
    joins = sorted(x for r in reps[:3] for x in run.event_stats(r, r.dt)["join_ms"])
    assert count == len(joins) == 45
    assert value == joins[-11] and sum(x > value for x in joins) == 10
    assert p == pytest.approx(100 * 35 / 45)
