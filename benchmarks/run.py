"""flexichain benchmark: three seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload attest-256 --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 35

The package is imported from `src/` of the current directory; nothing is
installed. Each workload is one closed-loop client: script events
run one after another, each only after the previous one completed, with no
message delay injected, so every latency is processor time spent by the
protocol code. `--trace 0` reports the end-to-end metrics; `--trace 1`
repeats the untraced measurement, then runs once more with every layer
boundary wrapped (see tracer.py) and reports per-layer metrics.

Every run checks its outputs (see `check_rep` and `check_demo`). A failed
check makes the run print `"correct": false`, drop its timings and exit 1.
The last line of standard output is the JSON result; the lines before it
give every metric with its unit, and the two tail latencies (printed, not
in BENCHMARK.json) with their percentile and sample count.

README.md in this directory gives the reason for each workload and which
end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

perf = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "flexichain-bench")
DEMO = os.path.join("src", "flexichain", "scenarios", "demo.json")

WORKLOADS = ("enroll-384", "attest-256", "ingest-kdf")

# Demo artifact SHA-256, the behaviour pin for `flexichain run` on the
# bundled demo (its own seed, 42). Every run checks them once.
DEMO_ARTIFACTS = {
    "trace.txt": "477217c004237251fd611da9d13b8e490609b0accc8a18640bc716bb21ed664f",
    "nodechain.bin": "ded7bf37b36ab185a026c565f9678c836ab3b19c6f14e459cefbaaa6ccd83b90",
    "layer0.txt": "b5839c6b12553ba9cd3b87398e04879f674a73ee3fffd8d8a6682720d2cd6559",
    "vault.bin": "6c6c0ff680d52297e34613114e25d605f3dd11be64fcbd5c25a274447a145512",
}

# Repetitions every run makes at least, however short `--seconds` is; see
# `tail`. A repetition and the samples taken after it last about two
# seconds.
MIN_REPS = 8
VERIFY_REPEAT_S = 0.03
TRACE_PAIRS = 3
SCALE_NS = (64, 256, 1024)


def fail_setup(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import flexichain from ./src; refuse any other copy."""
    if not os.path.isfile(os.path.join(SRC, "flexichain", "__init__.py")):
        fail_setup("src/flexichain not found; run from the repository root")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    # The whole package, cli included, is loaded before the tracer patches
    # any binding.
    import flexichain
    import flexichain.cli  # noqa: F401
    if not os.path.abspath(flexichain.__file__).startswith(SRC + os.sep):
        fail_setup(f"flexichain imported from {flexichain.__file__}, not ./src")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def upper_quartile(samples) -> float:
    """The statistic of every repeated time; see `measure`."""
    return percentile(list(samples), 75)


class Collector:
    """Outcome bookkeeping: attempted operations, failures, messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok


# ---------------------------------------------------------------------------
# One simulator repetition
# ---------------------------------------------------------------------------

ROUND_EVENTS = ("transactions", "build_block", "authenticate")


class Rep:
    """Timings and outcomes of one scenario execution.

    The scenario is deterministic, so every repetition runs the same events
    with the same outcomes; only the per-event times `dt` differ.
    """

    def __init__(self):
        self.setup_s = 0.0
        self.kinds: list[str] = []
        self.dt: list[float] = []
        self.attests: list[int] = []
        self.blocks: list[tuple[int, int, int]] = []  # build event, final event, txs
        self.rejected = 0
        self.verify_s = 0.0
        self.violation = None
        self.digest = ""
        self.net = None
        self.covered_s = 0.0

    @property
    def run_s(self) -> float:
        return sum(self.dt)


def run_rep(scenario: dict, tracer=None) -> Rep:
    """Build the network and drive its script as one closed-loop client.

    With a tracer installed, `covered_s` is the part of the script's time
    that the tracer's top-level spans account for.
    """
    from flexichain import netsim, nodechain

    rep = Rep()
    start = perf()
    config = netsim.ScenarioConfig.from_dict(scenario)
    net = netsim.Network(config)
    rep.setup_s = perf() - start

    m = net.metrics
    open_blocks: dict[bytes, tuple[int, int]] = {}
    covered_before = tracer.top_level_s() if tracer else 0.0
    for i, ev in enumerate(config.script):
        kind = ev["event"]
        rejections, auths, built = m["rejections"], m["authentications"], m["blocks_built"]
        t0 = perf()
        net.clock = ev["at"]
        getattr(net, f"_handle_{kind}")(ev)
        rep.dt.append(perf() - t0)
        rep.kinds.append(kind)
        rep.attests.append(m["authentications"] - auths)
        rep.rejected += m["rejections"] - rejections
        if kind == "build_block" and m["blocks_built"] > built:
            block = net.pending_blocks[net.latest_pending]
            open_blocks[net.latest_pending] = (i, len(block.transactions))
        elif kind == "authenticate":
            for digest in [d for d in open_blocks if d not in net.pending_blocks]:
                built_at, txs = open_blocks.pop(digest)
                rep.blocks.append((built_at, i, txs))
    if tracer:
        rep.covered_s = tracer.top_level_s() - covered_before

    # Full-mode verification against a live responder's vault: the backup's
    # copy stops receiving entries once the backup is disabled (enroll-384).
    # It is read-only, so a quick one is repeated for a steady median; a
    # traced run verifies once, so that its call counts do not depend on
    # speed.
    verify_times: list[float] = []
    repeats = 1 if tracer else 10
    while not verify_times or (sum(verify_times) < VERIFY_REPEAT_S
                               and len(verify_times) < repeats):
        t0 = perf()
        rep.violation = nodechain.verify_chain(
            net.nodechain, kdf=config.kdf, vault=net.responder().vault,
            token_salt=config.token_salt,
        )
        verify_times.append(perf() - t0)
    rep.verify_s = statistics.median(verify_times)
    rep.digest = net.trace_digest().hex()
    rep.net = net
    return rep


def event_stats(rep: Rep, dt: list[float]) -> dict:
    """Script metrics of `rep`'s events timed by `dt`."""
    kinds = rep.kinds
    join_ms = [d * 1e3 for d, k in zip(dt, kinds) if k == "join"]
    attest_s = sum(d for d, k in zip(dt, kinds) if k == "authenticate")
    rounds_s = sum(d for d, k in zip(dt, kinds) if k in ROUND_EVENTS)
    return {
        "run_s": sum(dt),
        "join_ms": join_ms,
        "join_per_s": len(join_ms) / (sum(join_ms) / 1e3),
        "attest_per_s": sum(rep.attests) / attest_s,
        "tx_per_s": sum(txs for _, _, txs in rep.blocks) / rounds_s,
        # From the start of build_block to the end of the finalizing event.
        "finality_ms": [sum(dt[b:f + 1]) * 1e3 for b, f, _ in rep.blocks],
    }


def check_rep(rep: Rep, pinned: str | None, out: Collector, label: str) -> bool:
    """Count the repetition's events and rejections; apply the gate."""
    net = rep.net
    out.attempted += len(rep.dt)
    out.failed += rep.rejected
    ok = rep.rejected == 0
    if not ok:
        out.errors.append(f"{label}: {rep.rejected} rejected events")
    ok &= out.check(rep.violation is None, f"{label}: verify_chain -> {rep.violation}")
    audit = net.vault_audit()
    ok &= out.check(audit["remote_reads"] == 0, f"{label}: remote vault reads {audit}")
    m = net.metrics
    ok &= out.check(m["blocks_finalized"] == m["blocks_built"],
                    f"{label}: finalized {m['blocks_finalized']} of {m['blocks_built']}")
    ok &= out.check(pinned is None or rep.digest == pinned,
                    f"{label}: trace digest {rep.digest} != pinned {pinned}")
    return ok


# ---------------------------------------------------------------------------
# CLI paths
# ---------------------------------------------------------------------------

def timed_subprocess(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run the interpreter with ./src on its path; wall time and result."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    t0 = perf()
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    return perf() - t0, proc


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cli_process(args: list[str], out: Collector) -> float | None:
    """`flexichain <args>` as its own process: wall time, or None if it failed."""
    elapsed, proc = timed_subprocess(["-m", "flexichain.cli", *args])
    out.attempted += 1
    ok = out.check(proc.returncode == 0,
                   f"flexichain {args[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed if ok else None


def check_demo(out: Collector) -> None:
    """`flexichain run` on the bundled demo must reproduce the pinned artifacts."""
    out_dir = os.path.join(WORK, "demo")
    if cli_process(["run", "--scenario", DEMO, "--out", out_dir], out) is not None:
        for artifact, digest in DEMO_ARTIFACTS.items():
            out.check(file_sha256(os.path.join(out_dir, artifact)) == digest,
                      f"demo artifact {artifact} digest changed")


def import_probe(breakdown: bool = False) -> tuple[float, dict[str, float]]:
    """Process start to `import flexichain.cli` done, in a fresh interpreter.

    With `breakdown`, also parse `-X importtime` for the cumulative import
    time of flexichain.cli and numpy.
    """
    args = ["-c", "import flexichain.cli"]
    if breakdown:
        args = ["-X", "importtime"] + args
    elapsed, proc = timed_subprocess(args)
    if proc.returncode != 0:
        raise RuntimeError(f"import flexichain.cli failed: {proc.stderr.strip()}")
    parts = {}
    for line in proc.stderr.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if len(fields) == 3 and fields[2] in ("flexichain.cli", "numpy"):
            parts[fields[2]] = int(fields[1]) / 1e6
    return elapsed, parts


def in_process_cli(argv: list[str]) -> tuple[float, int]:
    from flexichain import cli
    sink = io.StringIO()
    t0 = perf()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    return perf() - t0, code


def analysis_paths(out: Collector, times: dict[str, list[float]], names: list[str]) -> None:
    """The `tables` and `montecarlo` paths listed in `names`, in this process."""
    argvs = {"tables": ["tables", "--out", os.path.join(WORK, "tables")],
             "montecarlo": ["montecarlo"]}
    for name in names:
        elapsed, code = in_process_cli(argvs[name])
        out.attempted += 1
        if out.check(code == 0, f"{name} exited {code}"):
            times[name].append(elapsed)


# ---------------------------------------------------------------------------
# Workload runs
# ---------------------------------------------------------------------------

def load_pins() -> dict:
    with open(os.path.join(HERE, "pins.json")) as fh:
        return json.load(fh)


def scenario_for(workload: str, seed: int) -> dict:
    import scenarios
    return scenarios.generate(seed=seed, **scenarios.SHAPES[workload])


def tail(reps: list[Rep], key: str, guaranteed: int):
    """(percentile, value, samples) of a tail metric: the highest sample with
    ten samples beyond it.

    The samples are the events of the first `guaranteed` repetitions, the
    number every run makes, so that their count, and with it the
    percentile, depend only on the workload.
    """
    samples = sorted(x for r in reps[:guaranteed] for x in event_stats(r, r.dt)[key])
    if len(samples) <= 10:
        raise ValueError(f"{key}: {len(samples)} samples cannot give a tail")
    return 100 * (len(samples) - 10) / len(samples), samples[-11], len(samples)


def measure(workload: str, seed: int, seconds: float, out: Collector) -> dict:
    """The untraced loop: repetitions until both the minimum count and the
    time are reached. Returns end-to-end metrics and the repetitions.

    The same script event does the same work in every repetition, so each
    event's time is taken as its upper quartile over the repetitions, and
    the p50 values and rates are computed from these; every other repeated
    time (verify, import probe, tables, montecarlo, set-up) is likewise an
    upper quartile. On a shared machine the processor alternates between a
    fast and a slow phase, each lasting seconds to minutes, and on the
    machine measured it was slow most of the time. The upper quartile stays
    in the slow phase unless the fast one lasts three quarters of a run, so
    it moves less from run to run than the median or the minimum (README.md,
    "Load model and statistics").
    """
    scenario = scenario_for(workload, seed)
    pinned = load_pins().get(workload, {}).get(str(seed))
    reps: list[Rep] = []
    times: dict[str, list[float]] = {k: [] for k in ("import", "tables", "montecarlo")}
    check_demo(out)

    started = perf()
    attempts = 0
    while attempts < MIN_REPS or perf() - started < seconds:
        rep = run_rep(scenario)
        if check_rep(rep, pinned, out, f"{workload} seed {seed}"):
            rep.net = None
            reps.append(rep)
        # After every repetition: the import probe, `tables` as a process
        # and `montecarlo` in this process, so that their samples span the
        # run too.
        times["import"].append(import_probe()[0])
        tables_s = cli_process(["tables", "--out", os.path.join(WORK, "tables")], out)
        if tables_s is not None:
            times["tables"].append(tables_s)
        analysis_paths(out, times, ["montecarlo"])
        attempts += 1
    digests = {r.digest for r in reps}
    out.check(len(digests) <= 1, f"repetitions disagree on the trace digest: {digests}")
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if out.failed or not reps:
        return {"reps": reps, "metrics": {}, "notes": [], "digest": None}

    upper = upper_quartile
    typical = event_stats(reps[0], [upper(col) for col in zip(*(r.dt for r in reps))])
    join_p, join_tail, join_n = tail(reps, "join_ms", MIN_REPS)
    fin_p, fin_tail, fin_n = tail(reps, "finality_ms", MIN_REPS)
    metrics = {
        "setup_s": upper(times["import"]) + upper(r.setup_s for r in reps),
        "run_s": typical["run_s"],
        "join_per_s": typical["join_per_s"],
        "join_ms_p50": percentile(typical["join_ms"], 50),
        "attest_per_s": typical["attest_per_s"],
        "tx_per_s": typical["tx_per_s"],
        "finality_ms_p50": percentile(typical["finality_ms"], 50),
        "verify_s": upper(r.verify_s for r in reps),
        "tables_s": upper(times["tables"]),
        "montecarlo_s": upper(times["montecarlo"]),
        "peak_rss_mb": maxrss_kb / 1024,
    }
    notes = [
        # Printed, not gated: see README.md, "End-to-end metrics".
        f"join_ms_tail {join_tail:.6f} ms (p{join_p:.1f} of {join_n} join samples)",
        f"finality_ms_tail {fin_tail:.6f} ms (p{fin_p:.1f} of {fin_n} block samples)",
        f"{len(reps)} scenario repetitions, {len(times['import'])} import probes, "
        f"{len(times['tables'])} tables and {len(times['montecarlo'])} montecarlo calls",
    ]
    return {"reps": reps, "metrics": metrics, "notes": notes, "digest": reps[0].digest}


def floors(scenario: dict) -> dict[str, float]:
    """Processor-time floors, as medians: one scrypt at the workload's KDF,
    and one Ed25519 sign plus verify over an attestation-sized message."""
    from flexichain import consensus, identity, keys, netsim

    kdf = netsim.ScenarioConfig.from_dict(scenario).kdf
    scrypt: list[float] = []
    while len(scrypt) < 5 or (sum(scrypt) < 0.5 and len(scrypt) < 200):
        t0 = perf()
        identity.scrypt_kdf(b"\x01" * 32, kdf.salt, kdf.cost, kdf.block_size,
                            kdf.parallelism, kdf.output_length)
        scrypt.append(perf() - t0)
    key = keys.signing_key_from_seed(b"\x02" * 32)
    public = keys.public_bytes(key)
    message = consensus.AuthenticationMessage.signing_bytes(
        b"\x03" * 32, identity.TokenizedUid(b"\x04" * 32), 7)
    pairs = []
    for _ in range(2000):
        t0 = perf()
        sig = keys.sign_message(key, message)
        if not keys.verify_signature(public, sig, message):
            raise RuntimeError("Ed25519 floor signature does not verify")
        pairs.append(perf() - t0)
    return {"floor.scrypt_ms": statistics.median(scrypt) * 1e3,
            "floor.ed25519_us": statistics.median(pairs) * 1e6}


def scaling(seed: int) -> dict[str, float]:
    """Attestation and enrollment cost at several n, few rounds each."""
    import scenarios
    result = {}
    for n in SCALE_NS:
        rep = run_rep(scenarios.generate(seed=seed, **scenarios.scale_shape("attest", n)))
        result[f"scale.attest_us.n{n}"] = 1e6 / event_stats(rep, rep.dt)["attest_per_s"]
        rep = run_rep(scenarios.generate(seed=seed, **scenarios.scale_shape("enroll", n)))
        result[f"scale.join_ms.n{n}"] = 1e3 / event_stats(rep, rep.dt)["join_per_s"]
    return result


def unattributed(rep: Rep, tracer) -> tuple[float, float]:
    """(glue, unattributed) script time of a traced repetition.

    The event handlers are spans too, so that their own work (building and
    encoding transactions, trace records, roster lists) is measured: that
    is the glue. Unattributed time is the script time outside every layer
    span: the glue plus the loop's bookkeeping outside the handlers.
    """
    glue = sum(v for k, v in tracer.self_s.items() if k.startswith("netsim.handle."))
    return glue, rep.run_s - rep.covered_s + glue


def traced(workload: str, seed: int, base: dict, out: Collector) -> dict[str, float]:
    """Repetitions with every layer wrapped, plus the floors, import
    breakdown and scaling sweep."""
    from tracer import Tracer, install_layers

    scenario = scenario_for(workload, seed)
    floor_runs = [floors(scenario)]
    _, parts = import_probe(breakdown=True)
    metrics = {}
    metrics["cli.import_s"] = parts["flexichain.cli"]
    metrics["cli.import_numpy_s"] = parts["numpy"]

    # Untraced and traced repetitions alternate, so that the overhead
    # compares runs made under the same load. Each traced repetition has a
    # fresh tracer; the layer metrics come from the last one.
    plain_s, traced_s = [], []
    for _ in range(TRACE_PAIRS):
        plain_s.append(run_rep(scenario).run_s)
        tracer = Tracer()
        install_layers(tracer)
        try:
            rep = run_rep(scenario, tracer)
            analysis_paths(out, {"tables": [], "montecarlo": []}, ["tables", "montecarlo"])
        finally:
            tracer.uninstall()
        traced_s.append(rep.run_s)
        check_rep(rep, None, out, f"traced {workload}")
        out.check(rep.digest == base["digest"],
                  f"traced trace digest {rep.digest} != untraced {base['digest']}")
    floor_runs.append(floors(scenario))

    spans = ("identity.derive_uid", "identity.scrypt_kdf", "keys.sign_message",
             "keys.verify_signature", "nodechain.append_virtual_block",
             "nodechain.verify_chain", "vault.append", "vault.lookup",
             "consensus.enroll_respond", "consensus.authenticate_block",
             "consensus.check_finality", "dag.build_candidate_block",
             "dag.merkle_root", "dag.Layer0Ledger.append_block",
             "dag.Layer0Ledger.select_parents", "dag.DataBlock.with_narration_entry",
             "netsim.enroll", "netsim.authenticate", "netsim.node_for_tuid",
             "netsim.responder", "secmodel.monte_carlo_attack", "secmodel.emit_tables")
    for name in spans:
        metrics[f"{name}.calls"] = tracer.calls[name]
        metrics[f"{name}.self_s"] = tracer.self_s[name]
    for name in ("identity.tokenize_uid", "identity.match_layer", "nodechain.blocks",
                 "nodechain.ves", "wire.sha256", "wire.encode_fields", "netsim.roster"):
        metrics[f"{name}.calls"] = tracer.calls[name]
    metrics["nodechain.blocks.items"] = tracer.items["nodechain.blocks"]
    metrics["wire.sha256.bytes"] = tracer.items["wire.sha256"]
    metrics["vault.append.items_scanned"] = tracer.items["vault.append"]
    metrics["consensus.check_finality.roster_items"] = tracer.items["consensus.check_finality"]
    metrics["dag.build_candidate_block.pool_items"] = tracer.items["dag.build_candidate_block"]
    glue, rest = unattributed(rep, tracer)
    metrics["netsim.handle_self_s"] = glue
    metrics["netsim.unattributed_s"] = rest
    out.check(rest < 0.1 * rep.run_s, f"netsim.unattributed_s {rest:.4f} s is "
              f"not under 10% of the traced run_s {rep.run_s:.4f} s")
    metrics["trace.run_s"] = statistics.median(traced_s)
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)

    metrics.update(scaling(seed))
    # Floors are measured at three points of the run, like every other
    # time here, so that one slow phase does not set them.
    floor_runs.append(floors(scenario))
    for name in floor_runs[0]:
        metrics[name] = statistics.median(f[name] for f in floor_runs)
    e2e = base["metrics"]
    metrics["join_over_floor"] = e2e["join_ms_p50"] / metrics["floor.scrypt_ms"]
    metrics["attest_over_floor"] = (1e6 / e2e["attest_per_s"]) / metrics["floor.ed25519_us"]
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists in `section`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    out = Collector()
    os.makedirs(WORK, exist_ok=True)
    try:
        base = measure(workload, seed, seconds, out)
        layers = traced(workload, seed, base, out) if trace and not out.failed else {}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    e2e_units, layer_units = metric_units("end_to_end"), metric_units("per_layer")
    reported, units = (layers, layer_units) if trace else (base["metrics"], e2e_units)
    if not out.failed:
        out.check(set(reported) == set(units), "metrics produced differ from "
                  f"BENCHMARK.json: {sorted(set(reported) ^ set(units))}")

    print(f"workload {workload} seed {seed} trace {int(trace)}")
    for note in base["notes"]:
        print(f"  {note}")
    for section, metrics in ((e2e_units, base["metrics"]), (layer_units, layers)):
        for name, value in metrics.items():
            print(f"  {name:44s} {value:>16.6f} {section.get(name, '?')}")
    # An error rate reads 0 on every correct run, so it is printed, not
    # reported as a metric; `correct` and the exit code carry it.
    print(f"  error_rate {out.failed / max(out.attempted, 1):.6f} ratio "
          f"({out.failed} failed of {out.attempted} attempted)")
    for error in out.errors:
        print(f"  CHECK FAILED: {error}")
    correct = out.failed == 0
    result = {
        "correct": correct,
        "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()}
        if correct else {},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    combined, attempted, failed, correct = {}, 0, 0, True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.stderr.strip():
                print(proc.stderr.strip())
            result = json.loads(lines[-1]) if lines else {"correct": False}
            correct &= proc.returncode == 0 and result.get("correct", False)
            attempted += result.get("attempted", 0)
            failed += result.get("failed", 1)
            for name, value in result.get("metrics", {}).items():
                combined[f"{workload}.{name}"] = value
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": combined}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail_setup("BENCHMARK.json not found; run from the repository root")
    import_package()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
