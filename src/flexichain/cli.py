"""Command-line front end.

Subcommands:

    run         execute a scenario; write trace, ledgers, vault, summary
    tables      emit the three reference CSVs and check them cell by cell
    montecarlo  validate the analytic attack model by direct sampling
    verify      re-run a scenario and check the persisted artifacts match

Exit codes: 0 success, 1 assertion/tolerance/protocol failure, 2 usage,
configuration or IO error; a malformed flag is a usage error. The default
output directory is $FLEXICHAIN_OUT, else ./out.
All outputs derive from the scenario's virtual clock and seed; repeated
invocations with the same inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import chain

from . import secmodel
from .errors import ConfigError, ProtocolError
from .netsim import monte_carlo_attack, run_scenario
from .scenario import U64_MAX, ScenarioConfig
from .workers import fork_map

OUT_ENV = "FLEXICHAIN_OUT"
# The sampler's memory does not grow with --trials, so a huge value would
# run for hours instead of failing: 10^8 trials make the grid's ~2.5e10
# draws, about 1 minute on one CPU by estimate (2.7-2.9 ns a draw, measured
# on the grid at 10^6 trials on a 2-vCPU machine), and that divided by about
# the number of usable CPUs, over which the grid's cells are spread.
MAX_TRIALS = 10**8


def _default_out() -> str:
    return os.environ.get(OUT_ENV, "out")


def _replayed_artifacts(result) -> dict[str, bytes]:
    """The artifacts `verify` compares byte for byte, by file name."""
    network = result.network
    return {
        "trace.txt": ("\n".join(result.trace) + "\n").encode(),
        "nodechain.bin": network.nodechain.serialize(),
        "layer0.txt": network.layer0.export_text().encode(),
        "vault.bin": network.vault.serialize(),
    }


def _write_artifacts(result, out_dir: str) -> tuple[dict, int]:
    """Write every artifact; return the summary and the number of files."""
    os.makedirs(out_dir, exist_ok=True)
    summary = result.network.summary()
    files = _replayed_artifacts(result)
    files["summary.json"] = (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode()
    for name, data in files.items():
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(data)
    return summary, len(files)


def _simulate(args):
    """Load and run `--scenario`: (result, 0), or (None, exit code) after a
    message."""
    try:
        return run_scenario(ScenarioConfig.from_file(args.scenario, args.seed)), 0
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return None, 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 2
    except ProtocolError as exc:
        print(f"protocol error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None, 1


def cmd_run(args) -> int:
    result, code = _simulate(args)
    if result is None:
        return code
    try:
        summary, written = _write_artifacts(result, args.out)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    print(f"scenario: {args.scenario}")
    print(f"enrollments: {summary['enrollments']}")
    print(f"nodechain length: {summary['nodechain_length']}")
    print(f"blocks finalized: {summary['blocks_finalized']}")
    print(f"trace digest: {summary['trace_digest']}")
    print(f"wrote {written} files to {args.out}")
    return 0


def _integer_flag(lo: int, hi: int, what: str):
    """An argparse type: an integer in [lo, hi], else a usage error."""
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as a usage error
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must be {what}, not {text!r}")
        return value
    return integer


_seed_flag = _integer_flag(0, U64_MAX, "an integer in [0, 2^64)")


def cmd_tables(args) -> int:
    try:
        paths = secmodel.emit_tables(args.out)
    except OSError as exc:
        print(f"error: cannot write tables: {exc}", file=sys.stderr)
        return 2
    failures, rows = [], {}
    for name, table in secmodel.REFERENCES.items():
        table_failures = secmodel.compare_to_reference(name, table)
        failures.extend(table_failures)
        rows[name] = secmodel.computed_rows(table)
        status = "PASS" if not table_failures else "FAIL"
        print(f"{status} {name} table reproduction -> {paths[name]}")
    ordering_ok = all(
        secmodel.CENTRAL_REFERENCE[n] > rows["blockchain"][n][4] > rows["flexichain"][n][4]
        for n in secmodel.TABULATED_N
    )
    print(f"{'PASS' if ordering_ok else 'FAIL'} comparison ordering -> {paths['comparison']}")
    for failure in failures:
        print(f"cell mismatch: {failure}", file=sys.stderr)
    return 0 if not failures and ordering_ok else 1


def _grid(seed: int) -> list[tuple]:
    """The `montecarlo` cells in print order: (table, category, n, factors,
    sampler seed)."""
    return [
        (name, category, n, f, seed + 1000 * i)
        for i, (name, table) in enumerate(secmodel.REFERENCES.items())
        for category, f in enumerate(secmodel.chain_factors(table), start=1)
        for n in (4, 8, 16)
    ]


def cmd_montecarlo(args) -> int:
    """Sample every grid cell, the cells in the runs `workers.fork_map`
    places, and print one line per cell in grid order."""
    cells = _grid(args.seed)

    def sample(run: list[tuple]) -> list[float]:
        return [monte_carlo_attack(category, n, f.amplitude, f.per_node, args.trials, seed)
                for _, category, n, f, seed in run]

    empirical = chain.from_iterable(fork_map(sample, cells))
    breaches = 0
    for (name, category, n, f, _), estimate in zip(cells, empirical):
        analytic = secmodel.category_probability(f, n)
        sigma = math.sqrt(analytic * (1 - analytic) / args.trials)
        ok = abs(estimate - analytic) <= 3 * sigma
        breaches += 0 if ok else 1
        print(
            f"{'PASS' if ok else 'FAIL'} {name} category {category} n={n}: "
            f"empirical {estimate:.6f} vs analytic {analytic:.6f} "
            f"(3-sigma {3 * sigma:.6f})"
        )
    return 0 if breaches == 0 else 1


def cmd_verify(args) -> int:
    result, code = _simulate(args)
    if result is None:
        return code
    mismatches = []
    for name, data in _replayed_artifacts(result).items():
        path = os.path.join(args.out, name)
        try:
            with open(path, "rb") as fh:
                on_disk = fh.read()
        except OSError as exc:
            print(f"error: cannot read artifact: {exc}", file=sys.stderr)
            return 2
        if on_disk != data:
            mismatches.append(name)
    audit = result.network.vault_audit()
    for name in mismatches:
        print(f"FAIL replay mismatch: {name}")
    print(f"{'PASS' if audit['remote_reads'] == 0 else 'FAIL'} offline-gate audit "
          f"(local reads {audit['local_reads']}, remote reads {audit['remote_reads']})")
    if mismatches or audit["remote_reads"] != 0:
        return 1
    print("PASS artifacts replay byte-identically")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexichain",
        description="FlexiChain/NodeChain protocol simulator and analysis tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario file")
    run.add_argument("--scenario", required=True, help="scenario JSON path")
    run.add_argument("--seed", type=_seed_flag, default=None, help="override the scenario seed")
    run.add_argument("--out", default=_default_out(), help="output directory")
    run.set_defaults(func=cmd_run)

    tables = sub.add_parser("tables", help="emit and check the reference tables")
    tables.add_argument("--out", default=_default_out(), help="output directory")
    tables.set_defaults(func=cmd_tables)

    mc = sub.add_parser("montecarlo", help="sample the attack model and compare")
    mc.add_argument("--trials", type=_integer_flag(1, MAX_TRIALS, "an integer in [1, 10^8]"),
                    default=100_000)
    mc.add_argument("--seed", type=_seed_flag, default=0)
    mc.set_defaults(func=cmd_montecarlo)

    verify = sub.add_parser("verify", help="re-run a scenario and check artifacts")
    verify.add_argument("--scenario", required=True, help="scenario JSON path")
    verify.add_argument("--seed", type=_seed_flag, default=None)
    verify.add_argument("--out", default=_default_out(), help="artifact directory")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed usage (2) or help (0)
        return exc.code
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
