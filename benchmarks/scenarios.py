"""Seeded scenario generator and the benchmark's workload shapes.

`generate` returns a plain dict that `ScenarioConfig.from_dict` accepts.
The network is one backup node `bn`, edge nodes `e1..eE` and CPS nodes
`c1..`, joined in that order. Every fixture value (extrinsic parameters,
keys, nonces, payloads, salts) is derived by the simulator from the
scenario seed, so the same arguments always give the same dict and the
same trace.

Window layout: each block's transactions are committed at a time of their
own and the block's window is `[t, t + 1)`, so every block has a distinct
window close, later than every earlier block's. `Layer0Ledger.append_block`
requires both arcs to reference a strictly earlier record, so two blocks of
one branch with the same close would get the second one rejected.
"""

from __future__ import annotations

EVENT_STEP = 10


def generate(
    *,
    n: int,
    edges: int,
    rounds: int = 0,
    senders: int = 1,
    tx_per_block: int = 8,
    finality: str = "narrated",
    kdf_cost: int = 2,
    kdf_r: int = 1,
    round_every: int | None = None,
    attestors: str | int = "all",
    disable_backup_after: int | None = None,
    seed: int = 0,
) -> dict:
    """Build one scenario.

    n               total nodes, the backup included
    edges           edge (full) nodes; the rest are CPS nodes
    rounds          block rounds after all joins (ignored with round_every)
    round_every     run one round after every k-th join instead
    senders         nodes committing transactions per round: the most
                    recently enrolled ones, each on its own branch
    tx_per_block    transactions per sender per round
    finality        "exhaustive" or "narrated"
    kdf_cost, kdf_r scrypt N and r
    attestors       "all", or m: the first m - 1 edges plus the newest
                    node (narrated finality needs the newest identity)
    disable_backup_after
                    fault schedule: disable the backup after this join
                    (1-based), so later joins fail over to an edge
    """
    if n < 2 or not 1 <= edges < n:
        raise ValueError("need 1 <= edges < n and n >= 2")
    if finality not in ("exhaustive", "narrated"):
        raise ValueError(f"unknown finality mode {finality!r}")
    if finality == "exhaustive" and attestors != "all":
        raise ValueError("exhaustive finality needs every node to attest")
    if attestors != "all" and not 2 <= attestors <= edges + 1:
        raise ValueError("attestors must be 'all' or 2..edges+1")
    if not 1 <= senders < n:
        raise ValueError("senders must be 1..n-1")

    edge_names = [f"e{i}" for i in range(1, edges + 1)]
    joiners = edge_names + [f"c{i}" for i in range(1, n - edges)]
    nodes = [{"name": "bn", "role": "backup", "module": "tm-1"}]
    nodes += [{"name": e, "role": "edge", "module": "tm-2"} for e in edge_names]
    nodes += [{"name": c, "role": "cps", "module": "tm-2"} for c in joiners[edges:]]

    script: list[dict] = []
    clock = 0

    def emit(event: dict) -> None:
        nonlocal clock
        clock += EVENT_STEP
        script.append({"at": clock, **event})

    branches = [f"branch-{j}" for j in range(1, senders + 1)]
    for branch in branches:
        emit({"event": "register_branch", "branch": branch})

    enrolled: list[str] = []

    def block_round() -> None:
        newest = enrolled[-1]
        who = enrolled[-senders:]
        windows = []
        for sender, branch in zip(who, branches):
            emit({"event": "transactions", "node": sender, "branch": branch,
                  "count": tx_per_block})
            windows.append((sender, branch, [clock, clock + 1]))
        for sender, branch, window in windows:
            emit({"event": "build_block", "node": sender, "branch": branch,
                  "window": window})
            if attestors == "all":
                names = "all"
            else:
                names = [e for e in edge_names[: attestors - 1] if e != newest]
                names.append(newest)
            emit({"event": "authenticate", "block": "latest", "nodes": names})

    for i, name in enumerate(joiners, start=1):
        emit({"event": "join", "node": name})
        enrolled.append(name)
        if disable_backup_after == i:
            emit({"event": "disable", "node": "bn"})
        if round_every and i % round_every == 0:
            block_round()
    if not round_every:
        for _ in range(rounds):
            block_round()

    return {
        "seed": seed,
        "finality_mode": finality,
        "kdf": {"cost": kdf_cost, "block_size": kdf_r, "parallelism": 1},
        "modules": ["tm-1", "tm-2"],
        "nodes": nodes,
        "script": script,
    }


# Workload shapes (see README.md for why each one exists). Each is sized so
# that one repetition takes about a second.
SHAPES = {
    # Enrollment at scale: vault replication and the O(n) scans dominate.
    # The backup goes down at the halfway join; later joins fail over.
    "enroll-384": dict(n=384, edges=32, round_every=32, attestors=33,
                       disable_backup_after=192),
    # Attestation at scale: every node attests every block.
    "attest-256": dict(n=256, edges=4, rounds=8, finality="exhaustive"),
    # Interactive-grade KDF: scrypt dominates joins and verification; four
    # senders on their own branches load the transaction pool and the DAG.
    "ingest-kdf": dict(n=12, edges=2, rounds=12, senders=4, tx_per_block=16,
                       kdf_cost=2**13, kdf_r=8, attestors=2),
}


def scale_shape(kind: str, n: int) -> dict:
    """The attest-256 or enroll-384 shape at another n, with few rounds."""
    if kind == "attest":
        return dict(n=n, edges=4, rounds=2, finality="exhaustive")
    edges = min(32, n // 2)
    return dict(n=n, edges=edges, round_every=32, attestors=edges + 1,
                disable_backup_after=(n - 1) // 2)
