"""Run a list of independent jobs on every CPU, in processes forked per call.

`fork_map(fn, jobs, most)` is the one place that decides where work runs.
It cuts `jobs` into contiguous runs of near-equal length, one per usable
CPU, but no more runs than jobs, nor than `most`, the ceiling its caller
states. It calls `fn` on the first run in the calling process and on each
other run in a child forked for it, and returns the results in run order.
A child reads its run and `fn` from the memory it inherits, so nothing is
pickled on the way in: an Ed25519 private key or a wrapped function reaches
it as it is. It pipes back only its pickled result and ends in `os._exit`,
so it never runs the caller's cleanup. The caller reads every pipe, then
reaps every child, also when it raises: no child outlives the call. An
exception raised in a child is raised again in the caller; a child that
ended without a complete result raises `ChildProcessError`.

Three callers state only their work and its ceiling: full-mode
`nodechain.verify_chain` (scrypt derivations), `netsim.Network.authenticate`
(the signatures of an attestation round) and `cli.cmd_montecarlo` (the
cells of the `montecarlo` grid, with no ceiling). A fork, its child's first
byte back and its reaping cost 2.9-3.9 ms (medians of 40 in each of 15
sets) from a 39 MB process that imported the CLI, on a shared 2-vCPU
machine under Python 3.11, so a run must hold more work than that to be
worth a process.

A fork copies only the calling thread, so a lock another thread held would
stay held in every child. With a second thread alive every job runs in the
caller, as one run. A `ProcessPoolExecutor` would pickle each job (an
`Ed25519PrivateKey` does not pickle) and cost about 15 ms to start; `spawn`
children would import the package again.
"""

from __future__ import annotations

import os
import pickle
import threading


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def split(jobs: list, parts: int) -> list[list]:
    """`jobs` cut into `parts` contiguous runs whose lengths differ by at most one."""
    bounds = [len(jobs) * k // parts for k in range(parts + 1)]
    return [jobs[a:b] for a, b in zip(bounds, bounds[1:])]


def fork_map(fn, jobs: list, most: int | None = None) -> list:
    """`[fn(run) for run in runs]`, where `runs` cuts `jobs` in order into
    one run per usable CPU, but no more runs than jobs nor than `most`, and
    into one run if that makes fewer than two: the first run in this
    process, each other in a child forked for it."""
    parts = min(usable_cpus(), len(jobs), len(jobs) if most is None else most)
    if parts < 2 or threading.active_count() > 1:
        return [fn(jobs)]
    runs = split(jobs, parts)
    children: list[tuple[int, object]] = []  # (pid, read end of its pipe)
    try:
        for run in runs[1:]:
            children.append(_fork(fn, run))
        first = fn(runs[0])
    finally:
        try:
            replies = [pipe.read() for _, pipe in children]
        finally:
            # Closed first, so that a child still writing gets EPIPE and ends.
            for _, pipe in children:
                pipe.close()
            statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    results = [first]
    for reply, status in zip(replies, statuses):
        if not reply or os.waitstatus_to_exitcode(status) != 0:
            raise ChildProcessError("a worker ended without a result")
        ok, value = pickle.loads(reply)
        if not ok:
            raise value
        results.append(value)
    return results


def _fork(fn, run) -> tuple[int, object]:
    """Fork a child that pipes back the pickled outcome of `fn(run)`."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                outcome = (True, fn(run))
            except BaseException as exc:  # the caller raises it again
                outcome = (False, exc)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(outcome))
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, open(read_fd, "rb")
