"""Run independent chunks of work on every CPU, in processes forked per call.

`fork_map(fn, chunks)` runs `chunks[0]` in the calling process and forks one
child for each other chunk. A child reads its chunk and `fn` from the memory
it inherits, so nothing is pickled on the way in: an Ed25519 private key or
a wrapped function reaches it as it is. It pipes back only its pickled
result and ends in `os._exit`, so it never runs the caller's cleanup. The
caller reads every pipe, then reaps every child, also when it raises: no
child outlives the call. An exception raised in a child is raised again in
the caller; a child that ended without a complete result raises
`ChildProcessError`.

Three callers share it: full-mode `nodechain.verify_chain` (one range of
scrypt derivations per process), `netsim.Network.authenticate` (the
signatures of a large attestation round) and `cli.cmd_montecarlo` (the
cells of the `montecarlo` grid).

A fork copies only the calling thread, so a lock another thread held would
stay held in every child. With a second thread alive, and for a single
chunk, every chunk runs in the caller. A `ProcessPoolExecutor` would pickle
each job (an `Ed25519PrivateKey` does not pickle) and cost about 15 ms to
start; `spawn` children would import the package again.
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


def fork_map(fn, chunks: list) -> list:
    """`[fn(chunk) for chunk in chunks]`, each chunk after the first in a
    child forked for it."""
    if len(chunks) < 2 or threading.active_count() > 1:
        return [fn(chunk) for chunk in chunks]
    children: list[tuple[int, object]] = []  # (pid, read end of its pipe)
    try:
        for chunk in chunks[1:]:
            children.append(_fork(fn, chunk))
        first = fn(chunks[0])
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


def _fork(fn, chunk) -> tuple[int, object]:
    """Fork a child that pipes back the pickled outcome of `fn(chunk)`."""
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
                outcome = (True, fn(chunk))
            except BaseException as exc:  # the caller raises it again
                outcome = (False, exc)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(outcome))
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, open(read_fd, "rb")
