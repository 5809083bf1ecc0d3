"""Forked workers: jobs cut into runs, results in run order, failures
raised, children reaped."""

import os
import threading

import pytest

from flexichain import workers
from flexichain.workers import fork_map, split, usable_cpus

from conftest import assert_no_child_left


@pytest.fixture(autouse=True)
def three_cpus(monkeypatch):
    monkeypatch.setattr(workers, "usable_cpus", lambda: 3)


def where(run):
    return os.getpid(), run


def test_the_first_chunk_runs_here_and_each_other_in_a_child_of_its_own():
    results = fork_map(where, [1, 2, 3, 4])
    assert [run for _, run in results] == [[1], [2], [3, 4]]
    pids = [pid for pid, _ in results]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == 3
    assert_no_child_left()


@pytest.mark.parametrize(
    "n,most,cpus,lengths",
    [
        (7, None, 3, [2, 2, 3]),  # one run per CPU
        (2, None, 3, [1, 1]),     # no more runs than jobs
        (7, 2, 3, [3, 4]),        # no more runs than `most`
        (7, 5, 3, [2, 2, 3]),
        (5, 1, 3, [5]),           # one run: nothing is forked
        (4, 0, 2, [4]),
        (9, None, 1, [9]),        # one CPU
    ],
)
def test_jobs_are_cut_into_a_run_per_cpu_and_at_most_most_runs(
    monkeypatch, n, most, cpus, lengths
):
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    results = fork_map(where, list(range(n)), most)
    assert [len(run) for _, run in results] == lengths
    assert [x for _, run in results for x in run] == list(range(n))
    assert len({pid for pid, _ in results}) == len(lengths)
    assert results[0][0] == os.getpid()
    assert_no_child_left()


def test_a_job_that_raises_in_a_child_raises_here():
    def job(run):
        if run == [2]:
            raise ValueError(f"run {run} in {os.getpid()}")
        return run

    with pytest.raises(ValueError, match="run") as raised:
        fork_map(job, [1, 2, 3])
    assert str(os.getpid()) not in str(raised.value)
    assert_no_child_left()


def test_a_job_that_raises_here_still_reaps_every_child():
    parent = os.getpid()

    def job(run):
        if os.getpid() == parent:
            raise KeyError("here")
        return run

    with pytest.raises(KeyError, match="here"):
        fork_map(job, [1, 2, 3])
    assert_no_child_left()


@pytest.mark.parametrize(
    "child",
    [lambda: os._exit(0), lambda: (lambda: None)],  # writes nothing; a result pickle refuses
    ids=["exits-early", "unpicklable-result"],
)
def test_a_child_without_a_result_raises(child):
    parent = os.getpid()

    def job(run):
        return run if os.getpid() == parent else child()

    with pytest.raises(ChildProcessError):
        fork_map(job, [1, 2])
    assert_no_child_left()


def test_one_chunk_or_a_second_thread_forks_nothing(monkeypatch):
    def no_fork():
        raise RuntimeError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert fork_map(where, [1]) == [(os.getpid(), [1])]
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert fork_map(where, [1, 2]) == [(os.getpid(), [1, 2])]
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    with pytest.raises(RuntimeError, match="forked"):
        fork_map(where, [1, 2])


def test_no_jobs_make_one_empty_run_here(monkeypatch):
    def no_fork():
        raise RuntimeError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert fork_map(where, []) == [(os.getpid(), [])]
    assert fork_map(where, [], most=4) == [(os.getpid(), [])]


@pytest.mark.parametrize(
    "n,parts,lengths",
    [(5, 2, [2, 3]), (6, 3, [2, 2, 2]), (1, 2, [0, 1]), (0, 1, [0]), (7, 1, [7])],
)
def test_split_keeps_order_and_evens_the_lengths(n, parts, lengths):
    chunks = split(list(range(n)), parts)
    assert [len(c) for c in chunks] == lengths
    assert [x for c in chunks for x in c] == list(range(n))


def test_usable_cpus_is_at_least_one():
    assert usable_cpus() >= 1
