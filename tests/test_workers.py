"""Forked workers: results in chunk order, failures raised, children reaped."""

import os
import threading

import pytest

from flexichain.workers import fork_map, split, usable_cpus

from conftest import assert_no_child_left


def where(chunk):
    return os.getpid(), chunk


def test_the_first_chunk_runs_here_and_each_other_in_a_child_of_its_own():
    results = fork_map(where, [[1], [2, 3], [4]])
    assert [chunk for _, chunk in results] == [[1], [2, 3], [4]]
    pids = [pid for pid, _ in results]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == 3
    assert_no_child_left()


def test_a_job_that_raises_in_a_child_raises_here():
    def job(chunk):
        if chunk == [2]:
            raise ValueError(f"chunk {chunk} in {os.getpid()}")
        return chunk

    with pytest.raises(ValueError, match="chunk") as raised:
        fork_map(job, [[1], [2], [3]])
    assert str(os.getpid()) not in str(raised.value)
    assert_no_child_left()


def test_a_job_that_raises_here_still_reaps_every_child():
    parent = os.getpid()

    def job(chunk):
        if os.getpid() == parent:
            raise KeyError("here")
        return chunk

    with pytest.raises(KeyError, match="here"):
        fork_map(job, [[1], [2], [3]])
    assert_no_child_left()


@pytest.mark.parametrize(
    "child",
    [lambda: os._exit(0), lambda: (lambda: None)],  # writes nothing; a result pickle refuses
    ids=["exits-early", "unpicklable-result"],
)
def test_a_child_without_a_result_raises(child):
    parent = os.getpid()

    def job(chunk):
        return chunk if os.getpid() == parent else child()

    with pytest.raises(ChildProcessError):
        fork_map(job, [[1], [2]])
    assert_no_child_left()


def test_one_chunk_or_a_second_thread_forks_nothing(monkeypatch):
    def no_fork():
        raise RuntimeError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert fork_map(where, [[1]]) == [(os.getpid(), [1])]
    assert fork_map(where, []) == []
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert fork_map(where, [[1], [2]]) == [(os.getpid(), [1]), (os.getpid(), [2])]
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    with pytest.raises(RuntimeError, match="forked"):
        fork_map(where, [[1], [2]])


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
