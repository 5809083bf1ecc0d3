"""Shared fixtures: cheap KDF parameters, deterministic node fixtures, and
checks on forked workers."""

import hashlib
import os

import pytest

from flexichain.identity import ExtrinsicParameters, KdfParameters
from flexichain.keys import public_bytes, signing_key_from_seed

# Interactive-grade scrypt cost is deliberate protocol configuration; unit
# tests use the lightest valid parameters so derivations stay microseconds.
CHEAP_KDF = KdfParameters(
    cost=16, block_size=1, parallelism=1, salt=b"unit-test-salt!!", output_length=128
)

TOKEN_SALT = b"unit-token-salt!"


@pytest.fixture
def kdf() -> KdfParameters:
    return CHEAP_KDF


@pytest.fixture
def token_salt() -> bytes:
    return TOKEN_SALT


def material(label: str, n: int = 32) -> bytes:
    out = b""
    counter = 0
    while len(out) < n:
        out += hashlib.sha256(f"fixture:{label}:{counter}".encode()).digest()
        counter += 1
    return out[:n]


def make_params(label: str) -> ExtrinsicParameters:
    """Deterministic synthetic extrinsic parameters for one test identity."""
    return ExtrinsicParameters(
        mac_address=material(label + "/mac", 6),
        firmware_digest=material(label + "/fw", 32),
        puf_signature=material(label + "/puf", 32),
        process_power_class=material(label + "/ppc", 1)[0] % 8,
        location_tag=material(label + "/loc", 8),
        ip_address=material(label + "/ip", 4),
        constructed_public_id=public_bytes(signing_key_from_seed(material(label + "/key", 32))),
    )


def make_signing_key(label: str):
    return signing_key_from_seed(material(label + "/key", 32))


@pytest.fixture
def params_factory():
    return make_params


def record_forks(monkeypatch) -> list[int]:
    """The list that collects the pid of each child forked from here on."""
    forked, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return forked


def record_runs(monkeypatch, module) -> list[list[int]]:
    """Make `module.fork_map` record the length of each run that
    `workers.fork_map` places, a list per call; returns the list of them."""
    from flexichain import workers

    calls = []

    def recorded(fn, jobs, most=None):
        results = workers.fork_map(lambda run: (len(run), fn(run)), jobs, most)
        calls.append([length for length, _ in results])
        return [result for _, result in results]

    monkeypatch.setattr(module, "fork_map", recorded)
    return calls


def fork_every_round(monkeypatch, cpus: int = 2) -> list[int]:
    """Make every attestation round of more than one online member sign and
    verify over up to `cpus` processes, as a round of `PARALLEL_ATTESTATIONS`
    does; the returned list collects the pid of each child forked from here
    on."""
    from flexichain import netsim, workers

    monkeypatch.setattr(netsim, "PARALLEL_ATTESTATIONS", 1)
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    return record_forks(monkeypatch)


def assert_no_child_left() -> None:
    """No child of this process is running or waiting to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
