"""Checks on the package source and on what importing it loads.

Every name a package module imports is used in it or exported, scrypt
runs on one kernel, from one function, a UID is derived only where an
identity is bound or the chain is checked in full, one walker encodes and
decodes every record, netsim's scenario nodes and attack outcomes are
plain dicts, only `workers` decides where work runs, no module imports
a process pool, and the adversary reads only the network's public surface.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flexichain"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in `source` that it never reads or lists in `__all__`."""
    tree = ast.parse(source)
    imported, used, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


@pytest.mark.parametrize(
    "source,unused",
    [
        ("import os\n", ["os"]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\nb\n", ["c"]),
        ("from __future__ import annotations\n", []),
        ("from a import b\n__all__ = ['b']\n", []),
        ("from a import b\ndef f() -> b: ...\n", []),
    ],
)
def test_checker(source, unused):
    assert unused_imports(source) == unused


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name
)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_one_scrypt_kernel_from_one_function():
    # Joins, genesis, full-mode verification and the benchmark's floor all
    # derive through `identity.scrypt_kdf`, so they share one kernel.
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: text.count("Scrypt(") for name, text in sources.items()
            if "Scrypt(" in text} == {"identity.py": 1}
    body = sources["identity.py"].split("\ndef scrypt_kdf(", 1)[1].split("\ndef ", 1)[0]
    assert "Scrypt(" in body
    # The docstrings compare against hashlib.scrypt; no code calls it.
    for text in sources.values():
        assert not re.search(r"hashlib\.scrypt\(|from hashlib import .*\bscrypt\b", text)


def references(path: Path, name: str, members: bool = False) -> list[str]:
    """`module.holder` for each read of `name` in `path`, as a bare name or
    an attribute, called or not, where the holder is the top-level function
    or class that holds the read, or `<module>` if none does. With
    `members`, a read inside a class is held by `Class.member` instead."""
    refs = []
    for top in ast.parse(path.read_text()).body:
        holders = [(getattr(top, "name", "<module>"), top)]
        if members and isinstance(top, ast.ClassDef):
            holders = [(f"{top.name}.{getattr(node, 'name', '<body>')}", node)
                       for node in top.body]
        for holder, tree in holders:
            for node in ast.walk(tree):
                if isinstance(node, (ast.Name, ast.Attribute)) and name in (
                    getattr(node, "id", None), getattr(node, "attr", None)
                ):
                    refs.append(f"{path.stem}.{holder}")
    return refs


def package_references(name: str, members: bool = False) -> list[str]:
    return [r for path in sorted(PACKAGE.glob("*.py")) for r in references(path, name, members)]


def test_uids_are_derived_only_at_binding_and_full_verification():
    # One derivation per identity: `consensus._bind` derives each UID once,
    # and only full-mode `verify_chain` derives it again, through
    # `nodechain._first_mismatch`, in this process or in its workers.
    assert package_references("derive_uid") == ["consensus._bind", "nodechain._first_mismatch"]
    assert set(package_references("_first_mismatch")) == {"nodechain.verify_chain"}


def test_each_signed_message_verifies_itself():
    # Every signature check goes through the message that was signed, which
    # builds its own signing bytes; no caller assembles them to verify.
    assert set(package_references("verify_signature")) == {
        "dag.Transaction", "consensus.EnrollmentRequest", "consensus.AuthenticationMessage"
    }


def test_one_codec_walks_every_record():
    # Records are encoded and decoded only by `wire`'s table walker, whose
    # cursor is `Reader`. Outside `wire`, the field encoders build only the
    # trace payloads that are not records: netsim's fixture material, and
    # the `sync`, `branch`, `attack_outcome` and `attack` lines. A record
    # codec written by hand anywhere else fails here.
    assert {ref.split(".")[0] for ref in package_references("Reader")} == {"wire"}
    outside = {name: [ref for ref in package_references(name, members=True)
                      if not ref.startswith("wire.")]
               for name in ("encode_fields", "lp")}
    assert outside == {
        "encode_fields": ["adversary._attack_bytes", "adversary.inject_attack",
                          "netsim.Network.enroll", "netsim.Network._handle_register_branch"],
        "lp": ["netsim.Network._handle_register_branch",
               "netsim.Network._handle_register_branch",
               "scenario.material", "scenario.material"],
    }


def test_trusted_module_key_is_its_own_credential():
    # A module is named by its id and signs with its private key, which fixes
    # the public key the registry checks; no credential type restates it.
    assert not [path.name for path in sorted(PACKAGE.glob("*.py"))
                if "TrustedModuleCredential" in path.read_text()]


def test_scenario_nodes_and_attack_outcomes_are_plain_records():
    # netsim reads a node as the dict its table's walk produced, like an
    # event, and an attack's outcome is the dict `summary.json` lists.
    assert not [path.name for path in sorted(PACKAGE.glob("*.py"))
                if re.search(r"\b(NodeSpec|AttackOutcome)\b", path.read_text())]
    netsim = ast.parse((PACKAGE / "netsim.py").read_text())
    assert "asdict" not in {alias.name for node in ast.walk(netsim)
                            if isinstance(node, ast.ImportFrom) for alias in node.names}


def placement_reads(source: str) -> list[str]:
    """`module.name` for each read in `source` of the CPU count, the run
    cutter or the fork: `usable_cpus` or `split` of `workers`, or `fork` of
    `os`, imported by name or read as an attribute of its module."""
    owned = {"workers": {"usable_cpus", "split"}, "os": {"fork"}}
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            reads += [f"{module}.{alias.name}" for alias in node.names
                      if alias.name in owned.get(module, ())]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.attr in owned.get(node.value.id, ()):
                reads.append(f"{node.value.id}.{node.attr}")
    return reads


@pytest.mark.parametrize(
    "source,reads",
    [
        ("from .workers import fork_map, split\n", ["workers.split"]),
        ("from flexichain.workers import usable_cpus\n", ["workers.usable_cpus"]),
        ("from . import workers\nworkers.usable_cpus()\n", ["workers.usable_cpus"]),
        ("import os\nos.fork()\n", ["os.fork"]),
        ("from os import fork\n", ["os.fork"]),
        ("import re\nre.split(',', 'a,b')\n'a b'.split()\n", []),
        ("from .workers import fork_map\nfork_map(len, [])\n", []),
    ],
)
def test_placement_checker(source, reads):
    assert placement_reads(source) == reads


def test_placement_is_decided_only_in_workers():
    # `workers.fork_map` alone decides how many processes a call uses and
    # which jobs each runs; its callers state only their jobs and a ceiling
    # on processes. No other module reads the CPU count, cuts jobs into runs
    # or forks.
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if placement_reads(path.read_text())] == ["workers.py"]


def fresh_python(code: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `code` run by a new interpreter that
    imports the package from this tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_import_loads_no_process_pool():
    # Workers are forked by `workers.fork_map`; no package module imports a
    # process pool, and importing the CLI loads none. Nor does it load
    # `cryptography`'s key serialization: a raw public key needs none.
    pools = ("multiprocessing", "concurrent")
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] in pools], path.name
    code = ("import sys, flexichain.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent') "
            "or m.startswith('cryptography.hazmat.primitives.serialization')))")
    assert fresh_python(code) == (0, "[]\n", "")


def test_benchmark_reads_numpy_and_the_sampler_where_they_are():
    # The benchmark reads numpy's share of `import flexichain.cli` from the
    # import breakdown (it raises KeyError without it) and wraps the sampler
    # at its `netsim` binding. ROADMAP item 1 (the benchmark change) and
    # item 3 (the sampler's move to `secmodel`) retire this test.
    code = ("import sys, flexichain.cli, flexichain.netsim as netsim; "
            "print('numpy' in sys.modules, callable(vars(netsim).get('monte_carlo_attack')))")
    assert fresh_python(code) == (0, "True True\n", "")


@pytest.mark.parametrize("module", ["adversary", "scenario", "netsim"])
def test_each_simulator_module_imports_first(module):
    # The imports run scenario <- adversary <- netsim; a cycle among them
    # fails for the module that a fresh interpreter imports first.
    assert fresh_python(f"import flexichain.{module}") == (0, "", "")


def private_reads(source: str) -> list[str]:
    """Each `_`-prefixed name that `source` reads as an attribute of any
    object or names in an import, dunders aside."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.Import):
            names += [part for alias in node.names for part in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            names += (node.module or "").split(".") + [alias.name for alias in node.names]
    return [n for n in names
            if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))]


@pytest.mark.parametrize(
    "source,reads",
    [
        ("net._finality\n", ["_finality"]),
        ("net.request(node)._fields\n", ["_fields"]),
        ("from .netsim import _material\n", ["_material"]),
        ("from ._private import x\n", ["_private"]),
        ("import a._b\n", ["_b"]),
        ("from __future__ import annotations\nx.__class__\n", []),
        ("def _own(): ...\n_own()\n", []),
    ],
)
def test_private_read_checker(source, reads):
    assert private_reads(source) == reads


# The adversary's powers: what it reads of the `Network` and the names it
# imports from the package. README.md lists the same surface under
# "Adversary surface".
ADVERSARY_SURFACE = {
    "net.clock", "net.config", "net.fabrications", "net.finality", "net.full_nodes",
    "net.layer0", "net.new_node", "net.nodes", "net.record", "net.request",
    "net.respond", "net.responder", "net.vault",
    "consensus.check_finality", "dag", "errors.OfflineViolation", "errors.ProtocolError",
    "errors.UnknownBranch", "identity.match_layer", "netsim.Network", "netsim.NodeState",
    "scenario.SYBIL_PREFIX", "scenario.extrinsic", "scenario.material",
    "vault.CallOrigin", "vault.NodeRole", "wire.encode_fields",
}


def test_adversary_is_a_client_of_the_public_surface():
    # `inject_attack` and its helpers read no private name of the network,
    # of a node or of a protocol module; the network they act on is `net`.
    source = (PACKAGE / "adversary.py").read_text()
    assert private_reads(source) == []
    surface = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "net":
            surface.add(f"net.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.level:
            surface |= {".".join(filter(None, [node.module, alias.name]))
                        for alias in node.names}
    assert surface == ADVERSARY_SURFACE


def test_netsim_holds_the_network_and_the_sampler_only():
    # The schema lives in `scenario` and the attacks in `adversary`.
    defined = set()
    for node in ast.parse((PACKAGE / "netsim.py").read_text()).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined |= {target.id for target in node.targets}
    assert defined == {"PARALLEL_ATTESTATIONS", "NodeState", "Network", "SimulationResult",
                       "run_scenario", "MC_CHUNK_DRAWS", "monte_carlo_attack"}
