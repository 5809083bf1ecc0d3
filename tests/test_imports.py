"""Checks on the package source and on what importing it loads.

Every name a package module imports is used in it or exported, scrypt
runs on one kernel, from one function, a UID is derived only where an
identity is bound or the chain is checked in full, netsim's scenario
nodes and attack outcomes are plain dicts, and no module imports a process
pool.
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


def references(path: Path, name: str) -> list[str]:
    """`module.holder` for each read of `name` in `path`, as a bare name or
    an attribute, called or not, where the holder is the top-level function
    or class that holds the read, or `<module>` if none does."""
    refs = []
    for top in ast.parse(path.read_text()).body:
        holder = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, (ast.Name, ast.Attribute)) and name in (
                getattr(node, "id", None), getattr(node, "attr", None)
            ):
                refs.append(f"{path.stem}.{holder}")
    return refs


def package_references(name: str) -> list[str]:
    return [r for path in sorted(PACKAGE.glob("*.py")) for r in references(path, name)]


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


def test_cli_import_loads_no_process_pool():
    # Workers are forked by `workers.fork_map`; no package module imports a
    # process pool, and importing the CLI loads none.
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
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
