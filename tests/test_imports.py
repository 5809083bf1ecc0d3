"""Static checks on the package source.

Every name a package module imports is used in it or exported, scrypt
runs on one kernel, from one function, and a UID is derived only where an
identity is bound or the chain is checked in full.
"""

import ast
import re
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


def derive_uid_callers(path: Path) -> list[str]:
    """`module.name` for each call of `derive_uid` in `path`, named by the
    top-level function or class that holds it, or `<module>` if none does."""
    callers = []
    for top in ast.parse(path.read_text()).body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and "derive_uid" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                callers.append(f"{path.stem}.{name}")
    return callers


def test_uids_are_derived_only_at_binding_and_full_verification():
    # One derivation per identity: `consensus._bind` derives each UID once,
    # and only full-mode `verify_chain` derives it again.
    calls = [c for path in sorted(PACKAGE.glob("*.py")) for c in derive_uid_callers(path)]
    assert calls == ["consensus._bind", "nodechain.verify_chain"]
