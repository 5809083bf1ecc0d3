"""Vault tests: write authorization, ordering, and the offline gate."""

import pytest

from flexichain.errors import (
    ConsistencyViolation,
    DuplicateIdentity,
    IndexGap,
    OfflineViolation,
    Unauthorized,
)
from flexichain.identity import Uid, tokenize_uid
from flexichain.vault import CallOrigin, NodeRole, Vault, VaultEntry

from conftest import TOKEN_SALT, material


def entry_for(index: int, label: str) -> VaultEntry:
    uid = Uid(material(f"vault/{label}/uid", 128))
    return VaultEntry(
        enrollment_index=index,
        real_uid=uid,
        tuid=tokenize_uid(uid, TOKEN_SALT),
        extrinsic_digest=material(f"vault/{label}/digest", 32),
        module_id="tm-1",
    )


def test_append_and_lookup():
    vault = Vault(TOKEN_SALT)
    entry = entry_for(1, "a")
    vault.append(entry, NodeRole.BACKUP)
    assert len(vault) == 1
    assert vault.lookup(entry.tuid, CallOrigin.LOCAL) == entry
    assert vault.entry_at(1) == entry
    assert vault.entry_at(2) is None


@pytest.mark.parametrize("role", [NodeRole.SUBSCRIBER, NodeRole.CPS_IOT])
def test_append_requires_full_node_role(role):
    vault = Vault(TOKEN_SALT)
    with pytest.raises(Unauthorized):
        vault.append(entry_for(1, "a"), role)


def test_append_index_gap():
    vault = Vault(TOKEN_SALT)
    vault.append(entry_for(1, "a"), NodeRole.BACKUP)
    with pytest.raises(IndexGap):
        vault.append(entry_for(3, "b"), NodeRole.EDGE)


def test_inconsistent_token_is_consistency_not_duplicate():
    vault = Vault(TOKEN_SALT)
    good = entry_for(1, "a")
    bad = VaultEntry(
        enrollment_index=1,
        real_uid=good.real_uid,
        tuid=tokenize_uid(good.real_uid, b"other salt"),
        extrinsic_digest=good.extrinsic_digest,
        module_id="tm-1",
    )
    with pytest.raises(ConsistencyViolation):
        vault.append(bad, NodeRole.BACKUP)


def test_duplicate_identity_rejected():
    vault = Vault(TOKEN_SALT)
    first = entry_for(1, "a")
    vault.append(first, NodeRole.BACKUP)
    dup = VaultEntry(
        enrollment_index=2,
        real_uid=first.real_uid,
        tuid=first.tuid,
        extrinsic_digest=material("vault/other", 32),
        module_id="tm-2",
    )
    with pytest.raises(DuplicateIdentity):
        vault.append(dup, NodeRole.EDGE)


def test_holds_extrinsic_tracks_appended_digests():
    vault = Vault(TOKEN_SALT)
    a, b = entry_for(1, "a"), entry_for(2, "b")
    vault.append(a, NodeRole.BACKUP)
    assert vault.holds_extrinsic(a.extrinsic_digest)
    assert not vault.holds_extrinsic(b.extrinsic_digest)
    vault.append(b, NodeRole.BACKUP)
    assert vault.holds_extrinsic(b.extrinsic_digest)


def test_lookup_miss_returns_none():
    vault = Vault(TOKEN_SALT)
    vault.append(entry_for(1, "a"), NodeRole.BACKUP)
    missing = tokenize_uid(Uid(material("vault/missing", 128)), TOKEN_SALT)
    assert vault.lookup(missing, CallOrigin.LOCAL) is None


def test_offline_gate_rejects_remote_lookup():
    vault = Vault(TOKEN_SALT)
    entry = entry_for(1, "a")
    vault.append(entry, NodeRole.BACKUP)
    with pytest.raises(OfflineViolation):
        vault.lookup(entry.tuid, CallOrigin.REMOTE)
    audit = vault.audit()
    assert audit["remote_reads"] == 0
    assert audit["remote_rejections"] == 1
    assert audit["local_reads"] == 0


def test_audit_counts_local_reads():
    vault = Vault(TOKEN_SALT)
    entry = entry_for(1, "a")
    vault.append(entry, NodeRole.BACKUP)
    for _ in range(3):
        vault.lookup(entry.tuid, CallOrigin.LOCAL)
    assert vault.audit()["local_reads"] == 3
    assert vault.audit()["remote_reads"] == 0


def test_replica_serialization_equality():
    a, b = Vault(TOKEN_SALT), Vault(TOKEN_SALT)
    for vault, role in ((a, NodeRole.BACKUP), (b, NodeRole.EDGE)):
        for i in range(1, 5):
            vault.append(entry_for(i, f"n{i}"), role)
    assert a.serialize() == b.serialize()
    assert len(a.serialize()) > 0


def test_snapshot_keeps_the_entries_and_none_of_the_reads():
    vault = Vault(TOKEN_SALT)
    first = entry_for(1, "a")
    vault.append(first, NodeRole.BACKUP)
    vault.lookup(first.tuid, CallOrigin.LOCAL)
    copy = vault.snapshot()
    vault.append(entry_for(2, "b"), NodeRole.BACKUP)
    assert copy.entries == (first,) and len(vault) == 2
    assert copy.audit()["local_reads"] == 0 and vault.audit()["local_reads"] == 1
    assert copy.lookup(first.tuid, CallOrigin.LOCAL) == first
    assert copy.holds_extrinsic(first.extrinsic_digest)
    with pytest.raises(DuplicateIdentity):
        copy.append(VaultEntry(2, first.real_uid, first.tuid, first.extrinsic_digest, "tm-1"),
                    NodeRole.EDGE)


def test_bijection_over_many_entries():
    vault = Vault(TOKEN_SALT)
    for i in range(1, 33):
        vault.append(entry_for(i, f"n{i}"), NodeRole.BACKUP)
    tuids = {e.tuid.value for e in vault.entries}
    uids = {e.real_uid.value for e in vault.entries}
    assert len(tuids) == len(uids) == 32
    indices = [e.enrollment_index for e in vault.entries]
    assert indices == list(range(1, 33))
