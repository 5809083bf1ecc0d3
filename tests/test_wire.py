"""The wire tables: every record's bytes come from its `FIELDS` table.

The records and their values are generated from the tables themselves: each
field's strategy follows its dataclass type, so a record or field added to
a table is covered without editing this file.
"""

import dataclasses
import re
import typing
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import flexichain  # noqa: F401  (imports every module that declares a record)
from flexichain.dag import Transaction
from flexichain.errors import BadSignature, ProtocolError
from flexichain.identity import ExtrinsicParameters, TokenizedUid, Uid
from flexichain.keys import public_bytes
from flexichain.nodechain import VirtualExistenceBlock
from flexichain.vault import VaultEntry
from flexichain.wire import Record, decode_log, encode_log

from conftest import make_signing_key

README = Path(__file__).resolve().parents[1] / "README.md"


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


RECORDS = sorted(_subclasses(Record), key=lambda cls: cls.__name__)

KEYS = [make_signing_key(f"wire/{i}") for i in range(3)]

# Fields whose class refuses some values of their type.
FIELD_VALUES = {
    (ExtrinsicParameters, "mac_address"): st.binary(min_size=6, max_size=6),
    (ExtrinsicParameters, "firmware_digest"): st.binary(min_size=32, max_size=32),
    (ExtrinsicParameters, "puf_signature"): st.binary(min_size=1, max_size=16),
    (ExtrinsicParameters, "process_power_class"): st.integers(0, 2**32 - 1),
    (ExtrinsicParameters, "location_tag"): st.binary(min_size=1, max_size=16),
    (ExtrinsicParameters, "ip_address"): st.sampled_from([4, 16]).flatmap(
        lambda n: st.binary(min_size=n, max_size=n)),
    (ExtrinsicParameters, "constructed_public_id"): st.sampled_from(
        [public_bytes(key) for key in KEYS]),
}


def values(hint) -> st.SearchStrategy:
    """Any value of the type `hint` that its own class accepts."""
    if typing.get_origin(hint) is tuple:
        return st.lists(values(typing.get_args(hint)[0]), max_size=3).map(tuple)
    if isinstance(hint, type) and issubclass(hint, Record):
        return records(hint)
    return {
        bytes: st.binary(max_size=40),
        int: st.integers(0, 2**64 - 1),
        str: st.text(max_size=8),
        TokenizedUid: st.binary(min_size=32, max_size=32).map(TokenizedUid),
        Uid: st.binary(min_size=1, max_size=40).map(Uid),
    }[hint]


def records(cls) -> st.SearchStrategy:
    """A record drawn field by field from its table. A transaction is signed
    by its sender, since decoding refuses one whose signature fails."""
    hints = typing.get_type_hints(cls)
    fields = {name: FIELD_VALUES.get((cls, name), values(hints[name]))
              for name, _ in cls.FIELDS}
    if cls is Transaction:
        return st.builds(
            lambda key, tag, payload, timestamp: Transaction.signed(
                key, public_bytes(key), tag, payload, timestamp),
            st.sampled_from(KEYS), fields["block_type_tag"], fields["payload"],
            fields["timestamp"])
    return st.fixed_dictionaries(fields).map(lambda kw: cls(**kw))


def test_every_record_has_a_table():
    assert [cls.__name__ for cls in RECORDS] == [
        "AuthenticationMessage", "DataBlock", "EnrollmentRequest", "EnrollmentResponse",
        "ExtrinsicParameters", "Transaction", "VaultEntry", "VirtualExistenceBlock"]
    for cls in RECORDS:
        # Each table names every init field once, and its prefix is inside it.
        init = [f.name for f in dataclasses.fields(cls) if f.init]
        assert sorted(name for name, _ in cls.FIELDS) == sorted(init), cls
        assert 0 <= cls.PREFIX < len(cls.FIELDS), cls


SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@SETTINGS
@given(data=st.data())
def test_every_record_round_trips(cls, data):
    record = data.draw(records(cls))
    encoded = record.encode()
    decoded = cls.decode(encoded)
    assert decoded == record and type(decoded) is cls
    # What a signature or header digest covers is the encoding's start, and
    # the same bytes before the record exists.
    leading = [getattr(record, name) for name, _ in cls.FIELDS[:cls.PREFIX]]
    assert encoded.startswith(record.prefix())
    assert cls.signing_bytes(*leading) == record.prefix()


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@SETTINGS
@given(data=st.data())
def test_every_single_byte_mutation_is_refused_or_reencodes(cls, data):
    encoded = data.draw(records(cls)).encode()
    at = data.draw(st.integers(0, len(encoded) - 1))
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != encoded[at]))
    mutated = encoded[:at] + bytes([byte]) + encoded[at + 1:]
    try:
        decoded = cls.decode(mutated)
    except (ValueError, ProtocolError):
        return
    assert decoded.encode() == mutated


@pytest.mark.parametrize("cls", [VirtualExistenceBlock, VaultEntry], ids=lambda c: c.__name__)
@SETTINGS
@given(data=st.data())
def test_logs_round_trip(cls, data):
    entries = data.draw(st.lists(records(cls), max_size=4))
    assert decode_log(cls, encode_log(entries)) == entries


def test_a_transaction_read_from_bytes_carries_a_valid_signature():
    key = KEYS[0]
    tx = Transaction.signed(key, public_bytes(key), "B", b"p", 7)
    forged = Transaction(tx.sender, tx.block_type_tag, b"q", tx.timestamp, tx.signature)
    with pytest.raises(BadSignature, match="transaction signature does not verify"):
        Transaction.decode(forged.encode())


def _readme_records() -> dict[str, tuple[list[str], int]]:
    """Each record README's "File formats" lists: its fields in order, and
    the number of first fields it says a signature or digest covers (0 if
    it names none)."""
    section = README.read_text().split("## File formats", 1)[1].split("\n## ", 1)[0]
    found = {}
    for item in re.split(r"\n(?=- )", section):
        match = re.match(r"- `(\w+)`: (.*)", item.split("\n\n")[0], re.S)
        if match:
            names, _, rest = match.group(2).partition(". ")
            prefix = re.search(r"first (\d+) fields", rest)
            found[match.group(1)] = (re.findall(r"`(\w+)`", names),
                                     int(prefix.group(1)) if prefix else 0)
    return found


def test_readme_lists_every_record_table():
    assert _readme_records() == {
        cls.__name__: ([name for name, _ in cls.FIELDS], cls.PREFIX) for cls in RECORDS}
