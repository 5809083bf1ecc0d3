"""Canonical byte encoding used by every on-wire and on-disk structure.

All compound records are encoded as a fixed-order sequence of fields, each
field length-prefixed with a 4-byte big-endian length. Integers are widened
to 8-byte big-endian before prefixing. The encoding has no optional fields
and no padding, so serializing the same value twice always yields identical
bytes.

A `Record` declares its fields once, as (name, kind) pairs in wire order;
`encode` and `decode` walk that table, with `Reader` as the only cursor, so
every framing fault is raised there. A record's signature or header digest
commits its leading `PREFIX` fields. A log file (`nodechain.bin`,
`vault.bin`) is its records' encodings, length-prefixed, end to end.
`encode_fields` builds the trace payloads, which are not records.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Callable, ClassVar, Iterable, NamedTuple

from .errors import IntegrityViolation

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")

ZERO32 = b"\x00" * 32


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def encode_u64(value: int) -> bytes:
    if value < 0:
        raise ValueError("canonical integers are unsigned")
    return _U64.pack(value)


def lp(field: bytes) -> bytes:
    """Length-prefix a single field."""
    return _U32.pack(len(field)) + field


def encode_fields(*fields: bytes | int) -> bytes:
    """Encode fields in order; ints are widened to 8-byte big-endian."""
    parts = []
    for field in fields:
        if isinstance(field, int):
            field = encode_u64(field)
        parts.append(lp(field))
    return b"".join(parts)


class Reader:
    """Sequential decoder for the length-prefixed encoding."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def exhausted(self) -> bool:
        return self._pos == len(self._data)

    def read_field(self) -> bytes:
        if self._pos + 4 > len(self._data):
            raise ValueError("truncated length prefix")
        (length,) = _U32.unpack_from(self._data, self._pos)
        self._pos += 4
        if self._pos + length > len(self._data):
            raise ValueError("truncated field body")
        field = self._data[self._pos : self._pos + length]
        self._pos += length
        return field

    def read_u64(self) -> int:
        field = self.read_field()
        if len(field) != 8:
            raise ValueError("integer field must be 8 bytes")
        return _U64.unpack(field)[0]


class Kind(NamedTuple):
    """How a field is written (`put`: value to bytes) and read (`take`: Reader to value)."""

    put: Callable
    take: Callable


BYTES = Kind(lp, Reader.read_field)
INT = Kind(lambda value: lp(encode_u64(value)), Reader.read_u64)
TEXT = Kind(lambda value: lp(value.encode()), lambda r: r.read_field().decode())


def token(cls) -> Kind:
    """A `Uid` or `TokenizedUid`: one field, its bytes."""
    return Kind(lambda value: lp(value.value), lambda r: cls(r.read_field()))


def nested(cls) -> Kind:
    """A record, as one field holding its encoding."""
    return Kind(lambda value: lp(value.encode()), lambda r: cls.decode(r.read_field()))


def counted(item: Kind) -> Kind:
    """A tuple: its length as an integer field, then each item."""
    return Kind(lambda values: INT.put(len(values)) + b"".join(map(item.put, values)),
                lambda r: tuple(item.take(r) for _ in range(r.read_u64())))


def narration(cls, fold: Callable, seed: bytes) -> Kind:
    """A counted tuple of tokens, each followed by its running digest from `seed`,
    `fold((token,), previous)`; decoding refuses a digest that does not chain."""
    def put(tokens: tuple) -> bytes:
        parts, digest = [INT.put(len(tokens))], seed
        for t in tokens:
            digest = fold((t,), digest)
            parts.append(lp(t.value) + lp(digest))
        return b"".join(parts)

    def take(r: Reader) -> tuple:
        tokens, digest = [], seed
        for _ in range(r.read_u64()):
            tokens.append(cls(r.read_field()))
            digest = fold(tokens[-1:], digest)
            if r.read_field() != digest:
                raise IntegrityViolation("narration digest does not chain")
        return tuple(tokens)

    return Kind(put, take)


class Immutable:
    """Frozen, and built of immutable values: a copy of a run shares it."""

    def __deepcopy__(self, memo):
        return self


class Record(Immutable):
    """A frozen dataclass whose bytes its `FIELDS` table declares: (attribute,
    kind) pairs in wire order, which need not be the dataclass's order. Its
    signature or header digest commits the leading `PREFIX` fields; `NOUN`
    names it when its bytes run on past the last field."""

    NOUN: ClassVar[str]
    FIELDS: ClassVar[tuple[tuple[str, Kind], ...]]
    PREFIX: ClassVar[int] = 0

    def __init_subclass__(cls, **kwargs):
        """Read the table once: each field's name and writer, in wire order."""
        super().__init_subclass__(**kwargs)
        cls._puts = tuple((name, put) for name, (put, _) in cls.FIELDS)

    def encode(self) -> bytes:
        return self._put(self._puts)

    def prefix(self) -> bytes:
        """The leading `PREFIX` fields, encoded."""
        return self._put(self._puts[: self.PREFIX])

    @classmethod
    def signing_bytes(cls, *values) -> bytes:
        """What `prefix()` gives for a record whose leading fields hold
        `values`: the bytes to sign before the record exists."""
        return b"".join([put(v) for (_, put), v in zip(cls._puts, values)])

    def _put(self, puts) -> bytes:
        return b"".join([put(getattr(self, name)) for name, put in puts])

    @classmethod
    def decode(cls, data: bytes):
        r = Reader(data)
        values = {name: take(r) for name, (_, take) in cls.FIELDS}
        if not r.exhausted():
            raise ValueError(f"trailing bytes after {cls.NOUN}")
        record = cls(**values)
        record.check_decoded()
        return record

    def check_decoded(self) -> None:
        """Refuse a decoded record whose own bytes show it forged, where it can tell."""


def encode_log(records: Iterable[Record]) -> bytes:
    """A log file: each record's encoding, length-prefixed, end to end."""
    return b"".join([lp(record.encode()) for record in records])


def decode_log(cls, data: bytes) -> list:
    """The `cls` records of a log file, in order."""
    r = Reader(data)
    return [cls.decode(r.read_field()) for _ in iter(r.exhausted, True)]
