"""Identity derivation tests: containers, UIDG pipeline, match layer.

The hash submodules are pinned to their public reference vectors first
(FIPS 180-4 for SHA-256, RFC 7914 section 12 for scrypt); everything else
is checked against those primitives recombined independently.
"""

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexichain import identity
from flexichain.errors import InvalidKdf, InvalidParameters
from flexichain.identity import (
    KdfParameters,
    TokenizedUid,
    Uid,
    derive_uid,
    hash_extrinsic,
    match_layer,
    scrypt_kdf,
    tokenize_uid,
    zero_uid,
)
from flexichain.keys import signing_key_from_seed
from flexichain.wire import Reader, encode_u64, lp

from conftest import CHEAP_KDF, make_params

# FIPS 180-4: SHA-256("")
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# RFC 7914 section 12 reference vectors: (password, salt, N, r, p, dkLen, output)
SCRYPT_VECTORS = [
    (b"", b"", 16, 1, 1, 64,
     "77d6576238657b203b19ca42c18a0497f16b4844e3074ae8dfdffa3fede21442"
     "fcd0069ded0948f8326a753a0fc81f17e8d3e0fb2e0d3628cf35e20c38d18906"),
    (b"password", b"NaCl", 1024, 8, 16, 64,
     "fdbabe1c9d3472007856e7190d01e9fe7c6ad7cbc8237830e77376634b373162"
     "2eaf30d92e22a3886ff109279d9830dac727afb94a83ee6d8360cbdfa2cc0640"),
    (b"pleaseletmein", b"SodiumChloride", 16384, 8, 1, 64,
     "7023bdcb3afd7348461c06cd81fd38ebfda8fbba904f8e3ea9b543f6545da1f2"
     "d5432955613f0fcf62d49705242a9af9e61e85dc0d651e40dfcf017b45575887"),
    (b"pleaseletmein", b"SodiumChloride", 1048576, 8, 1, 64,
     "2101cb9b6a511aaeaddbbe09cf70f881ec568d574a2ffd4dabe5ee9820adaa47"
     "8e56fd8f4ba5d09ffa1c6d927c40f4c337304049e8a952fbcbf45c6fa77a41a4"),
]


# ---------------------------------------------------------------------------
# Submodule conformance
# ---------------------------------------------------------------------------

def test_sha256_empty_reference_vector():
    assert hashlib.sha256(b"").hexdigest() == SHA256_EMPTY
    assert SHA256_EMPTY.startswith("e3b0c442")


@pytest.mark.parametrize("password,salt,n,r,p,dklen,expected", SCRYPT_VECTORS[:3])
def test_scrypt_reference_vectors(password, salt, n, r, p, dklen, expected):
    assert scrypt_kdf(password, salt, n, r, p, dklen).hex() == expected


def test_scrypt_first_vector_prefix():
    out = scrypt_kdf(b"", b"", 16, 1, 1, 64)
    assert out[:8].hex() == "77d6576238657b20"


@settings(max_examples=60, deadline=None)
@given(
    password=st.binary(max_size=64),
    salt=st.binary(max_size=64),
    log_cost=st.integers(1, 10),
    block_size=st.integers(1, 4),
    parallelism=st.integers(1, 2),
    length=st.integers(1, 256),
)
def test_scrypt_kdf_equals_hashlib(password, salt, log_cost, block_size, parallelism, length):
    # hashlib.scrypt is the independent oracle; the package never calls it.
    cost = 2**log_cost
    expected = hashlib.scrypt(password, salt=salt, n=cost, r=block_size, p=parallelism,
                              dklen=length, maxmem=64 << 20)
    assert scrypt_kdf(password, salt, cost, block_size, parallelism, length) == expected


# ---------------------------------------------------------------------------
# Extrinsic parameters and containers
# ---------------------------------------------------------------------------

def test_canonical_serialization_is_deterministic():
    params = make_params("node-a")
    assert params.prefix() == make_params("node-a").prefix()


def test_canonical_order_sensitivity():
    # Swap two same-length field values: the digest must change because the
    # serialization is positional, not content-addressed.
    params = make_params("node-a")
    swapped = dataclasses.replace(
        params,
        firmware_digest=params.puf_signature,
        puf_signature=params.firmware_digest,
    )
    c1, _ = hash_extrinsic(params)
    c1_swapped, _ = hash_extrinsic(swapped)
    assert c1 != c1_swapped


def test_hash_extrinsic_containers():
    params = make_params("node-a")
    c1, c2 = hash_extrinsic(params)
    assert c1 == hashlib.sha256(params.prefix()).digest()
    assert c2 == params.constructed_public_id
    # The constructed ID is excluded from container 1.
    other_key = make_params("node-b").constructed_public_id
    rekeyed = dataclasses.replace(params, constructed_public_id=other_key)
    assert hash_extrinsic(rekeyed)[0] == c1


def test_hash_extrinsic_rejects_non_params():
    with pytest.raises(InvalidParameters):
        hash_extrinsic(b"not parameters")


@pytest.mark.parametrize(
    "field,value",
    [
        ("mac_address", b"\x00" * 5),
        ("firmware_digest", b"\x00" * 31),
        ("puf_signature", b""),
        ("process_power_class", -1),
        ("location_tag", b""),
        ("ip_address", b"\x00" * 5),
        ("constructed_public_id", b"\x00" * 31),
    ],
)
def test_malformed_parameters_rejected(field, value):
    good = make_params("node-a")
    with pytest.raises(InvalidParameters):
        dataclasses.replace(good, **{field: value})


# ---------------------------------------------------------------------------
# UID derivation
# ---------------------------------------------------------------------------

def test_derive_uid_deterministic_and_sized():
    c1, _ = hash_extrinsic(make_params("node-a"))
    uid1 = derive_uid(c1, zero_uid(), CHEAP_KDF)
    uid2 = derive_uid(c1, zero_uid(), CHEAP_KDF)
    assert uid1 == uid2
    assert len(uid1.value) == 128


def test_derive_uid_matches_raw_pipeline():
    # Independent recombination: sha256 then scrypt straight from hashlib.
    c1, _ = hash_extrinsic(make_params("node-a"))
    prev = zero_uid()
    expected = hashlib.scrypt(
        hashlib.sha256(c1 + prev.value).digest(),
        salt=CHEAP_KDF.salt,
        n=CHEAP_KDF.cost,
        r=CHEAP_KDF.block_size,
        p=CHEAP_KDF.parallelism,
        dklen=CHEAP_KDF.output_length,
        maxmem=64 * 1024 * 1024,
    )
    assert derive_uid(c1, prev, CHEAP_KDF).value == expected


def test_derive_uid_chain_sensitivity():
    c1, _ = hash_extrinsic(make_params("node-a"))
    uid_genesis = derive_uid(c1, zero_uid(), CHEAP_KDF)
    uid_chained = derive_uid(c1, uid_genesis, CHEAP_KDF)
    assert uid_genesis != uid_chained


def test_derive_uid_chain_sensitivity_random_sample():
    rng = random.Random(0xC5A1)
    c1, _ = hash_extrinsic(make_params("node-a"))
    seen = set()
    prev = zero_uid()
    for _ in range(16):
        prev = Uid(rng.randbytes(128))
        uid = derive_uid(c1, prev, CHEAP_KDF)
        assert uid.value not in seen
        seen.add(uid.value)


@pytest.mark.parametrize(
    "make,error,message",
    [
        (lambda: Uid(b""), InvalidParameters, "uid must be non-empty"),
        (lambda: encode_u64(-1), ValueError, "canonical integers are unsigned"),
        (lambda: signing_key_from_seed(b"\x00" * 31), ValueError, "seed must be 32 bytes"),
        (lambda: TokenizedUid(b"\x00" * 31), InvalidParameters, "tuid must be 32 bytes"),
        (lambda: TokenizedUid(b"\x00" * 33), InvalidParameters, "tuid must be 32 bytes"),
        # A length prefix that promises more bytes than follow it.
        (lambda: Reader(lp(b"abc")[:-1]).read_field(), ValueError, "truncated field body"),
    ],
    ids=["empty-uid", "negative-integer", "short-key-seed", "tuid-31-bytes",
         "tuid-33-bytes", "truncated-field-body"],
)
def test_primitives_refuse_malformed_input(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_derive_uid_rejects_bad_inputs():
    with pytest.raises(InvalidParameters):
        derive_uid(b"\x00" * 16, zero_uid(), CHEAP_KDF)
    with pytest.raises(InvalidKdf):
        derive_uid(b"\x00" * 32, zero_uid(), "not a kdf")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"cost": 15},
        {"cost": 1},
        {"cost": 0},
        {"block_size": 0},
        {"parallelism": 0},
        {"output_length": 0},
    ],
)
def test_kdf_parameter_validation(kwargs):
    base = {"cost": 16, "block_size": 1, "parallelism": 1, "salt": b"s"}
    base.update(kwargs)
    with pytest.raises(InvalidKdf):
        KdfParameters(**base)


@pytest.mark.parametrize("block_size", [0, -1])
def test_kdf_refuses_a_block_size_below_one_by_name(block_size):
    # Without its own check, scrypt's limit would report "cost >= 2^(16 * block_size)".
    with pytest.raises(InvalidKdf, match="block_size must be positive"):
        KdfParameters(cost=16, block_size=block_size, parallelism=1, salt=b"s")


@pytest.mark.parametrize(
    "cost,block_size,parallelism,length",
    [
        (2**40, 8, 1, 128),  # maxmem beyond 2^31 - 1
        (2**16, 1, 1, 128),  # OpenSSL's N < 2^(16 r)
        (1024, 2**20, 1, 128),
        (16, 1, 2**64 - 1, 128),  # beyond a C long
        (16, 1, 1, 2**31),  # dklen
        (3, 1, 1, 128),  # cost not a power of two
        (1, 1, 1, 128),
        (16, 0, 1, 128),
        (16, 1, 0, 128),
        (-2**64, 1, 1, 128),  # below a C unsigned long
        (16, 1, 1, 0),
        # B and V (128 * r * (N + p + 2) bytes) beyond the budget.
        (2, 2**20, 1, 128),
        (2, 8_000_000, 1, 128),
    ],
)
def test_scrypt_parameters_hashlib_refuses_raise_invalid_kdf(
    cost, block_size, parallelism, length
):
    with pytest.raises(InvalidKdf, match="scrypt refuses"):
        scrypt_kdf(b"pw", b"salt", cost, block_size, parallelism, length)


@pytest.mark.parametrize(
    "cost,block_size,parallelism,length",
    [
        (2**40, 8, 1, 128),
        (1024, 2**20, 1, 128),
        (16, 1, 2**64 - 1, 128),
        (2**24, 8, 1, 128),
        # 128 * 2^14 * 1008 + 32 MiB is 2^31, one byte beyond the limit;
        # 1007 would be accepted and allocate about 2 GiB.
        (2**14, 1008, 1, 128),
        (2**14, 1, 1008, 128),
        # The budget fits, but B and V (640 MiB; about 5 GiB) do not.
        (2, 2**20, 1, 128),
        (2, 8_000_000, 1, 128),
        (16, 1, 1, 2**31),
        (16, 1, 1, 0),
        (16, 1, 1, -1),
    ],
)
def test_scrypt_limits_refuse_before_the_kernel_is_built(
    monkeypatch, cost, block_size, parallelism, length
):
    def built(**kwargs):
        raise AssertionError(f"Scrypt constructed with {kwargs}")

    monkeypatch.setattr(identity, "Scrypt", built)
    with pytest.raises(InvalidKdf, match="scrypt refuses"):
        scrypt_kdf(b"pw", b"salt", cost, block_size, parallelism, length)


def test_avalanche_over_single_bit_flips():
    # Flipping any single container bit should flip about half of the UID
    # bits; require the >= 25% average over 1000 random flips.
    rng = random.Random(0xA1A)
    base = hash_extrinsic(make_params("node-a"))[0]
    base_uid = derive_uid(base, zero_uid(), CHEAP_KDF).value
    total_bits = len(base_uid) * 8
    fractions = []
    for _ in range(1000):
        bit = rng.randrange(256)
        flipped = bytearray(base)
        flipped[bit // 8] ^= 1 << (bit % 8)
        uid = derive_uid(bytes(flipped), zero_uid(), CHEAP_KDF).value
        diff = int.from_bytes(base_uid, "big") ^ int.from_bytes(uid, "big")
        fractions.append(diff.bit_count() / total_bits)
    assert sum(fractions) / len(fractions) >= 0.25


# ---------------------------------------------------------------------------
# Tokenization and match layer
# ---------------------------------------------------------------------------

def test_tokenize_uid_reference_recomputation():
    uid = derive_uid(hash_extrinsic(make_params("node-a"))[0], zero_uid(), CHEAP_KDF)
    tuid = tokenize_uid(uid, b"salt-1")
    assert tuid.value == hashlib.sha256(uid.value + b"salt-1").digest()
    assert len(tuid.value) == 32
    assert tuid.value != uid.value


def test_tokenize_uid_salt_sensitivity():
    uid = Uid(b"\x07" * 128)
    assert tokenize_uid(uid, b"salt-1") == tokenize_uid(uid, b"salt-1")
    assert tokenize_uid(uid, b"salt-1") != tokenize_uid(uid, b"salt-2")


def test_match_layer_round_trip():
    rng = random.Random(0x10AD)
    for _ in range(64):
        uid = Uid(rng.randbytes(128))
        salt = rng.randbytes(16)
        assert match_layer(tokenize_uid(uid, salt), uid, salt)


def test_match_layer_rejects_wrong_uid_or_salt():
    uid, other = Uid(b"\x01" * 128), Uid(b"\x02" * 128)
    salt = b"salt-1"
    tuid = tokenize_uid(uid, salt)
    assert not match_layer(tuid, other, salt)
    assert not match_layer(tuid, uid, b"salt-2")
    assert not match_layer(TokenizedUid(b"\x00" * 32), uid, salt)
