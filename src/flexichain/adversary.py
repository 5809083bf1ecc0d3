"""The adversary: attacks attempted through the network's public surface.

Adversaries are modeled by an explicit capability lattice. An attack event
holds a subset of {constructed_keys, module_key, vault_access, tuids} and
attempts its category's protocol actions with exactly those secrets. Its
outcome is the dict `summary.json` lists under `attacks`: the category,
whether it succeeded, and the first check that blocked it (module registry,
signature, ledger validation, NNS gate, vault access, offline gate, match
layer, or finality quorum). A final fraud block must pass
`Layer0Ledger.append_block`, as an honest one does. Knowing TUIDs grants
nothing extra: they are already public on chain.

The adversary is a client of the `Network`: it reads no private name of
any object, so its powers are the public calls it makes. README.md lists
them under "Adversary surface", and `tests/test_imports.py` checks that
this module reads nothing else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import dag
from .consensus import check_finality
from .errors import OfflineViolation, ProtocolError, UnknownBranch
from .identity import match_layer
from .scenario import SYBIL_PREFIX, extrinsic, material
from .vault import CallOrigin, NodeRole
from .wire import encode_fields

if TYPE_CHECKING:
    from .netsim import Network, NodeState

# Key brute force: the one attack category that looks the vault up remotely.
REMOTE_VAULT_CATEGORY = 4


def _attack_bytes(ev: dict) -> bytes:
    """The trace payload of a parsed attack event."""
    return encode_fields(
        ev["category"],
        ",".join(ev["targets"]).encode(),
        ",".join(sorted(ev["secrets"])).encode(),
        b"\x01" if ev["stale_ledger"] else b"\x00",
        b"\x01" if ev["category"] == REMOTE_VAULT_CATEGORY else b"\x00",
        (ev["branch"] or "").encode(),
    )


def inject_attack(net: Network, ev: dict) -> dict:
    """Attempt one attack category with exactly the parsed event's secrets.

    The adversary walks the protocol in its category's natural order and
    the outcome records the first check that stopped it. Nothing here
    bypasses the protocol surface: enrollment goes through the real
    responder, vault access goes through provenance-tagged lookups, and
    finality is evaluated with the real narration rules. The trace records
    the attempt first and its outcome last, both as the adversary's.

    Stages: module registry, signature, ledger validation (no such branch),
    NNS gate, vault access, offline gate, match layer, finality quorum, and
    ledger validation (`append_block`, which keeps a block it accepts).
    """
    category, targets, secrets = ev["category"], ev["targets"], ev["secrets"]
    net.record("adversary", "attack", _attack_bytes(ev))

    def blocked(stage: str | None, detail: str) -> dict:
        net.record("adversary", "attack_outcome", encode_fields(
            category, b"\x01" if stage is None else b"\x00",
            (stage or "").encode(), detail.encode(),
        ))
        return {"category": category, "succeeded": stage is None,
                "blocked_at": stage, "detail": detail}

    # Fabricated-identity enrollment. Mandatory for Sybil; any category
    # holding a registered module key may strengthen itself the same way.
    fake: NodeState | None = None
    if category == 1 and "module_key" not in secrets:
        return blocked("module registry", "no registered module key")
    if "module_key" in secrets:
        fake = _enroll_fabricated_identity(net)
        if fake is None:
            return blocked("module registry", "no responder accepted enrollment")

    # Author the fraudulent block.
    if fake is not None:
        author = fake
    elif "constructed_keys" in secrets and targets:
        author = net.nodes[targets[0]]
    else:
        return blocked("signature", "no usable signing identity")
    try:
        block = _craft_fraud_block(net, author, ev["branch"])
    except UnknownBranch as exc:  # the ledger has no arcs to offer
        return blocked("ledger validation", str(exc))

    # NNS gate: an adversary replaying against a stale ledger view.
    if ev["stale_ledger"]:
        return blocked("NNS gate", "ledger version cursor lags the network")

    # Authentication: the adversary attests as every identity it can sign
    # for, acquiring each real UID through the only channels that exist.
    attempt_order: list[NodeState] = []
    if "constructed_keys" in secrets:
        attempt_order.extend(net.nodes[name] for name in targets)
    if fake is not None:
        attempt_order.append(fake)

    # No vault lookup changes whether a node is online: one scan serves all.
    remote = category == REMOTE_VAULT_CATEGORY
    reads_vault = "vault_access" in secrets or remote
    vault_offline = reads_vault and not any(n.online for n in net.full_nodes())
    for actor in attempt_order:
        if not actor.enrolled:
            continue
        if vault_offline:
            return blocked("vault access", "no full node is online")
        if "vault_access" in secrets:
            # Compromised full-node endpoint: reads carry local provenance.
            uid = net.vault.lookup(actor.tuid, CallOrigin.LOCAL).real_uid
        elif remote:
            try:
                uid = net.vault.lookup(actor.tuid, CallOrigin.REMOTE).real_uid
            except OfflineViolation:
                return blocked("offline gate", "remote vault lookup rejected")
        else:
            return blocked("match layer", f"no real UID for {actor.name}")
        if not match_layer(actor.tuid, uid, net.config.token_salt):
            return blocked("match layer", f"token mismatch for {actor.name}")
        block = block.with_narration_entry(actor.tuid)

    if not check_finality(block, *net.finality):
        return blocked("finality quorum", "insufficient authenticators")
    try:
        net.layer0.append_block(block, *net.finality)
    except ProtocolError as exc:
        return blocked("ledger validation", str(exc))
    net.record("adversary", "fraud_finalized", block.encode())
    return blocked(None, "fraudulent block finalized")


def _enroll_fabricated_identity(net: Network) -> NodeState | None:
    """Enroll a Sybil identity with a stolen (real) module key."""
    net.fabrications += 1
    number, seed = net.fabrications, net.config.seed
    name = f"{SYBIL_PREFIX}{number}"
    fake = net.new_node(
        {"name": name, "role": NodeRole.CPS_IOT, "module": net.config.modules[0], "via": None,
         "extrinsic": extrinsic(seed, name, {})},
        material(seed, "sybil-key", number),
    )
    try:
        request = net.request(fake, material(seed, "sybil-nonce", number))
        response = net.respond(net.responder(), fake, request)
    except ProtocolError:
        return None
    net.record(name, "attack_enroll", response.encode())
    # The fabricated device has no genuine hardware (hardware_uid stays
    # None): its real UID exists only inside the vault.
    net.nodes[name] = fake
    return fake


def _craft_fraud_block(net: Network, author: NodeState, branch: str | None) -> dag.DataBlock:
    """A forged block on `branch` (None: tag "B"), signed by `author`."""
    tag = "B" if branch is None else net.layer0.branches[branch]
    payload = material(net.config.seed, "fraud", net.fabrications, author.name)
    tx = dag.Transaction.signed(
        author.signing_key, author.public_id, tag, payload, net.clock
    )
    candidate = dag.build_candidate_block(
        [tx], author.public_id, tag, (net.clock, net.clock + 1)
    )
    return candidate.with_parents(*net.layer0.select_parents(candidate))
