"""Exception hierarchy shared across the protocol modules.

Protocol violations that a caller is expected to handle (bad input, stale
state, unauthorized access) raise subclasses of ProtocolError. Expected
negative outcomes that are part of normal operation -- a failed match, an
attack that was blocked -- are returned as values, not raised.
"""


class ProtocolError(Exception):
    """Base class for all protocol-level failures."""


# identity
class InvalidParameters(ProtocolError):
    """Extrinsic parameter set is malformed or incomplete."""


class InvalidKdf(ProtocolError):
    """Key-derivation parameters violate their invariants."""


# nodechain
class AlreadyInitialized(ProtocolError):
    """A genesis chain already exists for this network."""


class StaleState(ProtocolError):
    """Ledger-version counter does not match the expected next state."""


class IntegrityViolation(ProtocolError):
    """A block fails its link or digest checks on append."""


class EmptyChain(ProtocolError):
    """Operation requires a non-empty ledger."""


class UnknownNode(ProtocolError):
    """Enrollment index is outside the chain bounds."""


# layer-0 DAG
class NoTransactions(ProtocolError):
    """Candidate block has an empty matching transaction set."""


class UnknownBranch(ProtocolError):
    """Block type tag has no registered branch."""


class DuplicateBranch(ProtocolError):
    """Branch identifier is already registered."""


# consensus
class UnknownModule(ProtocolError):
    """Trusted-module identifier is absent from the genesis registry."""


class BadSignature(ProtocolError):
    """A signature fails verification against its declared public key."""


class AlreadyEnrolled(ProtocolError):
    """Extrinsic digest already holds a vault entry."""


class Unauthorized(ProtocolError):
    """Caller role is not permitted to perform this operation."""


class IdentityMismatch(ProtocolError):
    """Match layer between on-chain token and real identity failed."""


class EmptyRoster(ProtocolError):
    """Finality evaluation requires at least one enrolled identity."""


class BlockNotPending(ProtocolError):
    """Attestation names a block that is not, or no longer, pending."""


# vault
class IndexGap(ProtocolError):
    """Vault entry index is not the immediate successor of the current size."""


class DuplicateIdentity(ProtocolError):
    """Vault already binds this token or real identity."""


class ConsistencyViolation(ProtocolError):
    """Vault entry token does not tokenize from its real identity."""


class OfflineViolation(ProtocolError):
    """Vault access attempted from a network (remote) context."""


# simulation / model
class ConfigError(ProtocolError):
    """Scenario configuration is malformed; message names the offending key."""


class DomainError(ProtocolError):
    """Numeric argument outside its admissible domain."""
