"""FlexiChain 2.0 / NodeChain: a layer-0 ledger with hardware-rooted identity.

The package implements the protocol layer (identity derivation, the
NodeChain of virtual existence blocks, the layer-0 DAG of data blocks,
Proof of Rapid Authentication, and the offline vault), a deterministic
simulation harness with an explicit adversary model, and the analytic
attack-probability model with its published reference tables.
"""

from .consensus import FinalityMode, genesis
from .identity import (
    ExtrinsicParameters,
    KdfParameters,
    TokenizedUid,
    Uid,
    derive_uid,
    hash_extrinsic,
    match_layer,
    tokenize_uid,
)
from .netsim import monte_carlo_attack, run_scenario
from .nodechain import NodeChainLedger, verify_chain
from .scenario import ScenarioConfig
from .vault import NodeRole, Vault, VaultEntry

__version__ = "0.1.0"

__all__ = [
    "ExtrinsicParameters",
    "FinalityMode",
    "KdfParameters",
    "NodeChainLedger",
    "NodeRole",
    "ScenarioConfig",
    "TokenizedUid",
    "Uid",
    "Vault",
    "VaultEntry",
    "derive_uid",
    "genesis",
    "hash_extrinsic",
    "match_layer",
    "monte_carlo_attack",
    "run_scenario",
    "tokenize_uid",
    "verify_chain",
    "__version__",
]
