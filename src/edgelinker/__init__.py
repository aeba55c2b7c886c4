"""EdgeLinker: permissioned PoA ledger, secure device channel, and benchmark simulator."""

from .channel import (
    ChannelMessage,
    Endpoint,
    KeyPair,
    SecureEnvelope,
    derive_shared_key,
    generate_keypair,
    open_message,
    seal_message,
)
from .chain import Block, Chain, GasSchedule, GenesisConfig, Transaction, build_block, hash_block, validate_block
from .contracts import WorldState, execute_transaction, read_history
from .consensus import ConsensusEngine, select_proposer
from .node import FogNode
from .sim import LinkModel, ScenarioConfig, run_scenario

__version__ = "0.1.0"

__all__ = [
    "Block",
    "Chain",
    "ChannelMessage",
    "ConsensusEngine",
    "Endpoint",
    "FogNode",
    "GasSchedule",
    "GenesisConfig",
    "KeyPair",
    "LinkModel",
    "ScenarioConfig",
    "SecureEnvelope",
    "Transaction",
    "WorldState",
    "build_block",
    "derive_shared_key",
    "execute_transaction",
    "generate_keypair",
    "hash_block",
    "open_message",
    "read_history",
    "run_scenario",
    "seal_message",
    "select_proposer",
    "validate_block",
]
