"""Transaction processing: database wiring, 2PL+2PC and OCC baselines."""

from .commit_fsm import (CommitFsm, CommitTable, InvalidTransition,
                         PreparedEntry, SimulatedCrash, TxnPhase,
                         recover_database, recovery_program,
                         resolve_in_doubt_local)
from .common import (AbortReason, CommitLog, Outcome, TxnRequest,
                     next_txn_id)
from .database import Database
from .executor import BaseExecutor, TxnState
from .history import HistoryRecorder
from .occ import OccExecutor
from .twopl import TwoPLExecutor

__all__ = [
    "AbortReason",
    "BaseExecutor",
    "CommitFsm",
    "CommitLog",
    "CommitTable",
    "Database",
    "HistoryRecorder",
    "InvalidTransition",
    "OccExecutor",
    "Outcome",
    "PreparedEntry",
    "SimulatedCrash",
    "TwoPLExecutor",
    "TxnPhase",
    "TxnRequest",
    "TxnState",
    "next_txn_id",
    "recover_database",
    "recovery_program",
    "resolve_in_doubt_local",
]
