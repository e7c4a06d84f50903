"""NAM-DB-style storage: records, per-bucket lock words, partitions."""

from .bucket import BucketStore
from .catalog import Catalog, PlacementScheme
from .locks import LockMode, LockWord
from .partition import ContentionSpanTracker, PartitionStore, TableSpec
from .record import Key, Record, RecordId
from .wal import (RecoveryStats, WalSpec, WriteAheadLog, as_wal_spec,
                  replay_wal, wal_path)

__all__ = [
    "BucketStore",
    "Catalog",
    "ContentionSpanTracker",
    "Key",
    "LockMode",
    "LockWord",
    "PartitionStore",
    "PlacementScheme",
    "Record",
    "RecordId",
    "RecoveryStats",
    "TableSpec",
    "WalSpec",
    "WriteAheadLog",
    "as_wal_spec",
    "replay_wal",
    "wal_path",
]
