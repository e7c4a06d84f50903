"""NAM-DB-style storage: records, per-bucket lock words, partitions."""

from .bucket import BucketStore, Key, RecordId
from .catalog import Catalog, PlacementScheme
from .locks import LockMode, LockWord
from .partition import ContentionSpanTracker, PartitionStore, TableSpec
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
    "RecordId",
    "RecoveryStats",
    "TableSpec",
    "WalSpec",
    "WriteAheadLog",
    "as_wal_spec",
    "replay_wal",
    "wal_path",
]
