"""Records and record identifiers.

A record is a primary key plus a flat dict of named fields and a version
counter (bumped on every write; used by the OCC validator).  Records are
identified globally by ``RecordId = (table_name, primary_key)``.
"""

from __future__ import annotations

from typing import Any

Key = Any
RecordId = tuple[str, Key]


class Record:
    """One row of a table."""

    __slots__ = ("key", "fields", "version")

    def __init__(self, key: Key, fields: dict[str, Any],
                 version: int = 0):
        self.key = key
        self.fields = fields
        self.version = version

    def snapshot(self) -> dict[str, Any]:
        """A defensive copy of the fields (value semantics for readers)."""
        return dict(self.fields)

    def apply(self, updates: dict[str, Any]) -> None:
        """Merge ``updates`` into the fields and bump the version."""
        self.fields.update(updates)
        self.version += 1

    def __repr__(self) -> str:
        return f"Record({self.key!r}, v{self.version})"
