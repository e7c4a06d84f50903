"""Committed-history recording and conflict-serializability checking.

Every executor can log, per committed transaction, which record versions
it read and which versions its writes produced.  From those logs we
reconstruct the direct-conflict (precedence) graph:

* w->w: writers of the same record, ordered by produced version;
* w->r: the writer of version v precedes every reader of v (or later);
* r->w: a reader of version v precedes the writer that produced the next
  version.

The execution was conflict-serializable iff this graph is acyclic —
the correctness oracle for all three executors in the integration and
property tests.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from typing import Any

from .common import CommitLog


class HistoryRecorder:
    """Accumulates commit logs."""

    def __init__(self) -> None:
        self.commits: list[CommitLog] = []

    def record(self, log: CommitLog) -> None:
        self.commits.append(log)

    # -- checking -------------------------------------------------------

    def precedence_edges(self) -> set[tuple[int, int]]:
        """Direct-conflict edges between committed transaction ids."""
        # per record: version -> writer txn, and list of (version, reader)
        writers: dict[Any, dict[int, int]] = defaultdict(dict)
        readers: dict[Any, list[tuple[int, int]]] = defaultdict(list)
        for log in self.commits:
            for rid, version in self.writes_collapsed(log):
                existing = writers[rid].get(version)
                if existing is not None and existing != log.txn_id:
                    raise ValueError(
                        f"two transactions ({existing}, {log.txn_id}) both "
                        f"claim to have produced version {version} of {rid}"
                        f" - lost update!")
                writers[rid][version] = log.txn_id
            for rid, version in log.reads:
                readers[rid].append((version, log.txn_id))

        edges: set[tuple[int, int]] = set()
        for rid, by_version in writers.items():
            ordered = sorted(by_version)
            # w->w edges in version order
            for v1, v2 in zip(ordered, ordered[1:]):
                a, b = by_version[v1], by_version[v2]
                if a != b:
                    edges.add((a, b))
            for read_version, reader in readers[rid]:
                # versions ordered[:at] are at or before what the reader
                # saw: one binary search, not a rescan per read
                at = bisect_right(ordered, read_version)
                # w->r: last writer at or before what the reader saw
                if at:
                    writer = by_version[ordered[at - 1]]
                    if writer != reader:
                        edges.add((writer, reader))
                # r->w: first writer strictly after what the reader saw
                if at < len(ordered):
                    writer = by_version[ordered[at]]
                    if writer != reader:
                        edges.add((reader, writer))
        return edges

    @staticmethod
    def writes_collapsed(log: CommitLog) -> list[tuple[Any, int]]:
        """A txn updating a record twice keeps only its final version;
        a delete's version counts without its sign."""
        final: dict[Any, int] = {}
        for rid, version in log.writes:
            final[rid] = max(abs(version), final.get(rid, -1))
        return list(final.items())

    def store_mismatches(self, db) -> list[tuple]:
        """``(copy, rid, committed, stored)`` for each copy of a record
        the history wrote (``"primary"`` or a replica's server) that,
        once the run has quiesced, does not hold what its last committed
        write left (``stored`` None: absent).  An insert commits 0 and
        an update the next version, which the copy must hold; a delete
        commits its version negated (``PartitionStore.apply``), and the
        copy must then be absent."""
        last: dict[Any, int] = {}
        for log in self.commits:
            for rid, version in log.writes:
                if rid not in last or abs(version) > abs(last[rid]):
                    last[rid] = version
        replicas = db.replicas
        mismatches = []
        for (table, key), committed in last.items():
            pid = db.partition_of(table, key)
            copies = [("primary", db.store(pid))]
            if replicas is not None:
                copies += [(server, replicas.store_on(server, pid))
                           for server in replicas.replica_servers(pid)]
            for copy, store in copies:
                stored = store.version_of(table, key)
                if (stored is not None if committed < 0
                        else stored != committed):
                    mismatches.append((copy, (table, key), committed,
                                       stored))
        return mismatches

    def is_serializable(self) -> bool:
        return self.find_cycle() is None

    def find_cycle(self) -> list[int] | None:
        """A cycle in the precedence graph, or None if acyclic."""
        edges = self.precedence_edges()
        adjacency: dict[int, list[int]] = defaultdict(list)
        nodes: set[int] = set()
        for a, b in edges:
            adjacency[a].append(b)
            nodes.update((a, b))

        WHITE, GRAY, BLACK = 0, 1, 2
        color = {n: WHITE for n in nodes}
        parent: dict[int, int] = {}

        for start in sorted(nodes):
            if color[start] != WHITE:
                continue
            stack = [(start, iter(adjacency[start]))]
            color[start] = GRAY
            while stack:
                node, children = stack[-1]
                advanced = False
                for child in children:
                    if color[child] == WHITE:
                        color[child] = GRAY
                        parent[child] = node
                        stack.append((child, iter(adjacency[child])))
                        advanced = True
                        break
                    if color[child] == GRAY:
                        # found a cycle: unwind it
                        cycle = [child, node]
                        cursor = node
                        while cursor != child:
                            cursor = parent[cursor]
                            cycle.append(cursor)
                        cycle.reverse()
                        return cycle
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return None
