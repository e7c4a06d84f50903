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

from collections import defaultdict
from typing import Any

from .common import CommitLog


class HistoryRecorder:
    """Accumulates commit logs (cheap no-op when disabled)."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.commits: list[CommitLog] = []

    def record(self, log: CommitLog) -> None:
        if self.enabled:
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
                # w->r: last writer at or before what the reader saw
                before = [v for v in ordered if v <= read_version]
                if before:
                    writer = by_version[before[-1]]
                    if writer != reader:
                        edges.add((writer, reader))
                # r->w: first writer strictly after what the reader saw
                after = [v for v in ordered if v > read_version]
                if after:
                    writer = by_version[after[0]]
                    if writer != reader:
                        edges.add((reader, writer))
        return edges

    @staticmethod
    def writes_collapsed(log: CommitLog) -> list[tuple[Any, int]]:
        """A txn updating a record twice keeps only its final version."""
        final: dict[Any, int] = {}
        for rid, version in log.writes:
            final[rid] = max(version, final.get(rid, -1))
        return list(final.items())

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
