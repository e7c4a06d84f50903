"""Dependency graphs over stored-procedure operations (paper Section 3.2).

Nodes are the procedure's operations.  A **pk-dep** edge ``a -> b`` means
b's primary key is only known after a executes; pk-deps are the *only*
constraint on lock-acquisition order.  **v-dep** edges (new values known
only after a read) are tracked for completeness and for deferred
evaluation (outer-region phase 2), but do not restrict reordering —
exactly the distinction the paper draws.
"""

from __future__ import annotations

from typing import Iterable

from .ops import OpKind, OpSpec
from .procedures import StoredProcedure


class DependencyGraph:
    """Immutable dependency structure of one stored procedure."""

    def __init__(self, nodes: list[str],
                 pk_edges: Iterable[tuple[str, str]],
                 v_edges: Iterable[tuple[str, str]],
                 conditional: set[str] | None = None):
        self.nodes = list(nodes)
        node_set = set(self.nodes)
        self.pk_edges = sorted(set(pk_edges))
        self.v_edges = sorted(set(v_edges))
        self.conditional = set(conditional or ())
        for a, b in list(self.pk_edges) + list(self.v_edges):
            if a not in node_set or b not in node_set:
                raise ValueError(f"edge ({a!r}, {b!r}) references unknown op")
        self._pk_children: dict[str, list[str]] = {n: [] for n in self.nodes}
        self._pk_parents: dict[str, list[str]] = {n: [] for n in self.nodes}
        for a, b in self.pk_edges:
            self._pk_children[a].append(b)
            self._pk_parents[b].append(a)
        self._assert_acyclic()

    @classmethod
    def from_procedure(cls, proc: StoredProcedure) -> "DependencyGraph":
        """Static analysis: build the graph at registration time."""
        nodes = proc.op_names()
        pk_edges: list[tuple[str, str]] = []
        v_edges: list[tuple[str, str]] = []
        conditional: set[str] = set()
        for spec in proc.ops:
            for src in spec.pk_sources():
                pk_edges.append((src, spec.name))
            for src in spec.all_value_deps():
                v_edges.append((src, spec.name))
            if spec.conditional:
                conditional.add(spec.name)
        return cls(nodes, pk_edges, v_edges, conditional)

    # -- queries ---------------------------------------------------------

    def pk_children(self, name: str) -> list[str]:
        return list(self._pk_children[name])

    def has_pk_children(self, name: str) -> bool:
        return bool(self._pk_children[name])

    def is_legal_order(self, order: list[str]) -> bool:
        """True iff every pk-dep edge goes forward in ``order``."""
        if sorted(order) != sorted(self.nodes):
            return False
        position = {name: i for i, name in enumerate(order)}
        return all(position[a] < position[b] for a, b in self.pk_edges)

    def _assert_acyclic(self) -> None:
        indegree = {n: len(self._pk_parents[n]) for n in self.nodes}
        ready = [n for n, d in indegree.items() if d == 0]
        visited = 0
        while ready:
            node = ready.pop()
            visited += 1
            for child in self._pk_children[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        if visited != len(self.nodes):
            raise ValueError("pk-dependency graph contains a cycle")

    # -- presentation ------------------------------------------------------

    def to_dot(self) -> str:
        """GraphViz rendering (solid = pk-dep, dashed = v-dep, blue =
        conditional), mirroring Fig. 4's color coding."""
        lines = ["digraph deps {"]
        for node in self.nodes:
            color = ", color=blue" if node in self.conditional else ""
            lines.append(f'  "{node}" [shape=ellipse{color}];')
        for a, b in self.pk_edges:
            lines.append(f'  "{a}" -> "{b}" [style=solid];')
        for a, b in self.v_edges:
            if (a, b) not in set(self.pk_edges):
                lines.append(f'  "{a}" -> "{b}" [style=dashed];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"DependencyGraph({len(self.nodes)} ops, "
                f"{len(self.pk_edges)} pk-deps, {len(self.v_edges)} v-deps)")
