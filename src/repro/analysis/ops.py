"""Operation IR for stored procedures.

Each operation of a stored procedure becomes one node of the dependency
graph (Fig. 4 of the paper).  Five kinds:

* ``READ``   — read a record, optionally taking a write lock up front
               (``read_with_wl`` in the paper) when a later UPDATE
               targets it.
* ``UPDATE`` — modify the record previously read by ``target``.
* ``INSERT`` — create a record (key may be a :class:`DerivedKey`).
* ``DELETE`` — remove a record previously read by ``target``.
* ``CHECK``  — evaluate a predicate over bound values; if it fails, the
               transaction logically aborts (the ``else abort`` branch
               of the paper's flight-booking example).

Operations declare *value dependencies* explicitly (or implicitly via
``target``); primary-key dependencies come from their key expressions.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Mapping

from ..storage.locks import LockMode
from .keys import DerivedKey, KeyExpr, ParamKey

Params = Mapping[str, Any]
SemanticFn = Callable[[Params, Mapping[str, Any], Any], Any]


class OpKind(enum.Enum):
    READ = "read"
    UPDATE = "update"
    INSERT = "insert"
    DELETE = "delete"
    CHECK = "check"


class OpSpec:
    """One operation template within a stored procedure."""

    __slots__ = ("name", "kind", "table", "key", "target", "lock",
                 "update_fn", "insert_fn", "predicate", "value_deps",
                 "foreach", "conditional")

    def __init__(self, name: str, kind: OpKind, *,
                 table: str | None = None,
                 key: KeyExpr | None = None,
                 target: str | None = None,
                 lock: LockMode | None = None,
                 update_fn: SemanticFn | None = None,
                 insert_fn: SemanticFn | None = None,
                 predicate: SemanticFn | None = None,
                 value_deps: tuple[str, ...] = (),
                 foreach: str | None = None,
                 conditional: bool = False):
        self.name = name
        self.kind = kind
        self.table = table
        self.key = key
        self.target = target
        self.lock = lock
        self.update_fn = update_fn
        self.insert_fn = insert_fn
        self.predicate = predicate
        self.value_deps = tuple(value_deps)
        self.foreach = foreach
        self.conditional = conditional

    # -- dependency extraction -------------------------------------------

    def pk_sources(self) -> tuple[str, ...]:
        """Ops whose values this op's key derives from (pk-deps)."""
        if self.key is not None:
            return self.key.sources
        return ()

    def all_value_deps(self) -> tuple[str, ...]:
        """Explicit value deps plus the implicit dep on ``target``."""
        deps = list(self.value_deps)
        if self.target is not None and self.target not in deps:
            deps.append(self.target)
        return tuple(deps)

    def is_write(self) -> bool:
        return self.kind in (OpKind.UPDATE, OpKind.INSERT, OpKind.DELETE)

    def __repr__(self) -> str:
        return f"OpSpec({self.name}:{self.kind.value})"


# -- readable constructors ------------------------------------------------

def read(name: str, table: str, key: KeyExpr, *,
         for_update: bool = False,
         foreach: str | None = None) -> OpSpec:
    """A read; ``for_update=True`` takes the write lock up front."""
    return OpSpec(name, OpKind.READ, table=table, key=key,
                  lock=LockMode.EXCLUSIVE if for_update else LockMode.SHARED,
                  foreach=foreach)


def update(name: str, target: str, set_fn: SemanticFn, *,
           value_deps: tuple[str, ...] = (),
           foreach: str | None = None,
           conditional: bool = False) -> OpSpec:
    """Update the record read by ``target``; ``set_fn`` returns updates."""
    return OpSpec(name, OpKind.UPDATE, target=target, update_fn=set_fn,
                  lock=LockMode.EXCLUSIVE, value_deps=value_deps,
                  foreach=foreach, conditional=conditional)


def insert(name: str, table: str, key: KeyExpr, fields_fn: SemanticFn, *,
           value_deps: tuple[str, ...] = (),
           foreach: str | None = None,
           conditional: bool = False) -> OpSpec:
    """Insert a new record; the key is often a :class:`DerivedKey`."""
    return OpSpec(name, OpKind.INSERT, table=table, key=key,
                  insert_fn=fields_fn, lock=LockMode.EXCLUSIVE,
                  value_deps=value_deps, foreach=foreach,
                  conditional=conditional)


def delete(name: str, target: str, *,
           foreach: str | None = None) -> OpSpec:
    """Delete the record read by ``target``."""
    return OpSpec(name, OpKind.DELETE, target=target,
                  lock=LockMode.EXCLUSIVE, foreach=foreach)


def check(name: str, deps: tuple[str, ...], predicate: SemanticFn, *,
          foreach: str | None = None) -> OpSpec:
    """Abort the transaction if ``predicate(params, ctx, item)`` is false."""
    return OpSpec(name, OpKind.CHECK, predicate=predicate, value_deps=deps,
                  foreach=foreach)
