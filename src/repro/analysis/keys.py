"""Key expressions: how an operation's primary key is computed.

The distinction drives the whole static analysis (Section 3.2 of the
paper): a key computable from the transaction's inputs alone
(:class:`ParamKey`) imposes no ordering constraint, while a key derived
from the *value* of an earlier read (:class:`DerivedKey`) is a
**primary-key dependency (pk-dep)** — the read must execute first, and
this is what can block a record from entering the inner region.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

Params = Mapping[str, Any]
Ctx = Mapping[str, Any]


class KeyExpr:
    """Base class for key expressions."""

    __slots__ = ()

    @property
    def sources(self) -> tuple[str, ...]:
        """Names of operations this key pk-depends on (empty if none)."""
        return ()


class ParamKey(KeyExpr):
    """A key computable from transaction parameters (and foreach item)."""

    __slots__ = ("_fn",)

    def __init__(self, fn: str | Callable[[Params, Any], Any]):
        if isinstance(fn, str):
            name = fn
            self._fn = lambda params, item: params[name]
        else:
            self._fn = fn

    def resolve(self, params: Params, item: Any = None) -> Any:
        return self._fn(params, item)

    @property
    def fn(self) -> Callable[[Params, Any], Any]:
        """The ``fn(params, item)`` behind :meth:`resolve`."""
        return self._fn


class DerivedKey(KeyExpr):
    """A key known only after earlier reads produced their values.

    ``partition_hint`` optionally computes, from parameters alone, a key
    whose *placement* equals the derived record's placement (e.g. a
    TPC-C order id is unknown until the district row is read, but the
    order row provably lives with its warehouse).  The region planner
    uses the hint to reason about co-location before execution.
    """

    __slots__ = ("_sources", "_fn", "_hint")

    def __init__(self, sources: tuple[str, ...],
                 fn: Callable[[Params, Ctx, Any], Any],
                 partition_hint: Callable[[Params, Any], Any] | None = None):
        if not sources:
            raise ValueError("DerivedKey needs at least one source op; "
                             "use ParamKey otherwise")
        self._sources = tuple(sources)
        self._fn = fn
        self._hint = partition_hint

    @property
    def sources(self) -> tuple[str, ...]:
        return self._sources

    @property
    def has_partition_hint(self) -> bool:
        return self._hint is not None

    @property
    def hint_fn(self) -> Callable[[Params, Any], Any] | None:
        """The ``partition_hint(params, item)`` behind :meth:`hint`."""
        return self._hint

    def resolve(self, params: Params, ctx: Ctx, item: Any = None) -> Any:
        """Compute the concrete key; requires all sources bound in ctx."""
        for source in self._sources:
            if source not in ctx:
                raise KeyError(
                    f"cannot resolve derived key: source {source!r} has "
                    f"not been read yet")
        return self._fn(params, ctx, item)

    def hint(self, params: Params, item: Any = None) -> Any:
        """Placement-equivalent key, or raise if no hint was declared."""
        if self._hint is None:
            raise LookupError("derived key has no partition hint")
        return self._hint(params, item)


def param_key(spec: str | Callable[[Params, Any], Any]) -> ParamKey:
    """Key from a named parameter, or a ``fn(params, item)`` callable."""
    return ParamKey(spec)


def derived_key(sources: tuple[str, ...],
                fn: Callable[[Params, Ctx, Any], Any],
                partition_hint: Callable[[Params, Any], Any] | None = None,
                ) -> DerivedKey:
    """Key derived from earlier reads (creates pk-dep edges)."""
    return DerivedKey(sources, fn, partition_hint)
