"""Stored procedures: templates, instantiation, and semantic evaluation.

A :class:`StoredProcedure` is an ordered list of :class:`~repro.analysis.ops.OpSpec`
templates.  Procedures are *registered* once (static analysis builds the
dependency graph then, as in Section 3.2) and *instantiated* per
transaction: ``foreach`` templates expand into one :class:`OpInstance`
per element of a list-valued parameter (TPC-C order lines, Instacart
basket items).

Execution engines never interpret lambdas themselves; they call the
evaluation helpers here (:meth:`OpInstance.placement`,
:meth:`OpInstance.concrete_key`, :meth:`OpInstance.run_update`, ...) so
that all executors share identical transaction semantics.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from ..storage.locks import LockMode
from .keys import DerivedKey, ParamKey
from .ops import OpKind, OpSpec

Params = Mapping[str, Any]

LAYOUT_CAP = 64
"""Compiled layouts (one per combination of foreach-parameter lengths)
a :class:`StoredProcedure` keeps before it starts over."""


class _CtxView(Mapping[str, Any]):
    """Read-only view of a ctx dict that rewrites template op names to
    the instance names of the current foreach index."""

    __slots__ = ("_ctx", "_alias")

    def __init__(self, ctx: Mapping[str, Any], alias: Mapping[str, str]):
        self._ctx = ctx
        self._alias = alias

    def __getitem__(self, name: str) -> Any:
        return self._ctx[self._alias.get(name, name)]

    def __iter__(self) -> Iterator[str]:
        return iter(self._ctx)

    def __len__(self) -> int:
        return len(self._ctx)

    def __contains__(self, name: object) -> bool:
        return self._alias.get(name, name) in self._ctx


class Placement:
    """Where an op's record lives, as knowable *before* execution.

    ``key`` is the concrete primary key when it is computable from the
    transaction parameters, or a placement-equivalent hint otherwise.
    ``exact`` distinguishes the two.  ``key is None`` means the location
    is genuinely unknown until run time (an unhinted derived key).
    """

    __slots__ = ("table", "key", "exact")

    def __init__(self, table: str, key: Any, exact: bool):
        self.table = table
        self.key = key
        self.exact = exact

    def known(self) -> bool:
        return self.key is not None

    def __repr__(self) -> str:
        marker = "" if self.exact else "~"
        return f"Placement({self.table}:{marker}{self.key!r})"


class OpShape:
    """What is fixed about one op instance once the procedure and the
    lengths of its foreach parameters are known: compiled once per
    layout by :meth:`StoredProcedure.layout`, shared by every
    transaction's :class:`OpInstance` of that slot."""

    __slots__ = ("spec", "index", "name", "alias", "deps", "pk_sources",
                 "target", "record_spec", "place", "pk_children")

    def __init__(self, spec: OpSpec, proc: "StoredProcedure",
                 index: int | None):
        self.spec = spec
        self.index = index
        self.name = spec.name if index is None else f"{spec.name}[{index}]"
        alias = self.alias = proc._alias_map(spec, index)
        self.pk_sources = tuple(alias.get(d, d) for d in spec.pk_sources())
        self.deps = tuple(alias.get(d, d) for d in dict.fromkeys(
            spec.pk_sources() + spec.all_value_deps()))
        self.target = alias.get(spec.target, spec.target)
        # the spec whose key identifies the record this op touches
        if spec.kind is OpKind.CHECK:
            self.record_spec = None
        elif spec.kind in (OpKind.UPDATE, OpKind.DELETE):
            self.record_spec = proc.op(spec.target)
        else:
            self.record_spec = spec
        # :meth:`OpInstance.placement` compiled: ``(table, fn, exact)``,
        # where ``fn(params, item)`` gives the key (``exact``) or its
        # partition hint; None when the location is unknowable before
        # execution (a CHECK, an unhinted derived key)
        record, self.place = self.record_spec, None
        if record is not None:
            if isinstance(record.key, ParamKey):
                self.place = (record.table, record.key.fn, True)
            elif record.key.has_partition_hint:
                self.place = (record.table, record.key.hint_fn, False)
        self.pk_children: tuple[str, ...] = ()  # set once the layout is whole


class OpInstance:
    """A concrete operation of one transaction: a compiled
    :class:`OpShape` bound to its foreach ``item``."""

    __slots__ = ("spec", "name", "item", "_alias", "_shape")

    def __init__(self, shape: OpShape, item: Any = None):
        self.spec = shape.spec
        self.name = shape.name
        self.item = item
        self._alias = shape.alias
        self._shape = shape

    @property
    def shape(self) -> OpShape:
        """The compiled slot this instance binds; each belongs to one
        layout of one procedure."""
        return self._shape

    # -- identity / dependencies ------------------------------------------

    def dep_instance_names(self) -> tuple[str, ...]:
        """Instance names of all deps (pk + value) of this instance."""
        return self._shape.deps

    def pk_source_instances(self) -> tuple[str, ...]:
        return self._shape.pk_sources

    def pk_child_instances(self) -> tuple[str, ...]:
        """Instances whose keys derive from this one's value."""
        return self._shape.pk_children

    def target_instance(self) -> str | None:
        return self._shape.target

    # -- placement (pre-execution knowledge) -------------------------------

    def placement(self, params: Params) -> Placement | None:
        """Best pre-execution knowledge of this op's record location."""
        spec = self._shape.record_spec
        if spec is None:  # CHECK: touches no record
            return None
        assert spec.table is not None and spec.key is not None
        if isinstance(spec.key, ParamKey):
            return Placement(spec.table, spec.key.resolve(params, self.item),
                             exact=True)
        assert isinstance(spec.key, DerivedKey)
        if spec.key.has_partition_hint:
            return Placement(spec.table, spec.key.hint(params, self.item),
                             exact=False)
        return Placement(spec.table, None, exact=False)

    def lock_mode(self) -> LockMode:
        if self.spec.lock is None:
            raise ValueError(f"{self.name} has no lock mode")
        return self.spec.lock

    # -- execution-time evaluation ------------------------------------------

    def concrete_key(self, params: Params, ctx: Mapping[str, Any]) -> Any:
        """Resolve the actual primary key (requires pk-deps bound)."""
        spec = self._shape.record_spec
        if spec is None:
            raise TypeError(f"{self.name} does not access a record")
        if isinstance(spec.key, ParamKey):
            return spec.key.resolve(params, self.item)
        assert isinstance(spec.key, DerivedKey)
        return spec.key.resolve(params, self._view(ctx), self.item)

    def run_update(self, params: Params, ctx: Mapping[str, Any]
                   ) -> dict[str, Any]:
        assert self.spec.update_fn is not None
        return self.spec.update_fn(params, self._view(ctx), self.item)

    def run_insert_fields(self, params: Params, ctx: Mapping[str, Any]
                          ) -> dict[str, Any]:
        assert self.spec.insert_fn is not None
        return self.spec.insert_fn(params, self._view(ctx), self.item)

    def run_check(self, params: Params, ctx: Mapping[str, Any]) -> bool:
        assert self.spec.predicate is not None
        return bool(self.spec.predicate(params, self._view(ctx), self.item))

    def _view(self, ctx: Mapping[str, Any]) -> Mapping[str, Any]:
        """``ctx`` as this instance's templates name it: ``ctx`` itself
        for an op that aliases no foreach sibling."""
        return _CtxView(ctx, self._alias) if self._alias else ctx

    def __repr__(self) -> str:
        return f"OpInstance({self.name}:{self.spec.kind.value})"


class StoredProcedure:
    """An ordered, validated list of operation templates."""

    def __init__(self, name: str, params: tuple[str, ...],
                 ops: list[OpSpec]):
        self.name = name
        self.params = tuple(params)
        self.ops = list(ops)
        self._by_name: dict[str, OpSpec] = {}
        self._validate()
        self._foreach = tuple(dict.fromkeys(
            op.foreach for op in self.ops if op.foreach is not None))
        self._layouts: dict[tuple[int, ...], tuple[OpShape, ...]] = {}
        """Compiled shapes per tuple of foreach-parameter lengths; the
        templates never change after construction, so none goes stale."""
        self._write_slots: dict[tuple[int, ...], tuple[tuple, ...]] = {}
        """Per layout, ``(table, ParamKey, foreach, index)`` of every op
        whose written record's key is exact (see :meth:`write_keys`)."""

    def op(self, name: str) -> OpSpec:
        return self._by_name[name]

    def op_names(self) -> list[str]:
        return [op.name for op in self.ops]

    # -- instantiation -------------------------------------------------------

    def instantiate(self, params: Params) -> list[OpInstance]:
        """Expand templates into concrete per-transaction op instances:
        bind each shape of the compiled layout to its foreach item."""
        return [OpInstance(shape) if shape.index is None else
                OpInstance(shape, params[shape.spec.foreach][shape.index])
                for shape in self.layout(params)]

    def write_keys(self, params: Params) -> set[tuple[str, Any]]:
        """``(table, key)`` of every record this transaction will write,
        as knowable *before* running: the conflict-class fingerprint
        (:mod:`repro.sched.conflict`).

        A write, or a read taken ``for_update`` (it takes the exclusive
        lock up front, so it conflicts like one), is claimed only when
        its record's key is a :class:`~repro.analysis.keys.ParamKey`: a
        derived key's partition hint is placement-equivalent but is not
        the record's identity, so claiming it would fuse unrelated
        conflict classes.  The slots are compiled once per layout."""
        sizes = tuple([len(params[name]) for name in self._foreach])
        slots = self._write_slots.get(sizes)
        if slots is None:
            self.layout(params)
            slots = self._write_slots[sizes]
        return {(table, key.resolve(params, None if index is None
                                     else params[foreach][index]))
                for table, key, foreach, index in slots}

    def layout(self, params: Params) -> tuple[OpShape, ...]:
        """The procedure's static shape for these foreach lengths
        (names, alias maps, dependency tuples), compiled on first use."""
        sizes = tuple([len(params[name]) for name in self._foreach])
        shapes = self._layouts.get(sizes)
        if shapes is None:
            count = dict(zip(self._foreach, sizes))
            shapes = tuple(
                OpShape(spec, self, index) for spec in self.ops
                for index in ((None,) if spec.foreach is None
                              else range(count[spec.foreach])))
            children: dict[str, list[str]] = {}
            for shape in shapes:
                for parent in shape.pk_sources:
                    children.setdefault(parent, []).append(shape.name)
            for shape in shapes:
                shape.pk_children = tuple(children.get(shape.name, ()))
            if len(self._layouts) >= LAYOUT_CAP:
                self._layouts.clear()
                self._write_slots.clear()
            self._layouts[sizes] = shapes
            self._write_slots[sizes] = tuple(
                (record.table, record.key, shape.spec.foreach, shape.index)
                for shape in shapes
                if (record := shape.record_spec) is not None
                and isinstance(record.key, ParamKey)
                and (shape.spec.is_write()
                     or shape.spec.lock is LockMode.EXCLUSIVE))
        return shapes

    def _alias_map(self, spec: OpSpec, index: int | None) -> dict[str, str]:
        """Template-name -> instance-name map for one foreach index."""
        if index is None:
            return {}
        alias: dict[str, str] = {}
        deps = (set(spec.pk_sources()) | set(spec.all_value_deps()))
        for dep in deps:
            dep_spec = self._by_name.get(dep)
            if dep_spec is not None and dep_spec.foreach == spec.foreach:
                alias[dep] = f"{dep}[{index}]"
        return alias

    # -- validation ------------------------------------------------------------

    def _validate(self) -> None:
        seen: set[str] = set()
        updated_targets: set[str] = set()
        for spec in self.ops:
            if spec.name in seen:
                raise ValueError(f"duplicate op name {spec.name!r}")
            self._validate_shape(spec)
            for dep in (set(spec.pk_sources()) | set(spec.all_value_deps())):
                if dep not in seen:
                    raise ValueError(
                        f"op {spec.name!r} depends on {dep!r}, which is "
                        f"not declared earlier in the procedure")
            if spec.foreach is not None and spec.foreach not in self.params:
                raise ValueError(
                    f"op {spec.name!r} iterates over unknown parameter "
                    f"{spec.foreach!r}")
            if spec.kind in (OpKind.UPDATE, OpKind.DELETE):
                target = self._by_name[spec.target]
                if target.kind is not OpKind.READ:
                    raise ValueError(
                        f"op {spec.name!r} targets {spec.target!r}, which "
                        f"is not a READ")
                if spec.foreach != target.foreach:
                    raise ValueError(
                        f"op {spec.name!r} and its target must share the "
                        f"same foreach group")
                updated_targets.add(spec.target)
            seen.add(spec.name)
            self._by_name[spec.name] = spec
        # reads that get updated later must hold the write lock up front
        for name in updated_targets:
            read_spec = self._by_name[name]
            if read_spec.lock is not LockMode.EXCLUSIVE:
                raise ValueError(
                    f"read {name!r} is updated later; declare it with "
                    f"for_update=True so the write lock is taken up front")

    @staticmethod
    def _validate_shape(spec: OpSpec) -> None:
        kind = spec.kind
        if kind in (OpKind.READ, OpKind.INSERT):
            if spec.table is None or spec.key is None:
                raise ValueError(f"{kind.value} op {spec.name!r} needs "
                                 f"table and key")
        if kind in (OpKind.UPDATE, OpKind.DELETE) and spec.target is None:
            raise ValueError(f"{kind.value} op {spec.name!r} needs a target")
        if kind is OpKind.UPDATE and spec.update_fn is None:
            raise ValueError(f"update op {spec.name!r} needs set_fn")
        if kind is OpKind.INSERT and spec.insert_fn is None:
            raise ValueError(f"insert op {spec.name!r} needs fields_fn")
        if kind is OpKind.CHECK and spec.predicate is None:
            raise ValueError(f"check op {spec.name!r} needs a predicate")

    def __repr__(self) -> str:
        return f"StoredProcedure({self.name}, {len(self.ops)} ops)"


class ProcedureRegistry:
    """Registered procedures, each checked at registration: building its
    dependency graph rejects pk-dep cycles and unknown op names."""

    def __init__(self) -> None:
        self._procs: dict[str, StoredProcedure] = {}

    def register(self, proc: StoredProcedure) -> None:
        from .dependency import DependencyGraph  # local: avoid cycle
        if proc.name in self._procs:
            raise ValueError(f"procedure {proc.name!r} already registered")
        DependencyGraph.from_procedure(proc)
        self._procs[proc.name] = proc

    def get(self, name: str) -> StoredProcedure:
        return self._procs[name]
