"""One fold for every stat: the field declares the rule, four walks read it.

Stats stay plain dataclasses the hot path increments; how a field merges
across engines and processes and where it shows is on its declaration::

    admitted: int = stat(timeline="admitted")    # sums; a timeline counter
    queue_depth: int = stat(fold="max", timeline="queue_depth")  # a gauge
    scheduler: str = stat("fifo", fold="label")  # last non-default wins
    n_classes: int = stat(report="conflict_classes")  # renamed in reports
    reasons: dict = stat(dict, report=None)      # a book; not reported
    retries: int = 0         # undeclared: sums, reports under its own name

``sum`` goes by type: numbers add, lists concatenate, dict books and
nested stats fold recursively, ``None`` is "this part had none".
"""

from dataclasses import field, fields, is_dataclass
from functools import reduce


def stat(default=0, *, fold="sum", timeline=None, report=""):
    """Declare one stats field (a callable ``default`` is its factory)."""
    how = "default_factory" if callable(default) else "default"
    return field(**{how: default}, metadata={
        "fold": fold, "timeline": timeline, "report": report})


def _sum(mine, theirs):
    if theirs is None:
        return mine
    mine = type(theirs)() if mine is None else mine
    if is_dataclass(theirs):
        return fold(mine, theirs)
    if isinstance(theirs, dict):
        for key, value in theirs.items():
            mine[key] = _sum(mine.get(key), value)
    elif isinstance(theirs, list):
        mine.extend(theirs)
    elif isinstance(theirs, (int, float)) and not isinstance(theirs, bool):
        mine += theirs
    else:
        raise TypeError(f"cannot sum a {type(theirs).__name__}: {theirs!r}")
    return mine


def fold(into, other):
    """Combine ``other`` into ``into``, field by field, by each rule."""
    for spec in fields(into):
        rule = spec.metadata.get("fold", "sum")
        mine, theirs = getattr(into, spec.name), getattr(other, spec.name)
        if rule == "sum":
            mine = _sum(mine, theirs)
        elif rule == "max":
            mine = max(mine, theirs)
        elif theirs != spec.default:  # "label": last non-default wins
            mine = theirs
        setattr(into, spec.name, mine)
    return into


def folded(cls, parts):
    """A fresh ``cls()`` with every part folded in (parts untouched)."""
    return reduce(fold, parts, cls())


def counters(obj, gauges=False) -> dict:
    """Cumulative timeline counters (a book reads as its total), or
    the ``max``-folded fields: point-in-time gauges."""
    return {name: sum(value.values()) if isinstance(value, dict) else value
            for spec in fields(obj)
            if (name := spec.metadata.get("timeline"))
            and (spec.metadata["fold"] == "max") is gauges
            for value in [getattr(obj, spec.name)]}


def report(obj) -> dict:
    """Every reported field under its report name, in field order."""
    return {name or spec.name: getattr(obj, spec.name)
            for spec in fields(obj)
            if (name := spec.metadata.get("report", "")) is not None}
