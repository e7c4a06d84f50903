"""Import lint, storage slice: lock words are reached through
``PartitionStore`` only.

Nothing outside ``repro/storage/`` may import ``repro.storage.bucket``
or name ``BucketStore`` / ``lock_for``: a caller holding a lock word
bypasses the held-locks bookkeeping, and one that asks through
``lock_for`` makes a word for a bucket nobody locked.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
FORBIDDEN_NAMES = {"BucketStore", "lock_for"}


def names_in(node: ast.AST, package: tuple[str, ...]) -> list[str]:
    """Every name ``node`` mentions; imports as absolute dotted paths."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        parts = list(package[:len(package) - node.level + 1]
                     if node.level else ())
        parts += node.module.split(".") if node.module else []
        module = ".".join(parts)
        return [module] + [name for alias in node.names
                           for name in (alias.name,
                                        f"{module}.{alias.name}")]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def violations(path: Path, source: str) -> list[str]:
    where = path.relative_to(SRC.parent)
    package = where.parts[:-1]          # ("repro", "txn") for txn/occ.py
    return [f"{where}:{node.lineno}: {name}"
            for node in ast.walk(ast.parse(source, str(path)))
            for name in names_in(node, package)
            if name in FORBIDDEN_NAMES
            or (name + ".").startswith("repro.storage.bucket.")]


def test_nothing_outside_storage_reaches_into_bucket_stores():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if SRC / "storage" not in path.parents:
            found += violations(path, path.read_text())
    assert not found, "\n".join(found)


def test_the_lint_sees_every_spelling():
    inside = SRC / "txn" / "occ.py"
    for source in ("from ..storage.bucket import BucketStore",
                   "from ..storage import bucket",
                   "from repro.storage import BucketStore",
                   "import repro.storage.bucket",
                   "import repro.storage.bucket as b",
                   "lock = store.table(t).lock_for(k)",
                   "x = storage.BucketStore"):
        assert violations(inside, source), source
    assert not violations(inside, "from ..storage import PartitionStore\n"
                                  "store.locked_by_other(t, k, me)")
