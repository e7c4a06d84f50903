"""A minimal YCSB-style key-value micro-workload.

Useful for focused contention experiments: every transaction reads and
optionally updates a handful of keys drawn either uniformly or from a
zipf-like skewed distribution.  This is the scalpel version of the bank
workload — no transfers, no invariants, just tunable conflict rates.
"""

from __future__ import annotations

import random

from ..analysis import StoredProcedure, param_key, read, update
from ..storage import TableSpec
from ..txn.common import TxnRequest
from ._zipf import power_law_weights, weighted_index
from .base import Workload


def ycsb_procedure() -> StoredProcedure:
    """Read ``read_keys``; read-modify-write ``write_keys``."""
    return StoredProcedure(
        "ycsb", params=("read_keys", "write_keys"),
        ops=[
            read("r", "usertable",
                 key=param_key(lambda p, k: k), foreach="read_keys"),
            read("w", "usertable",
                 key=param_key(lambda p, k: k), for_update=True,
                 foreach="write_keys"),
            update("w_upd", target="w", foreach="write_keys",
                   set_fn=lambda p, ctx, k:
                       {"counter": ctx["w"]["counter"] + 1}),
        ])


class YcsbWorkload(Workload):
    """Configurable read/write mix over one table."""

    def __init__(self, n_keys: int = 10_000,
                 reads_per_txn: int = 8,
                 writes_per_txn: int = 2,
                 zipf_exponent: float = 0.0):
        self.n_keys = n_keys
        self.reads_per_txn = reads_per_txn
        self.writes_per_txn = writes_per_txn
        self.zipf_exponent = zipf_exponent
        if zipf_exponent > 0.0:
            import itertools
            weights = power_law_weights(n_keys,
                                        tail_exponent=zipf_exponent)
            self._cum_weights = list(itertools.accumulate(weights))
        else:
            self._cum_weights = None

    def tables(self) -> list[TableSpec]:
        return [TableSpec("usertable", n_buckets=4 * self.n_keys)]

    def procedures(self) -> list[StoredProcedure]:
        return [ycsb_procedure()]

    def populate(self, load) -> None:
        for key in range(self.n_keys):
            load("usertable", key, {"counter": 0})

    def next_request(self, home: int, rng: random.Random) -> TxnRequest:
        total = self.reads_per_txn + self.writes_per_txn
        keys: list[int] = []
        seen: set[int] = set()
        while len(keys) < total:
            key = self._pick(rng)
            if key not in seen:
                keys.append(key)
                seen.add(key)
        return TxnRequest("ycsb", {
            "read_keys": keys[:self.reads_per_txn],
            "write_keys": keys[self.reads_per_txn:],
        }, home=home)

    def _pick(self, rng: random.Random) -> int:
        if self._cum_weights is None:
            return rng.randrange(self.n_keys)
        return weighted_index(rng, self._cum_weights)

    # -- data-affinity routing (``RunConfig.route_by_data``) ----------------

    def route(self, request: TxnRequest, partition_of) -> int:
        """The partition owning most of the write set (ties: lowest id).

        Routing conflicting transactions to one coordinator is what
        makes *engine-local* conflict-class scheduling globally
        effective under hot-key skew: the hot record's writers all meet
        the same scheduler instead of racing across engines.
        """
        votes: dict[int, int] = {}
        for key in request.params["write_keys"]:
            pid = partition_of("usertable", key)
            votes[pid] = votes.get(pid, 0) + 1
        if not votes:
            return request.home
        return min(votes, key=lambda pid: (-votes[pid], pid))

    def rebind(self, request: TxnRequest, home: int) -> TxnRequest:
        """Re-home a request (YCSB params carry no home-derived keys)."""
        return TxnRequest(request.proc, request.params, home=home)


DRIFT_READS_PER_TXN = 4
DRIFT_WRITES_PER_TXN = 2
"""A drifting transaction's reads and read-modify-writes, all in one
key group."""


class DriftingYcsbWorkload(YcsbWorkload):
    """YCSB with group-structured co-access and a mid-run hot-set shift.

    Keys are organized into ``n_groups`` groups of ``group_size``
    consecutive keys; every transaction draws *all* its keys from one
    group, chosen by a zipf distribution over group ranks.  Groups are
    the co-access signal a partitioner can exploit: co-locating a
    group makes its transactions single-partition.

    At ``shift_at_us`` (on the bound cluster clock — simulated µs on
    sim, wall-clock µs on aio/mp) the rank→group mapping rotates by
    ``shift_offset``: a previously cold slice of the key space becomes
    the hot set, and any layout trained on the pre-shift distribution
    is suddenly stale.  This is the first workload in the repo that
    *changes under the system* — the scenario the adaptive placement
    subsystem (:mod:`repro.placement`) exists for.
    """

    def __init__(self, n_groups: int = 64, group_size: int = 8,
                 zipf_exponent: float = 1.05,
                 shift_at_us: float | None = None,
                 shift_offset: int | None = None):
        if DRIFT_READS_PER_TXN + DRIFT_WRITES_PER_TXN > group_size:
            raise ValueError("a transaction's keys must fit in one group")
        super().__init__(n_keys=n_groups * group_size,
                         reads_per_txn=DRIFT_READS_PER_TXN,
                         writes_per_txn=DRIFT_WRITES_PER_TXN,
                         zipf_exponent=0.0)
        self.n_groups = n_groups
        self.group_size = group_size
        self.shift_at_us = shift_at_us
        self.shift_offset = (shift_offset if shift_offset is not None
                             else n_groups // 2)
        import itertools
        weights = power_law_weights(n_groups, tail_exponent=zipf_exponent)
        self._group_cum = list(itertools.accumulate(weights))
        self._now = None

    def bind_clock(self, now_fn) -> None:
        """Attach the run's clock (done by the benchmark builder once
        the cluster exists); without a clock the workload never
        shifts."""
        self._now = now_fn

    @property
    def shifted(self) -> bool:
        return (self._now is not None and self.shift_at_us is not None
                and self._now() >= self.shift_at_us)

    def next_request(self, home: int, rng: random.Random) -> TxnRequest:
        return self._request(home, rng, self.shifted)

    def _request(self, home: int, rng: random.Random,
                 shifted: bool) -> TxnRequest:
        rank = weighted_index(rng, self._group_cum)
        group = ((rank + self.shift_offset) % self.n_groups if shifted
                 else rank)
        base = group * self.group_size
        keys = rng.sample(range(base, base + self.group_size),
                          self.reads_per_txn + self.writes_per_txn)
        return TxnRequest("ycsb", {
            "read_keys": keys[:self.reads_per_txn],
            "write_keys": keys[self.reads_per_txn:],
        }, home=home)

    def trace(self, n: int, n_partitions: int,
              seed: int = 1) -> list[TxnRequest]:
        """An offline request trace from the pre-shift distribution —
        what the drift benchmark trains its initial layout on."""
        from .._util import make_rng
        rng = make_rng(seed, "drift-trace", "pre")
        return [self._request(i % n_partitions, rng, False)
                for i in range(n)]


def expected_counter_total(db, n_keys: int) -> int:
    """Sum of all counters (equals total committed write ops)."""
    total = 0
    for key in range(n_keys):
        pid = db.partition_of("usertable", key)
        total += db.store(pid).read("usertable", key)[0]["counter"]
    return total
