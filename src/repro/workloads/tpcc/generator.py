"""TPC-C transaction mix and request generation.

Standard mix (the evaluation's Section 7.3 "full TPC-C mix"):
NewOrder 45%, Payment 43%, OrderStatus 4%, Delivery 4%, StockLevel 4%.

Cross-warehouse knobs follow the spec's defaults and the Fig. 10 sweep:

* ``payment_remote_prob`` — probability the paying customer belongs to
  a remote warehouse (spec: 15%);
* ``new_order_remote_prob`` — probability the order contains at least
  one item supplied by a remote warehouse (spec: ~10%);
* 1% of NewOrders reference an unused item id and roll back (spec).

Each engine generates transactions for the warehouses it hosts
(``w_id % n_partitions == home``).
"""

from __future__ import annotations

import itertools
import random

from ...analysis import StoredProcedure
from ...storage import TableSpec
from ...txn.common import TxnRequest
from ..base import Workload
from .loader import TpccScale, load_tpcc
from .procedures import all_procedures
from .schema import DISTRICTS_PER_WAREHOUSE, tpcc_tables

STANDARD_MIX = (("new_order", 0.45), ("payment", 0.43),
                ("order_status", 0.04), ("delivery", 0.04),
                ("stock_level", 0.04))

INVALID_ITEM_ID = -1

ROLLBACK_PROB = 0.01
"""Share of New-Orders that name an unused item and roll back (TPC-C
2.4.1.4's 1 %)."""

ITEMS_PER_ORDER = (5, 15)
"""Order lines of a New-Order, drawn uniformly (TPC-C 2.4.1.3)."""


class TpccWorkload(Workload):
    """Full TPC-C over warehouse partitioning."""

    def __init__(self, scale: TpccScale | None = None,
                 n_partitions: int = 4,
                 mix: tuple[tuple[str, float], ...] = STANDARD_MIX,
                 payment_remote_prob: float = 0.15,
                 new_order_remote_prob: float = 0.10):
        self.scale = scale or TpccScale(n_warehouses=n_partitions)
        if self.scale.n_warehouses < n_partitions:
            raise ValueError("need at least one warehouse per partition")
        self.n_partitions = n_partitions
        self.mix = mix
        total = sum(share for _name, share in mix)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mix shares sum to {total}, expected 1.0")
        self.payment_remote_prob = payment_remote_prob
        self.new_order_remote_prob = new_order_remote_prob
        self._h_id = itertools.count(1)

    # -- Workload interface -------------------------------------------------

    def tables(self) -> list[TableSpec]:
        return tpcc_tables(self.scale.n_items,
                           self.scale.customers_per_district)

    def procedures(self) -> list[StoredProcedure]:
        return all_procedures()

    def populate(self, load) -> None:
        load_tpcc(load, self.scale)

    def next_request(self, home: int, rng: random.Random) -> TxnRequest:
        name = self._pick_proc(rng)
        w_id = self._home_warehouse(home, rng)
        builder = getattr(self, f"_gen_{name}")
        return builder(w_id, home, rng)

    # -- generators ----------------------------------------------------------

    def _pick_proc(self, rng: random.Random) -> str:
        roll = rng.random()
        cumulative = 0.0
        for name, share in self.mix:
            cumulative += share
            if roll < cumulative:
                return name
        return self.mix[-1][0]

    def _home_warehouse(self, home: int, rng: random.Random) -> int:
        locals_ = [w for w in range(self.scale.n_warehouses)
                   if w % self.n_partitions == home]
        return rng.choice(locals_)

    def _remote_warehouse(self, w_id: int, rng: random.Random) -> int:
        if self.scale.n_warehouses == 1:
            return w_id
        other = rng.randrange(self.scale.n_warehouses - 1)
        return other if other < w_id else other + 1

    def _gen_new_order(self, w_id: int, home: int,
                       rng: random.Random) -> TxnRequest:
        n_items = rng.randint(*ITEMS_PER_ORDER)
        remote_txn = rng.random() < self.new_order_remote_prob
        items = []
        chosen: set[int] = set()
        for number in range(n_items):
            i_id = rng.randrange(self.scale.n_items)
            while i_id in chosen:
                i_id = rng.randrange(self.scale.n_items)
            chosen.add(i_id)
            supply = w_id
            if remote_txn and number == 0:
                supply = self._remote_warehouse(w_id, rng)
            items.append({"i_id": i_id, "supply_w_id": supply,
                          "qty": rng.randint(1, 10),
                          "ol_number": number})
        if rng.random() < ROLLBACK_PROB:
            items[-1] = dict(items[-1], i_id=INVALID_ITEM_ID)
        return TxnRequest("new_order", {
            "w_id": w_id,
            "d_id": rng.randrange(DISTRICTS_PER_WAREHOUSE),
            "c_id": rng.randrange(self.scale.customers_per_district),
            "items": items,
            "entry_d": 1,
        }, home=home)

    def _gen_payment(self, w_id: int, home: int,
                     rng: random.Random) -> TxnRequest:
        c_w_id = w_id
        if rng.random() < self.payment_remote_prob:
            c_w_id = self._remote_warehouse(w_id, rng)
        return TxnRequest("payment", {
            "w_id": w_id,
            "d_id": rng.randrange(DISTRICTS_PER_WAREHOUSE),
            "c_w_id": c_w_id,
            "c_d_id": rng.randrange(DISTRICTS_PER_WAREHOUSE),
            "c_id": rng.randrange(self.scale.customers_per_district),
            "amount": round(rng.uniform(1.0, 5000.0), 2),
            "h_id": next(self._h_id),
        }, home=home)

    def _gen_order_status(self, w_id: int, home: int,
                          rng: random.Random) -> TxnRequest:
        return TxnRequest("order_status", {
            "w_id": w_id,
            "d_id": rng.randrange(DISTRICTS_PER_WAREHOUSE),
            "c_id": rng.randrange(self.scale.customers_per_district),
        }, home=home)

    def _gen_delivery(self, w_id: int, home: int,
                      rng: random.Random) -> TxnRequest:
        return TxnRequest("delivery", {
            "w_id": w_id,
            "d_id": rng.randrange(DISTRICTS_PER_WAREHOUSE),
            "carrier_id": rng.randint(1, 10),
            "delivery_d": 1,
        }, home=home)

    def _gen_stock_level(self, w_id: int, home: int,
                         rng: random.Random) -> TxnRequest:
        n_checks = rng.randint(5, 10)
        return TxnRequest("stock_level", {
            "w_id": w_id,
            "d_id": rng.randrange(DISTRICTS_PER_WAREHOUSE),
            "threshold": rng.randint(10, 20),
            "check_items": rng.sample(range(self.scale.n_items),
                                      n_checks),
        }, home=home)
