"""Synthetic Instacart-like grocery workload (paper Section 7.2).

The paper feeds real Instacart baskets (3M orders, ~50k products) into
a TPC-C-NewOrder-like stored procedure: read each purchased product's
stock row, decrement it, insert an order row.  We cannot ship that
dataset, so this generator reproduces the distributional properties the
experiment depends on:

* heavy skew — the top product appears in ~15% of baskets, the second
  in ~8% (bananas and strawberries in the real data), with a smooth
  power-law tail behind them;
* mean basket size ~10 products;
* correlated co-purchase — products belong to categories (dairy,
  produce, ...) and baskets mix a handful of categories, so frequently
  co-bought hot items exist for the partitioner to exploit;
* hard to range-partition: product ids carry no locality.

The access skew turns the top stock rows into exactly the kind of hot
records the contention model flags.
"""

from __future__ import annotations

import itertools
import random

from ..analysis import StoredProcedure, insert, param_key, read, update
from ..storage import TableSpec
from ..txn.common import TxnRequest
from ._zipf import power_law_weights, weighted_index
from .base import Workload

N_CUSTOMERS = 2000
MEAN_BASKET_SIZE = 10
"""Items per basket: a Gaussian around this mean (sd 2, at least 1)."""

TOP_SHARES = (0.016, 0.0085)
"""Order shares of the two most popular products (bananas, organic
bananas in the real trace); the rest follow the power-law tail."""

N_CATEGORIES = 40
CATEGORIES_PER_BASKET = 2
"""Tail products of a basket come from this many categories: the
co-purchase structure Chiller's partitioner exploits."""

CATEGORY_SEED = 42
"""Seeds the product -> category assignment."""


def grocery_order_procedure() -> StoredProcedure:
    """The NewOrder-like procedure: decrement stocks, insert an order."""
    return StoredProcedure(
        "grocery_order",
        params=("order_id", "customer_id", "items"),
        ops=[
            read("stock", "stock",
                 key=param_key(lambda p, i_id: i_id),
                 for_update=True, foreach="items"),
            update("stock_upd", target="stock", foreach="items",
                   set_fn=_decrement_stock),
            insert("order_ins", "orders", key=param_key("order_id"),
                   fields_fn=lambda p, ctx, i: {
                       "customer_id": p["customer_id"],
                       "n_items": len(p["items"]),
                   }),
        ])


def _decrement_stock(p, ctx, i_id):
    quantity = ctx["stock"]["quantity"] - 1
    if quantity < 0:
        quantity += 1000  # restock rather than abort (as in the paper's
        #                   NewOrder adaptation, orders never fail)
    return {"quantity": quantity}


class InstacartWorkload(Workload):
    """Synthetic skewed-basket generator."""

    def __init__(self, n_products: int = 10_000,
                 tail_exponent: float = 0.55):
        if n_products < 10:
            raise ValueError("need at least 10 products")
        self.n_products = n_products
        self.n_customers = N_CUSTOMERS
        self.mean_basket_size = MEAN_BASKET_SIZE
        self.weights = power_law_weights(n_products, TOP_SHARES,
                                         tail_exponent)
        self.n_categories = N_CATEGORIES
        self.categories_per_basket = CATEGORIES_PER_BASKET
        self._category_of = [self._assign_category(p, CATEGORY_SEED)
                             for p in range(n_products)]
        self._products_by_category: dict[int, list[int]] = {}
        for product, category in enumerate(self._category_of):
            self._products_by_category.setdefault(category,
                                                  []).append(product)
        self._order_id = itertools.count(1)
        # two-stage sampling: head products (always available, exact
        # popularity) vs category-restricted tail
        self.n_head = min(20, n_products)
        self._head_mass = sum(self.weights[:self.n_head])
        self._head_cum = list(itertools.accumulate(
            self.weights[:self.n_head]))
        self._category_cum: dict[int, list[float]] = {}
        for category, products in self._products_by_category.items():
            tail = [p for p in products if p >= self.n_head]
            self._products_by_category[category] = tail
            self._category_cum[category] = list(itertools.accumulate(
                self.weights[p] for p in tail))

    def _assign_category(self, product: int, seed: int) -> int:
        from .._util import stable_hash
        return stable_hash((seed, "category", product)) % self.n_categories

    # -- Workload interface ---------------------------------------------------

    def tables(self) -> list[TableSpec]:
        return [TableSpec("stock", n_buckets=4 * self.n_products),
                TableSpec("orders", n_buckets=8192)]

    def procedures(self) -> list[StoredProcedure]:
        return [grocery_order_procedure()]

    def populate(self, load) -> None:
        for product in range(self.n_products):
            load("stock", product, {"quantity": 1000})

    def next_request(self, home: int, rng: random.Random) -> TxnRequest:
        customer = rng.randrange(self.n_customers)
        return TxnRequest("grocery_order", {
            "order_id": (home, next(self._order_id)),
            "customer_id": customer,
            "items": self.sample_basket(rng, customer),
        }, home=home)

    # -- basket model ------------------------------------------------------------

    def customer_categories(self, customer: int) -> list[int]:
        """A customer's habitual categories (stable across orders).

        Real Instacart customers place ~15 orders each and keep buying
        from the same aisles; this recurring structure is what makes
        the workload *learnable* for a trace-driven partitioner while
        still being hard to partition (the popular head cuts across
        all customers).
        """
        from .._util import stable_hash
        return sorted({stable_hash(("cust-cat", customer, j))
                       % self.n_categories
                       for j in range(self.categories_per_basket)})

    def sample_basket(self, rng: random.Random,
                      customer: int = 0) -> list[int]:
        """A basket of popularity-weighted picks.

        Each pick is a two-stage draw: with the head's total mass, one
        of the ~20 universally popular products (bananas are in
        everyone's cart regardless of what else they buy); otherwise a
        popularity-weighted product from one of the customer's habitual
        categories — giving the correlated co-purchase structure.
        """
        size = max(1, int(rng.gauss(self.mean_basket_size, 2.0)))
        categories = self.customer_categories(customer)
        basket: list[int] = []
        seen: set[int] = set()
        attempts = 0
        while len(basket) < size and attempts < size * 30:
            attempts += 1
            product = self._draw(rng, categories)
            if product is not None and product not in seen:
                basket.append(product)
                seen.add(product)
        return basket

    def _draw(self, rng: random.Random,
              categories: list[int]) -> int | None:
        if rng.random() < self._head_mass:
            return weighted_index(rng, self._head_cum)
        category = categories[rng.randrange(len(categories))]
        products = self._products_by_category.get(category, ())
        if not products:
            return None
        cum = self._category_cum[category]
        return products[weighted_index(rng, cum)]

    # -- data-affinity routing ------------------------------------------------

    def route(self, request: TxnRequest, partition_of) -> int:
        """The partition owning most of the basket's stock rows: where a
        real deployment's transaction router would send this order."""
        votes: dict[int, int] = {}
        for product in request.params["items"]:
            pid = partition_of("stock", product)
            votes[pid] = votes.get(pid, 0) + 1
        return min(votes, key=lambda pid: (-votes[pid], pid))

    def rebind(self, request: TxnRequest, home: int) -> TxnRequest:
        """Re-home a request: the order row follows the coordinator."""
        params = dict(request.params)
        params["order_id"] = (home, params["order_id"][1])
        return TxnRequest(request.proc, params, home=home)

    def trace(self, n_orders: int, n_partitions: int,
              seed: int = 7) -> list[TxnRequest]:
        """A fixed workload trace (used to train the partitioners)."""
        from .._util import make_rng
        rng = make_rng(seed, "instacart-trace")
        return [self.next_request(i % n_partitions, rng)
                for i in range(n_orders)]
