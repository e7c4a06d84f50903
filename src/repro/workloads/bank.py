"""A bank micro-workload: the correctness crucible for executors.

Transfers move money between accounts; the global balance is invariant
under any serializable execution, which makes this workload the
sharpest oracle we have for executor bugs (atomicity violations and lost
updates move money out of thin air).  A ``hot_accounts`` knob
concentrates traffic to create contention on demand.
"""

from __future__ import annotations

import random

from ..analysis import StoredProcedure, check, param_key, read, update
from ..storage import TableSpec
from ..txn.common import TxnRequest
from .base import Workload


def transfer_procedure() -> StoredProcedure:
    """Move ``amount`` from ``src`` to ``dst`` if funds suffice."""
    return StoredProcedure(
        "transfer", params=("src", "dst", "amount"),
        ops=[
            read("src_acct", "accounts", key=param_key("src"),
                 for_update=True),
            read("dst_acct", "accounts", key=param_key("dst"),
                 for_update=True),
            check("funded", deps=("src_acct",),
                  predicate=lambda p, ctx, item:
                      ctx["src_acct"]["balance"] >= p["amount"]),
            update("debit", target="src_acct",
                   set_fn=lambda p, ctx, item:
                       {"balance": ctx["src_acct"]["balance"]
                        - p["amount"]},
                   conditional=True),
            update("credit", target="dst_acct",
                   set_fn=lambda p, ctx, item:
                       {"balance": ctx["dst_acct"]["balance"]
                        + p["amount"]},
                   conditional=True),
        ])


def audit_procedure() -> StoredProcedure:
    """Read a set of accounts (shared locks only)."""
    return StoredProcedure(
        "audit", params=("accounts",),
        ops=[
            read("acct", "accounts",
                 key=param_key(lambda p, item: item),
                 foreach="accounts"),
        ])


AUDIT_FRACTION = 0.0
"""Share of requests that are read-only audits instead of transfers."""


class BankWorkload(Workload):
    """Random transfers (optionally skewed to a hot set) plus audits."""

    def __init__(self, n_accounts: int = 1000,
                 initial_balance: float = 1000.0,
                 hot_accounts: int = 0,
                 hot_probability: float = 0.0,
                 amount: float = 10.0):
        if hot_accounts > n_accounts:
            raise ValueError("hot set larger than the account population")
        self.n_accounts = n_accounts
        self.initial_balance = initial_balance
        self.hot_accounts = hot_accounts
        self.hot_probability = hot_probability
        self.amount = amount

    def tables(self) -> list[TableSpec]:
        return [TableSpec("accounts", n_buckets=4 * self.n_accounts)]

    def procedures(self) -> list[StoredProcedure]:
        return [transfer_procedure(), audit_procedure()]

    def populate(self, load) -> None:
        for acct in range(self.n_accounts):
            load("accounts", acct, {"balance": self.initial_balance})

    def total_balance(self) -> float:
        return self.n_accounts * self.initial_balance

    def next_request(self, home: int, rng: random.Random) -> TxnRequest:
        if AUDIT_FRACTION and rng.random() < AUDIT_FRACTION:
            accounts = rng.sample(range(self.n_accounts),
                                  min(5, self.n_accounts))
            return TxnRequest("audit", {"accounts": accounts}, home=home)
        src = self._pick_account(rng)
        dst = self._pick_account(rng)
        while dst == src:
            dst = self._pick_account(rng)
        return TxnRequest("transfer",
                          {"src": src, "dst": dst, "amount": self.amount},
                          home=home)

    def _pick_account(self, rng: random.Random) -> int:
        if self.hot_accounts and rng.random() < self.hot_probability:
            return rng.randrange(self.hot_accounts)
        return rng.randrange(self.n_accounts)
