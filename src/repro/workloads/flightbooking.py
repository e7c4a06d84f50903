"""The paper's running example: a simplified ticket-purchase procedure.

This is the stored procedure of Fig. 4, transcribed into the op IR::

    f = read(flight, key=flight_id)            # hot, updated
    c = read(customer, key=cust_id)            # updated
    t = read(tax, key=c.state)                 # pk-dep on c
    cost = f.price * (1 + t.rate)
    if c.balance >= cost and f.seats > 0:
        update(f, seats -= 1)
        update(c, balance -= cost)             # v-dep on inner 'cost'
        insert(seats, key=(flight_id, seat_id))  # pk-dep on f (seat_id)
    else: abort

With a hot flight record, static analysis + the region planner put
``{f, f_upd, s_ins}`` in the inner region and keep the customer and tax
accesses in the outer region — the exact split shown in the paper.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..analysis import (StoredProcedure, check, derived_key, insert,
                        param_key, read, update)
from ..storage import TableSpec

FLIGHT_TABLES = [
    TableSpec("flight", n_buckets=4096),
    TableSpec("customer", n_buckets=4096),
    TableSpec("tax", n_buckets=64),
    TableSpec("seats", n_buckets=4096),
]


def ticket_cost(ctx: Mapping[str, Any]) -> float:
    """cost = flight price plus tax (the paper's calculate_cost)."""
    return ctx["f"]["price"] * (1.0 + ctx["t"]["rate"])


def flight_booking_procedure() -> StoredProcedure:
    """Build the Fig. 4 stored procedure."""
    return StoredProcedure(
        "book_flight",
        params=("flight_id", "cust_id"),
        ops=[
            read("f", "flight", key=param_key("flight_id"),
                 for_update=True),
            read("c", "customer", key=param_key("cust_id"),
                 for_update=True),
            read("t", "tax",
                 key=derived_key(("c",),
                                 lambda p, ctx, item: ctx["c"]["state"])),
            check("ok", deps=("f", "c", "t"),
                  predicate=lambda p, ctx, item:
                      ctx["c"]["balance"] >= ticket_cost(ctx)
                      and ctx["f"]["seats"] > 0),
            update("f_upd", target="f",
                   set_fn=lambda p, ctx, item:
                       {"seats": ctx["f"]["seats"] - 1},
                   conditional=True),
            update("c_upd", target="c",
                   set_fn=lambda p, ctx, item:
                       {"balance": ctx["c"]["balance"] - ticket_cost(ctx)},
                   value_deps=("f", "t"), conditional=True),
            insert("s_ins", "seats",
                   key=derived_key(
                       ("f",),
                       lambda p, ctx, item:
                           (p["flight_id"], ctx["f"]["seats"]),
                       partition_hint=lambda p, item: (p["flight_id"], 0)),
                   fields_fn=lambda p, ctx, item:
                       {"cust": p["cust_id"], "name": ctx["c"]["name"]},
                   value_deps=("c",), conditional=True),
        ])


def seats_routing_key(key: Any) -> Any:
    """Seats rows co-locate with their flight: route by flight id."""
    return key[0]


def flight_routing(table: str, key: Any) -> Any:
    """Routing function for hash placement: seats rows follow their
    flight (which makes the insert's partition hint trustworthy)."""
    if table == "seats":
        return seats_routing_key(key)
    return key


N_FLIGHTS = 100
N_CUSTOMERS = 1000
N_STATES = 10
SEATS_PER_FLIGHT = 200
BALANCE = 10_000.0
"""What :func:`populate` loads: flights with their seats, customers
with their opening balance, one tax rate per state."""


def populate(load) -> None:
    """Load the three base tables through ``load(table, key, fields)``."""
    for flight_id in range(N_FLIGHTS):
        load("flight", flight_id,
             {"price": 100.0 + flight_id, "seats": SEATS_PER_FLIGHT})
    for cust_id in range(N_CUSTOMERS):
        load("customer", cust_id,
             {"balance": BALANCE, "name": f"cust-{cust_id}",
              "state": cust_id % N_STATES})
    for state in range(N_STATES):
        load("tax", state, {"rate": 0.05 + 0.005 * state})
