"""The five TPC-C stored procedures in the operation IR.

Faithful to the spec's data flow where it matters for contention, with
these simplifications:

* customers are always selected by id (the 60%-by-last-name path needs
  a secondary index that adds nothing to the contention study);
* OrderStatus reads the customer's district's most recent order instead
  of walking a per-customer index, and skips its order lines;
* Delivery processes one district per invocation (the spec does all
  ten) and credits the order's stored total instead of summing lines;
* StockLevel samples ``check_items`` provided by the generator instead
  of scanning the last 20 orders' lines.

The two contention points the paper leans on are intact: every NewOrder
increments ``d_next_o_id`` on one of ten district rows, and every
Payment updates ``w_ytd`` on the single warehouse row that all
NewOrders also read-share (Section 7.3.2, Fig. 9c's starvation).
"""

from __future__ import annotations

from typing import Any, Mapping

from ...analysis import (StoredProcedure, check, delete, derived_key,
                         insert, param_key, read, update)


def _wd(p: Mapping[str, Any], item: Any) -> tuple:
    return (p["w_id"], p["d_id"])


def _order_total(p: Mapping[str, Any], ctx: Mapping[str, Any]) -> float:
    total = 0.0
    for i, line in enumerate(p["items"]):
        total += ctx[f"item[{i}]"]["i_price"] * line["qty"]
    return total


def new_order_procedure() -> StoredProcedure:
    """Place an order: the district increment is contention point #1."""
    return StoredProcedure(
        "new_order",
        params=("w_id", "d_id", "c_id", "items", "entry_d"),
        ops=[
            read("warehouse", "warehouse", key=param_key("w_id")),
            read("district", "district", key=param_key(_wd),
                 for_update=True),
            read("customer", "customer",
                 key=param_key(lambda p, i:
                               (p["w_id"], p["d_id"], p["c_id"]))),
            # 1% of requests carry an unused item id -> read miss ->
            # rollback, per the spec
            read("item", "item",
                 key=param_key(lambda p, line: line["i_id"]),
                 foreach="items"),
            read("stock", "stock",
                 key=param_key(lambda p, line:
                               (line["supply_w_id"], line["i_id"])),
                 for_update=True, foreach="items"),
            update("stock_upd", target="stock", foreach="items",
                   set_fn=_stock_update),
            update("district_upd", target="district",
                   set_fn=lambda p, ctx, i:
                       {"d_next_o_id": ctx["district"]["d_next_o_id"] + 1}),
            insert("order_ins", "order",
                   key=derived_key(
                       ("district",),
                       lambda p, ctx, i: (p["w_id"], p["d_id"],
                                          ctx["district"]["d_next_o_id"]),
                       partition_hint=lambda p, i:
                           (p["w_id"], p["d_id"], 0)),
                   fields_fn=lambda p, ctx, i: {
                       "o_c_id": p["c_id"],
                       "o_entry_d": p["entry_d"],
                       "o_carrier_id": None,
                       "o_ol_cnt": len(p["items"]),
                       "o_total": _order_total(p, ctx),
                   }),
            insert("new_order_ins", "new_order",
                   key=derived_key(
                       ("district",),
                       lambda p, ctx, i: (p["w_id"], p["d_id"],
                                          ctx["district"]["d_next_o_id"]),
                       partition_hint=lambda p, i:
                           (p["w_id"], p["d_id"], 0)),
                   fields_fn=lambda p, ctx, i: {}),
            insert("order_line_ins", "order_line", foreach="items",
                   key=derived_key(
                       ("district",),
                       lambda p, ctx, line: (
                           p["w_id"], p["d_id"],
                           ctx["district"]["d_next_o_id"],
                           line["ol_number"]),
                       partition_hint=lambda p, line:
                           (p["w_id"], p["d_id"], 0, 0)),
                   fields_fn=lambda p, ctx, line: {
                       "ol_i_id": line["i_id"],
                       "ol_supply_w_id": line["supply_w_id"],
                       "ol_qty": line["qty"],
                       "ol_amount": ctx["item"]["i_price"] * line["qty"],
                       "ol_delivery_d": None,
                   },
                   value_deps=("item",)),
        ])


def _stock_update(p: Mapping[str, Any], ctx: Mapping[str, Any],
                  line: Mapping[str, Any]) -> dict[str, Any]:
    stock = ctx["stock"]
    quantity = stock["s_quantity"] - line["qty"]
    if quantity < 10:
        quantity += 91
    return {
        "s_quantity": quantity,
        "s_ytd": stock["s_ytd"] + line["qty"],
        "s_order_cnt": stock["s_order_cnt"] + 1,
        "s_remote_cnt": stock["s_remote_cnt"]
        + (1 if line["supply_w_id"] != p["w_id"] else 0),
    }


def payment_procedure() -> StoredProcedure:
    """Pay a customer: the w_ytd update is contention point #2."""
    return StoredProcedure(
        "payment",
        params=("w_id", "d_id", "c_w_id", "c_d_id", "c_id", "amount",
                "h_id"),
        ops=[
            read("warehouse", "warehouse", key=param_key("w_id"),
                 for_update=True),
            read("district", "district", key=param_key(_wd),
                 for_update=True),
            read("customer", "customer",
                 key=param_key(lambda p, i:
                               (p["c_w_id"], p["c_d_id"], p["c_id"])),
                 for_update=True),
            update("warehouse_upd", target="warehouse",
                   set_fn=lambda p, ctx, i:
                       {"w_ytd": ctx["warehouse"]["w_ytd"] + p["amount"]}),
            update("district_upd", target="district",
                   set_fn=lambda p, ctx, i:
                       {"d_ytd": ctx["district"]["d_ytd"] + p["amount"]}),
            update("customer_upd", target="customer",
                   set_fn=lambda p, ctx, i: {
                       "c_balance": ctx["customer"]["c_balance"]
                       - p["amount"],
                       "c_ytd_payment": ctx["customer"]["c_ytd_payment"]
                       + p["amount"],
                       "c_payment_cnt": ctx["customer"]["c_payment_cnt"]
                       + 1,
                   }),
            insert("history_ins", "history",
                   key=param_key(lambda p, i:
                                 (p["w_id"], p["d_id"], p["c_id"],
                                  p["h_id"])),
                   fields_fn=lambda p, ctx, i: {
                       "h_amount": p["amount"],
                       "h_c_w_id": p["c_w_id"],
                       "h_c_name": ctx["customer"].get("c_last", ""),
                   },
                   value_deps=("customer",)),
        ])


def order_status_procedure() -> StoredProcedure:
    """Read a customer and the district's most recent order."""
    return StoredProcedure(
        "order_status",
        params=("w_id", "d_id", "c_id"),
        ops=[
            read("customer", "customer",
                 key=param_key(lambda p, i:
                               (p["w_id"], p["d_id"], p["c_id"]))),
            read("district", "district", key=param_key(_wd)),
            read("order", "order",
                 key=derived_key(
                     ("district",),
                     lambda p, ctx, i: (p["w_id"], p["d_id"],
                                        ctx["district"]["d_next_o_id"]
                                        - 1),
                     partition_hint=lambda p, i:
                         (p["w_id"], p["d_id"], 0))),
        ])


def delivery_procedure() -> StoredProcedure:
    """Deliver one district's oldest undelivered order."""
    return StoredProcedure(
        "delivery",
        params=("w_id", "d_id", "carrier_id", "delivery_d"),
        ops=[
            read("district", "district", key=param_key(_wd),
                 for_update=True),
            check("has_undelivered", deps=("district",),
                  predicate=lambda p, ctx, i:
                      ctx["district"]["d_next_del_o_id"]
                      < ctx["district"]["d_next_o_id"]),
            read("new_order", "new_order",
                 key=derived_key(
                     ("district",),
                     lambda p, ctx, i: (p["w_id"], p["d_id"],
                                        ctx["district"]
                                        ["d_next_del_o_id"]),
                     partition_hint=lambda p, i:
                         (p["w_id"], p["d_id"], 0)),
                 for_update=True),
            read("order", "order",
                 key=derived_key(
                     ("district",),
                     lambda p, ctx, i: (p["w_id"], p["d_id"],
                                        ctx["district"]
                                        ["d_next_del_o_id"]),
                     partition_hint=lambda p, i:
                         (p["w_id"], p["d_id"], 0)),
                 for_update=True),
            read("customer", "customer",
                 key=derived_key(
                     ("order",),
                     lambda p, ctx, i: (p["w_id"], p["d_id"],
                                        ctx["order"]["o_c_id"]),
                     partition_hint=lambda p, i:
                         (p["w_id"], p["d_id"], 0)),
                 for_update=True),
            delete("new_order_del", target="new_order"),
            update("order_upd", target="order",
                   set_fn=lambda p, ctx, i:
                       {"o_carrier_id": p["carrier_id"]}),
            update("customer_upd", target="customer",
                   set_fn=lambda p, ctx, i: {
                       "c_balance": ctx["customer"]["c_balance"]
                       + ctx["order"]["o_total"],
                       "c_delivery_cnt": ctx["customer"]
                       ["c_delivery_cnt"] + 1,
                   },
                   value_deps=("order",)),
            update("district_upd", target="district",
                   set_fn=lambda p, ctx, i: {
                       "d_next_del_o_id": ctx["district"]
                       ["d_next_del_o_id"] + 1}),
        ])


def stock_level_procedure() -> StoredProcedure:
    """Read the district cursor and a sample of stock rows."""
    return StoredProcedure(
        "stock_level",
        params=("w_id", "d_id", "threshold", "check_items"),
        ops=[
            read("district", "district", key=param_key(_wd)),
            read("stock", "stock",
                 key=param_key(lambda p, i_id: (p["w_id"], i_id)),
                 foreach="check_items"),
        ])


def all_procedures() -> list[StoredProcedure]:
    return [new_order_procedure(), payment_procedure(),
            order_status_procedure(), delivery_procedure(),
            stock_level_procedure()]
