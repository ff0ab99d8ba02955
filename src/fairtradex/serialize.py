"""JSON codecs for books, clearing results and rationals.

All emitters produce sorted-key, separator-normalised JSON so identical
inputs yield byte-identical files.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .auction import AuctionBook, ClearingResult
from .units import ANY, MKT, WITHDRAW, Order, Price, Width, check_width


# built once: ``json.dumps`` with these options builds an encoder on every call
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps_canonical(obj: Any) -> str:
    return _CANONICAL.encode(obj)


def fraction_to_json(f: Fraction) -> Any:
    if f.denominator == 1:
        return f.numerator
    return f"{f.numerator}/{f.denominator}"


def fraction_from_json(v: Any) -> Fraction:
    """A rational from a JSON integer or from a string ``"p/q"`` or plain
    decimal (``"121/100"``, ``"1.21"``, ``"-3"``), as ``Fraction`` reads them.

    Exponent notation (``"1e5"``) is refused: ``Fraction`` expands the power
    of ten before any size check, so ``"1e5000"`` parses to a number no
    later step can use and ``"1e10000000"`` takes seconds to parse at all.
    """
    if isinstance(v, bool):
        raise ValueError(f"not a rational: {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str) and "e" not in v.lower():
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise ValueError(f"not a rational: {v!r}") from None
    raise ValueError(f"not a rational: {v!r}")


def width_to_json(w: Width) -> Any:
    return "any" if w is ANY else fraction_to_json(w)


def width_from_json(v: Any) -> Width:
    if v == "any":
        return ANY
    return fraction_from_json(v)


def price_to_json(p: Price) -> Any:
    if p is MKT:
        return "mkt"
    if p is WITHDRAW:
        return "withdraw"
    return p


def price_from_json(v: Any) -> Price:
    """An order's price: a tick count or ``"mkt"`` (a withdrawal is never an order)."""
    if v == "mkt":
        return MKT
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise ValueError(f"not a price: {v!r}")


def _integer(d: dict, field: str) -> int:
    """``d[field]``, which must be a JSON integer: not ``true``, ``100.9`` or ``"100"``."""
    v = d[field]
    if type(v) is not int:
        raise ValueError(f"order {field} must be an integer, got {v!r}")
    return v


def order_from_json(d: dict) -> Order:
    side = d["side"]
    if side not in ("buy", "sell"):
        raise ValueError(f"side must be buy or sell, got {side!r}")
    owner = d.get("owner", "anon")
    if not isinstance(owner, str):
        raise ValueError(f"order owner must be a string, got {owner!r}")
    return Order(oid=_integer(d, "oid"), owner=owner,
                 tkn="A" if side == "buy" else "B", size=_integer(d, "size"),
                 price=price_from_json(d["price"]),
                 width_req=width_from_json(d.get("width", "any")))


def book_from_json(doc: dict) -> AuctionBook:
    """A book from its JSON form; oids are distinct and ``w_tight`` is a width."""
    if not isinstance(doc, dict):
        raise ValueError(f"<root>: book must be an object, got {doc!r}")
    try:
        w_tight = check_width(width_from_json(doc.get("w_tight", "any")))
    except ValueError as e:
        raise ValueError(f"w_tight: {e}") from None
    if not isinstance(doc["orders"], list):
        raise ValueError(f"orders must be a list, got {doc['orders']!r}")
    buys, sells, oids = [], [], set()
    for i, od in enumerate(doc["orders"]):
        if not isinstance(od, dict):
            raise ValueError(f"orders.{i} must be an object, got {od!r}")
        o = order_from_json(od)
        if o.oid in oids:
            raise ValueError(f"duplicate order oid {o.oid}")
        oids.add(o.oid)
        (buys if o.side == "buy" else sells).append(o)
    return AuctionBook(buy_orders=tuple(buys), sell_orders=tuple(sells), w_tight=w_tight)


def result_to_json(res: ClearingResult) -> dict:
    return {
        "cp": res.cp,
        "volume_b": res.volume_settled_b,
        "imbalance_a": res.imbalance_a,
        "fills": [{"oid": f.oid, "executed": f.executed, "received": f.received,
                   "refunded": f.refunded} for f in res.fills],
    }
