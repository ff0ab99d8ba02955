"""Domain vocabulary shared by the auction, ledger and protocol layers.

All settlement arithmetic is exact: token amounts are non-negative integers
(atoms), prices are integer tick counts, widths are `Fraction`s (or the ANY
sentinel); quoting rounds in integers too.  Floating point shows up only in
the analysis layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Union

# Token identifiers.  REF is the reference token in which escrows, fees and
# notional values are denominated.
TOKEN_A = "A"
TOKEN_B = "B"
TOKEN_REF = "REF"


class QuantityError(ValueError):
    """A token amount went out of domain (negative or non-integer)."""


def check_quantity(atoms: int) -> int:
    """Validate an atom count: integer and >= 0."""
    if not isinstance(atoms, int) or isinstance(atoms, bool):
        raise QuantityError(f"quantity must be an int, got {atoms!r}")
    if atoms < 0:
        raise QuantityError(f"quantity must be >= 0, got {atoms}")
    return atoms


def check_price(ticks: int) -> int:
    """Validate a price in ticks: integer and >= 1."""
    if not isinstance(ticks, int) or isinstance(ticks, bool):
        raise QuantityError(f"price must be an int tick count, got {ticks!r}")
    if ticks < 1:
        raise QuantityError(f"price must be >= 1 tick, got {ticks}")
    return ticks


class _AnyWidth:
    """Width sentinel: the order accepts any market width.  It has no order
    against numeric widths; test for it with ``is ANY``."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ANY"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("ANY_WIDTH")


ANY = _AnyWidth()

Width = Union[Fraction, _AnyWidth]


def check_width(w: Width) -> Width:
    if w is ANY:
        return w
    if not isinstance(w, Fraction):
        raise QuantityError(f"width must be a Fraction or ANY, got {w!r}")
    if w.numerator < w.denominator:  # w < 1, as a Fraction's denominator is positive
        raise QuantityError(f"numeric width must be >= 1, got {w}")
    return w


class _SpecialPrice:
    def __init__(self, name: str):
        self._name = name

    def __repr__(self):
        return self._name


#: Market order: no limit price, maximally aggressive.
MKT = _SpecialPrice("MKT")
#: Withdrawal pseudo-order: reveal consumes the commitment and returns escrow.
WITHDRAW = _SpecialPrice("WITHDRAW")

Price = Union[int, _SpecialPrice]


@dataclass(frozen=True)
class Market:
    """A two-sided quote: bid and offer in ticks plus the backing sizes.

    ``size_bid`` is in A atoms (tokens backing the bid, i.e. what the quoter
    pays when buying B), ``size_offer`` is in B atoms.
    """

    bid: int
    size_bid: int
    offer: int
    size_offer: int

    def __post_init__(self):
        check_price(self.bid)
        check_price(self.offer)
        check_quantity(self.size_bid)
        check_quantity(self.size_offer)
        if not self.bid <= self.offer:
            raise QuantityError(f"market must satisfy bid <= offer, got {self.bid} @ {self.offer}")


def market_width(m: Market) -> Fraction:
    """offer / bid as an exact rational (>= 1 by construction)."""
    return Fraction(m.offer, m.bid)


def quote(ref: int, w: Fraction) -> tuple[int, int]:
    """(bid, offer) in ticks of a market of width ``w`` around ``ref``.

    The bid is ``ref / sqrt(w)`` and the offer ``ref * sqrt(w)``, each
    rounded half up in exact integers (``quote(55, 121/100)`` offers 61 for
    60.5), then clamped to ``1 <= bid <= offer``.
    """
    # x rounded half up is (floor(2x) + 1) // 2, and floor(2x) = isqrt(floor(4x^2))
    p, q = w.numerator, w.denominator
    bid = max(1, (math.isqrt(4 * ref * ref * q // p) + 1) // 2)
    offer = max(bid, (math.isqrt(4 * ref * ref * p // q) + 1) // 2)
    return bid, offer


@dataclass(frozen=True)
class Order:
    """A revealed order.  ``tkn`` is the token being sold: selling A buys the
    swap, selling B sells the swap."""

    oid: int
    owner: str
    tkn: str  # TOKEN_A or TOKEN_B
    size: int
    price: Price
    width_req: Width

    def __post_init__(self):
        if self.tkn not in (TOKEN_A, TOKEN_B):
            raise QuantityError(f"order token must be A or B, got {self.tkn!r}")
        check_quantity(self.size)
        if isinstance(self.price, int):
            check_price(self.price)
        elif self.price is not MKT and self.price is not WITHDRAW:
            raise QuantityError(f"bad price {self.price!r}")
        check_width(self.width_req)
        if self.price is not WITHDRAW and self.size == 0:
            raise QuantityError("order size must be > 0 unless withdrawing")

    @property
    def side(self) -> str:
        return "buy" if self.tkn == TOKEN_A else "sell"


def encode_price(p: Price) -> bytes:
    if p is MKT:
        return b"mkt"
    if p is WITHDRAW:
        return b"wd"
    return str(p).encode()


def encode_width(w: Width) -> bytes:
    if w is ANY:
        return b"any"
    return f"{w.numerator}/{w.denominator}".encode()


def encode_order_fields(tkn: str, size: int, price: Price, width: Width) -> bytes:
    """Canonical byte encoding of an order body, used for commitments."""
    return b"|".join([b"ord", tkn.encode(), str(size).encode(),
                      encode_price(price), encode_width(width)])


def encode_market(m: Market) -> bytes:
    """Canonical byte encoding of a market, used for commitments and tie-breaks."""
    return b"|".join([b"mm", str(m.bid).encode(), str(m.size_bid).encode(),
                      str(m.offer).encode(), str(m.size_offer).encode()])


@dataclass(frozen=True)
class ProtocolParams:
    """Static parameters of one protocol instance.

    ``e_mm`` must exceed ``q_not`` (it plays the role of c * q_not for
    some c > 1).  ``t_blocks`` is the base inclusion bound; the effective
    bound inflates it by 1/(1 - alpha) when block producers may be
    participants.

    ``ref`` REF is worth exactly ``ref / (p_a * price)`` token atoms: A
    atoms at ``price`` 1, B atoms at ``price`` ticks.  ``atoms_floor``
    rounds that down (the whole atoms ``ref`` pays for, as an escrow cap)
    and ``atoms_ceil`` rounds it up (the fewest whole atoms worth at least
    ``ref``, as a minimum size); both stay in integers.
    """

    e_client: int
    e_mm: int
    q_not: int
    f_r: int
    res_bounty: int
    p_a: Fraction
    t_blocks: int
    alpha: Fraction = Fraction(0)

    def __post_init__(self):
        for name in ("e_client", "e_mm", "q_not", "f_r", "res_bounty"):
            check_quantity(getattr(self, name))
        if self.e_mm <= self.q_not:
            raise QuantityError(f"e_mm must exceed q_not, got {self.e_mm} <= {self.q_not}")
        if self.p_a <= 0:
            raise QuantityError("p_a must be positive")
        if self.t_blocks < 1:
            raise QuantityError("t_blocks must be >= 1")
        if not 0 <= self.alpha < 1:
            raise QuantityError("alpha must lie in [0, 1)")

    def atoms_floor(self, ref: int, price: int = 1) -> int:
        """Whole token atoms worth at most ``ref`` REF: floor(ref / (p_a * price))."""
        return ref * self.p_a.denominator // (self.p_a.numerator * price)

    def atoms_ceil(self, ref: int, price: int = 1) -> int:
        """Whole token atoms worth at least ``ref`` REF: ceil(ref / (p_a * price))."""
        return -(-ref * self.p_a.denominator // (self.p_a.numerator * price))

    @cached_property
    def t_eff(self) -> int:
        """ceil(t_blocks / (1 - alpha)): worst-case inclusion delay, computed
        once per params object (the fields are frozen; ``replace`` builds a
        new object)."""
        return math.ceil(Fraction(self.t_blocks) / (1 - self.alpha))
