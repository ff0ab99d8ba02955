"""Width-sensitive batch auction: filtering, tie-break, clearing and settlement.

Conventions used throughout (all arithmetic exact):

* Prices are integer ticks denominating A atoms per B atom; the candidate
  clearing-price grid is the tick grid.
* Buy orders sell A atoms, sell orders sell B atoms.
* Volume and imbalance comparisons are done in A units by cross
  multiplication: the tradable volume at price ``cp`` is
  ``min(buy_vol_a, sell_vol_b * cp)`` and the imbalance is
  ``buy_vol_a - sell_vol_b * cp``, both from ``score_at``.  No division
  appears anywhere in the clearing-price logic.
* Settlement moves whole B atoms ("lots" of ``cp`` A atoms each), so a buy
  order can execute at most ``size // cp`` lots; sub-lot dust is refunded.
* Volumes come from one depth view per book (limits sorted once, with
  running size sums).  The oracle ranks one tick per eligibility segment,
  at most n + 1 of them, from one linear merge walk over the two sorted
  limit lists: O(n log n) per clear for the sort, O(n) after it;
  settlement reads its price levels from the same view.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate, cycle, groupby
from operator import attrgetter, itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .membership import h
from .units import (ANY, MKT, TOKEN_A, TOKEN_B, Market, Order, Width,
                    encode_market, market_width)


class InvalidClearingPrice(Exception):
    pass


@dataclass(frozen=True)
class AuctionBook:
    buy_orders: tuple[Order, ...]
    sell_orders: tuple[Order, ...]
    w_tight: Width = ANY

    @cached_property
    def _depth(self) -> _Depth:
        """The book's depth view, built on first use and kept: a book is immutable."""
        return _Depth(self)


@dataclass(frozen=True)
class ClearingCandidate:
    """Oracle output: clearing price, volume and imbalance in A units."""

    cp: int
    volume_a: int
    imbalance_a: int


class Fill(NamedTuple):
    """One order's settlement row; a tuple, so ``itemgetter(0)`` is its oid."""

    oid: int
    executed: int   # tokens consumed from the order (A for buys, B for sells)
    received: int   # tokens received (B for buys, A for sells)
    refunded: int   # unexecuted remainder of the order's escrowed size
    order: Order    # the order it settles, paired once by ``settle``


@dataclass(frozen=True)
class ClearingResult:
    cp: int
    volume_settled_b: int
    imbalance_a: int
    fills: tuple[Fill, ...]


def filter_by_width(book: AuctionBook) -> tuple[AuctionBook, list[Order]]:
    """Drop orders whose requested width is below the tightest market width.

    Keeps orders with ``width_req >= w_tight`` or width ANY.  When no market
    was revealed (``w_tight`` is ANY) the constraint is vacuous and every
    order is kept.  Returns the filtered book and the removed orders, which
    settle as full refunds.  Widths compare by cross multiplication.
    """
    if book.w_tight is ANY:
        return book, []
    p, q = book.w_tight.numerator, book.w_tight.denominator
    kept_b, kept_s, removed = [], [], []
    for orders, kept in ((book.buy_orders, kept_b), (book.sell_orders, kept_s)):
        for o in orders:
            w = o.width_req
            (kept if w is ANY or w.numerator * q >= p * w.denominator else removed).append(o)
    filtered = replace(book, buy_orders=tuple(kept_b), sell_orders=tuple(kept_s))
    return filtered, removed


def tie_break_seed(revealed: Sequence[tuple[str, Market]]) -> bytes:
    """Seed over the full revealed set before any removal, in ``(player,
    encode_market(m))`` order: the order the reveals landed in is no input."""
    entries = sorted((p, encode_market(m)) for p, m in revealed)
    return h(*(p.encode() + b"|" + m for p, m in entries))


def select_tight_market(
    revealed: Sequence[tuple[str, Market]],
    eligible: Optional[Sequence[tuple[str, Market]]] = None,
) -> Optional[tuple[str, Market]]:
    """Pick the tightest market; break width ties by the largest hash digest.

    ``eligible`` restricts the candidates to the entries that passed
    re-validation; it defaults to ``revealed``.  A lone tightest market
    wins unhashed; tied ones rank by ``h(seed, player, encode_market(m))``
    under ``tie_break_seed(revealed)``, so neither list's order matters.
    """
    if eligible is None:
        eligible = revealed
    if not eligible:
        return None
    w_tight = min(market_width(m) for _, m in eligible)
    tied = [e for e in eligible if market_width(e[1]) == w_tight]
    if len(tied) == 1:
        return tied[0]
    seed = tie_break_seed(revealed)
    return max(tied, key=lambda e: h(seed, e[0].encode(), encode_market(e[1])))


def round_book(buys: Iterable[Order], sells: Iterable[Order],
               tight: Optional[tuple[str, Market]], oid: int) -> AuctionBook:
    """A round's book before the width filter: the client orders, then the tight market's.

    The tight market ``(player, market)`` adds its implicit width-ANY limit
    orders, one per leg of nonzero size: a buy of ``market.size_bid`` A
    atoms at the bid (oid ``oid``) and a sell of ``market.size_offer`` B
    atoms at the offer (oid ``oid + 1``), and sets ``w_tight`` to its width.
    The caller sizes the legs: the protocol passes the market with each
    leg capped by the quoter's escrow, which can floor a leg to 0 atoms.
    With no tight market the book is the client orders at width ANY.
    """
    if tight is None:
        return AuctionBook(buy_orders=tuple(buys), sell_orders=tuple(sells))
    player, m = tight
    bid = (Order(oid=oid, owner=player, tkn=TOKEN_A, size=m.size_bid, price=m.bid,
                 width_req=ANY),) if m.size_bid else ()
    offer = (Order(oid=oid + 1, owner=player, tkn=TOKEN_B, size=m.size_offer, price=m.offer,
                   width_req=ANY),) if m.size_offer else ()
    return AuctionBook(buy_orders=(*buys, *bid), sell_orders=(*sells, *offer),
                       w_tight=market_width(m))


class _Depth:
    """A book's price structure, from one sort of its limit orders.

    A buy limit is eligible at ``cp`` when ``limit >= cp`` and a sell limit
    when ``limit <= cp``; market orders are eligible at every tick and
    withdrawals at none.  Buy sizes are summed from the highest limit down
    and sell sizes from the lowest up, each sum starting from that side's
    market-order total, so both volumes at a tick are two bisections away,
    and the eligible orders are one slice of each sorted side.
    """

    def __init__(self, book: AuctionBook):
        self._buys = sorted((o for o in book.buy_orders if isinstance(o.price, int)),
                            key=attrgetter("price"))
        self._sells = sorted((o for o in book.sell_orders if isinstance(o.price, int)),
                             key=attrgetter("price"))
        self._mkt_buys = [o for o in book.buy_orders if o.price is MKT]
        self._mkt_sells = [o for o in book.sell_orders if o.price is MKT]
        self._buy_limits = [o.price for o in self._buys]
        self._sell_limits = [o.price for o in self._sells]
        # _buy_from[i]: A atoms of _buys[i:] plus every market buy
        self._buy_from = list(accumulate(
            (o.size for o in reversed(self._buys)),
            initial=sum(o.size for o in self._mkt_buys)))[::-1]
        # _sell_upto[j]: B atoms of _sells[:j] plus every market sell
        self._sell_upto = list(accumulate(
            (o.size for o in self._sells), initial=sum(o.size for o in self._mkt_sells)))

    def volumes(self, cp: int) -> tuple[int, int]:
        return (self._buy_from[bisect_left(self._buy_limits, cp)],
                self._sell_upto[bisect_right(self._sell_limits, cp)])

    def score(self, cp: int) -> tuple[int, int]:
        """(volume, imbalance) in A units at ``cp``: the clearing objective."""
        buy_vol, sell_vol = self.volumes(cp)
        sell_a = sell_vol * cp
        return min(buy_vol, sell_a), buy_vol - sell_a

    @cached_property
    def segments(self) -> list[tuple[int, int, int]]:
        """Each trading segment's ``(best tick, buy A atoms, sell B atoms)``, ascending.

        One merge walk over the two sorted limit lists.  Eligibility changes
        only at a sell limit (the sell joins) and one past a buy limit (the
        buy leaves), so those ticks and 1 start the segments; equal starts
        merge.  On a segment the buy volume B and sell volume S are fixed:
        the volume min(B, S * cp) rises until S * cp >= B, and |imbalance|
        rises after that, so the best tick under (max volume, min
        |imbalance|, lowest price) is ceil(B / S), clamped into the segment.
        A segment where one side is empty trades nothing and is left out.
        """
        end = float("inf")   # past every limit: stops each pointer and the walk
        buys, sells = [*self._buy_limits, end], [*self._sell_limits, end]
        buy_from, sell_upto = self._buy_from, self._sell_upto
        out = []
        i = j = 0   # buy limits below the tick, sell limits at or below it
        tick = 1
        while tick != end:
            while sells[j] <= tick:
                j += 1
            while buys[i] < tick:
                i += 1
            nxt = sells[j] if sells[j] <= buys[i] else buys[i] + 1
            buy_vol, sell_vol = buy_from[i], sell_upto[j]
            if buy_vol and sell_vol:
                cp = -(-buy_vol // sell_vol)
                if cp < tick:
                    cp = tick
                elif cp >= nxt:
                    cp = nxt - 1
                out.append((cp, buy_vol, sell_vol))
            tick = nxt
        return out

    def levels(self, cp: int) -> tuple[list[list[Order]], list[list[Order]]]:
        """Each side's orders eligible at ``cp`` as price levels, most aggressive first.

        The market orders lead as one level (empty if there are none), so a
        limit level at the margin is pro-rated before any market order; then
        buys run from the highest limit down and sells from the lowest up.
        """
        buys = reversed(self._buys[bisect_left(self._buy_limits, cp):])
        sells = self._sells[:bisect_right(self._sell_limits, cp)]
        return ([self._mkt_buys, *(list(g) for _, g in groupby(buys, attrgetter("price")))],
                [self._mkt_sells, *(list(g) for _, g in groupby(sells, attrgetter("price")))])


def volumes_at(book: AuctionBook, cp: int) -> tuple[int, int]:
    """(buy volume in A atoms, sell volume in B atoms) eligible at ``cp``.

    ``cp`` may be 0 for the verifier's adjacent-tick check below price 1.
    """
    return book._depth.volumes(cp)


def score_at(book: AuctionBook, cp: int) -> tuple[int, int]:
    """(volume, imbalance) in A units at ``cp``, which may be 0 as in ``volumes_at``."""
    return book._depth.score(cp)


def candidate_prices(book: AuctionBook) -> list[int]:
    """Each constant-eligibility segment's optimal tick, ascending.

    The ticks of ``_Depth.segments``: one linear merge walk after the
    depth view's sort.  Every listed tick trades.
    """
    return [cp for cp, _, _ in book._depth.segments]


def find_clearing_price(book: AuctionBook) -> Optional[ClearingCandidate]:
    """Clearing-price oracle: the best of ``candidate_prices``.

    Maximises traded volume, then minimises |imbalance|, then picks the
    lowest price.  Returns None when no price trades positive volume.
    """
    best_cp = best_vol = best_imb = best_gap = 0
    for cp, buy_vol, sell_vol in book._depth.segments:
        sell_a = sell_vol * cp
        vol, gap = (sell_a, buy_vol - sell_a) if sell_a < buy_vol else (buy_vol, sell_a - buy_vol)
        # every segment trades, so the first one always takes the lead
        if vol > best_vol or (vol == best_vol and gap < best_gap):
            best_cp, best_vol, best_imb, best_gap = cp, vol, buy_vol - sell_a, gap
    if not best_cp:
        return None
    return ClearingCandidate(cp=best_cp, volume_a=best_vol, imbalance_a=best_imb)


def verify_clearing_price(book: AuctionBook, cp: int, volume_a: int, imbalance_a: int) -> bool:
    """Local clearing-price check: recompute, then test one adjacent tick.

    The claimed volume and imbalance (A units) must match the recomputation
    exactly and some volume must trade.  A zero imbalance is immediately
    valid; otherwise ``cp`` must rank strictly above the adjacent tick on
    the surplus side under the oracle's key (more volume, then a smaller
    absolute imbalance, then the lower price), each valued at its own
    price: exactly the oracle's ranking restricted to one neighbour.  Every
    oracle pick passes, and of two exactly tied ticks only the lower does.
    """
    if not isinstance(cp, int) or isinstance(cp, bool) or cp < 1:
        return False
    vol, imb = score_at(book, cp)
    if volume_a != vol or imbalance_a != imb or vol == 0:
        return False
    if imb == 0:
        return True
    probe = cp + 1 if imb > 0 else cp - 1
    vol2, imb2 = score_at(book, probe)
    return (vol, -abs(imb), -cp) > (vol2, -abs(imb2), -probe)


def _waterfall(levels: list[list[Order]], total: int, lot: int) -> dict[int, int]:
    """Fill ``total`` lots through priority-ordered levels of orders.

    An order's cap is ``size // lot`` lots (``lot`` is ``cp`` for buys, 1
    for sells).  Levels whose caps fit fill to cap.  The level where the
    residual lands gets floor pro-rata shares by size (no floor exceeds its
    cap: every cap shares one ``lot``), then the leftover one lot at a time
    by largest remainder, ties by ascending oid, then level order, cycling
    past entries at cap; later levels get nothing.  All in integers: a
    level's entries share one size sum ``w_sum``, so ``floor * w_sum -
    total * size`` ascending is remainder descending.  Lots are keyed by
    ``id(order)``, so orders that share an oid fill apart; absent orders
    fill zero.
    """
    fills: dict[int, int] = {}
    for level in levels:
        cap_sum = sum(o.size // lot for o in level)
        if total >= cap_sum:
            for o in level:
                fills[id(o)] = o.size // lot
            total -= cap_sum
            continue
        w_sum = sum(o.size for o in level)
        ranked = []
        leftover = total
        for i, o in enumerate(level):
            floor = total * o.size // w_sum
            fills[id(o)] = floor
            leftover -= floor
            ranked.append((floor * w_sum - total * o.size, o.oid, i, id(o), o.size // lot))
        ranked.sort()
        for *_, key, cap in cycle(ranked):
            if not leftover:
                break
            if fills[key] < cap:
                fills[key] += 1
                leftover -= 1
        break
    return fills


def settle(book: AuctionBook, cp: int) -> ClearingResult:
    """Exact integer pro-rata settlement at ``cp``.

    Fills are denominated in whole B atoms; each buy lot costs exactly
    ``cp`` A atoms, so conservation holds bit-for-bit: total A spent equals
    total A received equals ``volume * cp``, and likewise for B.  Each side
    fills ``volume`` through ``_waterfall`` over the depth view's price
    levels, a buy capped at ``size // cp`` lots and a sell at its size.
    Callers that need the local-optimality guarantee (the protocol's
    resolution path) run ``verify_clearing_price`` first; here only a price
    with no volume in A units is rejected.  That check counts sub-lot dust,
    so a price at which every eligible buy is smaller than ``cp`` passes and
    settles zero lots, refunding every order.
    """
    if not isinstance(cp, int) or isinstance(cp, bool) or cp < 1:
        raise InvalidClearingPrice(f"not a price: {cp!r}")
    vol, imb = score_at(book, cp)
    if vol == 0:
        raise InvalidClearingPrice(f"no volume trades at cp={cp}")

    buy_levels, sell_levels = book._depth.levels(cp)
    volume = min(sum(o.size // cp for level in buy_levels for o in level),
                 sum(o.size for level in sell_levels for o in level))

    buy_fills = _waterfall(buy_levels, volume, cp)
    sell_fills = _waterfall(sell_levels, volume, 1)

    fills = [Fill(o.oid, lots * cp, lots, o.size - lots * cp, o)
             for o in book.buy_orders for lots in (buy_fills.get(id(o), 0),)]
    fills += [Fill(o.oid, delivered, delivered * cp, o.size - delivered, o)
              for o in book.sell_orders for delivered in (sell_fills.get(id(o), 0),)]
    # stable: ascending oid, a buy before a sell that shares its oid
    fills.sort(key=itemgetter(0))
    return ClearingResult(cp=cp, volume_settled_b=volume, imbalance_a=imb, fills=tuple(fills))


def conservation_problems(cp: int, volume_b: int, fills: Iterable[Fill]) -> list[str]:
    """Exact-conservation problems of a settlement at ``cp`` (empty if none).

    Each fill is checked against its ``order``: it must account for the
    order's whole size with no negative amount and trade whole lots at
    ``cp``, and the A and B legs summed over all fills must both balance
    at ``volume_b`` B atoms.
    """
    problems = []
    a_spent = a_received = b_received = b_delivered = 0
    for oid, executed, received, refunded, order in fills:
        side = order.side
        if executed < 0 or received < 0 or refunded < 0:
            problems.append(f"{side} fill {oid}: negative amount")
        if executed + refunded != order.size:
            problems.append(f"{side} fill {oid}: executed + refunded != size")
        if side == "buy":
            if executed != received * cp:
                problems.append(f"buy fill {oid}: A spent != lots * cp")
            a_spent += executed
            b_received += received
        else:
            if received != executed * cp:
                problems.append(f"sell fill {oid}: A received != delivered * cp")
            b_delivered += executed
            a_received += received
    if not (a_spent == a_received == volume_b * cp):
        problems.append("A legs do not balance")
    if not (b_received == b_delivered == volume_b):
        problems.append("B legs do not balance")
    return problems


def validate_clearing_result(book: AuctionBook, res: ClearingResult) -> None:
    """Assert the exact-conservation invariants of a settlement.

    The fills must carry the book's orders, each once by identity, in
    ``settle``'s order; each fill is then checked against its order.
    """
    orders = sorted((*book.buy_orders, *book.sell_orders), key=attrgetter("oid"))
    if len(res.fills) != len(orders) or any(
            f.order is not o or f.oid != o.oid for f, o in zip(res.fills, orders)):
        raise AssertionError("fills are not the book's orders in fill order")
    problems = conservation_problems(res.cp, res.volume_settled_b, res.fills)
    if problems:
        raise AssertionError("; ".join(problems))
