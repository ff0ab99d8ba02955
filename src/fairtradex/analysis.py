"""Rational-agent analysis: closed-form utilities, best-response
equilibrium checks, and the execution-cost comparison model.  (The fair
price's impact process is the scenario runner's, ``Runner.current_y``.)

Everything here works in floating point; nothing feeds back into
settlement.  Quoter profit follows the two-leg expectation

    profit(X, y, p, w, d) = X * ( (1/2)(1/sqrt(d) - (sqrt(d)/sqrt(w)) * y/p)
                               +  (1/2)(1/sqrt(d) - (sqrt(d)/sqrt(w)) * p/y) )

whose argmax over the reference price p sits at the fair price y for any
fixed width, and which vanishes at (p=y, w=1, d=1).

Only the standard library is used.  The two-quoter Monte Carlo check
draws its client flow with ``random.Random`` and reduces the drawn paths
to one count per flow pattern before computing any statistic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .auction import (AuctionBook, filter_by_width, find_clearing_price, round_book,
                      select_tight_market, settle)
from .units import MKT, TOKEN_A, TOKEN_B, Market, Order, Width, quote

# ---------------------------------------------------------------------------
# Closed-form utilities
# ---------------------------------------------------------------------------


def _check_positive(**kwargs: float) -> None:
    for name, v in kwargs.items():
        if not (v > 0 and math.isfinite(v)):
            raise ValueError(f"{name} must be positive and finite, got {v}")


def mm_buyer_leg(x, y, p_ref, w, delta):
    """Quoter's expected profit against a client buyer of notional x."""
    return x * (1.0 / delta ** 0.5 - (delta ** 0.5 / w ** 0.5) * (y / p_ref))


def mm_seller_leg(x, y, p_ref, w, delta):
    """Quoter's expected profit against a client seller of notional x."""
    return x * (1.0 / delta ** 0.5 - (delta ** 0.5 / w ** 0.5) * (p_ref / y))


def _profit(x, y, p_ref, w, delta):
    """``mm_expected_profit`` without its argument checks."""
    return 0.5 * mm_buyer_leg(x, y, p_ref, w, delta) + 0.5 * mm_seller_leg(x, y, p_ref, w, delta)


def mm_expected_profit(x: float, y: float, p_ref: float, w: float, delta: float) -> float:
    """Fair-coin average of the buyer and seller legs; NaN and infinities are rejected."""
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(p_ref)
            and math.isfinite(w) and math.isfinite(delta)):
        raise ValueError(f"arguments must be finite, got {x}, {y}, {p_ref}, {w} and {delta}")
    if not (x > 0 and y > 0 and p_ref > 0):
        raise ValueError(f"x, y and p_ref must be positive, got {x}, {y} and {p_ref}")
    if not (w >= 1 and delta >= 1):
        raise ValueError(f"w and delta must be >= 1, got {w} and {delta}")
    return _profit(x, y, p_ref, w, delta)


_P_REF_POINTS = 1501


def p_ref_grid(y: float) -> list[float]:
    """The 1,501 reference prices y/2, y/2 + y/1000, ..., 2y, spaced as
    ``numpy.arange(y/2, 2*y + y/2000, y/1000)`` spaces them."""
    start = y / 2
    step = (start + y / 1000) - start  # arange's step: its second point less its first
    return [start + i * step for i in range(_P_REF_POINTS)]


def p_ref_argmax(x: float, y: float, w: float, delta: float) -> float:
    """Grid argmax of the quoter profit over ``p_ref_grid(y)``; the first
    maximum on a tie.  The arguments are checked once, at the grid's
    least and greatest points: every point between them passes too.  The
    two factors that do not depend on the point are computed once, and
    each point's profit then takes ``_profit``'s float operations in its
    order, so every value is ``_profit``'s."""
    grid = p_ref_grid(y)
    mm_expected_profit(x, y, min(grid), w, delta)
    mm_expected_profit(x, y, max(grid), w, delta)
    inv_root = 1.0 / delta ** 0.5
    slope = delta ** 0.5 / w ** 0.5
    return max(grid, key=lambda p: 0.5 * (x * (inv_root - slope * (y / p)))
               + 0.5 * (x * (inv_root - slope * (p / y))))


def client_utility(trade_price: float, y: float, side: str, f_mcf: float) -> float:
    """Signed log-distance from the break-even bound.

    Buyers break even at sqrt(f_mcf)*y, sellers at y/sqrt(f_mcf); the sign
    is what the equilibrium arguments use, the log magnitude is this
    implementation's convention.
    """
    _check_positive(trade_price=trade_price, y=y)
    if not (f_mcf > 1 and math.isfinite(f_mcf)):
        raise ValueError(f"f_mcf must be finite and exceed 1, got {f_mcf}")
    root = math.sqrt(f_mcf)
    if side == "buy":
        return math.log(root * y / trade_price)
    if side == "sell":
        return math.log(trade_price * root / y)
    raise ValueError(f"side must be 'buy' or 'sell', got {side!r}")


# ---------------------------------------------------------------------------
# Strategy profiles and deviation grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClientProfile:
    order_type: str = "mkt"              # "mkt" or "limit"
    width_req: Fraction = Fraction(121, 100)
    limit_price: Optional[int] = None    # ticks; only for order_type "limit"


@dataclass(frozen=True)
class MMProfile:
    width: Fraction = Fraction(1)
    ref_price: Optional[int] = None      # ticks; None quotes at the fair price


@dataclass(frozen=True)
class StrategyProfile:
    client: ClientProfile
    mm: MMProfile


@dataclass(frozen=True)
class DeviationGrid:
    """Unilateral deviations tried against a profile."""

    mm_ref_prices: tuple[int, ...]
    mm_widths: tuple[Fraction, ...]
    client_limit_prices: tuple[int, ...]
    client_widths: tuple[Fraction, ...]


def default_grid(y: int, f_mcf: Fraction) -> DeviationGrid:
    """Coarse cover of p_ref in [y/2, 2y] and widths in [1, 2*f_mcf].  It
    lists the price ``y - 2``, so y must be at least 3."""
    if y < 3:
        raise ValueError(f"default_grid needs y >= 3 for prices of at least 1 tick, got y={y!r}")
    refs = sorted({y // 2, (3 * y) // 4, y - 2, y - 1, y, y + 1, y + 2, (3 * y) // 2, 2 * y})
    top = 2 * f_mcf
    widths = sorted({Fraction(1), 1 + (top - 1) / 8, 1 + (top - 1) / 4, Fraction(11, 10),
                     f_mcf, 1 + (top - 1) / 2, 1 + 3 * (top - 1) / 4, top})
    return DeviationGrid(
        mm_ref_prices=tuple(refs),
        mm_widths=tuple(widths),
        client_limit_prices=tuple(refs),
        client_widths=tuple(widths),
    )


@dataclass(frozen=True)
class DeviationResult:
    player: str
    label: str
    utility_profile: float
    utility_deviation: float
    gain: float
    tolerance: float

    @property
    def improves(self) -> bool:
        return self.gain > self.tolerance


@dataclass
class BestResponseReport:
    mode: str
    n_mms: int
    profile: str
    epsilon_rule: str
    paths: int
    entries: list[DeviationResult]

    @property
    def max_gain(self) -> float:
        return max(e.gain for e in self.entries)

    @property
    def confirmed(self) -> bool:
        return not any(e.improves for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n_mms": self.n_mms,
            "profile": self.profile,
            "epsilon_rule": self.epsilon_rule,
            "paths": self.paths,
            "max_gain": self.max_gain,
            "confirmed": self.confirmed,
            "deviations": [
                {"player": e.player, "label": e.label,
                 "utility_profile": e.utility_profile,
                 "utility_deviation": e.utility_deviation,
                 "gain": e.gain, "tolerance": e.tolerance,
                 "improves": e.improves}
                for e in self.entries
            ],
        }

    def to_csv(self) -> str:
        lines = ["player,deviation,utility_profile,utility_deviation,gain,tolerance,improves"]
        for e in self.entries:
            label = e.label.replace(",", ";")
            lines.append(f"{e.player},{label},{e.utility_profile:.12g},"
                         f"{e.utility_deviation:.12g},{e.gain:.12g},"
                         f"{e.tolerance:.12g},{e.improves}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Closed-form best response: single quoter
# ---------------------------------------------------------------------------

#: The one-quoter check's client notional, and its tolerance: 1e-9 * notional
_NOTIONAL = 1.0
_EPSILON = 1e-9


def _closed_form_mm_utility(x: float, y: float, p_ref: float, w: float,
                            delta: float, client_width: float):
    # orders requesting a tighter market than quoted never trade
    if w > client_width:
        return 0.0
    return mm_expected_profit(x, y, p_ref, w, delta)


def _closed_form_client_utility(order_type: str, width_req: float,
                                limit_price: Optional[float], side: str,
                                y: float, f_mcf: float,
                                mm_width: float, mm_ref: float) -> float:
    """Client utility in the one-quoter game, given the quoter's market."""
    if width_req < mm_width:
        return 0.0  # filtered out, no trade
    offer = mm_ref * math.sqrt(mm_width)
    bid = mm_ref / math.sqrt(mm_width)
    trade_price = offer if side == "buy" else bid
    if order_type == "limit":
        if side == "buy" and (limit_price is None or limit_price < offer):
            return 0.0
        if side == "sell" and (limit_price is None or limit_price > bid):
            return 0.0
    return client_utility(trade_price, y, side, f_mcf)


def _best_response_closed_form(profile: StrategyProfile, grid: DeviationGrid,
                               y: int, f_mcf: Fraction, delta: float) -> BestResponseReport:
    fm = float(f_mcf)
    mm_w = float(profile.mm.width)
    mm_ref = float(profile.mm.ref_price if profile.mm.ref_price is not None else y)
    cw = float(profile.client.width_req)

    base_mm = _closed_form_mm_utility(_NOTIONAL, y, mm_ref, mm_w, delta, cw)
    entries: list[DeviationResult] = []

    # quoter deviations over the (reference price, width) grid, plus a fine
    # scan of reference prices at the profile width
    for w_dev in grid.mm_widths:
        for p_dev in sorted(set(grid.mm_ref_prices)):
            u = _closed_form_mm_utility(_NOTIONAL, y, float(p_dev), float(w_dev), delta, cw)
            entries.append(DeviationResult(
                player="mm", label=f"quote p_ref={p_dev} w={w_dev}",
                utility_profile=base_mm, utility_deviation=u,
                gain=u - base_mm, tolerance=_EPSILON))
    best_fine = _closed_form_mm_utility(_NOTIONAL, y, p_ref_argmax(_NOTIONAL, y, mm_w, delta),
                                        mm_w, delta, cw)
    entries.append(DeviationResult(
        player="mm", label=f"fine p_ref scan at w={profile.mm.width} ({_P_REF_POINTS} points)",
        utility_profile=base_mm, utility_deviation=best_fine,
        gain=best_fine - base_mm, tolerance=_EPSILON))

    # client deviations, checked for both directions
    for side in ("buy", "sell"):
        base_c = _closed_form_client_utility(profile.client.order_type, cw,
                                             profile.client.limit_price, side,
                                             y, fm, mm_w, mm_ref)
        for w_dev in grid.client_widths:
            u = _closed_form_client_utility("mkt", float(w_dev), None, side, y, fm, mm_w, mm_ref)
            entries.append(DeviationResult(
                player=f"client-{side}", label=f"mkt width_req={w_dev}",
                utility_profile=base_c, utility_deviation=u,
                gain=u - base_c, tolerance=_EPSILON))
        for lp in grid.client_limit_prices:
            u = _closed_form_client_utility("limit", cw, float(lp), side, y, fm, mm_w, mm_ref)
            entries.append(DeviationResult(
                player=f"client-{side}", label=f"limit {lp} width_req={profile.client.width_req}",
                utility_profile=base_c, utility_deviation=u,
                gain=u - base_c, tolerance=_EPSILON))

    return BestResponseReport(
        mode="closed-form", n_mms=1,
        profile=f"client mkt width {profile.client.width_req}; quoter w={profile.mm.width} at fair price",
        epsilon_rule=f"epsilon = {_EPSILON!r} (1e-9 * notional)",
        paths=0, entries=entries)


# ---------------------------------------------------------------------------
# Engine-backed best response: two quoters, Monte Carlo
# ---------------------------------------------------------------------------

#: The engine game's client count, and each client's size in B lots: a buyer
#: of the swap sells ``_CLIENT_LOTS * y`` A atoms, a seller ``_CLIENT_LOTS``
#: B atoms, so seller sizes are exact
_N_CLIENTS = 4
_CLIENT_LOTS = 10


@dataclass(frozen=True)
class _EngineGame:
    """Width-sensitive batch auction round, evaluated over client flow patterns.

    ``_N_CLIENTS`` clients play.  Client i sells ``_CLIENT_LOTS * y`` A
    atoms (buys the swap) when its direction is +1 and ``_CLIENT_LOTS`` B
    atoms otherwise.  Quoter sizes dwarf total client flow, so the
    selected market always spans the imbalance.  Utilities: quoters mark
    token deltas at the fair price y; clients use the signed log-distance
    convention scaled by their filled fraction.

    The tight market depends on the quoter strategies alone and the width
    filter on the client strategies and the tight width alone, so
    ``outcome_table`` picks each quoter pair's tight market once and
    filters each client set once per tight width.  What is left, the tight
    market and the kept client orders, is the game the table depends on:
    profiles that differ only outside it share one table.

    One check builds one ``_EngineGame``, which keeps what the check's
    profiles repeat in five caches, each keyed by what its value depends on:

    * ``_picks``: the tight market, its two legs and ``w_tight``, by the
      quoter strategies;
    * ``_filtered``: the kept client buys and sells, by the client
      strategies and ``w_tight``;
    * ``_tables``: each game's table, by the game;
    * ``_shapes``: the settled contributions, by book shape;
    * ``_utilities``: ``client_utility``, by ``(cp, side)``.

    Nothing is kept across checks.
    """

    y: int
    f_mcf: Fraction
    _picks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _filtered: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _shapes: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _utilities: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def outcome_table(self, mm_strats: Sequence[tuple[int, Fraction]],
                      client_strats: Sequence[ClientProfile]) -> Mapping[str, tuple[float, ...]]:
        """Every player's utility for each of the 2^k client flow patterns,
        indexed by pattern number: bit i is set when client i buys.

        A game is the quoter count, the tight market and each kept client
        order's oid, token and price (widths no longer matter once the
        filter has run); each is built once.  Each flow pattern's book
        takes the kept buys whose bit is set and the kept sells whose bit
        is clear, each side in ascending oid order and ending with its
        tight leg.  A table may be returned to several callers, so it is
        read-only and its columns are tuples."""
        tight, buy, sell, w_tight = self._pick(tuple(mm_strats))
        kept_buys, kept_sells = self._filter(tuple(client_strats), w_tight)
        game = (len(mm_strats), tight,
                tuple((o.oid, o.tkn, o.price) for o in (*kept_buys, *kept_sells)))
        table = self._tables.get(game)
        if table is None:
            zeros = dict.fromkeys([*(f"m{i}" for i in range(len(mm_strats))),
                                   *(f"c{i}" for i in range(_N_CLIENTS))], 0.0)
            outcomes = [self._clear((*(o for o in kept_buys if bits >> o.oid & 1), buy),
                                    (*(o for o in kept_sells if not bits >> o.oid & 1), sell),
                                    w_tight, zeros) for bits in range(2 ** _N_CLIENTS)]
            table = self._tables[game] = MappingProxyType(
                {player: tuple(u[player] for u in outcomes) for player in zeros})
        return table

    def _pick(self, mm_strats: tuple[tuple[int, Fraction], ...]) -> tuple:
        """``(tight market, bid leg, offer leg, w_tight)`` for the quoters'
        ``(ref, width)`` strategies.  Each quoter quotes with depth
        ``10 * _N_CLIENTS * _CLIENT_LOTS * y``, and ``auction.round_book``,
        the protocol's own, builds the tight market's uncapped legs (oids
        ``_N_CLIENTS`` and ``_N_CLIENTS + 1``)."""
        pick = self._picks.get(mm_strats)
        if pick is None:
            depth = 10 * _N_CLIENTS * _CLIENT_LOTS * self.y
            revealed = []
            for i, (ref, w) in enumerate(mm_strats):
                bid, offer = quote(ref, w)
                revealed.append((f"m{i}", Market(bid=bid, size_bid=depth,
                                                 offer=offer, size_offer=depth)))
            tight = select_tight_market(revealed)
            assert tight is not None
            legs = round_book((), (), tight, _N_CLIENTS)
            pick = self._picks[mm_strats] = (tight, legs.buy_orders[0], legs.sell_orders[0],
                                             legs.w_tight)
        return pick

    def _filter(self, client_strats: tuple[ClientProfile, ...],
                w_tight: Width) -> tuple[tuple[Order, ...], tuple[Order, ...]]:
        """The client buys and sells ``filter_by_width`` keeps at
        ``w_tight``, each in ascending oid order.  The tight legs are width
        ANY, which the filter always keeps, so its book leaves them out."""
        key = (client_strats, w_tight)
        kept = self._filtered.get(key)
        if kept is None:
            # client i's buy and sell order (oid i); its direction picks one
            buys, sells = [], []
            for i, cs in enumerate(client_strats):
                price = MKT if cs.order_type == "mkt" else cs.limit_price
                buys.append(Order(oid=i, owner=f"c{i}", tkn=TOKEN_A, size=_CLIENT_LOTS * self.y,
                                  price=price, width_req=cs.width_req))
                sells.append(Order(oid=i, owner=f"c{i}", tkn=TOKEN_B, size=_CLIENT_LOTS,
                                   price=price, width_req=cs.width_req))
            book, _removed = filter_by_width(AuctionBook(
                buy_orders=tuple(buys), sell_orders=tuple(sells), w_tight=w_tight))
            kept = self._filtered[key] = (book.buy_orders, book.sell_orders)
        return kept

    def _clear(self, buys: tuple[Order, ...], sells: tuple[Order, ...], w_tight: Width,
               zeros: dict[str, float]) -> dict[str, float]:
        """Every player's utility, starting from ``zeros``, from clearing
        and settling the filtered book of ``buys`` and ``sells`` at
        ``w_tight``, each book shape cleared once.

        A book's shape is, for each side, the ``(size, price, owner is a
        quoter)`` of its orders in book order.  Every book ``outcome_table``
        builds keeps each side in ascending oid order, and
        ``find_clearing_price`` and ``settle`` read oids only through their
        order within a side and never read owners, so books of one shape
        settle alike position by position
        (``tests/test_auction.py::TestShapeInvariance`` pins this).  Only
        the first book of a shape is built as an ``AuctionBook``, cleared
        and settled, and every book of that shape replays its
        contributions onto its own owners.  Each owner gets at most one
        addition per fill, in the same order as a clear of its own book,
        so every float is the same."""
        sides = (buys, sells)
        shape = tuple(tuple((o.size, o.price, o.owner.startswith("m")) for o in side)
                      for side in sides)
        contributions = self._shapes.get(shape)
        if contributions is None:
            contributions = self._shapes[shape] = self._contributions(
                AuctionBook(buy_orders=buys, sell_orders=sells, w_tight=w_tight))
        utilities = dict(zeros)
        for side, position, value in contributions:
            utilities[sides[side][position].owner] += value
        return utilities

    def _contributions(self, filtered: AuctionBook) -> tuple[tuple[int, int, float], ...]:
        """Each settled fill's utility addition to its owner, in fill order,
        as ``(side, position, value)``: side 0 is the buys, 1 the sells, and
        the position is the order's index on its side of ``filtered``."""
        cand = find_clearing_price(filtered)
        if cand is None:
            return ()
        positions = {id(o): (0, i) for i, o in enumerate(filtered.buy_orders)}
        positions.update((id(o), (1, i)) for i, o in enumerate(filtered.sell_orders))
        contributions = []
        for _, executed, received, _, o in settle(filtered, cand.cp).fills:
            if o.side == "buy":
                delta_ref = received * self.y - executed
            else:
                delta_ref = received - executed * self.y
            fraction = executed / o.size
            if o.owner.startswith("m"):
                contributions.append((*positions[id(o)], float(delta_ref)))
            elif fraction > 0:
                u = self._utilities.get((cand.cp, o.side))
                if u is None:
                    u = self._utilities[cand.cp, o.side] = client_utility(
                        float(cand.cp), float(self.y), o.side, float(self.f_mcf))
                contributions.append((*positions[id(o)], fraction * u))
        return tuple(contributions)


def _pattern_counts(seed: int, paths: int) -> list[int]:
    """How many of ``paths`` drawn paths take each of the 2^_N_CLIENTS client
    flow patterns, indexed by pattern number.  Path k is byte k of
    ``random.Random(seed).randbytes(paths)``, and its low ``_N_CLIENTS``
    bits are its pattern: bit i is set when client i buys."""
    mask = (1 << _N_CLIENTS) - 1
    drawn = random.Random(seed).randbytes(paths).translate(bytes(b & mask for b in range(256)))
    return [drawn.count(pattern) for pattern in range(mask + 1)]


def _best_response_monte_carlo(profile: StrategyProfile, grid: DeviationGrid,
                               y: int, f_mcf: Fraction, paths: int,
                               seed: int) -> BestResponseReport:
    """Each deviation's paired gain over common random client flow.

    One ``_EngineGame`` serves the whole check, so on the default grid its
    89 profiles make 72 tight-market picks (one per distinct quoter pair),
    17 width filters (one per distinct client set and tight width), 15
    outcome tables, 97 book builds and clears (of the tables' 240 distinct
    books), 136 client orders (8 per filter) and 10 ``client_utility``
    values.  A path's utilities are its flow pattern's entries in the
    tables, so every statistic over the paths is a sum over the 16
    patterns weighted by ``_pattern_counts``: the two path means, the mean
    paired difference (the gain) and its standard error (``ddof=1``),
    which sets the tolerance at 2 * SE + 1e-9.  The statistics of each distinct utility
    column against the base column are computed once and shared by every
    deviation whose table has that column.  The game and the statistics
    are local to the call, so nothing outlives it.  A grid that gives no
    deviation from the profile is a ``ValueError``: its report would have
    no entries and no ``max_gain``.
    """
    base_ref = profile.mm.ref_price if profile.mm.ref_price is not None else y
    if not (grid.client_widths or grid.client_limit_prices or any(
            (ref, w) != (base_ref, profile.mm.width)
            for w in grid.mm_widths for ref in grid.mm_ref_prices)):
        raise ValueError(f"grid {grid!r} has no deviation from the profile for n_mms=2")
    game = _EngineGame(y=y, f_mcf=f_mcf)
    base_mm = [(base_ref, profile.mm.width), (base_ref, profile.mm.width)]
    base_clients = [profile.client] * _N_CLIENTS
    base = game.outcome_table(base_mm, base_clients)

    # common random numbers: every deviation is read on the same paths
    counts = _pattern_counts(seed, paths)

    def path_mean(column: Sequence[float]) -> float:
        return math.fsum(n * u for n, u in zip(counts, column)) / paths

    entries: list[DeviationResult] = []
    # a deviation's statistics are a function of its player's utility
    # column alone, so they are keyed on the column
    stats: dict[tuple[str, tuple[float, ...]], tuple[float, float, float, float]] = {}

    def paired_check(player: str, label: str, mm_strats, client_strats) -> None:
        key = "m0" if player == "mm0" else "c0"
        column = game.outcome_table(mm_strats, client_strats)[key]
        stats_key = (key, column)
        if stats_key not in stats:
            diff = [d - b for d, b in zip(column, base[key])]
            gain = path_mean(diff)
            var = math.fsum(n * (x - gain) ** 2 for n, x in zip(counts, diff)) / (paths - 1)
            stats[stats_key] = (path_mean(base[key]), path_mean(column), gain,
                                2 * math.sqrt(var / paths) + 1e-9)
        u_profile, u_deviation, gain, tolerance = stats[stats_key]
        entries.append(DeviationResult(
            player=player, label=label, utility_profile=u_profile,
            utility_deviation=u_deviation, gain=gain, tolerance=tolerance))

    for w_dev in grid.mm_widths:
        for ref_dev in grid.mm_ref_prices:
            if (ref_dev, w_dev) == (base_ref, profile.mm.width):
                continue
            paired_check("mm0", f"quote p_ref={ref_dev} w={w_dev}",
                         [(ref_dev, w_dev), base_mm[1]], base_clients)

    for w_dev in grid.client_widths:
        strat = ClientProfile(order_type="mkt", width_req=w_dev)
        paired_check("client0", f"mkt width_req={w_dev}", base_mm, [strat] + base_clients[1:])
    for lp in grid.client_limit_prices:
        strat = ClientProfile(order_type="limit", width_req=profile.client.width_req,
                              limit_price=int(lp))
        paired_check("client0", f"limit {lp}", base_mm, [strat] + base_clients[1:])

    return BestResponseReport(
        mode="monte-carlo", n_mms=2,
        profile=f"clients mkt width {profile.client.width_req}; quoters w={profile.mm.width} at fair price",
        epsilon_rule="epsilon = 2 * SE of paired differences (common random numbers) + 1e-9",
        paths=paths, entries=entries)


def best_response_check(profile: StrategyProfile, n_mms: int,
                        grid: Optional[DeviationGrid] = None, *,
                        y: int = 110, f_mcf: Fraction = Fraction(121, 100),
                        delta: float = 1.0,
                        paths: int = 10000, seed: int = 7) -> BestResponseReport:
    """Check a strategy profile for improving unilateral deviations.

    One quoter (``n_mms=1``) uses the closed-form expected profit of a
    client notional of 1 (deterministic, epsilon = 1e-9); two quoters
    (``n_mms=2``) run the auction engine for four clients path by path
    under common random client flow and test each deviation's mean gain
    against two standard errors, so they need at least two ``paths`` and a
    grid with at least one deviation from the profile.  Every price of the
    grid must be at least 1 tick and every width at least 1; the default
    grid needs ``y >= 3``.
    """
    if n_mms not in (1, 2):
        raise ValueError(f"n_mms must be 1 or 2, got {n_mms!r}")
    if n_mms == 2 and paths < 2:
        raise ValueError(f"paths must be at least 2 for n_mms=2, got {paths!r}")
    if grid is None:
        grid = default_grid(y, f_mcf)
    elif (min((*grid.mm_ref_prices, *grid.client_limit_prices), default=1) < 1
          or min((*grid.mm_widths, *grid.client_widths), default=1) < 1):
        raise ValueError(f"grid {grid!r} has a price below 1 tick or a width below 1")
    if n_mms == 1:
        return _best_response_closed_form(profile, grid, y, f_mcf, delta)
    return _best_response_monte_carlo(profile, grid, y, f_mcf, paths, seed)


# ---------------------------------------------------------------------------
# Execution-cost comparison
# ---------------------------------------------------------------------------

FAIRTRADEX = "FairTraDEX"
AMM = "AMM"
DIRECTION_REVEALING = "DirectionRevealing"
IDENTITY_REVEALING = "IdentityRevealing"

PROTOCOLS = (FAIRTRADEX, AMM, DIRECTION_REVEALING, IDENTITY_REVEALING)

#: Reference impact fractions by order notional (USDC-denominated study).
DEFAULT_IMPACT_TABLE: dict[float, float] = {10_000: 0.0, 500_000: 0.0015, 10_000_000: 0.01}
DEFAULT_SLIPPAGE = 0.005


@dataclass(frozen=True)
class PlayerProfile:
    direction_known: bool


#: Balanced pseudo-random trader vs. a one-directional player.
P1 = PlayerProfile(direction_known=False)
P2 = PlayerProfile(direction_known=True)


@dataclass(frozen=True)
class CostModel:
    protocol: str
    impact_table: Mapping[float, float]
    slippage: float = 0.0


def _decimal_product(notional: float, *fractions: float) -> float:
    # decimal-specified fractions multiply exactly through rationals, so
    # table cells like 500000 * (0.0015 + 0.005) come out as clean integers
    total = Fraction(str(notional)) * sum(Fraction(str(f)) for f in fractions)
    return float(total)


def execution_cost(model: CostModel, player: PlayerProfile, notional: float) -> float:
    """Expected execution cost over explicit fees, per the comparison model."""
    if model.protocol == FAIRTRADEX:
        return 0.0
    impact = model.impact_table[notional]  # KeyError for an untabulated notional
    if model.protocol == AMM:
        return _decimal_product(notional, impact, model.slippage)
    if model.protocol == DIRECTION_REVEALING:
        return _decimal_product(notional, impact)
    if model.protocol == IDENTITY_REVEALING:
        # a one-directional player's identity gives its direction away
        return _decimal_product(notional, impact) if player.direction_known else 0.0
    raise ValueError(f"unknown protocol {model.protocol!r}")


def cost_table(impact_table: Optional[Mapping[float, float]] = None,
               slippage: float = DEFAULT_SLIPPAGE) -> tuple[list[str], list[list]]:
    """The 6-row, 4-protocol execution-cost matrix (header, rows)."""
    table = DEFAULT_IMPACT_TABLE if impact_table is None else impact_table
    models = {
        FAIRTRADEX: CostModel(FAIRTRADEX, table),
        AMM: CostModel(AMM, table, slippage=slippage),
        DIRECTION_REVEALING: CostModel(DIRECTION_REVEALING, table),
        IDENTITY_REVEALING: CostModel(IDENTITY_REVEALING, table),
    }
    header = ["order", FAIRTRADEX, "Uniswap", DIRECTION_REVEALING, IDENTITY_REVEALING]
    rows = []
    for notional in (10_000, 500_000, 10_000_000):
        for name, player in (("P1", P1), ("P2", P2)):
            rows.append([f"{name}-{int(notional)}"] +
                        [execution_cost(models[p], player, notional) for p in PROTOCOLS])
    return header, rows
