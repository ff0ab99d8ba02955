import json
import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fairtradex.analysis import (AMM, DIRECTION_REVEALING, FAIRTRADEX,
                                 IDENTITY_REVEALING, P1, P2, ClientProfile,
                                 CostModel, DEFAULT_IMPACT_TABLE, MMProfile,
                                 StrategyProfile, _closed_form_client_utility, _EngineGame,
                                 _pattern_counts, best_response_check, client_utility,
                                 cost_table, default_grid, execution_cost, mm_buyer_leg,
                                 mm_expected_profit, mm_seller_leg, p_ref_argmax, p_ref_grid)
from fairtradex.auction import AuctionBook, filter_by_width, select_tight_market
from fairtradex.scenario import Runner, ScenarioError
from fairtradex.units import ANY, MKT, TOKEN_A, TOKEN_B, Market, Order, market_width, quote

REPO = Path(__file__).resolve().parent.parent
TWO_MM = REPO / "scenarios" / "two_mm_competition.json"


class TestQuoterProfit:
    def test_vanishes_at_fair_price_width_one(self):
        assert mm_expected_profit(1.0, 100.0, 100.0, 1.0, 1.0) == 0.0

    def test_width_captures_half_spread(self):
        got = mm_expected_profit(1.0, 100.0, 100.0, 1.21, 1.0)
        assert got == pytest.approx(1 - 1 / 1.1, rel=1e-12)

    def test_legs_combine(self):
        x, y, p, w, d = 3.0, 100.0, 93.0, 1.4, 1.05
        assert mm_expected_profit(x, y, p, w, d) == pytest.approx(
            0.5 * mm_buyer_leg(x, y, p, w, d) + 0.5 * mm_seller_leg(x, y, p, w, d))

    def test_symmetric_under_price_inversion(self):
        # p -> y^2/p swaps the two legs, leaving the total unchanged
        y = 100.0
        for p in (60.0, 90.0, 130.0, 199.0):
            assert mm_expected_profit(1.0, y, p, 1.3, 1.02) == pytest.approx(
                mm_expected_profit(1.0, y, y * y / p, 1.3, 1.02), rel=1e-12)

    def test_zero_profit_line_for_all_sizes(self):
        for x in (1.0, 17.0, 1e6, 3.5e9):
            assert mm_expected_profit(x, 250.0, 250.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-12 * x)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mm_expected_profit(-1.0, 100.0, 100.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            mm_expected_profit(1.0, 100.0, 100.0, 0.5, 1.0)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_notional_and_prices_must_be_positive_and_may_be_small(self, position):
        args = [1.0, 100.0, 100.0]
        args[position] = 0.0
        with pytest.raises(ValueError):
            mm_expected_profit(*args, 1.0, 1.0)
        args[position] = 0.5
        assert math.isfinite(mm_expected_profit(*args, 1.0, 1.0))

    @pytest.mark.parametrize("position", range(5))
    def test_nan_rejected_in_every_position(self, position):
        args = [1.0, 100.0, 100.0, 1.21, 1.0]
        args[position] = math.nan
        with pytest.raises(ValueError):
            mm_expected_profit(*args)

    @pytest.mark.parametrize("position", range(4))
    def test_argmax_of_nan_rejected(self, position):
        # a NaN notional once gave the grid's first point, y/2, with no error
        args = [1.0, 110.0, 1.21, 1.0]
        args[position] = math.nan
        with pytest.raises(ValueError):
            p_ref_argmax(*args)

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    @pytest.mark.parametrize("position", range(5))
    def test_infinity_rejected_in_every_position(self, position, value):
        # an infinite notional once gave NaN with no error
        args = [1.0, 110.0, 110.0, 1.0, 1.0]
        args[position] = value
        with pytest.raises(ValueError):
            mm_expected_profit(*args)

    @pytest.mark.parametrize("position", range(4))
    def test_argmax_of_infinity_rejected(self, position):
        # an infinite notional once gave the grid's first point, y/2, with no error
        args = [1.0, 110.0, 1.21, 1.0]
        args[position] = math.inf
        with pytest.raises(ValueError):
            p_ref_argmax(*args)

    def test_argmax_rejects_a_grid_that_overflows(self):
        # only the grid's last point, 2y, is infinite
        grid = p_ref_grid(8.99e307)
        assert math.isinf(grid[-1]) and math.isfinite(grid[-2])
        with pytest.raises(ValueError):
            p_ref_argmax(1.0, 8.99e307, 1.21, 1.0)

    def test_argmax_at_fair_price(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = float(rng.uniform(0.5, 100))
            y = float(rng.uniform(10, 1000))
            w = float(rng.uniform(1.0, 2.5))
            d = float(rng.uniform(1.0, 1.2))
            assert abs(p_ref_argmax(x, y, w, d) - y) <= y / 1000 + 1e-9

    def test_argmax_keeps_the_first_maximum_on_a_tie(self, monkeypatch):
        from fairtradex import analysis
        monkeypatch.setattr(analysis, "_profit", lambda *args: 0.0)
        assert p_ref_argmax(1.0, 110.0, 1.21, 1.0) == 55.0 == p_ref_grid(110.0)[0]


class TestNumpyReference:
    """The closed form computes in plain floats; numpy's ``arange`` and
    first-maximum ``argmax`` are its reference."""

    def test_grid_matches_arange(self):
        rng = np.random.default_rng(5)
        ys = [*range(1, 1001), *(k / 7 for k in range(1, 500)),
              *rng.uniform(5.0, 5e3, 300).tolist(), *rng.uniform(1e-3, 1e9, 200).tolist()]
        for y in ys:
            grid = p_ref_grid(y)
            assert len(grid) == 1501 and grid[-1] == pytest.approx(2 * y, rel=1e-12)
            assert grid == np.arange(y / 2, 2 * y + y / 2000, y / 1000).tolist(), y

    def test_argmax_matches_numpy_first_max_on_criterion_5_draws(self):
        rng = np.random.default_rng(20_240_005)
        for _ in range(100):
            x = float(rng.uniform(0.1, 1e6))
            y = float(rng.uniform(5.0, 5e3))
            w = float(rng.uniform(1.0, 3.0))
            d = float(rng.uniform(1.0, 1.5))
            grid = np.arange(y / 2, 2 * y + y / 2000, y / 1000)
            profits = 0.5 * mm_buyer_leg(x, y, grid, w, d) + 0.5 * mm_seller_leg(x, y, grid, w, d)
            assert p_ref_argmax(x, y, w, d) == float(grid[np.argmax(profits)])


class TestClosedFormClient:
    """The one-quoter client rule at each of its thresholds.  The quoter
    quotes width 11/10 at the fair price, below f_mcf = 121/100, so every
    trade has a non-zero utility and a trade and no trade differ."""

    Y, F_MCF, MM_W, MM_REF = 110.0, 1.21, 1.1, 110.0
    OFFER, BID = MM_REF * math.sqrt(MM_W), MM_REF / math.sqrt(MM_W)

    def utility(self, order_type, width_req, limit_price, side):
        return _closed_form_client_utility(order_type, width_req, limit_price, side,
                                           self.Y, self.F_MCF, self.MM_W, self.MM_REF)

    def test_market_orders_trade_at_the_quote(self):
        assert self.utility("mkt", self.F_MCF, None, "buy") == client_utility(
            self.OFFER, self.Y, "buy", self.F_MCF) > 0
        assert self.utility("mkt", self.F_MCF, None, "sell") == client_utility(
            self.BID, self.Y, "sell", self.F_MCF) > 0

    @pytest.mark.parametrize("side", ["buy", "sell"])
    def test_a_requested_width_equal_to_the_quote_trades(self, side):
        assert self.utility("mkt", self.MM_W, None, side) == self.utility(
            "mkt", self.F_MCF, None, side) != 0.0
        assert self.utility("mkt", math.nextafter(self.MM_W, 0), None, side) == 0.0

    def test_a_buy_limit_equal_to_the_offer_trades(self):
        assert self.utility("limit", self.F_MCF, self.OFFER, "buy") == self.utility(
            "mkt", self.F_MCF, None, "buy")
        assert self.utility("limit", self.F_MCF, math.nextafter(self.OFFER, 0), "buy") == 0.0

    def test_a_sell_limit_equal_to_the_bid_trades(self):
        assert self.utility("limit", self.F_MCF, self.BID, "sell") == self.utility(
            "mkt", self.F_MCF, None, "sell")
        assert self.utility("limit", self.F_MCF, math.nextafter(self.BID, math.inf),
                            "sell") == 0.0

    @pytest.mark.parametrize("side", ["buy", "sell"])
    def test_a_limit_order_without_a_price_does_not_trade(self, side):
        assert self.utility("limit", self.F_MCF, None, side) == 0.0

    def test_client_gains_are_measured_from_a_non_zero_base(self):
        """Under the 11/10 quote the profile's market-order client has a
        positive utility on each side, so each client entry's gain is its
        deviation's utility minus that base, and none improves.  The quoter
        does improve, by widening to the clients' width."""
        profile = StrategyProfile(
            client=ClientProfile(order_type="mkt", width_req=Fraction(121, 100)),
            mm=MMProfile(width=Fraction(11, 10)))
        rep = best_response_check(profile, n_mms=1)
        clients = [e for e in rep.entries if e.player.startswith("client")]
        assert len(clients) == 2 * (8 + 9)
        assert all(e.utility_profile > 0 for e in clients)
        assert all(e.gain == e.utility_deviation - e.utility_profile for e in clients)
        assert min(e.gain for e in clients) < 0
        assert {e.player for e in rep.entries if e.improves} == {"mm"}


class TestClientUtility:
    def test_buy_inside_bound_positive(self):
        assert client_utility(100.0, 100.0, "buy", 1.21) > 0

    def test_boundary_zero(self):
        assert client_utility(110.0, 100.0, "buy", 1.21) == pytest.approx(0.0, abs=1e-12)
        assert client_utility(100.0 / 1.1, 100.0, "sell", 1.21) == pytest.approx(0.0, abs=1e-12)

    def test_sell_below_bound_negative(self):
        assert client_utility(100.0 / 1.2, 100.0, "sell", 1.21) < 0

    def test_domain_boundaries(self):
        for args in ((0.0, 100.0, "buy", 1.21), (100.0, 0.0, "buy", 1.21),
                     (100.0, 100.0, "buy", 1.0)):
            with pytest.raises(ValueError):
                client_utility(*args)
        assert client_utility(0.5, 0.5, "buy", 1.21) == pytest.approx(math.log(1.1))

    @pytest.mark.parametrize("side", ["buy", "sell"])
    @pytest.mark.parametrize("position", [0, 1, 3])
    def test_infinity_rejected_in_every_numeric_position(self, position, side):
        # an infinite price once gave inf on the sell side and died in math.log on the buy side
        args = [110.0, 110.0, side, 1.21]
        args[position] = math.inf
        with pytest.raises(ValueError):
            client_utility(*args)


class _ScriptedFlow:
    """Stands in for the runner's direction RNG: replays a fixed flow."""

    def __init__(self, directions):
        self._it = iter(directions)

    def choice(self, _options):
        return next(self._it)


class TestMifp:
    """The fair-price path has one implementation: the scenario runner's,
    exact in Fractions and rounded to ticks only when read."""

    @staticmethod
    def runner(delta, directions=None):
        cfg = json.loads(TWO_MM.read_text())
        cfg["mifp"]["delta"] = delta
        runner = Runner(cfg)
        if directions is not None:
            runner._direction_rng = _ScriptedFlow(directions)
        return runner

    def test_no_impact_means_constant_path(self):
        runner = self.runner(1)
        y0 = runner.current_y()
        for _ in range(50):
            runner.next_direction()
            assert runner.current_y() == y0

    def test_buy_then_sell_returns_exactly(self):
        runner = self.runner("101/100", [1, -1])
        y0 = runner.current_y()
        assert runner.next_direction() == 1
        assert runner.current_y() == round(Fraction(101, 100) * y0) != y0
        assert runner.next_direction() == -1
        assert runner.current_y() == y0

    def test_ten_buys_compound(self):
        runner = self.runner("101/100", [1] * 10)
        y0 = runner.current_y()
        for k in range(1, 11):
            runner.next_direction()
            assert runner.current_y() == round(y0 * Fraction(101, 100) ** k)

    def test_every_read_equals_the_closed_form_in_any_visit_order(self):
        runner = self.runner("11/10")
        y0 = runner.config.mifp.y0
        ks = list(range(-60, 61))
        random.Random(0).shuffle(ks)
        for k in ks + ks[::-1]:   # the second pass reads values already seen
            runner._net_buys = k
            assert runner.current_y() == max(1, round(y0 * Fraction(11, 10) ** k))

    def test_random_flow_deterministic_per_seed(self):
        a, b = self.runner("101/100"), self.runner("101/100")
        flow_a = [a.next_direction() for _ in range(50)]
        assert flow_a == [b.next_direction() for _ in range(50)]
        assert set(flow_a) == {1, -1}

    def test_delta_below_one_rejected(self):
        for delta in (0, "0", "1/2", "99/100", "1/0", "x"):
            with pytest.raises(ScenarioError, match="mifp"):
                self.runner(delta)


class TestExecutionCost:
    def test_reference_cells(self):
        table = DEFAULT_IMPACT_TABLE
        assert execution_cost(CostModel(AMM, table, slippage=0.005), P1, 10_000) == 50
        assert execution_cost(CostModel(DIRECTION_REVEALING, table), P1, 10_000_000) == 100_000
        for n in (10_000, 500_000, 10_000_000):
            assert execution_cost(CostModel(FAIRTRADEX, table), P2, n) == 0

    def test_identity_revealing_only_hits_directional_players(self):
        m = CostModel(IDENTITY_REVEALING, DEFAULT_IMPACT_TABLE)
        assert execution_cost(m, P1, 500_000) == 0
        assert execution_cost(m, P2, 500_000) == 750

    def test_unknown_notional_without_interpolation(self):
        m = CostModel(AMM, DEFAULT_IMPACT_TABLE, slippage=0.005)
        with pytest.raises(KeyError):
            execution_cost(m, P1, 123_456)

    def test_table_shape_and_rows(self):
        header, rows = cost_table()
        assert header == ["order", FAIRTRADEX, "Uniswap", DIRECTION_REVEALING,
                          IDENTITY_REVEALING]
        assert len(rows) == 6
        by_label = {r[0]: r[1:] for r in rows}
        assert by_label["P1-10000"] == [0, 50, 0, 0]
        assert by_label["P2-10000"] == [0, 50, 0, 0]
        assert by_label["P1-500000"] == [0, 3250, 750, 0]
        assert by_label["P2-500000"] == [0, 3250, 750, 750]
        assert by_label["P1-10000000"] == [0, 150_000, 100_000, 0]
        assert by_label["P2-10000000"] == [0, 150_000, 100_000, 100_000]

    def test_flat_zero_impact_and_slippage_zeroes_everything(self):
        header, rows = cost_table(impact_table={n: 0.0 for n in (10_000, 500_000, 10_000_000)},
                                  slippage=0.0)
        assert all(v == 0 for row in rows for v in row[1:])


MONOPOLY = StrategyProfile(client=ClientProfile(order_type="mkt", width_req=Fraction(121, 100)),
                           mm=MMProfile(width=Fraction(121, 100)))
COMPETITIVE = StrategyProfile(client=ClientProfile(order_type="mkt", width_req=Fraction(121, 100)),
                              mm=MMProfile(width=Fraction(1)))


def _competitive_deviations():
    """The engine game of the competitive profile, its base entry and the
    88 unilateral deviations of the default grid, each entry as
    ``(label, utility key, quoter strategies, client strategies)``."""
    y, f_mcf = 110, Fraction(121, 100)
    grid = default_grid(y, f_mcf)
    game = _EngineGame(y=y, f_mcf=f_mcf, n_clients=4, client_size_a=10 * y)
    mms = [(y, Fraction(1))] * 2
    clients = [COMPETITIVE.client] * 4
    deviations = [(f"mm0 p_ref={ref} w={w}", "m0", [(ref, w), mms[1]], clients)
                  for w in grid.mm_widths for ref in grid.mm_ref_prices
                  if (ref, w) != mms[0]]
    deviations += [(f"client0 mkt width_req={w}", "c0", mms,
                    [ClientProfile(order_type="mkt", width_req=w)] + clients[1:])
                   for w in grid.client_widths]
    deviations += [(f"client0 limit {lp}", "c0", mms,
                    [ClientProfile(order_type="limit", width_req=f_mcf,
                                   limit_price=lp)] + clients[1:])
                   for lp in grid.client_limit_prices]
    assert len(deviations) == 88
    return game, ("base", None, mms, clients), deviations


def _drawn_patterns(seed, paths):
    """Each drawn path's flow pattern, in draw order: the low four bits of
    byte k of ``random.Random(seed).randbytes(paths)``."""
    return [byte % 16 for byte in random.Random(seed).randbytes(paths)]


def _reference_books(game, mm_strats, client_strats):
    """Each flow pattern's book, built in full and filtered on its own: the
    tight market's two orders plus each client's order on its side."""
    depth = 10 * game.n_clients * game.client_size_a
    revealed = []
    for i, (ref, w) in enumerate(mm_strats):
        bid, offer = quote(ref, w)
        revealed.append((f"m{i}", Market(bid=bid, size_bid=depth, offer=offer, size_offer=depth)))
    player, m = select_tight_market(revealed)
    buy = Order(oid=game.n_clients, owner=player, tkn=TOKEN_A, size=depth, price=m.bid,
                width_req=ANY)
    sell = Order(oid=game.n_clients + 1, owner=player, tkn=TOKEN_B, size=depth, price=m.offer,
                 width_req=ANY)
    books = []
    for bits in range(2 ** game.n_clients):
        buys, sells = [], []
        for i, cs in enumerate(client_strats):
            price = MKT if cs.order_type == "mkt" else cs.limit_price
            if bits >> i & 1:
                buys.append(Order(oid=i, owner=f"c{i}", tkn=TOKEN_A, size=game.client_size_a,
                                  price=price, width_req=cs.width_req))
            else:
                sells.append(Order(oid=i, owner=f"c{i}", tkn=TOKEN_B,
                                   size=game.client_size_a // game.y,
                                   price=price, width_req=cs.width_req))
        filtered, _removed = filter_by_width(AuctionBook(
            buy_orders=(*buys, buy), sell_orders=(*sells, sell), w_tight=market_width(m)))
        books.append(filtered)
    return books


class TestBestResponse:
    def test_default_profiles_are_the_competitive_profile(self):
        assert StrategyProfile(client=ClientProfile(), mm=MMProfile()) == COMPETITIVE

    def test_single_quoter_profile_confirmed(self):
        rep = best_response_check(MONOPOLY, n_mms=1)
        assert rep.mode == "closed-form" and rep.confirmed
        assert rep.max_gain <= 1e-9

    def test_single_quoter_with_impact(self):
        rep = best_response_check(MONOPOLY, n_mms=1, delta=1.02)
        assert rep.confirmed

    def test_wide_quote_is_not_an_equilibrium(self):
        # quoting wider than the clients' requested width earns nothing;
        # the checker must flag the profitable move back inside
        too_wide = StrategyProfile(client=ClientProfile(order_type="mkt",
                                                        width_req=Fraction(121, 100)),
                                   mm=MMProfile(width=Fraction(2)))
        rep = best_response_check(too_wide, n_mms=1)
        assert not rep.confirmed

    def test_competitive_profile_confirmed_small(self):
        rep = best_response_check(COMPETITIVE, n_mms=2, paths=2000)
        assert rep.mode == "monte-carlo" and rep.confirmed

    @pytest.mark.parametrize("n_mms", [3, 0, -1])
    def test_unsupported_quoter_count_rejected(self, n_mms):
        with pytest.raises(ValueError, match="n_mms"):
            best_response_check(COMPETITIVE, n_mms=n_mms, paths=200)

    @pytest.mark.parametrize("paths", [0, 1, -1])
    def test_too_few_paths_rejected(self, paths):
        # one path has no standard error and none has no mean
        with pytest.raises(ValueError, match="paths"):
            best_response_check(COMPETITIVE, n_mms=2, paths=paths)

    def test_two_paths_are_enough_and_a_gain_at_its_tolerance_does_not_improve(self):
        rep = best_response_check(COMPETITIVE, n_mms=2, paths=2)
        assert rep.paths == 2 and len(rep.entries) == 88
        at_tolerance = replace(rep.entries[0], gain=0.5, tolerance=0.5)
        assert not at_tolerance.improves
        assert replace(at_tolerance, gain=0.75).improves

    def test_competitive_profile_exact_expectation(self):
        """The 2^4 client flow patterns are equally likely, so a deviation's
        exact expected gain is the pattern mean of its outcome table minus
        the base profile's.  No deviation of the default grid gains, so a
        Monte Carlo seed that flags one has drawn a sampling false positive."""
        game, (_, _, mms, clients), deviations = _competitive_deviations()
        base = game.outcome_table(mms, clients)
        gains = {label: float(np.mean(np.subtract(game.outcome_table(m, c)[key], base[key])))
                 for label, key, m, c in deviations}
        assert max(gains.values()) <= 0.0, {k: g for k, g in gains.items() if g > 0}

    def test_outcome_tables_match_evaluate_loop(self):
        """Outcome tables built by one game for the base profile and all 88
        deviations equal a plain per-pattern loop: each pattern's full book
        (the tight market's orders plus each client's order on its side),
        filtered by width, then cleared by a fresh game."""
        game, base, deviations = _competitive_deviations()
        for label, _key, mms, clients in [base] + deviations:
            table = game.outcome_table(mms, clients)
            zeros = dict.fromkeys([f"m{i}" for i in range(len(mms))] +
                                  [f"c{i}" for i in range(game.n_clients)], 0.0)
            loop = [replace(game)._clear(book, zeros)
                    for book in _reference_books(game, mms, clients)]
            assert set(table) == set(loop[0]), label
            for player, utilities in table.items():
                assert list(utilities) == [u[player] for u in loop], (label, player)

    def test_an_order_that_does_not_execute_costs_no_client_utility(self, monkeypatch):
        """A client whose order executes nothing gets 0.0 and costs no
        ``client_utility`` call: only executed fills add to a utility."""
        from fairtradex import analysis
        calls = []
        utility = analysis.client_utility
        monkeypatch.setattr(analysis, "client_utility",
                            lambda *args: calls.append(args) or utility(*args))
        f_mcf = Fraction(121, 100)
        game = _EngineGame(y=110, f_mcf=f_mcf, n_clients=2, client_size_a=1100)
        # c1's limit sell at 200 is above the clearing price 121
        book = AuctionBook(
            buy_orders=(Order(0, "c0", TOKEN_A, 1100, MKT, f_mcf),
                        Order(2, "m0", TOKEN_A, 10**6, 100, ANY)),
            sell_orders=(Order(1, "c1", TOKEN_B, 10, 200, f_mcf),
                         Order(3, "m0", TOKEN_B, 10**4, 121, ANY)),
            w_tight=f_mcf)
        utilities = game._clear(book, {"m0": 0.0, "c0": 0.0, "c1": 0.0})
        assert calls == [(121.0, 110.0, "buy", 1.21)]
        assert utilities["c1"] == 0.0 and utilities["m0"] == 99.0

    def test_check_clears_each_distinct_book_once(self, monkeypatch):
        """One competitive check picks the tight market and filters once
        per profile (the base and its 88 deviations); 26 of those picks
        meet a width tie and compute a tie-break seed.  It builds one outcome
        table per distinct game (the tight market and the kept client
        orders), 15 of them, and clears each distinct book shape once.
        The tables hold 240 distinct books out of 89 * 16 = 1,424
        profile-pattern pairs.  A book's shape is each side's (size, price,
        owner is a quoter) in book order, so books that differ only in which
        identical clients sit on each side share one: 97 clears.  A second
        identical check does all of that work again: nothing is cached
        across calls."""
        from fairtradex import analysis, auction
        books, tights, seeds, filtered, tables = [], [], [], [], []
        oracle, select = analysis.find_clearing_price, analysis.select_tight_market
        seed = auction.tie_break_seed
        width_filter, outcome_table = analysis.filter_by_width, _EngineGame.outcome_table

        def counted_oracle(book):
            books.append(book)
            return oracle(book)

        def counted_select(revealed):
            tights.append(revealed)
            return select(revealed)

        def counted_seed(revealed):
            seeds.append(revealed)
            return seed(revealed)

        def counted_filter(book):
            filtered.append(book)
            return width_filter(book)

        def counted_table(game, *args):
            tables.append(outcome_table(game, *args))
            return tables[-1]
        monkeypatch.setattr(analysis, "find_clearing_price", counted_oracle)
        monkeypatch.setattr(analysis, "select_tight_market", counted_select)
        monkeypatch.setattr(auction, "tie_break_seed", counted_seed)
        monkeypatch.setattr(analysis, "filter_by_width", counted_filter)
        monkeypatch.setattr(_EngineGame, "outcome_table", counted_table)
        built = []
        for _ in range(2):
            for log in (books, tights, seeds, filtered):
                log.clear()
            rep = best_response_check(COMPETITIVE, n_mms=2, paths=200)
            assert len(rep.entries) == 88
            assert len(tights) == len(filtered) == 89
            assert len(seeds) == 26
            assert len(books) == len(set(books)) == 97 < 240 < 89 * 16
            # every returned table stays referenced, so distinct ids are distinct builds
            built.append({id(t) for t in tables[-89:]})
            assert len(built[-1]) == 15
        assert not built[0] & built[1]
        # a table goes to every profile that plays its game, so it is read-only
        table = tables[0]
        with pytest.raises(TypeError):
            table["m0"][0] = 1.0
        with pytest.raises(TypeError):
            table["m0"] = (0.0,) * 16

    def test_check_builds_each_order_and_client_utility_once(self, monkeypatch):
        """One competitive check builds client i's buy and sell order once
        per distinct (position, ``ClientProfile``) pair of its 89 profiles:
        20 pairs, 40 orders, where one set per profile would be 712.  It
        calls ``client_utility`` once per distinct argument tuple: 10
        calls, where one per settled client fill would be 888.  A second
        identical check builds all of it again: the game dies with the
        call."""
        from fairtradex import analysis
        _game, base, deviations = _competitive_deviations()
        pairs = {(i, cs) for _label, _key, _mms, clients in [base] + deviations
                 for i, cs in enumerate(clients)}
        assert len(pairs) == 20
        orders, utility_args = [], []
        order, utility = analysis.Order, analysis.client_utility

        def counted_order(**fields):
            orders.append(fields)
            return order(**fields)

        def counted_utility(*args):
            utility_args.append(args)
            return utility(*args)
        monkeypatch.setattr(analysis, "Order", counted_order)
        monkeypatch.setattr(analysis, "client_utility", counted_utility)
        for _ in range(2):
            orders.clear()
            utility_args.clear()
            rep = best_response_check(COMPETITIVE, n_mms=2, paths=200)
            assert len(rep.entries) == 88
            assert len(orders) == 2 * len(pairs) == 40
            assert sorted(f["tkn"] for f in orders) == [TOKEN_A] * 20 + [TOKEN_B] * 20
            assert {(f["oid"], f["price"], f["width_req"]) for f in orders} == {
                (i, MKT if cs.order_type == "mkt" else cs.limit_price, cs.width_req)
                for i, cs in pairs}
            assert len(utility_args) == len(set(utility_args)) == 10

    def test_one_game_caches_what_its_profiles_repeat(self):
        """The base profile and the 88 deviations, run through one game,
        leave 15 tables, 97 settled book shapes, 20 order pairs (40 orders)
        and 10 ``client_utility`` values in its caches; a copy of the game
        starts with none."""
        game, base, deviations = _competitive_deviations()
        for _label, _key, mms, clients in [base] + deviations:
            game.outcome_table(mms, clients)
        assert len(game._tables) == 15 and len(game._shapes) == 97
        assert len(game._orders) == 20
        assert len({o for pair in game._orders.values() for o in pair}) == 40
        assert len(game._utilities) == 10
        fresh = replace(game)
        assert fresh == game and not (fresh._tables or fresh._shapes or fresh._orders
                                      or fresh._utilities)

    @pytest.mark.parametrize("seed", [7, 20_240_006])
    def test_entries_match_a_fresh_game_per_deviation(self, seed):
        """The check's entries, whose tables and statistics are shared
        between deviations that play one game, equal by ``==`` a plain
        evaluation in which every deviation builds its own table with a
        fresh game and computes its own statistics from its own draw."""
        paths = 200
        game, (_, _, mms, clients), deviations = _competitive_deviations()
        patterns = _drawn_patterns(seed, paths)
        counts = [patterns.count(p) for p in range(16)]
        base = replace(game).outcome_table(mms, clients)

        def path_mean(column):
            return math.fsum(n * u for n, u in zip(counts, column)) / paths
        want = []
        for _label, key, m, c in deviations:
            dev = replace(game).outcome_table(m, c)[key]
            diff = [d - b for d, b in zip(dev, base[key])]
            gain = path_mean(diff)
            var = math.fsum(n * (x - gain) ** 2 for n, x in zip(counts, diff)) / (paths - 1)
            want.append((gain, 2 * math.sqrt(var / paths) + 1e-9,
                         path_mean(base[key]), path_mean(dev)))
        rep = best_response_check(COMPETITIVE, n_mms=2, paths=paths, seed=seed)
        got = [(e.gain, e.tolerance, e.utility_profile, e.utility_deviation)
               for e in rep.entries]
        assert got == want

    @pytest.mark.parametrize("seed", [1, 7, 20_240_006])
    def test_statistics_match_numpy_over_the_expanded_paths(self, seed):
        """Every default-grid entry's two means, gain and tolerance equal
        numpy's per-path ``mean`` and ``std(ddof=1)`` over the drawn counts
        expanded into one pattern number per path."""
        paths = 10_000
        game, (_, _, mms, clients), deviations = _competitive_deviations()
        pattern = np.repeat(np.arange(16), _pattern_counts(seed, paths, 4))
        assert len(pattern) == paths
        base = game.outcome_table(mms, clients)
        rep = best_response_check(COMPETITIVE, n_mms=2, paths=paths, seed=seed)
        assert len(rep.entries) == len(deviations)
        for entry, (label, key, m, c) in zip(rep.entries, deviations):
            base_u = np.array(base[key])[pattern]
            dev_u = np.array(game.outcome_table(m, c)[key])[pattern]
            diff = dev_u - base_u
            want = (base_u.mean(), dev_u.mean(), diff.mean(),
                    2 * diff.std(ddof=1) / math.sqrt(paths) + 1e-9)
            got = (entry.utility_profile, entry.utility_deviation, entry.gain, entry.tolerance)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), label

    @pytest.mark.parametrize("seed, paths", [(0, 2), (7, 200), (20_240_006, 10_000),
                                             (3, 100_001)])
    def test_pattern_counts_count_the_drawn_paths(self, seed, paths):
        """Each pattern's count is how many drawn bytes have it as their low
        four bits, so the 16 counts sum to ``paths``."""
        counts = _pattern_counts(seed, paths, 4)
        patterns = _drawn_patterns(seed, paths)
        assert counts == [patterns.count(p) for p in range(16)]
        assert sum(counts) == paths

    def test_pattern_counts_of_the_archived_draw(self):
        """The archive's draw, pinned: a Python release that changes the
        Mersenne Twister stream or ``randbytes`` fails here by name."""
        assert _pattern_counts(20_240_006, 10_000, 4) == [
            598, 619, 604, 664, 584, 644, 604, 600, 634, 615, 669, 644, 626, 639, 603, 653]

    def test_single_quoter_closed_form_against_engine(self):
        """Two models of the one-quoter game on the same default grid: the
        closed form, and the engine's exact expected gain (the mean of a
        deviation's outcome table minus the base table's mean) for four
        clients.  The closed form finds no improving deviation.  The engine
        finds three: whole-lot settlement lets the quoter raise its offer a
        tick without losing a lot, and a client's limit inside the spread
        moves the price it crosses other clients at, which the closed form
        does not model.  The disagreement is pinned exactly, with no
        tolerance."""
        y, f_mcf = 110, Fraction(121, 100)
        grid = default_grid(y, f_mcf)
        game = _EngineGame(y=y, f_mcf=f_mcf, n_clients=4, client_size_a=10 * y)
        mms, clients = [(y, MONOPOLY.mm.width)], [MONOPOLY.client] * 4
        base = game.outcome_table(mms, clients)

        def gain(key, m, c):
            return float(np.mean(np.subtract(game.outcome_table(m, c)[key], base[key])))
        engine = {f"quote p_ref={ref} w={w}": gain("m0", [(ref, w)], clients)
                  for w in grid.mm_widths for ref in grid.mm_ref_prices}
        engine.update({f"mkt width_req={w}": gain(
            "c0", mms, [ClientProfile(order_type="mkt", width_req=w)] + clients[1:])
            for w in grid.client_widths})
        engine.update({f"limit {lp} width_req={f_mcf}": gain(
            "c0", mms, [ClientProfile(order_type="limit", width_req=f_mcf,
                                      limit_price=lp)] + clients[1:])
            for lp in grid.client_limit_prices})

        closed: dict[str, float] = {}
        for e in best_response_check(MONOPOLY, n_mms=1, y=y, f_mcf=f_mcf).entries:
            if not e.label.startswith("fine p_ref scan"):
                # a client deviation's best gain over its two directions
                closed[e.label] = max(e.gain, closed.get(e.label, e.gain))
        assert set(closed) == set(engine) and len(engine) == 89
        assert not any(g > 0 for g in closed.values())
        disagree = {label: g for label, g in engine.items() if (g > 0) != (closed[label] > 0)}
        assert set(disagree) == {"quote p_ref=111 w=121/100",
                                 "limit 108 width_req=121/100",
                                 "limit 109 width_req=121/100"}
        assert disagree["quote p_ref=111 w=121/100"] == 1.5

    def test_archive_regenerates_byte_for_byte(self, tmp_path, monkeypatch):
        """The README's regeneration recipe, run in an empty directory,
        writes the four archived report files byte for byte."""
        readme = (REPO / "README.md").read_text()
        recipe = next(block.split("\n", 1)[1] for block in readme.split("```")[1::2]
                      if block.startswith("python") and "best_response_check(" in block)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "reports").mkdir()
        exec(recipe, {})
        for name in ("best_response_n1", "best_response_n2"):
            for ext in (".json", ".csv"):
                got = (tmp_path / "reports" / f"{name}{ext}").read_bytes()
                assert got == (REPO / "reports" / f"{name}{ext}").read_bytes(), f"{name}{ext}"

    def test_widening_deviator_loses_flow(self):
        """One quoter widening to 1.1 against a width-1 rival loses the
        tie-break and with it all traded flow; utility never improves."""
        game = _EngineGame(y=110, f_mcf=Fraction(121, 100), n_clients=4,
                           client_size_a=1100)
        clients = [ClientProfile(order_type="mkt", width_req=Fraction(121, 100))] * 4
        base = [(110, Fraction(1)), (110, Fraction(1))]
        widened = [(110, Fraction(11, 10)), (110, Fraction(1))]
        base_util = game.outcome_table(base, clients)["m0"]
        dev_util = game.outcome_table(widened, clients)["m0"]
        assert sum(dev_util) <= sum(base_util) + 1e-9
        # the widened quote never trades: utility identically zero
        assert all(u == 0.0 for u in dev_util)

    def test_under_fair_limit_buy_loses_fills(self):
        """A limit buy below the fair price under the competitive profile
        never executes; fill probability drops to zero, utility cannot rise."""
        game = _EngineGame(y=110, f_mcf=Fraction(121, 100), n_clients=4,
                           client_size_a=1100)
        base_clients = [ClientProfile(order_type="mkt", width_req=Fraction(121, 100))] * 4
        dev_clients = [ClientProfile(order_type="limit", width_req=Fraction(121, 100),
                                     limit_price=99)] + base_clients[1:]
        mm = [(110, Fraction(1)), (110, Fraction(1))]
        # the odd pattern numbers are the 8 patterns where client 0 buys
        base_util = game.outcome_table(mm, base_clients)["c0"][1::2]
        dev_util = game.outcome_table(mm, dev_clients)["c0"][1::2]
        assert all(u > 0 for u in base_util)     # market orders always fill
        assert all(u == 0.0 for u in dev_util)   # 99 < cp=110: never fills

    def test_report_serializes(self):
        rep = best_response_check(MONOPOLY, n_mms=1)
        doc = rep.to_json_dict()
        assert doc["confirmed"] and len(doc["deviations"]) == len(rep.entries)
