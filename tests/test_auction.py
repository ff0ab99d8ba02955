import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairtradex.auction import (AuctionBook, ClearingCandidate, InvalidClearingPrice,
                                candidate_prices, filter_by_width,
                                find_clearing_price, select_tight_market, settle,
                                tie_break_seed,
                                validate_clearing_result, verify_clearing_price,
                                volumes_at)
from fairtradex.membership import h
from fairtradex.serialize import book_from_json, dumps_canonical, result_to_json
from fairtradex.units import (ANY, MKT, TOKEN_A, TOKEN_B, WITHDRAW, Market, Order,
                              encode_market)

from helpers import naive_bound, naive_clear, random_book, ranked_clear, wide_book

GOLDEN = Path(__file__).parent / "golden" / "clearing_fixture.json"


def buy(oid, size, price, width=ANY, owner=None):
    return Order(oid=oid, owner=owner or f"b{oid}", tkn=TOKEN_A, size=size,
                 price=price, width_req=width)


def sell(oid, size, price, width=ANY, owner=None):
    return Order(oid=oid, owner=owner or f"s{oid}", tkn=TOKEN_B, size=size,
                 price=price, width_req=width)


def book_of(buys, sells, w_tight=ANY):
    return AuctionBook(buy_orders=tuple(buys), sell_orders=tuple(sells), w_tight=w_tight)


#: numeric widths >= 1 with numerators and denominators up to 10^40
WIDTHS = st.builds(lambda den, extra: Fraction(den + extra, den),
                   st.integers(1, 10**40), st.integers(0, 10**40))

#: (is_buy, size, price) order lists over ticks 1-30, with market orders and withdrawals
ORDERS = st.lists(st.tuples(st.booleans(), st.integers(1, 50),
                            st.one_of(st.just(MKT), st.just(WITHDRAW), st.integers(1, 30))),
                  max_size=14)


def book_of_tuples(orders):
    return book_of([buy(i, size, price) for i, (is_buy, size, price) in enumerate(orders)
                    if is_buy],
                   [sell(i, size, price) for i, (is_buy, size, price) in enumerate(orders)
                    if not is_buy])


class TestWidthFilter:
    def test_kept_at_or_above_tight(self):
        b = book_of([buy(0, 10, MKT, width=Fraction(3, 2))], [],
                    w_tight=Fraction(6, 5))
        kept, removed = filter_by_width(b)
        assert len(kept.buy_orders) == 1 and not removed

    def test_below_tight_removed(self):
        b = book_of([buy(0, 10, MKT, width=Fraction(11, 10))], [],
                    w_tight=Fraction(6, 5))
        kept, removed = filter_by_width(b)
        assert not kept.buy_orders and [o.oid for o in removed] == [0]

    def test_any_always_kept(self):
        b = book_of([buy(0, 10, MKT, width=ANY)], [], w_tight=Fraction(100))
        kept, removed = filter_by_width(b)
        assert len(kept.buy_orders) == 1 and not removed

    def test_no_market_keeps_everything(self):
        # with no revealed market the width constraint is vacuous
        b = book_of([buy(0, 10, MKT, width=Fraction(11, 10))],
                    [sell(1, 5, 40, width=Fraction(11, 10))], w_tight=ANY)
        kept, removed = filter_by_width(b)
        assert len(kept.buy_orders) == 1 and len(kept.sell_orders) == 1 and not removed
        assert kept is b

    @staticmethod
    def check_partition(w_tight, orders):
        """Kept and removed orders, in book order, against ``width_req >= w_tight``
        (an ANY width is always kept)."""
        b = book_of([buy(i, 5, MKT, width=w) for i, (is_buy, w) in enumerate(orders) if is_buy],
                    [sell(i, 5, MKT, width=w) for i, (is_buy, w) in enumerate(orders)
                     if not is_buy], w_tight=w_tight)
        kept, removed = filter_by_width(b)

        def keeps(o):
            return o.width_req is ANY or o.width_req >= w_tight
        assert kept.buy_orders == tuple(o for o in b.buy_orders if keeps(o))
        assert kept.sell_orders == tuple(o for o in b.sell_orders if keeps(o))
        assert removed == [o for o in (*b.buy_orders, *b.sell_orders) if not keeps(o)]
        assert kept.w_tight is w_tight

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_partition_matches_fraction_comparison(self, data):
        """Widths ANY, equal to ``w_tight`` (a new ``Fraction``) or any up to 10^40 / 10^40."""
        w_tight = data.draw(WIDTHS)
        equal = st.just(Fraction(w_tight.numerator, w_tight.denominator))
        widths = st.one_of(st.just(ANY), equal, WIDTHS)
        self.check_partition(w_tight, data.draw(st.lists(st.tuples(st.booleans(), widths),
                                                         max_size=12)))

    @pytest.mark.parametrize("w_tight", [Fraction(11, 10), Fraction(10**31 + 1, 10**31),
                                         Fraction(3 * 10**35 + 1, 7)])
    def test_partition_at_the_boundary(self, w_tight):
        """Each side gets ANY, ``w_tight`` and its neighbours 10^-40 below and above."""
        num, den, k = w_tight.numerator, w_tight.denominator, 10**40
        widths = [ANY, w_tight, Fraction(num * k - 1, den * k), Fraction(num * k + 1, den * k)]
        self.check_partition(w_tight, [(is_buy, w) for w in widths for is_buy in (True, False)])


class TestTieBreak:
    def mk(self, bid, offer):
        return Market(bid=bid, size_bid=10**6, offer=offer, size_offer=10**4)

    def test_unique_minimum_width(self):
        revealed = [("m1", self.mk(100, 120)), ("m2", self.mk(100, 110)),
                    ("m3", self.mk(100, 130))]
        assert select_tight_market(revealed)[0] == "m2"

    def test_equal_widths_resolved_by_digest(self):
        """The seed hashes the revealed set in (player, market) order, and
        the largest raw digest under it wins; reveal order is no input."""
        m1, m2 = self.mk(100, 110), self.mk(200, 220)
        revealed = [("m2", m2), ("m1", m1)]
        seed = h(b"m1|" + encode_market(m1), b"m2|" + encode_market(m2))
        assert tie_break_seed(revealed) == seed
        expect = max(revealed, key=lambda pm: h(seed, pm[0].encode(), encode_market(pm[1])))
        assert select_tight_market(revealed) == expect
        assert select_tight_market(revealed[::-1]) == expect

    def test_a_pick_decided_by_width_hashes_nothing(self, monkeypatch):
        from fairtradex import auction
        hashed = []
        monkeypatch.setattr(auction, "h", lambda *parts: hashed.append(parts) or h(*parts))
        revealed = [("m1", self.mk(100, 120)), ("m2", self.mk(100, 110)),
                    ("m3", self.mk(200, 220))]
        assert select_tight_market(revealed, revealed[:2])[0] == "m2"
        assert select_tight_market(revealed, revealed[1:2])[0] == "m2"
        assert hashed == []
        # m2 and m3 tie at width 11/10: one seed and one digest each
        assert select_tight_market(revealed) in revealed[1:]
        assert len(hashed) == 3

    def test_empty_list(self):
        assert select_tight_market([]) is None

    def test_seed_covers_full_list_before_removal(self):
        m1, m2, m3 = self.mk(100, 110), self.mk(200, 220), self.mk(500, 550)
        revealed = [("m1", m1), ("m2", m2), ("m3", m3)]
        # a lone eligible entry wins unhashed
        assert select_tight_market(revealed, eligible=[("m1", m1)])[0] == "m1"
        # m3's removal does not change the seed: m1 wins under the full
        # list's seed, where m2 would win under the eligible list's
        assert select_tight_market(revealed, eligible=revealed[:2])[0] == "m1"
        assert select_tight_market(revealed[:2])[0] == "m2"

    def test_selection_stable_for_fixed_list(self):
        revealed = [("m1", self.mk(100, 110)), ("m2", self.mk(200, 220))]
        assert select_tight_market(revealed) == select_tight_market(list(revealed))

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_pick_ignores_the_order_of_both_lists(self, data):
        """Permuting ``revealed`` and ``eligible`` never changes the pick.
        Few players and quotes make repeated entries and width ties common."""
        market = st.builds(lambda bid, k: self.mk(bid, bid + k),
                           st.sampled_from([10, 20, 30]), st.sampled_from([1, 2, 3]))
        revealed = data.draw(st.lists(st.tuples(st.sampled_from(["m1", "m2", "m3"]), market),
                                      max_size=6))
        eligible = data.draw(st.lists(st.sampled_from(revealed), max_size=6)
                             if revealed else st.just([]))
        pick = select_tight_market(revealed, eligible)
        assert select_tight_market(data.draw(st.permutations(revealed)),
                                   data.draw(st.permutations(eligible))) == pick


class TestVolumes:
    def test_mkt_buy_counts_at_any_price(self):
        b = book_of([buy(0, 100, MKT)], [])
        assert volumes_at(b, 1)[0] == 100
        assert volumes_at(b, 10**6)[0] == 100

    def test_limit_buy_below_cp_excluded(self):
        b = book_of([buy(0, 100, 99)], [])
        assert volumes_at(b, 100)[0] == 0

    def test_limit_sell_at_cp_included(self):
        b = book_of([], [sell(0, 7, 100)])
        assert volumes_at(b, 100)[1] == 7

    @given(orders=ORDERS)
    @example(orders=[])
    @example(orders=[(True, 5, MKT), (False, 2, MKT)])           # market orders only
    @example(orders=[(True, 5, 7), (True, 3, 7), (True, 1, 2)])  # one-sided, duplicates
    @example(orders=[(False, 5, 1), (False, 4, 1), (True, 9, 1)])
    @settings(max_examples=300, deadline=None)
    def test_view_matches_direct_sum_at_every_tick(self, orders):
        """The depth view against a direct sum over the orders, ``cp = 0`` included."""
        b = book_of_tuples(orders)
        top = max((price for _, _, price in orders if isinstance(price, int)), default=0)
        for cp in range(top + 3):
            buys = [o for o in b.buy_orders
                    if o.price is MKT or (isinstance(o.price, int) and o.price >= cp)]
            sells = [o for o in b.sell_orders
                     if o.price is MKT or (isinstance(o.price, int) and o.price <= cp)]
            assert volumes_at(b, cp) == (sum(o.size for o in buys), sum(o.size for o in sells))
            buy_levels, sell_levels = b._depth.levels(cp)
            for levels, direct, sign in ((buy_levels, buys, -1), (sell_levels, sells, 1)):
                # the market level first, then one price per limit level,
                # from the most aggressive limit to the least
                assert all(o.price is MKT for o in levels[0])
                prices = []
                for level in levels[1:]:
                    assert level and {o.price for o in level} == {level[0].price}
                    prices.append(sign * level[0].price)
                assert prices == sorted(set(prices))
                assert (sorted(o.oid for level in levels for o in level)
                        == sorted(o.oid for o in direct))


# wide distinct-limit books: (seed, orders, highest tick) -> candidate count
# and sha256 of the comma-joined candidate list, pinned so that any change to
# the candidate set shows
WIDE_CANDIDATES = {
    (1, 200, 11_000): (139, "25a3be9f1b45794327f4a58d706d4af1a020fdfd176094500d2d270e4f7d95e4"),
    (2, 500, 100_000): (358, "9a07eaeb5284ab0c08002cba0f008f1cbbcebb4bb1fed186a9e680f8019e35a8"),
    (3, 1000, 100_000): (724, "732763a0629a7d31a79c3a7da03f055ff3b64c5b0f8b6cd13acbaa116659f154"),
}


def filtered_wide_book(seed, n_orders, hi):
    return filter_by_width(wide_book(random.Random(seed), n_orders, hi=hi))[0]


# sha256 of the canonical JSON of the settlement at the oracle's price, for
# the WIDE_CANDIDATES books and for up-to-40-order ``random_book`` seeds with
# a spanning market, pinned so that any change to a settled fill shows
WIDE_SETTLEMENTS = {
    (1, 200, 11_000): "d8108d1269562544fbc237f8413c1ca146930e75bede507fa916000afb8c5287",
    (2, 500, 100_000): "cd7ffe0266ff3ba34c6ed97f4981f6234aa25ae72a494d5146bee8a0ddb03cc1",
    (3, 1000, 100_000): "ae22e0272fa9ff2a39315d603308737f25db82c76dd853e54a941f9fa247d5e0",
}
RANDOM_SETTLEMENTS = {
    0: "4fbb46182309d7d2fc9e9adfd17359e53bccb8dc363c9c96173141d33fae613d",
    1: "db08f2d2d2de1dcd1ab2f787f8a9c3fe314ac2166fcc62a581f7ebdc4f4b7e83",
    6: "ef3281922d46b15d88e4cc9efa65baf825d1806e89f62750579627d4c28b7205",
    7: "adb04f4188e4d5f56e6ab8a2f9c965b415651f42f215fa2831c88c2662d8cec3",
}


def settlement_digest(book):
    res = settle(book, find_clearing_price(book).cp)
    return hashlib.sha256(dumps_canonical(result_to_json(res)).encode()).hexdigest()


class TestCandidates:
    @pytest.mark.parametrize("buys, sells, expected", [
        ([buy(0, 100, MKT)], [sell(1, 3, MKT)], [34]),
        ([buy(0, 100, MKT), buy(1, 250, 52)], [sell(2, 4, 50), sell(3, 2, 48)],
         [49, 52, 53]),
        ([buy(0, 90, 40), buy(1, 60, 40)], [sell(2, 1, 40), sell(3, 2, 35), sell(4, 1, MKT)],
         [34, 39, 40]),
        ([buy(0, 10, 90)], [sell(1, 10, 110)], []),
    ])
    def test_small_books(self, buys, sells, expected):
        assert candidate_prices(book_of(buys, sells)) == expected

    @given(orders=ORDERS)
    @example(orders=[])
    @example(orders=[(True, 100, MKT), (False, 3, MKT)])        # one unbounded segment
    @example(orders=[(True, 5, 1), (False, 4, 1), (True, 9, 2), (False, 1, 3)])
    @example(orders=[(True, 5, 7), (False, 2, WITHDRAW)])        # one side withdrawn
    @settings(max_examples=300, deadline=None)
    def test_one_optimum_per_segment(self, orders):
        """Each segment's best tick under the oracle's ranking, by a dense scan.

        Segments start at 1, at every sell limit and one past every buy
        limit, and adjacent segments differ in (buy volume, sell volume);
        the last one is scanned far enough that volume is flat and
        |imbalance| only grows past its end.
        """
        b = book_of_tuples(orders)
        starts = sorted({1}
                        | {price for is_buy, _, price in orders
                           if not is_buy and isinstance(price, int)}
                        | {price + 1 for is_buy, _, price in orders
                           if is_buy and isinstance(price, int)})
        for a, nxt in zip(starts, starts[1:]):
            assert volumes_at(b, a) != volumes_at(b, nxt)
        total_buy = sum(size for is_buy, size, _ in orders if is_buy)
        expected = []
        for a, nxt in zip(starts, starts[1:] + [starts[-1] + total_buy + 2]):
            ranked = []
            for cp in range(a, nxt):
                buy_vol, sell_vol = volumes_at(b, cp)
                vol = min(buy_vol, sell_vol * cp)
                ranked.append((-vol, abs(buy_vol - sell_vol * cp), cp))
            neg_vol, _, cp = min(ranked)
            if neg_vol < 0:
                expected.append(cp)
        assert candidate_prices(b) == expected

    @pytest.mark.parametrize("seed, n_orders, hi", sorted(WIDE_CANDIDATES))
    def test_wide_books(self, seed, n_orders, hi):
        cands = candidate_prices(filtered_wide_book(seed, n_orders, hi))
        digest = hashlib.sha256(",".join(map(str, cands)).encode()).hexdigest()
        assert (len(cands), digest) == WIDE_CANDIDATES[seed, n_orders, hi]


class TestOracle:
    def test_golden_fixture(self):
        doc = json.loads(GOLDEN.read_text())
        book = book_from_json(doc["book"])
        cand = find_clearing_price(book)
        assert cand.cp == doc["oracle"]["cp"]
        assert cand.volume_a == doc["oracle"]["volume_a"]
        assert cand.imbalance_a == doc["oracle"]["imbalance_a"]
        assert 98 <= cand.cp <= 102  # inside the spanning market
        res = settle(book, cand.cp)
        assert result_to_json(res) == doc["settlement"]

    def test_one_sided_book_has_no_price(self):
        assert find_clearing_price(book_of([buy(0, 10, MKT)], [])) is None
        assert find_clearing_price(book_of([], [sell(0, 10, MKT)])) is None

    def test_non_crossing_book_has_no_price(self):
        assert find_clearing_price(book_of([buy(0, 10, 90)], [sell(1, 10, 110)])) is None

    def test_symmetric_all_market_book(self):
        b = book_of([buy(0, 100, MKT)], [sell(1, 1, MKT)])
        cand = find_clearing_price(b)
        assert (cand.cp, cand.imbalance_a) == (100, 0)

    def test_agrees_with_naive_enumerator(self):
        rng = random.Random(1234)
        books = [random_book(rng) for _ in range(300)]
        # limits at ticks 1-3, many adjacent: the segment edges
        books += [random_book(rng, base_price=rng.randint(1, 2), band=rng.randint(2, 4),
                              max_size=rng.randint(1, 5)) for _ in range(300)]
        # market orders only: one unbounded segment
        books.append(book_of([buy(0, 100, MKT), buy(1, 7, MKT)], [sell(2, 3, MKT)]))
        for b in books:
            cand = find_clearing_price(b)
            naive = naive_clear(b)
            if cand is None:
                assert naive is None
            else:
                assert naive == (cand.cp, cand.volume_a, cand.imbalance_a)

    @staticmethod
    def check_against_ranking(b):
        """The oracle against ``ranked_clear``, and each segment against ``volumes_at``."""
        cand = find_clearing_price(b)
        assert (None if cand is None
                else (cand.cp, cand.volume_a, cand.imbalance_a)) == ranked_clear(b)
        segments = b._depth.segments
        assert [cp for cp, _, _ in segments] == candidate_prices(b)
        for cp, buy_vol, sell_vol in segments:
            assert volumes_at(b, cp) == (buy_vol, sell_vol)

    @given(orders=ORDERS)
    @example(orders=[])                                                # empty book
    @example(orders=[(True, 5, MKT), (True, 3, MKT), (False, 2, MKT)])  # market orders only
    @example(orders=[(True, 5, 7), (False, 2, WITHDRAW), (False, 3, WITHDRAW)])
    @example(orders=[(True, 5, WITHDRAW), (False, 2, 3), (False, 3, MKT)])
    @example(orders=[(True, 20, 10), (False, 1, 11)])                  # sell limit = buy + 1
    @example(orders=[(True, 20, 10), (False, 1, 11), (False, 2, MKT), (True, 9, 11)])
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_ranking(self, orders):
        self.check_against_ranking(book_of_tuples(orders))

    def test_matches_reference_ranking_on_duplicate_limits(self):
        rng = random.Random(4321)
        for _ in range(300):
            # up to 20 orders over 1 to 4 ticks near the bottom of the grid
            self.check_against_ranking(random_book(rng, max_orders=20, band=rng.randint(1, 4),
                                                   base_price=rng.randint(1, 3)))

    @pytest.mark.parametrize("seed, n_orders, hi", sorted(WIDE_CANDIDATES))
    def test_wide_books_agree_with_naive_enumerator(self, seed, n_orders, hi):
        b = filtered_wide_book(seed, n_orders, hi)
        cand = find_clearing_price(b)
        assert naive_clear(b) == (cand.cp, cand.volume_a, cand.imbalance_a)

    @pytest.mark.xfail(strict=True, reason="the oracle ranks volume in A units, where "
                       "sub-lot dust counts: cp=60 trades 60 A of dust and no lot")
    def test_oracle_price_settles_at_least_one_lot(self):
        b = book_of([buy(0, 30, MKT), buy(1, 30, MKT)], [sell(2, 1, MKT)])
        cand = find_clearing_price(b)
        assert verify_clearing_price(b, cand.cp, cand.volume_a, cand.imbalance_a)
        assert settle(b, cand.cp).volume_settled_b >= 1


class TestVerifier:
    def claims(self, book, cp):
        bv, sv = volumes_at(book, cp)
        return min(bv, sv * cp), bv - sv * cp

    def test_oracle_cp_passes(self):
        rng = random.Random(99)
        for _ in range(200):
            b = random_book(rng, with_spanning_market=True, q_not=500)
            cand = find_clearing_price(b)
            assert cand is not None
            assert verify_clearing_price(b, cand.cp, cand.volume_a, cand.imbalance_a)

    def test_wrong_volume_claim_rejected(self):
        b = book_of([buy(0, 100, MKT)], [sell(1, 1, MKT)])
        cand = find_clearing_price(b)
        assert not verify_clearing_price(b, cand.cp, cand.volume_a + 1, cand.imbalance_a)

    def test_off_optimum_tick_rejected_on_single_peak(self):
        # strictly single-peaked: limit buy and limit sell at the same price
        b = book_of([buy(0, 100, 50)], [sell(1, 2, 50)])
        cand = find_clearing_price(b)
        assert cand.cp == 50
        for cp in (49, 51):
            assert not verify_clearing_price(b, cp, *self.claims(b, cp))

    def test_bool_cp_rejected(self):
        # cp = 1 balances this book exactly, so True would pass on its value
        b = book_of([buy(0, 5, MKT)], [sell(1, 5, MKT)])
        assert verify_clearing_price(b, 1, 5, 0)
        assert not verify_clearing_price(b, True, 5, 0)

    def test_zero_volume_claim_rejected(self):
        b = book_of([buy(0, 100, 60)], [sell(1, 1, 40)])
        assert not verify_clearing_price(b, 1, *self.claims(b, 1))

    def test_nonzero_imbalance_claim_is_probed(self):
        """Only a zero imbalance is accepted without the adjacent-tick probe:
        at cp 10 this book trades 100 A with imbalance +1, but cp 11 trades
        all 101 A, so the claim (10, 100, 1) is not optimal."""
        b = book_of([buy(0, 101, MKT)], [sell(1, 10, MKT)])
        assert find_clearing_price(b) == ClearingCandidate(11, 101, -9)
        assert self.claims(b, 10) == (100, 1)
        assert not verify_clearing_price(b, 10, 100, 1)

    def test_only_the_lower_price_of_an_exact_tie_passes(self):
        """ROADMAP item 7(c)'s tie: cp 9 scores (81, +19) and cp 10 scores
        (81, -19).  The oracle picks the lower tick, and so does the
        verifier: it ranks the claim against its probe with the oracle's
        key, whose last term, the lower price, decides an exact tie."""
        b = book_of([buy(0, 81, MKT), buy(1, 19, 9)], [sell(2, 9, MKT), sell(3, 1, 10)])
        assert find_clearing_price(b) == ClearingCandidate(9, 81, 19)
        assert verify_clearing_price(b, 9, 81, 19)
        assert not verify_clearing_price(b, 10, 81, -19)

    def test_accepted_prices_reach_max_volume_with_spanning_market(self):
        """On books with a spanning market, every price the verifier accepts
        trades the oracle's max volume: scanned up to ``naive_clear``'s bound."""
        rng = random.Random(7)
        counterexamples = []
        for i in range(200):
            b = random_book(rng, with_spanning_market=True, q_not=500)
            cand = find_clearing_price(b)
            for cp in range(1, naive_bound(b) + 1):
                vol, imb = self.claims(b, cp)
                if verify_clearing_price(b, cp, vol, imb) and vol < cand.volume_a:
                    counterexamples.append((i, cp))
        assert counterexamples == []


class TestSettle:
    def test_buy_surplus_hand_example(self):
        b = book_of([buy(0, 100, MKT)], [sell(1, 2, 40)])
        res = settle(b, 40)
        assert res.volume_settled_b == 2
        f_buy, f_sell = res.fills
        assert (f_buy.executed, f_buy.received, f_buy.refunded) == (80, 2, 20)
        assert (f_sell.executed, f_sell.received, f_sell.refunded) == (2, 80, 0)

    def test_balanced_book_fills_fully(self):
        b = book_of([buy(0, 400, MKT)], [sell(1, 4, 100)])
        res = settle(b, 100)
        assert res.imbalance_a == 0
        assert all(f.refunded == 0 for f in res.fills)

    def test_largest_remainder_example(self):
        # three equal-price sells (3,3,4) pro-rated to 5: floors (1,1,2),
        # leftover goes to the lowest oid among the tied remainders
        b = book_of([buy(0, 50, MKT)],
                    [sell(1, 3, 10), sell(2, 3, 10), sell(3, 4, 10)])
        res = settle(b, 10)
        assert res.volume_settled_b == 5
        delivered = {f.oid: f.executed for f in res.fills if f.oid != 0}
        assert delivered == {1: 2, 2: 1, 3: 2}

    def test_limit_at_margin_pro_rated_before_market_orders(self):
        # one lot available: the limit buy at the margin absorbs the shortage,
        # market orders fill first
        b = book_of([buy(0, 100, MKT), buy(1, 100, 50)], [sell(2, 3, 50)])
        res = settle(b, 50)
        fills = {f.oid: f for f in res.fills}
        assert fills[0].received == 2   # market order fills to capacity
        assert fills[1].received == 1   # marginal limit takes the remainder
        assert fills[2].executed == 3

    def test_more_aggressive_limit_fills_first(self):
        # two lots trade on the short side: the higher buy limit and the
        # lower sell limit take both, whatever the order of the book
        b = book_of([buy(0, 100, 50), buy(1, 100, 55)], [sell(2, 2, MKT)])
        assert [f.received for f in settle(b, 50).fills[:2]] == [0, 2]
        b = book_of([buy(0, 100, MKT)], [sell(1, 2, 50), sell(2, 2, 45)])
        assert [f.executed for f in settle(b, 50).fills[1:]] == [0, 2]

    def test_marginal_level_skips_entries_at_lot_cap(self):
        # six lots over four market buys with caps 5/0/2/1: floors 3/0/1/0
        # leave two units; by remainder oid 3 takes one, oid 1 is skipped at
        # its cap of 0 lots, and oid 0 takes the other
        b = book_of([buy(0, 236, MKT), buy(1, 38, MKT), buy(2, 88, MKT), buy(3, 71, MKT)],
                    [sell(4, 6, 41)])
        res = settle(b, 41)
        validate_clearing_result(b, res)
        assert [f.received for f in res.fills[:4]] == [4, 0, 1, 1]

    def test_invalid_cp_raises(self):
        b = book_of([buy(0, 100, 50)], [sell(1, 2, 50)])
        with pytest.raises(InvalidClearingPrice):
            settle(b, 49)

    def test_bool_cp_raises(self):
        # cp = 1 trades here, so only the type stops True
        b = book_of([buy(0, 5, MKT)], [sell(1, 5, MKT)])
        assert settle(b, 1).volume_settled_b == 5
        for cp in (True, False):
            with pytest.raises(InvalidClearingPrice):
                settle(b, cp)

    def test_fills_in_oid_order_buy_first_on_a_shared_oid(self):
        # oid 2 is both a buy and a sell, as a client's two orders are in an
        # analysis engine book; each side is listed out of oid order
        b = book_of([buy(2, 100, MKT), buy(0, 30, MKT)], [sell(2, 1, 50), sell(1, 1, MKT)])
        assert find_clearing_price(b).cp == 65
        res = settle(b, 65)
        assert [f[:4] for f in res.fills] == [(0, 0, 0, 30), (1, 1, 65, 0),
                                              (2, 65, 1, 35), (2, 0, 0, 1)]
        assert all(f.order.oid == f.oid for f in res.fills)
        validate_clearing_result(b, res)
        with pytest.raises(AssertionError, match="fill order"):
            validate_clearing_result(b, replace(res, fills=res.fills[::-1]))
        # a fill's order is the one it settles: swap the two oid-2 orders
        fills = list(res.fills)
        fills[2], fills[3] = fills[2]._replace(order=fills[3].order), fills[3]
        with pytest.raises(AssertionError):
            validate_clearing_result(b, replace(res, fills=tuple(fills)))
        with pytest.raises(AttributeError):  # a fill is read-only
            res.fills[0].executed = 1

    def test_orders_sharing_an_oid_on_one_side_fill_apart(self):
        # both buys are oid 0; only the limit-10 buy is eligible at cp 10
        b = book_of([Order(0, "a", TOKEN_A, 30, 10, ANY), Order(0, "b", TOKEN_A, 30, 9, ANY)],
                    [sell(1, 3, MKT)])
        res = settle(b, 10)
        validate_clearing_result(b, res)
        assert [f.received for f in res.fills[:2]] == [3, 0]
        # three equal market buys of oid 0 split two lots: a remainder and
        # oid tie goes to the earlier order in the book
        b = book_of([buy(0, 10, MKT, owner=x) for x in "abc"], [sell(1, 2, MKT)])
        res = settle(b, 10)
        validate_clearing_result(b, res)
        assert [f.received for f in res.fills[:3]] == [1, 1, 0]

    @given(orders=ORDERS)
    @settings(max_examples=300, deadline=None)
    def test_buys_and_sells_sharing_oids_settle_and_validate(self, orders):
        """The k-th buy and the k-th sell share oid k, each side listed in
        reverse: the settlement validates and fills every order as the
        same book with distinct oids (2k and 2k + 1) does."""
        buys = [(size, price) for is_buy, size, price in orders if is_buy]
        sells = [(size, price) for is_buy, size, price in orders if not is_buy]

        def numbered(buy_oid, sell_oid):
            return book_of([buy(buy_oid(k), *o) for k, o in reversed(list(enumerate(buys)))],
                           [sell(sell_oid(k), *o) for k, o in reversed(list(enumerate(sells)))])
        shared = numbered(lambda k: k, lambda k: k)
        cand = find_clearing_price(shared)
        if cand is None:
            return
        res = settle(shared, cand.cp)
        validate_clearing_result(shared, res)
        distinct = settle(numbered(lambda k: 2 * k, lambda k: 2 * k + 1), cand.cp)
        assert ([(f.executed, f.received, f.refunded) for f in res.fills]
                == [(f.executed, f.received, f.refunded) for f in distinct.fills])

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_conservation_random_books(self, seed):
        b = random_book(random.Random(seed))
        cand = find_clearing_price(b)
        if cand is None:
            return
        res = settle(b, cand.cp)
        validate_clearing_result(b, res)

    @given(seed=st.integers(0, 10**6), factor=st.sampled_from([2, 4]))
    @settings(max_examples=200, deadline=None)
    def test_even_scaling_never_shrinks_fills(self, seed, factor):
        b = random_book(random.Random(seed))
        cand = find_clearing_price(b)
        if cand is None:
            return
        res = settle(b, cand.cp)
        scaled = AuctionBook(
            buy_orders=tuple(Order(o.oid, o.owner, o.tkn, o.size * factor, o.price,
                                   o.width_req) for o in b.buy_orders),
            sell_orders=tuple(Order(o.oid, o.owner, o.tkn, o.size * factor, o.price,
                                    o.width_req) for o in b.sell_orders),
            w_tight=b.w_tight)
        res2 = settle(scaled, cand.cp)
        validate_clearing_result(scaled, res2)
        assert res2.volume_settled_b >= factor * res.volume_settled_b
        before = {f.oid: f for f in res.fills}
        for f in res2.fills:
            assert f.received >= before[f.oid].received

    @pytest.mark.parametrize("seed, n_orders, hi", sorted(WIDE_SETTLEMENTS))
    def test_wide_book_settlements_match_golden_digests(self, seed, n_orders, hi):
        b = filtered_wide_book(seed, n_orders, hi)
        assert settlement_digest(b) == WIDE_SETTLEMENTS[seed, n_orders, hi]

    @pytest.mark.parametrize("seed", sorted(RANDOM_SETTLEMENTS))
    def test_random_book_settlements_match_golden_digests(self, seed):
        b = random_book(random.Random(seed), max_orders=40, with_spanning_market=True,
                        q_not=500)
        assert settlement_digest(b) == RANDOM_SETTLEMENTS[seed]

    def test_lot_aligned_doubling_doubles_volume_exactly(self):
        b = book_of([buy(0, 150, MKT), buy(1, 100, 50)],
                    [sell(2, 4, 50), sell(3, 2, 48)])
        cand = find_clearing_price(b)
        assert cand.cp == 50
        assert all(o.size % cand.cp == 0 for o in b.buy_orders)
        res = settle(b, cand.cp)
        doubled = book_of([buy(0, 300, MKT), buy(1, 200, 50)],
                          [sell(2, 8, 50), sell(3, 4, 48)])
        res2 = settle(doubled, cand.cp)
        assert res2.volume_settled_b == 2 * res.volume_settled_b


class TestShapeInvariance:
    """A clear depends on each side's orders in book order, not on their oids
    or owners.  ``analysis._EngineGame`` clears each distinct book shape (each
    side's (size, price, owner is a quoter) in book order) once and replays
    its fills onto other books of that shape, so its reports depend on this
    property.  A change that makes the oracle or settlement read an oid's
    value or an owner must keep it or revisit that cache; ROADMAP items 2
    (lot-exact clearing) and 7(b) (``_waterfall``'s leftover rule) are two
    such changes."""

    @staticmethod
    def relabelled(book, rng):
        """``book`` with each side's oids mapped by a strictly increasing map
        of its own, so the two sides may interleave or share oids anew, and
        every owner renamed."""
        def side(orders):
            oid = rng.randint(0, 60)
            out = []
            for o in orders:
                out.append(replace(o, oid=oid, owner=f"r{rng.randrange(10**6)}"))
                oid += rng.randint(1, 40)
            return tuple(out)
        return replace(book, buy_orders=side(book.buy_orders),
                       sell_orders=side(book.sell_orders))

    @staticmethod
    def by_position(book, res):
        """Each side's ``(executed, received, refunded)`` in book order."""
        rows = {id(f.order): (f.executed, f.received, f.refunded) for f in res.fills}
        return [[rows[id(o)] for o in orders] for orders in (book.buy_orders, book.sell_orders)]

    @given(seed=st.integers(0, 10**6), spanning=st.booleans(),
           relabel=st.integers(0, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_relabelled_oids_and_renamed_owners_clear_alike(self, seed, spanning, relabel):
        b = random_book(random.Random(seed), max_orders=16, with_spanning_market=spanning)
        r = self.relabelled(b, random.Random(relabel))
        cand = find_clearing_price(b)
        assert find_clearing_price(r) == cand
        if cand is None:
            return
        res, res_r = settle(b, cand.cp), settle(r, cand.cp)
        validate_clearing_result(r, res_r)
        assert (res_r.volume_settled_b, res_r.imbalance_a) == (res.volume_settled_b,
                                                                res.imbalance_a)
        assert self.by_position(r, res_r) == self.by_position(b, res)
