import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairtradex.analysis import default_grid
from fairtradex.units import (ANY, MKT, WITHDRAW, Market, Order, ProtocolParams,
                              QuantityError, check_quantity, check_width, market_width,
                              quote)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class TestWidth:
    def test_numeric_ordering(self):
        assert Fraction(3, 2) >= Fraction(6, 5)
        assert not Fraction(11, 10) >= Fraction(6, 5)

    def test_check_width_boundary_at_one(self):
        with pytest.raises(QuantityError):
            check_width(Fraction(10**40 - 1, 10**40))
        assert check_width(Fraction(1)) == 1
        assert check_width(Fraction(10**40 + 1, 10**40)) > 1


class TestMarket:
    @given(bid=st.integers(1, 10**6), spread=st.integers(0, 10**6))
    def test_width_examples(self, bid, spread):
        assert market_width(Market(90, 1, 110, 1)) == Fraction(11, 9)
        assert market_width(Market(100, 1, 100, 1)) == 1
        assert market_width(Market(100, 1, 121, 1)) == Fraction(121, 100)
        assert market_width(Market(bid, 1, bid + spread, 1)) >= 1

    def test_inverted_market_rejected(self):
        with pytest.raises(QuantityError):
            Market(bid=110, size_bid=1, offer=90, size_offer=1)


class TestQuote:
    @pytest.mark.parametrize("ref, width, expected", [
        (110, Fraction(1), (110, 110)),
        (110, Fraction(121, 100), (100, 121)),
        (55, Fraction(121, 100), (50, 61)),      # 55 * 1.1 = 60.5 rounds half up
        (100, Fraction(9, 4), (67, 150)),
        (1, Fraction(4), (1, 2)),                # bid clamped to one tick
    ])
    def test_table(self, ref, width, expected):
        assert quote(ref, width) == expected

    def test_exact_at_ten_to_the_400(self):
        big = 10**400
        # 10**401 / 11 = 9090...90.909 rounds up; 1.1 * 10**400 is exact
        assert quote(big, Fraction(121, 100)) == (10**401 // 11 + 1, 11 * 10**399)
        assert quote(big, Fraction(4)) == (big // 2, 2 * big)
        assert quote(1, Fraction(big)) == (1, 10**200)

    def test_perfect_square_tie_rounds_up(self):
        assert quote(5, Fraction(4)) == (3, 10)       # 5 / 2 = 2.5
        assert quote(3, Fraction(9, 4)) == (2, 5)     # 3 / 1.5 = 2, 3 * 1.5 = 4.5

    def test_agrees_with_the_float_rule_on_the_used_values(self):
        def float_quote(ref, w):
            root = math.sqrt(float(w))
            bid = max(1, round(ref / root))
            return bid, max(bid, round(ref * root))

        grid = default_grid(110, Fraction(121, 100))
        pairs = {(ref, w) for ref in grid.mm_ref_prices for w in grid.mm_widths}
        # the bundled quoters quote around y0 = 110 (delta 1) at their widths
        for path in SCENARIOS.glob("*.json"):
            cfg = json.loads(path.read_text())
            for agent in cfg["agents"]:
                if agent["role"] == "mm":
                    strategy = agent["strategy"]
                    ref = cfg["mifp"]["y0"] if strategy["ref"] == "mifp" else strategy["ref"]
                    pairs.add((ref, Fraction(str(strategy["width"]))))
        assert len(pairs) == 9 * 8  # the bundled quoters' pairs are on the grid too
        for ref, w in pairs:
            assert quote(ref, w) == float_quote(ref, w), (ref, w)


class TestQuantity:
    @given(a=st.integers(0, 2**128))
    def test_arithmetic_exact_or_raises(self, a):
        assert check_quantity(a) == a

    def test_negative_rejected(self):
        with pytest.raises(QuantityError):
            check_quantity(-1)


class TestOrder:
    def test_zero_size_only_for_withdraw(self):
        Order(oid=0, owner="p", tkn="A", size=0, price=WITHDRAW, width_req=ANY)
        with pytest.raises(QuantityError):
            Order(oid=0, owner="p", tkn="A", size=0, price=MKT, width_req=ANY)

    def test_side_convention(self):
        assert Order(0, "p", "A", 5, MKT, ANY).side == "buy"
        assert Order(0, "p", "B", 5, MKT, ANY).side == "sell"


class TestParams:
    def test_t_eff_examples(self):
        p = ProtocolParams(e_client=10, e_mm=200, q_not=100, f_r=1, res_bounty=1,
                           p_a=Fraction(1), t_blocks=3, alpha=Fraction(1, 2))
        assert p.t_eff == 6
        p = ProtocolParams(e_client=10, e_mm=200, q_not=100, f_r=1, res_bounty=1,
                           p_a=Fraction(1), t_blocks=3)
        assert p.t_eff == 3
        p = ProtocolParams(e_client=10, e_mm=200, q_not=100, f_r=1, res_bounty=1,
                           p_a=Fraction(1), t_blocks=10, alpha=Fraction(3, 4))
        assert p.t_eff == 40

    def test_e_mm_must_exceed_q_not(self):
        with pytest.raises(QuantityError):
            ProtocolParams(e_client=10, e_mm=100, q_not=100, f_r=1, res_bounty=1,
                           p_a=Fraction(1), t_blocks=3)

    @given(ref=st.integers(0, 10**15), price=st.integers(1, 10**6),
           p_a=st.one_of(st.sampled_from([Fraction(7, 3), Fraction(1, 1000), Fraction(1)]),
                         st.fractions(min_value=Fraction(1, 10**6), max_value=10**6)))
    def test_whole_atoms_round_the_exact_value(self, ref, price, p_a):
        p = ProtocolParams(e_client=10, e_mm=200, q_not=100, f_r=1, res_bounty=1,
                           p_a=p_a, t_blocks=3)
        exact = Fraction(ref) / (p_a * price)
        assert p.atoms_floor(ref, price) == math.floor(exact)
        assert p.atoms_ceil(ref, price) == math.ceil(exact)
        assert p.atoms_floor(ref) == math.floor(Fraction(ref) / p_a)
        assert p.atoms_ceil(ref) == math.ceil(Fraction(ref) / p_a)
