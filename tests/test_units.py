import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairtradex.units import (ANY, MKT, WITHDRAW, Market, Order, ProtocolParams,
                              QuantityError, check_quantity, market_width, quote)


class TestWidth:
    def test_any_tops_numeric(self):
        assert ANY >= Fraction(5)
        assert not Fraction(5) >= ANY
        assert ANY >= ANY
        assert ANY > Fraction(10**9)

    def test_numeric_ordering(self):
        assert Fraction(3, 2) >= Fraction(6, 5)
        assert not Fraction(11, 10) >= Fraction(6, 5)


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
        (55, Fraction(121, 100), (50, 61)),      # 55 * 1.1 rounds up from 60.50000000000001
        (100, Fraction(9, 4), (67, 150)),
        (1, Fraction(4), (1, 2)),                # bid clamped to one tick
    ])
    def test_table(self, ref, width, expected):
        assert quote(ref, width) == expected


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
