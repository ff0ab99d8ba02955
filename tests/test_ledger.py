import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtradex.ledger import (BURN_SINK, PROTOCOL_ACCOUNT, InsufficientBalance,
                               Ledger)


def make_ledger():
    l = Ledger()
    l.mint("p1", "REF", 100)
    l.mint("p2", "REF", 50)
    l.mint("p1", "A", 10)
    return l


class TestTransfer:
    def test_exact_balance_boundary(self):
        l = make_ledger()
        l.transfer("p1", PROTOCOL_ACCOUNT, "REF", 100)
        assert l.balance("p1", "REF") == 0
        assert l.balance(PROTOCOL_ACCOUNT, "REF") == 100

    def test_zero_transfer_is_noop(self):
        l = make_ledger()
        before = l.snapshot()
        l.transfer("p1", "p2", "REF", 0)
        assert l.snapshot() == before

    def test_insufficient_leaves_state_unchanged(self):
        l = make_ledger()
        before = l.snapshot()
        with pytest.raises(InsufficientBalance):
            l.transfer("p2", "p1", "REF", 51)
        assert l.snapshot() == before


class TestBurn:
    def test_burn_moves_to_sink(self):
        l = make_ledger()
        l.transfer("p1", PROTOCOL_ACCOUNT, "REF", 40)
        l.burn(PROTOCOL_ACCOUNT, "REF", 40)
        assert l.balance(BURN_SINK, "REF") == 40
        assert l.supplies()["REF"] == 150

    def test_burn_zero(self):
        l = make_ledger()
        l.burn("p1", "REF", 0)
        assert l.balance(BURN_SINK, "REF") == 0


class TestSnapshot:
    def test_empty(self):
        assert Ledger().snapshot() == {}

    def test_snapshot_immune_to_later_transfers(self):
        l = make_ledger()
        snap = l.snapshot()
        l.transfer("p1", "p2", "REF", 10)
        assert snap["p1"]["REF"] == 100

    def test_totals_match_live(self):
        l = make_ledger()
        l.burn("p1", "REF", 30)
        totals = {}
        for tkns in l.snapshot().values():
            for tkn, amt in tkns.items():
                totals[tkn] = totals.get(tkn, 0) + amt
        assert l.supplies() == totals == {"REF": 150, "A": 10}


@st.composite
def op_sequences(draw):
    players = ["p1", "p2", "p3", PROTOCOL_ACCOUNT]
    ops = draw(st.lists(st.tuples(
        st.sampled_from(["transfer", "burn"]),
        st.sampled_from(players),
        st.sampled_from(players),
        st.sampled_from(["REF", "A", "B"]),
        st.integers(0, 300),
    ), max_size=60))
    return ops


class TestConservation:
    @given(ops=op_sequences())
    @settings(max_examples=200)
    def test_supply_invariant_under_adversarial_sequences(self, ops):
        l = Ledger()
        for p in ("p1", "p2", "p3"):
            for t in ("REF", "A", "B"):
                l.mint(p, t, 200)
        start = l.supplies()
        for kind, frm, to, tkn, amt in ops:
            try:
                if kind == "transfer":
                    l.transfer(frm, to, tkn, amt)
                else:
                    l.burn(frm, tkn, amt)
            except InsufficientBalance:
                pass
            # no balance ever negative, supply constant after every op
            assert all(amt >= 0 for accts in l.snapshot().values() for amt in accts.values())
            assert l.supplies() == start
