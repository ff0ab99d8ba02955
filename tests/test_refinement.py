"""The protocol refines an ideal frequent batch auction (ROADMAP item 14).

Every closed round's report must give each owner what an order-independent
trusted auctioneer gives them on that round's revealed inputs.  The ideal
round sorts the revealed and the eligible markets by ``(player,
encode_market(m))`` before the tie-break and the client orders by their
own fields before numbering them, then runs the same escrow caps,
``round_book``, width filter, oracle and settlement.  The tie-break seed
hashes the revealed markets in that same order, so the block producer's
reveal order cannot pick between equal-width quoters (item 7(a)): the
crowd rounds, where two quoters often tie, match too.  The inputs are read
by wrapping ``Protocol._end_reveal_phase``, so the protocol keeps no extra
state.
"""

import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from fairtradex.auction import (filter_by_width, find_clearing_price, round_book,
                                select_tight_market, settle)
from fairtradex.chain import ORDERING_POLICIES
from fairtradex.protocol import Protocol
from fairtradex.scenario import Runner
from fairtradex.units import TOKEN_A, encode_market, encode_order_fields

from helpers import crowd_config

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
POLICIES = sorted(ORDERING_POLICIES)


def run_capturing_inputs(cfg):
    """Run ``cfg``; return its settlement reports and each round's revealed inputs.

    The inputs of round k are ``(params, revealed markets, eligible
    markets, client buys, client sells)`` as the reveal window closes.
    """
    inputs = {}
    original = Protocol._end_reveal_phase

    def capture(self, height):
        eligible = [(p, m) for p, m in self.revealed_mkts if self._mm_liquidity_ok(p, m)]
        inputs[self.round] = (self.params, list(self.revealed_mkts), eligible,
                              list(self.revealed_buys), list(self.revealed_sells))
        original(self, height)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Protocol, "_end_reveal_phase", capture)
        settlements = Runner(cfg).run().settlements
    return settlements, inputs


def _market_key(entry):
    player, m = entry
    return player, encode_market(m)


def _order_key(o):
    return o.owner, encode_order_fields(o.tkn, o.size, o.price, o.width_req)


def ideal_round(params, revealed, eligible, buys, sells) -> Counter:
    """Each owner's ``(side, received, refunded)`` rows from the ideal auctioneer."""
    tight = select_tight_market(sorted(revealed, key=_market_key),
                                sorted(eligible, key=_market_key))
    if tight is not None:
        player, m = tight
        tight = (player, replace(m, size_bid=min(m.size_bid, params.atoms_floor(params.e_mm)),
                                 size_offer=min(m.size_offer,
                                                params.atoms_floor(params.e_mm, m.offer))))
    orders = [replace(o, oid=i) for i, o in enumerate(sorted((*buys, *sells), key=_order_key))]
    filtered, removed = filter_by_width(round_book(
        [o for o in orders if o.tkn == TOKEN_A], [o for o in orders if o.tkn != TOKEN_A],
        tight, len(orders)))
    rows = Counter((o.owner, o.side, 0, o.size) for o in removed)
    cand = find_clearing_price(filtered)
    assert cand is not None, "a closed round must have traded"
    rows.update((f.order.owner, f.order.side, f.received, f.refunded)
                for f in settle(filtered, cand.cp).fills)
    return rows


def differing_rounds(cfg) -> tuple[list[str], int]:
    """The rounds of ``cfg`` whose report differs from the ideal round, and how many closed."""
    settlements, inputs = run_capturing_inputs(cfg)
    differ = []
    for rep in settlements:
        got = Counter((r["owner"], r["side"], r["received"], r["refunded"]) for r in rep["fills"])
        if got != ideal_round(*inputs[rep["round"]]):
            differ.append(f"seed {cfg['seed']} {cfg['ordering_policy']} round {rep['round']}")
    return differ, len(settlements)


def test_every_bundled_round_equals_the_ideal_round():
    differ, compared = [], 0
    for path in sorted(SCENARIOS.glob("*.json")):
        for policy in POLICIES:
            cfg = {**json.loads(path.read_text()), "ordering_policy": policy}
            d, n = differing_rounds(cfg)
            differ += [f"{path.name} {r}" for r in d]
            compared += n
    assert compared == 28
    assert differ == []


def test_every_crowd_round_equals_the_ideal_round():
    differ, compared = [], 0
    for seed in range(1, 6):
        for policy in POLICIES:
            d, n = differing_rounds(crowd_config(64, 3, seed, policy))
            differ += d
            compared += n
    assert compared == 60
    assert differ == []
