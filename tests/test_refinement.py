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
    """Run ``cfg``; return its settlement reports, each round's revealed inputs
    and each round's tight market.

    The inputs of round k are ``(params, revealed markets, eligible
    markets, client buys, client sells)`` as the reveal window closes; its
    tight market is the protocol's ``(player, market)`` once the window has
    closed, or None.
    """
    inputs, tight = {}, {}
    original = Protocol._end_reveal_phase

    def capture(self, height):
        eligible = [(p, m) for p, m in self.revealed_mkts if self._mm_liquidity_ok(p, m)]
        inputs[self.round] = (self.params, list(self.revealed_mkts), eligible,
                              list(self.revealed_buys), list(self.revealed_sells))
        original(self, height)
        tight[self.round] = self.tight_market

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Protocol, "_end_reveal_phase", capture)
        settlements = Runner(cfg).run().settlements
    return settlements, inputs, tight


def quoted_rounds(settlements, tight) -> tuple[int, list[int]]:
    """How many closed rounds had a tight market, and which of them cleared
    outside its quote, ``bid <= cp <= offer`` (ROADMAP item 17)."""
    quoted = [(rep["round"], rep["cp"], tight[rep["round"]][1]) for rep in settlements
              if tight[rep["round"]] is not None]
    return len(quoted), [r for r, cp, m in quoted if not m.bid <= cp <= m.offer]


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


def audit_rounds(cfg) -> tuple[list[str], list[str], int, int]:
    """Run ``cfg``: the rounds whose report differs from the ideal round, the
    rounds that cleared outside their quote, how many closed and how many
    of those had a tight market."""
    settlements, inputs, tight = run_capturing_inputs(cfg)
    differ = []
    for rep in settlements:
        got = Counter((r["owner"], r["side"], r["received"], r["refunded"]) for r in rep["fills"])
        if got != ideal_round(*inputs[rep["round"]]):
            differ.append(f"seed {cfg['seed']} {cfg['ordering_policy']} round {rep['round']}")
    quoted, outside = quoted_rounds(settlements, tight)
    outside = [f"seed {cfg['seed']} {cfg['ordering_policy']} round {r}" for r in outside]
    return differ, outside, len(settlements), quoted


def test_every_bundled_round_equals_the_ideal_round():
    differ, outside, compared, quoted = [], [], 0, 0
    for path in sorted(SCENARIOS.glob("*.json")):
        for policy in POLICIES:
            cfg = {**json.loads(path.read_text()), "ordering_policy": policy}
            d, o, n, q = audit_rounds(cfg)
            differ += [f"{path.name} {r}" for r in d]
            outside += [f"{path.name} {r}" for r in o]
            compared += n
            quoted += q
    assert compared == quoted == 28
    assert differ == []
    assert outside == []


def test_every_crowd_round_equals_the_ideal_round():
    differ, outside, compared, quoted = [], [], 0, 0
    for seed in range(1, 6):
        for policy in POLICIES:
            d, o, n, q = audit_rounds(crowd_config(64, 3, seed, policy))
            differ += d
            outside += o
            compared += n
            quoted += q
    assert compared == quoted == 60
    assert differ == []
    assert outside == []


def two_mm_config(b_funding=None, **strategy):
    """``two_mm_competition`` with ``strategy`` merged into every client's,
    and each client's B funding set to ``b_funding`` when given."""
    cfg = json.loads((SCENARIOS / "two_mm_competition.json").read_text())
    for agent in cfg["agents"]:
        if agent["role"] == "client":
            agent["strategy"].update(strategy)
            if b_funding is not None:
                agent["funding"]["B"] = b_funding
    return cfg


def repro_c():
    """A 10/10 quote of one ``q_not`` per leg; ``q_not`` admits one client
    commit, c1's market buy of 2,000 A."""
    cfg = two_mm_config()
    cfg["mifp"]["y0"] = 10
    cfg["params"]["q_not"] = 2000
    for agent in cfg["agents"]:
        if agent["role"] == "mm":
            agent["strategy"]["size_mult"] = 1
        elif agent["id"] == "c1":
            agent["strategy"].update(side="buy", notional=2000)
    return cfg


def _quote_fault(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


@pytest.mark.parametrize("cfg", [
    pytest.param(two_mm_config(1000, side="sell", notional=20_000), id="17a-repro-A",
                 marks=_quote_fault("ROADMAP item 17(a): a B market sale has no escrow "
                                    "cap, so the rounds clear at 56 under a 110/110 quote")),
    pytest.param(two_mm_config(5000, order="limit", limit_price=1, side="sell",
                               notional=2000), id="17a-repro-B",
                 marks=_quote_fault("ROADMAP item 17(a): a B limit sale's cap is valued at "
                                    "its own limit, so rounds 0 and 1 clear at 5")),
    pytest.param(repro_c(), id="17c-repro-C",
                 marks=_quote_fault("ROADMAP item 17(c): a leg that absorbs the flow "
                                    "exactly, so rounds 0 and 1 clear at 11 under a 10/10 "
                                    "quote; item 2's objective mends it")),
])
def test_every_round_clears_inside_its_quote(cfg):
    settlements, _, tight = run_capturing_inputs(cfg)
    quoted, outside = quoted_rounds(settlements, tight)
    assert quoted == len(settlements) == 3
    assert outside == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 21: the tight market's bid fills against its own "
                          "offer at width 1 and takes 328 B pro rata, so each client gets "
                          "9 B and 110 A back")
def test_client_limit_at_the_quote_fills_in_full():
    # every client buys 10 B with 1,100 A at the quote, 110; the offer leg holds 364 B
    cfg = {**two_mm_config(order="limit", limit_price=110, side="buy"), "rounds": 1}
    (rep,), _, tight = run_capturing_inputs(cfg)
    _, m = tight[0]
    assert rep["cp"] == m.offer == 110 and m.size_offer >= 4 * 10
    clients = [(f["owner"], f["received"], f["refunded"]) for f in rep["fills"]
               if f["side"] == "buy" and f["owner"].startswith("c")]
    assert clients == [(f"c{i}", 10, 0) for i in range(1, 5)]
