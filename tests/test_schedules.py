"""Every block order of a small round ends in one ledger (ROADMAP item 10, orders only).

The block producer's whole lever over ordering is the permutation it
applies to each block's pending transactions.  A scripted policy takes one
permutation index per block, and a depth-first replay runs the scenario
once for every sequence of indices.  Withholding (the delay half of the
adversary) is out of scope here: every block includes all pending entries.
"""

import json
import math
from pathlib import Path

import pytest

from fairtradex.scenario import Runner

TWO_MM = Path(__file__).resolve().parent.parent / "scenarios" / "two_mm_competition.json"


def nth_permutation(items, index):
    """The ``index``-th of the ``len(items)!`` orders of ``items``, mixed radix."""
    items, out = list(items), []
    while items:
        index, i = divmod(index, len(items))
        out.append(items.pop(i))
    return out


def every_schedule(cfg):
    """Run ``cfg`` under every block order; return the runs' results and final ledgers."""
    results, ledgers = [], []
    prefix = []   # the permutation indices this run replays before it takes 0s
    while True:
        trail = []   # (index taken, orders possible) per block of this run

        def policy(pending, height, rng):
            i = prefix[len(trail)] if len(trail) < len(prefix) else 0
            trail.append((i, math.factorial(len(pending))))
            return nth_permutation(pending, i)

        runner = Runner(cfg)
        runner.chain.policy = policy
        results.append(runner.run())
        ledgers.append(json.dumps(runner.ledger.snapshot(), sort_keys=True))
        # depth first: advance the deepest block that has an order left to try
        while trail and trail[-1][0] + 1 == trail[-1][1]:
            trail.pop()
        if not trail:
            return results, ledgers
        prefix = [i for i, _ in trail[:-1]] + [trail[-1][0] + 1]


def test_nth_permutation_lists_each_order_once():
    orders = {tuple(nth_permutation("abcd", i)) for i in range(24)}
    assert len(orders) == 24 and all(sorted(o) == list("abcd") for o in orders)


@pytest.mark.parametrize("y0", [100, 111])
def test_every_block_order_of_a_round_ends_in_one_ledger(y0):
    """Two clients, both quoters, the relayer and the hunter, one round.
    Before the tie-break seed sorted the revealed markets, two equal-width
    quoters' reveal order picked the tight market, and these runs ended in
    two ledgers at each of these ``y0``."""
    cfg = json.loads(TWO_MM.read_text())
    cfg["agents"] = [a for a in cfg["agents"] if a["id"] not in ("c3", "c4")]
    cfg["rounds"] = 1
    cfg["mifp"]["y0"] = y0
    results, ledgers = every_schedule(cfg)
    assert len(results) == 1152
    assert not any(r.stalled for r in results)
    assert all(r.rounds_completed == 1 for r in results)
    assert len(set(ledgers)) == 1
