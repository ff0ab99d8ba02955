"""
Clearing a width-sensitive batch auction book
=============================================

Builds a small book by hand, finds the clearing price with the
volume-maximising oracle, checks it with the local adjacent-tick verifier,
and settles it with exact integer pro-rata fills.
"""

from fractions import Fraction

from fairtradex.auction import (AuctionBook, find_clearing_price, score_at, settle,
                                validate_clearing_result, verify_clearing_price)
from fairtradex.units import ANY, MKT, TOKEN_A, TOKEN_B, Order

# A buy order sells token A (it buys the swap); a sell order sells token B.
# Prices are integer ticks of A per B.  This book has a market-order buyer,
# a limit buyer at 52, and two sellers.
book = AuctionBook(
    buy_orders=(
        Order(oid=0, owner="alice", tkn=TOKEN_A, size=300, price=MKT, width_req=ANY),
        Order(oid=1, owner="bob", tkn=TOKEN_A, size=200, price=52, width_req=ANY),
    ),
    sell_orders=(
        Order(oid=2, owner="carol", tkn=TOKEN_B, size=6, price=50, width_req=ANY),
        Order(oid=3, owner="dave", tkn=TOKEN_B, size=3, price=51, width_req=ANY),
    ),
)

# The oracle maximises traded A-notional, then minimises |imbalance|, then
# takes the lowest tick.  Eligibility only changes at a limit and one tick
# above it; between those ticks volume peaks where the sells first absorb
# the buys, so it scores one tick per such segment.
cand = find_clearing_price(book)
print(f"clearing price: {cand.cp} ticks")
print(f"traded notional: {cand.volume_a} A-atoms, imbalance {cand.imbalance_a:+d}")

# The verifier re-derives volume and imbalance and checks one adjacent tick
# on the surplus side; it is what the on-chain resolution step would run.
assert verify_clearing_price(book, cand.cp, cand.volume_a, cand.imbalance_a)
print("local verifier accepts the oracle price")

# Off-optimum prices fail the adjacent-tick test on this book: each of
# them has a neighbour that clears more volume (or the same with a
# smaller imbalance).
for off in (cand.cp - 2, cand.cp - 1, cand.cp + 1):
    ok = verify_clearing_price(book, off, *score_at(book, off))
    print(f"  cp={off}: verifier says {'valid' if ok else 'invalid'}")

# Settlement trades whole B atoms; each costs exactly cp A atoms, so the
# two legs balance bit-for-bit and any sub-lot dust is refunded.
result = settle(book, cand.cp)
validate_clearing_result(book, result)
print(f"settled {result.volume_settled_b} B at {result.cp}:")
# Each fill carries the order it settles, so its owner and side are at hand.
for fill in result.fills:
    print(f"  oid {fill.oid} ({fill.order.owner}, {fill.order.side}): executed "
          f"{fill.executed}, received {fill.received}, refunded {fill.refunded}")
