"""
Quoter profit surface and equilibrium checks
============================================

The closed-form expected profit of a quoter against fair-coin client flow,
its maximisation at the fair price, and best-response reports for the
monopoly and competitive strategy profiles.
"""

from fractions import Fraction

from fairtradex.analysis import (ClientProfile, MMProfile, StrategyProfile,
                                 best_response_check, mm_expected_profit,
                                 p_ref_argmax, p_ref_grid)

x, y, delta = 1.0, 110.0, 1.02

# profit as a function of the quoted reference price, fixed width 1.21:
# the maximum sits at the fair price y regardless of width or impact
profits = {p: mm_expected_profit(x, y, p, 1.21, delta) for p in p_ref_grid(y)}
best = max(profits, key=profits.get)
print(f"profit-maximising reference price: {best:.3f} (fair price {y})")
print(f"grid argmax helper agrees: {p_ref_argmax(x, y, 1.21, delta):.3f}")

# widening the quote raises profit, until clients stop trading
for w in (1.0, 1.1, 1.21, 1.5):
    print(f"  width {w}: expected profit {mm_expected_profit(x, y, y, w, delta):+.5f}")

# monopoly profile: clients send market orders capped at width f_mcf, the
# single quoter quotes exactly that width at the fair price
f_mcf = Fraction(121, 100)
monopoly = StrategyProfile(client=ClientProfile(order_type="mkt", width_req=f_mcf),
                           mm=MMProfile(width=f_mcf))
rep = best_response_check(monopoly, n_mms=1, delta=delta)
print(f"\nmonopoly profile: {len(rep.entries)} deviations tried, "
      f"max gain {rep.max_gain:.2e}, equilibrium confirmed: {rep.confirmed}")

# competitive profile: two quoters at width 1; checked by running the
# auction engine over 10,000 common-random-number flow paths
competitive = StrategyProfile(client=ClientProfile(order_type="mkt", width_req=f_mcf),
                              mm=MMProfile(width=Fraction(1)))
rep2 = best_response_check(competitive, n_mms=2, paths=10_000, seed=1)
print(f"competitive profile: {len(rep2.entries)} deviations tried, "
      f"max gain {rep2.max_gain:.2e}, equilibrium confirmed: {rep2.confirmed}")

# the deviations that come closest to improving
worst = sorted(rep2.entries, key=lambda e: -e.gain)[:3]
for e in worst:
    print(f"  {e.player} {e.label}: gain {e.gain:+.3e} (tolerance {e.tolerance:.3e})")
