"""
Execution-cost comparison across venue models
=============================================

Reproduces the execution-cost matrix: a batch auction with hidden
commitments has zero modelled execution cost at every order size, while
venues that leak direction or identity pay impact (and AMMs pay slippage
on top), growing super-linearly with order size.
"""

from fairtradex.analysis import (IDENTITY_REVEALING, P1, P2, CostModel,
                                 DEFAULT_IMPACT_TABLE, cost_table,
                                 execution_cost)

header, rows = cost_table()
widths = [max(len(str(h)), 12) for h in header]
print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
for row in rows:
    cells = [row[0]] + [f"{v:,.0f}" for v in row[1:]]
    print("  ".join(str(c).ljust(w) for c, w in zip(cells, widths)))

# P1 trades both ways unpredictably; P2 only ever buys, so a venue that
# exposes identities lets anyone front-run P2's direction
m = CostModel(IDENTITY_REVEALING, DEFAULT_IMPACT_TABLE)
print(f"\nidentity-revealing venue, 10M order: "
      f"P1 pays {execution_cost(m, P1, 10_000_000):,.0f}, "
      f"P2 pays {execution_cost(m, P2, 10_000_000):,.0f}")
