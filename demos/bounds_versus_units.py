"""Reproduce the headline comparison: sum-rate bounds versus pool size.

For each number of energy units U this script evaluates
  - the conventional design (fair coins at every level),
  - the optimized independent-codebook design (achievable), and
  - the outer bound from correlated per-state distributions,
and prints them as a table. The conventional design wastes a growing
amount of rate; the optimized one hugs the outer bound, and the two
meet as U grows. A PNG plot is written when matplotlib is available.
"""

import numpy as np

from twoway_energy import SearchConfig, sweep_details

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except Exception:  # pragma: no cover
    plt = None

U_MAX = 10

if __name__ == "__main__":
    search = SearchConfig(restarts=6, tol=1e-6, seed=1)
    rows, inner_results = sweep_details(U_MAX, search)
    table = [(r.units, r.sum_conventional, r.sum_optimized, r.sum_outer) for r in rows]
    print(" U   conventional   optimized   outer bound      gap")
    for units, conventional, optimized, outer in table:
        print(
            f"{units:>2}   {conventional:>12.6f}   {optimized:>9.6f}   "
            f"{outer:>11.6f}   {outer - optimized:.6f}"
        )
        if units == 4:
            print(f"     optimized send-'1' probabilities at U=4: "
                  f"{np.round(inner_results[3].policy.p1[1:], 4)} (monotone, 0.5 in the middle)")

    print("\nboth bounds approach 2 bits/c.u. (the unconstrained two-way "
          "maximum); past the single-unit case, where they coincide at 1 "
          "exactly, they re-meet within ~0.01 once U reaches "
          f"{next(u for u, _, i, o in table if u >= 2 and o - i < 1e-2)}.")

    if plt is not None:
        units = [row[0] for row in table]
        fig, ax = plt.subplots(figsize=(7, 4.5))
        ax.plot(units, [row[1] for row in table], "s--", label="conventional p=0.5")
        ax.plot(units, [row[2] for row in table], "o-", label="optimized (achievable)")
        ax.plot(units, [row[3] for row in table], "^:", label="outer bound")
        ax.set_xlabel("energy units U")
        ax.set_ylabel("sum rate [bits/channel use]")
        ax.set_ylim(0.9, 2.05)
        ax.grid(alpha=0.3)
        ax.legend()
        fig.tight_layout()
        fig.savefig("bounds_versus_units.png", dpi=150)
        print("wrote bounds_versus_units.png")
    else:
        print("matplotlib unavailable; skipped the plot")
