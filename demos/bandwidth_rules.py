"""The four bandwidth rules side by side on one simulated dataset.

Near a kink the pilot MSE bandwidth is too generous: the kink-adaptive rule
caps it at the distance to the kink (floored at the rule of thumb), which is
visible in the middle of the grid below.
"""

from bddist import (
    Fixed,
    KinkAdaptive,
    MsePilot,
    RuleOfThumb,
    make_grid,
    resolve_bandwidths,
    rot_bandwidth,
    rot_scale,
    univariate_rescale,
)
from bddist.simulation import default_dgp, draw_sample

spec = default_dgp()
n = 8000
sample = draw_sample(spec, n, seed=21)
grid = make_grid(spec.boundary, 9)

c_hat = rot_scale(sample, spec.boundary)
print(f"scale constant C_hat (SD of distance to boundary): {c_hat:.3f}")
print(f"rule of thumb h = c0 * C_hat * n^(-1/4) with c0 = 8: "
      f"{rot_bandwidth(sample, spec.boundary, c0=8.0):.3f}")
print(f"undersmoothed variant (exponent 1/3):               "
      f"{rot_bandwidth(sample, spec.boundary, c0=8.0, exponent=1/3):.3f}")

rules = {
    "fixed 6.0": Fixed(6.0),
    "rule of thumb": RuleOfThumb(c0=8.0),
    "mse pilot": MsePilot(),
    "kink adaptive": KinkAdaptive(c0=8.0),
}
resolved = {
    name: resolve_bandwidths(rule, sample, grid, "triangular", p=1)
    for name, rule in rules.items()
}

arc = grid.kink_arc_distance()
print(f"\n{'point':>14} {'dist to kink':>12} " +
      " ".join(f"{name:>14}" for name in rules))
for k in range(grid.count):
    b1, b2 = grid.points[k]
    row = f"({b1:5.1f},{b2:5.1f}) {arc[k]:12.1f} "
    row += " ".join(f"{resolved[name][k]:14.3f}" for name in rules)
    print(row)

print("\ncorrecting a univariate-score bandwidth for the bivariate rate:")
for p in (0, 1):
    h1d = 2.0
    print(f"  p = {p}: h_1d = {h1d} -> {univariate_rescale(h1d, p, n):.3f}")
