"""Estimate the treatment effect curve on one simulated dataset.

Draws a single calibrated sample, fits the distance-based local linear
estimator at 21 boundary points, and prints point estimates with pointwise
confidence intervals and the simultaneous confidence band next to the true
effect curve.
"""

import numpy as np

from bddist import RuleOfThumb, estimate, make_grid, pointwise_ci, population_tau
from bddist.simulation import default_dgp, draw_sample

spec = default_dgp()
n = 20000
sample = draw_sample(spec, n, seed=7)
grid = make_grid(spec.boundary, 21)

# Bandwidths, both one-sided fits at every point, the covariance surface
# and the uniform band, in one call; every point fits on this draw.
est = estimate(sample, grid, RuleOfThumb(c0=8.0), "triangular", p=1, alpha=0.05,
               num_draws=10000, seed=11)
fits, surface, band = est.fits, est.surface, est.band
print(f"n = {n}, rule-of-thumb bandwidth h = {fits[0].h:.3f} (shared by all points)")
print(f"simultaneous critical value: {band.quantile:.3f} "
      f"(pointwise uses 1.960)\n")

print(f"{'point':>12} {'tau':>7} {'est':>7} {'se':>6} "
      f"{'95% CI':>17} {'95% band':>17}")
tau = np.array([population_tau(spec, pt) for pt in grid.points])
# Every point fits, so the interval and band arrays run over the whole grid.
ci_lower, ci_upper = pointwise_ci(fits, surface.se, 0.05)
for k, (fit, se) in enumerate(zip(fits, surface.se)):
    b1, b2 = grid.points[k]
    print(f"({b1:5.1f},{b2:5.1f}) {tau[k]:7.3f} {fit.theta_hat:7.3f} "
          f"{se:6.3f} [{ci_lower[k]:7.3f},{ci_upper[k]:7.3f}] "
          f"[{band.lower[k]:7.3f},{band.upper[k]:7.3f}]")

inside_band = bool(np.all((band.lower <= tau) & (tau <= band.upper)))
print(f"\ntrue curve inside the band everywhere: {inside_band}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    arcs = grid.arclengths - grid.arclengths[len(grid.arclengths) // 2]
    est = np.array([f.theta_hat for f in fits])
    fig, ax = plt.subplots(figsize=(7, 4))
    ax.fill_between(arcs, band.lower, band.upper, alpha=0.25, label="95% band")
    ax.plot(arcs, est, "o-", ms=3, label="estimate")
    ax.plot(arcs, tau, "k--", lw=1, label="true effect")
    ax.set_xlabel("arc length from the kink")
    ax.set_ylabel("effect")
    ax.legend()
    fig.tight_layout()
    fig.savefig("effect_curve.png", dpi=120)
    print("wrote effect_curve.png")
except ImportError:
    pass
