"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 7, 8, and 10 share one Monte Carlo run (n = 5000, 500 replications,
rule-of-thumb bandwidths) provided by a module-scoped fixture.
"""

import time

import numpy as np
import pytest

from bddist.bandwidth import RuleOfThumb
from bddist.cli import main
from bddist.geometry import QuadrantRule, make_grid
from bddist.inference import uniform_quantile
from bddist.kernels import FAMILIES
from bddist.locpoly import fit_point, scaled_basis
from bddist.data import Sample
from bddist.oracle import ArcScene, corner_example_theta, fixed_h_bias, induced_theta
from bddist.simulation import default_dgp, run_monte_carlo

MC_SEED = 20250810
MC_C0 = 8.0


def report(name, detail):
    print(f"PASS {name}: {detail}")


@pytest.fixture(scope="module")
def mc_report():
    spec = default_dgp()
    grid = make_grid(spec.boundary, 21)
    rep = run_monte_carlo(spec, n=5000, reps=500, grid=grid, p=1,
                          kernel="triangular", bw_rule=RuleOfThumb(c0=MC_C0),
                          alpha=0.05, band_draws=10000, seed=MC_SEED)
    assert rep.n_failed == 0
    return grid, rep


def eligible_point(grid, rep):
    """Index of the eligible grid point farthest from the kink (arc >= 2 h)."""
    arc = grid.kink_arc_distance()
    mean_h = rep.h_used.mean()
    eligible = np.flatnonzero(arc >= 2.0 * mean_h)
    assert eligible.size > 0
    return int(eligible[np.argmax(arc[eligible])])


def test_criterion_01_bias_oracle_zero():
    t0 = time.time()
    value = fixed_h_bias("uniform", 1, 1.0, 1e-6)
    elapsed = time.time() - t0
    assert abs(value) < 1e-5
    assert elapsed < 1.0
    report("criterion 1 (bias-oracle zero)",
           f"|bias(1, 1e-6)| = {abs(value):.3e} < 1e-5 in {elapsed:.3f}s")


def test_criterion_02_bias_oracle_derivative():
    # One-sided second-order stencil at 0 with step 1e-4 (the domain is
    # s >= 0, so the stencil plays the role of the central difference).
    t0 = time.time()
    target = 2.0 / np.pi - 4.0 / np.pi ** 2
    d = 1e-4
    f0 = fixed_h_bias("uniform", 1, 1.0, 0.0)
    f1 = fixed_h_bias("uniform", 1, 1.0, d)
    f2 = fixed_h_bias("uniform", 1, 1.0, 2.0 * d)
    stencil = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * d)
    elapsed = time.time() - t0
    assert abs(stencil - target) < 1e-4
    assert elapsed < 5.0
    report("criterion 2 (bias-oracle derivative)",
           f"fd = {stencil:.8f} vs 2/pi - 4/pi^2 = {target:.8f}, "
           f"err {abs(stencil - target):.2e} < 1e-4 in {elapsed:.2f}s")


def test_criterion_03_scaling_identity():
    t0 = time.time()
    worst = 0.0
    for h in (0.5, 0.25, 0.1):
        for frac in (0.2, 0.5, 0.9):
            s = frac * h
            lhs = fixed_h_bias("uniform", 1, h, s)
            rhs = h * fixed_h_bias("uniform", 1, 1.0, s / h)
            worst = max(worst, abs(lhs - rhs))
    elapsed = time.time() - t0
    assert worst < 1e-8
    assert elapsed < 5.0
    report("criterion 3 (scaling identity)",
           f"max |bias(h,s) - h bias(1,s/h)| = {worst:.2e} < 1e-8 in {elapsed:.2f}s")


def test_criterion_04_arc_oracle_vs_closed_form():
    t0 = time.time()
    rule = QuadrantRule()
    grid = np.arange(1, 21) / 20.0
    worst = 0.0
    for s in grid:
        for r in grid:
            scene = ArcScene(center=(s, 0.0), radius=float(r), rule=rule,
                             mu=lambda x1, x2: x2)
            worst = max(worst, abs(induced_theta(scene, 1)
                                   - corner_example_theta(float(s), float(r))))
    elapsed = time.time() - t0
    assert worst < 1e-8
    assert elapsed < 10.0
    report("criterion 4 (closed form vs numeric arcs)",
           f"20x20 grid max diff = {worst:.2e} < 1e-8 in {elapsed:.1f}s")


def test_criterion_05_polynomial_reproduction():
    t0 = time.time()
    rng = np.random.default_rng(505)
    rule = QuadrantRule()
    origin = np.zeros(2)
    trials = 0
    while trials < 200:
        p = int(rng.integers(0, 3))
        kernel = FAMILIES[int(rng.integers(0, 3))]
        x = rng.uniform(-1, 1, (70, 2))
        treated = rule.contains(x)
        d = np.hypot(x[:, 0], x[:, 1]) * np.where(treated, 1.0, -1.0)
        c1 = rng.uniform(-2, 2, p + 1)
        c0 = rng.uniform(-2, 2, p + 1)
        y = np.where(treated, scaled_basis(d, p) @ c1, scaled_basis(d, p) @ c0)
        sample = Sample(y, x, treated)
        h = 1.2 * np.abs(d).max() + 0.1
        fit = fit_point(sample, origin, kernel, h, p)
        assert abs(fit.theta_hat - (c1[0] - c0[0])) < 1e-9
        trials += 1
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report("criterion 5 (polynomial reproduction)",
           f"200 random designs, p in {{0,1,2}}, all |error| < 1e-9 in {elapsed:.1f}s")


def test_criterion_06_uniform_quantile_calibration():
    t0 = time.time()
    q1 = uniform_quantile(np.eye(1), 0.05, num_draws=100000, seed=61)
    q2 = uniform_quantile(np.eye(2), 0.05, num_draws=100000, seed=62)
    ones = np.ones((2, 2))
    from bddist.covariance import regularize_correlation

    reg, factor, _ = regularize_correlation(ones)
    q3 = uniform_quantile(reg, 0.05, num_draws=100000, seed=63, factor=factor)
    elapsed = time.time() - t0
    assert abs(q1 - 1.96) < 0.03
    assert abs(q2 - 2.2365) < 0.03
    assert abs(q3 - 1.96) < 0.03
    assert elapsed < 10.0
    report("criterion 6 (uniform-quantile calibration)",
           f"M=1: {q1:.4f} (1.96), M=2 indep: {q2:.4f} (2.2365), "
           f"M=2 corr: {q3:.4f} (1.96) in {elapsed:.1f}s")


def test_criterion_07_pointwise_coverage(mc_report):
    grid, rep = mc_report
    k = eligible_point(grid, rep)
    row = rep.rows[k]
    arc = grid.kink_arc_distance()[k]
    assert 0.92 <= row.ec <= 0.98
    report("criterion 7 (pointwise coverage)",
           f"point {k + 1} at ({row.b1:g},{row.b2:g}), arc dist {arc:g} "
           f">= 2h = {2 * rep.h_used.mean():.1f}: EC = {row.ec:.3f} in [0.92, 0.98] "
           f"(n=5000, 500 reps, rule-of-thumb c0={MC_C0:g})")


def test_criterion_08_variance_calibration(mc_report):
    grid, rep = mc_report
    k = eligible_point(grid, rep)
    mean_se = rep.se[:, k].mean()
    emp_sd = rep.theta[:, k].std(ddof=0)
    ratio = mean_se / emp_sd
    assert 0.85 <= ratio <= 1.15
    report("criterion 8 (variance calibration)",
           f"mean sqrt(Xi) / empirical SD = {mean_se:.4f}/{emp_sd:.4f} "
           f"= {ratio:.3f} within 15%")


def test_criterion_09_kink_bias_signature():
    t0 = time.time()
    h = 0.4
    ss = np.linspace(1e-3, h * (1.0 - 1e-9), 101)
    sup_h = max(abs(fixed_h_bias("uniform", 1, h, float(s))) for s in ss)
    sup_half = max(abs(fixed_h_bias("uniform", 1, h / 2, float(s) / 2)) for s in ss)
    elapsed = time.time() - t0
    assert sup_h > 0.05 * h
    assert abs(sup_half / sup_h - 0.5) < 0.05  # halving h halves the max (10%)
    assert elapsed < 10.0
    report("criterion 9 (kink-bias signature)",
           f"max|bias(0.4, s)| = {sup_h:.4f} > {0.05 * h:.3f}; "
           f"halving ratio = {sup_half / sup_h:.4f} in {elapsed:.1f}s")


def test_criterion_10_band_ordering(mc_report):
    grid, rep = mc_report
    assert np.all(rep.band_quantile >= 1.96 - 0.03)
    per_point_band_ec = rep.band_covered.mean(axis=0)
    # The joint coverage event is a subset of every per-point band event.
    assert rep.uniform_ec <= per_point_band_ec.min() + 1e-12
    report("criterion 10 (band ordering)",
           f"min band q = {rep.band_quantile.min():.3f} >= 1.93; uniform EC "
           f"{rep.uniform_ec:.3f} <= min per-point band EC "
           f"{per_point_band_ec.min():.3f}")


def test_criterion_11_simulate_determinism(tmp_path):
    args = ["simulate", "--n", "800", "--reps", "6", "--grid-size", "5",
            "--c0", "6.0", "--band-draws", "2000", "--seed", "4242"]
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    report("criterion 11 (simulate determinism)",
           f"two runs, identical flags and seed: byte-identical reports "
           f"({len(b1)} bytes)")
