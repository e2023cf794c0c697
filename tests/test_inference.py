import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bddist.covariance import build_surface, regularize_correlation
from bddist.data import Sample
from bddist.errors import InvalidInputError, InvalidLevelError
from bddist.geometry import BoundaryPolyline, QuadrantRule, make_grid
from bddist.inference import (
    DRAW_BUFFER_BYTES,
    BoundaryLengthWarning,
    _draw_maxima,
    normal_quantile,
    pointwise_ci,
    uniform_band,
    uniform_quantile,
)
from bddist.locpoly import fit_point

RULE = QuadrantRule()


def phi_inverse_oracle(prob, tol=1e-12):
    """Standard normal quantile by bisection on the erf-based CDF."""
    lo, hi = -10.0, 10.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fitted_point(seed=0, n=240):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, 2))
    y = rng.normal(size=n) + np.where(RULE.contains(x), 2.0, 0.0)
    sample = Sample.from_data(y, x, RULE)
    return fit_point(sample, (0.0, 0.0), "triangular", 0.9, 1)


class TestNormalQuantile:
    def test_five_percent(self):
        assert_allclose(normal_quantile(0.05), 1.959964, atol=1e-6)

    def test_against_erf_bisection(self):
        for alpha in (0.32, 0.05, 0.01, 0.6):
            assert_allclose(normal_quantile(alpha),
                            phi_inverse_oracle(1.0 - alpha / 2.0), atol=1e-9)

    def test_invalid_level(self):
        for alpha in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(InvalidLevelError):
                normal_quantile(alpha)


class TestPointwiseCI:
    def test_interval_arithmetic(self):
        fit = fitted_point()
        # theta_hat +- 1.959964 * 0.5 around the point estimate
        iv = pointwise_ci(fit, 0.5, 0.05)
        assert_allclose(iv.upper - iv.lower, 2 * 1.959964 * 0.5, atol=1e-5)
        assert_allclose(iv.lower, fit.theta_hat - 1.959964 * 0.5, atol=1e-5)
        assert iv.lower <= iv.upper

    def test_worked_numbers(self):
        # theta = 2, se = 0.5, alpha = 0.05 -> [1.020, 2.980]
        fit = fitted_point()
        iv = pointwise_ci(fit, 0.5, 0.05)
        shift = fit.theta_hat - 2.0
        assert_allclose(iv.lower - shift, 1.020018, atol=1e-5)
        assert_allclose(iv.upper - shift, 2.979982, atol=1e-5)

    def test_unset_variance_rejected(self):
        fit = fitted_point()
        for se in (0.0, -0.5, math.nan, math.inf):
            with pytest.raises(InvalidInputError):
                pointwise_ci(fit, se, 0.05)


def ar1_correlation(M):
    """Correlation 0.6^|j - k| and its square-root factor, not diagonal."""
    lag = np.abs(np.subtract.outer(np.arange(M), np.arange(M)))
    corr, factor, _ = regularize_correlation(0.6 ** lag)
    return corr, factor


def one_shot_maxima(factor, num_draws, seed):
    """Per-draw max |coordinate| from one (num_draws, M) draw and one product."""
    rng = np.random.Generator(np.random.Philox(seed))
    return np.abs(rng.standard_normal((num_draws, len(factor))) @ factor.T).max(axis=1)


class TestUniformQuantile:
    def test_single_point_matches_normal(self):
        q = uniform_quantile(np.eye(1), 0.05, num_draws=100000, seed=1)
        assert abs(q - 1.96) < 0.03

    def test_two_independent(self):
        # Solve (2 Phi(q) - 1)^2 = 0.95 for the max of two independents.
        target = phi_inverse_oracle((1.0 + math.sqrt(0.95)) / 2.0)
        assert_allclose(target, 2.2365, atol=3e-4)
        q = uniform_quantile(np.eye(2), 0.05, num_draws=100000, seed=2)
        assert abs(q - target) < 0.03

    def test_two_perfectly_correlated(self):
        corr = np.ones((2, 2))
        reg, factor, _ = regularize_correlation(corr)
        q = uniform_quantile(reg, 0.05, num_draws=100000, seed=3, factor=factor)
        assert abs(q - 1.96) < 0.03

    def test_monotone_in_alpha(self):
        corr = np.eye(4)
        qs = [uniform_quantile(corr, a, num_draws=20000, seed=4)
              for a in (0.01, 0.05, 0.1, 0.32)]
        assert qs == sorted(qs, reverse=True)

    def test_seed_determinism(self):
        corr = np.eye(3)
        a = uniform_quantile(corr, 0.05, num_draws=5000, seed=77)
        b = uniform_quantile(corr, 0.05, num_draws=5000, seed=77)
        assert a == b
        assert a != uniform_quantile(corr, 0.05, num_draws=5000, seed=78)

    def test_mc_error_shrinks_with_draws(self):
        # Quantile MC standard error halves when draws quadruple.
        target = phi_inverse_oracle(0.975)
        errs = {}
        for draws in (2000, 8000):
            vals = [uniform_quantile(np.eye(1), 0.05, num_draws=draws, seed=s)
                    for s in range(40)]
            errs[draws] = np.sqrt(np.mean((np.array(vals) - target) ** 2))
        ratio = errs[2000] / errs[8000]
        assert 1.3 < ratio < 3.0

    def test_requires_min_draws(self):
        with pytest.raises(InvalidInputError):
            uniform_quantile(np.eye(2), 0.05, num_draws=500)

    def test_non_psd_rejected_without_factor(self):
        corr = np.array([[1.0, 0.9, 0.2], [0.9, 1.0, 0.9], [0.2, 0.9, 1.0]])
        with pytest.raises(InvalidInputError):
            uniform_quantile(corr, 0.05, num_draws=2000)

    @pytest.mark.parametrize("M", [1, 21])
    @pytest.mark.parametrize("num_draws", [1000, 1024, 1025, 10000, 70001])
    def test_order_statistic_convention(self, num_draws, M):
        # ceil((1 - alpha) * num_draws)-th order statistic, conservative ties,
        # of one (num_draws, M) draw mapped in one product: the blocks the
        # draws are made in change no bit.
        corr, factor = ar1_correlation(M)
        q = uniform_quantile(corr, 0.05, num_draws=num_draws, seed=9, factor=factor)
        maxima = one_shot_maxima(factor, num_draws, 9)
        assert np.array_equal(_draw_maxima(factor, num_draws, 9), maxima)
        assert q == np.sort(maxima)[math.ceil(0.95 * num_draws) - 1]

    def test_one_row_last_block_keeps_the_one_shot_bits(self):
        # A one-row product takes another BLAS path, which rounds some rows
        # differently; each seed's last row has about even odds of showing it.
        corr, factor = ar1_correlation(21)
        num_draws = 2 * (DRAW_BUFFER_BYTES // (8 * 21)) + 1
        for seed in range(16):
            assert np.array_equal(_draw_maxima(factor, num_draws, seed),
                                  one_shot_maxima(factor, num_draws, seed))

    @pytest.mark.parametrize("shape", [(4, 3), (3, 4)])
    def test_factor_must_match_the_correlation(self, shape):
        with pytest.raises(InvalidInputError, match="factor must be 3 x 3"):
            uniform_quantile(np.eye(3), 0.05, num_draws=1000, factor=np.ones(shape))


def grid_fits(seed=12, n=900, M=5, h=0.9):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, 2))
    y = rng.normal(size=n) + np.where(RULE.contains(x), 1.0, 0.0)
    sample = Sample.from_data(y, x, RULE)
    pl = BoundaryPolyline.from_vertices([(0.0, 1.0), (0.0, 0.0), (1.0, 0.0)])
    grid = make_grid(pl, M)
    fits = [fit_point(sample, b, "triangular", h, 1) for b in grid.points]
    surface = build_surface(fits, grid=grid)
    return fits, surface


class TestUniformBand:
    def test_single_point_band_equals_pointwise(self):
        fits, surface = grid_fits(M=1)
        band = uniform_band(fits, surface, 0.05, num_draws=100000, seed=5)
        ci = pointwise_ci(fits[0], surface.se[0], 0.05)
        assert abs(band.quantile - ci.quantile) < 0.03
        assert abs(band.intervals[0].lower - ci.lower) < 0.03 * surface.se[0]

    def test_band_wider_than_pointwise(self):
        fits, surface = grid_fits()
        band = uniform_band(fits, surface, 0.05, num_draws=20000, seed=6)
        assert band.quantile >= 1.96 - 0.02
        for iv, fit, se in zip(band.intervals, fits, surface.se):
            ci = pointwise_ci(fit, se, 0.05)
            assert iv.lower <= ci.lower and iv.upper >= ci.upper

    def test_identity_corr_strictly_above_normal(self):
        q = uniform_quantile(np.eye(21), 0.05, num_draws=50000, seed=7)
        assert q > 1.96 + 0.3  # max of 21 independents is well above

    def test_band_result_is_deterministic(self):
        fits, surface = grid_fits()
        b1 = uniform_band(fits, surface, 0.05, num_draws=5000, seed=21)
        b2 = uniform_band(fits, surface, 0.05, num_draws=5000, seed=21)
        assert b1.quantile == b2.quantile
        assert np.array_equal(b1.lower, b2.lower)

    def test_wiggly_boundary_warns(self):
        # Zigzag packing far more than 20 h of arc inside the kernel support.
        h = 0.1
        xs = np.arange(0, 81) * (h / 40.0)
        vertices = np.column_stack([xs, np.where(np.arange(81) % 2, 0.9 * h, 0.0)])
        pl = BoundaryPolyline.from_vertices(vertices)
        assert pl.arclength_within((0.1, 0.0), h) > 20 * h

        rng = np.random.default_rng(13)
        x = rng.uniform(-1, 1, (1200, 2))
        y = rng.normal(size=1200)
        sample = Sample.from_data(y, x, RULE)
        grid = make_grid(pl, 3)
        fits = [fit_point(sample, b, "uniform", h, 0) for b in grid.points]
        surface = build_surface(fits, grid=grid)
        with pytest.warns(BoundaryLengthWarning) as record:
            uniform_band(fits, surface, 0.05, num_draws=2000, seed=8)
        # Points print as plain floats, not numpy scalar reprs.
        assert "np.float64" not in str(record[0].message)
