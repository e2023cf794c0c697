import numpy as np
import pytest
from numpy.testing import assert_allclose

from bddist.covariance import build_surface, regularize_correlation
from bddist.data import Sample
from bddist.errors import (DegenerateVarianceError, InsufficientDataError, InvalidInputError,
                           InvalidPairingError)
from bddist.geometry import QuadrantRule
from bddist.locpoly import PointFit, fit_point, scaled_basis
from fit_oracle import DistanceColumn, fit_side, support_arrays
from sandwich_oracle import upsilon, xi_pair

RULE = QuadrantRule()


def one_sided_point_fit(values, y, kernel="uniform", h=1.0, p=0):
    """``(sample, fit)``: a PointFit whose treated side carries the data
    (control side unused), and a sample whose rows lie on the x1 axis at
    the signed distances ``values`` from the origin."""
    values = np.asarray(values, dtype=float)
    y = np.asarray(y, dtype=float)
    col = DistanceColumn(np.zeros(2), values, values >= 0.0)
    side1 = fit_side(y, col, 1, kernel, h, p)
    sample = Sample(y, np.column_stack([values, np.zeros_like(values)]), col.treated)
    return sample, PointFit(np.zeros(2), h, p, kernel, len(col), side1, side1)


def random_two_sided_sample(rng, n=160):
    x = rng.uniform(-1, 1, (n, 2))
    y = rng.normal(size=n) + np.where(RULE.contains(x), 0.7, 0.0)
    return Sample.from_data(y, x, RULE)


class TestUpsilon:
    def test_worked_example(self):
        # Two treated points D = {0.2, 0.6}, Y = {1, 3}, p = 0, uniform,
        # h = 1, n = 2: the intercept is 2, residuals are {-1, +1}, so
        # Upsilon_1 = 1 * (1 + 1) / 2 = 1 and Xi_1 = (1/2) * 1 * 1 * 1 = 0.5.
        sample, fit = one_sided_point_fit([0.2, 0.6], [1.0, 3.0])
        assert_allclose(fit.fit1.intercept, 2.0)
        ups = upsilon(sample, fit, fit, 1)
        assert_allclose(ups, [[1.0]])
        v = fit.fit1.gram.inv_e1()
        xi1 = float(v @ ups @ v) / (2 * 1.0 * 1.0)
        assert_allclose(xi1, 0.5)

    def test_exact_polynomial_data_gives_zero(self):
        vals = np.array([0.1, 0.3, 0.5, 0.8])
        sample, fit = one_sided_point_fit(vals, 2.0 - 3.0 * vals, p=1)
        assert_allclose(upsilon(sample, fit, fit, 1), np.zeros((2, 2)), atol=1e-25)

    def test_disjoint_supports_give_zero(self):
        rng = np.random.default_rng(0)
        sample = random_two_sided_sample(rng)
        fa = fit_point(sample, (0.0, 0.0), "uniform", 0.3, 0)
        fb = fit_point(sample, (0.95, 0.0), "uniform", 0.3, 0)
        assert_allclose(upsilon(sample, fa, fb, 1), np.zeros((1, 1)))
        assert xi_pair(sample, fa, fb) == 0.0

    def test_mismatched_bandwidths_rejected(self):
        rng = np.random.default_rng(1)
        sample = random_two_sided_sample(rng)
        fa = fit_point(sample, (0.0, 0.0), "uniform", 0.5, 0)
        fb = fit_point(sample, (0.1, 0.0), "uniform", 0.6, 0)
        with pytest.raises(InvalidPairingError):
            upsilon(sample, fa, fb, 1)
        with pytest.raises(InvalidPairingError):
            xi_pair(sample, fa, fb)

    def test_double_indicator_equals_single_on_boundary(self):
        # Membership depends only on the observation's region, so applying
        # the side indicator at one or both evaluation points is identical.
        from bddist.kernels import kh_weight

        rng = np.random.default_rng(2)
        sample = random_two_sided_sample(rng, n=200)
        fa = fit_point(sample, (0.0, 0.0), "triangular", 0.9, 1)
        fb = fit_point(sample, (0.4, 0.0), "triangular", 0.9, 1)
        h, n = fa.h, len(sample)
        for side in (0, 1):
            got = upsilon(sample, fa, fb, side)
            # Single-indicator recomputation: the side mask enters through
            # the first evaluation point only; at the second point the kernel
            # weight and residual are used unmasked.  The rows of the side
            # at the first point carry that side's sign at the second.
            sa, sb = fa.side(side), fb.side(side)
            rows = sa.rows
            db = (1.0 if side == 1 else -1.0) * np.hypot(*(sample.x[rows] - fb.eval_pt).T)
            da, ka, ea = support_arrays(sample, fa, side)
            Ba = scaled_basis(da / h, 1)
            Bb = scaled_basis(db / h, 1)
            wa = ka * ea
            kb = kh_weight("triangular", db, h)
            resid_b = sample.y[rows] - Bb @ sb.gamma_hat
            wb = kb * resid_b
            single = h * h * (Ba * wa[:, None]).T @ (Bb * wb[:, None]) / n
            assert_allclose(got, single, atol=1e-13, rtol=1e-10)


class TestXiPair:
    def test_symmetry(self):
        rng = np.random.default_rng(3)
        sample = random_two_sided_sample(rng, n=250)
        fa = fit_point(sample, (0.0, 0.0), "triangular", 0.8, 1)
        fb = fit_point(sample, (0.3, 0.0), "triangular", 0.8, 1)
        assert abs(xi_pair(sample, fa, fb) - xi_pair(sample, fb, fa)) < 1e-10

    def test_variance_positive_with_noise(self):
        rng = np.random.default_rng(4)
        sample = random_two_sided_sample(rng)
        fit = fit_point(sample, (0.0, 0.0), "uniform", 0.9, 1)
        assert xi_pair(sample, fit, fit) > 0.0

    def test_quadratic_in_residual_scale(self):
        vals = np.array([0.2, 0.6, 0.9])
        base = np.array([1.0, 3.0, 2.0])
        sample1, fit1 = one_sided_point_fit(vals, base)
        mean = fit1.fit1.intercept
        sample2, fit2 = one_sided_point_fit(vals, mean + 2.0 * (base - mean))
        v = fit1.fit1.gram.inv_e1()
        xi_a = float(v @ upsilon(sample1, fit1, fit1, 1) @ v)
        xi_b = float(v @ upsilon(sample2, fit2, fit2, 1) @ v)
        assert_allclose(xi_b, 4.0 * xi_a, rtol=1e-12)


class TestBuildSurface:
    def test_single_point_surface(self):
        rng = np.random.default_rng(5)
        sample = random_two_sided_sample(rng)
        fit = fit_point(sample, (0.0, 0.0), "uniform", 0.9, 1)
        surface = build_surface([fit])
        assert_allclose(surface.corr, [[1.0]])
        assert surface.xi[0, 0] > 0
        assert surface.se[0] == np.sqrt(surface.xi[0, 0])

    def test_matches_xi_pair(self):
        rng = np.random.default_rng(6)
        sample = random_two_sided_sample(rng, n=220)
        pts = [(0.0, 0.0), (0.25, 0.0), (0.0, 0.55)]
        fits = [fit_point(sample, b, "triangular", 0.8, 1) for b in pts]
        surface = build_surface(fits)
        for i in range(3):
            for j in range(3):
                assert_allclose(surface.xi[i, j], xi_pair(sample, fits[i], fits[j]),
                                rtol=1e-10, atol=1e-18)

    def test_duplicated_point_perfectly_correlated(self):
        rng = np.random.default_rng(7)
        sample = random_two_sided_sample(rng)
        fit = fit_point(sample, (0.0, 0.0), "uniform", 0.9, 1)
        fit2 = fit_point(sample, (0.0, 0.0), "uniform", 0.9, 1)
        surface = build_surface([fit, fit2])
        assert_allclose(surface.corr[0, 1], 1.0, atol=1e-8)
        assert surface.regularization_applied  # rank-1 correlation was clipped

    def test_disjoint_points_uncorrelated(self):
        rng = np.random.default_rng(8)
        sample = random_two_sided_sample(rng, n=300)
        fa = fit_point(sample, (0.0, 0.0), "uniform", 0.3, 0)
        fb = fit_point(sample, (0.95, 0.0), "uniform", 0.3, 0)
        surface = build_surface([fa, fb])
        assert_allclose(surface.corr[0, 1], 0.0, atol=1e-12)

    def test_zero_residuals_degenerate(self):
        x = np.array([[0.1, 0.2], [0.3, 0.1], [0.2, 0.4],
                      [-0.1, 0.2], [-0.3, 0.1], [-0.2, -0.4]])
        sample = Sample.from_data(np.ones(6), x, RULE)
        fit = fit_point(sample, (0.0, 0.0), "uniform", 1.0, 0)
        with pytest.raises(DegenerateVarianceError):
            build_surface([fit])

    def test_mixed_sample_sizes_rejected(self):
        rng = np.random.default_rng(11)
        fa = fit_point(random_two_sided_sample(rng, n=100), (0.0, 0.0),
                       "uniform", 0.9, 1)
        fb = fit_point(random_two_sided_sample(rng, n=200), (0.0, 0.0),
                       "uniform", 0.9, 1)
        with pytest.raises(InvalidPairingError):
            build_surface([fa, fb])

    def test_no_fits_or_a_failed_fit_rejected(self):
        with pytest.raises(InvalidInputError, match="no fits supplied"):
            build_surface([])
        fit = fit_point(random_two_sided_sample(np.random.default_rng(12)), (0.0, 0.0),
                        "uniform", 0.9, 1)
        with pytest.raises(InvalidInputError, match="requires successful fits only"):
            build_surface([fit, InsufficientDataError(0, 1, 2)])

    def test_factor_reproduces_corr(self):
        rng = np.random.default_rng(9)
        sample = random_two_sided_sample(rng, n=260)
        pts = [(0.0, 0.0), (0.15, 0.0), (0.3, 0.0), (0.0, 0.2)]
        fits = [fit_point(sample, b, "triangular", 0.7, 1) for b in pts]
        surface = build_surface(fits)
        assert_allclose(surface.factor @ surface.factor.T, surface.corr, atol=1e-12)
        assert_allclose(np.diag(surface.corr), 1.0)
        assert np.all(np.abs(surface.corr) <= 1.0 + 1e-8)


class TestRegularization:
    def test_clipping_restores_psd(self):
        corr = np.array([[1.0, 0.9, 0.2], [0.9, 1.0, 0.9], [0.2, 0.9, 1.0]])
        # This matrix has a negative eigenvalue.
        assert np.linalg.eigvalsh(corr)[0] < 0
        reg, factor, applied = regularize_correlation(corr)
        assert applied
        assert np.linalg.eigvalsh(reg)[0] >= -1e-12
        assert_allclose(np.diag(reg), 1.0)
        assert_allclose(factor @ factor.T, reg, atol=1e-12)

    def test_psd_input_untouched(self):
        corr = np.array([[1.0, 0.3], [0.3, 1.0]])
        reg, _, applied = regularize_correlation(corr)
        assert not applied
        assert_allclose(reg, corr, atol=1e-12)


class TestInfluenceValues:
    def test_sum_matches_sandwich(self):
        rng = np.random.default_rng(10)
        sample = random_two_sided_sample(rng)
        fa = fit_point(sample, (0.0, 0.0), "triangular", 0.8, 1)
        fb = fit_point(sample, (0.2, 0.0), "triangular", 0.8, 1)
        n = len(sample)

        def dense(fit, side):
            sf = fit.side(side)
            out = np.zeros(n)
            out[sf.rows] = sf.influence
            return out

        total = sum(float(dense(fa, side) @ dense(fb, side)) / (n * n) for side in (0, 1))
        assert_allclose(total, xi_pair(sample, fa, fb), rtol=1e-12, atol=1e-20)
