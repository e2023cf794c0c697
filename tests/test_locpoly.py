import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bddist.data import Sample
from bddist.errors import BandwidthSelectionError, InsufficientDataError, SingularGramError
from bddist.geometry import QuadrantRule
from bddist.kernels import DistanceColumn, build_distance_column
from bddist.locpoly import (
    _gram_from_design,
    fit_grid,
    fit_point,
    fit_side,
    scaled_basis,
)
from bddist.geometry import BoundaryPolyline, make_grid

RULE = QuadrantRule()
ORIGIN = np.zeros(2)


def column_from_signed(values):
    values = np.asarray(values, dtype=float)
    return DistanceColumn(ORIGIN, values, values >= 0.0)


class TestGram:
    # The Gram matrix does not depend on the outcomes.
    def test_unit_bandwidth_indicator(self):
        col = column_from_signed([0.0, 0.5])
        g = fit_side(np.zeros(len(col)), col, 1, "uniform", 1.0, 0).gram
        assert_allclose(g.matrix, [[1.0]])

    def test_half_bandwidth_indicator(self):
        # K_h(0) = K_h(0.5) = 1 / h^2 = 4 with the closed-support indicator
        # kernel (K(1) = 1), so the averaged entry is (4 + 4) / 2 = 4.
        col = column_from_signed([0.0, 0.5])
        g = fit_side(np.zeros(len(col)), col, 1, "uniform", 0.5, 0).gram
        assert_allclose(g.matrix, [[4.0]])

    def test_averages_over_full_sample(self):
        # One treated, three control: the treated entry is divided by n = 4.
        col = column_from_signed([0.0, -0.1, -0.2, -0.3])
        g = fit_side(np.zeros(len(col)), col, 1, "uniform", 1.0, 0).gram
        assert_allclose(g.matrix, [[0.25]])

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        col = column_from_signed(rng.uniform(-1, 1, 60))
        g = fit_side(np.zeros(len(col)), col, 1, "triangular", 0.8, 2).gram
        assert np.max(np.abs(g.matrix - g.matrix.T)) < 1e-12


class TestFitSide:
    def test_local_constant_is_weighted_mean(self):
        col = column_from_signed([0.1, 0.2, 0.3])
        fit = fit_side(np.array([1.0, 2.0, 3.0]), col, 1, "uniform", 1.0, 0)
        assert_allclose(fit.intercept, 2.0)
        assert fit.n_eff == 3

    def test_linear_data_reproduced_exactly(self):
        col = column_from_signed([0.05, 0.1, 0.35, 0.6, 0.8])
        y = 3.0 + 2.0 * col.values
        fit = fit_side(y, col, 1, "triangular", 1.0, 1)
        assert abs(fit.intercept - 3.0) < 1e-10

    def test_all_weights_zero_raises_insufficient(self):
        col = column_from_signed([-0.5, -0.7])
        with pytest.raises(InsufficientDataError):
            fit_side(np.array([1.0, 2.0]), col, 1, "uniform", 1.0, 0)

    def test_too_few_points_for_order(self):
        col = column_from_signed([0.3])
        with pytest.raises(InsufficientDataError) as err:
            fit_side(np.array([1.0]), col, 1, "uniform", 1.0, 1)
        assert err.value.side == 1

    def test_duplicate_distances_singular_for_linear(self):
        col = column_from_signed([0.4, 0.4, 0.4, 0.4])
        with pytest.raises(SingularGramError) as err:
            fit_side(np.ones(4), col, 1, "uniform", 1.0, 1)
        assert err.value.min_eigenvalue < 1e-10

    def test_intercept_is_first_coefficient(self):
        col = column_from_signed([0.1, 0.5, 0.9])
        fit = fit_side(np.array([2.0, 1.0, 4.0]), col, 1, "uniform", 1.0, 1)
        assert fit.intercept == fit.gamma_hat[0]

    def test_scaled_vs_raw_coefficients(self):
        # gamma_raw[j] = gamma_scaled[j] / h^j: fitted values must agree.
        rng = np.random.default_rng(4)
        vals = rng.uniform(0.01, 0.9, 40)
        col = column_from_signed(vals)
        y = rng.normal(size=40)
        h = 0.95
        fit = fit_side(y, col, 1, "triangular", h, 2)
        gamma_raw = fit.gamma_hat / h ** np.arange(3)
        fitted_scaled = scaled_basis(vals / h, 2) @ fit.gamma_hat
        fitted_raw = scaled_basis(vals, 2) @ gamma_raw
        assert_allclose(fitted_scaled, fitted_raw, rtol=1e-12)

    def test_weight_scale_invariance(self):
        # Multiplying every weight by c > 0 leaves the solution unchanged.
        rng = np.random.default_rng(9)
        B = scaled_basis(rng.uniform(0, 1, 30), 1)
        w = rng.uniform(0.1, 1.0, 30)
        y = rng.normal(size=30)
        g1 = _gram_from_design(B, B * w[:, None], 30)
        g2 = _gram_from_design(B, B * (7.5 * w)[:, None], 30)
        s1 = (B * w[:, None]).T @ y / 30
        assert_allclose(g1.solve(s1), g2.solve(7.5 * s1), rtol=1e-12)

    def test_neff_monotone_in_h_for_uniform(self):
        rng = np.random.default_rng(6)
        col = column_from_signed(rng.uniform(0, 2, 200))
        neffs = [
            fit_side(np.ones(200) + rng.normal(size=200), col, 1, "uniform", h, 0).n_eff
            for h in (0.2, 0.5, 1.0, 1.9)
        ]
        assert neffs == sorted(neffs)


class TestFitPoint:
    def test_constant_sides(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.uniform(0.05, 1, (25, 2)),
                       -rng.uniform(0.05, 1, (25, 2))])
        y = np.where(RULE.contains(x), 5.0, 3.0)
        sample = Sample.from_data(y, x, RULE)
        fit = fit_point(sample, ORIGIN, "uniform", 2.5, 1)
        assert_allclose(fit.theta_hat, 2.0, atol=1e-12)

    def test_mirrored_data_has_zero_effect(self):
        rng = np.random.default_rng(1)
        pos = rng.uniform(0.05, 1, (30, 2))
        x = np.vstack([pos, -pos])
        y = np.concatenate([rng.normal(size=30)] * 2)
        sample = Sample.from_data(y, x, RULE)
        fit = fit_point(sample, ORIGIN, "triangular", 2.5, 1)
        # Mirrored points sit at identical distances with identical outcomes.
        assert abs(fit.theta_hat) < 1e-12

    def test_theta_is_difference_of_intercepts(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (80, 2))
        y = rng.normal(size=80)
        sample = Sample.from_data(y, x, RULE)
        fit = fit_point(sample, ORIGIN, "uniform", 2.5, 1)
        assert fit.theta_hat == fit.fit1.intercept - fit.fit0.intercept

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_polynomial_reproduction(self, p):
        rng = np.random.default_rng(40 + p)
        for _ in range(20):
            x = rng.uniform(-1, 1, (70, 2))
            sample0 = Sample.from_data(np.zeros(70), x, RULE)
            col = build_distance_column(sample0, ORIGIN)
            c1 = rng.uniform(-2, 2, p + 1)
            c0 = rng.uniform(-2, 2, p + 1)
            y = np.where(col.treated,
                         scaled_basis(col.values, p) @ c1,
                         scaled_basis(col.values, p) @ c0)
            sample = Sample.from_data(y, x, RULE)
            h = 1.2 * np.abs(col.values).max() + 0.1
            fit = fit_point(sample, ORIGIN, "triangular", h, p)
            assert abs(fit.theta_hat - (c1[0] - c0[0])) < 1e-9

    def test_precomputed_column_must_match_point(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (60, 2))
        sample = Sample.from_data(rng.normal(size=60), x, RULE)
        col = build_distance_column(sample, (0.5, 0.0))
        from bddist.errors import InvalidInputError

        with pytest.raises(InvalidInputError):
            fit_point(sample, ORIGIN, "uniform", 1.0, 0, column=col)

    def test_point_fit_is_frozen(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, (80, 2))
        sample = Sample.from_data(rng.normal(size=80), x, RULE)
        fit = fit_point(sample, ORIGIN, "uniform", 1.5, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fit.h = 2.0

    def test_control_row_at_the_point_counts_on_side_0(self):
        # A control observation exactly at the evaluation point scores -0.0;
        # its side comes from the rule mask, not from the sign of the float.
        rng = np.random.default_rng(5)
        x = np.vstack([[-1.0, -1.0], rng.uniform(-1.5, 1.5, (400, 2))])
        sample = Sample.from_data(rng.normal(size=401), x, RULE)
        fit = fit_point(sample, (-1.0, -1.0), "uniform", 2.0, 0)
        near = np.hypot(x[:, 0] + 1.0, x[:, 1] + 1.0) <= 2.0
        assert fit.fit0.n_eff == np.sum(near & ~RULE.contains(x))
        assert fit.fit1.n_eff == np.sum(near & RULE.contains(x))
        assert 0 in fit.fit0.rows and 0 not in fit.fit1.rows
        assert np.signbit(fit.fit0.distances[0])

    def test_error_carries_side(self):
        x = np.array([[0.5, 0.5], [0.7, 0.1], [0.2, 0.9]])
        sample = Sample.from_data(np.ones(3), x, RULE)
        with pytest.raises(InsufficientDataError) as err:
            fit_point(sample, ORIGIN, "uniform", 2.0, 0)
        assert err.value.side == 0


def reachable_arrays(obj):
    """Every numpy array (and its base) reachable through dataclass fields."""
    if isinstance(obj, np.ndarray):
        return [obj] + (reachable_arrays(obj.base) if obj.base is not None else [])
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [a for f in dataclasses.fields(obj)
                for a in reachable_arrays(getattr(obj, f.name))]
    return []


class TestSupportOnly:
    def test_point_fit_holds_no_n_length_array(self):
        # Memory is O(sum of n_eff): with h far below the data spread, a fit
        # built without a column keeps only rows inside its kernel support.
        n = 50_000
        rng = np.random.default_rng(12)
        x = rng.uniform(-1, 1, (n, 2))
        sample = Sample.from_data(rng.normal(size=n), x, RULE)
        fit = fit_point(sample, (0.0, 0.3), "triangular", 0.05, 1)
        arrays = reachable_arrays(fit)
        assert arrays
        assert all(n not in a.shape for a in arrays)
        support = fit.fit0.n_eff + fit.fit1.n_eff
        assert max(a.size for a in arrays) <= 1.1 * support
        for side in (0, 1):
            sf = fit.side(side)
            assert (sf.rows.shape == sf.distances.shape == sf.weights.shape
                    == sf.residuals.shape == (sf.n_eff,))
            assert np.all(np.diff(sf.rows) > 0)
            assert np.all(sample.treated[sf.rows] == bool(side))


class TestJointScaling:
    @settings(max_examples=60, deadline=None)
    @given(c=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1),
           t=st.floats(0.0, 0.5), h=st.floats(0.6, 1.5))
    def test_scaling_x_point_and_h_leaves_fit_unchanged(self, c, seed, t, h):
        # D/h is invariant when x, the grid point and h scale together (the
        # quadrant rule is invariant under positive scaling), so the
        # scaled-basis fit is the same.
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (200, 2))
        y = rng.normal(size=200) + np.where(RULE.contains(x), 1.0, 0.0)
        base = fit_point(Sample.from_data(y, x, RULE), (t, 0.0),
                         "triangular", h, 1)
        scaled = fit_point(Sample.from_data(y, c * x, RULE), (c * t, 0.0),
                           "triangular", c * h, 1)
        for side in (0, 1):
            assert_allclose(scaled.side(side).gamma_hat, base.side(side).gamma_hat,
                            rtol=1e-12, atol=1e-12)
            assert scaled.side(side).n_eff == base.side(side).n_eff
        assert abs(scaled.theta_hat - base.theta_hat) < 1e-12


class TestFitGrid:
    def test_failures_returned_in_place(self):
        pl = BoundaryPolyline.from_vertices([(0.0, 1.0), (0.0, 0.0), (1.0, 0.0)])
        grid = make_grid(pl, 3)
        rng = np.random.default_rng(3)
        # Data only near the origin: the far grid points cannot be fit.
        x = rng.uniform(-0.2, 0.2, (100, 2))
        sample = Sample.from_data(rng.normal(size=100), x, RULE)
        fits = fit_grid(sample, grid, "uniform", 0.25, 1)
        assert isinstance(fits[0], InsufficientDataError)
        assert not isinstance(fits[1], Exception)
        # A bandwidth outcome that is an error is passed through in place.
        err = BandwidthSelectionError("no candidate")
        fits = fit_grid(sample, grid, "uniform", [0.25, 0.25, err], 1)
        assert fits[2] is err
        assert not isinstance(fits[1], Exception)
