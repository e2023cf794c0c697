import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bddist.data import Sample
from bddist.errors import (
    BandwidthSelectionError,
    BddistError,
    InsufficientDataError,
    InvalidInputError,
    SingularGramError,
)
from bddist.geometry import ROW_BLOCK, BoundaryPolyline, QuadrantRule, make_grid, signed_distances
from bddist.kernels import FAMILIES
from bddist.locpoly import (
    MIN_GRAM_EIGENVALUE,
    GramMatrix,
    PointFit,
    _support_rows,
    fit_grid,
    fit_point,
    scaled_basis,
    side_failure,
)
from fit_oracle import fit_point as oracle_fit_point
from fit_oracle import (
    DistanceColumn,
    build_distance_column,
    fit_side,
    gram_from_design,
    support_arrays,
)

RULE = QuadrantRule()
ORIGIN = np.zeros(2)


def column_from_signed(values):
    values = np.asarray(values, dtype=float)
    return DistanceColumn(ORIGIN, values, values >= 0.0)


# One-side checks run on the column-based oracle, which ``fit_grid`` and
# ``fit_point`` equal bit for bit (TestGridPassMatchesOracle).
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

    def test_stacked_solve_matches_each_gram(self):
        # A stack of Grams solves each right-hand side column as its own
        # Gram does, and as a dense solver does.
        rng = np.random.default_rng(10)
        A = rng.normal(size=(4, 2, 3, 3))
        grams = A @ np.swapaxes(A, -1, -2) + 0.1 * np.eye(3)
        lam, vec = np.linalg.eigh(grams)
        rhs = rng.normal(size=(4, 2, 3, 2))
        got = GramMatrix(grams, lam, vec).solve(rhs)
        for k, t, r in np.ndindex(4, 2, 2):
            one = GramMatrix(grams[k, t], lam[k, t], vec[k, t]).solve(rhs[k, t, :, r])
            assert_allclose(got[k, t, :, r], one, rtol=1e-12)
        assert_allclose(got, np.linalg.solve(grams, rhs), rtol=1e-9)


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
        g1 = gram_from_design(B, B * w[:, None], 30)
        g2 = gram_from_design(B, B * (7.5 * w)[:, None], 30)
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
        with pytest.raises(InvalidInputError):
            oracle_fit_point(sample, ORIGIN, "uniform", 1.0, 0, column=col)

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
        assert np.signbit(support_arrays(sample, fit, 0)[0][0])

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
            assert sf.rows.shape == sf.influence.shape == (sf.n_eff,)
            assert np.all(np.diff(sf.rows) > 0)
            assert np.all(sample.treated[sf.rows] == bool(side))

    def test_side_fits_hold_only_rows_and_influence(self):
        # Per row, a side fit keeps its support rows and their influence
        # values, nothing else; both are read-only, and no two arrays of any
        # fits on the grid share a buffer.
        rng = np.random.default_rng(13)
        x = rng.uniform(-1, 1, (2000, 2))
        sample = Sample.from_data(rng.normal(size=2000), x, RULE)
        grid = make_grid(BoundaryPolyline.from_vertices([(0.0, 1.0), (0.0, 0.0), (1.0, 0.0)]), 5)
        held = []
        for fit in fit_grid(sample, grid, "triangular", 0.5, 1):
            assert isinstance(fit, PointFit)
            for sf in (fit.fit0, fit.fit1):
                assert [f.name for f in dataclasses.fields(sf)] == [
                    "side", "gamma_hat", "n_eff", "gram", "rows", "influence"]
                for arr in (sf.rows, sf.influence):
                    assert arr.shape == (sf.n_eff,) and not arr.flags.writeable
                held += [sf.rows, sf.influence]
        for i, a in enumerate(held):
            assert not any(np.shares_memory(a, b) for b in held[i + 1:])


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


class TestSideFailure:
    """The checks of one order-q fit: per side, count before Gram; side 0 first."""

    # The eigenvalues enter as h^2 lambda_min: at h = 1 as they are, at
    # h = 1e3 a Gram eigenvalue of 1e-12 is 1e-6 unit-free and passes, and
    # at h = 0.1 one of 1e-9 is 1e-11 and fails.
    @pytest.mark.parametrize("counts,eigs,q,h,want", [
        ((3, 3), (1.0, 1.0), 2, 1.0, None),
        ((3, 3), (MIN_GRAM_EIGENVALUE, 1.0), 2, 1.0, None),
        ((2, 3), (0.0, 1.0), 2, 1.0, InsufficientDataError(0, 2, 3)),
        ((3, 3), (1e-11, 0.0), 2, 1.0, SingularGramError(0, 1e-11)),
        ((3, 2), (1.0, 0.0), 2, 1.0, InsufficientDataError(1, 2, 3)),
        ((3, 3), (1.0, 1e-11), 2, 1.0, SingularGramError(1, 1e-11)),
        ((0, 0), (0.0, 0.0), 0, 1.0, InsufficientDataError(0, 0, 1)),
        ((1, 0), (0.0, 0.0), 0, 1.0, SingularGramError(0, 0.0)),
        ((1, 0), (1.0, 0.0), 0, 1.0, InsufficientDataError(1, 0, 1)),
        ((3, 3), (1e-12, 1e-12), 2, 1e3, None),
        ((3, 3), (1.0, 1e-9), 2, 0.1, SingularGramError(1, 0.1 * 0.1 * 1e-9)),
    ], ids=["pass", "eigenvalue-at-the-floor", "count-before-gram", "gram-0-before-side-1",
            "count-1", "gram-1", "side-0-before-side-1", "gram-0-before-count-1",
            "count-1-order-0", "wide-h-scales-up", "narrow-h-scales-down"])
    def test_first_failure(self, counts, eigs, q, h, want):
        got = side_failure(np.array(counts), np.array(eigs), q, h)
        assert type(got) is type(want) and str(got) == str(want)
        if want is not None:
            assert got.side == want.side


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


class TestSupportScan:
    def test_radius_keeps_the_support_rows_bit_for_bit(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, (500, 2))
        sample = Sample.from_data(rng.normal(size=500), x, RULE)
        full = build_distance_column(sample, (0.3, 0.0))
        rows = _support_rows(x, np.array([0.3, 0.0]), 0.4)
        support = np.flatnonzero(np.abs(full.values) <= 0.4)
        assert np.array_equal(rows, support)
        # Under the uniform kernel every row within h carries weight, so the
        # fit's two sides hold exactly these rows; their distances, taken
        # from the kept rows alone, are the full column's.
        fit = fit_point(sample, (0.3, 0.0), "uniform", 0.4, 0)
        assert np.array_equal(np.union1d(fit.fit0.rows, fit.fit1.rows), support)
        for side in (0, 1):
            sf = fit.side(side)
            kept = signed_distances(x.take(sf.rows, axis=0), (0.3, 0.0), sample.treated[sf.rows])
            assert np.array_equal(kept, full.values[sf.rows])
            assert np.all(sample.treated[sf.rows] == bool(side))

    def test_blocked_scan_matches_the_one_shot_scan(self):
        # More than two row blocks.  Rows exactly on the radius, rows within
        # it whose rounded squared distance exceeds radius^2, and rows just
        # past its 1e-9 margin sit either side of each block edge.
        n, pt, radius = 70001, np.array([0.25, 0.0]), 0.5
        x = np.random.default_rng(8).uniform(-1, 1, (n, 2))
        inside = (0.451032054611213, -0.45780575904939674)
        dx, dy = inside[0] - pt[0], inside[1] - pt[1]
        assert np.hypot(dx, dy) <= radius and dx * dx + dy * dy > radius * radius
        on, past = [], []
        for edge in (ROW_BLOCK, 2 * ROW_BLOCK):
            x[[edge - 1, edge]] = (0.75, 0.0)
            x[[edge - 3, edge + 2]] = inside
            x[[edge - 2, edge + 1]] = (0.25, -0.5 * (1.0 + 1e-8))
            on += [edge - 1, edge, edge - 3, edge + 2]
            past += [edge - 2, edge + 1]
        dx, dy = x[:, 0] - pt[0], x[:, 1] - pt[1]
        expected = np.flatnonzero(dx * dx + dy * dy <= (radius * (1.0 + 1e-9)) ** 2)
        # The same point twice, then a radius that keeps every row.
        assert np.array_equal(_support_rows(x, pt, radius), expected)
        assert np.array_equal(_support_rows(x, pt, radius), expected)
        assert np.array_equal(_support_rows(x, pt, 9.0), np.arange(n))
        assert np.isin(on, expected).all() and not np.isin(past, expected).any()
        # The fit sees the rows on the radius, at their one-shot distances.
        sample = Sample.from_data(np.random.default_rng(9).normal(size=n), x, RULE)
        fit = fit_point(sample, pt, "uniform", radius, 0)
        kept = np.union1d(fit.fit0.rows, fit.fit1.rows)
        assert np.isin(on, kept).all() and not np.isin(past, kept).any()
        for side, sf in enumerate((fit.fit0, fit.fit1)):
            assert np.array_equal(support_arrays(sample, fit, side)[0], signed_distances(
                x[sf.rows], pt, sample.treated[sf.rows]))


# Lattice coordinates k / 8: sums, squares and axis-aligned distances are
# exact, so rows fall exactly on |D| = h for lattice bandwidths, and repeated
# draws give duplicate rows.
LATTICE_H = st.integers(1, 24).map(lambda k: k / 8)
SELECTION_ERROR = BandwidthSelectionError("no candidate")
L_BOUNDARY = BoundaryPolyline.from_vertices([(0.0, 1.5), (0.0, 0.0), (1.5, 0.0)])


def assert_same_fit(fit, ref, sample):
    assert isinstance(fit, PointFit)
    assert (fit.h, fit.p, fit.kernel, fit.n) == (ref.h, ref.p, ref.kernel, ref.n)
    assert np.array_equal(fit.eval_pt, ref.eval_pt)
    assert fit.theta_hat == ref.theta_hat
    for side in (0, 1):
        a, b = fit.side(side), ref.side(side)
        assert (a.side, a.n_eff) == (b.side, b.n_eff) and type(a.n_eff) is int
        assert np.array_equal(a.gamma_hat, b.gamma_hat)
        for name in ("rows", "influence"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
            assert getattr(a, name).dtype == getattr(b, name).dtype, name
            assert not getattr(a, name).flags.writeable, name
        # The distances, weights and residuals the fit implies, from the sample.
        for name, got, want in zip(("distances", "weights", "residuals"),
                                   support_arrays(sample, fit, side),
                                   support_arrays(sample, ref, side)):
            assert np.array_equal(got, want) and got.dtype == want.dtype, name
        for name in ("matrix", "eigenvalues", "eigenvectors"):
            assert np.array_equal(getattr(a.gram, name), getattr(b.gram, name)), name


def assert_same_outcome(fit, sample, pt, kernel, h, p):
    """``fit`` equals the oracle's fit, or is the oracle's error."""
    try:
        ref = oracle_fit_point(sample, pt, kernel, h, p)
    except BddistError as err:
        assert type(fit) is type(err) and str(fit) == str(err)
        assert getattr(fit, "side", None) == getattr(err, "side", None)
    else:
        assert_same_fit(fit, ref, sample)


class TestGridPassMatchesOracle:
    @settings(max_examples=250, deadline=None)
    @given(data=st.data(), kernel=st.sampled_from(FAMILIES), p=st.sampled_from([0, 1, 2]),
           M=st.sampled_from([1, 2, 3, 5, 7]), spread=st.sampled_from([2, 12]),
           one_sided=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_grid_fits_equal_the_oracle_bit_for_bit(self, data, kernel, p, M, spread,
                                                   one_sided, seed):
        # Rows picked again from the pool repeat; a small spread makes
        # near-empty points and singular Grams; one_sided puts every row on the treated side of the x2 = 0
        # leg, so points there see one side only.
        coords = st.tuples(st.integers(0 if one_sided else -spread, spread + 4),
                           st.integers(-spread, spread + 4))
        pool = data.draw(st.lists(coords, min_size=1, max_size=40))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=20))
        x = np.array(pool + [pool[i] for i in picks], dtype=float) / 8
        n = len(x)
        sample = Sample.from_data(np.random.default_rng(seed).normal(size=n), x, RULE)
        grid = make_grid(L_BOUNDARY, M)
        h_entry = st.one_of(LATTICE_H, LATTICE_H, st.floats(0.05, 3.0),
                            st.sampled_from([np.nan, np.inf, -1.0, 0.0, SELECTION_ERROR]))
        hs = data.draw(st.lists(h_entry, min_size=M, max_size=M))
        fits = fit_grid(sample, grid, kernel, hs, p)
        assert len(fits) == M
        for pt, h, fit in zip(grid.points, hs, fits):
            if h is SELECTION_ERROR:
                assert fit is SELECTION_ERROR
                continue
            assert_same_outcome(fit, sample, pt, kernel, h, p)
            # fit_point is the one-point case of the same pass.
            try:
                one = fit_point(sample, pt, kernel, h, p)
            except BddistError as err:
                one = err
            assert_same_outcome(one, sample, pt, kernel, h, p)

    @pytest.mark.parametrize("kernel", FAMILIES)
    def test_rows_exactly_at_the_bandwidth(self, kernel):
        # Rows at |D| = h exactly on both sides of the origin: the closed
        # uniform kernel keeps them, the others give them zero weight.
        h = 0.75
        edge = np.array([[h, 0.0], [0.0, h], [-h, 0.0], [0.0, -h]])
        x = np.vstack([edge, np.random.default_rng(11).uniform(-0.5, 0.5, (40, 2))])
        sample = Sample.from_data(np.random.default_rng(12).normal(size=44), x, RULE)
        grid = make_grid(L_BOUNDARY, 5)
        fits = fit_grid(sample, grid, kernel, [h] * 5, 1)
        for pt, fit in zip(grid.points, fits):
            assert_same_outcome(fit, sample, pt, kernel, h, 1)
        at_origin = fits[2]
        kept = np.union1d(at_origin.fit0.rows, at_origin.fit1.rows)
        assert np.isin([0, 1, 2, 3], kept).all() == (kernel == "uniform")
        assert not np.isin([0, 1, 2, 3], kept).any() or kernel == "uniform"

    def test_input_errors_still_raise(self):
        sample = Sample.from_data(np.zeros(4), np.eye(2).repeat(2, axis=0), RULE)
        grid = make_grid(L_BOUNDARY, 3)
        with pytest.raises(InvalidInputError, match="unknown kernel family"):
            fit_grid(sample, grid, "gaussian", 1.0, 1)
        with pytest.raises(InvalidInputError, match="polynomial order must be >= 0"):
            fit_grid(sample, grid, "uniform", 1.0, -1)
        # With no point to fit, neither is checked.
        assert fit_grid(sample, grid, "gaussian", SELECTION_ERROR, -1) == [SELECTION_ERROR] * 3
