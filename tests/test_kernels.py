import numpy as np
import pytest
from numpy.testing import assert_allclose

from bddist.data import Sample
from bddist.errors import InvalidBandwidthError, InvalidInputError
from bddist.geometry import ROW_BLOCK, QuadrantRule, signed_distances
from bddist.kernels import (
    FAMILIES,
    DistanceColumn,
    build_distance_column,
    kernel_eval,
    kh_weight,
)


class TestKernelEval:
    def test_uniform_is_indicator(self):
        assert kernel_eval("uniform", 0.3) == 1.0
        assert kernel_eval("uniform", 1.0) == 1.0  # closed support
        assert kernel_eval("uniform", 1.0001) == 0.0

    def test_triangular(self):
        assert kernel_eval("triangular", 0.5) == 0.5
        assert kernel_eval("triangular", 1.2) == 0.0

    def test_epanechnikov(self):
        assert_allclose(kernel_eval("epanechnikov", 0.0), 0.75)
        assert kernel_eval("epanechnikov", 1.5) == 0.0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_symmetric_and_nonnegative(self, family):
        u = np.linspace(-2, 2, 101)
        vals = kernel_eval(family, u)
        assert_allclose(vals, kernel_eval(family, -u))
        assert np.all(vals >= 0)
        assert np.all(vals[np.abs(u) > 1] == 0)

    def test_unknown_family(self):
        with pytest.raises(InvalidInputError):
            kernel_eval("gaussian", 0.0)

    def test_classical_normalizations(self):
        # Triangular and epanechnikov integrate to one; the uniform family is
        # the raw indicator (integral two) on purpose: the fits are invariant
        # to kernel scale and the sandwich variance self-normalizes.
        from scipy import integrate

        for family, total in (("uniform", 2.0), ("triangular", 1.0),
                              ("epanechnikov", 1.0)):
            val, _ = integrate.quad(lambda u: kernel_eval(family, u), -1, 1)
            assert_allclose(val, total, rtol=1e-10)


class TestKhWeight:
    def test_unit_bandwidth(self):
        assert kh_weight("uniform", 0.5, 1.0) == 1.0

    def test_inverse_square_scaling(self):
        assert kh_weight("uniform", 0.5, 0.5) == 4.0

    def test_triangular_example(self):
        assert_allclose(kh_weight("triangular", 0.25, 0.5), 2.0)

    def test_scale_identity(self):
        rng = np.random.default_rng(0)
        u = rng.uniform(-2, 2, 50)
        for h in (0.3, 1.7):
            assert_allclose(kh_weight("triangular", u, h) * h * h,
                            kernel_eval("triangular", u / h), rtol=1e-15)

    def test_nonpositive_bandwidth(self):
        with pytest.raises(InvalidBandwidthError):
            kh_weight("uniform", 0.1, 0.0)
        with pytest.raises(InvalidBandwidthError):
            kh_weight("uniform", 0.1, -1.0)


class TestDistanceColumn:
    def test_two_points_one_per_side(self):
        rule = QuadrantRule()
        sample = Sample.from_data([1.0, 2.0], [[1.0, 1.0], [-1.0, 0.5]], rule)
        col = build_distance_column(sample, (0.0, 0.0))
        assert col.treated.tolist() == [True, False]
        assert_allclose(col.values, [np.sqrt(2.0), -np.sqrt(1.25)])

    def test_point_at_eval_is_treated(self):
        rule = QuadrantRule()
        sample = Sample.from_data([1.0], [[0.0, 0.0]], rule)
        col = build_distance_column(sample, (0.0, 0.0))
        assert col.values[0] == 0.0
        assert col.treated[0]

    def test_empty_treated_side_still_valid(self):
        rule = QuadrantRule()
        sample = Sample.from_data([1.0, 2.0], [[-1.0, 0.0], [-2.0, -1.0]], rule)
        col = build_distance_column(sample, (0.0, 0.0))
        assert not col.treated.any()
        assert col.side_mask(1).sum() == 0
        assert col.side_mask(0).sum() == 2

    def test_mask_matches_sign_on_random_data(self):
        rng = np.random.default_rng(5)
        rule = QuadrantRule()
        x = rng.normal(size=(200, 2))
        sample = Sample.from_data(np.zeros(200), x, rule)
        col = build_distance_column(sample, (0.3, 0.0))
        assert np.all((col.values >= 0) == col.treated)

    def test_inconsistent_mask_rejected(self):
        with pytest.raises(InvalidInputError):
            DistanceColumn(np.array([0.0, 0.0]), np.array([1.0, -1.0]),
                           np.array([False, True]))

    @pytest.mark.parametrize("treated", [[True, True], [False, False]])
    def test_one_wrong_side_is_rejected(self, treated):
        # One row on the wrong side: a negative treated or a positive control.
        with pytest.raises(InvalidInputError, match="side mask inconsistent"):
            DistanceColumn(np.zeros(2), np.array([1.0, -1.0]), np.array(treated))

    def test_radius_keeps_the_support_rows_bit_for_bit(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, (500, 2))
        sample = Sample.from_data(np.zeros(500), x, QuadrantRule())
        full = build_distance_column(sample, (0.3, 0.0))
        near = build_distance_column(sample, (0.3, 0.0), 0.4)
        assert len(full) == len(near) == 500 and len(full.values) == 500
        assert np.array_equal(near.rows, np.flatnonzero(np.abs(full.values) <= 0.4))
        assert np.array_equal(near.values, full.values[near.rows])
        assert np.array_equal(near.treated, sample.treated[near.rows])

    def test_blocked_scan_matches_the_one_shot_scan(self):
        # More than two row blocks.  Rows exactly on the radius, and rows just
        # past its 1e-9 margin, sit either side of each block edge.
        n, pt, radius = 70001, np.array([0.25, 0.0]), 0.5
        x = np.random.default_rng(8).uniform(-1, 1, (n, 2))
        on, past = [], []
        for edge in (ROW_BLOCK, 2 * ROW_BLOCK):
            x[[edge - 1, edge]] = (0.75, 0.0)
            x[[edge - 2, edge + 1]] = (0.25, -0.5 * (1.0 + 1e-8))
            on += [edge - 1, edge]
            past += [edge - 2, edge + 1]
        sample = Sample.from_data(np.zeros(n), x, QuadrantRule())
        col = build_distance_column(sample, pt, radius)
        dx, dy = x[:, 0] - pt[0], x[:, 1] - pt[1]
        rows = np.flatnonzero(dx * dx + dy * dy <= (radius * (1.0 + 1e-9)) ** 2)
        assert np.array_equal(col.rows, rows)
        assert np.array_equal(col.values, signed_distances(x[rows], pt, sample.treated[rows]))
        assert np.array_equal(col.treated, sample.treated[rows])
        assert np.isin(on, col.rows).all() and not np.isin(past, col.rows).any()
        # A radius of inf keeps every row.
        full = build_distance_column(sample, pt)
        assert np.array_equal(full.rows, np.arange(n))
        assert np.array_equal(full.values, signed_distances(x, pt, sample.treated))

    def test_rows_must_index_the_sample(self):
        with pytest.raises(InvalidInputError):
            DistanceColumn(np.zeros(2), np.array([1.0, 2.0]), np.array([True, True]),
                           np.array([3, 1]), 5)
        with pytest.raises(InvalidInputError):
            DistanceColumn(np.zeros(2), np.array([1.0, 2.0]), np.array([True, True]),
                           np.array([1, 5]), 5)
