import numpy as np
import pytest
from numpy.testing import assert_allclose

from bddist.data import Sample
from bddist.errors import InvalidBandwidthError, InvalidInputError
from bddist.geometry import QuadrantRule, signed_distances
from bddist.kernels import FAMILIES, kernel_eval, kh_weight, support_weights
from fit_oracle import DistanceColumn, build_distance_column


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


class TestSupportWeights:
    """The pilot's one-pass weights on ascending |D| within h."""

    @pytest.mark.parametrize("family", FAMILIES)
    # 1e200 ** 2 overflows to inf, and 1e-170 ** 2 and 1e-160 ** 2 underflow
    # to 0 and to a subnormal: weights of 0, of inf and NaN (0 / 0 at |D| = h)
    # and of inf from overflow.
    @pytest.mark.parametrize("h", [0.7, 1.0, 3.0, 1e200, 1e-170, 1e-160, 5e-324])
    def test_weights_and_count_equal_kh_weight(self, family, h):
        rng = np.random.default_rng(0)
        mags = np.sort(np.concatenate([
            [0.0, 0.0, h, h, np.nextafter(h, 0.0), np.nextafter(np.nextafter(h, 0.0), 0.0)],
            h * rng.uniform(0.0, 1.0, 40), rng.uniform(0.0, h, 10)]))
        for m in (mags, mags[:0], mags[:1], mags[:-2]):
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                w, count = support_weights(family, m, h)
                want = kh_weight(family, m, h)
            assert w.tobytes() == want.tobytes()
            assert count == np.count_nonzero(want > 0.0)
            assert type(count) is int

    def test_unknown_family_raises(self):
        with pytest.raises(InvalidInputError, match="unknown kernel family"):
            support_weights("gaussian", np.array([0.1]), 1.0)


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

    def test_column_covers_every_row(self):
        x = np.random.default_rng(8).uniform(-1, 1, (2000, 2))
        sample = Sample.from_data(np.zeros(len(x)), x, QuadrantRule())
        col = build_distance_column(sample, (0.25, 0.0))
        assert len(col) == len(x) and np.array_equal(col.rows, np.arange(len(x)))
        assert np.array_equal(col.values, signed_distances(x, (0.25, 0.0), sample.treated))
        assert col.treated is sample.treated

    def test_rows_must_index_the_sample(self):
        with pytest.raises(InvalidInputError):
            DistanceColumn(np.zeros(2), np.array([1.0, 2.0]), np.array([True, True]),
                           np.array([3, 1]), 5)
        with pytest.raises(InvalidInputError):
            DistanceColumn(np.zeros(2), np.array([1.0, 2.0]), np.array([True, True]),
                           np.array([1, 5]), 5)
