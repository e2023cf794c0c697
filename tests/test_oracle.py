import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from bddist.errors import InvalidInputError, NoMassError
from bddist.geometry import PolygonRule, QuadrantRule
from bddist.oracle import (
    ArcScene,
    admissible_arcs,
    bias_functionals,
    corner_example_theta,
    fixed_h_bias,
    induced_theta,
    population_tau,
)

RULE = QuadrantRule()
MU_X2 = staticmethod(lambda x1, x2: x2)


def scene(s, r, mu=None, f_x=None):
    return ArcScene(center=(s, 0.0), radius=r, rule=RULE,
                    mu=mu if mu is not None else (lambda x1, x2: x2), f_x=f_x)


class TestAdmissibleArcs:
    def test_full_upper_half_inside(self):
        # The upper half circle is admissible; the representation may wrap
        # through 2 pi, so compare the arc length and midpoint modulo 2 pi.
        arcs = admissible_arcs((0.75, 0.0), 0.5, RULE, 1)
        assert len(arcs) == 1
        lo, hi = arcs[0]
        assert_allclose(hi - lo, np.pi, atol=1e-10)
        assert_allclose((0.5 * (lo + hi)) % (2 * np.pi), np.pi / 2, atol=1e-10)

    def test_truncated_arc(self):
        arcs = admissible_arcs((0.75, 0.0), 1.5, RULE, 1)
        assert len(arcs) == 1
        lo, hi = arcs[0]
        assert_allclose(hi - lo, np.pi - np.arccos(0.5), atol=1e-10)

    def test_control_side_complement(self):
        a1 = admissible_arcs((0.75, 0.0), 1.5, RULE, 1)
        a0 = admissible_arcs((0.75, 0.0), 1.5, RULE, 0)
        total = sum(hi - lo for lo, hi in a1) + sum(hi - lo for lo, hi in a0)
        assert_allclose(total, 2 * np.pi, atol=1e-9)

    def test_multiple_arcs_from_split_region(self):
        # A bowtie-style region produces two admissible arcs on the circle.
        bowtie = PolygonRule(np.array([
            [-1.0, -0.2], [0.0, 0.0], [1.0, -0.2], [1.0, 0.2],
            [0.0, 0.0], [-1.0, 0.2],
        ]))
        arcs = admissible_arcs((0.0, 0.0), 0.5, bowtie, 1)
        assert len(arcs) == 2

    def test_far_circle_has_no_arc(self):
        tiny = PolygonRule(np.array([[10.0, 10.0], [11.0, 10.0], [10.5, 11.0]]))
        assert admissible_arcs((0.0, 0.0), 0.5, tiny, 1) == []


class TestInducedTheta:
    def test_small_radius_arc_average(self):
        assert_allclose(induced_theta(scene(0.75, 0.5), 1), 2 * 0.5 / np.pi,
                        atol=1e-9)

    def test_truncated_radius_closed_form(self):
        want = (1.5 + 0.75) / (np.pi - np.arccos(0.75 / 1.5))
        assert_allclose(induced_theta(scene(0.75, 1.5), 1), want, atol=1e-9)

    def test_constant_mean_is_reproduced(self):
        val = induced_theta(scene(0.75, 1.5, mu=lambda a, b: 7.0 + 0.0 * a), 1)
        assert_allclose(val, 7.0, rtol=1e-12)

    def test_closed_form_grid(self):
        # Numeric arc oracle against the two-branch closed form on a lattice.
        grid = np.arange(1, 11) / 10.0
        for s in grid:
            for r in grid:
                got = induced_theta(scene(s, r), 1)
                assert abs(got - corner_example_theta(s, r)) < 1e-8

    def test_no_mass_error(self):
        tiny = PolygonRule(np.array([[10.0, 10.0], [11.0, 10.0], [10.5, 11.0]]))
        sc = ArcScene(center=(0.0, 0.0), radius=0.5, rule=tiny,
                      mu=lambda a, b: b)
        with pytest.raises(NoMassError):
            induced_theta(sc, 1)

    def test_nonuniform_density_weights(self):
        # With density f(x) = x2 on the upper half circle at small radius,
        # the weighted mean of mu = x2 is r * int sin^2 / int sin = r pi / 4.
        sc = scene(2.0, 0.5, f_x=lambda x1, x2: x2)
        assert_allclose(induced_theta(sc, 1), 0.5 * np.pi / 4.0, atol=1e-9)

    def test_identification_limit_is_linear_in_r(self):
        errs = []
        for r in (1e-2, 1e-3):
            errs.append(abs(induced_theta(scene(0.75, r), 1) - 0.0))
        assert_allclose(errs[0] / errs[1], 10.0, rtol=1e-3)

    def test_invalid_radius(self):
        with pytest.raises(InvalidInputError):
            ArcScene(center=(0.0, 0.0), radius=0.0, rule=RULE, mu=lambda a, b: b)


class TestCornerExampleTheta:
    def test_branch_continuity(self):
        # The truncated branch approaches 2 s / pi with a square-root modulus
        # (arccos(1 - x) ~ sqrt(2 x)), so the gap at +-1e-12 is ~1e-7.
        s = 0.6
        left = corner_example_theta(s, s - 1e-12)
        right = corner_example_theta(s, s + 1e-12)
        assert abs(left - right) < 1e-6

    def test_small_radius_branch(self):
        assert_allclose(corner_example_theta(0.75, 0.3), 2 * 0.3 / np.pi)

    @pytest.mark.parametrize("s,r", [(np.nan, 1.0), (0.5, np.nan), (-0.1, 1.0), (0.5, 0.0)])
    def test_nan_or_out_of_range_rejected(self, s, r):
        with pytest.raises(InvalidInputError, match="need s >= 0 and r > 0"):
            corner_example_theta(s, r)


class TestBiasFunctionals:
    def test_value_at_zero_closed_form(self):
        # A(0) = (pi/2) int u r r' K du and B(0) = int u^2 r K du.
        for kernel, kfun in (("uniform", lambda u: np.ones_like(u)),
                             ("triangular", lambda u: 1.0 - u)):
            A, B, _ = bias_functionals(kernel, 1, 0.0)
            for m in range(3):
                direct, _ = integrate.quad(lambda u: u ** (m + 1) * kfun(u), 0, 1)
                j = min(m, 1)
                assert_allclose(A[j, m - j], np.pi / 2 * direct, rtol=1e-9)
            for j in range(2):
                direct, _ = integrate.quad(lambda u: u ** (j + 2) * kfun(u), 0, 1)
                assert_allclose(B[j], direct, rtol=1e-9)

    def test_beyond_support_reduces_to_half_plane(self):
        # For s >= the kernel support radius the arccos branch never occurs.
        A, B, _ = bias_functionals("triangular", 1, 1.5)
        direct = np.pi * np.array([
            [integrate.quad(lambda u: u * (1 - u), 0, 1)[0],
             integrate.quad(lambda u: u ** 2 * (1 - u), 0, 1)[0]],
            [integrate.quad(lambda u: u ** 2 * (1 - u), 0, 1)[0],
             integrate.quad(lambda u: u ** 3 * (1 - u), 0, 1)[0]],
        ])
        assert_allclose(A, direct, rtol=1e-9)
        assert_allclose(fixed_h_bias("triangular", 1, 1.0, 1.5), 0.0, atol=1e-10)

    def test_symmetry(self):
        for s in (0.0, 0.3, 0.8):
            A, _, _ = bias_functionals("epanechnikov", 2, s)
            assert np.max(np.abs(A - A.T)) < 1e-12

    def test_continuity_in_s(self):
        delta = 1e-4
        for s in (0.1, 0.4, 0.7):
            A1, B1, _ = bias_functionals("triangular", 1, s)
            A2, B2, _ = bias_functionals("triangular", 1, s + delta)
            assert np.max(np.abs(A2 - A1)) < 10.0 * delta
            assert np.max(np.abs(B2 - B1)) < 10.0 * delta


class TestFixedHBias:
    def test_zero_at_kink(self):
        assert abs(fixed_h_bias("triangular", 1, 1.0, 1e-6)) < 1e-5

    def test_derivative_at_zero(self):
        target = 2.0 / np.pi - 4.0 / np.pi ** 2
        d = 1e-4
        for kernel in ("uniform", "triangular", "epanechnikov"):
            f0 = fixed_h_bias(kernel, 1, 1.0, 0.0)
            f1 = fixed_h_bias(kernel, 1, 1.0, d)
            f2 = fixed_h_bias(kernel, 1, 1.0, 2 * d)
            stencil = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * d)
            assert abs(stencil - target) < 1e-4

    def test_scaling_identity(self):
        for h in (0.5, 0.25, 0.1):
            for frac in (0.2, 0.5, 0.9):
                s = frac * h
                lhs = fixed_h_bias("uniform", 1, h, s)
                rhs = h * fixed_h_bias("uniform", 1, 1.0, s / h)
                assert abs(lhs - rhs) < 1e-8

    def test_sup_bias_two_sided_bounds(self):
        # sup over s in (0, h) of |bias| / h stays bounded away from 0 and
        # infinity (the irreducible linear-in-h behavior near a kink).
        h = 0.4
        ss = np.linspace(1e-3, h * (1 - 1e-9), 81)
        sup = max(abs(fixed_h_bias("uniform", 1, h, float(s))) for s in ss)
        assert 0.01 * h < sup < 1.0 * h

    def test_normalized_functionals_and_bias(self):
        # A(s/h) and B(s/h) at unit bandwidth give the bias at h by scaling.
        h, s = 0.5, 0.2
        A, B, err = bias_functionals("uniform", 1, s / h, 1.0)
        assert A.shape == (2, 2)
        assert B.shape == (2,)
        assert_allclose(h * np.linalg.solve(A, B)[0], fixed_h_bias("uniform", 1, h, s),
                        rtol=1e-12)
        assert err < 1e-8


class TestPopulationTau:
    class Dgp:
        beta0 = (0.335, 2.52e-3, -1.72e-3)
        beta1 = (0.698, 2.74e-3, -6.05e-4)

    def test_at_origin(self):
        assert_allclose(population_tau(self.Dgp, (0.0, 0.0)), 0.363, atol=1e-12)

    def test_along_first_axis(self):
        want = 0.363 + 10 * (2.74e-3 - 2.52e-3)
        assert_allclose(population_tau(self.Dgp, (10.0, 0.0)), want, atol=1e-12)

    def test_zero_coefficients(self):
        class Zero:
            beta0 = (0.0, 0.0, 0.0)
            beta1 = (0.0, 0.0, 0.0)

        assert population_tau(Zero, (3.0, -4.0)) == 0.0
