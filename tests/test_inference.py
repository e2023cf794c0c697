import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import bddist.inference
from bddist.bandwidth import Fixed, KinkAdaptive, MsePilot, RuleOfThumb, resolve_bandwidths
from bddist.covariance import build_surface, regularize_correlation
from bddist.data import Sample
from bddist.errors import BddistError, InvalidInputError, InvalidLevelError
from bddist.geometry import BoundaryPolyline, QuadrantRule, make_grid
from bddist.inference import (
    DRAW_BUFFER_BYTES,
    BandResult,
    BoundaryLengthWarning,
    _draw_maxima,
    _ndtri,
    estimate,
    normal_quantile,
    pointwise_ci,
    uniform_band,
    uniform_quantile,
)
from bddist.kernels import FAMILIES
from bddist.locpoly import PointFit, fit_grid, fit_point
from bddist.simulation import default_dgp, draw_sample, run_monte_carlo
from fit_oracle import support_arrays

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


def same_bits(a, b):
    """Equal float bit patterns; any NaN matches any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(((a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))).all())


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

    def test_equals_scipy_ndtri_bit_for_bit(self):
        ndtri = pytest.importorskip("scipy.special").ndtri
        alphas = np.concatenate([
            np.linspace(0.0, 1.0, 20001)[1:-1],
            np.geomspace(1e-16, 1e-3, 2001),
            [np.nextafter(1.0, 0.0), 2.0 * 0.13533528323661269189, 1e-17, 5e-324],
        ])
        # alpha = 1e-17 and 5e-324 leave 1 - alpha/2 == 1: the quantile is inf.
        assert normal_quantile(1e-17) == math.inf
        got = np.array([normal_quantile(float(a)) for a in alphas])
        assert same_bits(got, ndtri(1.0 - alphas / 2.0))

    def test_port_equals_scipy_ndtri_on_both_tails(self):
        # Every branch: the central rational, the tail for x = sqrt(-2 log y)
        # below 8 and past it, either side of each switch, down to the
        # smallest subnormal, plus the ends and points outside (0, 1).
        ndtri = pytest.importorskip("scipy.special").ndtri
        e2, e32 = 0.13533528323661269189, math.exp(-32.0)
        edges = [e2, 1.0 - e2, e32, 1.0 - e32]
        tail = np.geomspace(5e-324, 0.2, 4001)
        ys = np.concatenate([
            tail, 1.0 - tail, np.linspace(0.0, 1.0, 4001),
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
            [np.nextafter(1.0, 0.0), -0.5, 1.5, math.nan],
        ])
        got = np.array([_ndtri(float(y)) for y in ys])
        assert same_bits(got, ndtri(ys))


class TestPointwiseCI:
    def test_interval_arithmetic(self):
        fit = fitted_point()
        # theta_hat +- 1.959964 * 0.5 around the point estimate
        (lower,), (upper,) = pointwise_ci([fit], [0.5], 0.05)
        assert_allclose(upper - lower, 2 * 1.959964 * 0.5, atol=1e-5)
        assert_allclose(lower, fit.theta_hat - 1.959964 * 0.5, atol=1e-5)
        assert lower <= upper

    def test_worked_numbers(self):
        # theta = 2, se = 0.5, alpha = 0.05 -> [1.020, 2.980]
        fit = fitted_point()
        (lower,), (upper,) = pointwise_ci([fit], [0.5], 0.05)
        shift = fit.theta_hat - 2.0
        assert_allclose(lower - shift, 1.020018, atol=1e-5)
        assert_allclose(upper - shift, 2.979982, atol=1e-5)

    def test_unset_variance_rejected(self):
        fit = fitted_point()
        for se in (0.0, -0.5, math.nan, math.inf):
            with pytest.raises(InvalidInputError):
                pointwise_ci([fit], [se], 0.05)

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.01])
    def test_two_read_only_arrays_of_theta_hat_minus_plus_q_se(self, alpha):
        fits, surface = grid_fits()
        se = surface.se
        lower, upper = pointwise_ci(fits, se, alpha)
        for limits in (lower, upper):
            assert limits.shape == (len(fits),) and not limits.flags.writeable
            with pytest.raises(ValueError):
                limits[0] = 0.0
        # Each limit is theta_hat -+ q * se in float arithmetic, point by point.
        q = normal_quantile(alpha)
        for k, (fit, s) in enumerate(zip(fits, se.tolist())):
            assert same_bits(lower[k], fit.theta_hat - q * s)
            assert same_bits(upper[k], fit.theta_hat + q * s)
        for short in (se[:-1], np.append(se, 1.0), se[None, :]):
            with pytest.raises(InvalidInputError, match="one standard error per fit"):
                pointwise_ci(fits, short, alpha)
        for value, name in ((0.0, "0.0"), (-0.5, "-0.5"), (math.nan, "nan"), (math.inf, "inf")):
            bad = se.copy()
            bad[2] = value
            with pytest.raises(InvalidInputError, match=f"finite, got {name}$"):
                pointwise_ci(fits, bad, alpha)


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

    @pytest.mark.parametrize("where", ["diagonal", "off-diagonal", "factor"])
    def test_non_finite_correlation_or_factor_rejected(self, where):
        # A NaN on the diagonal passes the unit-diagonal check (nan > 1e-8 is
        # false); any NaN would otherwise come back as a NaN critical value.
        corr, factor = np.eye(3), np.eye(3)
        if where == "diagonal":
            corr[1, 1] = np.nan
        elif where == "off-diagonal":
            corr[0, 2] = corr[2, 0] = np.nan
        else:
            factor[2, 1] = np.inf
        with pytest.raises(InvalidInputError, match="must be finite"):
            uniform_quantile(corr, 0.05, num_draws=2000,
                             factor=factor if where == "factor" else None)

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


def zigzag(h):
    """A boundary packing far more than 20 h of arc inside a disk of radius h."""
    xs = np.arange(0, 81) * (h / 40.0)
    return BoundaryPolyline.from_vertices(
        np.column_stack([xs, np.where(np.arange(81) % 2, 0.9 * h, 0.0)]))


def grid_fits(seed=12, n=900, M=5, h=0.9):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, 2))
    y = rng.normal(size=n) + np.where(RULE.contains(x), 1.0, 0.0)
    sample = Sample.from_data(y, x, RULE)
    pl = BoundaryPolyline.from_vertices([(0.0, 1.0), (0.0, 0.0), (1.0, 0.0)])
    grid = make_grid(pl, M)
    fits = [fit_point(sample, b, "triangular", h, 1) for b in grid.points]
    surface = build_surface(fits)
    return fits, surface


class TestUniformBand:
    def test_single_point_band_equals_pointwise(self):
        fits, surface = grid_fits(M=1)
        band = uniform_band(fits, surface, 0.05, num_draws=100000, seed=5)
        (ci_lower,), _ = pointwise_ci(fits, surface.se, 0.05)
        assert abs(band.quantile - normal_quantile(0.05)) < 0.03
        assert abs(band.lower[0] - ci_lower) < 0.03 * surface.se[0]

    def test_band_wider_than_pointwise(self):
        fits, surface = grid_fits()
        band = uniform_band(fits, surface, 0.05, num_draws=20000, seed=6)
        assert band.quantile >= 1.96 - 0.02
        ci_lower, ci_upper = pointwise_ci(fits, surface.se, 0.05)
        for lower, upper, ci_lo, ci_up in zip(band.lower, band.upper, ci_lower, ci_upper):
            assert lower <= ci_lo and upper >= ci_up

    def test_band_is_one_quantile_and_two_read_only_arrays(self):
        fits, surface = grid_fits()
        assert not hasattr(bddist.inference, "IntervalResult")
        band = uniform_band(fits, surface, 0.05, num_draws=2000, seed=6)
        assert [f.name for f in dataclasses.fields(BandResult)] == [
            "lower", "upper", "quantile", "alpha", "num_draws", "seed"]
        for limits in (band.lower, band.upper):
            assert limits.shape == (len(fits),) and not limits.flags.writeable
            with pytest.raises(ValueError):
                limits[0] = 0.0
        # Each limit is theta_hat -+ q * se in float arithmetic, point by point.
        q = band.quantile
        for k, (fit, se) in enumerate(zip(fits, surface.se.tolist())):
            assert same_bits(band.lower[k], fit.theta_hat - q * se)
            assert same_bits(band.upper[k], fit.theta_hat + q * se)

    def test_fits_and_surface_must_cover_the_same_points(self):
        fits, surface = grid_fits()
        for wrong in (fits[:-1], fits + fits[:1]):
            with pytest.raises(InvalidInputError, match="mismatched grid sizes"):
                uniform_band(wrong, surface, 0.05, num_draws=2000, seed=6)

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
        h = 0.1
        pl = zigzag(h)
        assert pl.arclengths_within([(0.1, 0.0)], [h])[0] > 20 * h

        rng = np.random.default_rng(13)
        x = rng.uniform(-1, 1, (1200, 2))
        y = rng.normal(size=1200)
        sample = Sample.from_data(y, x, RULE)
        with pytest.warns(BoundaryLengthWarning) as record:
            est = estimate(sample, make_grid(pl, 3), Fixed(h), "uniform", 0, num_draws=2000,
                           seed=8)
        assert len(record) == len(est.fitted) == 3
        # The warning names the caller of estimate.
        assert record[0].filename == __file__
        # Points print as plain floats, not numpy scalar reprs.
        assert "np.float64" not in str(record[0].message)
        # The band itself does not warn.
        with warnings.catch_warnings():
            warnings.simplefilter("error", BoundaryLengthWarning)
            uniform_band(est.fits, est.surface, 0.05, num_draws=2000, seed=8)


PIPELINE_RULES = {"fixed": Fixed(5.0), "rot": RuleOfThumb(c0=8.0), "mse": MsePilot(),
                  "kink": KinkAdaptive(c0=8.0)}


def pipeline_sample(partial):
    """A default-DGP draw; ``partial`` drops the rows with x1 >= 18, so the
    far end of the boundary's horizontal arm has no data to fit."""
    sample = draw_sample(default_dgp(), 4000, 5)
    if partial:
        keep = sample.x[:, 0] < 18.0
        sample = Sample(sample.y[keep], sample.x[keep], sample.treated[keep])
    return sample


def count_surfaces(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return build_surface(*args, **kwargs)

    monkeypatch.setattr(bddist.inference, "build_surface", counted)
    return calls


class TestEstimate:
    @pytest.mark.parametrize("partial", [False, True], ids=["full", "partial"])
    @pytest.mark.parametrize("name", sorted(PIPELINE_RULES))
    def test_equals_the_sequence_it_runs(self, name, partial):
        sample, rule = pipeline_sample(partial), PIPELINE_RULES[name]
        grid = make_grid(default_dgp().boundary, 9)
        est = estimate(sample, grid, rule, "epanechnikov", 1, 0.1, 2000, 17)

        hs = resolve_bandwidths(rule, sample, grid, "epanechnikov", 1)
        points = fit_grid(sample, grid, "epanechnikov", hs, 1)
        fits = [f for f in points if isinstance(f, PointFit)]
        surface = build_surface(fits)
        band = uniform_band(fits, surface, 0.1, 2000, 17)

        assert est.fitted == [k for k, f in enumerate(points) if isinstance(f, PointFit)]
        assert (len(est.fitted) < grid.count) == (partial and name in ("fixed", "rot"))
        for got, want in zip(est.points, points, strict=True):
            assert type(got) is type(want)
            if isinstance(want, BddistError):
                assert str(got) == str(want)
                continue
            assert got.h == want.h
            for t in (0, 1):
                g, w = got.side(t), want.side(t)
                assert np.array_equal(g.rows, w.rows)
                assert same_bits(g.gamma_hat, w.gamma_hat)
                assert same_bits(g.influence, w.influence)
        for attr in ("xi", "corr", "factor"):
            assert same_bits(getattr(est.surface, attr), getattr(surface, attr))
        assert est.band.quantile == band.quantile
        assert same_bits(est.band.lower, band.lower)
        assert same_bits(est.band.upper, band.upper)

    def test_surface_is_built_once_and_only_when_read(self, monkeypatch):
        calls = count_surfaces(monkeypatch)
        grid = make_grid(default_dgp().boundary, 5)
        est = estimate(pipeline_sample(False), grid, RuleOfThumb(c0=8.0), num_draws=1000)
        assert calls == []
        assert est.band is est.band and est.surface is est.surface
        assert calls == [1]

    def test_failed_points_build_no_surface(self, monkeypatch):
        calls = count_surfaces(monkeypatch)
        grid = make_grid(default_dgp().boundary, 5)
        est = estimate(pipeline_sample(False), grid, Fixed(0.01))
        assert est.fitted == []
        assert all(isinstance(f, BddistError) for f in est.points)
        # Every replication has a failed point: each Estimate is discarded.
        with pytest.raises(BddistError, match="every replication failed"):
            run_monte_carlo(default_dgp(), 2000, 3, grid=grid, bw_rule=Fixed(1.0))
        assert calls == []

    def test_failed_points_on_a_wiggly_boundary_do_not_warn(self, monkeypatch):
        calls = count_surfaces(monkeypatch)
        # No row lies within h of the zigzag, so every point fails.
        rng = np.random.default_rng(14)
        x = rng.uniform(0.5, 1.0, (400, 2)) * rng.choice([-1.0, 1.0], (400, 1))
        sample = Sample.from_data(rng.normal(size=400), x, RULE)
        with warnings.catch_warnings():
            warnings.simplefilter("error", BoundaryLengthWarning)
            est = estimate(sample, make_grid(zigzag(0.1), 3), Fixed(0.1), "uniform", 0)
        assert est.fitted == []
        assert calls == []


class TestAffineOutcome:
    """y -> a + b y leaves h and n_eff alone, maps theta_hat to b theta_hat
    and se to |b| se.

    Tolerance: each side's intercept solves its Gram system for a weighted
    sum over its n_eff rows.  After the shift the sum is rounded to within
    n_eff eps times the data scale S = |a| + |b| max|y| (the bound for a
    floating-point sum), each of the p + 1 coefficients carries that error,
    and the solve amplifies it by at most the Gram's condition number kappa.
    So the intercepts and residuals move by at most E = (p + 1) n_eff eps
    kappa S, n_eff and kappa the larger of the two sides, and theta_hat by
    at most 2 E.  A residual error e moves each influence value by at most
    |e| (p + 1) w_i / lambda_min, as |D/h| <= 1 bounds the basis by 1; so se
    moves by at most E times the norm of those factors over n, plus a few
    eps of se for its own rounding.  The error grows with |a| / |b|: the
    worst of 1500 random cases was 0.8 sqrt(n_eff) eps kappa S on theta_hat.
    """

    RULES = {"fixed": Fixed(0.6), "rot": RuleOfThumb(c0=8.0)}
    GRID = make_grid(BoundaryPolyline.from_vertices([(0.0, 1.0), (0.0, 0.0), (1.0, 0.0)]), 5)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(100, 800),
           a=st.floats(-1e6, 1e6), b=st.floats(1e-3, 1e3), sign=st.sampled_from([-1.0, 1.0]),
           rule=st.sampled_from(sorted(RULES)), kernel=st.sampled_from(FAMILIES),
           p=st.integers(0, 2))
    def test_affine_change_of_y(self, seed, n, a, b, sign, rule, kernel, p):
        b *= sign
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (n, 2))
        y = np.where(RULE.contains(x), 1.0, 0.0) + x[:, 0] ** 2 + rng.normal(size=n)
        sample = Sample.from_data(y, x, RULE)
        base = estimate(sample, self.GRID, self.RULES[rule], kernel, p)
        moved = estimate(Sample.from_data(a + b * y, x, RULE), self.GRID, self.RULES[rule],
                         kernel, p)
        assert moved.fitted == base.fitted
        assert [str(f) for f in moved.points if isinstance(f, BddistError)] \
            == [str(f) for f in base.points if isinstance(f, BddistError)]
        if not base.fitted:
            return
        scale = abs(a) + abs(b) * np.abs(y).max()
        eps = np.finfo(float).eps
        for f, g, se, se_moved in zip(base.fits, moved.fits, base.surface.se,
                                      moved.surface.se, strict=True):
            assert g.h == f.h
            assert (g.fit0.n_eff, g.fit1.n_eff) == (f.fit0.n_eff, f.fit1.n_eff)
            sides = (f.fit0, f.fit1)
            kappa = max(s.gram.eigenvalues[-1] / s.gram.eigenvalues[0] for s in sides)
            bound = (p + 1) * max(s.n_eff for s in sides) * eps * kappa * scale
            assert abs(g.theta_hat - b * f.theta_hat) <= 2 * bound
            weights = [support_arrays(sample, f, t)[1] for t in (0, 1)]
            spread = math.sqrt(sum(((p + 1) / s.gram.eigenvalues[0]) ** 2
                                   * np.sum(w ** 2) for s, w in zip(sides, weights))) / f.n
            assert abs(se_moved - abs(b) * se) <= bound * spread + 4 * eps * abs(b) * se


class TestChangeOfUnits:
    """Scaling x, the boundary and a fixed h by c leaves every rule's
    estimate alone: the same failure codes and n_eff at every point, and
    theta_hat and se equal within rounding.  h itself may move off c h:
    under the uniform kernel the pilot's candidates that hold the same rows
    tie exactly, and the rounding of c x can break the tie either way.

    The fit sees x only through u = D/h and the unit-free Gram h^2 Psi, so
    the one change is the rounding of c x, of the grid and of h.  That
    moves each u by a few eps times 1 + R/h, R = max|x| (the coordinates'
    size against the distances taken from them), and so each of the n_eff
    summands of a Gram or score sum by as much relative to its size.  The
    solve amplifies it by at most the Gram's condition number kappa, so
    theta_hat moves by at most E = (p + 1) n_eff eps kappa (1 + R/h) S,
    S = max|y|, and se by at most E / S of itself (the influence values
    are the same unit-free solves times residuals), n_eff and kappa the
    larger of the two sides.  Over 1300 random cases the worst was 0.15 of
    the theta_hat bound and 0.10 of the se bound.  The rows keep their
    sides at any c: no row lies within 1e-3 of an axis, far outside the
    assignment rule's 1e-12 snap even at c = 1e-6.
    """

    VERTICES = np.array([(0.0, 1.0), (0.0, 0.0), (1.0, 0.0)])
    RULES = {"fixed": lambda c: Fixed(0.6 * c), "rot": lambda c: RuleOfThumb(c0=8.0),
             "kink": lambda c: KinkAdaptive(c0=8.0), "mse": lambda c: MsePilot()}

    def run(self, y, x, c, rule, kernel, p):
        sample = Sample.from_data(y, c * x, RULE)
        grid = make_grid(BoundaryPolyline.from_vertices(c * self.VERTICES), 5)
        return sample, estimate(sample, grid, self.RULES[rule](c), kernel, p)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(100, 800),
           log_c=st.floats(-6.0, 6.0), rule=st.sampled_from(sorted(RULES)),
           kernel=st.sampled_from(FAMILIES), p=st.integers(0, 2))
    def test_scaling_x_boundary_and_h(self, seed, n, log_c, rule, kernel, p):
        c = 10.0 ** log_c
        rng = np.random.default_rng(seed)
        x = rng.uniform(1e-3, 1.0, (n, 2)) * rng.choice([-1.0, 1.0], (n, 2))
        y = np.where(RULE.contains(x), 1.0, 0.0) + x[:, 0] ** 2 + rng.normal(size=n)
        sample, base = self.run(y, x, 1.0, rule, kernel, p)
        scaled, moved = self.run(y, x, c, rule, kernel, p)
        assert np.array_equal(scaled.treated, sample.treated)
        assert [getattr(f, "code", None) for f in moved.points] \
            == [getattr(f, "code", None) for f in base.points]
        if not base.fitted:
            return
        eps, size = np.finfo(float).eps, np.abs(x).max()
        for f, g, se, se_moved in zip(base.fits, moved.fits, base.surface.se,
                                      moved.surface.se, strict=True):
            assert (g.fit0.n_eff, g.fit1.n_eff) == (f.fit0.n_eff, f.fit1.n_eff)
            sides = (f.fit0, f.fit1)
            kappa = max(s.gram.eigenvalues[-1] / s.gram.eigenvalues[0] for s in sides)
            rel = (p + 1) * max(s.n_eff for s in sides) * eps * kappa * (1.0 + size / f.h)
            assert abs(g.theta_hat - f.theta_hat) <= rel * np.abs(y).max()
            assert abs(se_moved - se) <= rel * se
