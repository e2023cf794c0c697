import dataclasses
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bddist import simulation
from bddist.bandwidth import Fixed, RuleOfThumb
from bddist.errors import InvalidInputError
from bddist.geometry import make_grid
from bddist.simulation import (
    DgpSpec,
    McPointRow,
    beta_variates,
    default_dgp,
    draw_sample,
    gamma_variates,
    run_monte_carlo,
)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


class TestVariates:
    @pytest.mark.parametrize("shape", [0.5, 1.0, 3.0, 4.0, 9.2])
    def test_gamma_moments(self, shape):
        draws = gamma_variates(rng(1), shape, 200000)
        se_mean = np.sqrt(shape / 200000)
        assert abs(draws.mean() - shape) < 4 * se_mean
        assert abs(draws.var() - shape) / shape < 0.05
        assert np.all(draws > 0)

    def test_beta_moments(self):
        draws = beta_variates(rng(2), 3.0, 4.0, 200000)
        mean = 3.0 / 7.0
        var = 12.0 / (49.0 * 8.0)
        assert abs(draws.mean() - mean) < 4 * np.sqrt(var / 200000)
        assert abs(draws.var() - var) / var < 0.05
        assert np.all((draws > 0) & (draws < 1))

    def test_deterministic_given_seed(self):
        a = gamma_variates(rng(3), 3.0, 1000)
        b = gamma_variates(rng(3), 3.0, 1000)
        assert np.array_equal(a, b)

    def test_invalid_shape(self):
        with pytest.raises(InvalidInputError):
            gamma_variates(rng(0), 0.0, 10)
        # A NaN shape would reject every proposal and never return.
        for shape in (np.nan, np.inf):
            with pytest.raises(InvalidInputError, match="positive and finite"):
                gamma_variates(rng(0), shape, 10)


class TestDgpSpec:
    def test_default_values(self):
        spec = default_dgp()
        assert spec.beta0 == (0.335, 2.52e-3, -1.72e-3)
        assert spec.beta1 == (0.698, 2.74e-3, -6.05e-4)
        assert spec.sigma0 == 0.332
        assert spec.sigma1 == 0.435
        assert spec.beta_params == (3.0, 4.0)
        assert spec.boundary.kink_indices == frozenset({1})

    def test_mean_at_origin_treated(self):
        spec = default_dgp()
        assert_allclose(spec.mean_outcome([[0.0, 0.0]], np.array([True]))[0], 0.698)

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidInputError):
            DgpSpec(beta0=(0, 0, 0), beta1=(0, 0, 0), sigma0=-1.0, sigma1=1.0)

    def test_scalars_become_finite_floats(self):
        spec = DgpSpec(beta0=(0, 0, 0), beta1=(0, 0, 0), sigma0=1, sigma1="0.5",
                       score_scale=100, score_shift=-25)
        assert [type(v) for v in (spec.sigma0, spec.sigma1, spec.score_scale,
                                  spec.score_shift)] == [float] * 4
        assert spec.sigma1 == 0.5
        for field in ("sigma0", "sigma1", "score_scale", "score_shift"):
            with pytest.raises(InvalidInputError, match=f"{field} must be finite, got nan"):
                DgpSpec(**{"beta0": (0, 0, 0), "beta1": (0, 0, 0), "sigma0": 1.0,
                           "sigma1": 1.0, field: float("nan")})
        with pytest.raises(ValueError):
            DgpSpec(beta0=(0, 0, 0), beta1=(0, 0, 0), sigma0=1.0, sigma1=1.0,
                    score_scale="abc")
        for params in ((3.0, np.nan), (np.inf, 4.0), (0.0, 4.0)):
            with pytest.raises(InvalidInputError, match="Beta parameters"):
                DgpSpec(beta0=(0, 0, 0), beta1=(0, 0, 0), sigma0=1.0, sigma1=1.0,
                        beta_params=params)

    @pytest.mark.parametrize("field,value", [
        ("sigma0", True), ("sigma1", np.False_), ("score_scale", True), ("score_shift", False),
        ("beta0", (True, 0, 0)), ("beta1", (0, 0, np.True_)), ("beta_params", (3.0, True)),
    ], ids=["sigma0", "sigma1", "score_scale", "score_shift", "beta0", "beta1", "beta_params"])
    def test_bool_is_not_a_number(self, field, value):
        # float(True) is 1.0: a JSON true would run as sigma0 = 1 or Beta(3, 1).
        kwargs = {"beta0": (0, 0, 0), "beta1": (0, 0, 0), "sigma0": 1.0, "sigma1": 1.0,
                  field: value}
        with pytest.raises(InvalidInputError, match=f"{field} must be a number, got "):
            DgpSpec(**kwargs)


class TestDrawSample:
    def test_score_location(self):
        # Each coordinate is 100 Beta(3, 4) - 25 with mean 100 * 3/7 - 25.
        spec = default_dgp()
        n = 60000
        sample = draw_sample(spec, n, 11)
        want = 100.0 * 3.0 / 7.0 - 25.0
        sd = 100.0 * np.sqrt(12.0 / (49.0 * 8.0))
        for coord in (0, 1):
            assert abs(sample.x[:, coord].mean() - want) < 3 * sd / np.sqrt(n)

    def test_zero_control_noise(self):
        spec = DgpSpec(beta0=(1.0, 0.5, -0.25), beta1=(2.0, 0.0, 0.0),
                       sigma0=0.0, sigma1=1.0)
        sample = draw_sample(spec, 4000, 12)
        ctrl = ~sample.treated
        resid = sample.y[ctrl] - (1.0 + sample.x[ctrl] @ np.array([0.5, -0.25]))
        assert np.max(np.abs(resid)) == 0.0

    def test_treated_mean_at_origin(self):
        # Treated observations near the origin average to the treated
        # intercept 0.698.
        spec = default_dgp()
        sample = draw_sample(spec, 200000, 13)
        near = sample.treated & (np.hypot(sample.x[:, 0], sample.x[:, 1]) < 3.0)
        assert near.sum() > 200
        se = spec.sigma1 / np.sqrt(near.sum())
        assert abs(sample.y[near].mean() - 0.698) < 0.01 + 4 * se

    def test_determinism(self):
        spec = default_dgp()
        s1 = draw_sample(spec, 500, 14)
        s2 = draw_sample(spec, 500, 14)
        assert np.array_equal(s1.y, s2.y) and np.array_equal(s1.x, s2.x)

    def test_treatment_follows_rule(self):
        spec = default_dgp()
        sample = draw_sample(spec, 2000, 15)
        assert np.array_equal(sample.treated, spec.assignment.contains(sample.x))


class TestMonteCarlo:
    def small_report(self, reps=6, seed=5):
        spec = default_dgp()
        grid = make_grid(spec.boundary, 5)
        return run_monte_carlo(spec, n=1500, reps=reps, grid=grid,
                               bw_rule=RuleOfThumb(c0=6.0), band_draws=2000,
                               seed=seed)

    def test_single_rep_coverage_binary(self):
        report = self.small_report(reps=1)
        for row in report.rows:
            assert row.ec in (0.0, 1.0)

    def test_rmse_identity(self):
        report = self.small_report()
        for row in report.rows:
            assert abs(row.rmse ** 2 - (row.bias ** 2 + row.sd ** 2)) < 1e-9

    def test_uniform_ec_below_min_per_point_band_coverage(self):
        # The joint coverage event is a subset of each per-point band event.
        report = self.small_report(reps=12)
        per_point = report.band_covered.mean(axis=0)
        assert report.uniform_ec <= per_point.min() + 1e-12

    def test_seed_determinism(self):
        r1 = self.small_report(seed=9)
        r2 = self.small_report(seed=9)
        assert r1.rows == r2.rows
        assert r1.uniform_ec == r2.uniform_ec and r1.uniform_il == r2.uniform_il

    def test_zero_effect_unbiased(self):
        beta = (0.5, 1e-3, -1e-3)
        spec = DgpSpec(beta0=beta, beta1=beta, sigma0=0.3, sigma1=0.3)
        grid = make_grid(spec.boundary, 3)
        report = run_monte_carlo(spec, n=1200, reps=40, grid=grid,
                                 bw_rule=Fixed(8.0), band_draws=2000, seed=6)
        for k, row in enumerate(report.rows):
            assert report.tau[k] == 0.0
            assert abs(row.bias) <= 4.0 * row.sd / np.sqrt(report.reps_used)

    def test_failed_reps_recorded(self):
        # A bandwidth too small to fit anywhere fails every replication.
        spec = default_dgp()
        grid = make_grid(spec.boundary, 3)
        from bddist.errors import BddistError

        with pytest.raises(BddistError, match="every replication failed; nothing to "
                           r"report: InsufficientDataError in 3 \(first: side "):
            run_monte_carlo(spec, n=200, reps=3, grid=grid, bw_rule=Fixed(0.05),
                            band_draws=2000, seed=7)

    def test_partial_failures_flag_report_invalid(self):
        # A marginal sample size fails many replications but not all: the
        # failures are counted, excluded, and push the invalid flag.
        spec = default_dgp()
        grid = make_grid(spec.boundary, 3)
        report = run_monte_carlo(spec, n=60, reps=30, grid=grid,
                                 bw_rule=Fixed(10.0), band_draws=1000, seed=31)
        assert report.reps_used + report.n_failed == 30
        assert 0 < report.n_failed < 30
        assert report.invalid
        assert sum(count for count, _ in report.failures.values()) == report.n_failed
        assert all(message for _, message in report.failures.values())
        assert report.theta.shape == (report.reps_used, 3)

    def test_mse_pilot_rule_inside_harness(self):
        from bddist.bandwidth import MsePilot

        spec = default_dgp()
        grid = make_grid(spec.boundary, 3)
        report = run_monte_carlo(spec, n=900, reps=3, grid=grid,
                                 bw_rule=MsePilot(),
                                 band_draws=1000, seed=32)
        assert report.n_failed == 0
        # Per-point bandwidths may differ across the grid.
        assert report.h_used.shape == (3, 3)
        assert np.all(report.h_used > 0)

    def test_report_csv_roundtrip(self, tmp_path):
        report = self.small_report()
        path = tmp_path / "report.csv"
        report.to_csv(path, precision="full")
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["point_id", "b1", "b2", "h", "bias", "sd", "rmse",
                          "ec", "il"]
        assert lines[-1].startswith("uniform,")
        # Full precision round-trips to at least 12 significant digits.
        row1 = lines[1].split(",")
        assert float(row1[4]) == report.rows[0].bias

    def test_report_csv_rows_are_values(self, monkeypatch):
        report = self.small_report()
        written = []
        monkeypatch.setattr(simulation, "write_csv",
                            lambda path, header, rows, precision: written.append(
                                (header, rows, precision)))
        report.to_csv("unused.csv", precision="full")
        [(header, rows, precision)] = written
        assert header == [f.name for f in dataclasses.fields(McPointRow)]
        assert precision == "full"
        assert [tuple(r) for r in rows[:-1]] == [dataclasses.astuple(r) for r in report.rows]
        assert list(rows[-1]) == ["uniform", *[None] * 6, report.uniform_ec,
                                  report.uniform_il]


# Saved from commit 7ba0069, whose fits ran one point and one side at a time:
# run_monte_carlo(default_dgp(), 2000, 5, bw_rule=RuleOfThumb(c0=8), seed=3).
SIMULATE_FIXTURE = Path(__file__).parent / "fixtures" / "simulate_parent.npz"


def test_monte_carlo_matches_the_saved_replications():
    saved = np.load(SIMULATE_FIXTURE)
    report = run_monte_carlo(default_dgp(), 2000, 5, bw_rule=RuleOfThumb(c0=8.0), seed=3)
    assert report.n_failed == 0
    for name, got in (("theta", report.theta), ("se", report.se),
                      ("h_used", report.h_used), ("band_quantile", report.band_quantile)):
        assert np.array_equal(got, saved[name]), name
