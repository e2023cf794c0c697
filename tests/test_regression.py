"""Regression against saved estimates, and invariances of the whole pipeline.

``fixtures/fits_parent.npz`` holds the bandwidths, estimates, effective
sample sizes, standard errors and band limits that commit 0098df6 (fits on
n-length arrays) produced for ``_pipeline`` below: the default DGP at
n = 20 000 (seed 0), M = 21 grid points, a triangular kernel, p = 1 and
2000 band draws (seed 0).  Fitting on the kernel support keeps every
Gram and score sum in the same order, so estimates match bit for bit; the
covariance surface sums over fewer zeros, so standard errors and band
limits match to 1e-12.
"""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bddist.bandwidth import Fixed, KinkAdaptive, RuleOfThumb, resolve_bandwidths
from bddist.covariance import build_surface
from bddist.data import Sample
from bddist.geometry import make_grid
from bddist.inference import uniform_band
from bddist.locpoly import fit_grid
from bddist.simulation import default_dgp, draw_sample

FIXTURE = Path(__file__).parent / "fixtures" / "fits_parent.npz"
RULES = {"rot": RuleOfThumb(c0=8.0), "fixed": Fixed(h=6.0), "kink": KinkAdaptive(c0=8.0)}
SPEC = default_dgp()
GRID = make_grid(SPEC.boundary, 21)


def _pipeline(sample, rule, grid=GRID):
    hs = resolve_bandwidths(rule, sample, grid, "triangular", 1)
    fits = fit_grid(sample, grid, "triangular", hs, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        surface = build_surface(fits)
        band = uniform_band(fits, surface, 0.05, 2000, 0)
    return fits, surface, band


@pytest.fixture(scope="module")
def sample_20k():
    return draw_sample(SPEC, 20_000, 0)


@pytest.mark.parametrize("name", sorted(RULES))
def test_matches_saved_fits(sample_20k, name):
    saved = np.load(FIXTURE)
    fits, surface, band = _pipeline(sample_20k, RULES[name])
    assert np.array_equal([f.h for f in fits], saved[f"{name}_h"])
    assert np.array_equal([f.theta_hat for f in fits], saved[f"{name}_theta"])
    assert np.array_equal([[f.fit0.n_eff, f.fit1.n_eff] for f in fits],
                          saved[f"{name}_n_eff"])
    assert_allclose(surface.se, saved[f"{name}_se"], rtol=0, atol=1e-12)
    assert_allclose(band.lower, saved[f"{name}_band_lower"], rtol=0, atol=1e-12)
    assert_allclose(band.upper, saved[f"{name}_band_upper"], rtol=0, atol=1e-12)


SMALL_GRID = make_grid(SPEC.boundary, 5)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_row_order_leaves_estimates_unchanged(seed):
    sample = draw_sample(SPEC, 3000, 1)
    perm = np.random.default_rng(seed).permutation(len(sample))
    shuffled = Sample(sample.y[perm], sample.x[perm], sample.treated[perm])
    base, base_surface, _ = _pipeline(sample, Fixed(15.0), SMALL_GRID)
    moved, moved_surface, _ = _pipeline(shuffled, Fixed(15.0), SMALL_GRID)
    assert_allclose([f.theta_hat for f in moved], [f.theta_hat for f in base],
                    rtol=0, atol=1e-12)
    assert_allclose(moved_surface.se, base_surface.se, rtol=0, atol=1e-12)
    for a, b in zip(moved, base):
        assert (a.fit0.n_eff, a.fit1.n_eff) == (b.fit0.n_eff, b.fit1.n_eff)

