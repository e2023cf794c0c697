import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bddist import bandwidth
from bddist.bandwidth import (
    Fixed,
    KinkAdaptive,
    MsePilot,
    RuleOfThumb,
    candidate_bandwidths,
    coordinate_extent,
    data_diameter,
    kink_adaptive_bandwidth,
    kink_cap,
    mse_pilot_bandwidth,
    mse_pilot_objectives,
    resolve_bandwidths,
    rot_bandwidth,
    rot_bandwidth_from_scale,
    rot_scale,
    univariate_rescale,
)
from bddist.data import Sample
from bddist.errors import (
    BandwidthSelectionError,
    BddistError,
    InsufficientDataError,
    InvalidBandwidthError,
    InvalidInputError,
    SingularGramError,
)
from bddist.geometry import BoundaryPolyline, QuadrantRule, make_grid
from bddist.kernels import FAMILIES
from bddist.locpoly import fit_point
from bddist.simulation import default_dgp, draw_sample
from fit_oracle import build_distance_column
from pilot_oracle import mse_pilot_objective, objective_of_fits, pilot_fits

RULE = QuadrantRule()


def square_sample(rng, n=2500, mean_fn=None, noise=1.0):
    x = rng.uniform(-1, 1, (n, 2))
    y = noise * rng.normal(size=n)
    if mean_fn is not None:
        y = y + mean_fn(x)
    return Sample.from_data(y, x, RULE)


def origin_pilot(sample, num):
    """Distance column at the origin and its candidate bandwidth grid."""
    column = build_distance_column(sample, (0.0, 0.0))
    mags = np.sort(np.abs(column.values))
    return column, candidate_bandwidths([mags], data_diameter(sample.x), num)


class TestRuleOfThumb:
    def test_formula_examples(self):
        assert_allclose(rot_bandwidth_from_scale(1.0, 1.0, 10000), 0.1)
        assert_allclose(rot_bandwidth_from_scale(2.0, 1.0, 10000), 0.2)
        assert_allclose(rot_bandwidth_from_scale(1.0, 1.0, 625), 0.2)

    def test_sixteenfold_n_halves_h(self):
        h1 = rot_bandwidth_from_scale(1.3, 1.0, 500)
        h2 = rot_bandwidth_from_scale(1.3, 1.0, 8000)
        assert_allclose(h2, h1 / 2.0)

    def test_exponent_override(self):
        assert_allclose(rot_bandwidth_from_scale(1.0, 1.0, 1000, exponent=1 / 3),
                        1000 ** (-1 / 3))

    def test_scale_is_sd_of_boundary_distance(self):
        rng = np.random.default_rng(0)
        sample = square_sample(rng, n=400)
        pl = BoundaryPolyline.from_vertices([(0.0, 1.0), (0.0, 0.0), (1.0, 0.0)])
        c = rot_scale(sample, pl)
        assert_allclose(c, np.std(pl.distance_to(sample.x), ddof=1), rtol=1e-12)
        assert_allclose(rot_bandwidth(sample, pl, c0=2.0),
                        2.0 * c * 400 ** -0.25, rtol=1e-12)

    def test_degenerate_scale_rejected(self):
        pl = BoundaryPolyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
        x = np.tile([[0.5, 0.3]], (5, 1))
        sample = Sample(np.arange(5.0), x, np.ones(5, bool))
        with pytest.raises(InvalidInputError):
            rot_bandwidth(sample, pl)

    @pytest.mark.parametrize("c0,exponent", [
        (np.nan, 0.25), (np.inf, 0.25), (1.0, np.nan), (8.0, -400.0), (8.0, 400.0),
        (1e300, -40.0),
    ], ids=["c0-nan", "c0-inf", "exponent-nan", "overflow", "underflow", "product-inf"])
    def test_h_must_be_positive_and_finite(self, c0, exponent):
        with pytest.raises(InvalidInputError):
            rot_bandwidth_from_scale(10.0, c0, 20000, exponent)


class TestKinkAdaptive:
    PL = BoundaryPolyline.from_vertices([(0.0, 2.0), (0.0, 0.0), (2.0, 0.0)])

    def test_kink_distance_binds(self):
        h = kink_adaptive_bandwidth((0.3, 0.0), self.PL, h_mse=0.5, rot_h=0.1)
        assert_allclose(h, 0.3)

    def test_floor_binds(self):
        h = kink_adaptive_bandwidth((0.05, 0.0), self.PL, h_mse=0.5, rot_h=0.1)
        assert_allclose(h, 0.1)

    def test_cap_binds(self):
        h = kink_adaptive_bandwidth((0.8, 0.0), self.PL, h_mse=0.5, rot_h=0.1)
        assert_allclose(h, 0.5)

    def test_no_kinks_returns_pilot(self):
        straight = BoundaryPolyline(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert kink_adaptive_bandwidth((0.5, 0.0), straight, 0.37, 0.1) == 0.37

    @pytest.mark.parametrize("h_mse,rot_h", [(np.nan, 0.1), (0.5, np.nan)])
    def test_nan_bandwidth_rejected(self, h_mse, rot_h):
        with pytest.raises(InvalidInputError, match="bandwidths must be positive"):
            kink_adaptive_bandwidth((0.3, 0.0), self.PL, h_mse, rot_h)

    def test_output_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            h_mse = rng.uniform(0.05, 2.0)
            rot_h = rng.uniform(0.05, 2.0)
            pt = rng.uniform(0, 2, 2)
            h = kink_adaptive_bandwidth(pt, self.PL, h_mse, rot_h)
            assert min(rot_h, h_mse) - 1e-12 <= h <= h_mse + 1e-12


class TestUnivariateRescale:
    def test_p1(self):
        assert_allclose(univariate_rescale(1.0, 1, 10 ** 5), 10 ** (5 / 30), rtol=1e-12)

    def test_p0(self):
        assert_allclose(univariate_rescale(0.5, 0, 10 ** 4), 0.5 * 10 ** (4 / 12),
                        rtol=1e-12)

    def test_n_one_unchanged(self):
        assert univariate_rescale(0.8, 3, 1) == 0.8

    @pytest.mark.parametrize("h_1d", [0.0, np.nan])
    def test_nonpositive_or_nan_h_rejected(self, h_1d):
        with pytest.raises(InvalidInputError, match="h_1d must be positive"):
            univariate_rescale(h_1d, 1, 100)


class TestMsePilot:
    def test_noise_only_selects_largest(self):
        # Constant effect: the objective is variance-dominated, which is
        # decreasing in h for the uniform kernel, so the largest candidate wins.
        rng = np.random.default_rng(2)
        sample = square_sample(rng, n=2500, noise=1.0)
        col, H = origin_pilot(sample, 8)
        h = mse_pilot_bandwidth(sample, col.eval_pt, "uniform", 1, H)
        assert h == H[-1]

    def test_strong_curvature_zero_noise_selects_smallest(self):
        rng = np.random.default_rng(3)

        def curved(x):
            d = np.hypot(x[:, 0], x[:, 1])
            return 25.0 * d * d * np.where(RULE.contains(x), 1.0, -1.0)

        sample = square_sample(rng, n=4000, mean_fn=curved, noise=0.0)
        col, H = origin_pilot(sample, 8)
        h = mse_pilot_bandwidth(sample, col.eval_pt, "uniform", 1, H)
        assert h == H[0]

    def test_matches_fine_grid_scan(self):
        rng = np.random.default_rng(4)

        def gentle(x):
            d = np.hypot(x[:, 0], x[:, 1])
            return 1.5 * d * d * np.where(RULE.contains(x), 1.0, 0.0)

        sample = square_sample(rng, n=3000, mean_fn=gentle, noise=0.4)
        col, H = origin_pilot(sample, 10)
        h = mse_pilot_bandwidth(sample, col.eval_pt, "uniform", 1, H)
        fine = np.geomspace(H[0], H[-1], 100)
        objs = []
        for hf in fine:
            try:
                objs.append(mse_pilot_objective(sample, col, "uniform", 1, float(hf)))
            except Exception:
                objs.append(np.inf)
        best_fine = fine[int(np.argmin(objs))]
        spacing = np.log(H[1] / H[0])
        assert abs(np.log(h / best_fine)) <= spacing + 1e-9

    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("kernel", FAMILIES)
    @pytest.mark.parametrize("a, b", [(-2.0, 3.5), (1e4, 3.5), (-1e8, 0.01)])
    def test_affine_invariance(self, a, b, kernel, p):
        # y -> a + b y scales every objective by b^2, so the pick stays.
        rng = np.random.default_rng(5)

        def gentle(x):
            d = np.hypot(x[:, 0], x[:, 1])
            return d * d * np.where(RULE.contains(x), 1.0, 0.0)

        sample = square_sample(rng, n=2000, mean_fn=gentle, noise=0.5)
        col, H = origin_pilot(sample, 8)
        h1 = mse_pilot_bandwidth(sample, col.eval_pt, kernel, p, H)
        scaled = Sample(b * sample.y + a, sample.x, sample.treated)
        h2 = mse_pilot_bandwidth(scaled, col.eval_pt, kernel, p, H)
        assert h1 == h2

    def test_all_candidates_failing(self):
        rng = np.random.default_rng(6)
        sample = square_sample(rng, n=50)
        with pytest.raises(BandwidthSelectionError):
            mse_pilot_bandwidth(sample, (0.0, 0.0), "uniform", 1, np.full(6, 1e-9))

    def test_candidate_grid_shape(self):
        rng = np.random.default_rng(7)
        sample = square_sample(rng, n=500)
        _, H = origin_pilot(sample, 15)
        assert len(H) == 15
        assert np.all(np.diff(np.log(H)) > 0)
        assert_allclose(H[-1], 0.5 * data_diameter(sample.x))


def percentile_grid(mags, diameter, num):
    """The candidate grid from ``np.percentile`` over the nonzero |D|: the
    formula ``candidate_bandwidths`` must match bit for bit."""
    mags = np.asarray(mags, dtype=float)
    mags = mags[mags > 0.0]
    if mags.size == 0:
        raise InvalidInputError("all observations coincide with the evaluation point")
    lo = float(np.percentile(mags, 5.0))
    hi = 0.5 * diameter
    if not lo < hi:
        raise InvalidInputError(f"empty candidate range [{lo}, {hi}]")
    return np.geomspace(lo, hi, num)


@st.composite
def magnitude_cases(draw):
    """1-60 magnitudes with zeros (rows at the point), ties and duplicated
    rows, dealt to one or two ascending sides, and a diameter that may
    leave the candidate range empty."""
    pool = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=60))
    n = draw(st.integers(1, 60))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    mags = np.array(pool)[picks]
    zeros = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    mags[np.array(zeros) == 0] = 0.0
    treated = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    sides = [np.sort(mags[~treated]), np.sort(mags[treated])]
    if draw(st.integers(0, 3)):
        diameter = 4e3
    else:
        diameter = 2.0 * draw(st.sampled_from([0.0, *pool]))
    return mags, sides, diameter


@settings(max_examples=300, deadline=None)
@given(case=magnitude_cases(), num=st.integers(5, 20))
def test_candidate_grid_matches_percentile_bit_for_bit(case, num):
    mags, sides, diameter = case
    try:
        want = percentile_grid(mags, diameter, num)
    except InvalidInputError as err:
        with pytest.raises(InvalidInputError) as got:
            candidate_bandwidths(sides, diameter, num)
        assert str(got.value) == str(err)
        return
    got = candidate_bandwidths(sides, diameter, num)
    assert got.tobytes() == want.tobytes()
    assert candidate_bandwidths([np.sort(mags)], diameter, num).tobytes() == want.tobytes()


def test_candidate_grid_rejects_unsorted_or_negative_magnitudes():
    for mags in ([2.0, 1.0], [-1.0, 1.0], [[1.0, 2.0]]):
        with pytest.raises(InvalidInputError, match="ascending nonnegative"):
            candidate_bandwidths([np.array(mags)], 10.0, 5)


def pilot_case(seed, kind, n, duplicate, lo, hi, num, picks):
    """A sample, its distance column at the origin and a candidate grid.

    Supports range from two-sided and dense to near-empty (a handful of
    rows) and one-sided (no control row near the point).  Some candidates
    equal a row's |D| exactly, so rows sit on the edge of the support.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (n, 2))
    if kind == "one-sided":
        # Control rows move more than 0.8 away from the origin.
        x = np.where(RULE.contains(x)[:, None], x, x - 0.8)
    if duplicate:
        x = np.vstack([x, x[: n // 2]])
    y = rng.normal(size=len(x)) + x[:, 0] ** 2
    sample = Sample.from_data(y, x, RULE)
    column = build_distance_column(sample, (0.0, 0.0))
    mags = np.abs(column.values)
    H = np.geomspace(lo, hi, num)
    H = np.concatenate([H, mags[picks][mags[picks] > 0.0]])
    return sample, column, H


@st.composite
def pilot_cases(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["two-sided", "near-empty", "one-sided"]))
    n = draw(st.integers(2, 12)) if kind == "near-empty" else draw(st.integers(10, 400))
    duplicate = draw(st.booleans())
    num = draw(st.integers(5, 12))
    lo, hi = draw(st.floats(0.02, 0.5)), draw(st.floats(0.6, 3.0))
    picks = draw(st.lists(st.integers(0, n + (n // 2 if duplicate else 0) - 1),
                          max_size=3))
    return pilot_case(seed, kind, n, duplicate, lo, hi, num, picks)


def oracle_outcomes(sample, column, kernel, p, H):
    """The fit oracle at each candidate: (objective, kappa, s) or its error.

    kappa is the largest condition number of the four Grams (two orders,
    two sides) and s the largest |intercept| of the four side fits.
    """
    out = []
    for h in H:
        try:
            fits = pilot_fits(sample, column, kernel, p, float(h))
        except BddistError as err:
            out.append(err)
            continue
        sides = [f.side(t) for f in fits for t in (0, 1)]
        kappa = max(sf.gram.eigenvalues[-1] / sf.gram.eigenvalues[0] for sf in sides)
        scale = max(abs(sf.intercept) for sf in sides)
        out.append((objective_of_fits(*fits), kappa, scale))
    return out


@settings(max_examples=200, deadline=None)
@given(case=pilot_cases(), kernel=st.sampled_from(FAMILIES), p=st.integers(0, 2))
# Every row lies within the three largest candidates: under the uniform kernel
# their objectives are equal, and Grams with condition numbers near 1e9 round
# them apart in the eighth digit.
@example(case=pilot_case(163, "near-empty", 8, False, 0.5, 2.90625, 5, []),
         kernel="uniform", p=2)
def test_pilot_objectives_match_the_fit_oracle(case, kernel, p):
    """Same failures as the fits; objectives within the rounding that the
    Grams' conditioning and the intercepts' size allow; the pick is the first
    minimum of those objectives, and the oracle's own pick unless the oracle's
    objectives tie there: to 1e-8, or exactly, as uniform-kernel candidates
    whose supports hold the same rows do."""
    sample, column, H = case
    got = mse_pilot_objectives(sample, column.eval_pt, kernel, p, H)
    want = oracle_outcomes(sample, column, kernel, p, H)
    assert [type(v) for v in got] == [type(v) if isinstance(v, BddistError) else float
                                      for v in want]
    objectives, ours = {}, {}
    for h, g, w in zip(H, got, want):
        if isinstance(w, BddistError):
            if not isinstance(w, SingularGramError):
                assert str(g) == str(w)
            continue
        objective, kappa, scale = w
        assert abs(g - objective) <= 1e-13 * kappa * (objective + scale * scale)
        objectives.setdefault(float(h), objective)
        ours.setdefault(float(h), g)
    if not objectives:
        with pytest.raises(BandwidthSelectionError):
            mse_pilot_bandwidth(sample, column.eval_pt, kernel, p, H)
        return
    best_h = min(objectives, key=objectives.get)  # the first of equal minima
    h = mse_pilot_bandwidth(sample, column.eval_pt, kernel, p, H)
    assert h == min(ours, key=ours.get)
    # The weights K(u)/h^2 scale out of every term of the objective, so under
    # the uniform kernel candidates holding the same rows share it exactly.
    mags = np.abs(column.values)
    same_rows = kernel == "uniform" and np.array_equal(mags / h <= 1.0, mags / best_h <= 1.0)
    assert (h == best_h or same_rows
            or abs(objectives[h] - objectives[best_h]) <= 1e-8 * objectives[best_h])


@pytest.mark.parametrize("p", [0, 1, 2])
def test_pilot_names_the_first_failure_of_the_two_fits(p):
    """Each candidate's entry is the error of the order-p fit at it, or, when
    that fit passes, of the order-(p+1) fit: at H[k], side 0 holds k rows."""
    rng = np.random.default_rng(5)
    control = np.column_stack([-0.1 * np.arange(1, p + 3), np.zeros(p + 2)])
    x = np.vstack([control, rng.uniform(0.0, 1.0, (200, 2))])
    sample = Sample.from_data(rng.normal(size=len(x)), x, RULE)
    H = 0.1 * np.arange(p + 3) + 0.05
    got = mse_pilot_objectives(sample, (0.0, 0.0), "triangular", p, H)
    for h, entry in zip(H, got):
        want = None
        for q in (p, p + 1):
            try:
                fit_point(sample, (0.0, 0.0), "triangular", h, q)
            except BddistError as err:
                want = err
                break
        assert type(entry) is (float if want is None else type(want))
        assert want is None or str(entry) == str(want)
    # p + 1 rows fit at order p but not at order p + 1.
    assert str(got[p + 1]) == str(InsufficientDataError(0, p + 1, p + 2))
    assert str(got[p]) == str(InsufficientDataError(0, p, p + 1))
    assert isinstance(got[p + 2], float)


def outcome(value):
    """A float by its repr, an error by its class and message."""
    if isinstance(value, BddistError):
        return type(value).__name__, str(value)
    assert type(value) is float
    return repr(value)


def assert_slices_have_the_whole_grid_bits(sample, eval_pt, kernel, p, H, slices):
    """Each slice of the grid, scored on its own, gets the whole grid's entries."""
    whole = mse_pilot_objectives(sample, eval_pt, kernel, p, H)
    for lo, hi in slices:
        part = mse_pilot_objectives(sample, eval_pt, kernel, p, H[lo:hi])
        assert [outcome(v) for v in part] == [outcome(v) for v in whole[lo:hi]], (lo, hi)
    return whole


@settings(max_examples=150, deadline=None)
@given(case=pilot_cases(), kernel=st.sampled_from(FAMILIES), p=st.integers(0, 2),
       lo=st.integers(0, 20), width=st.integers(1, 20))
def test_a_slice_scored_alone_has_the_whole_grid_bits(case, kernel, p, lo, width):
    sample, column, H = case
    lo %= H.size
    assert_slices_have_the_whole_grid_bits(sample, column.eval_pt, kernel, p, H,
                                           [(lo, min(H.size, lo + width))])


@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("kernel", FAMILIES)
def test_every_slice_has_the_whole_grid_bits(kernel, p):
    # No control row within 0.8 of the origin: the small candidates fail,
    # so most slices hold failures and objectives.
    sample, column, H = pilot_case(3, "one-sided", 300, True, 0.05, 2.5, 12, [5, 77])
    slices = [(lo, hi) for lo in range(H.size) for hi in range(lo + 1, H.size + 1)]
    whole = assert_slices_have_the_whole_grid_bits(sample, column.eval_pt, kernel, p, H, slices)
    assert isinstance(whole[0], InsufficientDataError)
    assert sum(isinstance(v, float) for v in whole) >= 3


KINKED = TestKinkAdaptive.PL  # its kink is the origin, so the cap there is rot_h
ORIGIN = (0.0, 0.0)


def point_scale_case(name):
    """(sample, column, H) at the origin for the edge cases of the power
    rows' scale, the point's farthest row."""
    rng = np.random.default_rng(21)
    H = np.geomspace(0.05, 2.0, 8)
    if name == "every-row-at-the-point":
        x = np.zeros((30, 2))  # the origin is treated: no control row
    elif name == "one-side-empty":
        x = rng.uniform(0.1, 1.0, (200, 2))
    else:
        x = rng.uniform(-1.0, 1.0, (300, 2))
    sample = Sample.from_data(rng.normal(size=len(x)), x, RULE)
    column = build_distance_column(sample, ORIGIN)
    if name == "farthest-row-at-the-largest-candidate":
        H[-1] = np.abs(column.values).max()
    return sample, column, H


@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("kernel", FAMILIES)
@pytest.mark.parametrize("name", ["every-row-at-the-point", "one-side-empty",
                                  "farthest-row-at-the-largest-candidate"])
def test_point_scale_edge_cases(name, kernel, p):
    """Every slice has the whole grid's bits, with no RuntimeWarning (a zero
    scale would divide 0 by 0), and the outcomes are the fits'."""
    sample, column, H = point_scale_case(name)
    slices = [(lo, hi) for lo in range(H.size) for hi in range(lo + 1, H.size + 1)]
    got = assert_slices_have_the_whole_grid_bits(sample, ORIGIN, kernel, p, H, slices)
    if name != "farthest-row-at-the-largest-candidate":
        # Every candidate fails on the empty control side.
        assert [outcome(v) for v in got] == [outcome(InsufficientDataError(0, 0, p + 1))] * H.size
        return
    assert sum(isinstance(v, float) for v in got) >= 4
    for g, w in zip(got, oracle_outcomes(sample, column, kernel, p, H)):
        if isinstance(w, BddistError):
            assert outcome(g) == outcome(w)
        else:
            objective, kappa, scale = w
            assert abs(g - objective) <= 1e-13 * kappa * (objective + scale * scale)


# Every pilot objective at each grid point of the 2*10^4-row default sample,
# for three kernels and p = 0, 1, 2, as JSON (floats by repr), errors by name.
# The larger candidates' prefixes hold more than 10 000 rows, where OpenBLAS
# splits a dot product over its threads.
THREAD_PROBE = """
import json
import numpy as np
from bddist.bandwidth import candidate_bandwidths, data_diameter, mse_pilot_objectives
from bddist.geometry import make_grid, point_distances
from bddist.kernels import FAMILIES
from bddist.simulation import default_dgp, draw_sample
spec = default_dgp()
sample = draw_sample(spec, 20000, 0)
diameter = data_diameter(sample.x)
out = []
for pt in make_grid(spec.boundary, 21).points:
    H = candidate_bandwidths([np.sort(point_distances(sample.x, pt))], diameter)
    for kernel in FAMILIES:
        for p in range(3):
            out.append([v if isinstance(v, float) else type(v).__name__
                        for v in mse_pilot_objectives(sample, pt, kernel, p, H)])
print(json.dumps(out))
"""


def test_pilot_objectives_do_not_depend_on_the_blas_thread_count():
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = [json.loads(subprocess.run(
        [sys.executable, "-c", THREAD_PROBE],
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
        capture_output=True, text=True, timeout=300, check=True).stdout)
        for threads in ("1", "2")]
    assert sum(isinstance(v, float) for r in runs[0] for v in r) > 1000
    assert runs[0] == runs[1]


def scored_sizes(monkeypatch):
    """The number of candidates of each ``mse_pilot_objectives`` call."""
    sizes, score = [], bandwidth.mse_pilot_objectives

    def spy(sample, eval_pt, kernel, p, candidates, *args, **kwargs):
        sizes.append(len(candidates))
        return score(sample, eval_pt, kernel, p, candidates, *args, **kwargs)

    monkeypatch.setattr(bandwidth, "mse_pilot_objectives", spy)
    return sizes


def capped_case(name):
    """(sample, kernel, p, candidates, rot_h, candidates scored) at the origin."""
    rng = np.random.default_rng(14)
    if name == "uniform-tie-straddles-the-cap":
        # Dyadic rows all within 1: the uniform-kernel objectives at 1 and 2
        # are exactly equal and the smallest, and 4 scores above them.
        x = np.array([[-2, -2], [-2, 3], [1, -1], [1, 2], [3, -1], [2, 2], [3, 2]]) / 4.0
        sample = Sample.from_data(np.array([3.0, 1, 3, -3, -3, 1, -1]), x, RULE)
        return sample, "uniform", 0, np.array([0.05, 0.1, 0.2, 1.0, 2.0, 4.0]), 1.5, [5, 1]
    if name == "every-candidate-fails":
        sample = square_sample(rng, n=40)
        return sample, "triangular", 1, np.geomspace(1e-4, 1e-2, 15), 1e-3, [8, 7]
    sample = square_sample(rng, n=600)
    _, H = origin_pilot(sample, 15)
    if name == "cap-below-the-first-candidate":
        return sample, "epanechnikov", 2, H, 0.5 * H[0], [1]
    if name == "cap-equals-a-candidate":
        return sample, "triangular", 1, H, float(H[7]), [8]
    # every-below-cap-candidate-fails: no control row within 0.8 of the
    # origin, so the cap is the first candidate that reaches one.
    x = np.where(RULE.contains(sample.x)[:, None], sample.x, sample.x - 0.8)
    sample = Sample.from_data(sample.y, x, RULE)
    _, H = origin_pilot(sample, 15)
    first = next(k for k, v in enumerate(mse_pilot_objectives(sample, ORIGIN, "uniform", 1, H))
                 if isinstance(v, float))
    return sample, "uniform", 1, H, float(H[first]), [first + 1]


@pytest.mark.parametrize("name", ["cap-below-the-first-candidate", "cap-equals-a-candidate",
                                  "every-below-cap-candidate-fails",
                                  "uniform-tie-straddles-the-cap", "every-candidate-fails"])
def test_capped_pilot_is_the_capped_whole_grid_pick(monkeypatch, name):
    """``resolve_bandwidths``' call for the kink rule gives
    ``kink_adaptive_bandwidth`` of the whole grid's pick, or its error, and
    scores past the first candidate at or above the cap only when that one
    does not win its batch."""
    sample, kernel, p, H, rot_h, want_sizes = capped_case(name)
    cap = kink_cap(ORIGIN, KINKED, rot_h)
    assert cap == rot_h
    whole = mse_pilot_objectives(sample, ORIGIN, kernel, p, H)
    try:
        want = kink_adaptive_bandwidth(ORIGIN, KINKED,
                                       mse_pilot_bandwidth(sample, ORIGIN, kernel, p, H), rot_h)
    except BddistError as err:
        want = err
    sizes = scored_sizes(monkeypatch)
    try:
        got = mse_pilot_bandwidth(sample, ORIGIN, kernel, p, H, cap=cap)
    except BddistError as err:
        got = err
    assert outcome(got) == outcome(want)
    assert sizes == want_sizes
    stop = int(np.sum(H < cap))
    if name == "cap-below-the-first-candidate":
        assert stop == 0 and got == cap
    elif name == "cap-equals-a-candidate":
        assert H[stop] == cap and got == cap
    elif name == "every-below-cap-candidate-fails":
        assert stop > 0 and all(isinstance(v, BddistError) for v in whole[:stop])
        assert got == cap
    elif name == "uniform-tie-straddles-the-cap":
        # The tie keeps the batch going: the first of equal minima, 1, wins.
        assert H[stop - 1] < cap < H[stop] and whole[stop - 1] == whole[stop] < whole[stop + 1]
        assert got == 1.0
    else:
        assert isinstance(got, BandwidthSelectionError)
        assert str(got) == ("no candidate bandwidth in [0.0001, 0.01] produced a valid fit "
                            "at (0.0, 0.0)")


def resolve_sample(seed, n, kind):
    """Uniform rows on [-1, 1]^2; one-sided moves the control rows away from
    the origin, and shrunk scales the cloud so the diameter binds the grids."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (n, 2))
    if kind == "one-sided":
        x = np.where(RULE.contains(x)[:, None], x, x - 0.8)
    elif kind == "shrunk":
        x = 0.3 * x
    return Sample.from_data(rng.normal(size=n), x, RULE)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 400),
       kind=st.sampled_from(["two-sided", "one-sided", "shrunk"]),
       corner=st.floats(0.0, 1.0), kinked=st.booleans(),
       c0=st.sampled_from([0.05, 0.5, 2.0, 8.0]),
       kernel=st.sampled_from(FAMILIES), p=st.integers(0, 2))
def test_kink_rule_is_the_capped_whole_grid_pick(seed, n, kind, corner, kinked, c0, kernel, p):
    """Every point's outcome is ``kink_adaptive_bandwidth`` of the pick
    over the whole candidate grid, bit for bit, or the error that pick
    raises."""
    sample = resolve_sample(seed, n, kind)
    polyline = BoundaryPolyline.from_vertices([(0.0, 1.0), (corner - 1.0, 0.0), (1.0, 0.0)],
                                              None if kinked else ())
    grid = make_grid(polyline, 5)
    rule = KinkAdaptive(c0=c0)
    rot_h = rot_bandwidth(sample, polyline, rule.c0, rule.exponent)
    diameter = data_diameter(sample.x)
    want = []
    for pt in grid.points:
        try:
            mags = np.sort(np.abs(build_distance_column(sample, pt).values))
            h_mse = mse_pilot_bandwidth(sample, pt, kernel, p,
                                        candidate_bandwidths([mags], diameter))
            want.append(kink_adaptive_bandwidth(pt, polyline, h_mse, rot_h))
        except BddistError as err:
            want.append(err)
    got = resolve_bandwidths(rule, sample, grid, kernel, p)
    assert [outcome(v) for v in got] == [outcome(v) for v in want]


class TestResolve:
    PL = BoundaryPolyline.from_vertices([(0.0, 1.0), (0.0, 0.0), (1.0, 0.0)])

    def test_fixed_and_rot(self):
        rng = np.random.default_rng(8)
        sample = square_sample(rng, n=600)
        grid = make_grid(self.PL, 3)
        hs = resolve_bandwidths(Fixed(0.5), sample, grid, "uniform", 1)
        assert_allclose(hs, 0.5)
        hs = resolve_bandwidths(RuleOfThumb(c0=2.0), sample, grid, "uniform", 1)
        assert np.unique(hs).size == 1

    def test_fixed_above_diameter_rejected(self):
        rng = np.random.default_rng(9)
        sample = square_sample(rng, n=100)
        grid = make_grid(self.PL, 2)
        with pytest.raises(InvalidBandwidthError):
            resolve_bandwidths(Fixed(50.0), sample, grid, "uniform", 1)

    @pytest.mark.parametrize("rule", [KinkAdaptive(c0=np.nan), KinkAdaptive(c0=np.inf),
                                      KinkAdaptive(exponent=np.nan)],
                             ids=["c0-nan", "c0-inf", "exponent-nan"])
    def test_kink_rule_with_non_finite_setting_raises(self, rule):
        # A NaN floor would pass max(nan, d) to min(h_mse, nan) = h_mse: no cap.
        sample = draw_sample(default_dgp(), 2000, 0)
        grid = make_grid(default_dgp().boundary, 5)
        with pytest.raises(InvalidInputError):
            resolve_bandwidths(rule, sample, grid, "triangular", 1)

    def test_kink_adaptive_capped_by_pilot(self):
        rng = np.random.default_rng(10)
        sample = square_sample(rng, n=1500)
        grid = make_grid(self.PL, 5)
        hs_mse = resolve_bandwidths(MsePilot(), sample, grid,
                                    "uniform", 1)
        hs_kink = resolve_bandwidths(KinkAdaptive(), sample, grid,
                                     "uniform", 1)
        assert np.all(np.asarray(hs_kink) <= np.asarray(hs_mse) + 1e-12)

    def test_pilot_equals_the_pilot_at_each_point_alone(self):
        # resolve_bandwidths shares each point's sorted sides between the
        # grid and the pilot; each point alone gives the same bandwidth.
        rng = np.random.default_rng(12)
        sample = square_sample(rng, n=1500)
        grid = make_grid(self.PL, 4)
        hs = resolve_bandwidths(MsePilot(), sample, grid,
                                "epanechnikov", 1)
        diameter = data_diameter(sample.x)
        for pt, h in zip(grid.points, hs):
            mags = np.sort(np.abs(build_distance_column(sample, pt).values))
            H = candidate_bandwidths([mags], diameter)
            assert h == mse_pilot_bandwidth(sample, pt, "epanechnikov", 1, H)

    def test_pilot_failure_stays_at_its_point(self):
        # Control data only left of the vertical segment: no candidate at
        # (1, 0) reaches a control observation, the other points resolve.
        rng = np.random.default_rng(11)
        x = np.vstack([rng.uniform(0.0, 1.0, (300, 2)),
                       np.column_stack([rng.uniform(-0.3, 0.0, 300),
                                        rng.uniform(0.0, 1.0, 300)])])
        sample = Sample.from_data(rng.normal(size=600), x, RULE)
        grid = make_grid(self.PL, 3)
        for rule in (MsePilot(), KinkAdaptive(c0=8.0)):
            hs = resolve_bandwidths(rule, sample, grid, "triangular", 1)
            assert [type(h) for h in hs] == [float, float, BandwidthSelectionError]
            assert str(hs[2]).endswith("produced a valid fit at (1.0, 0.0)")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 400),
       kind=st.sampled_from(["two-sided", "one-sided", "shrunk"]),
       rule=st.sampled_from([MsePilot(), KinkAdaptive(c0=0.5), KinkAdaptive(c0=8.0)]),
       kernel=st.sampled_from(FAMILIES), p=st.integers(0, 2))
def test_pilot_picks_lie_in_half_the_diameter(seed, n, kind, rule, kernel, p):
    # Why the pilot rules need no range check in resolve_bandwidths.
    sample = resolve_sample(seed, n, kind)
    grid = make_grid(TestResolve.PL, 4)
    half = data_diameter(sample.x) / 2
    for h in resolve_bandwidths(rule, sample, grid, kernel, p):
        assert isinstance(h, BddistError) or 0.0 < h <= half


COORD = st.floats(-1e6, 1e6, allow_nan=False)


def _pair_diameter(points):
    """The square root of the largest dx^2 + dy^2 over all pairs of points,
    on the points times 2^-e, divided by 2^-e: e is the binary exponent of
    the largest coordinate range, clamped to [-1000, 1000]."""
    e = np.frexp(np.ptp(points, axis=0).max())[1]
    scale = np.ldexp(1.0, -np.clip(e, -1000, 1000))
    diff = (scale * points)[:, None, :] - (scale * points)[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=2).max()) / scale)


def _qhull_diameter(points):
    """Reference diameter: the largest pairwise distance over Qhull's hull
    vertices, or ``_pair_diameter`` of every point where Qhull finds the
    cloud flat."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = points[ConvexHull(points).vertices]
    except QhullError:
        return _pair_diameter(points)
    diff = hull[:, None, :] - hull[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=2).max()))


@st.composite
def grid_clouds(draw):
    """Small integer grids under an integer linear map: they hold
    duplicates, collinear runs and exactly collinear clouds."""
    n = draw(st.integers(2, 40))
    cells = st.tuples(st.integers(0, draw(st.integers(0, 4))),
                      st.integers(0, draw(st.integers(0, 4))))
    grid = np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=float)
    linear_map = draw(st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    return grid @ np.array(linear_map, dtype=float).reshape(2, 2)


@st.composite
def hull_clouds(draw):
    """Float clouds, and the integer grids of ``grid_clouds``."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 40))
        return np.array(draw(st.lists(st.tuples(COORD, COORD), min_size=n, max_size=n)))
    return draw(grid_clouds())


class TestDataDiameter:
    def test_square(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]])
        assert_allclose(data_diameter(pts), np.sqrt(2.0))

    def test_collinear(self):
        pts = np.column_stack([np.linspace(0, 3, 7), np.zeros(7)])
        assert_allclose(data_diameter(pts), 3.0)

    def test_single_point_rejected(self):
        with pytest.raises(InvalidInputError, match="at least 2 points"):
            coordinate_extent(np.zeros((1, 2)))

    def test_non_planar_cloud_rejected(self):
        with pytest.raises(InvalidInputError, match=r"\(n, 2\) point cloud"):
            data_diameter(np.zeros((4, 3)))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    @pytest.mark.parametrize("where", [(1, 0), (1, 1)], ids=["column0", "column1"])
    @pytest.mark.parametrize("fn", [coordinate_extent, data_diameter])
    def test_non_finite_coordinate_rejected(self, fn, where, bad):
        # Python's max over the column ranges would drop a NaN range that
        # comes second; the check must not depend on where the NaN sits.
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        pts[where] = bad
        with pytest.raises(InvalidInputError, match="coordinates"):
            fn(pts)

    @settings(max_examples=300, deadline=None)
    @given(pts=hull_clouds())
    @example(pts=np.array([[0.0, 0.0], [3.0, 4.0]]))
    @example(pts=np.full((5, 2), 2.5))
    @example(pts=np.column_stack([np.arange(6.0), 2.0 * np.arange(6.0) - 1.0]))
    @example(pts=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]]))
    # The chain keeps all three points; Qhull finds the cloud flat.
    @example(pts=np.array([[0.0, 0.0], [836162.0, 1.6953125], [5e-324, 0.0]]))
    def test_equals_qhull_reference(self, pts):
        assert data_diameter(pts) == _qhull_diameter(pts)

    @settings(max_examples=200, deadline=None)
    @given(pts=grid_clouds(), k=st.integers(-1000, 1000))
    def test_a_power_of_two_scales_the_diameter_exactly(self, pts, k):
        assert data_diameter(2.0 ** k * pts) == 2.0 ** k * data_diameter(pts)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("side", [1e155, 1e-160])
    def test_triangle_at_the_ends_of_the_float_range(self, side):
        # Unscaled, the squares of 1e155 overflow and those of 1e-160 are
        # subnormal.
        pts = side * np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
        diameter = data_diameter(pts)
        assert np.isfinite(diameter)
        assert abs(diameter - side) <= 1e-15 * side

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("pts,want,ulps", [
        (np.arange(6.0)[:, None] * np.full((1, 2), 1e-200), np.hypot(5e-200, 5e-200), 1),
        (np.full((5, 2), 2.5), 0.0, 0),
        (np.array([[0.0, 0.0], [5e-324, 0.0]]), 5e-324, 0),
    ], ids=["diagonal-1e-200", "five-equal-points", "subnormal-pair"])
    def test_tiny_and_empty_spans(self, pts, want, ulps):
        assert abs(data_diameter(pts) - want) <= ulps * np.spacing(want)

    @pytest.mark.parametrize("n", [5000, 20000])
    def test_equals_qhull_reference_on_the_default_dgp(self, n):
        x = draw_sample(default_dgp(), n, 0).x
        assert data_diameter(x) == _qhull_diameter(x)

    def test_rounding_flat_cloud_takes_the_largest_pairwise_distance(self):
        # Collinear up to rounding: Qhull finds it flat, the monotone chain
        # keeps all three points, and np.hypot of the span is 1 ulp above
        # the largest pairwise distance.
        pts = np.array([[0.1, 0.2], [0.3, 0.6], [0.7, 1.4000000000000001]])
        diff = pts[:, None, :] - pts[None, :, :]
        assert data_diameter(pts) == np.sqrt((diff ** 2).sum(axis=2).max())

    def test_pairwise_pass_memory_is_bounded(self):
        # Every point on a circle is a hull vertex; one (h, h, 2) pass over
        # 3000 of them would allocate about 360 MB.
        theta = np.linspace(0.0, 2.0 * np.pi, 3000, endpoint=False)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        tracemalloc.start()
        try:
            diameter = data_diameter(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diameter == _qhull_diameter(pts)
        assert peak < 16e6


@st.composite
def point_clouds(draw):
    """Clouds of n >= 2 points: scattered, collinear or with duplicates."""
    n = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(["scattered", "collinear", "duplicated"]))
    if kind == "collinear":
        t = np.array(draw(st.lists(COORD, min_size=n, max_size=n)))
        origin = np.array([draw(COORD), draw(COORD)])
        direction = np.array([draw(COORD), draw(COORD)])
        return origin + t[:, None] * direction * 1e-6
    pts = np.array(draw(st.lists(st.tuples(COORD, COORD), min_size=n, max_size=n)))
    if kind == "duplicated":
        pts = np.vstack([pts, pts[draw(st.integers(0, n - 1))][None, :]])
    return pts


class TestDiameterGuard:
    PL = BoundaryPolyline.from_vertices([(0.0, 1.0), (0.0, 0.0), (1.0, 0.0)])

    @settings(max_examples=200, deadline=None)
    @given(pts=point_clouds())
    def test_extent_bounds_diameter_from_below(self, pts):
        assert coordinate_extent(pts) <= data_diameter(pts)

    def sample(self, n=400, seed=12):
        rng = np.random.default_rng(seed)
        return square_sample(rng, n=n)

    def test_no_hull_when_extent_bounds_h(self, monkeypatch):
        def hull_called(points):
            raise AssertionError("data_diameter called")

        sample = self.sample()
        grid = make_grid(self.PL, 3)
        monkeypatch.setattr(bandwidth, "data_diameter", hull_called)
        assert resolve_bandwidths(Fixed(0.5), sample, grid, "uniform", 1) \
            == [0.5] * 3
        hs = resolve_bandwidths(RuleOfThumb(c0=2.0), sample, grid, "uniform", 1)
        assert len(hs) == 3

    def test_h_between_extent_and_diameter_passes(self):
        sample = self.sample()
        grid = make_grid(self.PL, 2)
        extent, diameter = coordinate_extent(sample.x), data_diameter(sample.x)
        assert extent < diameter
        for h in np.linspace(extent, diameter, 5)[1:]:
            hs = resolve_bandwidths(Fixed(float(h)), sample, grid, "uniform", 1)
            assert hs == [float(h)] * 2

    def test_h_above_diameter_names_exact_diameter(self):
        sample = self.sample()
        grid = make_grid(self.PL, 2)
        diameter = data_diameter(sample.x)
        with pytest.raises(InvalidBandwidthError) as err:
            resolve_bandwidths(Fixed(float(np.nextafter(diameter, np.inf))), sample,
                               grid, "uniform", 1)
        assert str(err.value) == (
            f"resolved bandwidths must lie in (0, data diameter = {diameter:.6g}]")

    @pytest.mark.parametrize("rule", [Fixed(0.5), RuleOfThumb(), MsePilot()])
    def test_single_observation_rejected_before_the_rule_runs(self, rule):
        sample = Sample.from_data([0.0], [[0.5, 0.5]], RULE)
        grid = make_grid(self.PL, 2)
        with pytest.raises(InvalidInputError, match="at least 2 points"):
            resolve_bandwidths(rule, sample, grid, "uniform", 1)

    @pytest.mark.parametrize("h", [0.0, -1.0, np.nan])
    def test_nonpositive_h_rejected(self, h):
        sample = self.sample()
        grid = make_grid(self.PL, 2)
        with pytest.raises(InvalidBandwidthError):
            resolve_bandwidths(Fixed(h), sample, grid, "uniform", 1)
