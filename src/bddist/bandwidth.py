"""Bandwidth selection rules and the univariate-rescaling comparison.

Four rules are provided: a fixed user bandwidth, a rule-of-thumb
h = c0 * C_hat * n^{-1/4} with C_hat the sample standard deviation of each
observation's distance to the boundary, a pilot rule minimizing an estimated
MSE over a candidate grid, and a kink-adaptive rule that caps the pilot
bandwidth at the distance to the nearest kink, floored at the rule of thumb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BandwidthSelectionError,
    BddistError,
    InvalidBandwidthError,
    InvalidInputError,
)
from .geometry import BoundaryPolyline, as_point, point_distances
from .kernels import bandwidth_error, support_weights
from .locpoly import GramMatrix, side_failure

NUM_CANDIDATES = 15  # log-spaced candidate bandwidths per point for the pilot rules
DEFAULT_C0 = 1.0
DEFAULT_BW_EXPONENT = 0.25  # the rule of thumb's n^{-1/4} rate


def coordinate_extent(points) -> float:
    """Largest per-coordinate range of a point cloud: a lower bound on its
    diameter that takes one pass over the points and no hull.  It is the one
    check of a cloud, ``data_diameter``'s too: an (n, 2) array of n >= 2
    points whose coordinates and ranges are finite, else it raises."""
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[1] != 2:
        raise InvalidInputError(f"expected an (n, 2) point cloud, got shape {P.shape}")
    if len(P) < 2:
        raise InvalidInputError("need at least 2 points for a diameter")
    # Column by column: a max over axis 0 of an (n, 2) array is far slower.
    # np.max, unlike max, returns a NaN range wherever it sits.
    extent = float(np.max([P[:, j].max() - P[:, j].min() for j in range(P.shape[1])]))
    if not extent < math.inf:
        raise InvalidInputError("point coordinates and their ranges must be finite")
    return extent


def _half_hull(points) -> list:
    """Andrew's monotone chain over lexicographically sorted points: the
    hull vertices from the first point up to, not including, the last.  A
    point that makes no strict left turn is popped, so collinear points and
    duplicates drop out."""
    chain = []
    for x, y in points:
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0.0:
                break
            chain.pop()
        chain.append((x, y))
    return chain[:-1]


def data_diameter(points) -> float:
    """Largest pairwise distance in a 2-d point cloud, over its convex hull.

    The cloud, checked by ``coordinate_extent``, is multiplied by 2^-e, e
    the binary exponent of its extent clamped to [-1000, 1000], so that the
    square of the scaled extent neither overflows nor underflows.  The power
    of two keeps every bit where the unscaled products would not either,
    and 2^k times a cloud has 2^k times its diameter.

    An Akl-Toussaint prefilter first drops the points strictly inside the
    quadrilateral of the extreme points in x + y and x - y, taken
    counterclockwise: those with all four edge cross products > 0.  The
    quadrilateral's corners are points of the cloud, so a point strictly
    inside it is strictly inside the hull and is no hull vertex; a point on
    an edge, or any point of a degenerate quadrilateral, stays.  Andrew's
    monotone chain then runs on the survivors, sorted by x and then y.
    Every hull, a collinear cloud's two vertices included, gives the root of
    the largest dx^2 + dy^2 over its pairs of vertices, over the scale.  The
    worst case is a cloud in convex position (on a circle, say): every point
    survives, the chain loops in Python over each one, and the pair pass is
    quadratic in them.
    """
    P = np.asarray(points, dtype=float)
    e = math.frexp(coordinate_extent(P))[1]
    scale = math.ldexp(1.0, -min(max(e, -1000), 1000))
    P = P * scale
    s, t = P[:, 0] + P[:, 1], P[:, 0] - P[:, 1]
    quad = P[[s.argmin(), t.argmax(), s.argmax(), t.argmin()]]
    inside = np.ones(len(P), dtype=bool)
    for a, b in zip(quad, np.roll(quad, -1, axis=0)):
        inside &= (b[0] - a[0]) * (P[:, 1] - a[1]) - (b[1] - a[1]) * (P[:, 0] - a[0]) > 0.0
    kept = P[~inside]
    kept = kept[np.lexsort((kept[:, 1], kept[:, 0]))].tolist()
    hull = np.array(_half_hull(kept) + _half_hull(kept[::-1]))
    # Chunks of rows, each against the vertices from its first row on, keep
    # the temporaries near 2 MB.  A pair's dx * dx + dy * dy does not depend
    # on the chunking, so neither does the maximum.
    hx, hy = hull[:, 0], hull[:, 1]
    rows = max(1, 2 ** 16 // len(hull))
    largest = 0.0
    for i in range(0, len(hull), rows):
        dx = hx[i:i + rows, None] - hx[None, i:]
        dy = hy[i:i + rows, None] - hy[None, i:]
        largest = max(largest, (dx * dx + dy * dy).max())
    return float(np.sqrt(largest)) / scale


def rot_scale(sample, polyline: BoundaryPolyline) -> float:
    """Scale constant C_hat: sample SD of distance-to-boundary (ddof = 1)."""
    d = polyline.distance_to(sample.x)
    c = float(np.std(d, ddof=1))
    if not np.isfinite(c) or c <= 0.0:
        raise InvalidInputError("degenerate distance scale: all observations equidistant")
    return c


def rot_rate(n: int, exponent: float) -> float:
    """The rule of thumb's n^{-exponent}, inf where it overflows."""
    try:
        return float(n) ** (-exponent)
    except OverflowError:
        return math.inf


def rot_bandwidth_from_scale(scale: float, c0: float, n: int,
                             exponent: float = DEFAULT_BW_EXPONENT) -> float:
    """Pure rule-of-thumb formula h = c0 * scale * n^{-exponent}, which must
    be positive and finite: a NaN or infinite input, or an exponent whose
    n^{-exponent} overflows or underflows to 0, raises."""
    if n < 2:
        raise InvalidInputError(f"need n >= 2, got {n}")
    if not (scale > 0.0 and c0 > 0.0):
        raise InvalidInputError("scale and c0 must be positive")
    h = c0 * scale * rot_rate(n, exponent)
    if not 0.0 < h < math.inf:
        raise InvalidInputError(
            f"rule-of-thumb bandwidth c0 * scale * n^(-exponent) = {h} is not positive "
            f"and finite (c0 = {c0}, scale = {scale:.6g}, n = {n}, exponent = {exponent})")
    return h


def rot_bandwidth(sample, polyline: BoundaryPolyline, c0: float = DEFAULT_C0,
                  exponent: float = DEFAULT_BW_EXPONENT) -> float:
    """Rule-of-thumb bandwidth targeting the n^{-1/4} rate (one h for all points).

    The exponent override (default 1/4) also serves the undersmoothed
    n^{-1/3} choice used for inference-oriented bandwidths.
    """
    return rot_bandwidth_from_scale(rot_scale(sample, polyline), c0, len(sample), exponent)


def candidate_bandwidths(magnitudes, diameter: float,
                         num: int = NUM_CANDIDATES) -> np.ndarray:
    """Log-spaced candidate grid between the 5th percentile of the nonzero
    |D| at a point and half the data diameter.

    ``magnitudes`` holds the point's |D| as one or more ascending arrays,
    such as one per side.  The percentile is ``np.percentile``'s linear
    interpolation, bit for bit, between the two order statistics around
    it; both lie in the heads of the arrays, so nothing else is copied or
    sorted.
    """
    if num < 5:
        raise InvalidInputError(f"candidate grid needs >= 5 points, got {num}")
    nonzero = [np.asarray(m, dtype=float) for m in magnitudes]
    if any(m.ndim != 1 or (m[:1] < 0.0).any() or (m[1:] < m[:-1]).any() for m in nonzero):
        raise InvalidInputError("magnitudes must be ascending nonnegative 1-d arrays")
    nonzero = [m[np.searchsorted(m, 0.0, side="right"):] for m in nonzero]
    count = sum(m.size for m in nonzero)
    if count == 0:
        raise InvalidInputError("all observations coincide with the evaluation point")
    index = (count - 1) * 0.05  # np.percentile's virtual index at q = 5 / 100
    i = int(index)
    head = np.sort(np.concatenate([m[:i + 2] for m in nonzero]))
    a, b = float(head[i]), float(head[min(i + 1, count - 1)])
    t = index - i
    lo = b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t
    hi = 0.5 * diameter
    if not lo < hi:
        raise InvalidInputError(f"empty candidate range [{lo}, {hi}]")
    return np.geomspace(lo, hi, num)


class _Side(NamedTuple):
    """One side's rows at one point by ascending |D|, with their y and the
    side's sign: D = sign * |D|."""

    mags: np.ndarray
    y: np.ndarray
    sign: float


def _split_sides(sample) -> list:
    """Coordinates and outcomes of each side's rows, control first, each
    in sample order; the split does not depend on the point."""
    return [(sample.x.take(rows, axis=0), sample.y.take(rows))
            for rows in (np.flatnonzero(~sample.treated), np.flatnonzero(sample.treated))]


def _point_sides(split, eval_pt) -> list:
    """Both sides of ``_split_sides`` at one point, each from one distance
    pass and one sort by |D|.  Rows tied in |D| may come in any order: a
    candidate's prefix ends after all of them."""
    pt = as_point(eval_pt)
    sides = []
    for sign, (x, y) in zip((-1.0, 1.0), split):
        mags = point_distances(x, pt)
        order = np.argsort(mags)
        sides.append(_Side(mags[order], y[order], sign))
    return sides


class _SidePilot(NamedTuple):
    """One side's pilot sums at every candidate bandwidth h_k.

    The kernel support at h_k is the prefix of the side's rows of length
    ``ends[k]``.  ``weights`` holds K_h(D) on each prefix and ``counts`` its
    positive entries.  Row k of ``sums`` holds the moments
    n^{-1} sum_i w_i (D_i/h)^j for j <= 2p + 2, then the scores
    n^{-1} sum_i w_i y_i (D_i/h)^j for j <= p + 1.  Row j of ``powers`` is
    (D/scale)^j over the longest prefix.
    """

    ends: np.ndarray
    weights: list
    counts: np.ndarray
    sums: np.ndarray
    powers: np.ndarray


def _side_pilot(side: _Side, kernel: str, hs: np.ndarray, p: int, n: int,
                scale: float) -> _SidePilot:
    """Every candidate's sums on one side: one product per candidate over
    its prefix of the power rows (D/scale)^j and of y times the first p + 2
    of them; the sums at h are rescaled by (scale/h)^j.  Each candidate's
    weights take one pass (``support_weights``).
    """
    ends = np.searchsorted(side.mags, hs, side="right")
    m = ends.max()
    # |D| / (sign * scale) has the bits of D / scale, with no copy of D.
    u = side.mags[:m] / (side.sign * scale)
    rows = np.empty((3 * p + 5, m))
    rows[0] = 1.0
    for j in range(1, 2 * p + 3):
        np.multiply(rows[j - 1], u, out=rows[j])
    np.multiply(rows[:p + 2], side.y[:m], out=rows[2 * p + 3:])
    # |D| gives the weights of D: the kernels are even.
    pairs = [support_weights(kernel, side.mags[:e], h) for h, e in zip(hs, ends)]
    weights = [w for w, _ in pairs]
    sums = np.array([rows[:, :e] @ w for w, e in zip(weights, ends)])
    j = np.concatenate([np.arange(2 * p + 3), np.arange(p + 2)])
    sums *= (scale / hs)[:, None] ** j / n
    return _SidePilot(ends, weights, np.array([c for _, c in pairs]), sums, rows[:2 * p + 3])


def mse_pilot_objectives(sample, eval_pt, kernel: str, p: int, candidates,
                         sides=None) -> list:
    """Estimated MSE at each candidate bandwidth at one point, in one pass
    per side.

    The objective at h is the squared gap between the order-(p+1) and the
    order-p effect estimates plus the variance estimate of the order-p fit,
    n^{-2} sum over both sides of phi_i^2, phi_i = l_i w_i (y_i - f_i) with
    l the basis times Psi^{-1} e1 and f the order-p fitted values.

    No fit is run.  Each side takes one distance pass and one sort by |D|
    (``resolve_bandwidths`` passes in the ``sides`` it has sorted), then
    one array of power rows of D: every candidate's Gram moments
    (G_jk = mu_{j+k}) and scores of both orders are one product over the
    prefix of rows within it (``_side_pilot``).  One batched
    eigendecomposition and one stacked solve per order serve every
    candidate and side.  Sums of phi_i^2 run over the residuals themselves,
    not over moments of y^2, so an affine change of y keeps its digits.

    The power rows are (D/scale)^j, ``scale`` the point's farthest row (the
    largest |D| over both sides, 1 if every row sits at the point), so
    every entry lies in [-1, 1].  The scale depends on the point alone and
    every sum, solve and variance is a candidate's own, so any slice of a
    point's grid, scored on its own, gets that slice of the whole grid's
    entries, bit for bit.  The variance's sums of squares run on one
    thread (``np.einsum``, not a BLAS dot), so their bits do not depend on
    the BLAS thread count.

    Returns one entry per candidate: the objective as a float, or the
    BddistError that the order-p or order-(p+1) fit would raise there.  The
    fits' own checks name it: ``bandwidth_error``, then ``side_failure`` at
    order p, then at order p + 1.
    """
    candidates = np.asarray(candidates, dtype=float)
    out = [bandwidth_error(h) for h in candidates]
    valid = [k for k, err in enumerate(out) if err is None]
    if not valid:
        return out
    if sides is None:
        sides = _point_sides(_split_sides(sample), eval_pt)
    hs, n = candidates[valid], len(sample)
    scale = max((float(s.mags[-1]) for s in sides if s.mags.size), default=0.0) or 1.0
    pilots = [_side_pilot(s, kernel, hs, p, n, scale) for s in sides]
    # Axes: candidate, side, then the Gram's rows and columns.
    counts = np.stack([s.counts for s in pilots], axis=1)
    sums = np.stack([s.sums for s in pilots], axis=1)
    grams = sums[..., np.add.outer(np.arange(p + 2), np.arange(p + 2))]
    scores = sums[..., 2 * p + 3:]
    lam_p, vec_p = np.linalg.eigh(grams[..., :p + 1, :p + 1])
    lam_p1, vec_p1 = np.linalg.eigh(grams)
    for k in range(hs.size):
        out[valid[k]] = (side_failure(counts[k], lam_p[k, :, 0], p, hs[k])
                         or side_failure(counts[k], lam_p1[k, :, 0], p + 1, hs[k]))
    ok = [k for k in range(hs.size) if out[valid[k]] is None]
    if not ok:
        return out
    # Order p: columns Psi^{-1} e1 and gamma; order p + 1: its intercepts.
    rhs = np.zeros((len(ok), 2, p + 1, 2))
    rhs[..., 0, 0] = 1.0
    rhs[..., 1] = scores[ok, :, :p + 1]
    order_p = GramMatrix(grams[ok, :, :p + 1, :p + 1], lam_p[ok], vec_p[ok]).solve(rhs)
    order_p1 = GramMatrix(grams[ok], lam_p1[ok], vec_p1[ok]).solve(scores[ok, :, :, None])
    gaps = (order_p[:, 1, 0, 1] - order_p[:, 0, 0, 1]) - (order_p1[:, 1, 0, 0]
                                                          - order_p1[:, 0, 0, 0])
    # Coefficients of the power rows (D/scale)^j for l and f.
    coefs = (np.swapaxes(order_p, -1, -2)
             * ((scale / hs[ok])[:, None] ** np.arange(p + 1))[:, None, None, :])
    for k, gap, coef in zip(ok, gaps, coefs):
        variance = 0.0
        for s, side, c in zip(pilots, sides, coef):
            e = s.ends[k]
            phi, f = c @ s.powers[:p + 1, :e]
            phi *= s.weights[k]
            phi *= np.subtract(side.y[:e], f, out=f)
            variance += float(np.einsum("i,i->", phi, phi))
        out[valid[k]] = float(gap * gap) + variance / (n * n)
    return out


def _first_minimum(objectives) -> int | None:
    """Index of the first of equal minima among the objectives that are
    not errors, or None if none is below inf."""
    best, best_val = None, np.inf
    for k, val in enumerate(objectives):
        if not isinstance(val, BddistError) and val < best_val:
            best, best_val = k, val
    return best


def mse_pilot_bandwidth(sample, eval_pt, kernel: str, p: int, candidates,
                        sides=None, cap=None) -> float:
    """Candidate bandwidth minimizing the estimated MSE at one point, or,
    given ``cap``, the smaller of it and the cap.

    The objectives come from ``mse_pilot_objectives``, given ``sides``:
    no fit is run.  Candidates where a fit would fail (too few
    observations, singular design) are skipped, and the first of equal
    minima wins; if every candidate fails the selection fails.

    With a cap, the candidates are scored in two batches; a candidate's
    objective does not depend on the others scored with it, so each has
    the bits of a whole-grid call.  The first batch holds every candidate
    below the cap and the first one at or above it after them.  If that
    one is the first minimum of its batch (valid, and below every valid
    objective before it), a later candidate can only win by being smaller
    still, and is at or above the cap too: the rest are never scored, and
    the capped pick is the cap.  Otherwise the rest are scored and the pick
    over the whole grid is capped.  The stop test is the pick's tie rule,
    so a change to that rule must change both.
    """
    candidates = np.asarray(candidates, dtype=float)
    if candidates.size < 5:
        raise InvalidInputError("candidate grid needs >= 5 points")
    # stop: the first candidate at or above the cap, after all below it.
    stop = candidates.size
    if cap is not None:
        below = np.flatnonzero(candidates < cap)
        stop = below[-1] + 1 if below.size else 0
    objectives = mse_pilot_objectives(sample, eval_pt, kernel, p, candidates[:stop + 1], sides)
    if stop + 1 < candidates.size and _first_minimum(objectives) != stop:
        objectives += mse_pilot_objectives(sample, eval_pt, kernel, p, candidates[stop + 1:],
                                           sides)
    best = _first_minimum(objectives)
    if best is None:
        raise BandwidthSelectionError(
            f"no candidate bandwidth in [{candidates.min():.3g}, "
            f"{candidates.max():.3g}] produced a valid fit at "
            f"{tuple(as_point(eval_pt).tolist())}"
        )
    h = float(candidates[best])
    return h if cap is None else float(min(h, cap))


def kink_cap(eval_pt, polyline: BoundaryPolyline, rot_h: float) -> float | None:
    """The kink rule's cap on the pilot bandwidth at one point:
    max(rot_h, distance to the nearest kink), or None with no marked kinks."""
    kinks = polyline.kink_points
    if len(kinks) == 0:
        return None
    return max(rot_h, float(point_distances(kinks, as_point(eval_pt)).min()))


def kink_adaptive_bandwidth(eval_pt, polyline: BoundaryPolyline, h_mse: float,
                            rot_h: float) -> float:
    """min(h_mse, max(rot_h, distance to the nearest kink)).

    With no marked kinks the pilot bandwidth is returned unchanged.
    ``resolve_bandwidths`` gets the same h from ``kink_cap`` and the capped
    pilot (``mse_pilot_bandwidth``), which scores only the candidates that
    can still set it.
    """
    if not (h_mse > 0.0 and rot_h > 0.0):
        raise InvalidInputError("bandwidths must be positive")
    cap = kink_cap(eval_pt, polyline, rot_h)
    return float(h_mse if cap is None else min(h_mse, cap))


def univariate_rescale(h_1d: float, p: int, n: int) -> float:
    """Correct a univariate-score bandwidth for the bivariate variance rate.

    The univariate MSE rate n^{-1/(3+2p)} undershoots the correct
    n^{-1/(4+2p)}; the fix multiplies by n^{1/((3+2p)(4+2p))}.
    """
    if not h_1d > 0.0:
        raise InvalidInputError(f"h_1d must be positive, got {h_1d}")
    if n < 1 or p < 0:
        raise InvalidInputError("need n >= 1 and p >= 0")
    return h_1d * float(n) ** (1.0 / ((3 + 2 * p) * (4 + 2 * p)))


# ---------------------------------------------------------------------------
# Rule variants and per-grid resolution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fixed:
    h: float


@dataclass(frozen=True)
class RuleOfThumb:
    c0: float = DEFAULT_C0
    exponent: float = DEFAULT_BW_EXPONENT


@dataclass(frozen=True)
class MsePilot:
    """The pilot rule over NUM_CANDIDATES candidate bandwidths per point."""


@dataclass(frozen=True)
class KinkAdaptive:
    c0: float = DEFAULT_C0
    exponent: float = DEFAULT_BW_EXPONENT


BandwidthRule = Fixed | RuleOfThumb | MsePilot | KinkAdaptive


def resolve_bandwidths(rule, sample, grid, kernel: str, p: int) -> list:
    """Per-evaluation-point bandwidth outcomes under the given rule, on the
    boundary ``grid.polyline``.

    Returns one entry per grid point: the bandwidth as a float, or the
    BddistError raised while selecting it at that point (the convention of
    ``fit_grid``).  Failures that concern the whole rule still raise: fewer
    than 2 observations (checked first), an unknown rule, a degenerate
    distance scale, or a ``Fixed`` or ``RuleOfThumb`` bandwidth outside
    (0, data diameter], NaN included.

    That one bandwidth is checked against the largest per-coordinate extent
    of ``sample.x``, a lower bound on the diameter, and against the exact
    diameter (a convex hull) only when it is not in (0, extent].  The pilot
    rules need no check: each pick is a candidate that passed the
    finite-and-positive screen of ``mse_pilot_objectives`` and lies in
    [5th percentile of the nonzero |D| > 0, diameter / 2], and the kink
    rule's min(h_mse, max(rot_h, d)) lies in [min(h_mse, rot_h), h_mse].

    The pilot rules compute the diameter up front, where their candidate
    grids end, and split the rows by side once per call.  At each point
    each side takes one distance pass over all of its rows (the candidate
    grid starts at a percentile of |D| over the whole sample) and one sort
    by |D|; the sorted sides serve both the candidate grid and every
    candidate's objective (``mse_pilot_objectives``).

    The kink rule computes each point's cap first (``kink_cap``) and hands
    it to ``mse_pilot_bandwidth``, which scores the candidates above it
    only if one of them can still set h.  An objective depends only on its
    point and its candidate, so the outcome is ``kink_adaptive_bandwidth``
    of the whole-grid pick, bit for bit, or the same error; the early stop
    mirrors the pick's tie rule.
    """
    if isinstance(rule, (Fixed, RuleOfThumb)):
        extent = coordinate_extent(sample.x)
        h = (float(rule.h) if isinstance(rule, Fixed)
             else rot_bandwidth(sample, grid.polyline, rule.c0, rule.exponent))
        if not 0.0 < h <= extent:
            diameter = data_diameter(sample.x)
            if not 0.0 < h <= diameter:
                raise InvalidBandwidthError(
                    f"resolved bandwidths must lie in (0, data diameter = {diameter:.6g}]")
        return [h] * grid.count
    diameter = data_diameter(sample.x)
    if not isinstance(rule, (MsePilot, KinkAdaptive)):
        raise InvalidInputError(f"unknown bandwidth rule: {rule!r}")
    rot_h = (rot_bandwidth(sample, grid.polyline, rule.c0, rule.exponent)
             if isinstance(rule, KinkAdaptive) else None)
    split = _split_sides(sample)
    outcomes = []
    for pt in grid.points:
        try:
            cap = None if rot_h is None else kink_cap(pt, grid.polyline, rot_h)
            sides = _point_sides(split, pt)
            h = mse_pilot_bandwidth(sample, pt, kernel, p,
                                    candidate_bandwidths([s.mags for s in sides], diameter),
                                    sides, cap)
        except BddistError as err:
            h = err
        outcomes.append(h)
    return outcomes
