"""Bandwidth selection rules and the univariate-rescaling comparison.

Four rules are provided: a fixed user bandwidth, a rule-of-thumb
h = c0 * C_hat * n^{-1/4} with C_hat the sample standard deviation of each
observation's distance to the boundary, a pilot rule minimizing an estimated
MSE over a candidate grid, and a kink-adaptive rule that caps the pilot
bandwidth at the distance to the nearest kink, floored at the rule of thumb.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BandwidthSelectionError,
    BddistError,
    InsufficientDataError,
    InvalidBandwidthError,
    InvalidInputError,
    SingularGramError,
)
from .geometry import BoundaryPolyline, distance
from .kernels import build_distance_column, kh_weight
from .locpoly import MIN_GRAM_EIGENVALUE, GramMatrix, scaled_basis


def _point_cloud(points) -> np.ndarray:
    P = np.asarray(points, dtype=float)
    if len(P) < 2:
        raise InvalidInputError("need at least 2 points for a diameter")
    return P


def coordinate_extent(points) -> float:
    """Largest per-coordinate range of a point cloud: a lower bound on its
    diameter that takes one pass over the points and no hull."""
    P = _point_cloud(points)
    return max(float(P[:, j].max() - P[:, j].min()) for j in range(P.shape[1]))


def data_diameter(points) -> float:
    """Largest pairwise distance in a point cloud (via the convex hull)."""
    P = _point_cloud(points)
    try:
        from scipy.spatial import ConvexHull, QhullError

        hull = P[ConvexHull(P).vertices]
    except QhullError:
        # Degenerate (collinear) clouds: bounding-box diagonal is exact.
        span = P.max(axis=0) - P.min(axis=0)
        return float(np.hypot(*span))
    diff = hull[:, None, :] - hull[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=2).max()))


def rot_scale(sample, polyline: BoundaryPolyline) -> float:
    """Scale constant C_hat: sample SD of distance-to-boundary (ddof = 1)."""
    d = polyline.distance_to(sample.x)
    c = float(np.std(d, ddof=1))
    if not np.isfinite(c) or c <= 0.0:
        raise InvalidInputError("degenerate distance scale: all observations equidistant")
    return c


def rot_bandwidth_from_scale(scale: float, c0: float, n: int, exponent: float = 0.25) -> float:
    """Pure rule-of-thumb formula h = c0 * scale * n^{-exponent}."""
    if n < 2:
        raise InvalidInputError(f"need n >= 2, got {n}")
    if scale <= 0.0 or c0 <= 0.0:
        raise InvalidInputError("scale and c0 must be positive")
    return c0 * scale * float(n) ** (-exponent)


def rot_bandwidth(sample, polyline: BoundaryPolyline, c0: float = 1.0,
                  exponent: float = 0.25) -> float:
    """Rule-of-thumb bandwidth targeting the n^{-1/4} rate (one h for all points).

    The exponent override (default 1/4) also serves the undersmoothed
    n^{-1/3} choice used for inference-oriented bandwidths.
    """
    return rot_bandwidth_from_scale(rot_scale(sample, polyline), c0, len(sample), exponent)


def candidate_bandwidths(column, diameter: float, num: int = 15) -> np.ndarray:
    """Log-spaced candidate grid between the 5th percentile of nonzero |D| in
    the point's distance column and half the data diameter."""
    if num < 5:
        raise InvalidInputError(f"candidate grid needs >= 5 points, got {num}")
    mags = np.abs(column.values)
    mags = mags[mags > 0.0]
    if mags.size == 0:
        raise InvalidInputError("all observations coincide with the evaluation point")
    lo = float(np.percentile(mags, 5.0))
    hi = 0.5 * diameter
    if not lo < hi:
        raise InvalidInputError(f"empty candidate range [{lo}, {hi}]")
    return np.geomspace(lo, hi, num)


class _SidePilot(NamedTuple):
    """One side's pilot sums at every candidate bandwidth h_k.

    The side's rows are ordered by |D|, so the kernel support at h_k is the
    prefix of length ``ends[k]``.  ``weights`` holds K_h(D) on each prefix
    and ``counts`` its positive entries.  ``moments`` holds
    n^{-1} sum_i w_i (D_i/h)^j for j <= 2p + 2 and ``scores``
    n^{-1} sum_i w_i y_i (D_i/h)^j for j <= p + 1, one row per candidate.
    Column j of ``table`` is (D/h_max)^j, aligned with the ordered ``y``.
    """

    ends: np.ndarray
    weights: list
    counts: np.ndarray
    moments: np.ndarray
    scores: np.ndarray
    table: np.ndarray
    y: np.ndarray


def _side_pilot(column, y, side: int, kernel: str, hs: np.ndarray, p: int) -> _SidePilot:
    """Sort one side by |D| once and sum every candidate's prefix of one
    table of powers (D/h_max)^j, each entry in [-1, 1]; the sums at h are
    rescaled by (h_max/h)^j."""
    idx = np.flatnonzero(column.side_mask(side))
    mags = np.abs(column.values[idx])
    # Rows tied in |D| may come in any order: a prefix ends after all of them.
    order = np.argsort(mags)
    idx, mags = idx[order], mags[order]
    d, y = column.values[idx], y[column.rows[idx]]
    ends = np.searchsorted(mags, hs, side="right")
    h_max = hs.max()
    table = scaled_basis(d / h_max, 2 * p + 2)
    y_table = table[:, :p + 2] * y[:, None]
    weights = [kh_weight(kernel, d[:m], h) for h, m in zip(hs, ends)]
    counts = np.array([np.count_nonzero(w > 0.0) for w in weights])
    ratio = (h_max / hs)[:, None]
    n = len(column)
    moments = np.array([w @ table[:m] for w, m in zip(weights, ends)])
    moments *= ratio ** np.arange(2 * p + 3) / n
    scores = np.array([w @ y_table[:m] for w, m in zip(weights, ends)])
    scores *= ratio ** np.arange(p + 2) / n
    return _SidePilot(ends, weights, counts, moments, scores, table, y)


def _pilot_failure(counts, min_eigenvalues, p: int):
    """The error ``fit_point`` raises first at one candidate, or None.

    ``counts`` holds the positive weights per side and ``min_eigenvalues``
    the smallest Gram eigenvalue per side for order p, then order p + 1:
    the checks of ``fit_side`` in the order the two fits make them.
    """
    for q, min_eig in zip((p, p + 1), min_eigenvalues):
        for side in (0, 1):
            if counts[side] < q + 1:
                return InsufficientDataError(side, int(counts[side]), q + 1)
            if min_eig[side] < MIN_GRAM_EIGENVALUE:
                return SingularGramError(side, float(min_eig[side]))
    return None


def mse_pilot_objectives(sample, column, kernel: str, p: int, candidates) -> list:
    """Estimated MSE at each candidate bandwidth, in one pass per side.

    The objective at h is the squared gap between the order-(p+1) and the
    order-p effect estimates plus the variance estimate of the order-p fit,
    n^{-2} sum over both sides of phi_i^2, phi_i = l_i w_i (y_i - f_i) with
    l the basis times Psi^{-1} e1 and f the order-p fitted values.

    No fit is run.  Each side orders its rows by |D| once and builds one
    table of powers of D (``_side_pilot``); every candidate's Gram moments
    (G_jk = mu_{j+k}) and scores of both orders are then one product each
    over the prefix of rows within it, and the Grams of each order go
    through one batched eigendecomposition.  Sums of phi_i^2 run over the
    residuals themselves, not over moments of y^2, so an affine change of
    y keeps its digits.

    Returns one entry per candidate: the objective as a float, or the
    BddistError that the order-p or order-(p+1) fit would raise there: a
    bandwidth that is not positive, or on a side too few positively
    weighted rows or a Gram eigenvalue below MIN_GRAM_EIGENVALUE, checked
    in the order ``fit_point`` checks them.
    """
    candidates = np.asarray(candidates, dtype=float)
    out = [None] * candidates.size
    valid = np.isfinite(candidates) & (candidates > 0.0)
    for k in np.flatnonzero(~valid):
        out[k] = InvalidBandwidthError(f"bandwidth must be positive, got {candidates[k]}")
    valid = np.flatnonzero(valid)
    if valid.size == 0:
        return out
    hs = candidates[valid]
    sides = [_side_pilot(column, sample.y, t, kernel, hs, p) for t in (0, 1)]
    # Axes: candidate, side, then the Gram's rows and columns.
    counts = np.stack([s.counts for s in sides], axis=1)
    hankel = np.add.outer(np.arange(p + 2), np.arange(p + 2))
    grams = np.stack([s.moments[:, hankel] for s in sides], axis=1)
    scores = np.stack([s.scores for s in sides], axis=1)
    lam_p, vec_p = np.linalg.eigh(grams[..., :p + 1, :p + 1])
    lam_p1, vec_p1 = np.linalg.eigh(grams)
    powers = (hs.max() / hs)[:, None] ** np.arange(p + 1)
    n = len(column)
    for k in range(hs.size):
        err = _pilot_failure(counts[k], (lam_p[k, :, 0], lam_p1[k, :, 0]), p)
        if err is not None:
            out[valid[k]] = err
            continue
        intercepts, variance = np.empty((2, 2)), 0.0  # rows: order p, order p + 1
        for t, s in enumerate(sides):
            g_p = GramMatrix(grams[k, t, :p + 1, :p + 1], lam_p[k, t], vec_p[k, t])
            g_p1 = GramMatrix(grams[k, t], lam_p1[k, t], vec_p1[k, t])
            gamma = g_p.solve(scores[k, t, :p + 1])
            intercepts[:, t] = gamma[0], g_p1.solve(scores[k, t])[0]
            m = s.ends[k]
            lf = s.table[:m, :p + 1] @ (np.column_stack([g_p.inv_e1(), gamma])
                                         * powers[k][:, None])
            phi = lf[:, 0] * s.weights[k] * (s.y[:m] - lf[:, 1])
            variance += float(phi @ phi)
        theta_p, theta_p1 = intercepts[:, 1] - intercepts[:, 0]
        gap = theta_p - theta_p1
        out[valid[k]] = float(gap * gap) + variance / (n * n)
    return out


def mse_pilot_bandwidth(sample, column, kernel: str, p: int, candidates) -> float:
    """Candidate bandwidth minimizing the estimated MSE at the column's point.

    The objectives come from ``mse_pilot_objectives``: one pass per side
    over one table of powers of D serves every candidate, with no fit.
    Candidates where a fit would fail (too few observations, singular
    design) are skipped, and the first of equal minima wins; if every
    candidate fails the selection fails.
    """
    candidates = np.asarray(candidates, dtype=float)
    if candidates.size < 5:
        raise InvalidInputError("candidate grid needs >= 5 points")
    best_h, best_val = None, np.inf
    for h, val in zip(candidates, mse_pilot_objectives(sample, column, kernel, p, candidates)):
        if not isinstance(val, BddistError) and val < best_val:
            best_h, best_val = float(h), val
    if best_h is None:
        raise BandwidthSelectionError(
            f"no candidate bandwidth in [{candidates.min():.3g}, "
            f"{candidates.max():.3g}] produced a valid fit at {tuple(column.eval_pt.tolist())}"
        )
    return best_h


def kink_adaptive_bandwidth(eval_pt, polyline: BoundaryPolyline, h_mse: float,
                            rot_h: float) -> float:
    """min(h_mse, max(rot_h, distance to the nearest kink)).

    With no marked kinks the pilot bandwidth is returned unchanged.
    """
    if h_mse <= 0.0 or rot_h <= 0.0:
        raise InvalidInputError("bandwidths must be positive")
    kinks = polyline.kink_points
    if len(kinks) == 0:
        return float(h_mse)
    d = min(distance(kink, eval_pt) for kink in kinks)
    return float(min(h_mse, max(rot_h, d)))


def univariate_rescale(h_1d: float, p: int, n: int) -> float:
    """Correct a univariate-score bandwidth for the bivariate variance rate.

    The univariate MSE rate n^{-1/(3+2p)} undershoots the correct
    n^{-1/(4+2p)}; the fix multiplies by n^{1/((3+2p)(4+2p))}.
    """
    if h_1d <= 0.0:
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
    c0: float = 1.0
    exponent: float = 0.25


@dataclass(frozen=True)
class MsePilot:
    num_candidates: int = 15


@dataclass(frozen=True)
class KinkAdaptive:
    c0: float = 1.0
    exponent: float = 0.25
    num_candidates: int = 15


BandwidthRule = Fixed | RuleOfThumb | MsePilot | KinkAdaptive


def resolve_bandwidths(rule, sample, polyline: BoundaryPolyline,
                       grid, kernel: str, p: int) -> list:
    """Per-evaluation-point bandwidth outcomes under the given rule.

    Returns one entry per grid point: the bandwidth as a float, or the
    BddistError raised while selecting it at that point (the convention of
    ``fit_grid``).  Failures that concern the whole rule still raise: an
    unknown rule, a degenerate distance scale, or a resolved bandwidth
    outside (0, data diameter], NaN included.

    The pilot rules build one distance column per point over every row (the
    candidate grid starts at a percentile of |D| over the whole sample),
    shared by the candidate grid and the pilot there.  The pilot orders
    each side of the column by |D| once and takes every candidate's
    objective from one table of powers of D (``mse_pilot_objectives``).

    The exact data diameter (a convex hull) is computed up front for the
    pilot rules, whose candidate grids end at half of it.  For ``Fixed`` and
    ``RuleOfThumb`` it is computed only when some bandwidth is not in
    (0, largest per-coordinate extent of ``sample.x``]: that extent is a
    lower bound on the diameter, so a bandwidth inside it passes the check.
    """
    pilot = isinstance(rule, (MsePilot, KinkAdaptive))
    # Both calls reject n < 2 before any rule runs.
    if pilot:
        diameter = data_diameter(sample.x)
    else:
        diameter, extent = None, coordinate_extent(sample.x)
    if isinstance(rule, Fixed):
        outcomes = [float(rule.h)] * grid.count
    elif isinstance(rule, RuleOfThumb):
        outcomes = [rot_bandwidth(sample, polyline, rule.c0, rule.exponent)] * grid.count
    elif pilot:
        rot_h = (rot_bandwidth(sample, polyline, rule.c0, rule.exponent)
                 if isinstance(rule, KinkAdaptive) else None)
        outcomes = []
        for pt in grid.points:
            try:
                column = build_distance_column(sample, pt)
                h = mse_pilot_bandwidth(
                    sample, column, kernel, p,
                    candidate_bandwidths(column, diameter, rule.num_candidates),
                )
                if rot_h is not None:
                    h = kink_adaptive_bandwidth(pt, polyline, h, rot_h)
            except BddistError as err:
                h = err
            outcomes.append(h)
    else:
        raise InvalidInputError(f"unknown bandwidth rule: {rule!r}")
    hs = np.array([h for h in outcomes if not isinstance(h, BddistError)])
    if diameter is None:
        if np.all((hs > 0.0) & (hs <= extent)):
            return outcomes
        diameter = data_diameter(sample.x)
    if not np.all((hs > 0.0) & (hs <= diameter)):
        raise InvalidBandwidthError(
            f"resolved bandwidths must lie in (0, data diameter = {diameter:.6g}]"
        )
    return outcomes
