"""Bandwidth selection rules and the univariate-rescaling comparison.

Four rules are provided: a fixed user bandwidth, a rule-of-thumb
h = c0 * C_hat * n^{-1/4} with C_hat the sample standard deviation of each
observation's distance to the boundary, a pilot rule minimizing an estimated
MSE over a candidate grid, and a kink-adaptive rule that caps the pilot
bandwidth at the distance to the nearest kink, floored at the rule of thumb.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import influence_values
from .errors import (
    BandwidthSelectionError,
    BddistError,
    InvalidBandwidthError,
    InvalidInputError,
)
from .geometry import BoundaryPolyline, distance
from .kernels import DistanceColumn, build_distance_column
from .locpoly import fit_point


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


def mse_pilot_objective(sample, column, kernel: str, p: int, h: float) -> float:
    """Estimated MSE at bandwidth h: squared order-(p+1) vs order-p fit gap
    plus the variance estimate of the order-p fit."""
    fit_p = fit_point(sample, column.eval_pt, kernel, h, p, column=column)
    fit_p1 = fit_point(sample, column.eval_pt, kernel, h, p + 1, column=column)
    bias_proxy = fit_p.theta_hat - fit_p1.theta_hat
    n = len(column)
    (_, phi0), (_, phi1) = (influence_values(fit_p, side) for side in (0, 1))
    variance = float(phi0 @ phi0 + phi1 @ phi1) / (n * n)
    return bias_proxy * bias_proxy + variance


def mse_pilot_objectives(sample, column, kernel: str, p: int, candidates) -> list:
    """``mse_pilot_objective`` at each candidate, fitted on the rows within it.

    At each candidate h the column's rows with |D| <= h, in ascending row
    order, form a sub-column of the same n.  It holds every row the kernel
    weights positively, so both fits see the rows, weights and sums of fits
    on the whole column, bit for bit, and scan only the support.
    Returns one entry per candidate: the objective as a float, or the
    BddistError raised by a fit at that candidate (too few observations, a
    singular design, a bandwidth that is not positive).
    """
    mags = np.abs(column.values)
    out = []
    for h in np.asarray(candidates, dtype=float):
        pos = np.flatnonzero(mags <= h)
        support = DistanceColumn(column.eval_pt, column.values[pos], column.treated[pos],
                                 column.rows[pos], len(column))
        try:
            out.append(mse_pilot_objective(sample, support, kernel, p, float(h)))
        except BddistError as err:
            out.append(err)
    return out


def mse_pilot_bandwidth(sample, column, kernel: str, p: int, candidates) -> float:
    """Candidate bandwidth minimizing the estimated MSE at the column's point.

    The objectives come from ``mse_pilot_objectives``: both fits at a
    candidate run on the sub-column of rows within it.
    Candidates whose fits fail (too few observations, singular design) are
    skipped, and the first of equal minima wins; if every candidate fails
    the selection fails.
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
    shared by the candidate grid and the pilot there.  At each candidate
    the pilot's order-p and order-(p+1) fits run on the sub-column of rows
    within that candidate, not on the whole column.

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
