"""Assignment boundary geometry: polylines, region membership, signed distances.

The boundary between the control region and the treatment region is stored
as a polyline (smooth boundaries are approximated by dense polylines), with
corner vertices marked explicitly as kinks.  Region membership is decided by
an assignment rule, with the convention that points on the boundary belong
to the treatment region.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .formatting import read_json

# Points within this distance of the boundary are assigned to treatment, by
# both assignment rules.  It is absolute, in coordinate units: beyond about
# 8192 from the origin one ulp exceeds it, and a point computed on a polygon
# edge there can miss the snap.
BOUNDARY_TOL = 1e-12

# Default turning angle (radians) above which an interior vertex is a kink.
DEFAULT_KINK_ANGLE_TOL = 0.05

# Rows per block in the passes over the whole sample: the (block, 2) points
# and a few block-length temporaries stay in a core's L2 cache.
ROW_BLOCK = 32768


def as_point(p) -> np.ndarray:
    """Coerce to a finite (2,) float array, raising on anything else."""
    arr = np.asarray(p, dtype=float)
    if arr.shape != (2,):
        raise InvalidInputError(f"expected a 2-d point, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"point has non-finite coordinates: {arr}")
    return arr


def _as_points(P) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(P, dtype=float))
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidInputError(f"expected an (n, 2) point array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInputError("point array has non-finite coordinates")
    return arr


def _kink_index(k) -> int:
    """A vertex index given as an integer or an integral float; a bool, a
    string or a fractional value raises."""
    if isinstance(k, bool) or not (isinstance(k, numbers.Integral)
                                   or isinstance(k, float) and k.is_integer()):
        raise InvalidInputError(f"kink index {k!r} is not an integer")
    return int(k)


def row_blocks(n: int) -> list:
    """Slices of ROW_BLOCK rows that cover range(n), in order.

    A last block of one row joins the block before it: a one-row matrix
    product takes another BLAS path, whose sums can differ in the last bit.
    """
    starts = list(range(0, n, ROW_BLOCK))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def point_distances(P, q) -> np.ndarray:
    """Euclidean distances from the points ``P`` to ``q``, with no checks:
    the magnitudes of ``signed_distances``, bit for bit."""
    return np.hypot(P[..., 0] - q[..., 0], P[..., 1] - q[..., 1])


def _segment_distance(P, a, b) -> np.ndarray:
    """Distance from each point in ``P`` to the closed segment [a, b]."""
    ab = b - a
    t = np.clip(((P - a) @ ab) / (ab @ ab), 0.0, 1.0)
    return np.hypot(P[:, 0] - (a[0] + t * ab[0]), P[:, 1] - (a[1] + t * ab[1]))


def distance(a, b) -> float:
    """Euclidean distance between two points."""
    return float(point_distances(as_point(a)[None, :], as_point(b))[0])


# ---------------------------------------------------------------------------
# Boundary polyline
# ---------------------------------------------------------------------------

def detect_kinks(vertices, angle_tol=DEFAULT_KINK_ANGLE_TOL) -> frozenset:
    """Interior vertex indices where the polyline turns by more than angle_tol.

    The turning angle at an interior vertex is the angle between the incoming
    and outgoing segment directions (zero for collinear segments).
    """
    if not 0.0 < angle_tol < np.pi / 2:
        raise InvalidInputError(f"angle_tol must be in (0, pi/2), got {angle_tol}")
    V = _as_points(vertices)
    kinks = set()
    for i in range(1, len(V) - 1):
        u = V[i] - V[i - 1]
        v = V[i + 1] - V[i]
        cross = u[0] * v[1] - u[1] * v[0]
        dot = u @ v
        turn = abs(np.arctan2(cross, dot))
        if turn > angle_tol:
            kinks.add(i)
    return frozenset(kinks)


@dataclass(frozen=True)
class BoundaryPolyline:
    """Assignment boundary stored as an ordered polyline with kink markers.

    Attributes
    ----------
    vertices : (m, 2) array
        Ordered vertices, consecutive vertices distinct.
    kink_indices : frozenset of int
        Interior vertex indices marked as kinks (corners).
    cumulative_arclength : (m,) array
        Arc length from the first vertex to each vertex; starts at 0 and is
        strictly increasing.  Computed from the vertices, not passed in.
    """

    vertices: np.ndarray
    kink_indices: frozenset = field(default_factory=frozenset)
    cumulative_arclength: np.ndarray = field(init=False)

    def __post_init__(self):
        V = _as_points(self.vertices)
        if len(V) < 2:
            raise InvalidInputError("polyline needs at least 2 vertices")
        seg = np.diff(V, axis=0)
        lengths = np.hypot(seg[:, 0], seg[:, 1])
        if np.any(lengths == 0.0):
            i = int(np.argmax(lengths == 0.0)) + 1
            raise InvalidInputError(f"consecutive polyline vertices must be distinct "
                                    f"(vertex {i} repeats {tuple(V[i].tolist())})")
        cum = np.concatenate([[0.0], np.cumsum(lengths)])
        if not np.isfinite(cum[-1]) or cum[-1] <= 0.0:
            raise InvalidInputError("polyline must have positive finite length")
        kinks = frozenset(_kink_index(k) for k in self.kink_indices)
        for k in kinks:
            if not 0 < k < len(V) - 1:
                raise InvalidInputError(f"kink index {k} is not an interior vertex")
        V.setflags(write=False)
        cum.setflags(write=False)
        object.__setattr__(self, "vertices", V)
        object.__setattr__(self, "kink_indices", kinks)
        object.__setattr__(self, "cumulative_arclength", cum)

    @classmethod
    def from_vertices(cls, vertices, kinks=None):
        """Build a polyline, auto-detecting kinks when none are given."""
        if kinks is None:
            kinks = detect_kinks(vertices)
        return cls(np.asarray(vertices, dtype=float), tuple(kinks))

    @property
    def total_length(self) -> float:
        return float(self.cumulative_arclength[-1])

    @property
    def kink_points(self) -> np.ndarray:
        """Coordinates of the marked kink vertices, shape (k, 2)."""
        idx = sorted(self.kink_indices)
        return self.vertices[idx] if idx else np.empty((0, 2))

    def point_at(self, s):
        """Point(s) on the polyline at arc length(s) ``s`` from the start.

        Arc lengths up to 1e-9 outside [0, total_length] are clipped to it,
        and any further out raise.  The slack is absolute, in coordinate
        units: on a polyline longer than about 8.4e6, where one ulp of the
        length exceeds it, a rounded arc length can miss it.
        """
        scalar = np.ndim(s) == 0
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any(s < -1e-9) or np.any(s > self.total_length + 1e-9):
            raise InvalidInputError("arc length outside [0, total_length]")
        s = np.clip(s, 0.0, self.total_length)
        cum = self.cumulative_arclength
        seg_idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(cum) - 2)
        a = self.vertices[seg_idx]
        b = self.vertices[seg_idx + 1]
        seg_len = cum[seg_idx + 1] - cum[seg_idx]
        t = (s - cum[seg_idx]) / seg_len
        pts = a + t[:, None] * (b - a)
        return pts[0] if scalar else pts

    def distance_to(self, P) -> np.ndarray:
        """Euclidean distance from each point in ``P`` to the polyline.

        The rows are walked in the blocks of ``row_blocks``, with the segment
        loop inside each block; every row's arithmetic is the same in any
        block, so the result does not depend on the blocking.
        """
        P = _as_points(P)
        best = np.full(len(P), np.inf)
        for rows in row_blocks(len(P)):
            for a, b in zip(self.vertices[:-1], self.vertices[1:]):
                np.minimum(best[rows], _segment_distance(P[rows], a, b), out=best[rows])
        return best

    def arclengths_within(self, centers, radii) -> np.ndarray:
        """Polyline arc length inside the closed disk around each center.

        One pass over the segments, vectorized over the (center, radius)
        pairs: segment [a, b] meets the circle |a + t (b - a) - c| = r at the
        roots of a quadratic in t, and the part with t in [0, 1] between
        them lies inside the disk.  A nonpositive radius gives 0.
        """
        C = _as_points(centers)
        r = np.asarray(radii, dtype=float).reshape(-1)
        if len(r) != len(C):
            raise InvalidInputError("need one radius per center")
        a = self.vertices[:-1]
        ab = np.diff(self.vertices, axis=0)
        qa = ab[:, 0] * ab[:, 0] + ab[:, 1] * ab[:, 1]
        ac0 = a[:, 0] - C[:, 0, None]
        ac1 = a[:, 1] - C[:, 1, None]
        qb = 2.0 * (ac0 * ab[:, 0] + ac1 * ab[:, 1])
        qc = ac0 * ac0 + ac1 * ac1 - (r * r)[:, None]
        disc = qb * qb - 4.0 * qa * qc
        sq = np.sqrt(np.maximum(disc, 0.0))
        lo = np.maximum((-qb - sq) / (2.0 * qa), 0.0)
        hi = np.minimum((-qb + sq) / (2.0 * qa), 1.0)
        inside = (disc > 0.0) & (hi > lo) & (r > 0.0)[:, None]
        return np.where(inside, (hi - lo) * np.sqrt(qa), 0.0).sum(axis=1)


# ---------------------------------------------------------------------------
# Assignment rules
# ---------------------------------------------------------------------------

def _parse_sign(s, name: str) -> float:
    """+1.0 or -1.0 from "+", "-", 1 or -1; a bool, which equals 1 or 0, raises."""
    if not isinstance(s, (bool, np.bool_)):
        if s in (1, "+"):
            return 1.0
        if s in (-1, "-"):
            return -1.0
    raise InvalidInputError(f"{name} must be '+' or '-', got {s!r}")


@dataclass(frozen=True)
class QuadrantRule:
    """Treatment region is a (closed) quadrant: sign1*x1 >= 0 and sign2*x2 >= 0.

    The boundary (where either product is zero) belongs to treatment, and
    points within BOUNDARY_TOL of it are snapped to treatment.
    """

    x1_sign: float = 1.0
    x2_sign: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "x1_sign", _parse_sign(self.x1_sign, "x1_sign"))
        object.__setattr__(self, "x2_sign", _parse_sign(self.x2_sign, "x2_sign"))

    def contains(self, P) -> np.ndarray:
        """Boolean treatment-membership mask for points ``P``."""
        P = _as_points(P)
        return (self.x1_sign * P[:, 0] >= -BOUNDARY_TOL) & (
            self.x2_sign * P[:, 1] >= -BOUNDARY_TOL
        )


@dataclass(frozen=True)
class PolygonRule:
    """Treatment region is the interior of a closed polygon (even-odd rule).

    Points within BOUNDARY_TOL of any polygon edge count as treated, matching
    the convention that the boundary belongs to the treatment region.  The
    edges are a closed ``BoundaryPolyline`` (the first vertex repeated at the
    end), so consecutive vertices must be distinct, as on a boundary.
    """

    vertices: np.ndarray
    edges: BoundaryPolyline = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        V = _as_points(self.vertices)
        if len(V) < 3:
            raise InvalidInputError("polygon needs at least 3 vertices")
        if np.all(V[0] == V[-1]):
            V = V[:-1]
        if len(V) < 3:
            raise InvalidInputError("polygon needs at least 3 distinct vertices")
        V.setflags(write=False)
        object.__setattr__(self, "vertices", V)
        object.__setattr__(self, "edges", BoundaryPolyline(np.vstack([V, V[:1]])))

    def contains(self, P) -> np.ndarray:
        P = _as_points(P)
        E = self.edges.vertices
        x, y = P[:, 0], P[:, 1]
        inside = np.zeros(len(P), dtype=bool)
        for a, b in zip(E[:-1], E[1:]):
            # Even-odd ray crossing (ray to +x), half-open in y to avoid
            # double counting vertices.
            crosses = (a[1] > y) != (b[1] > y)
            with np.errstate(divide="ignore", invalid="ignore"):
                x_int = a[0] + (y - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
            inside ^= crosses & (x < np.where(crosses, x_int, np.inf))
        return inside | (self.edges.distance_to(P) <= BOUNDARY_TOL)


# Either rule variant; both expose .contains(P) -> bool mask.
AssignmentRule = QuadrantRule | PolygonRule


def signed_distances(P, eval_pt, treated) -> np.ndarray:
    """Signed distances from points ``P`` to ``eval_pt``: + treated, - control.

    The side comes from the boolean mask ``treated``, never from the sign of
    a distance, so a control point at ``eval_pt`` itself scores -0.0.
    """
    d = point_distances(_as_points(P), as_point(eval_pt))
    sign = np.where(treated, 1.0, -1.0)
    return sign * d


# ---------------------------------------------------------------------------
# Evaluation grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalGrid:
    """Ordered evaluation points on the boundary with matching arc lengths."""

    polyline: BoundaryPolyline
    points: np.ndarray
    arclengths: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.points)
        arcs = np.asarray(self.arclengths, dtype=float)
        if len(pts) != len(arcs) or len(pts) < 1:
            raise InvalidInputError("points and arclengths must have equal positive length")
        if np.any(np.diff(arcs) < 0):
            raise InvalidInputError("grid arc lengths must be nondecreasing")
        off = self.polyline.distance_to(pts)
        scale = 1.0 + np.abs(self.polyline.vertices).max()
        if np.any(off > 1e-12 * scale):
            raise InvalidInputError("grid points must lie on the polyline")
        pts.setflags(write=False)
        arcs.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "arclengths", arcs)

    @property
    def count(self) -> int:
        return len(self.points)

    def kink_arc_distance(self) -> np.ndarray:
        """Arc-length distance from each grid point to the nearest kink vertex.

        Returns +inf everywhere if the polyline has no marked kinks.
        """
        idx = sorted(self.polyline.kink_indices)
        if not idx:
            return np.full(self.count, np.inf)
        kink_arcs = self.polyline.cumulative_arclength[idx]
        return np.min(np.abs(self.arclengths[:, None] - kink_arcs[None, :]), axis=1)


def make_grid(polyline: BoundaryPolyline, M: int) -> EvalGrid:
    """M evaluation points at equal arc-length spacing along the polyline.

    Endpoints are included; for M = 1 the single point is the midpoint.
    """
    if M < 1:
        raise InvalidInputError(f"grid size must be >= 1, got {M}")
    L = polyline.total_length
    if M == 1:
        arcs = np.array([L / 2.0])
    else:
        arcs = L * np.arange(M) / (M - 1)
    pts = polyline.point_at(arcs)
    return EvalGrid(polyline, np.atleast_2d(pts), arcs)


# ---------------------------------------------------------------------------
# Boundary spec files
# ---------------------------------------------------------------------------

def _spec_points(value, key: str) -> np.ndarray:
    """The float array of the boundary spec's point list under ``key``; a
    bool, which numpy reads as 0 or 1, is not a number."""
    try:
        points = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"boundary spec {key!r} is not an array of numbers "
                                f"({exc})") from None
    for v in np.asarray(value, dtype=object).flat:
        if isinstance(v, (bool, np.bool_)):
            raise InvalidInputError(f"boundary spec {key!r} is not an array of numbers "
                                    f"(it holds {v!r})")
    return points


def load_boundary(source) -> tuple[BoundaryPolyline, AssignmentRule]:
    """Load a boundary spec from a JSON file path or an already-parsed dict.

    Schema::

        {
          "vertices": [[x, y], ...],
          "kinks": [int, ...],                # optional; auto-detected if absent
          "assignment": {"quadrant": {"x1_sign": "+|-", "x2_sign": "+|-"}}
                        or {"polygon": [[x, y], ...]}
        }

    Any other shape, such as a string in place of an object or an array, a
    coordinate that is not a number or a kink index that is not an integer,
    raises InvalidInputError.
    """
    spec = source if isinstance(source, dict) else read_json(source)
    try:
        vertices = spec["vertices"]
        assignment = spec["assignment"]
    except KeyError as exc:
        raise InvalidInputError(f"boundary spec missing key {exc}") from None
    kinks = spec.get("kinks")
    if kinks is not None and not isinstance(kinks, list):
        raise InvalidInputError(f"boundary spec 'kinks' must be an array, got {kinks!r}")
    polyline = BoundaryPolyline.from_vertices(_spec_points(vertices, "vertices"), kinks=kinks)
    if not isinstance(assignment, dict):
        raise InvalidInputError(f"boundary spec 'assignment' must be an object, "
                                f"got {assignment!r}")
    if "quadrant" in assignment:
        q = assignment["quadrant"]
        if not isinstance(q, dict):
            raise InvalidInputError(f"boundary spec 'quadrant' must be an object, got {q!r}")
        rule = QuadrantRule(q.get("x1_sign", "+"), q.get("x2_sign", "+"))
    elif "polygon" in assignment:
        rule = PolygonRule(_spec_points(assignment["polygon"], "polygon"))
    else:
        raise InvalidInputError("assignment must specify 'quadrant' or 'polygon'")
    return polyline, rule
