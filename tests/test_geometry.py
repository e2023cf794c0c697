import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bddist.errors import InvalidInputError
from bddist.geometry import (
    BOUNDARY_TOL,
    ROW_BLOCK,
    BoundaryPolyline,
    PolygonRule,
    QuadrantRule,
    detect_kinks,
    distance,
    load_boundary,
    make_grid,
    signed_distances,
)


def l_shape():
    return BoundaryPolyline.from_vertices([(0, 2), (0, 0), (2, 0)])


def one_shot_distance(pl, P):
    """Distance to the polyline in one pass over all rows per segment."""
    best = np.full(len(P), np.inf)
    for a, b in zip(pl.vertices[:-1], pl.vertices[1:]):
        ab = b - a
        t = np.clip(((P - a) @ ab) / (ab @ ab), 0.0, 1.0)
        proj = a + t[:, None] * ab
        np.minimum(best, np.hypot(P[:, 0] - proj[:, 0], P[:, 1] - proj[:, 1]), out=best)
    return best


class TestDistance:
    def test_345_triangle(self):
        assert distance((0, 0), (3, 4)) == 5.0

    def test_identity(self):
        assert distance((1, 1), (1, 1)) == 0.0

    def test_sqrt2(self):
        assert_allclose(distance((0, 0), (1, 1)), np.sqrt(2.0), rtol=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            distance((np.nan, 0), (0, 0))
        with pytest.raises(InvalidInputError):
            distance((0, 0), (np.inf, 1))


class TestSignedDistance:
    def test_treated_point(self):
        rule = QuadrantRule("+", "+")
        P = np.array([[1.0, 1.0]])
        assert_allclose(signed_distances(P, (0, 0), rule.contains(P)), [np.sqrt(2.0)])

    def test_control_point(self):
        rule = QuadrantRule("+", "+")
        P = np.array([[-1.0, 0.0]])
        assert signed_distances(P, (0, 0), rule.contains(P))[0] == -1.0

    def test_boundary_point_is_treated(self):
        rule = QuadrantRule("+", "+")
        P = np.array([[0.0, 0.0]])
        d = signed_distances(P, (0, 0), rule.contains(P))[0]
        assert d == 0.0 and np.copysign(1.0, d) == 1.0

    def test_sign_tracks_membership_everywhere(self):
        # The sign flips exactly when the point crosses regions, no matter
        # which evaluation point is used; the vectorized form takes the
        # membership mask and agrees with one point at a time, each with
        # its own rule query.
        rng = np.random.default_rng(7)
        for _ in range(10):
            raw = rng.uniform(-1, 1, size=(8, 2))
            hull_rule = PolygonRule(_convex_hull(raw))
            pts = rng.uniform(-1.5, 1.5, size=(60, 2))
            inside = hull_rule.contains(pts)
            for b in rng.uniform(-1, 1, size=(3, 2)):
                d = np.array([signed_distances(pt[None], b, hull_rule.contains(pt[None]))[0]
                              for pt in pts])
                assert np.array_equal(signed_distances(pts, b, inside), d)
                off = np.abs(d) > 1e-9  # skip points that coincide with b
                assert np.all((d[off] > 0) == inside[off])


def _convex_hull(points):
    from scipy.spatial import ConvexHull

    return points[ConvexHull(points).vertices]


class TestPolyline:
    def test_needs_two_vertices(self):
        with pytest.raises(InvalidInputError):
            BoundaryPolyline(np.array([[0.0, 0.0]]))

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(InvalidInputError, match=r"vertex 1 repeats \(0\.0, 0\.0\)"):
            BoundaryPolyline(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))
        # A polygon's edges are a closed polyline, under the same check.
        with pytest.raises(InvalidInputError, match=r"vertex 2 repeats \(1\.0, 0\.0\)"):
            PolygonRule([[0, 0], [1, 0], [1, 0], [0, 1]])

    def test_kink_index_must_be_interior(self):
        with pytest.raises(InvalidInputError):
            BoundaryPolyline(np.array([[0.0, 0.0], [1.0, 0.0]]), frozenset({0}))
        # Vertex 1 is interior here, so only the index's type is at fault.
        V = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]
        for k in (1.5, True, "1"):
            with pytest.raises(InvalidInputError, match="is not an integer"):
                BoundaryPolyline.from_vertices(V, kinks={k})
            with pytest.raises(InvalidInputError, match="is not an integer"):
                BoundaryPolyline(np.array(V), frozenset({k}))
        assert BoundaryPolyline.from_vertices(V, kinks=[1.0, np.int64(1)]).kink_indices == {1}

    def test_arclength_strictly_increasing(self):
        pl = l_shape()
        assert pl.cumulative_arclength[0] == 0.0
        assert np.all(np.diff(pl.cumulative_arclength) > 0)
        assert pl.total_length == 4.0

    def test_arclength_is_not_an_argument(self):
        with pytest.raises(TypeError):
            BoundaryPolyline(np.array([[0.0, 0.0], [1.0, 0.0]]), frozenset(),
                             np.array([0.0, 5.0]))

    def test_point_at_endpoints(self):
        pl = l_shape()
        assert_allclose(pl.point_at(0.0), [0, 2])
        assert_allclose(pl.point_at(4.0), [2, 0])
        assert_allclose(pl.point_at(2.0), [0, 0])

    def test_distance_to(self):
        pl = l_shape()
        assert_allclose(pl.distance_to([[1.0, 1.0]]), [1.0])
        assert_allclose(pl.distance_to([[-1.0, 3.0]]), [np.sqrt(2.0)])

    def test_distance_to_matches_the_one_shot_pass(self):
        # More than two row blocks; rows on the polyline sit either side of
        # each block edge.
        pl = BoundaryPolyline.from_vertices([(0, 30), (0, 0), (30, 0), (40, 25)])
        P = np.random.default_rng(3).uniform(-25, 75, (70001, 2))
        for edge in (ROW_BLOCK, 2 * ROW_BLOCK):
            P[edge - 1:edge + 1] = [(0.0, 12.5), (17.5, 0.0)]
        d = pl.distance_to(P)
        assert np.array_equal(d, one_shot_distance(pl, P))
        assert not d[[ROW_BLOCK - 1, ROW_BLOCK, 2 * ROW_BLOCK - 1, 2 * ROW_BLOCK]].any()

    def test_one_row_last_block_keeps_the_one_shot_bits(self):
        # A one-row product takes another BLAS path, which rounds t
        # differently for some points near a slanted segment (about one in
        # eight); the last row must join the block before it.
        pl = BoundaryPolyline.from_vertices([(0, 30), (0, 0), (30, 0), (40, 25)])
        P = np.random.default_rng(4).uniform(-25, 75, (2 * ROW_BLOCK + 1, 2))
        a, ab, normal = np.array([30.0, 0.0]), np.array([10.0, 25.0]), np.array([25.0, -10.0])
        for t in np.linspace(0.05, 0.95, 40):
            P[-1] = a + t * ab + 1e-5 * normal
            assert pl.distance_to(P)[-1] == one_shot_distance(pl, P)[-1]

    def test_arclength_within_straight_segment(self):
        pl = BoundaryPolyline(np.array([[-5.0, 0.0], [5.0, 0.0]]))
        assert_allclose(pl.arclengths_within([(0, 0)], [2.0]), [4.0])
        assert_allclose(pl.arclengths_within([(0, 1.0)], [2.0]), [2 * np.sqrt(3.0)])
        assert pl.arclengths_within([(0, 3.0)], [2.0])[0] == 0.0

    def test_arclengths_within_many_disks(self):
        # Disks around the kink, tangent to a segment, missing the polyline,
        # covering all of it, and of radius 0, in one pass.
        pl = l_shape()
        centers = [(0, 0), (0.5, 0.5), (1.0, 1.0), (5.0, 5.0), (0, 0), (1.0, 1.0)]
        radii = [1.5, 1.0, 1.0, 0.5, 0.0, 10.0]
        expected = [3.0, 1.0 + 2 * np.sqrt(0.75), 0.0, 0.0, 0.0, 4.0]
        assert_allclose(pl.arclengths_within(centers, radii), expected, rtol=1e-14)
        assert (pl.arclengths_within([(0.5, 0.5)], [1.0])[0]
                == pl.arclengths_within(centers, radii)[1])
        with pytest.raises(InvalidInputError, match="one radius per center"):
            pl.arclengths_within(centers, radii[:-1])


class TestKinkDetection:
    def test_right_angle(self):
        kinks = detect_kinks([(0, 2), (0, 0), (2, 0)], angle_tol=0.01)
        assert kinks == frozenset({1})

    def test_collinear(self):
        assert detect_kinks([(0, 0), (1, 0), (2, 0)], angle_tol=0.01) == frozenset()

    def test_below_tolerance(self):
        # A 0.005 rad turn stays undetected at a 0.01 rad tolerance.
        turn = 0.005
        v = [(0, 0), (1, 0), (1 + np.cos(turn), np.sin(turn))]
        assert detect_kinks(v, angle_tol=0.01) == frozenset()
        assert detect_kinks(v, angle_tol=0.004) == frozenset({1})

    def test_autodetect_on_construction(self):
        pl = BoundaryPolyline.from_vertices([(0, 2), (0, 0), (2, 0)])
        assert pl.kink_indices == frozenset({1})
        assert_allclose(pl.kink_points, [[0, 0]])


class TestMakeGrid:
    def test_l_shape_five_points(self):
        grid = make_grid(l_shape(), 5)
        assert_allclose(grid.points, [[0, 2], [0, 1], [0, 0], [1, 0], [2, 0]],
                        atol=1e-14)

    def test_two_point_segment(self):
        pl = BoundaryPolyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert_allclose(make_grid(pl, 2).points, [[0, 0], [1, 0]], atol=1e-15)

    def test_three_point_segment(self):
        pl = BoundaryPolyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert_allclose(make_grid(pl, 3).points, [[0, 0], [0.5, 0], [1, 0]],
                        atol=1e-15)

    def test_single_point_is_midpoint(self):
        grid = make_grid(l_shape(), 1)
        assert_allclose(grid.points, [[0, 0]], atol=1e-14)

    def test_equal_spacing_random_polyline(self):
        rng = np.random.default_rng(3)
        steps = rng.uniform(-1, 1, size=(9, 2))
        vertices = np.cumsum(np.vstack([[0.0, 0.0], steps]), axis=0)
        pl = BoundaryPolyline.from_vertices(vertices)
        for M in (2, 7, 23):
            grid = make_grid(pl, M)
            gaps = np.diff(grid.arclengths)
            assert_allclose(gaps, pl.total_length / (M - 1), atol=1e-10)

    def test_invalid_size(self):
        with pytest.raises(InvalidInputError):
            make_grid(l_shape(), 0)

    def test_kink_arc_distance(self):
        grid = make_grid(l_shape(), 5)
        assert_allclose(grid.kink_arc_distance(), [2, 1, 0, 1, 2])


class TestAssignmentRules:
    def test_quadrant_boundary_belongs_to_treatment(self):
        rule = QuadrantRule("+", "+")
        pl = l_shape()
        assert rule.contains(pl.vertices).all()
        assert rule.contains(make_grid(pl, 9).points).all()

    def test_quadrant_signs(self):
        rule = QuadrantRule("-", "+")
        assert rule.contains([[-1.0, 1.0]])[0]
        assert not rule.contains([[1.0, 1.0]])[0]
        for plus, minus in ((1, -1), (1.0, -1.0), ("+", "-")):
            assert QuadrantRule(plus, minus) == QuadrantRule(1.0, -1.0)
        # A bool equals 1 or 0 but is not a sign.
        for sign in (True, False, np.True_, 0, 2, "x"):
            with pytest.raises(InvalidInputError, match="x1_sign must be"):
                QuadrantRule(sign)

    def test_polygon_even_odd(self):
        square = PolygonRule(np.array([[0, 0], [2, 0], [2, 2], [0, 2]], float))
        assert square.contains([[1.0, 1.0]])[0]
        assert not square.contains([[3.0, 1.0]])[0]
        assert not square.contains([[-0.5, 1.0]])[0]

    def test_polygon_edges_belong_to_treatment(self):
        square = PolygonRule(np.array([[0, 0], [2, 0], [2, 2], [0, 2]], float))
        assert square.contains([[0.0, 1.0]])[0]
        assert square.contains([[1.0, 0.0]])[0]
        assert square.contains([[2.0, 2.0]])[0]

    def test_closed_polygon_is_the_open_one(self):
        V = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], float)
        open_, closed = PolygonRule(V), PolygonRule(np.vstack([V, V[:1]]))
        assert np.array_equal(closed.vertices, open_.vertices)
        assert np.array_equal(closed.edges.vertices, open_.edges.vertices)
        P = np.random.default_rng(5).uniform(-1, 3, (400, 2))
        P[:8] = [[0, 0], [1, 0], [2, 1], [2, 2], [0, 1], [1, 2], [0, 2], [1, 1]]
        assert np.array_equal(closed.contains(P), open_.contains(P))

    def test_membership_total_on_random_points(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(scale=3.0, size=(500, 2))
        for rule in (QuadrantRule(), PolygonRule(np.array([[0, 0], [1, 0], [0.5, 2.0]]))):
            mask = rule.contains(pts)
            assert mask.dtype == bool and mask.shape == (500,)


def per_edge_contains(V, P):
    """Polygon membership with one even-odd pass and one edge-snap pass per
    edge: the reference that ``PolygonRule.contains`` must match bit for bit."""
    x, y = P[:, 0], P[:, 1]
    inside = np.zeros(len(P), dtype=bool)
    on_edge = np.zeros(len(P), dtype=bool)
    for i in range(len(V)):
        a, b = V[i], V[(i + 1) % len(V)]
        crosses = (a[1] > y) != (b[1] > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_int = a[0] + (y - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
        inside ^= crosses & (x < np.where(crosses, x_int, np.inf))
        ab = b - a
        t = np.clip(((P - a) @ ab) / (ab @ ab), 0.0, 1.0)
        gap = np.hypot(P[:, 0] - (a[0] + t * ab[0]), P[:, 1] - (a[1] + t * ab[1]))
        on_edge |= gap <= BOUNDARY_TOL
    return inside | on_edge


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 12),
       offset=st.sampled_from([0.0, 1e3, 1e6]), integer=st.booleans(),
       n=st.sampled_from([1, 2, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1]))
def test_polygon_masks_match_the_per_edge_passes(seed, m, offset, integer, n):
    # Integer vertices give horizontal and vertical edges, and rows that lie
    # exactly on them; about half the rows are on an edge, a fifth of those
    # at a vertex.
    rng = np.random.default_rng(seed)
    V = rng.integers(-4, 5, (m, 2)) if integer else rng.uniform(-4, 4, (m, 2))
    V = V.astype(float)
    assume(not np.any(np.all(V == np.roll(V, -1, axis=0), axis=1)))
    V += offset
    P = rng.uniform(-6, 6, (n, 2)) + offset
    edge = rng.integers(0, m, n)
    t = rng.integers(0, 5, n) / 4 if integer else rng.uniform(0, 1, n)
    t[rng.uniform(size=n) < 0.2] = 0.0
    on = rng.uniform(size=n) < 0.5
    P[on] = ((1 - t[:, None]) * V[edge] + t[:, None] * V[(edge + 1) % m])[on]
    rule = PolygonRule(V)
    assert np.array_equal(rule.contains(P), per_edge_contains(rule.vertices, P))


class TestBoundaryFile:
    def test_quadrant_spec_roundtrip(self, tmp_path):
        spec = {
            "vertices": [[0, 2], [0, 0], [2, 0]],
            "kinks": [1],
            "assignment": {"quadrant": {"x1_sign": "+", "x2_sign": "+"}},
        }
        path = tmp_path / "boundary.json"
        path.write_text(json.dumps(spec))
        polyline, rule = load_boundary(path)
        assert polyline.kink_indices == frozenset({1})
        assert isinstance(rule, QuadrantRule)
        assert rule.contains([[1.0, 1.0]])[0]

    def test_kinks_autodetected_when_absent(self):
        polyline, _ = load_boundary({
            "vertices": [[0, 2], [0, 0], [2, 0]],
            "assignment": {"quadrant": {}},
        })
        assert polyline.kink_indices == frozenset({1})

    def test_polygon_assignment(self):
        _, rule = load_boundary({
            "vertices": [[0, 0], [1, 0]],
            "assignment": {"polygon": [[0, 0], [1, 0], [1, 1], [0, 1]]},
        })
        assert isinstance(rule, PolygonRule)

    def test_missing_key(self):
        with pytest.raises(InvalidInputError):
            load_boundary({"vertices": [[0, 0], [1, 0]]})

    @pytest.mark.parametrize("change,message", [
        ({"assignment": "quadrant"}, "'assignment' must be an object"),
        ({"assignment": ["quadrant"]}, "'assignment' must be an object"),
        ({"assignment": {"quadrant": 5}}, "'quadrant' must be an object"),
        ({"kinks": 5}, "'kinks' must be an array"),
        ({"kinks": ["a"]}, "kink index 'a' is not an integer"),
        ({"kinks": [1.5]}, "kink index 1.5 is not an integer"),
        ({"kinks": [True]}, "kink index True is not an integer"),
        ({"kinks": [[1]]}, r"kink index \[1\] is not an integer"),
        ({"vertices": [[0, 30], [0, "a"], [30, 0]]}, "'vertices' is not an array of numbers"),
        ({"vertices": {"a": 1}}, "'vertices' is not an array of numbers"),
        ({"vertices": [[0, 30], [0, 10 ** 400]]}, "'vertices' is not an array of numbers"),
        ({"assignment": {"polygon": "abc"}}, "'polygon' is not an array of numbers"),
        ({"assignment": {"polygon": [[0, 0], [1]]}}, "'polygon' is not an array of numbers"),
        ({"vertices": [[0, 30], [0, True], [30, 0]]},
         r"'vertices' is not an array of numbers \(it holds True\)"),
        ({"assignment": {"polygon": [[0, 0], [True, 0], [0, 1]]}},
         r"'polygon' is not an array of numbers \(it holds True\)"),
        ({"assignment": {"quadrant": {"x2_sign": True}}},
         "x2_sign must be '\\+' or '-', got True"),
        ({"assignment": {"quadrant": {"x1_sign": False}}},
         "x1_sign must be '\\+' or '-', got False"),
        ({"assignment": {"polygon": [[0, 0], [80, 0], [80, 0], [80, 80], [0, 80]]}},
         r"vertex 2 repeats \(80\.0, 0\.0\)"),
    ], ids=["assignment-string", "assignment-list", "quadrant-number", "kinks-number",
            "kinks-string", "kinks-fraction", "kinks-bool", "kinks-list", "vertex-string",
            "vertices-object", "vertex-overflow", "polygon-string", "polygon-ragged",
            "vertex-bool", "polygon-bool", "sign-true", "sign-false",
            "polygon-repeat"])
    def test_malformed_spec_is_an_input_error(self, change, message):
        spec = {"vertices": [[0, 30], [0, 0], [30, 0]], "assignment": {"quadrant": {}},
                **change}
        with pytest.raises(InvalidInputError, match=message):
            load_boundary(spec)
