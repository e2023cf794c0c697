"""Boundary geometry walkthrough: polylines, kinks, membership, distances.

Builds the L-shaped assignment boundary used throughout the package, shows
how region membership and the signed distance score work, and places an
evaluation grid along the boundary.
"""

import numpy as np

from bddist import (
    BoundaryPolyline,
    QuadrantRule,
    detect_kinks,
    make_grid,
    signed_distances,
)

# An L-shaped boundary: vertical arm down to the corner, then out along x1.
vertices = [(0.0, 2.0), (0.0, 0.0), (2.0, 0.0)]
polyline = BoundaryPolyline.from_vertices(vertices)
print("vertices:", vertices)
print("total length:", polyline.total_length)
print("auto-detected kinks at indices:", sorted(polyline.kink_indices))
print("kink coordinates:", polyline.kink_points.tolist())

# Kink detection is a turning-angle test on interior vertices.
print("\nnearly straight polyline, 0.03 rad turn:")
wobble = [(0.0, 0.0), (1.0, 0.0), (1.0 + np.cos(0.03), np.sin(0.03))]
print("  tol = 0.05 ->", sorted(detect_kinks(wobble, angle_tol=0.05)))
print("  tol = 0.01 ->", sorted(detect_kinks(wobble, angle_tol=0.01)))

# Treatment region: the closed first quadrant.  Points on the boundary are
# treated by convention.
rule = QuadrantRule("+", "+")
probes = np.array([[1.0, 1.0], [-1.0, 0.5], [0.5, -0.5], [0.0, 1.0]])
print("\nmembership (x -> treated):")
for pt, member in zip(probes, rule.contains(probes)):
    print(f"  {pt} -> {bool(member)}")

# The signed distance score to one boundary point: positive on the treated
# side, negative on the control side, magnitude the Euclidean distance.  The
# side comes from the membership mask.
b = np.array([0.0, 0.0])
print(f"\nsigned distances to evaluation point {b}:")
for pt, d in zip(probes, signed_distances(probes, b, rule.contains(probes))):
    print(f"  {pt} -> {d:+.4f}")

# Evaluation grids are equally spaced in arc length with endpoints included.
grid = make_grid(polyline, 9)
print("\n9-point grid (arc length -> point):")
for s, pt in zip(grid.arclengths, grid.points):
    print(f"  {s:5.2f} -> ({pt[0]:5.2f}, {pt[1]:5.2f})")
print("arc distance from each grid point to the nearest kink:")
print(" ", np.round(grid.kink_arc_distance(), 3).tolist())
