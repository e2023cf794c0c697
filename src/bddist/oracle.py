"""Ground-truth machinery: arc-integral conditional means and exact bias.

Two independent oracles live here.  The first evaluates the conditional
mean of the outcome given the distance to a boundary point by integrating
over the admissible arcs of a circle (the set of angles whose point falls in
the queried region).  The second evaluates the exact fixed-bandwidth
population bias of the one-sided local polynomial fit for the worked
quarter-plane example (uniform design, mean zero on the control side and
equal to the second coordinate on the treated side, treatment region the
closed first quadrant, evaluation point at (s, 0) near the corner).

For that example the population normal equations reduce, in polar
coordinates, to the matrix A(s) and vector B(s):

    A(s) = pi * int_0^s r r' K u du
           + int_s^inf (pi - arccos(s/u)) r r' K(u) u du
    B(s) = 2 * int_0^s r K u^2 du
           + int_s^inf (1 + s/u) r K(u) u^2 du

with r = (1, u, ..., u^p)'; the bias of the treated-side intercept relative
to the truth at (s, 0) is e1' A(s)^{-1} B(s), the control side has zero
bias, and bias(h, s) = h * bias(1, s/h).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInputError,
    NoMassError,
    QuadratureError,
    SingularSystemError,
)
from .geometry import as_point
from .kernels import kh_weight

_ANGLE_SAMPLES = 2048
_ANGLE_TOL = 1e-12
_QUAD_TOL = 1e-10


@dataclass(frozen=True)
class ArcScene:
    """Inputs of the arc-integral oracle at one boundary point.

    ``mu`` and ``f_x`` are vectorized functions of (x1, x2); ``f_x = None``
    means a constant design density (which cancels in the ratio).
    """

    center: np.ndarray
    radius: float
    rule: object
    mu: object
    f_x: object = None

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        if not np.isfinite(self.radius) or self.radius <= 0.0:
            raise InvalidInputError(f"radius must be positive, got {self.radius}")


def admissible_arcs(center, radius, rule, side: int) -> list:
    """Angle intervals [lo, hi] whose circle points fall on the given side.

    Membership transitions are bracketed on a fine angular scan and located
    by bisection to 1e-12; intervals may wrap through 2 pi, in which case the
    wrapping arc is returned as (lo, hi + 2 pi).
    """
    c = as_point(center)

    def member(theta):
        th = np.atleast_1d(theta)
        pts = np.column_stack([c[0] + radius * np.cos(th), c[1] + radius * np.sin(th)])
        inside = rule.contains(pts)
        return inside if side == 1 else ~inside

    thetas = np.linspace(0.0, 2.0 * np.pi, _ANGLE_SAMPLES, endpoint=False)
    states = member(thetas)
    if states.all():
        return [(0.0, 2.0 * np.pi)]
    if not states.any():
        return []

    def bisect(lo, hi, state_lo):
        while hi - lo > _ANGLE_TOL:
            mid = 0.5 * (lo + hi)
            if bool(member(mid)[0]) == state_lo:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    crossings = []
    for i in range(_ANGLE_SAMPLES):
        j = (i + 1) % _ANGLE_SAMPLES
        if states[i] != states[j]:
            lo = thetas[i]
            hi = thetas[j] if j != 0 else 2.0 * np.pi
            crossings.append(bisect(lo, hi, bool(states[i])))
    crossings.sort()
    arcs = []
    k = len(crossings)
    for i in range(k):
        lo = crossings[i]
        hi = crossings[(i + 1) % k] + (2.0 * np.pi if i == k - 1 else 0.0)
        mid = 0.5 * (lo + hi)
        if bool(member(mid % (2.0 * np.pi))[0]):
            arcs.append((lo, hi))
    return arcs


def induced_theta(scene: ArcScene, side: int) -> float:
    """Mean outcome at exact distance ``radius`` on one side of the boundary.

    Evaluates the ratio of arc integrals of mu * f_x and f_x over the
    admissible angles, by adaptive quadrature on each arc.

    Raises
    ------
    NoMassError
        The queried side has no admissible arc at this radius.
    """
    arcs = admissible_arcs(scene.center, scene.radius, scene.rule, side)
    if not arcs:
        raise NoMassError(
            f"side {side} has no arc at radius {scene.radius} around "
            f"{tuple(scene.center)}"
        )
    c, r = scene.center, scene.radius
    f_x = scene.f_x if scene.f_x is not None else (lambda x1, x2: np.ones_like(x1))

    def density(theta):
        th = np.asarray(theta)
        return f_x(c[0] + r * np.cos(th), c[1] + r * np.sin(th))

    def weighted(theta):
        th = np.asarray(theta)
        x1 = c[0] + r * np.cos(th)
        x2 = c[1] + r * np.sin(th)
        return scene.mu(x1, x2) * f_x(x1, x2)

    from scipy import integrate

    num = den = 0.0
    for lo, hi in arcs:
        v, _ = integrate.quad(weighted, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200)
        num += v
        v, _ = integrate.quad(density, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200)
        den += v
    if den <= 0.0:
        raise NoMassError("design density integrates to zero on the admissible arcs")
    return num / den


def corner_example_theta(s: float, r: float) -> float:
    """Closed-form conditional mean for the quarter-plane example.

    For the evaluation point (s, 0) on the horizontal boundary arm, mean
    function equal to the second coordinate, and a constant design density:
    the admissible arc is the full upper half circle while r <= s (arc
    average 2 r / pi) and is truncated by the vertical arm for r > s, giving
    (r + s) / (pi - arccos(s / r)).
    """
    if not (s >= 0.0 and r > 0.0):
        raise InvalidInputError("need s >= 0 and r > 0")
    if r <= s:
        return 2.0 * r / np.pi
    return (r + s) / (np.pi - np.arccos(s / r))


# ---------------------------------------------------------------------------
# Fixed-bandwidth bias functionals for the quarter-plane example
# ---------------------------------------------------------------------------

def _quad_checked(fn, lo, hi):
    if hi <= lo:
        return 0.0, 0.0
    from scipy import integrate

    val, err = integrate.quad(fn, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=400)
    if err > max(_QUAD_TOL, 1e-8 * abs(val)):
        raise QuadratureError(
            f"quadrature error {err:.2e} above tolerance on [{lo}, {hi}]"
        )
    return val, err


def bias_functionals(kernel: str, p: int, s: float, h: float = 1.0):
    """Population normal-equation pieces (A(s), B(s)) at bandwidth h.

    Integrals run in the raw distance variable over [0, h] with a mandatory
    panel break at u = s where the arccos term kicks in; at h = 1 this is
    the normalized form quoted in the module docstring.

    Returns (A, B, err) with err a summed quadrature error estimate.
    """
    if s < 0.0:
        raise InvalidInputError(f"s must be >= 0, got {s}")
    if h <= 0.0:
        raise InvalidInputError(f"h must be positive, got {h}")
    lo = min(s, h)
    total_err = 0.0

    a_pow = np.empty(2 * p + 1)
    for m in range(2 * p + 1):
        v1, e1 = _quad_checked(lambda u: (u / h) ** m * kh_weight(kernel, u, h) * u, 0.0, lo)
        v2, e2 = _quad_checked(
            lambda u: (np.pi - np.arccos(np.clip(s / u, -1.0, 1.0)))
            * (u / h) ** m * kh_weight(kernel, u, h) * u,
            lo, h,
        )
        a_pow[m] = np.pi * v1 + v2
        total_err += np.pi * e1 + e2
    A = np.empty((p + 1, p + 1))
    for j in range(p + 1):
        for k in range(p + 1):
            A[j, k] = a_pow[j + k]

    B = np.empty(p + 1)
    for j in range(p + 1):
        v1, e1 = _quad_checked(lambda u: (u / h) ** j * kh_weight(kernel, u, h) * u * u, 0.0, lo)
        v2, e2 = _quad_checked(
            lambda u: (1.0 + s / u) * (u / h) ** j * kh_weight(kernel, u, h) * u * u, lo, h
        )
        B[j] = 2.0 * v1 + v2
        total_err += 2.0 * e1 + e2
    return A, B, total_err


def fixed_h_bias(kernel: str, p: int, h: float, s: float) -> float:
    """Exact population bias of the treated-side intercept at (s, 0).

    Equals e1' A(s)^{-1} B(s) computed at bandwidth h (the truth at the
    evaluation point is zero, and the control side is exactly unbiased), and
    satisfies the scaling identity bias(h, s) = h * bias(1, s / h).
    """
    A, B, _ = bias_functionals(kernel, p, s, h)
    eigval = np.linalg.eigvalsh(A)
    if eigval[0] <= 1e-14 * max(1.0, eigval[-1]):
        raise SingularSystemError(
            f"population design matrix singular (min eigenvalue {eigval[0]:.3e})"
        )
    return float(np.linalg.solve(A, B)[0])


def population_tau(dgp, eval_pt) -> float:
    """True effect of a linear specification at a boundary point.

    ``dgp`` needs coefficient triples beta0 and beta1 of (intercept, x1, x2).
    """
    b0 = np.asarray(dgp.beta0, dtype=float)
    b1 = np.asarray(dgp.beta1, dtype=float)
    if b0.shape != (3,) or b1.shape != (3,):
        raise InvalidInputError("beta0 and beta1 must each hold 3 coefficients")
    x = as_point(eval_pt)
    return float((b1[0] - b0[0]) + x[0] * (b1[1] - b0[1]) + x[1] * (b1[2] - b0[2]))
