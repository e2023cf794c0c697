"""Calibrated data generation and the Monte Carlo coverage harness.

The default specification draws each score coordinate as 100 * Beta(3, 4)
- 25 with independent coordinates, assigns treatment on the closed first
quadrant (an L-shaped boundary with one kink at the origin), and generates
linear potential outcomes with Gaussian noise.  Beta variates come from a
two-Gamma ratio with the Marsaglia-Tsang squeeze so the draws depend only
on a documented algorithm, and every replication gets its own split of the
master seed.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .bandwidth import RuleOfThumb
from .data import Sample
from .errors import BddistError, InvalidInputError
from .formatting import write_csv
from .geometry import BoundaryPolyline, EvalGrid, QuadrantRule, make_grid
from .inference import DEFAULT_ALPHA, DEFAULT_NUM_DRAWS, estimate, normal_quantile
from .kernels import DEFAULT_KERNEL
from .oracle import population_tau

DEFAULT_GRID_SIZE = 21


def _default_boundary() -> BoundaryPolyline:
    return BoundaryPolyline.from_vertices([(0.0, 30.0), (0.0, 0.0), (30.0, 0.0)],
                                          kinks={1})


def _number(value, name: str) -> float:
    """``float(value)``; a bool, which float() reads as 0 or 1, raises."""
    if isinstance(value, (bool, np.bool_)):
        raise InvalidInputError(f"{name} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class DgpSpec:
    """Linear potential-outcome specification over a bivariate Beta score.

    Outcomes are Y(t) = beta_t[0] + x1 beta_t[1] + x2 beta_t[2] + eps_t with
    eps_t ~ Normal(0, sigma_t^2); scores are score_scale * Beta(a, b) +
    score_shift per coordinate, independent across coordinates.
    """

    beta0: tuple
    beta1: tuple
    sigma0: float
    sigma1: float
    beta_params: tuple = (3.0, 4.0)
    score_scale: float = 100.0
    score_shift: float = -25.0
    boundary: BoundaryPolyline = field(default_factory=_default_boundary)
    assignment: object = field(default_factory=QuadrantRule)

    def __post_init__(self):
        b0 = tuple(_number(v, "beta0") for v in self.beta0)
        b1 = tuple(_number(v, "beta1") for v in self.beta1)
        if len(b0) != 3 or len(b1) != 3:
            raise InvalidInputError("beta0 and beta1 must each hold 3 coefficients")
        for name in ("sigma0", "sigma1", "score_scale", "score_shift"):
            value = _number(getattr(self, name), name)
            if not np.isfinite(value):
                raise InvalidInputError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.sigma0 < 0.0 or self.sigma1 < 0.0:
            raise InvalidInputError("noise scales must be nonnegative")
        if self.score_scale == 0.0:  # a negative scale only mirrors the draw
            raise InvalidInputError(f"score_scale must be nonzero, got {self.score_scale}")
        a, b = (_number(v, "beta_params") for v in self.beta_params)
        if not (0.0 < a < np.inf and 0.0 < b < np.inf):
            raise InvalidInputError("Beta parameters must be positive and finite")
        object.__setattr__(self, "beta0", b0)
        object.__setattr__(self, "beta1", b1)
        object.__setattr__(self, "beta_params", (a, b))

    def mean_outcome(self, x, treated) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        b0 = np.asarray(self.beta0)
        b1 = np.asarray(self.beta1)
        m0 = b0[0] + x @ b0[1:]
        m1 = b1[0] + x @ b1[1:]
        return np.where(treated, m1, m0)


def default_dgp() -> DgpSpec:
    """Bundled default specification used throughout the harness and demos."""
    return DgpSpec(
        beta0=(3.35e-1, 2.52e-3, -1.72e-3),
        beta1=(6.98e-1, 2.74e-3, -6.05e-4),
        sigma0=3.32e-1,
        sigma1=4.35e-1,
    )


# ---------------------------------------------------------------------------
# Random variates
# ---------------------------------------------------------------------------

def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(seed))


def gamma_variates(rng: np.random.Generator, shape: float, size: int) -> np.ndarray:
    """Gamma(shape, 1) draws via the Marsaglia-Tsang squeeze.

    For shape >= 1: with d = shape - 1/3 and c = 1/sqrt(9 d), propose
    v = (1 + c x)^3 from a normal x, accept when u < 1 - 0.0331 x^4 or
    log u < x^2 / 2 + d (1 - v + log v), and return d v.  Shapes below one
    use the boost Gamma(shape) = Gamma(shape + 1) * U^{1/shape}.
    """
    if not 0.0 < shape < np.inf:
        raise InvalidInputError(f"gamma shape must be positive and finite, got {shape}")
    a = shape if shape >= 1.0 else shape + 1.0
    d = a - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(size)
    pending = np.arange(size)
    while pending.size:
        m = pending.size
        x = rng.standard_normal(m)
        u = rng.random(m)
        v = (1.0 + c * x) ** 3
        ok = v > 0.0
        x2 = x * x
        accept = ok & (u < 1.0 - 0.0331 * x2 * x2)
        rest = ok & ~accept
        if rest.any():
            logv = np.log(np.where(rest, v, 1.0))
            accept |= rest & (np.log(u) < 0.5 * x2 + d * (1.0 - v + logv))
        out[pending[accept]] = d * v[accept]
        pending = pending[~accept]
    if shape < 1.0:
        out *= rng.random(size) ** (1.0 / shape)
    return out


def beta_variates(rng: np.random.Generator, a: float, b: float, size: int) -> np.ndarray:
    """Beta(a, b) draws as the two-Gamma ratio G_a / (G_a + G_b)."""
    ga = gamma_variates(rng, a, size)
    gb = gamma_variates(rng, b, size)
    return ga / (ga + gb)


def draw_sample(spec: DgpSpec, n: int, seed) -> Sample:
    """One i.i.d. sample of size n drawn from ``spec``.

    Both potential noises are drawn for every observation (only the realized
    one enters Y) so the noise part of the stream has fixed length per
    observation.  Deterministic given the seed.
    """
    if n < 1:
        raise InvalidInputError(f"need n >= 1, got {n}")
    rng = _as_generator(seed)
    a, b = spec.beta_params
    x = np.empty((n, 2))
    x[:, 0] = spec.score_scale * beta_variates(rng, a, b, n) + spec.score_shift
    x[:, 1] = spec.score_scale * beta_variates(rng, a, b, n) + spec.score_shift
    eps0 = spec.sigma0 * rng.standard_normal(n)
    eps1 = spec.sigma1 * rng.standard_normal(n)
    treated = spec.assignment.contains(x)
    y = spec.mean_outcome(x, treated) + np.where(treated, eps1, eps0)
    return Sample(y, x, treated)


# ---------------------------------------------------------------------------
# Monte Carlo harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McPointRow:
    """Per-grid-point summary: the report row of the simulation tables."""

    point_id: int
    b1: float
    b2: float
    h: float
    bias: float
    sd: float
    rmse: float
    ec: float
    il: float


def describe_failures(failures: dict) -> str:
    """One line naming each failure class with its count and first message."""
    return "; ".join(f"{name} in {count} (first: {message})"
                     for name, (count, message) in failures.items())


@dataclass
class McReport:
    """Aggregated Monte Carlo results plus per-replication diagnostics.

    ``failures`` maps the class name of each error that failed a
    replication to its count and the first such error's message.
    """

    rows: list
    uniform_ec: float
    uniform_il: float
    reps_requested: int
    reps_used: int
    n_failed: int
    failures: dict
    invalid: bool
    n: int
    tau: np.ndarray
    theta: np.ndarray          # (reps_used, M) point estimates
    se: np.ndarray             # (reps_used, M) standard errors
    h_used: np.ndarray         # (reps_used, M) bandwidths
    band_quantile: np.ndarray  # (reps_used,) shared band critical values
    band_covered: np.ndarray   # (reps_used, M) band coverage indicators

    def to_csv(self, path, precision: str = "human"):
        header = [f.name for f in fields(McPointRow)]
        rows = [astuple(r) for r in self.rows]
        rows.append(["uniform", *[None] * 6, self.uniform_ec, self.uniform_il])
        write_csv(path, header, rows, precision)


def run_monte_carlo(spec: DgpSpec, n: int, reps: int, grid: EvalGrid | None = None,
                    p: int = 1, kernel: str = DEFAULT_KERNEL,
                    bw_rule=None, alpha: float = DEFAULT_ALPHA,
                    band_draws: int = DEFAULT_NUM_DRAWS, seed: int = 0) -> McReport:
    """Repeatedly draw, run ``estimate`` on the grid, and tabulate coverage.

    Replications whose bandwidth selection or fits fail anywhere on the grid
    are counted by error class and excluded; a failure rate above 5 percent
    flags the report as invalid.  Replication seeds are split off the master seed, so
    the report is reproducible bit for bit.  ``grid`` lies on ``spec.boundary``.
    """
    if reps < 1:
        raise InvalidInputError(f"need reps >= 1, got {reps}")
    if bw_rule is None:
        bw_rule = RuleOfThumb()
    if grid is None:
        grid = make_grid(spec.boundary, DEFAULT_GRID_SIZE)
    M = grid.count
    tau = np.array([population_tau(spec, pt) for pt in grid.points])
    q_point = normal_quantile(alpha)

    used = []  # each used replication's theta_hat, se, h and band quantile
    failures = {}
    for child in np.random.SeedSequence(seed).spawn(reps):
        draw_seq, band_seq = child.spawn(2)
        sample = draw_sample(spec, n, draw_seq)
        try:
            est = estimate(sample, grid, bw_rule, kernel, p, alpha, band_draws, band_seq)
            failed = [f for f in est.points if isinstance(f, BddistError)]
            if failed:
                raise failed[0]
            used.append(([f.theta_hat for f in est.points], est.surface.se,
                         [f.h for f in est.points], est.band.quantile))
        except BddistError as err:
            name = type(err).__name__
            count, message = failures.get(name, (0, str(err)))
            failures[name] = (count + 1, message)

    n_failed = reps - len(used)
    if not used:
        raise BddistError("every replication failed; nothing to report: "
                          + describe_failures(failures))
    theta, se, h_used, band_q = (np.array(column) for column in zip(*used))

    err = theta - tau[None, :]
    covered = np.abs(err) <= q_point * se
    band_covered = np.abs(err) <= band_q[:, None] * se

    rows = []
    for k in range(M):
        bias = float(err[:, k].mean())
        sd = float(theta[:, k].std(ddof=0))
        rmse = float(np.sqrt(np.mean(err[:, k] ** 2)))
        rows.append(McPointRow(
            point_id=k + 1,
            b1=float(grid.points[k, 0]),
            b2=float(grid.points[k, 1]),
            h=float(h_used[:, k].mean()),
            bias=bias,
            sd=sd,
            rmse=rmse,
            ec=float(covered[:, k].mean()),
            il=float((2.0 * q_point * se[:, k]).mean()),
        ))
    uniform_ec = float(band_covered.all(axis=1).mean())
    uniform_il = float((2.0 * band_q[:, None] * se).mean())

    return McReport(
        rows=rows,
        uniform_ec=uniform_ec,
        uniform_il=uniform_il,
        reps_requested=reps,
        reps_used=len(used),
        n_failed=n_failed,
        failures=failures,
        invalid=(n_failed / reps) > 0.05,
        n=n,
        tau=tau,
        theta=theta,
        se=se,
        h_used=h_used,
        band_quantile=band_q,
        band_covered=band_covered,
    )
