"""Kernel functions and per-evaluation-point signed distance columns.

Kernels are kept in their classical unnormalized form (uniform = 1 on
[-1, 1], triangular = 1 - |u|, epanechnikov = 0.75 (1 - u^2)).  The weighted
least squares fits are invariant to kernel scale and the sandwich variance
is self-normalizing, so no density normalization is applied.  The weight
uses the bivariate normalization K(u/h) / h^2.

A distance column holds only the sample rows within a radius of its
evaluation point, found by one scan of the squared distances: a fit at
bandwidth h needs no row outside the kernel's compact support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidBandwidthError, InvalidInputError
from .geometry import ROW_BLOCK, as_point, row_blocks, signed_distances

FAMILIES = ("uniform", "triangular", "epanechnikov")

DEFAULT_KERNEL = "triangular"


def _check_family(family: str) -> str:
    if family not in FAMILIES:
        raise InvalidInputError(f"unknown kernel family {family!r}; choose from {FAMILIES}")
    return family


def kernel_eval(family: str, u) -> np.ndarray | float:
    """Evaluate the kernel at u; symmetric, zero outside [-1, 1] (closed)."""
    _check_family(family)
    scalar = np.ndim(u) == 0
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise InvalidInputError("kernel argument must be finite")
    a = np.abs(u)
    if family == "uniform":
        out = (a <= 1.0).astype(float)
    elif family == "triangular":
        out = np.maximum(0.0, 1.0 - a)
    else:
        out = np.maximum(0.0, 0.75 * (1.0 - u * u))
    return float(out) if scalar else out


def kh_weight(family: str, u, h: float) -> np.ndarray | float:
    """Bandwidth-scaled kernel weight K(u/h) / h^2 (bivariate normalization)."""
    if not np.isfinite(h) or h <= 0.0:
        raise InvalidBandwidthError(f"bandwidth must be positive, got {h}")
    return kernel_eval(family, np.asarray(u, dtype=float) / h) / (h * h)


@dataclass(frozen=True)
class DistanceColumn:
    """Signed distances from the n sample rows to one evaluation point,
    stored for the rows near the point only.

    ``rows`` holds the ascending sample indices the column keeps (every row
    of a column built from explicit values), ``values`` their signed
    distances and ``treated`` their side mask, taken from the sample's rule
    mask: True maps to D >= 0, False to D <= 0 (a control row at the point
    itself scores -0.0).  The column's length is n, the size of the whole
    sample and the denominator of every sample average.
    """

    eval_pt: np.ndarray
    values: np.ndarray
    treated: np.ndarray
    rows: np.ndarray = None
    n: int = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.treated, dtype=bool)
        pt = as_point(self.eval_pt)
        if vals.shape != mask.shape or vals.ndim != 1:
            raise InvalidInputError("values and treated must be equal-length 1-d arrays")
        if ((vals < 0.0) & mask).any() or ((vals > 0.0) & ~mask).any():
            raise InvalidInputError("side mask inconsistent with sign of distances")
        rows = np.arange(len(vals)) if self.rows is None else np.asarray(self.rows)
        n = len(vals) if self.n is None else int(self.n)
        if (rows.shape != vals.shape or (np.diff(rows) <= 0).any()
                or ((rows < 0) | (rows >= n)).any()):
            raise InvalidInputError(f"rows must be ascending indices into {n} sample rows, "
                                    "one per value")
        for arr in (vals, mask, pt, rows):
            arr.setflags(write=False)
        object.__setattr__(self, "eval_pt", pt)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "treated", mask)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n", n)

    def __len__(self) -> int:
        return self.n

    def side_mask(self, side: int) -> np.ndarray:
        """Boolean mask of kept rows on side 0 (control) or 1 (treated)."""
        if side not in (0, 1):
            raise InvalidInputError(f"side must be 0 or 1, got {side}")
        return self.treated if side == 1 else ~self.treated


def build_distance_column(sample, eval_pt, radius: float = np.inf) -> DistanceColumn:
    """Signed distance column of the sample rows within ``radius`` of a point.

    One pass over the squared distances keeps every row within radius
    (1 + 1e-9), a margin that absorbs their rounding, so no row inside the
    kernel support of a bandwidth h = radius is lost.  The pass walks the
    rows in the blocks of ``row_blocks`` through two reused block buffers;
    each row's arithmetic is the same in any block, so the kept rows do not
    depend on the blocking.  A radius of inf keeps every row with no scan.
    Distances of the kept rows come from the same formula as an unrestricted
    column, bit for bit; the side comes from ``sample.treated``.
    """
    x = sample.x
    pt = as_point(eval_pt)
    if radius == np.inf:
        rows = np.arange(len(x))
    else:
        r2 = (radius * (1.0 + 1e-9)) ** 2
        keep = np.empty(len(x), dtype=bool)
        dx = np.empty(min(len(x), ROW_BLOCK + 1))
        dy = np.empty_like(dx)
        for block in row_blocks(len(x)):
            m = block.stop - block.start
            bx, by = dx[:m], dy[:m]
            np.subtract(x[block, 0], pt[0], out=bx)
            np.subtract(x[block, 1], pt[1], out=by)
            np.multiply(bx, bx, out=bx)
            np.multiply(by, by, out=by)
            np.add(bx, by, out=bx)
            np.less_equal(bx, r2, out=keep[block])
        rows = np.flatnonzero(keep)
    treated = sample.treated[rows]
    values = signed_distances(x[rows], pt, treated)
    return DistanceColumn(pt, values, treated, rows, len(x))
