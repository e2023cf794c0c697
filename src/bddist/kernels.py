"""Kernel functions and per-evaluation-point signed distance columns.

Kernels are kept in their classical unnormalized form (uniform = 1 on
[-1, 1], triangular = 1 - |u|, epanechnikov = 0.75 (1 - u^2)).  The weighted
least squares fits are invariant to kernel scale and the sandwich variance
is self-normalizing, so no density normalization is applied.  The weight
uses the bivariate normalization K(u/h) / h^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidBandwidthError, InvalidInputError
from .geometry import as_point, signed_distances

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
    if not np.all(np.isfinite(u)):
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
    """Signed distances from every observation to one evaluation point.

    ``treated`` is the per-observation side mask derived from region
    membership: True maps to the side with D >= 0, False to D < 0.
    """

    eval_pt: np.ndarray
    values: np.ndarray
    treated: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.treated, dtype=bool)
        pt = as_point(self.eval_pt)
        if vals.shape != mask.shape or vals.ndim != 1 or len(vals) == 0:
            raise InvalidInputError("values and treated must be equal-length 1-d arrays")
        if np.any(vals[mask] < 0.0) or np.any(vals[~mask] >= 0.0):
            raise InvalidInputError("side mask inconsistent with sign of distances")
        for arr in (vals, mask, pt):
            arr.setflags(write=False)
        object.__setattr__(self, "eval_pt", pt)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "treated", mask)

    def __len__(self) -> int:
        return len(self.values)

    def side_mask(self, side: int) -> np.ndarray:
        """Boolean mask of observations on side 0 (control) or 1 (treated)."""
        if side not in (0, 1):
            raise InvalidInputError(f"side must be 0 or 1, got {side}")
        return self.treated if side == 1 else ~self.treated


def build_distance_column(sample, eval_pt, rule) -> DistanceColumn:
    """Signed distance column of a sample at one boundary evaluation point."""
    x = np.asarray(sample.x, dtype=float)
    if len(x) == 0:
        raise InvalidInputError("sample is empty")
    values = signed_distances(x, eval_pt, rule)
    return DistanceColumn(as_point(eval_pt), values, values >= 0.0)
