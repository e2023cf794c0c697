"""Kernel functions and bandwidth-scaled kernel weights.

Kernels are kept in their classical unnormalized form (uniform = 1 on
[-1, 1], triangular = 1 - |u|, epanechnikov = 0.75 (1 - u^2)).  The weighted
least squares fits are invariant to kernel scale and the sandwich variance
is self-normalizing, so no density normalization is applied.  The weight
uses the bivariate normalization K(u/h) / h^2.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidBandwidthError, InvalidInputError

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


def bandwidth_error(h) -> InvalidBandwidthError | None:
    """The error a fit at bandwidth h raises unless h is positive and
    finite, else None: the bandwidth screen of every fit and pilot candidate."""
    if math.isfinite(h) and h > 0.0:
        return None
    return InvalidBandwidthError(f"bandwidth must be positive, got {h}")


def kh_weight(family: str, u, h: float) -> np.ndarray | float:
    """Bandwidth-scaled kernel weight K(u/h) / h^2 (bivariate normalization)."""
    err = bandwidth_error(h)
    if err is not None:
        raise err
    return kernel_eval(family, np.asarray(u, dtype=float) / h) / (h * h)
