"""Kernel functions and bandwidth-scaled kernel weights.

Kernels are kept in their classical unnormalized form (uniform = 1 on
[-1, 1], triangular = 1 - |u|, epanechnikov = 0.75 (1 - u^2)).  The weighted
least squares fits are invariant to kernel scale and the sandwich variance
is self-normalizing, so no density normalization is applied.  The weight
uses the bivariate normalization K(u/h) / h^2.
"""

from __future__ import annotations

import bisect
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
    out = _profile(family, a, np.empty_like(a))
    out[a > 1.0] = 0.0
    return float(out) if scalar else out


def _profile(family: str, a, out: np.ndarray) -> np.ndarray:
    """The kernel at a = |u| in [0, 1], written into ``out`` (which may be
    ``a``): the one place each formula is written."""
    if family == "uniform":
        out.fill(1.0)
    elif family == "triangular":
        np.subtract(1.0, a, out=out)
    else:
        np.multiply(a, a, out=out)
        np.subtract(1.0, out, out=out)
        np.multiply(0.75, out, out=out)
    return out


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


def support_weights(family: str, mags: np.ndarray, h: float) -> tuple[np.ndarray, int]:
    """``kh_weight(family, mags, h)`` and its count of positive entries, bit
    for bit, for ascending |D| in [0, h] and a positive finite h.

    One in-place pass over the rows, with no check of h or of the rows: the
    caller has screened h (``bandwidth_error``) and cut the rows at it.
    Every |D|/h is then at most 1, so no clamp at 0 is needed.  Each step
    is monotone, so the weights never increase along the rows and the
    positive ones are a prefix: a binary search counts them, NaN included
    (0 / 0 where h * h underflows).
    """
    _check_family(family)
    w = np.divide(mags, h)
    _profile(family, w, w)
    w /= h * h
    count = w.size
    if count and not w[-1] > 0.0:
        count = bisect.bisect_left(range(count), True, key=lambda i: not w[i] > 0.0)
    return w, count
