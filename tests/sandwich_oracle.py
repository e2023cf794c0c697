"""Sandwich form of the cross-point covariance: the tests' reference oracle.

The covariance between estimates at two boundary points is the two-sided sum
of sandwich forms: each side contributes
(nh^2)^{-1} e1' Psi(x1)^{-1} Upsilon(x1, x2) Psi(x2)^{-1} e1, where Upsilon
pairs kernel-weighted basis residual products of observations weighted at
both points.  ``bddist.covariance`` computes the same numbers from
influence values; these functions check it.  The fits keep only their rows
and influence values, so the residuals and weights come from the sample
(``fit_oracle.support_arrays``).
"""

import numpy as np

from bddist.errors import InvalidPairingError
from bddist.locpoly import PointFit, scaled_basis
from fit_oracle import support_arrays


def _check_pairing(fit_a: PointFit, fit_b: PointFit, require_same_h: bool = True):
    if fit_a.n != fit_b.n:
        raise InvalidPairingError("point fits built from different sample sizes")
    if fit_a.p != fit_b.p or fit_a.kernel != fit_b.kernel:
        raise InvalidPairingError("point fits use different order or kernel")
    if require_same_h and fit_a.h != fit_b.h:
        raise InvalidPairingError(
            f"point fits use different bandwidths ({fit_a.h} vs {fit_b.h})"
        )


def upsilon(sample, fit_a: PointFit, fit_b: PointFit, side: int) -> np.ndarray:
    """Residual product moment matrix between two evaluation points, one side.

    Entry (j, k) is h^2 n^{-1} sum_i (D_i(x1)/h)^j (D_i(x2)/h)^k K_h(D_i(x1))
    K_h(D_i(x2)) e_i(x1) e_i(x2) over observations on the given side at both
    points, with e_i the side fit residuals.  The side indicator is applied
    at both evaluation points; for boundary points the two coincide.
    """
    _check_pairing(fit_a, fit_b)
    h = fit_a.h
    n = fit_a.n
    sa, sb = fit_a.side(side), fit_b.side(side)
    rows, ia, ib = np.intersect1d(sa.rows, sb.rows, assume_unique=True,
                                  return_indices=True)
    p = fit_a.p
    if rows.size == 0:
        return np.zeros((p + 1, p + 1))
    da, ka, ea = support_arrays(sample, fit_a, side)
    db, kb, eb = support_arrays(sample, fit_b, side)
    Ba = scaled_basis(da[ia] / h, p)
    Bb = scaled_basis(db[ib] / h, p)
    wa = ka[ia] * ea[ia]
    wb = kb[ib] * eb[ib]
    return h * h * (Ba * wa[:, None]).T @ (Bb * wb[:, None]) / n


def xi_pair(sample, fit_a: PointFit, fit_b: PointFit) -> float:
    """Covariance estimate between theta_hat at two points: both sides summed."""
    _check_pairing(fit_a, fit_b)
    n = fit_a.n
    h = fit_a.h
    total = 0.0
    for side in (0, 1):
        ups = upsilon(sample, fit_a, fit_b, side)
        va = fit_a.side(side).gram.inv_e1()
        vb = fit_b.side(side).gram.inv_e1()
        total += float(va @ ups @ vb) / (n * h * h)
    return total

