"""Fit-based MSE pilot objective: the tests' reference oracle.

At a candidate h the pilot compares the order-p fit with the order-(p+1)
fit and adds the variance estimate of the order-p fit, all from complete
``fit_oracle.fit_point`` calls on the distance column.  ``bddist.bandwidth``
computes the same objectives from one table of powers of D per side;
these functions check it.
"""

from fit_oracle import fit_point


def pilot_fits(sample, column, kernel: str, p: int, h: float):
    """The order-p and order-(p+1) fits at the column's point, bandwidth h."""
    fit_p = fit_point(sample, column.eval_pt, kernel, h, p, column=column)
    fit_p1 = fit_point(sample, column.eval_pt, kernel, h, p + 1, column=column)
    return fit_p, fit_p1


def objective_of_fits(fit_p, fit_p1) -> float:
    """Estimated MSE from the two fits: squared order-(p+1) vs order-p fit
    gap plus the variance estimate of the order-p fit."""
    bias_proxy = fit_p.theta_hat - fit_p1.theta_hat
    n = fit_p.n
    phi0, phi1 = (fit_p.side(t).influence for t in (0, 1))
    variance = float(phi0 @ phi0 + phi1 @ phi1) / (n * n)
    return bias_proxy * bias_proxy + variance


def mse_pilot_objective(sample, column, kernel: str, p: int, h: float) -> float:
    """Estimated MSE at bandwidth h, from the two fits at the column's point."""
    return objective_of_fits(*pilot_fits(sample, column, kernel, p, h))
