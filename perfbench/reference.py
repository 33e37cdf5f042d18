"""Closed forms the benchmark checks the library's outputs against.

The benchmark instance is f(x) = 2x, g = sqrt, p = x**2, e0 = 0.  Under a
step policy every band k >= 1 has threshold effort t_k with
t_k**2 = e_{k-1}(c_k)**2 + (l_k - l_{k-1}), effort t_k * (c_k / theta)**2 and
the constant score 2 * sqrt(t_k) * c_k, so all three welfare functionals
integrate exactly.  The identity population replaces f by the identity; with
environment factors (gamma_a, gamma_b) its mixed scaled-skill CDF is piecewise
linear, which gives the group thresholds and access in closed form.

The test suite keeps its own copy of the two-level formulas.
"""

from __future__ import annotations

import math

RHO = 0.2

# The library's own relative quadrature tolerance; a larger mismatch is a failure.
REL_TOL = 1e-8

# Absolute slack of the check, for closed forms at or near zero.
ERR_FLOOR = 1e-13

# Smallest error max_err_tol reports, as a share of the check's allowance.  An
# error below a tenth of the allowance is rounding or quadrature residual that
# a mere reordering of the arithmetic can move by more than the metric's
# bound, so it reads as this constant; only an error above it can show.
TOL_SHARE_FLOOR = 0.1


def applicant_welfare(c: float, rho: float = RHO) -> float:
    """rho - E[p(e)] under the two-level policy with cutoff c."""
    return rho * (1.0 - c * (1.0 + c + c * c) / 3.0)


def societal_utility(c: float, rho: float = RHO) -> float:
    """E[v] under the two-level policy with cutoff c."""
    return 2.0 * c * (1.0 - c) ** 0.75 * rho**0.25


def private_utility(c: float, rho: float = RHO) -> float:
    """E[v * reward] under the two-level policy with cutoff c."""
    return rho * (rho / (1.0 - c)) ** 0.25 * 2.0 * c


# Cutoffs that maximise each two-level functional of the benchmark instance.
OPTIMAL_CUTOFF = {
    "applicant_welfare": 0.0,
    "societal_utility": 4.0 / 7.0,
    "private_utility": 1.0 - RHO,
}

TWO_LEVEL = {
    "applicant_welfare": applicant_welfare,
    "societal_utility": societal_utility,
    "private_utility": private_utility,
}


def step_policy_welfare(levels, cutpoints, capacity: float) -> tuple[float, float, float]:
    """(applicant welfare, societal utility, private utility) under any step policy."""
    bounds = (0.0, *cutpoints, 1.0)
    cost = societal = private = 0.0
    threshold = 0.0
    for k in range(1, len(levels)):
        lo, hi = bounds[k], bounds[k + 1]
        # band 0 idles at e0 = 0; higher bands decay like (c_{k-1} / theta)**2
        boundary = 0.0 if k == 1 else threshold * (bounds[k - 1] / lo) ** 2
        threshold = math.sqrt(boundary**2 + levels[k] - levels[k - 1])
        cost += threshold**2 * lo**4 * (lo**-3 - hi**-3) / 3.0
        score = 2.0 * math.sqrt(threshold) * lo
        societal += (hi - lo) * score
        private += levels[k] * (hi - lo) * score
    return capacity - cost, societal, private


def two_level_effort(theta: float, c: float, rho: float = RHO) -> float:
    """Equilibrium effort at rank theta under the two-level policy with cutoff c."""
    if theta < c:
        return 0.0
    return math.sqrt(rho / (1.0 - c)) * (c / theta) ** 2


def identity_group_audit(
    c: float, gamma_a: float = 2.0, gamma_b: float = 1.0, rho: float = RHO
) -> tuple[float, float, float]:
    """(tau_A, tau_B, access) of the identity population with equal group shares.

    For (2, 1) and c <= 3/4 this is tau_B = 4c/3 and access = rho(1 - 4c/3)/(1 - c).
    """
    if c == 0.0:
        return 0.0, 0.0, rho
    # mixed CDF: 0.5 * min(x / gamma_a, 1) + 0.5 * min(x / gamma_b, 1)
    x = 2.0 * c / (1.0 / gamma_a + 1.0 / gamma_b)
    if x > gamma_b:
        x = gamma_a * (2.0 * c - 1.0)
    tau_a = min(x / gamma_a, 1.0)
    tau_b = min(x / gamma_b, 1.0)
    return tau_a, tau_b, rho / (1.0 - c) * (1.0 - tau_b)


def allowance(exact: float) -> float:
    """The largest error the check accepts against ``exact``."""
    return REL_TOL * abs(exact) + ERR_FLOOR


def close(got: float, exact: float) -> bool:
    """Agreement within the library's relative tolerance."""
    return abs(got - exact) <= allowance(exact)
