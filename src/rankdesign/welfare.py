"""Aggregate welfare functionals of an equilibrium schedule.

Three stakeholders, three functionals over the unit mass of applicants:

* applicant welfare  = capacity - E[p(e)]   (reward mass is fixed)
* societal utility   = E[v]                  (everyone's score counts)
* private utility    = E[v * reward]         (the school sees only admits)

All are band-wise integrals of piecewise-smooth functions, so quadrature is
split at band cutpoints, switch points and every kink the primitives put
into a band's integrands.
"""

from __future__ import annotations

from dataclasses import dataclass

from .equilibrium import EquilibriumSchedule, _band_effort, _band_functions, _band_score  # noqa: F401
from .errors import DomainError, RangeError
from .quadrature import DEFAULT_REL_TOL, integrate_piecewise

# The integrands below use _band_functions; _band_effort and _band_score stay
# importable from this module because perfbench/tracing.py wraps them here.


@dataclass(frozen=True)
class WelfareReport:
    applicant_welfare: float
    societal_utility: float
    private_utility: float
    per_band_effort_cost: tuple[float, ...]
    quadrature_error_estimate: float

    def mean_admitted_score(self, capacity: float) -> float:
        """The conditional reading of private utility: score per admitted unit."""
        return self.private_utility / capacity

    def to_json(self) -> dict:
        return {
            "applicant_welfare": self.applicant_welfare,
            "societal_utility": self.societal_utility,
            "private_utility": self.private_utility,
            "per_band_effort_cost": list(self.per_band_effort_cost),
            "quadrature_error_estimate": self.quadrature_error_estimate,
        }


def _band_pieces(schedule: EquilibriumSchedule, k: int) -> list[float]:
    """Breakpoints of band k's integrands: every kink, so each piece is smooth.

    Effort and score bend at the switch point and at the kinks of f; effort
    also bends where it crosses a kink x of g or p, at the rank theta where
    g(threshold) * f(lo) / f(theta) = g(x).  Points whose image or domain
    check fails do not occur in the band and are skipped.
    """
    pop = schedule.population
    band = schedule.bands[k]
    lo, hi = band.lo, band.hi
    pts = {lo, hi}
    if band.switch_point is not None:
        pts.add(band.switch_point)
    candidates = list(pop.f.kinks)
    if band.threshold_effort is not None:
        floor = pop.g.evaluate(band.threshold_effort) * pop.f.evaluate(lo)
        for x in pop.g.kinks + pop.p.kinks:
            try:
                candidates.append(pop.f.invert(floor / pop.g.evaluate(x)))
            except (DomainError, RangeError, ZeroDivisionError):
                continue
    pts.update(theta for theta in candidates if lo < theta < hi)
    # the integrand varies on the scale of the band's lower edge (effort decays
    # like a power of lo/theta); a geometric ladder keeps each piece resolvable
    edge = lo
    while 0.0 < edge < 0.125 * hi:
        edge *= 2.0
        pts.add(edge)
    return sorted(pts)


def band_effort_cost(schedule: EquilibriumSchedule, k: int, rel_tol: float = DEFAULT_REL_TOL) -> tuple[float, float]:
    """Integral of p(e(theta)) over band k."""
    pop = schedule.population
    effort, _ = _band_functions(pop, schedule.bands[k])
    cost = pop.p.evaluate

    def integrand(theta: float) -> float:
        return cost(effort(theta))

    return integrate_piecewise(integrand, _band_pieces(schedule, k), rel_tol)


def total_effort_cost(schedule: EquilibriumSchedule, rel_tol: float = DEFAULT_REL_TOL) -> tuple[float, float]:
    costs = [band_effort_cost(schedule, k, rel_tol) for k in range(schedule.policy.k)]
    return sum(v for v, _ in costs), sum(e for _, e in costs)


def applicant_welfare(schedule: EquilibriumSchedule, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """capacity - E[p(e)]; equals capacity exactly under pure randomization."""
    cost, _ = total_effort_cost(schedule, rel_tol)
    return schedule.policy.capacity - cost


def societal_utility(schedule: EquilibriumSchedule, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """E[v] over the whole population."""
    pop = schedule.population
    total = 0.0
    for k in range(schedule.policy.k):
        _, score = _band_functions(pop, schedule.bands[k])
        v, _ = integrate_piecewise(score, _band_pieces(schedule, k), rel_tol)
        total += v
    return total


def private_utility(schedule: EquilibriumSchedule, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """E[v * reward]; rank preservation lets the reward be read at the pre-effort rank."""
    pop = schedule.population
    total = 0.0
    for k in range(schedule.policy.k):
        level = schedule.policy.levels[k]
        if level == 0.0:
            continue
        _, score = _band_functions(pop, schedule.bands[k])

        def integrand(theta: float, score=score, level=level) -> float:
            return level * score(theta)

        v, _ = integrate_piecewise(integrand, _band_pieces(schedule, k), rel_tol)
        total += v
    return total


def welfare_report(schedule: EquilibriumSchedule, rel_tol: float = DEFAULT_REL_TOL) -> WelfareReport:
    per_band = []
    err_total = 0.0
    for k in range(schedule.policy.k):
        v, e = band_effort_cost(schedule, k, rel_tol)
        per_band.append(v)
        err_total += e
    return WelfareReport(
        applicant_welfare=schedule.policy.capacity - sum(per_band),
        societal_utility=societal_utility(schedule, rel_tol),
        private_utility=private_utility(schedule, rel_tol),
        per_band_effort_cost=tuple(per_band),
        quadrature_error_estimate=err_total,
    )


def two_level_sweep(population, capacity: float, cs, rel_tol: float = DEFAULT_REL_TOL):
    """Welfare profile over two-level cutoffs; rows (c, level1, W, U_soc, U_pri)."""
    from .equilibrium import solve
    from .policy import two_level

    rows = []
    for c in cs:
        pol = two_level(c, capacity)
        sched = solve(population, pol)
        rep = welfare_report(sched, rel_tol)
        rows.append(
            (
                c,
                pol.levels[-1],
                rep.applicant_welfare,
                rep.societal_utility,
                rep.private_utility,
            )
        )
    return rows
