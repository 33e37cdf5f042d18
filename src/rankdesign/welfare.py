"""Aggregate welfare functionals of an equilibrium schedule.

Three stakeholders, three functionals over the unit mass of applicants:

* applicant welfare  = capacity - E[p(e)]   (reward mass is fixed)
* societal utility   = E[v]                  (everyone's score counts)
* private utility    = E[v * reward]         (the school sees only admits)

Within a band the score is the floor that ``solve`` stored on the band up to
the switch point and g(e0) * f(theta) above it, so both utilities are closed
forms in the exact integral of f.  Only the effort cost needs quadrature, of
p applied to the band formula ``_band_effort``, and only below the switch
point: above it, and in band 0, effort idles at e0 and p(e0) = 0.  The cost
quadrature splits at every kink the primitives put into the band.
``band_utilities`` evaluates the two closed forms for a batch of policies in
one array pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import EquilibriumSchedule, _band_effort, _band_score, solve_bands  # noqa: F401
from .errors import DomainError, RangeError
from .quadrature import geometric_breakpoints, integrate_piecewise

# _band_score is not used here; it stays importable from this module because
# perfbench/tracing.py wraps it here.


@dataclass(frozen=True)
class WelfareReport:
    applicant_welfare: float
    societal_utility: float
    private_utility: float
    per_band_effort_cost: tuple[float, ...]
    quadrature_error_estimate: float

    def to_json(self) -> dict:
        return {
            "applicant_welfare": self.applicant_welfare,
            "societal_utility": self.societal_utility,
            "private_utility": self.private_utility,
            "per_band_effort_cost": list(self.per_band_effort_cost),
            "quadrature_error_estimate": self.quadrature_error_estimate,
        }


def _band_pieces(schedule: EquilibriumSchedule, k: int) -> list[float]:
    """Breakpoints of band k's effort cost: every kink, so each piece is smooth.

    Effort bends at the switch point, at the kinks of f, and where it
    crosses a kink x of g or p, at the rank theta where
    floor / f(theta) = g(x).  Points whose image or domain check fails do
    not occur in the band and are skipped.
    """
    pop = schedule.population
    band = schedule.bands[k]
    lo, hi = band.lo, band.hi
    pts = {lo, hi}
    if band.switch_point is not None:
        pts.add(band.switch_point)
    candidates = list(pop.f.kinks)
    if band.floor is not None:
        for x in pop.g.kinks + pop.p.kinks:
            try:
                candidates.append(pop.f.invert(band.floor / pop.g.evaluate(x)))
            except (DomainError, RangeError, ZeroDivisionError):
                continue
    pts.update(theta for theta in candidates if lo < theta < hi)
    pts.update(geometric_breakpoints(lo, hi))
    return sorted(pts)


def _floor_end(schedule: EquilibriumSchedule, k: int) -> float:
    """Rank m where band k's score leaves its floor: floor on [lo, m], g(e0) * f(theta) on [m, hi].

    m is the switch point; a band without one follows a single branch
    throughout, and band 0 only the idle one.
    """
    band = schedule.bands[k]
    if band.floor is None:
        return band.lo
    if band.switch_point is not None:
        return band.switch_point
    return band.hi if band.idle * schedule.population.f.evaluate(band.hi) <= band.floor else band.lo


def band_effort_cost(schedule: EquilibriumSchedule, k: int) -> tuple[float, float]:
    """Integral of p(e(theta)) over band k, with its quadrature error estimate."""
    pop, band = schedule.population, schedule.bands[k]
    m = _floor_end(schedule, k)
    if m == band.lo:
        return 0.0, 0.0
    pieces = [t for t in _band_pieces(schedule, k) if t <= m]
    return integrate_piecewise(lambda theta: pop.p.evaluate(_band_effort(pop, band, theta)), pieces)


def _band_score_integral(schedule: EquilibriumSchedule, k: int) -> float:
    """Integral of the score v(theta) over band k, in closed form."""
    pop, band = schedule.population, schedule.bands[k]
    m = _floor_end(schedule, k)
    floor = 0.0 if band.floor is None else band.floor
    return floor * (m - band.lo) + band.idle * pop.f.integral(m, band.hi)


def band_utilities(population, levels: np.ndarray, cutpoints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Societal and private utility of each row of a batch of valid equal-K policies.

    The batch form of ``societal_utility`` and ``private_utility``: bands
    from ``solve_bands``, each band's score integral from the closed form of
    ``_band_score_integral`` and ``_floor_end``, summed in the same order.
    """
    bands = solve_bands(population, levels, cutpoints)
    f, idle = population.f, bands.idle
    societal = private = np.zeros(len(levels))
    for k in range(levels.shape[1]):
        lo, hi, floor = bands.lo[:, k], bands.hi[:, k], bands.floor[:, k]
        if k == 0:
            m, floor = lo, 0.0
        else:
            switch = bands.switch_point[:, k]
            one_branch = np.where(idle * f.evaluate(hi) <= floor, hi, lo)
            m = np.where(np.isnan(switch), one_branch, switch)
        score = floor * (m - lo) + idle * f.integral(m, hi)
        societal = societal + score
        private = private + levels[:, k] * score  # a zero level adds exactly 0, as skipping it does
    return societal, private


def total_effort_cost(schedule: EquilibriumSchedule) -> tuple[float, float]:
    costs = [band_effort_cost(schedule, k) for k in range(schedule.policy.k)]
    return sum(v for v, _ in costs), sum(e for _, e in costs)


def applicant_welfare(schedule: EquilibriumSchedule) -> float:
    """capacity - E[p(e)]; equals capacity exactly under pure randomization."""
    cost, _ = total_effort_cost(schedule)
    return schedule.policy.capacity - cost


def societal_utility(schedule: EquilibriumSchedule) -> float:
    """E[v] over the whole population."""
    return sum(_band_score_integral(schedule, k) for k in range(schedule.policy.k))


def private_utility(schedule: EquilibriumSchedule) -> float:
    """E[v * reward]; rank preservation lets the reward be read at the pre-effort rank."""
    return sum(
        level * _band_score_integral(schedule, k)
        for k, level in enumerate(schedule.policy.levels)
        if level != 0.0
    )


def welfare_report(schedule: EquilibriumSchedule) -> WelfareReport:
    costs = [band_effort_cost(schedule, k) for k in range(schedule.policy.k)]
    scores = [_band_score_integral(schedule, k) for k in range(schedule.policy.k)]
    return WelfareReport(
        applicant_welfare=schedule.policy.capacity - sum(v for v, _ in costs),
        societal_utility=sum(scores),
        private_utility=sum(level * s for level, s in zip(schedule.policy.levels, scores) if level != 0.0),
        per_band_effort_cost=tuple(v for v, _ in costs),
        quadrature_error_estimate=sum(e for _, e in costs),
    )


def two_level_sweep(population, capacity: float, cs):
    """Welfare profile over two-level cutoffs; rows (c, level1, W, U_soc, U_pri)."""
    from .equilibrium import solve
    from .policy import two_level

    rows = []
    for c in cs:
        pol = two_level(c, capacity)
        sched = solve(population, pol)
        rep = welfare_report(sched)
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
