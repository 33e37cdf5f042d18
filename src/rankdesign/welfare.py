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
one array pass, and ``band_welfare`` adds applicant welfare: the effort
cost of every band of every policy is one row of a single stacked
quadrature call, each row accepted by its own error estimate.
``price_policies`` prices a list of policies in one such batch call, or
one at a time if the batch raises; ``two_level_sweep`` prices its cutoffs
c > 0 through it and ``band_welfare``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import (  # noqa: F401
    BandArrays,
    EquilibriumSchedule,
    _band_effort,
    _band_score,
    _floor_effort,
    solve_bands,
)
from .errors import DomainError, RangeError, RankDesignError
from .quadrature import geometric_breakpoints, integrate_piecewise, integrate_stacked

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


def _effort_breakpoints(
    pop, lo: float, hi: float, switch: float | None, floor: float | None, end: float
) -> list[float]:
    """Breakpoints of a band's effort cost on [lo, end]: every kink, so each piece is smooth.

    The band is [lo, hi), entered at score ``floor`` with its switch point,
    and ``end`` is where its score leaves the floor.  Effort bends at the
    switch point, at the kinks of f, and where it crosses a kink x of g or
    p, at the rank theta where floor / f(theta) = g(x).  Points whose image
    or domain check fails do not occur in the band and are skipped.  The
    scalar and the batch path both take their pieces from here.
    """
    pts = {lo, hi}
    if switch is not None:
        pts.add(switch)
    candidates = list(pop.f.kinks)
    if floor is not None:
        for x in pop.g.kinks + pop.p.kinks:
            try:
                candidates.append(pop.f.invert(floor / pop.g.evaluate(x)))
            except (DomainError, RangeError, ZeroDivisionError):
                continue
    pts.update(theta for theta in candidates if lo < theta < hi)
    pts.update(geometric_breakpoints(lo, hi))
    return [t for t in sorted(pts) if t <= end]


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
    pieces = _effort_breakpoints(pop, band.lo, band.hi, band.switch_point, band.floor, m)
    return integrate_piecewise(lambda theta: pop.p.evaluate(_band_effort(pop, band, theta)), pieces)


def _band_score_integral(schedule: EquilibriumSchedule, k: int) -> float:
    """Integral of the score v(theta) over band k, in closed form."""
    pop, band = schedule.population, schedule.bands[k]
    m = _floor_end(schedule, k)
    floor = 0.0 if band.floor is None else band.floor
    return floor * (m - band.lo) + band.idle * pop.f.integral(m, band.hi)


def _floor_ends(population, bands: BandArrays) -> np.ndarray:
    """``_floor_end`` of every band of a batch; band 0, with no floor, gets lo."""
    one_branch = np.where(bands.idle * population.f.evaluate(bands.hi) <= bands.floor, bands.hi, bands.lo)
    return np.where(np.isnan(bands.switch_point), one_branch, bands.switch_point)


def _utilities(population, levels: np.ndarray, bands: BandArrays, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Societal and private utility of each row, from its bands and their floor ends."""
    societal = private = np.zeros(len(levels))
    for k in range(levels.shape[1]):
        lo, hi, m = bands.lo[:, k], bands.hi[:, k], end[:, k]
        floor = 0.0 if k == 0 else bands.floor[:, k]
        score = floor * (m - lo) + bands.idle * population.f.integral(m, hi)
        societal = societal + score
        private = private + levels[:, k] * score  # a zero level adds exactly 0, as skipping it does
    return societal, private


def band_utilities(population, levels: np.ndarray, cutpoints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Societal and private utility of each row of a batch of valid equal-K policies.

    The batch form of ``societal_utility`` and ``private_utility``: bands
    from ``solve_bands``, each band's score integral from the closed form of
    ``_band_score_integral`` and ``_floor_end``, summed in the same order.
    """
    bands = solve_bands(population, levels, cutpoints)
    return _utilities(population, levels, bands, _floor_ends(population, bands))


def band_welfare(population, levels: np.ndarray, cutpoints: np.ndarray, capacity) -> tuple[np.ndarray, ...]:
    """Applicant welfare, societal and private utility of each row of a batch of valid equal-K policies.

    ``band_utilities`` plus the batch form of ``applicant_welfare``, from
    one ``solve_bands`` call.  Every band's effort cost that
    ``band_effort_cost`` would integrate is one row of a single
    ``integrate_stacked`` call, with ``_effort_breakpoints``' pieces and
    ``_floor_effort``'s integrand; each row is accepted on its own, by the
    scalar rule.  The quadrature's MAX_PIECES cap counts the open pieces of
    the whole batch, so a batch can raise QuadratureError where each of its
    policies alone converges; ``price_policies`` then prices them one at a
    time.  ``capacity`` is a number or one per policy.
    """
    pop = population
    bands = solve_bands(pop, levels, cutpoints)
    end = _floor_ends(pop, bands)
    rows, cols = np.nonzero(end > bands.lo)
    breakpoints = [
        _effort_breakpoints(pop, lo, hi, None if math.isnan(switch) else switch, floor, m)
        for lo, hi, switch, floor, m in zip(
            *(a[rows, cols].tolist() for a in (bands.lo, bands.hi, bands.switch_point, bands.floor, end))
        )
    ]
    floor = bands.floor[rows, cols]
    values, _ = integrate_stacked(
        lambda theta, row: pop.p.evaluate(_floor_effort(pop, floor[row], bands.idle, theta)), breakpoints
    )
    costs = np.zeros(bands.lo.shape)
    costs[rows, cols] = values
    total = 0.0
    for k in range(costs.shape[1]):
        total = total + costs[:, k]  # in total_effort_cost's order
    return (capacity - total, *_utilities(pop, levels, bands, end))


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


def _report_row(population, policy) -> tuple[float, float, float]:
    """Applicant welfare, societal and private utility of one policy on the scalar path."""
    from .equilibrium import solve

    report = welfare_report(solve(population, policy))
    return report.applicant_welfare, report.societal_utility, report.private_utility


def sweep_row(population, capacity: float, c) -> tuple[float, ...]:
    """One ``two_level_sweep`` row on the scalar path."""
    from .policy import two_level

    policy = two_level(c, capacity)
    return (float(c), policy.levels[-1], *_report_row(population, policy))


def price_policies(policies: list, batch, scalar) -> list[tuple[float, ...]]:
    """One row of Python floats per policy of a list of valid equal-K policies.

    ``batch(levels, cutpoints)`` prices them all in one call, from their
    levels and cutpoints stacked as arrays, and returns one array per
    column; ``scalar(policy)`` prices one policy and returns its row.  If
    the batch raises, every policy is priced again by ``scalar``, so the
    error raised is the first failing policy's own.
    """
    if not policies:
        return []
    levels = np.array([policy.levels for policy in policies])
    cutpoints = np.array([policy.cutpoints for policy in policies])
    try:
        return list(zip(*(column.tolist() for column in batch(levels, cutpoints))))
    except RankDesignError:
        return [scalar(policy) for policy in policies]


def two_level_sweep(population, capacity: float, cs) -> list[tuple[float, ...]]:
    """Welfare profile over two-level cutoffs; rows (c, level1, W, U_soc, U_pri) of Python floats.

    ``cs`` is any iterable of cutoffs.  A row equals ``sweep_row`` to
    rounding: the cutoffs c > 0 are priced in one ``band_welfare`` call
    and c = 0, the one-level policy, once on the scalar path.  Raises what
    a loop of ``sweep_row`` calls would raise first: ``two_level``'s error
    for the first cutoff it rejects, unless a cutoff before it fails.
    """
    from .policy import two_level

    cs, policies, rejected = list(cs), [], None
    try:
        for c in cs:
            policies.append(two_level(c, capacity))
    except (RankDesignError, TypeError) as exc:  # raised below, once the cutoffs before it are priced
        rejected = exc
    entered = [policy for policy in policies if policy.cutpoints]
    priced = iter(
        price_policies(
            entered,
            lambda levels, cutpoints: band_welfare(population, levels, cutpoints, capacity),
            lambda policy: _report_row(population, policy),
        )
    )
    one_level = next((_report_row(population, policy) for policy in policies if not policy.cutpoints), None)
    rows = [
        (float(c), policy.levels[-1], *(next(priced) if policy.cutpoints else one_level))
        for c, policy in zip(cs, policies)
    ]
    if rejected is not None:
        raise rejected
    return rows
