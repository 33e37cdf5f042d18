"""A scalar reference for the band recursion and the band welfare integrals.

The library prices every policy on one array path (``solve_bands`` and the
welfare pricer); ``solve`` and ``welfare_report`` read one row of it.  This
module keeps the scalar path the library used before, one Python float per
band, as an independent reference for the batch tests, as ``test_oracle.py``
keeps a scalar reference oracle.  ``effort_breakpoints`` reads the
primitives one kink at a time, each read in a try/except.
"""

from __future__ import annotations

from rankdesign.equilibrium import BandSolution, _band_effort
from rankdesign.errors import DomainError, ModelError, RangeError
from rankdesign.quadrature import geometric_breakpoints, integrate_piecewise


def _transfer_at(pop, effort: float) -> float:
    try:
        return pop.g.evaluate(effort)
    except DomainError as exc:
        raise ModelError(
            f"threshold effort {effort!r} outside the transfer domain; the cost and transfer domains are inconsistent"
        ) from exc


def entered_band(pop, k: int, lo: float, hi: float, threshold: float, idle: float) -> BandSolution:
    """Band k >= 1 on [lo, hi) entered at the threshold effort, with its floor and switch point."""
    floor = _transfer_at(pop, threshold) * pop.f.evaluate(lo)
    switch = None
    if idle > 0.0:
        try:
            theta = pop.f.invert(floor / idle)
            switch = theta if lo < theta < hi else None
        except RangeError:
            pass
    return BandSolution(k, lo, hi, threshold, switch, floor, idle)


def solve_bands(population, policy) -> tuple[BandSolution, ...]:
    """The band recursion of a valid policy, one band at a time on Python floats."""
    bounds = (0.0,) + policy.cutpoints + (1.0,)
    idle = population.g.evaluate(population.e0)
    bands = [BandSolution(0, 0.0, bounds[1], None, None, None, idle)]
    for k in range(1, policy.k):
        lo, hi = bounds[k], bounds[k + 1]
        boundary_effort = _band_effort(population, bands[k - 1], lo)
        jump = policy.levels[k] - policy.levels[k - 1]
        threshold = population.cost_inverse(population.p.evaluate(boundary_effort) + jump)
        bands.append(entered_band(population, k, lo, hi, threshold, idle))
    return tuple(bands)


def effort_breakpoints(pop, lo: float, hi: float, switch: float | None, floor: float | None, end: float) -> list[float]:
    """Breakpoints of a band's effort cost on [lo, end], one scalar read per kink of g and p."""
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


def floor_end(pop, band: BandSolution) -> float:
    """Rank m where the band's score leaves its floor: floor on [lo, m], g(e0) * f(theta) on [m, hi]."""
    if band.floor is None:
        return band.lo
    if band.switch_point is not None:
        return band.switch_point
    return band.hi if band.idle * pop.f.evaluate(band.hi) <= band.floor else band.lo


def band_effort_cost(pop, band: BandSolution) -> tuple[float, float]:
    """Integral of p(e(theta)) over the band, with its quadrature error estimate."""
    m = floor_end(pop, band)
    if m == band.lo:
        return 0.0, 0.0
    pieces = effort_breakpoints(pop, band.lo, band.hi, band.switch_point, band.floor, m)
    return integrate_piecewise(lambda theta: pop.p.evaluate(_band_effort(pop, band, theta)), pieces)


def band_score_integral(pop, band: BandSolution) -> float:
    """Integral of the score v(theta) over the band, in closed form."""
    m = floor_end(pop, band)
    floor = 0.0 if band.floor is None else band.floor
    return floor * (m - band.lo) + band.idle * pop.f.integral(m, band.hi)


def welfare(population, policy, bands) -> tuple[float, float, float, tuple[float, ...], float]:
    """Applicant welfare, societal and private utility, per-band effort costs and the error estimate."""
    costs = [band_effort_cost(population, band) for band in bands]
    scores = [band_score_integral(population, band) for band in bands]
    return (
        policy.capacity - sum(v for v, _ in costs),
        sum(scores),
        sum(level * s for level, s in zip(policy.levels, scores) if level != 0.0),
        tuple(v for v, _ in costs),
        sum(e for _, e in costs),
    )
