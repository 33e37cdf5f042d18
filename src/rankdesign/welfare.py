"""Aggregate welfare functionals of an equilibrium schedule.

Three stakeholders, three functionals over the unit mass of applicants:

* applicant welfare  = capacity - E[p(e)]   (reward mass is fixed)
* societal utility   = E[v]                  (everyone's score counts)
* private utility    = E[v * reward]         (the school sees only admits)

Within a band the score is the band's floor up to the switch point and
g(e0) * f(theta) above it, so both utilities are closed forms in the exact
integral of f (``_utilities``).  Only the effort cost needs quadrature, of p
applied to ``_floor_effort`` below the switch point, split at every kink the
primitives put into the band (``_effort_costs``): every band of every row is
one row of a single stacked quadrature call.  This one pricer takes a batch
of equal-K policies as ``BandArrays``: ``band_utilities`` and
``band_welfare`` from ``solve_bands``, and ``welfare_report`` and the single
functionals from the one-row batch a schedule keeps, so a schedule built
by hand (``corrupted_schedule``) is priced as it stands.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .equilibrium import (  # noqa: F401
    BandArrays,
    EquilibriumSchedule,
    _band_effort,
    _band_score,
    _floor_effort,
    solve_bands,
)
from .errors import RankDesignError
from .quadrature import geometric_breakpoints, integrate_piecewise, integrate_stacked  # noqa: F401

PRICE_CHUNK = 512  # policies per batch call of price_policies: bounds the memory and the open quadrature pieces of a batch

# _band_effort, _band_score and integrate_piecewise are not used here; they
# stay importable from this module because perfbench/tracing.py wraps them here.


@dataclass(frozen=True)
class WelfareReport:
    applicant_welfare: float
    societal_utility: float
    private_utility: float
    per_band_effort_cost: tuple[float, ...]
    quadrature_error_estimate: float

    def to_json(self) -> dict:
        return {**asdict(self), "per_band_effort_cost": list(self.per_band_effort_cost)}


def _effort_breakpoints(pop, bands: BandArrays, rows: np.ndarray, cols: np.ndarray, end: np.ndarray) -> list:
    """Breakpoints of the effort cost of bands (rows, cols), each on [lo, end]: every kink, so each piece is smooth.

    ``end`` is where a band's score leaves its floor.  Effort bends at the
    switch point, at the kinks of f, and where it crosses a kink x of g or
    p, at the rank theta where floor / f(theta) = g(x).  g at the kinks
    inside its domain, and f at 0 and 1, are read once per population; f is
    inverted once at the values floor / g(x) inside f's image on [0, 1].  A
    kink where g is not positive or whose value falls outside f's image does
    not occur in any band.
    """
    lo, hi, switch, floor, end = (a[rows, cols] for a in (bands.lo, bands.hi, bands.switch_point, bands.floor, end))
    transfer = pop._kink_transfers
    crossings = np.empty((len(floor), 0))  # none without kinks of g or p
    if transfer.size:
        y = floor[:, None] / transfer
        f_0, f_1 = pop._skill_range
        inside = (f_0 <= y) & (y <= f_1)
        crossings = np.full_like(y, np.nan)
        crossings[inside] = pop.f.invert(y[inside])
    skill_kinks = pop.f.kinks
    out = []
    for a, b, s, m, thetas in zip(lo.tolist(), hi.tolist(), switch.tolist(), end.tolist(), crossings.tolist()):
        pts = {a, b, s}  # a NaN switch point (none) is dropped with the points past m
        pts.update(theta for theta in (*skill_kinks, *thetas) if a < theta < b)
        pts.update(geometric_breakpoints(a, b))
        out.append(sorted(t for t in pts if t <= m))
    return out


def _floor_ends(population, bands: BandArrays) -> np.ndarray:
    """Rank m where each band's score leaves its floor: floor on [lo, m], g(e0) * f(theta) on [m, hi].

    m is the switch point; a band without one follows a single branch
    throughout, and band 0, with no floor, only the idle one: m = lo.
    """
    one_branch = np.where(bands.idle * population.f._map(bands.hi) <= bands.floor, bands.hi, bands.lo)
    return np.where(np.isnan(bands.switch_point), one_branch, bands.switch_point)


def _utilities(population, levels: np.ndarray, bands: BandArrays, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Societal and private utility of each row, from its bands and their floor ends.

    A band's score integral is floor * (m - lo) + g(e0) * (integral of f
    over [m, hi]), its floor term 0 where m = lo and its idle term 0 where
    g(e0) = 0; the bands are summed in order.
    """
    score = np.where(end > bands.lo, bands.floor * (end - bands.lo), 0.0)
    if bands.idle != 0.0:
        score = score + bands.idle * population.f._integral(end, bands.hi)
    weighted = levels * score  # a zero level adds exactly 0
    societal = private = 0.0
    for k in range(levels.shape[1]):
        societal = societal + score[:, k]
        private = private + weighted[:, k]
    return societal, private


def _effort_costs(population, bands: BandArrays, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Effort cost of every band of every row, and its quadrature error estimate, as (n, K) arrays.

    The bands with a floor stretch [lo, m], m > lo, are the rows of one
    ``integrate_stacked`` call; every other band idles at e0 and costs 0.
    """
    pop = population
    rows, cols = np.nonzero(end > bands.lo)
    floor = bands.floor[rows, cols]
    values, errors = integrate_stacked(
        lambda theta, row: pop.p.evaluate(_floor_effort(pop, floor[row], bands.idle, pop.f._map(theta))),
        _effort_breakpoints(pop, bands, rows, cols, end),
    )
    costs, estimates = np.zeros(bands.lo.shape), np.zeros(bands.lo.shape)
    costs[rows, cols], estimates[rows, cols] = values, errors
    return costs, estimates


def _price(population, levels: np.ndarray, bands: BandArrays, end: np.ndarray, capacity) -> tuple[np.ndarray, ...]:
    """The pricer: applicant welfare, societal and private utility of each row, then the
    per-band effort costs and their error estimates as (n, K) arrays."""
    costs, estimates = _effort_costs(population, bands, end)
    total = 0.0
    for k in range(costs.shape[1]):
        total = total + costs[:, k]  # in band order
    return (capacity - total, *_utilities(population, levels, bands, end), costs, estimates)


def band_utilities(population, levels: np.ndarray, cutpoints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Societal and private utility of each row of a batch of valid equal-K policies."""
    bands = solve_bands(population, levels, cutpoints)
    return _utilities(population, levels, bands, _floor_ends(population, bands))


def band_welfare(population, levels: np.ndarray, cutpoints: np.ndarray, capacity) -> tuple[np.ndarray, ...]:
    """Applicant welfare, societal and private utility of each row of a batch of valid equal-K
    policies, then each band's effort cost and its quadrature error estimate as (n, K) arrays.

    A row does not depend on the rows stacked with it, but the quadrature's
    MAX_PIECES cap counts the open pieces of the whole batch, so a batch can
    raise QuadratureError where each of its policies alone converges
    (``price_policies`` then prices it in halves).  ``capacity`` is a
    number or one per policy.
    """
    bands = solve_bands(population, levels, cutpoints)
    return _price(population, levels, bands, _floor_ends(population, bands), capacity)


def _row(schedule: EquilibriumSchedule) -> tuple[np.ndarray, BandArrays, np.ndarray]:
    """A schedule's levels, its one-row bands and their floor ends, as the pricer takes them."""
    bands = schedule.arrays
    return np.array([schedule.policy.levels]), bands, _floor_ends(schedule.population, bands)


def band_effort_cost(schedule: EquilibriumSchedule, k: int) -> tuple[float, float]:
    """Integral of p(e(theta)) over band k, with its quadrature error estimate."""
    costs, estimates = _effort_costs(schedule.population, *_row(schedule)[1:])
    return float(costs[0, k]), float(estimates[0, k])


def total_effort_cost(schedule: EquilibriumSchedule) -> tuple[float, float]:
    """The band costs and their error estimates, each summed in band order."""
    return tuple(sum(column[0].tolist()) for column in _effort_costs(schedule.population, *_row(schedule)[1:]))


def applicant_welfare(schedule: EquilibriumSchedule) -> float:
    """capacity - E[p(e)]; equals capacity exactly under pure randomization."""
    return schedule.policy.capacity - total_effort_cost(schedule)[0]


def societal_utility(schedule: EquilibriumSchedule) -> float:
    """E[v] over the whole population."""
    return float(_utilities(schedule.population, *_row(schedule))[0][0])


def private_utility(schedule: EquilibriumSchedule) -> float:
    """E[v * reward]; rank preservation lets the reward be read at the pre-effort rank."""
    return float(_utilities(schedule.population, *_row(schedule))[1][0])


def welfare_report(schedule: EquilibriumSchedule) -> WelfareReport:
    """One row of the pricer, on the schedule's own bands."""
    row = [a[0].tolist() for a in _price(schedule.population, *_row(schedule), schedule.policy.capacity)]
    applicant, societal, private, costs, estimates = row
    return WelfareReport(applicant, societal, private, tuple(costs), sum(estimates))


def price_policies(policies: list, batch) -> list[tuple[float, ...]]:
    """One row of Python floats per policy of a list of valid equal-K policies.

    ``batch(levels, cutpoints)`` prices policies from their levels and
    cutpoints stacked as arrays, and returns one array per column.  The
    policies are priced in chunks of PRICE_CHUNK, and a chunk that raises is
    split in halves, down to single policies: so a chunk that only hits the
    quadrature's shared piece cap is priced in smaller batches, and the error
    raised is the first failing policy's own.  A row does not depend on the
    rows it is priced with, so no row moves.
    """
    levels = np.array([policy.levels for policy in policies])
    cutpoints = np.array([policy.cutpoints for policy in policies])

    def rows(i, j):
        try:
            return list(zip(*(column.tolist() for column in batch(levels[i:j], cutpoints[i:j]))))
        except RankDesignError:
            if j - i == 1:
                raise
            mid = (i + j) // 2
            return rows(i, mid) + rows(mid, j)

    n = len(policies)
    return [row for i in range(0, n, PRICE_CHUNK) for row in rows(i, min(i + PRICE_CHUNK, n))]


def price_two_level_policies(policies: list, batch) -> list[tuple[float, ...]]:
    """One row per policy that ``two_level`` returned, in order: ``price_policies`` once over the
    one-level policies (c = 0) and once over the two-level ones.  A one-level policy has no
    threshold and no effort cost, so only the second can fail."""
    priced = {k: iter(price_policies([policy for policy in policies if policy.k == k], batch)) for k in (1, 2)}
    return [next(priced[policy.k]) for policy in policies]


def price_two_level(cs, capacity: float, batch) -> list[tuple[float, ...]]:
    """Rows (c, *columns) of Python floats, one per cutoff c of ``cs``, for ``two_level(c, capacity)``.

    ``cs`` is any iterable of cutoffs, priced by ``price_two_level_policies``
    with ``price_policies``'s ``batch``.  Raises what pricing the cutoffs one
    at a time, in order, would raise first: ``two_level``'s error for the
    first cutoff it rejects, unless a cutoff before it fails.
    """
    from .policy import two_level

    cs, policies, rejected = list(cs), [], None
    try:
        for c in cs:
            policies.append(two_level(c, capacity))
    except (RankDesignError, TypeError) as exc:  # raised below, once the cutoffs before it are priced
        rejected = exc
    rows = [(float(c), *row) for c, row in zip(cs, price_two_level_policies(policies, batch))]
    if rejected is not None:
        raise rejected
    return rows


def sweep_columns(population, capacity: float):
    """``price_policies``'s batch of the two-level sweep: columns (level1, W, U_soc, U_pri)."""
    return lambda levels, cuts: (levels[:, -1], *band_welfare(population, levels, cuts, capacity)[:3])


def two_level_sweep(population, capacity: float, cs) -> list[tuple[float, ...]]:
    """Welfare profile over two-level cutoffs, rows (c, level1, W, U_soc, U_pri) of Python floats:
    ``price_two_level`` with ``sweep_columns``."""
    return price_two_level(cs, capacity, sweep_columns(population, capacity))
