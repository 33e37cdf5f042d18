"""Closed-form effort equilibrium under a step reward policy.

In equilibrium the reward band of every applicant equals the band of their
pre-effort rank, and efforts follow a second-price pattern: entering band k
requires the score that makes the marginal applicant of band k-1 indifferent
between staying and buying the band upgrade.  Band k's threshold effort
satisfies

    p(threshold_k) = p(e_{k-1}(c_k)) + levels[k] - levels[k-1]

and band k is entered at the score floor g(threshold_k) * f(c_k).  Within the
band the score is max(floor, g(e0) * f(theta)) and the effort
max(g_inverse(floor / f(theta)), e0): above its switch point the band idles
at e0.  ``solve`` computes each band's floor and idle transfer g(e0) once and
stores them on its ``BandSolution``; ``_band_effort`` and ``_band_score`` are
the one band formula every other module reads, for a rank or an array of
ranks; ``_floor_effort`` is its array formula, which also takes one floor
per rank.  No grid is built.  ``solve_bands`` runs the same recursion for
a batch of equal-K policies at once, as arrays of band constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ModelError, PerturbationError, RangeError
from .functions import PopulationSpec
from .policy import RewardPolicy, validate

STATICS_GRID = 2000  # midpoint ranks at which comparative_statics_check compares efforts


@dataclass(frozen=True)
class BandSolution:
    """Band k's constants: threshold effort, score floor, idle transfer, switch point.

    ``floor`` = g(threshold_effort) * f(lo) is the score that enters the band
    and ``idle`` = g(e0) the transfer of idle effort, so the band's score is
    max(floor, idle * f(theta)).  Band 0 has no threshold and no floor
    (both None): everyone idles at e0.  The switch point, when present, is
    the rank inside (lo, hi) where the idle branch idle * f(theta) overtakes
    the floor.
    """

    k: int
    lo: float
    hi: float
    threshold_effort: float | None
    switch_point: float | None
    floor: float | None
    idle: float


@dataclass(frozen=True)
class EquilibriumSchedule:
    population: PopulationSpec
    policy: RewardPolicy
    bands: tuple[BandSolution, ...]

    def band_of(self, theta: float) -> BandSolution:
        return self.bands[self.policy.band_of(theta)]


def _transfer_at(pop: PopulationSpec, effort: float) -> float:
    try:
        return pop.g.evaluate(effort)
    except DomainError as exc:
        raise ModelError(
            f"threshold effort {effort!r} outside the transfer domain; "
            "the cost and transfer domains are inconsistent"
        ) from exc


def _entered_band(pop: PopulationSpec, k: int, lo: float, hi: float, threshold: float, idle: float) -> BandSolution:
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


def _band_effort(pop: PopulationSpec, band: BandSolution, theta):
    """Effort in ``band`` at rank theta, a number or an array of ranks.

    A number stays on Python float arithmetic, so ``effort_at`` gives the
    same bits wherever it is read.  An array takes ``_floor_effort``'s
    formula instead.
    """
    array = theta.__class__ is np.ndarray
    if band.floor is None:
        return np.full_like(theta, pop.e0) if array else pop.e0
    if array:
        return _floor_effort(pop, band.floor, band.idle, theta)
    target = band.floor / pop.f.evaluate(theta)
    try:
        return pop.e0 if target <= band.idle else pop.g.invert(target)
    except RangeError as exc:
        raise ModelError(f"score target {target!r} outside the image of the effort transfer") from exc


def _floor_effort(pop: PopulationSpec, floor, idle: float, theta: np.ndarray) -> np.ndarray:
    """Effort at an array of ranks in a band entered at score ``floor``.

    The score target is clamped at the idle transfer, g_inverse(max(floor
    / f(theta), idle)), which is e0 to rounding where the band idles.
    ``floor`` is a number or an array that broadcasts against theta.
    """
    target = floor / pop.f.evaluate(theta)
    try:
        return pop.g.invert(np.maximum(target, idle))
    except RangeError as exc:
        raise ModelError(f"score target {target!r} outside the image of the effort transfer") from exc


def _band_score(pop: PopulationSpec, band: BandSolution, theta):
    """Score in ``band`` at rank theta, a number or an array of ranks."""
    idle_score = band.idle * pop.f.evaluate(theta)
    if band.floor is None:
        return idle_score
    if theta.__class__ is np.ndarray:
        return np.maximum(band.floor, idle_score)
    return max(band.floor, idle_score)


def solve(population: PopulationSpec, policy: RewardPolicy) -> EquilibriumSchedule:
    """Compute the unique equilibrium schedule for a valid policy."""
    report = validate(policy)
    if not report.ok:
        raise DomainError("invalid policy: " + "; ".join(report.violations))
    bounds = (0.0,) + policy.cutpoints + (1.0,)
    idle = population.g.evaluate(population.e0)
    bands: list[BandSolution] = [BandSolution(0, 0.0, bounds[1], None, None, None, idle)]
    for k in range(1, policy.k):
        lo, hi = bounds[k], bounds[k + 1]
        boundary_effort = _band_effort(population, bands[k - 1], lo)
        jump = policy.levels[k] - policy.levels[k - 1]
        threshold = population.cost_inverse(population.p.evaluate(boundary_effort) + jump)
        bands.append(_entered_band(population, k, lo, hi, threshold, idle))
    return EquilibriumSchedule(population, policy, tuple(bands))


@dataclass(frozen=True)
class BandArrays:
    """``BandSolution``'s constants for a batch of equal-K policies.

    Each array has one row per policy and one column per band.  Band 0's
    threshold effort and floor, and every absent switch point, are NaN.
    """

    lo: np.ndarray
    hi: np.ndarray
    threshold_effort: np.ndarray
    switch_point: np.ndarray
    floor: np.ndarray
    idle: float


def _boundary_efforts(pop: PopulationSpec, floor: np.ndarray, theta: np.ndarray, idle: float) -> np.ndarray:
    """``_band_effort``'s scalar branch at rank theta of rows whose band has a floor: e0 where it idles."""
    target = floor / pop.f.evaluate(theta)
    entered = target > idle
    effort = np.full_like(target, pop.e0)
    try:
        effort[entered] = pop.g.invert(target[entered])
    except RangeError as exc:
        raise ModelError(f"a score target outside the image of the effort transfer: {exc}") from exc
    return effort


def _switch_points(pop: PopulationSpec, floor: np.ndarray, lo: np.ndarray, hi: np.ndarray, idle: float) -> np.ndarray:
    """``_entered_band``'s switch points, NaN where absent.

    f increases, so f_inverse(floor / idle) lies in (lo, hi) only where
    floor / idle lies in (f(lo), f(hi)); only those rows are inverted.
    """
    switch = np.full_like(floor, np.nan)
    if idle > 0.0:
        y = floor / idle
        inside = (pop.f.evaluate(lo) < y) & (y < pop.f.evaluate(hi))
        theta = pop.f.invert(y[inside])
        switch[inside] = np.where((lo[inside] < theta) & (theta < hi[inside]), theta, np.nan)
    return switch


def solve_bands(population: PopulationSpec, levels: np.ndarray, cutpoints: np.ndarray) -> BandArrays:
    """``solve``'s band recursion for a batch of valid policies with equal K.

    ``levels`` is (n, K) and ``cutpoints`` (n, K-1), one policy per row; the
    caller validates them.  A row agrees with ``solve`` to rounding (numpy's
    pow against libm's).  If ``solve`` raises ModelError on any row, so does
    the batch.
    """
    n, k_levels = levels.shape
    bounds = np.hstack((np.zeros((n, 1)), cutpoints, np.ones((n, 1))))
    lo, hi = bounds[:, :-1], bounds[:, 1:]
    threshold = np.full((n, k_levels), np.nan)
    floor = np.full((n, k_levels), np.nan)
    switch = np.full((n, k_levels), np.nan)
    idle = population.g.evaluate(population.e0)
    boundary = np.full(n, population.e0)  # band 0 idles at e0
    for k in range(1, k_levels):
        if k > 1:
            boundary = _boundary_efforts(population, floor[:, k - 1], lo[:, k], idle)
        jump = levels[:, k] - levels[:, k - 1]
        threshold[:, k] = population.cost_inverse(population.p.evaluate(boundary) + jump)
        floor[:, k] = _transfer_at(population, threshold[:, k]) * population.f.evaluate(lo[:, k])
        switch[:, k] = _switch_points(population, floor[:, k], lo[:, k], hi[:, k], idle)
    return BandArrays(lo, hi, threshold, switch, floor, idle)


def effort_at(schedule: EquilibriumSchedule, theta: float) -> float:
    return _band_effort(schedule.population, schedule.band_of(theta), theta)


def score_at(schedule: EquilibriumSchedule, theta: float) -> float:
    return _band_score(schedule.population, schedule.band_of(theta), theta)


def threshold_indifference_residuals(schedule: EquilibriumSchedule) -> list[float]:
    """p(threshold_k) - p(e_{k-1}(c_k)) - (l_k - l_{k-1}) per band k >= 1."""
    pop, policy = schedule.population, schedule.policy
    out = []
    for k in range(1, policy.k):
        band = schedule.bands[k]
        prev = schedule.bands[k - 1]
        boundary = _band_effort(pop, prev, band.lo)
        out.append(
            pop.p.evaluate(band.threshold_effort)
            - pop.p.evaluate(boundary)
            - (policy.levels[k] - policy.levels[k - 1])
        )
    return out


@dataclass(frozen=True)
class RankCheckViolation:
    theta: float
    kind: str
    margin: float


@dataclass(frozen=True)
class RankCheckReport:
    grid_size: int
    violations: tuple[RankCheckViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_rank_preservation(schedule: EquilibriumSchedule, grid_size: int) -> RankCheckReport:
    """Verify on a rank grid that score order reproduces the reward bands.

    Two conditions: the policy reward at each grid rank matches the band the
    schedule assigns, and the scores of every band strictly dominate the
    scores of the band below (so ranking by score implies the same rewards).
    """
    if grid_size < 2:
        raise DomainError("grid_size must be at least 2")
    policy = schedule.policy
    thetas = [i / (grid_size - 1) for i in range(grid_size)]
    thetas = sorted(set(thetas) | set(policy.cutpoints))
    violations: list[RankCheckViolation] = []
    band_min: dict[int, float] = {}
    band_max: dict[int, float] = {}
    for theta in thetas:
        band = schedule.band_of(theta)
        expected = policy.levels[band.k]
        actual = policy.levels[policy.band_of(theta)]
        if actual != expected:
            violations.append(RankCheckViolation(theta, "reward-mismatch", actual - expected))
        s = _band_score(schedule.population, band, theta)
        band_min[band.k] = min(band_min.get(band.k, math.inf), s)
        band_max[band.k] = max(band_max.get(band.k, -math.inf), s)
    for k in range(1, policy.k):
        if k in band_min and (k - 1) in band_max:
            margin = band_min[k] - band_max[k - 1]
            if margin <= 0.0:
                violations.append(RankCheckViolation(schedule.bands[k].lo, "score-overlap", margin))
    return RankCheckReport(len(thetas), tuple(violations))


@dataclass(frozen=True)
class ComparativeStaticsReport:
    unchanged_below_ok: bool
    raised_band_ok: bool
    lowered_bands_ok: bool
    max_violation: float

    @property
    def ok(self) -> bool:
        return self.unchanged_below_ok and self.raised_band_ok and self.lowered_bands_ok


def comparative_statics_check(
    population: PopulationSpec,
    policy: RewardPolicy,
    k: int,
    j: int,
    delta: float,
) -> ComparativeStaticsReport:
    """Raise levels[k] by delta, lower levels[j] to preserve capacity, compare efforts.

    Efforts in bands below k must not move, band k's must weakly rise, and
    bands k+1..j must weakly fall, pointwise on a grid of STATICS_GRID ranks.
    """
    if not (0 <= k < j < policy.k):
        raise DomainError(f"need 0 <= k < j < K, got k={k}, j={j}, K={policy.k}")
    bounds = (0.0,) + policy.cutpoints + (1.0,)
    width_k = bounds[k + 1] - bounds[k]
    width_j = bounds[j + 1] - bounds[j]
    levels = list(policy.levels)
    levels[k] += delta
    levels[j] -= delta * width_k / width_j
    perturbed = RewardPolicy(tuple(levels), policy.cutpoints, policy.capacity)
    report = validate(perturbed)
    if not report.ok:
        raise PerturbationError(
            "perturbation invalidates policy: " + "; ".join(report.violations)
        )
    base = solve(population, policy)
    moved = solve(population, perturbed)
    tol_eq = 1e-12
    worst = 0.0
    below_ok = raised_ok = lowered_ok = True
    for i in range(STATICS_GRID):
        theta = (i + 0.5) / STATICS_GRID
        band = base.band_of(theta).k
        e_before = effort_at(base, theta)
        e_after = effort_at(moved, theta)
        d = e_after - e_before
        if band < k:
            if abs(d) > tol_eq:
                below_ok = False
                worst = max(worst, abs(d))
        elif band == k:
            if d < -tol_eq:
                raised_ok = False
                worst = max(worst, -d)
        elif band <= j:
            if d > tol_eq:
                lowered_ok = False
                worst = max(worst, d)
    return ComparativeStaticsReport(below_ok, raised_ok, lowered_ok, worst)


def sample_schedule(schedule: EquilibriumSchedule, grid: int) -> list[tuple[float, int, float, float]]:
    """Rows (theta, band, effort, score) on a uniform grid plus band boundaries."""
    if grid < 2:
        raise DomainError("grid must be at least 2")
    thetas = {i / (grid - 1) for i in range(grid)}
    thetas.update(schedule.policy.cutpoints)
    pop = schedule.population
    rows = []
    for theta in sorted(thetas):
        band = schedule.band_of(theta)
        rows.append((theta, band.k, _band_effort(pop, band, theta), _band_score(pop, band, theta)))
    return rows


def corrupted_schedule(schedule: EquilibriumSchedule, k: int, factor: float) -> EquilibriumSchedule:
    """Copy of the schedule with band k's threshold effort scaled; for negative controls.

    The band's floor and switch point are recomputed from the scaled threshold.
    """
    if not (1 <= k < schedule.policy.k):
        raise DomainError("only bands k >= 1 carry a threshold effort")
    bands = list(schedule.bands)
    b = bands[k]
    bands[k] = _entered_band(schedule.population, k, b.lo, b.hi, b.threshold_effort * factor, b.idle)
    return EquilibriumSchedule(schedule.population, schedule.policy, tuple(bands))
