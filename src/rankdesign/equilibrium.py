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
per rank; ``_read_ranks`` reads a schedule at an array of ranks with it.
No grid is built.  ``solve_bands`` runs the same recursion for a batch of
equal-K policies at once, as arrays of band constants.
"""

from __future__ import annotations

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
            boundary = _floor_effort(population, floor[:, k - 1], idle, lo[:, k])
        jump = levels[:, k] - levels[:, k - 1]
        threshold[:, k] = population.cost_inverse(population.p.evaluate(boundary) + jump)
        floor[:, k] = _transfer_at(population, threshold[:, k]) * population.f.evaluate(lo[:, k])
        switch[:, k] = _switch_points(population, floor[:, k], lo[:, k], hi[:, k], idle)
    return BandArrays(lo, hi, threshold, switch, floor, idle)


def effort_at(schedule: EquilibriumSchedule, theta: float) -> float:
    return _band_effort(schedule.population, schedule.band_of(theta), theta)


def score_at(schedule: EquilibriumSchedule, theta: float) -> float:
    return _band_score(schedule.population, schedule.band_of(theta), theta)


def _read_ranks(schedule: EquilibriumSchedule, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Band index (``policy.band_of``'s rule), effort and score at an array of ranks in [0, 1]."""
    pop = schedule.population
    bands = np.searchsorted(schedule.policy.cutpoints, thetas, side="right")
    efforts, scores = np.empty_like(thetas), np.empty_like(thetas)
    for band in schedule.bands:
        mask = bands == band.k
        efforts[mask] = _band_effort(pop, band, thetas[mask])
        scores[mask] = _band_score(pop, band, thetas[mask])
    return bands, efforts, scores


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
    """Verify on a rank grid, plus the cutpoints, that score order reproduces the reward bands.

    The scores of every band must strictly dominate the scores of the band
    below, so ranking by score assigns the same rewards; a band that fails
    is reported at its lower bound with the margin min - max.
    """
    if grid_size < 2:
        raise DomainError("grid_size must be at least 2")
    thetas = np.union1d(np.arange(grid_size) / (grid_size - 1), schedule.policy.cutpoints)
    bands, _, scores = _read_ranks(schedule, thetas)
    violations: list[RankCheckViolation] = []
    for k in range(1, schedule.policy.k):
        below, above = scores[bands == k - 1], scores[bands == k]
        if len(below) and len(above):
            margin = float(above.min() - below.max())
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
    thetas = (np.arange(STATICS_GRID) + 0.5) / STATICS_GRID
    bands, before, _ = _read_ranks(solve(population, policy), thetas)
    d = _read_ranks(solve(population, perturbed), thetas)[1] - before
    # per check, the largest move the wrong way: any move below band k, a fall in band k, a rise in k+1..j
    moves = [np.abs(d[bands < k]), -d[bands == k], d[(bands > k) & (bands <= j)]]
    worst = [float(np.max(m, initial=0.0)) for m in moves]
    tol_eq = 1e-12
    flags = [w <= tol_eq for w in worst]
    return ComparativeStaticsReport(*flags, max([w for w in worst if w > tol_eq], default=0.0))


def sample_schedule(schedule: EquilibriumSchedule, grid: int) -> list[tuple[float, int, float, float]]:
    """Rows (theta, band, effort, score) on a uniform grid plus band boundaries."""
    if grid < 2:
        raise DomainError("grid must be at least 2")
    thetas = np.union1d(np.arange(grid) / (grid - 1), schedule.policy.cutpoints)
    bands, efforts, scores = _read_ranks(schedule, thetas)
    return list(zip(thetas.tolist(), bands.tolist(), efforts.tolist(), scores.tolist()))


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
