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
at e0.

``solve_bands`` is the one band recursion: it solves a batch of equal-K
policies at once, as arrays of band constants (``BandArrays``), and
``solve`` is one row of it, kept on its schedule, which also gives the
constants as ``BandSolution``s.
``_floor_effort`` is the array formula of a band's effort, which also
takes one floor per rank; ``_band_effort`` and ``_band_score`` read one
band at a rank or an array of ranks, a number on Python float arithmetic
so that ``effort_at`` gives the same bits wherever it is read; and
``_read_ranks`` reads a schedule at an array of ranks.  No grid is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, ModelError, PerturbationError, RangeError
from .functions import PopulationSpec
from .policy import RewardPolicy, validate

STATICS_GRID = 2000  # midpoint ranks at which comparative_statics_check compares efforts
# the most ranks or agents one call allocates: rank grids, oracle agents, multi-skill samples
MAX_SAMPLES = 10**6


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


@dataclass(frozen=True, eq=False)
class EquilibriumSchedule:
    """A policy's equilibrium: its bands as the one row of ``solve_bands`` they were solved in.

    The welfare pricer reads ``arrays``; ``bands`` holds the same constants
    as ``BandSolution``s, built on first use, for the number reads of
    ``effort_at`` and ``score_at``.
    """

    population: PopulationSpec
    policy: RewardPolicy
    arrays: BandArrays

    @cached_property
    def bands(self) -> tuple[BandSolution, ...]:
        a = self.arrays
        columns = zip(*(column[0].tolist() for column in (a.lo, a.hi, a.threshold_effort, a.switch_point, a.floor)))
        return tuple(
            BandSolution(k, lo, hi, *(None if math.isnan(v) else v for v in (threshold, switch, floor)), a.idle)
            for k, (lo, hi, threshold, switch, floor) in enumerate(columns)
        )

    def band_of(self, theta: float) -> BandSolution:
        return self.bands[self.policy.band_of(theta)]


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
        return _floor_effort(pop, band.floor, band.idle, pop.f.evaluate(theta))
    target = band.floor / pop.f.evaluate(theta)
    return pop.e0 if target <= band.idle else _target_effort(pop, target)


def _target_effort(pop: PopulationSpec, target: float) -> float:
    """The effort g_inverse(target) whose transfer is a score target, a number above g(e0)."""
    try:
        return pop.g.invert(target)
    except RangeError as exc:
        raise ModelError(f"score target {target!r} outside the image of the effort transfer") from exc


def _floor_effort(pop: PopulationSpec, floor, idle: float, skill: np.ndarray) -> np.ndarray:
    """Effort in a band entered at score ``floor``, at the ranks where f takes the values ``skill``.

    The score target is clamped at the idle transfer, g_inverse(max(floor
    / f(theta), idle)), which is e0 to rounding where the band idles.
    ``floor`` is a number or an array that broadcasts against ``skill``.
    """
    target = np.maximum(floor / skill, idle)
    try:
        return pop.g.invert(target)
    except RangeError as exc:
        raise ModelError(f"score target {_rejected(pop.g.invert, target)!r} "
                         "outside the image of the effort transfer") from exc


def _rejected(read, values: np.ndarray):
    """The first of ``values`` that ``read`` rejects as a number, to name it in an error message."""
    for value in values.ravel().tolist():
        try:
            read(value)
        except (DomainError, RangeError):
            return value
    return values


def _band_score(pop: PopulationSpec, band: BandSolution, theta):
    """Score in ``band`` at rank theta, a number or an array of ranks."""
    idle_score = band.idle * pop.f.evaluate(theta)
    if band.floor is None:
        return idle_score
    if theta.__class__ is np.ndarray:
        return np.maximum(band.floor, idle_score)
    return max(band.floor, idle_score)


def _enter(pop: PopulationSpec, threshold: np.ndarray, ends: np.ndarray, skill: np.ndarray, idle: float,
           floor: np.ndarray, switch: np.ndarray) -> None:
    """Fill ``floor`` and ``switch`` (left NaN where absent) for bands entered at the threshold efforts.

    ``ends`` holds each band's (lo, hi) and ``skill`` f at them.  f
    increases, so the switch point f_inverse(floor / idle) lies in (lo, hi)
    only where floor / idle lies in (f(lo), f(hi)); only those rows are
    inverted.
    """
    try:
        floor[:] = pop.g.evaluate(threshold) * skill[:, 0]
    except DomainError as exc:
        raise ModelError(f"threshold effort {_rejected(pop.g.evaluate, threshold)!r} outside the transfer domain; "
                         "the cost and transfer domains are inconsistent") from exc
    if idle > 0.0:
        y = floor / idle
        inside = (skill[:, 0] < y) & (y < skill[:, 1])
        theta = pop.f.invert(y[inside])
        switch[inside] = np.where((ends[inside, 0] < theta) & (theta < ends[inside, 1]), theta, np.nan)


def solve_bands(population: PopulationSpec, levels: np.ndarray, cutpoints: np.ndarray) -> BandArrays:
    """The band recursion for a batch of valid policies with equal K.

    ``levels`` is (n, K) and ``cutpoints`` (n, K-1), one policy per row; the
    caller validates them, so every band end lies in [0, 1] and f is read
    there once, unchecked.  Raises ModelError if any row's cost or transfer
    cannot absorb its reward jumps.
    """
    n, k_levels = levels.shape
    bounds = np.empty((n, k_levels + 1))
    bounds[:, 0], bounds[:, 1:-1], bounds[:, -1] = 0.0, cutpoints, 1.0
    skill = population.f._map(bounds)
    threshold, floor, switch = np.full((3, n, k_levels), np.nan)
    idle = population.g.evaluate(population.e0)
    jumps = levels[:, 1:] - levels[:, :-1]
    cost = population.p.evaluate(population.e0)  # of the boundary effort below band 1: band 0 idles at e0
    for k in range(1, k_levels):
        if k > 1:
            cost = population.p.evaluate(_floor_effort(population, floor[:, k - 1], idle, skill[:, k]))
        threshold[:, k] = population.cost_inverse(cost + jumps[:, k - 1])
        _enter(population, threshold[:, k], bounds[:, k : k + 2], skill[:, k : k + 2], idle, floor[:, k], switch[:, k])
    return BandArrays(bounds[:, :-1], bounds[:, 1:], threshold, switch, floor, idle)


def solve(population: PopulationSpec, policy: RewardPolicy) -> EquilibriumSchedule:
    """Compute the unique equilibrium schedule for a valid policy: one row of ``solve_bands``."""
    report = validate(policy)
    if not report.ok:
        raise DomainError("invalid policy: " + "; ".join(report.violations))
    arrays = solve_bands(population, np.array([policy.levels]), np.array([policy.cutpoints]))
    return EquilibriumSchedule(population, policy, arrays)


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
    if not 2 <= grid_size <= MAX_SAMPLES:
        raise DomainError(f"grid_size must lie in [2, {MAX_SAMPLES}], got {grid_size!r}")
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
    if not 2 <= grid <= MAX_SAMPLES:
        raise DomainError(f"grid must lie in [2, {MAX_SAMPLES}], got {grid!r}")
    thetas = np.union1d(np.arange(grid) / (grid - 1), schedule.policy.cutpoints)
    bands, efforts, scores = _read_ranks(schedule, thetas)
    return list(zip(thetas.tolist(), bands.tolist(), efforts.tolist(), scores.tolist()))


def corrupted_schedule(schedule: EquilibriumSchedule, k: int, factor: float) -> EquilibriumSchedule:
    """Copy of the schedule with band k's threshold effort scaled; for negative controls.

    The band's floor and switch point are recomputed from the scaled threshold.
    """
    if not (1 <= k < schedule.policy.k):
        raise DomainError("only bands k >= 1 carry a threshold effort")
    pop, a = schedule.population, schedule.arrays
    threshold, floor, switch = (column.copy() for column in (a.threshold_effort, a.floor, a.switch_point))
    threshold[0, k] *= factor
    switch[0, k] = np.nan
    ends = np.stack((a.lo[:, k], a.hi[:, k]), axis=1)
    _enter(pop, threshold[:, k], ends, pop.f.evaluate(ends), a.idle, floor[:, k], switch[:, k])
    return EquilibriumSchedule(pop, schedule.policy, BandArrays(a.lo, a.hi, threshold, switch, floor, a.idle))
