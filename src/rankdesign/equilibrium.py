"""Closed-form effort equilibrium under a step reward policy.

In equilibrium the reward band of every applicant equals the band of their
pre-effort rank, and efforts follow a second-price pattern: entering band k
requires the score that makes the marginal applicant of band k-1 indifferent
between staying and buying the band upgrade.  Band k's threshold effort
satisfies

    p(threshold_k) = p(e_{k-1}(c_k)) + levels[k] - levels[k-1]

and within band k the effort is max(g_inverse(g(threshold_k) * f(c_k) / f(theta)), e0).
Evaluation is lazy: no grid is built, every query applies the band formula.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace

from .errors import DomainError, ModelError, PerturbationError, RangeError
from .functions import PopulationSpec
from .policy import RewardPolicy, validate

INDIFFERENCE_TOL = 1e-10


@dataclass(frozen=True)
class BandSolution:
    """Per-band solution: threshold effort and optional interior switch point.

    ``threshold_effort`` is None for band 0 (everyone idles at e0).  The
    switch point, when present, is the rank where the band formula crosses
    from the score-matching branch to the idle branch g(e0) * f(theta).
    """

    k: int
    lo: float
    hi: float
    threshold_effort: float | None
    switch_point: float | None


@dataclass(frozen=True)
class EquilibriumSchedule:
    population: PopulationSpec
    policy: RewardPolicy
    bands: tuple[BandSolution, ...]

    def band_of(self, theta: float) -> BandSolution:
        if not (0.0 <= theta <= 1.0):
            raise DomainError(f"rank {theta!r} outside [0, 1]")
        return self.bands[bisect_right(self.policy.cutpoints, theta)]


def _transfer_at(pop: PopulationSpec, effort: float) -> float:
    try:
        return pop.g.evaluate(effort)
    except DomainError as exc:
        raise ModelError(
            f"threshold effort {effort!r} outside the transfer domain; "
            "the cost and transfer domains are inconsistent"
        ) from exc


def _band_functions(pop: PopulationSpec, band: BandSolution):
    """Band k's effort and score as functions of theta: (effort, score).

    The band constants, the score floor g(threshold_k) * f(c_k) and the idle
    transfer g(e0), are computed once here rather than at every theta.
    """
    e0 = pop.e0
    f = pop.f.evaluate
    idle = pop.g.evaluate(e0)
    if band.threshold_effort is None:
        return (lambda theta: e0), (lambda theta: idle * f(theta))
    floor = _transfer_at(pop, band.threshold_effort) * f(band.lo)
    g_invert = pop.g.invert

    def effort(theta: float) -> float:
        target = floor / f(theta)
        if target <= idle:
            return e0
        try:
            return g_invert(target)
        except RangeError as exc:
            raise ModelError(
                f"score target {target!r} outside the image of the effort transfer"
            ) from exc

    def score(theta: float) -> float:
        return max(floor, idle * f(theta))

    return effort, score


def _band_effort(pop: PopulationSpec, band: BandSolution, theta: float) -> float:
    return _band_functions(pop, band)[0](theta)


def _band_score(pop: PopulationSpec, band: BandSolution, theta: float) -> float:
    return _band_functions(pop, band)[1](theta)


def solve(population: PopulationSpec, policy: RewardPolicy) -> EquilibriumSchedule:
    """Compute the unique equilibrium schedule for a valid policy."""
    report = validate(policy)
    if not report.ok:
        raise DomainError("invalid policy: " + "; ".join(str(v) for v in report.violations))
    bounds = (0.0,) + policy.cutpoints + (1.0,)
    bands: list[BandSolution] = [BandSolution(0, 0.0, bounds[1], None, None)]
    for k in range(1, policy.k):
        lo, hi = bounds[k], bounds[k + 1]
        prev = bands[k - 1]
        boundary_effort = _band_effort(population, prev, lo)
        jump = policy.levels[k] - policy.levels[k - 1]
        threshold = population.cost_inverse(population.p.evaluate(boundary_effort) + jump)
        switch = _switch_point(population, threshold, lo, hi)
        bands.append(BandSolution(k, lo, hi, threshold, switch))
    return EquilibriumSchedule(population, policy, tuple(bands))


def _switch_point(pop: PopulationSpec, threshold: float, lo: float, hi: float) -> float | None:
    idle = pop.g.evaluate(pop.e0)
    if idle <= 0.0:
        return None
    target = pop.g.evaluate(threshold) * pop.f.evaluate(lo) / idle
    try:
        theta = pop.f.invert(target)
    except RangeError:
        return None
    if lo < theta < hi:
        return theta
    return None


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
    scores = [_band_functions(schedule.population, b)[1] for b in schedule.bands]
    violations: list[RankCheckViolation] = []
    band_min: dict[int, float] = {}
    band_max: dict[int, float] = {}
    for theta in thetas:
        band = schedule.band_of(theta)
        expected = policy.levels[band.k]
        actual = policy.levels[policy.band_of(theta)]
        if actual != expected:
            violations.append(RankCheckViolation(theta, "reward-mismatch", actual - expected))
        s = scores[band.k](theta)
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
    grid_size: int = 2000,
) -> ComparativeStaticsReport:
    """Raise levels[k] by delta, lower levels[j] to preserve capacity, compare efforts.

    Efforts in bands below k must not move, band k's must weakly rise, and
    bands k+1..j must weakly fall, pointwise on a rank grid.
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
            "perturbation invalidates policy: " + "; ".join(str(v) for v in report.violations)
        )
    base = solve(population, policy)
    moved = solve(population, perturbed)
    tol_eq = 1e-12
    worst = 0.0
    below_ok = raised_ok = lowered_ok = True
    for i in range(grid_size):
        theta = (i + 0.5) / grid_size
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
    functions = [_band_functions(schedule.population, b) for b in schedule.bands]
    rows = []
    for theta in sorted(thetas):
        k = schedule.band_of(theta).k
        effort, score = functions[k]
        rows.append((theta, k, effort(theta), score(theta)))
    return rows


def corrupted_schedule(schedule: EquilibriumSchedule, k: int, factor: float) -> EquilibriumSchedule:
    """Copy of the schedule with band k's threshold effort scaled; for negative controls."""
    if not (1 <= k < schedule.policy.k):
        raise DomainError("only bands k >= 1 carry a threshold effort")
    bands = list(schedule.bands)
    bands[k] = replace(bands[k], threshold_effort=bands[k].threshold_effort * factor)
    return EquilibriumSchedule(schedule.population, schedule.policy, tuple(bands))
