"""Multi-skill extensions: combined pre-effort index and unmeasurable skill.

With a linear effort transfer and a cost on total effort, agents concentrate
all effort on the skill where their weighted quantile is largest, so the
combined pre-effort index max_i alpha_i f_i(theta_i) governs the realized
reward order.  That ordering claim is verified empirically through the
discrete oracle rather than a closed form.

The unmeasurable-skill model fixes an effort budget B split between a ranked,
measurable skill and an unranked one (e_u = B - e_m), and weights the
school's utility between the two conditional score means; for every interior
cutoff there is a weight that makes it the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, DomainError, ModelError
from .equilibrium import MAX_SAMPLES, BandArrays, _floor_effort, solve_bands
from .functions import FunctionSpec, PopulationSpec, Power, Role
from .oracle import DiscreteInstance, best_response_dynamics
from .policy import RewardPolicy, two_level
from .quadrature import adaptive_simpson, geometric_breakpoints, integrate_piecewise, integrate_stacked  # noqa: F401

# adaptive_simpson and integrate_piecewise are not used here; they stay
# importable from this module because perfbench/tracing.py wraps them here.

MAX_ROUNDS = 2000  # best-response sweeps the rank check runs before it reports no convergence
BETA_STEP = 1e-5  # the cutoff step of beta_for_interior_optimum's central differences


@dataclass(frozen=True)
class MultiSkillSpec:
    """m skills ranked by a weighted linear score h * sum_i alpha_i e_i f_i."""

    quantiles: tuple[FunctionSpec, ...]
    weights: tuple[float, ...]
    transfer_slope: float
    cost: FunctionSpec

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.quantiles) != len(self.weights) or not self.quantiles:
            raise DomainError("need one weight per skill quantile")
        if any(w < 0 for w in self.weights) or abs(sum(self.weights) - 1.0) > 1e-12:
            raise DomainError("weights must be a probability vector")
        if self.transfer_slope <= 0:
            raise DomainError("transfer slope must be positive")
        # the contest's skills are weighted quantile values, which must be >= 0
        if any(f.evaluate(0.0) < 0 for f in self.quantiles):
            raise ModelError("skill quantiles must be nonnegative: some f(0) < 0")

    @property
    def m(self) -> int:
        return len(self.quantiles)


def _weighted_quantiles(spec: MultiSkillSpec, ranks: np.ndarray) -> np.ndarray:
    """alpha_i f_i(rank_i) for each row of an (n, m) array of ranks in [0, 1], one array call per skill."""
    if ranks.ndim != 2 or ranks.shape[1] != spec.m:
        raise DomainError(f"expected {spec.m} ranks per row, got shape {ranks.shape}")
    if not ((0.0 <= ranks) & (ranks <= 1.0)).all():
        raise DomainError(f"ranks outside [0, 1]: {ranks!r}")
    return np.stack([w * f.evaluate(col) for w, f, col in zip(spec.weights, spec.quantiles, ranks.T)], axis=1)


def pre_index(spec: MultiSkillSpec, ranks) -> tuple[float, int] | tuple[np.ndarray, np.ndarray]:
    """Combined pre-effort index max_i alpha_i f_i(rank_i), ties to the lowest skill.

    ``ranks`` is one row of m ranks, giving (value, skill), or an (n, m)
    array, giving an array of values and one of skill indices.
    """
    table = np.asarray(ranks, dtype=float)
    weighted = _weighted_quantiles(spec, table[None] if table.ndim == 1 else table)
    skill = weighted.argmax(axis=1)  # the first largest: the lowest skill on a tie
    value = weighted[np.arange(len(weighted)), skill]
    return (float(value[0]), int(skill[0])) if table.ndim == 1 else (value, skill)


@dataclass(frozen=True)
class MultidimReport:
    converged: bool
    rounds: int
    rows: tuple[tuple[int, float, int, bool], ...]  # (agent, v_pre, band, violation)

    @property
    def violations(self) -> tuple[tuple[int, float, int, bool], ...]:
        return tuple(r for r in self.rows if r[3])

    @property
    def ok(self) -> bool:
        return self.converged and not self.violations


def check_multidim_rank_preservation(
    spec: MultiSkillSpec,
    sample_size: int,
    policy: RewardPolicy,
    seed: int = 0,
    delta_e: float = 1e-3,
    index_rule: str = "max",
) -> MultidimReport:
    """Sample agents, run the discrete contest, compare rewards to the index.

    Behavior always follows the true best response (all effort on the argmax
    skill); ``index_rule`` only selects the comparison index, so "min" acts
    as a deliberately wrong index for negative controls.
    """
    if not 2 <= sample_size <= MAX_SAMPLES:
        raise DomainError(f"sample_size must lie in [2, {MAX_SAMPLES}], got {sample_size!r}")
    if index_rule not in ("max", "min"):
        raise DomainError("index_rule must be 'max' or 'min'")
    rng = np.random.default_rng(seed)
    ranks = rng.uniform(0.0, 1.0, size=(sample_size, spec.m))
    true_index = pre_index(spec, ranks)[0]
    comparison = true_index if index_rule == "max" else _weighted_quantiles(spec, ranks).min(axis=1)
    # agents ordered by true index so the oracle's index tie-break is assortative
    order = np.argsort(true_index, kind="stable")
    population = PopulationSpec(
        f=Power(1.0, 1.0, role=Role.SKILL_QUANTILE),
        g=Power(spec.transfer_slope, 1.0, role=Role.EFFORT_TRANSFER),
        p=spec.cost,
        e0=0.0,
    )
    instance = DiscreteInstance.stratified(population, policy, sample_size, delta_e)
    instance.skill = true_index[order]
    result = best_response_dynamics(instance, max_rounds=MAX_ROUNDS)
    bands = result.instance.assigned_bands()
    cmp_sorted = comparison[order]
    rows = []
    running_max_band = -1
    for pos in np.argsort(cmp_sorted, kind="stable"):
        band = int(bands[pos])
        violation = band < running_max_band
        running_max_band = max(running_max_band, band)
        rows.append((int(order[pos]), float(cmp_sorted[pos]), band, bool(violation)))
    return MultidimReport(result.converged, result.rounds, tuple(rows))


@dataclass(frozen=True)
class UnmeasurableSpec:
    """Two skills sharing a quantile; only one is ranked, efforts sum to a budget."""

    f: FunctionSpec
    g: FunctionSpec
    p: FunctionSpec
    budget: float
    capacity: float

    def __post_init__(self):
        if self.budget <= 0:
            raise DomainError("budget must be positive")
        if not (0.0 < self.capacity < 1.0):
            raise DomainError("capacity outside (0, 1)")
        if self.g.evaluate(0.0) != 0.0:
            raise ModelError("unmeasurable-skill formulas require g(0) = 0")
        object.__setattr__(self, "_population", PopulationSpec(f=self.f, g=self.g, p=self.p, e0=0.0))


def _admitted_bands(spec: UnmeasurableSpec, *cs: float) -> BandArrays:
    """The bands under ``two_level(c, capacity)``, one row per cutoff.  Every applicant admitted
    at c, in band 1, scores its floor g(threshold effort) * f(c), the measurable conditional mean."""
    for c in cs:
        if not (0.0 < c < 1.0 - spec.capacity):
            raise DomainError(f"cutoff {c!r} outside (0, 1 - capacity)")
    policies = [two_level(c, spec.capacity) for c in cs]
    levels = np.array([policy.levels for policy in policies])
    return solve_bands(spec._population, levels, np.array([policy.cutpoints for policy in policies]))


def _unmeasurable_means(spec: UnmeasurableSpec, bands: BandArrays) -> np.ndarray:
    """E[score of the unranked skill | admitted] of each row, its leftover transfers integrated in one stacked call."""
    pop = spec._population
    cs, thresholds, floor = bands.lo[:, 1], bands.threshold_effort[:, 1], bands.floor[:, 1]
    for c, threshold in zip(cs.tolist(), thresholds.tolist()):
        if spec.budget < threshold:
            raise ModelError(f"budget {spec.budget!r} below the threshold effort {threshold!r} at c={c!r}")

    def leftover_transfer(theta: np.ndarray, row: np.ndarray) -> np.ndarray:
        return spec.g.evaluate(spec.budget - _floor_effort(pop, floor[row], bands.idle, pop.f.evaluate(theta)))

    integrals, _ = integrate_stacked(leftover_transfer, [[c, *geometric_breakpoints(c, 1.0), 1.0] for c in cs.tolist()])
    return spec.f.integral(0.0, 1.0) * integrals / (1.0 - cs)


def measurable_conditional_mean(spec: UnmeasurableSpec, c: float) -> float:
    """E[score of the ranked skill | admitted] = g(threshold effort) * f(c)."""
    return float(_admitted_bands(spec, c).floor[0, 1])


def unmeasurable_conditional_mean(spec: UnmeasurableSpec, c: float) -> float:
    """E[score of the unranked skill | admitted] under the budget split."""
    return float(_unmeasurable_means(spec, _admitted_bands(spec, c))[0])


def beta_for_interior_optimum(spec: UnmeasurableSpec, c: float) -> float:
    """Weight on the ranked skill that makes cutoff c the interior optimum.

    beta = -dU / (dM - dU) with dM, dU the central-difference derivatives of
    the two conditional means in c, read from one two-row batch at c + h
    and c - h; their signs (dM > 0, dU < 0) are checked and an
    AssumptionError reports the measured values when they fail.
    """
    h = BETA_STEP
    bands = _admitted_bands(spec, c + h, c - h)
    d_m = float(bands.floor[0, 1] - bands.floor[1, 1]) / (2 * h)
    above, below = _unmeasurable_means(spec, bands).tolist()
    d_u = (above - below) / (2 * h)
    if not (d_m > 0.0 and d_u < 0.0):
        raise AssumptionError(
            f"derivative signs violated: d(measurable)/dc = {d_m!r}, d(unmeasurable)/dc = {d_u!r}"
        )
    return -d_u / (d_m - d_u)


def weighted_private_utility(spec: UnmeasurableSpec, c: float, beta: float) -> float:
    """beta * E[v_measurable | admitted] + (1 - beta) * E[v_unmeasurable | admitted]."""
    if not (0.0 <= beta <= 1.0):
        raise DomainError("beta must lie in [0, 1]")
    bands = _admitted_bands(spec, c)
    return beta * float(bands.floor[0, 1]) + (1.0 - beta) * float(_unmeasurable_means(spec, bands)[0])
