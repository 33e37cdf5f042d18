"""Two-group environment extension: scaled ranks, thresholds, gap and access.

Groups share the skill distribution but scores scale with an environment
factor, v = gamma * g(e) * f(theta_true).  Ranking then happens on the mixed
population of scaled skills, whose CDF averages the two group-wise scaled
quantiles.  All closed forms below assume equal group shares and g(e0) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ModelError, RegionError
from .functions import PopulationSpec
from .policy import TwoLevelPolicy

GROUP_SHARE = 0.5  # equal halves; the only share the closed forms support


@dataclass(frozen=True)
class GroupSpec:
    """Environment factors, group A advantaged (gamma_a >= gamma_b).

    Equal factors are accepted so symmetric sanity checks can collapse the
    model back to the single-group baseline.
    """

    gamma_a: float
    gamma_b: float
    share: float = GROUP_SHARE

    def __post_init__(self):
        for name in ("gamma_a", "gamma_b", "share"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"group spec {name} must be finite, got {getattr(self, name)!r}")
        if not (self.gamma_a > 0.0 and self.gamma_b > 0.0):
            raise DomainError("environment factors must be positive")
        if self.gamma_a < self.gamma_b:
            raise DomainError("group A must have the (weakly) larger factor")
        if self.share != GROUP_SHARE:
            raise DomainError("only equal group shares are supported")

    def factor(self, group: str) -> float:
        if group == "A":
            return self.gamma_a
        if group == "B":
            return self.gamma_b
        raise DomainError(f"group must be 'A' or 'B', got {group!r}")

    def to_json(self) -> dict:
        return {"gamma_a": self.gamma_a, "gamma_b": self.gamma_b, "share": self.share}

    @staticmethod
    def from_json(obj: dict) -> "GroupSpec":
        try:
            return GroupSpec(float(obj["gamma_a"]), float(obj["gamma_b"]), float(obj.get("share", GROUP_SHARE)))
        except KeyError as exc:
            raise DomainError(f"group spec missing field {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise DomainError(f"group spec values must be numbers: {exc}") from exc


def _cdf_clamped(population: PopulationSpec, value: float) -> float:
    """f_inverse extended to a CDF: 0 below the image, 1 above it."""
    f = population.f
    if value <= f.evaluate(0.0):
        return 0.0
    if value >= f.evaluate(1.0):
        return 1.0
    return min(1.0, max(0.0, f.invert(value)))


def f_mix_inverse(population: PopulationSpec, groups: GroupSpec, x: float) -> float:
    """CDF of the environment-scaled skill over the mixed population."""
    if x < 0.0:
        return 0.0
    return 0.5 * _cdf_clamped(population, x / groups.gamma_a) + 0.5 * _cdf_clamped(
        population, x / groups.gamma_b
    )


def f_mix(population: PopulationSpec, groups: GroupSpec, q: float) -> float:
    """Quantile of the mixed scaled skill; bisection inverse of f_mix_inverse."""
    if not (0.0 <= q <= 1.0):
        raise DomainError(f"quantile {q!r} outside [0, 1]")
    hi = population.f.evaluate(1.0) * groups.gamma_a
    if q <= 0.0:
        return population.f.evaluate(0.0) * groups.gamma_b
    if q >= 1.0:
        return hi
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f_mix_inverse(population, groups, mid) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def pre_rank(population: PopulationSpec, groups: GroupSpec, theta_true: float, group: str) -> float:
    """Environment-scaled rank of a (theta_true, group) applicant."""
    if not (0.0 <= theta_true <= 1.0):
        raise DomainError(f"theta_true {theta_true!r} outside [0, 1]")
    scaled = population.f.evaluate(theta_true) * groups.factor(group)
    return f_mix_inverse(population, groups, scaled)


def group_thresholds(population: PopulationSpec, groups: GroupSpec, c: float) -> tuple[float, float]:
    """Skill ranks above which each group reaches the admitted band."""
    xm = f_mix(population, groups, c)
    tau_a = _cdf_clamped(population, xm / groups.gamma_a)
    tau_b = _cdf_clamped(population, xm / groups.gamma_b)
    return tau_a, tau_b


def _require_idle_score_zero(population: PopulationSpec) -> None:
    if population.g.evaluate(population.e0) != 0.0:
        raise ModelError("group welfare formulas require g(e0) = 0")


def _group_welfare(
    population: PopulationSpec,
    groups: GroupSpec,
    policy: TwoLevelPolicy,
    theta_true: float,
    group: str,
    thresholds: tuple[float, float],
) -> float:
    c = policy.c
    tau = thresholds[0] if group == "A" else thresholds[1]
    if theta_true < tau:
        return 0.0
    level = policy.level1
    tilde_e0 = population.cost_inverse(level)
    target = (
        population.g.evaluate(tilde_e0)
        * f_mix(population, groups, c)
        / (population.f.evaluate(theta_true) * groups.factor(group))
    )
    effort = population.g.invert(target)
    return level - population.p.evaluate(effort)


def welfare_gap(
    population: PopulationSpec,
    groups: GroupSpec,
    policy: TwoLevelPolicy,
    theta_true: float,
) -> float:
    """Welfare of a group-A applicant minus a group-B applicant at equal skill."""
    if not (0.0 <= theta_true <= 1.0):
        raise DomainError(f"theta_true {theta_true!r} outside [0, 1]")
    _require_idle_score_zero(population)
    if policy.c == 0.0:
        return 0.0  # pure randomization: no effort, identical admission odds
    thresholds = group_thresholds(population, groups, policy.c)
    wa = _group_welfare(population, groups, policy, theta_true, "A", thresholds)
    wb = _group_welfare(population, groups, policy, theta_true, "B", thresholds)
    return wa - wb


@dataclass(frozen=True)
class FiniteDifference:
    """Central difference value with its step and first-order error estimate."""

    value: float
    step: float
    error_estimate: float


def welfare_gap_derivative(
    population: PopulationSpec,
    groups: GroupSpec,
    c: float,
    theta_true: float,
    capacity: float,
    h: float = 1e-5,
) -> FiniteDifference:
    """d(gap)/dc by central difference, valid only inside the High region.

    Both evaluation points c +- h must keep theta_true at or above the
    disadvantaged group's threshold, else the gap formula changes branch and
    the difference is meaningless.
    """
    if not (0.0 < c - h and c + h <= 1.0 - capacity):
        raise RegionError(f"c={c!r} with step {h!r} leaves (0, 1 - capacity]")
    for cc in (c - h, c + h):
        _, tau_b = group_thresholds(population, groups, cc)
        if theta_true < tau_b:
            raise RegionError(
                f"theta_true={theta_true!r} below the High region at c={cc!r} (tau_B={tau_b!r})"
            )

    def gap_at(cc: float) -> float:
        return welfare_gap(population, groups, TwoLevelPolicy(cc, capacity), theta_true)

    wide = (gap_at(c + h) - gap_at(c - h)) / (2.0 * h)
    half = (gap_at(c + 0.5 * h) - gap_at(c - 0.5 * h)) / h
    # Richardson: central differences carry O(h^2) truncation error
    return FiniteDifference(value=half, step=h, error_estimate=abs(half - wide) / 3.0)


def access(population: PopulationSpec, groups: GroupSpec, policy: TwoLevelPolicy) -> float:
    """Overall admission probability of the disadvantaged group."""
    if policy.c == 0.0:
        return policy.capacity
    _, tau_b = group_thresholds(population, groups, policy.c)
    return policy.level1 * (1.0 - tau_b)


def audit_sweep(
    population: PopulationSpec,
    groups: GroupSpec,
    capacity: float,
    cs,
    gap_quantiles=(0.25, 0.5, 0.75),
):
    """Disparate-impact audit rows per cutoff: thresholds, access, gap quantiles."""
    rows = []
    for c in cs:
        pol = TwoLevelPolicy(c, capacity)
        if c == 0.0:
            tau_a = tau_b = 0.0
        else:
            tau_a, tau_b = group_thresholds(population, groups, c)
        gaps = [welfare_gap(population, groups, pol, q) for q in gap_quantiles]
        rows.append((c, tau_a, tau_b, access(population, groups, pol), *gaps))
    return rows


def region_table(
    population: PopulationSpec, groups: GroupSpec, policy: TwoLevelPolicy
) -> dict:
    """Low/Middle/High admission structure for a two-level policy, as data."""
    if policy.c == 0.0:
        return {
            "low": {"range": [0.0, 0.0], "admit_a": policy.capacity, "admit_b": policy.capacity},
            "middle": {"range": [0.0, 0.0], "admit_a": policy.capacity, "admit_b": policy.capacity},
            "high": {"range": [0.0, 1.0], "admit_a": policy.capacity, "admit_b": policy.capacity},
        }
    tau_a, tau_b = group_thresholds(population, groups, policy.c)
    level = policy.level1
    return {
        "low": {"range": [0.0, tau_a], "admit_a": 0.0, "admit_b": 0.0},
        "middle": {"range": [tau_a, tau_b], "admit_a": level, "admit_b": 0.0},
        "high": {"range": [tau_b, 1.0], "admit_a": level, "admit_b": level},
    }
