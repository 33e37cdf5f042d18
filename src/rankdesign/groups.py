"""Two-group environment extension: scaled ranks, thresholds, gap and access.

Groups share the skill distribution but scores scale with an environment
factor, v = gamma * g(e) * f(theta_true).  Ranking happens on the mixed
population of scaled skills, so the two-group model is the single-group
model with f replaced by the mixed scaled skill's quantile
(``_MixedQuantile``): its equilibrium is ``solve`` on that population, and a
group-G applicant at skill rank theta_true sits at the mixed rank
H(gamma_G * f(theta_true)).  Any transfer and cost that ``solve`` accepts
work, g(e0) > 0 included.  Group shares must be equal, and the welfare gap
and access take a two-level policy.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace

from .equilibrium import EquilibriumSchedule, effort_at, solve
from .errors import DomainError, RegionError
from .functions import FunctionSpec, PiecewiseMonotone, PopulationSpec, Power
from .policy import TwoLevelPolicy, reward_at

GROUP_SHARE = 0.5  # equal halves; GroupSpec accepts no other share


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


@dataclass(frozen=True)
class _MixedQuantile(FunctionSpec):
    """Quantile of the environment-scaled skill over the mixed population.

    ``invert`` is its CDF H(x) = w * F(x / gamma_a) + (1 - w) * F(x / gamma_b)
    on every x, with F the skill CDF clamped to [0, 1] and w group A's share.
    H is computed once at the breakpoints gamma * f(t), t = 0, 1 and f's
    knots in (0, 1); their ranks are the kinks.  Between two breakpoints each
    group's F is constant or f's inverse, so the quantile is exact: with one
    group unclamped, x = gamma * f((q - base) / w_group), base being the
    share of a group wholly below the segment; with both, H is linear for ``PiecewiseMonotone``
    and C * f_inverse(x) for ``Power`` f, so x = f(q / C); any other f
    bisects the segment.  Scalars only.
    """

    skill: FunctionSpec
    groups: GroupSpec

    def __post_init__(self):
        f, groups = self.skill, self.groups
        ys = [f.evaluate(t) for t in (0.0, *(t for t in f.kinks if 0.0 < t < 1.0), 1.0)]
        # (share, factor, lowest and highest scaled skill) of groups A and B
        parts = tuple(
            (w, gamma, gamma * ys[0], gamma * ys[-1])
            for w, gamma in ((groups.share, groups.gamma_a), (1.0 - groups.share, groups.gamma_b))
        )
        object.__setattr__(self, "_parts", parts)
        xs = sorted({gamma * y for _, gamma, _, _ in parts for y in ys})
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_hs", [self.invert(x) for x in xs])
        if isinstance(f, Power):
            power_c = sum(w * gamma ** (-1.0 / f.exponent) for w, gamma, _, _ in parts)
            object.__setattr__(self, "_power_c", power_c)
        self._set_domain(0.0, 1.0)

    @property
    def kinks(self) -> tuple[float, ...]:
        return tuple(sorted({h for h in self._hs if 0.0 < h < 1.0}))

    def group_ranks(self, x: float) -> tuple[float, float]:
        """Skill ranks in groups A and B whose scaled skill is x, clamped to [0, 1]."""
        return tuple(self._rank(x, part) for part in self._parts)

    def _rank(self, x: float, part: tuple) -> float:
        _, gamma, x0, x1 = part
        if x <= x0:
            return 0.0
        if x >= x1:
            return 1.0
        # x0 < x < x1 puts x / gamma in f's image: rounding is monotone
        return min(1.0, max(0.0, self.skill.invert(x / gamma)))

    def invert(self, x: float) -> float:
        return sum(part[0] * self._rank(x, part) for part in self._parts)

    def evaluate(self, q: float) -> float:
        self._check_domain(q)
        xs, hs = self._xs, self._hs
        i = bisect_left(hs, q)
        if hs[i] == q:  # a breakpoint or q = 0; on a flat stretch its lowest x
            return xs[i]
        lo, hi = xs[i - 1], xs[i]
        f = self.skill
        if isinstance(f, PiecewiseMonotone):
            return lo + (hi - lo) * (q - hs[i - 1]) / (hs[i] - hs[i - 1])
        live = [(w, gamma) for w, gamma, x0, x1 in self._parts if x0 <= lo and hi <= x1]
        if len(live) == 1:
            ((w, gamma),) = live
            base = sum(w for w, _, _, x1 in self._parts if x1 <= lo)
            x = gamma * f.evaluate((q - base) / w)
        elif isinstance(f, Power):
            x = f.evaluate(q / self._power_c)
        else:
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                if self.invert(mid) < q:
                    lo = mid
                else:
                    hi = mid
            return hi
        return min(max(x, lo), hi)


def f_mix_inverse(population: PopulationSpec, groups: GroupSpec, x: float) -> float:
    """CDF of the environment-scaled skill over the mixed population."""
    return _MixedQuantile(population.f, groups).invert(x)


def f_mix(population: PopulationSpec, groups: GroupSpec, q: float) -> float:
    """Quantile of the mixed scaled skill, exact (see ``_MixedQuantile``)."""
    return _MixedQuantile(population.f, groups).evaluate(q)


def pre_rank(population: PopulationSpec, groups: GroupSpec, theta_true: float, group: str) -> float:
    """Environment-scaled rank of a (theta_true, group) applicant."""
    if not (0.0 <= theta_true <= 1.0):
        raise DomainError(f"theta_true {theta_true!r} outside [0, 1]")
    scaled = population.f.evaluate(theta_true) * groups.factor(group)
    return f_mix_inverse(population, groups, scaled)


def group_thresholds(population: PopulationSpec, groups: GroupSpec, c: float) -> tuple[float, float]:
    """Skill ranks above which each group reaches the admitted band; (0, 0) at c = 0."""
    mixed = _MixedQuantile(population.f, groups)
    return mixed.group_ranks(mixed.evaluate(c))


def _welfare(schedule: EquilibriumSchedule, x: float) -> float:
    """Equilibrium welfare of an applicant whose scaled skill is x."""
    q = schedule.population.f.invert(x)
    return reward_at(schedule.policy, q) - schedule.population.p.evaluate(effort_at(schedule, q))


def _gap(
    schedule: EquilibriumSchedule, population: PopulationSpec, groups: GroupSpec, theta_true: float
) -> float:
    """Welfare of a group-A minus a group-B applicant at skill rank theta_true."""
    if not (0.0 <= theta_true <= 1.0):
        raise DomainError(f"theta_true {theta_true!r} outside [0, 1]")
    skill = population.f.evaluate(theta_true)
    return _welfare(schedule, groups.gamma_a * skill) - _welfare(schedule, groups.gamma_b * skill)


def welfare_gap(
    population: PopulationSpec,
    groups: GroupSpec,
    policy: TwoLevelPolicy,
    theta_true: float,
) -> float:
    """Welfare of a group-A applicant minus a group-B applicant at equal skill."""
    schedule = solve(replace(population, f=_MixedQuantile(population.f, groups)), policy.policy())
    return _gap(schedule, population, groups, theta_true)


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
    _, tau_b = group_thresholds(population, groups, policy.c)
    return policy.level1 * (1.0 - tau_b)


def audit_sweep(
    population: PopulationSpec,
    groups: GroupSpec,
    capacity: float,
    cs,
    gap_quantiles=(0.25, 0.5, 0.75),
):
    """Disparate-impact audit rows per cutoff: thresholds, access, gap quantiles.

    The mixed quantile is built once per sweep and the equilibrium solved
    once per cutoff.
    """
    mixed = _MixedQuantile(population.f, groups)
    mixed_population = replace(population, f=mixed)
    rows = []
    for c in cs:
        pol = TwoLevelPolicy(c, capacity)
        tau_a, tau_b = mixed.group_ranks(mixed.evaluate(c))
        schedule = solve(mixed_population, pol.policy())
        gaps = [_gap(schedule, population, groups, q) for q in gap_quantiles]
        rows.append((c, tau_a, tau_b, pol.level1 * (1.0 - tau_b), *gaps))
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
