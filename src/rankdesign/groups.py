"""Two-group environment extension: scaled ranks, thresholds, gap and access.

Groups share the skill distribution but scores scale with an environment
factor, v = gamma * g(e) * f(theta_true).  Ranking happens on the mixed
population of scaled skills, so the two-group model is the single-group
model with f replaced by the mixed scaled skill's quantile
(``_MixedQuantile``): its equilibrium is ``solve`` on that population, its
welfare and utilities the welfare pricer's, and a group-G applicant at
skill rank theta_true sits at the mixed rank H(gamma_G * f(theta_true)).
Any transfer and cost that ``solve`` accepts work, g(e0) > 0 included.
Group shares must be equal.  The welfare gap takes any policy; access and
the region table take the policy that ``two_level(c, capacity)`` returns.
``audit_sweep`` solves its cutoffs as one ``solve_bands`` batch and reads
every welfare gap of the batch with one reader (``_gaps``), of which
``welfare_gap`` is one row.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np

from .equilibrium import BandArrays, _target_effort, solve, solve_bands
from .errors import DomainError, RegionError
from .functions import FunctionSpec, PiecewiseMonotone, PopulationSpec, Power, _subclass_error
from .policy import RewardPolicy
from .welfare import price_two_level

GROUP_SHARE = 0.5  # equal halves; GroupSpec accepts no other share
GAP_QUANTILES = (0.25, 0.5, 0.75)  # skill ranks at which audit_sweep reads the welfare gap


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
    bisects the segment.  ``evaluate`` and ``invert`` take a number or an
    array, which is read value by value, so both give the same bits.
    ``integral`` is exact, by parts, through f's own ``integral`` and ``invert``.
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
        object.__setattr__(self, "_ends", (ys[0], ys[-1]))
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

    def invert(self, x):
        if isinstance(x, np.ndarray):
            return _each(self.invert, x)
        return sum(part[0] * self._rank(x, part) for part in self._parts)

    def _integral(self, a, b):
        """By parts: b Q(b) - a Q(a) minus the integral of H over [Q(a), Q(b)]."""
        qa, qb = self._map(a), self._map(b)
        area = b * qb - a * qa
        for w, gamma, _, _ in self._parts:
            area = area - w * gamma * (self._cdf_integral(qb / gamma) - self._cdf_integral(qa / gamma))
        return area

    def _cdf_integral(self, y):
        """Integral of the clamped skill CDF F from f(0) to y: on f's image, y F(y) minus the
        integral of f over [0, F(y)]; above f(1), where F is 1, plus y - f(1)."""
        inside = np.clip(y, *self._ends)
        t = np.clip(self.skill.invert(inside), 0.0, 1.0)
        return inside * t - self.skill._integral(0.0, t) + np.maximum(y - self._ends[1], 0.0)

    def evaluate(self, q):
        self._check_domain(q)
        return self._map(q)

    def _map(self, q):
        return _each(self._value, q) if q.__class__ is np.ndarray else self._value(q)

    def _value(self, q: float) -> float:
        """The quantile at one rank q in [0, 1]."""
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


def _each(read, values: np.ndarray) -> np.ndarray:
    """``read`` at every value of a plain ndarray, in its shape."""
    if values.__class__ is not np.ndarray:
        raise _subclass_error(values)
    return np.array([read(v) for v in values.ravel().tolist()], dtype=float).reshape(values.shape)


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


def _gap_ranks(mixed: _MixedQuantile, thetas) -> tuple[np.ndarray, np.ndarray]:
    """Mixed ranks H(gamma_G * f(theta)) of groups A and B, interleaved, at skill ranks thetas, and f_mix at them."""
    for theta in thetas:
        if not (0.0 <= theta <= 1.0):
            raise DomainError(f"theta_true {theta!r} outside [0, 1]")
    gammas = (mixed.groups.gamma_a, mixed.groups.gamma_b)
    ranks = mixed.invert(np.array([gamma * mixed.skill.evaluate(theta) for theta in thetas for gamma in gammas]))
    return ranks, mixed.evaluate(ranks)


def _gaps(population, levels, cutpoints, bands: BandArrays, ranks, skill) -> np.ndarray:
    """Welfare of group A minus group B, (n, m), for a batch of equal-K policies on the mixed population.

    Reads as ``reward_at`` and ``effort_at`` do: band by ``band_of``'s rule;
    cost p(e0) in band 0 and where the score target floor / f_mix is at most
    g(e0), else the cost of ``_target_effort``, read as a number so the bits
    are ``effort_at``'s (numpy's pow and libm's round differently).
    """
    band = np.count_nonzero(cutpoints[:, :, None] <= ranks, axis=1)
    target = np.take_along_axis(bands.floor, band, axis=1) / skill
    live = target > bands.idle  # False in band 0, whose floor is NaN
    cost = np.full(band.shape, population.p.evaluate(population.e0))
    cost[live] = [population.p.evaluate(_target_effort(population, t)) for t in target[live].tolist()]
    welfare = np.take_along_axis(levels, band, axis=1) - cost
    return welfare[:, 0::2] - welfare[:, 1::2]


def welfare_gap(
    population: PopulationSpec,
    groups: GroupSpec,
    policy: RewardPolicy,
    theta_true: float,
) -> float:
    """Welfare of a group-A applicant minus a group-B applicant at equal skill: one row of ``_gaps``."""
    mixed = _MixedQuantile(population.f, groups)
    schedule = solve(replace(population, f=mixed), policy)
    levels, cutpoints = np.array([policy.levels]), np.array([policy.cutpoints])
    gaps = _gaps(schedule.population, levels, cutpoints, schedule.arrays, *_gap_ranks(mixed, [theta_true]))
    return float(gaps[0, 0])


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
    the difference is meaningless.  The gaps at c +- h and c +- h/2 are one
    four-row ``audit_sweep``.
    """
    if not (0.0 < c - h and c + h <= 1.0 - capacity):
        raise RegionError(f"c={c!r} with step {h!r} leaves (0, 1 - capacity]")
    for cc in (c - h, c + h):
        _, tau_b = group_thresholds(population, groups, cc)
        if theta_true < tau_b:
            raise RegionError(
                f"theta_true={theta_true!r} below the High region at c={cc!r} (tau_B={tau_b!r})"
            )
    rows = audit_sweep(population, groups, capacity, (c + h, c - h, c + 0.5 * h, c - 0.5 * h), [theta_true])
    up, down, half_up, half_down = (row[-1] for row in rows)
    wide = (up - down) / (2.0 * h)
    half = (half_up - half_down) / h
    # Richardson: central differences carry O(h^2) truncation error
    return FiniteDifference(value=half, step=h, error_estimate=abs(half - wide) / 3.0)


def _cutoff(policy: RewardPolicy) -> float:
    """The c of ``two_level(c, capacity)``: 0 for one level, else the one cutpoint."""
    if policy.k == 1:
        return 0.0
    if policy.k > 2 or policy.levels[0] != 0.0:
        raise DomainError(f"expected a two_level policy, got levels {policy.levels!r}")
    return policy.cutpoints[0]


def access(population: PopulationSpec, groups: GroupSpec, policy: RewardPolicy) -> float:
    """Overall admission probability of the disadvantaged group."""
    _, tau_b = group_thresholds(population, groups, _cutoff(policy))
    return policy.levels[-1] * (1.0 - tau_b)


def audit_sweep(population: PopulationSpec, groups: GroupSpec, capacity: float, cs, thetas=GAP_QUANTILES):
    """Disparate-impact audit rows per cutoff: thresholds, access, gaps at the skill ranks ``thetas``.

    Rows (c, tau_A, tau_B, access, *gaps) of Python floats, priced as
    ``two_level_sweep``'s by ``price_two_level``.  The mixed quantile and the
    gap ranks are built once per sweep, and the cutoffs c > 0 are solved as
    one ``solve_bands`` batch.
    """
    mixed = _MixedQuantile(population.f, groups)
    mixed_population = replace(population, f=mixed)
    ranks, skill = _gap_ranks(mixed, thetas)

    def batch(levels, cutpoints):
        cutoffs = cutpoints[:, 0] if cutpoints.shape[1] else np.zeros(len(levels))  # c = 0: one level
        tau_a, tau_b = np.array([mixed.group_ranks(x) for x in mixed._map(cutoffs).tolist()]).reshape(-1, 2).T
        bands = solve_bands(mixed_population, levels, cutpoints)
        gaps = _gaps(mixed_population, levels, cutpoints, bands, ranks, skill)
        return (tau_a, tau_b, levels[:, -1] * (1.0 - tau_b), *gaps.T)

    return price_two_level(cs, capacity, batch)


def region_table(population: PopulationSpec, groups: GroupSpec, policy: RewardPolicy) -> dict:
    """Low/Middle/High admission structure for a two-level policy, as data."""
    c = _cutoff(policy)
    if c == 0.0:
        return {
            "low": {"range": [0.0, 0.0], "admit_a": policy.capacity, "admit_b": policy.capacity},
            "middle": {"range": [0.0, 0.0], "admit_a": policy.capacity, "admit_b": policy.capacity},
            "high": {"range": [0.0, 1.0], "admit_a": policy.capacity, "admit_b": policy.capacity},
        }
    tau_a, tau_b = group_thresholds(population, groups, c)
    level = policy.levels[-1]
    return {
        "low": {"range": [0.0, tau_a], "admit_a": 0.0, "admit_b": 0.0},
        "middle": {"range": [tau_a, tau_b], "admit_a": level, "admit_b": 0.0},
        "high": {"range": [tau_b, 1.0], "admit_a": level, "admit_b": level},
    }
