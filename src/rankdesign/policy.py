"""Step reward policies over post-effort ranks.

A policy assigns reward level ``levels[k]`` to ranks in the band
[cutpoints[k-1], cutpoints[k]); bands are left-closed, the top band is
closed at 1.  Levels must be strictly increasing and integrate to the
capacity under the uniform rank distribution.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .errors import CapacityError, DomainError

CAPACITY_TOL = 1e-12


@dataclass(frozen=True)
class Violation:
    message: str
    index: int | None = None
    value: float | None = None

    def __str__(self) -> str:
        loc = f" at index {self.index}" if self.index is not None else ""
        val = f" (value {self.value!r})" if self.value is not None else ""
        return self.message + loc + val


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class RewardPolicy:
    """K-level step function with cutpoints and a capacity constraint."""

    levels: tuple[float, ...]
    cutpoints: tuple[float, ...]
    capacity: float

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(float(v) for v in self.levels))
        object.__setattr__(self, "cutpoints", tuple(float(v) for v in self.cutpoints))

    @property
    def k(self) -> int:
        return len(self.levels)

    def band_of(self, theta: float) -> int:
        if not (0.0 <= theta <= 1.0):
            raise DomainError(f"rank {theta!r} outside [0, 1]")
        return bisect_right(self.cutpoints, theta)

    def expected_reward(self) -> float:
        bounds = (0.0,) + self.cutpoints + (1.0,)
        return sum(
            level * (hi - lo)
            for level, lo, hi in zip(self.levels, bounds, bounds[1:])
        )

    def to_json(self) -> dict:
        return {
            "levels": list(self.levels),
            "cutpoints": list(self.cutpoints),
            "capacity": self.capacity,
        }


def validate(policy: RewardPolicy) -> ValidationReport:
    """Report every violated policy invariant; never raises."""
    violations: list[Violation] = []
    levels, cuts = policy.levels, policy.cutpoints
    if len(levels) != len(cuts) + 1:
        violations.append(
            Violation(f"{len(levels)} levels require {len(levels) - 1} cutpoints, got {len(cuts)}")
        )
    for i, lv in enumerate(levels):
        if not (0.0 <= lv <= 1.0):
            violations.append(Violation("level outside [0, 1]", index=i, value=lv))
    for i, (a, b) in enumerate(zip(levels, levels[1:])):
        if b <= a:
            violations.append(Violation("levels not strictly increasing", index=i + 1, value=b))
    for i, c in enumerate(cuts):
        if not (0.0 < c < 1.0):
            violations.append(Violation("cutpoint outside (0, 1)", index=i, value=c))
    for i, (a, b) in enumerate(zip(cuts, cuts[1:])):
        if b <= a:
            violations.append(Violation("cutpoints not strictly increasing", index=i + 1, value=b))
    if not (0.0 < policy.capacity < 1.0):
        violations.append(Violation("capacity outside (0, 1)", value=policy.capacity))
    if len(levels) == len(cuts) + 1:
        mass = policy.expected_reward()
        if abs(mass - policy.capacity) > CAPACITY_TOL:
            violations.append(
                Violation(
                    f"expected reward {mass!r} does not match capacity {policy.capacity!r}",
                    value=mass - policy.capacity,
                )
            )
    return ValidationReport(tuple(violations))


def reward_at(policy: RewardPolicy, theta: float) -> float:
    """Reward level for post-effort rank theta, bands left-closed."""
    return policy.levels[policy.band_of(theta)]


def two_level(c: float, capacity: float) -> RewardPolicy:
    """Two-level policy: reject below c, admit above with probability rho/(1-c).

    c = 0 collapses to the one-level pure-randomization policy.
    """
    if not (math.isfinite(c) and math.isfinite(capacity)):
        raise DomainError(f"cutoff {c!r} and capacity {capacity!r} must be finite")
    if not (0.0 < capacity < 1.0):
        raise DomainError(f"capacity {capacity!r} outside (0, 1)")
    if c < 0.0 or c >= 1.0:
        raise DomainError(f"cutoff {c!r} outside [0, 1)")
    if c == 0.0:
        return RewardPolicy((capacity,), (), capacity)
    if c > 1.0 - capacity + 1e-15:
        raise CapacityError(
            f"cutoff {c!r} exceeds 1 - capacity = {1.0 - capacity!r}; admitted level would exceed 1"
        )
    level = min(capacity / (1.0 - c), 1.0)
    return RewardPolicy((0.0, level), (c,), capacity)


@dataclass(frozen=True)
class TwoLevelPolicy:
    """Parametric handle on the two-level class; c = 0 is pure randomization.

    A view of ``two_level(c, capacity)``, built once: ``level1`` is that
    policy's top level.
    """

    c: float
    capacity: float

    def __post_init__(self):
        object.__setattr__(self, "_policy", two_level(self.c, self.capacity))  # raises on invalid parameters

    @property
    def level1(self) -> float:
        return self._policy.levels[-1]

    def policy(self) -> RewardPolicy:
        return self._policy

    def to_json(self) -> dict:
        return {"two_level": {"c": self.c, "capacity": self.capacity}}


def policy_from_json(obj: dict) -> RewardPolicy:
    """Parse either the explicit or the two-level shorthand JSON form."""
    if not isinstance(obj, dict):
        raise DomainError(f"policy spec must be an object, got {obj!r}")
    if "two_level" in obj:
        inner = obj["two_level"]
        try:
            c, capacity = float(inner["c"]), float(inner["capacity"])
        except KeyError as exc:
            raise DomainError(f"two_level shorthand missing field {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise DomainError(f"two_level shorthand needs numeric c and capacity: {exc}") from exc
        return two_level(c, capacity)
    try:
        return RewardPolicy(
            tuple(obj["levels"]), tuple(obj["cutpoints"]), float(obj["capacity"])
        )
    except KeyError as exc:
        raise DomainError(f"policy spec missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise DomainError(f"policy levels, cutpoints and capacity must be numeric: {exc}") from exc
