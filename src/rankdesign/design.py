"""Policy search over the two-level class and the three-level improvement hunt.

Two-level optimization is a coarse grid plus golden-section refinement; the
profiles need not be concave for arbitrary primitives, so no derivative-based
method is used.  The three-level search looks for step policies with an
intermediate admission tier that beat non-randomized admissions on private
utility, which requires a sufficiently heavy-tailed skill distribution.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass

from .equilibrium import solve
from .errors import CapacityError, DomainError
from .functions import PopulationSpec
from .policy import RewardPolicy, two_level, validate
from .welfare import applicant_welfare, private_utility, societal_utility

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GRID_POINTS = 200
REFINE_TOL = 1e-6


class Objective(enum.Enum):
    APPLICANT_WELFARE = "applicant_welfare"
    SOCIETAL_UTILITY = "societal_utility"
    PRIVATE_UTILITY = "private_utility"


_EVALUATORS = {
    Objective.APPLICANT_WELFARE: applicant_welfare,
    Objective.SOCIETAL_UTILITY: societal_utility,
    Objective.PRIVATE_UTILITY: private_utility,
}


@dataclass(frozen=True)
class OptimizeResult:
    c_star: float
    value: float
    profile: tuple[tuple[float, float], ...]


def _objective_fn(population: PopulationSpec, capacity: float, objective: Objective):
    evaluator = _EVALUATORS[objective]

    def value_at(c: float) -> float:
        return evaluator(solve(population, two_level(c, capacity)))

    return value_at


def optimize_two_level(
    population: PopulationSpec, capacity: float, objective: Objective
) -> OptimizeResult:
    """Maximize one welfare functional over two-level cutoffs in [0, 1-capacity].

    c = 0 (pure randomization) is included as a boundary candidate.  A
    200-point grid locates the best cell; golden-section search narrows the
    cutoff to within 1e-6.
    """
    if not (0.0 < capacity < 1.0):
        raise DomainError(f"capacity {capacity!r} outside (0, 1)")
    value_at = _objective_fn(population, capacity, objective)
    hi = 1.0 - capacity
    cs = [0.0] + [hi * i / GRID_POINTS for i in range(1, GRID_POINTS + 1)]
    profile = [(c, value_at(c)) for c in cs]
    best = max(range(len(profile)), key=lambda i: profile[i][1])
    lo_b = cs[max(best - 1, 0)]
    hi_b = cs[min(best + 1, len(cs) - 1)]
    c_star, v_star = _golden_max(value_at, lo_b, hi_b)
    if profile[best][1] > v_star:
        c_star, v_star = profile[best]
    return OptimizeResult(c_star, v_star, tuple(profile))


def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    if hi - lo <= REFINE_TOL:
        mid = 0.5 * (lo + hi)
        return mid, f(mid)
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > REFINE_TOL:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = f(x2)
    if f1 >= f2:
        return x1, f1
    return x2, f2


@dataclass(frozen=True)
class ThreeLevelCheck:
    """Both readings of the three-level vs non-randomized comparison.

    ``lhs``/``rhs`` evaluate the simplified skill-only inequality, exact when
    the transfer and cost satisfy g(p_inverse(x)) = x.  ``three_level_value``
    and ``two_level_value`` are the quadrature private utilities under the
    library's actual primitives; ``holds`` reports that comparison.
    """

    holds: bool
    lhs: float
    rhs: float
    three_level_value: float
    two_level_value: float


def three_level_policy(x: float, c1: float, c2: float, capacity: float) -> RewardPolicy:
    policy = RewardPolicy((0.0, x, 1.0), (c1, c2), capacity)
    report = validate(policy)
    if not report.ok:
        raise DomainError("invalid three-level policy: " + "; ".join(report.violations))
    return policy


def three_level_counterexample_check(
    population: PopulationSpec,
    x: float,
    c1: float,
    c2: float,
    capacity: float,
) -> ThreeLevelCheck:
    """Compare a (0, x, 1) three-level policy against non-randomized admissions."""
    mass = x * (c2 - c1) + (1.0 - c2)
    if abs(mass - capacity) > 1e-9:
        raise CapacityError(
            f"three-level mass {mass!r} does not meet capacity {capacity!r}"
        )
    f = population.f
    lhs = x * f.evaluate(c1) * (c2 - c1) * x + ((1.0 - x) * f.evaluate(c2) + x * f.evaluate(c1)) * (
        1.0 - c2
    )
    rhs = f.evaluate(1.0 - capacity) * capacity
    if c2 - c1 <= 1e-12:
        # zero-mass middle tier: exactly the non-randomized two-level policy
        u2 = private_utility(solve(population, two_level(1.0 - capacity, capacity)))
        return ThreeLevelCheck(False, lhs, rhs, u2, u2)
    u3 = private_utility(solve(population, three_level_policy(x, c1, c2, capacity)))
    u2 = private_utility(solve(population, two_level(1.0 - capacity, capacity)))
    return ThreeLevelCheck(u3 > u2, lhs, rhs, u3, u2)


@dataclass(frozen=True)
class ThreeLevelSearchResult:
    policy: RewardPolicy
    x: float
    c1: float
    c2: float
    value: float
    baseline: float

    @property
    def margin(self) -> float:
        return self.value - self.baseline


def find_three_level_improvement(
    population: PopulationSpec,
    capacity: float,
    search_budget: int,
    seed: int = 0,
) -> ThreeLevelSearchResult | None:
    """Search (x, c1, c2) for a three-level policy beating non-randomization.

    Half the budget goes to a lattice over (x, c2) with c1 solved from the
    capacity identity, the rest to seeded random draws.  Returns the best
    policy if it improves private utility by more than 1e-6, else None.
    """
    if search_budget < 1:
        return None
    baseline = private_utility(solve(population, two_level(1.0 - capacity, capacity)))
    rng = random.Random(seed)
    best: ThreeLevelSearchResult | None = None
    evals = 0

    def consider(x: float, c2: float) -> None:
        nonlocal best, evals
        if evals >= search_budget:  # a budget below 4 ends inside the smallest, 2 x 2 lattice
            return
        # capacity identity pins c1: x*(c2-c1) + (1-c2) = capacity; x is in
        # (0, 1), so a spare capacity <= 0 gives c1 >= c2, rejected below
        spare = capacity - (1.0 - c2)
        c1 = c2 - spare / x
        if not (0.0 < c1 < c2 < 1.0):
            return
        evals += 1
        try:
            policy = three_level_policy(x, c1, c2, capacity)
            value = private_utility(solve(population, policy))
        except (DomainError, CapacityError):
            return
        if best is None or value > best.value:
            best = ThreeLevelSearchResult(policy, x, c1, c2, value, baseline)

    lattice = max(2, int(math.isqrt(search_budget // 2)))
    for i in range(lattice):
        x = (i + 0.5) / lattice
        for j in range(lattice):
            c2 = 1.0 - capacity + capacity * (j + 0.5) / lattice
            consider(x, c2)
    while evals < search_budget:
        x = rng.uniform(1e-3, 1.0 - 1e-3)
        c2 = rng.uniform(1.0 - capacity + 1e-6, 1.0 - 1e-6)
        before = evals
        consider(x, c2)
        if evals == before:  # infeasible draw still consumes budget
            evals += 1
    if best is not None and best.margin > 1e-6:
        return best
    return None
