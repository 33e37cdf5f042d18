"""Policy search over the two-level class and the three-level improvement hunt.

Two-level optimization is a coarse grid plus golden-section refinement; the
profiles need not be concave for arbitrary primitives, so no derivative-based
method is used.  The three-level search looks for step policies with an
intermediate admission tier that beat non-randomized admissions on private
utility, which requires a sufficiently heavy-tailed skill distribution.
Both price many policies in one batch call and evaluate the winner again
with scalar ``solve``, so they return what one scalar evaluation per policy
would: the search all its candidates in one ``band_utilities`` call, the
optimizer its grid cutoffs c > 0 in one ``two_level_sweep`` (one
``band_welfare`` call) for applicant welfare or one ``band_utilities``
call for the closed-form objectives.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass

import numpy as np

from .equilibrium import solve
from .errors import CapacityError, DomainError
from .functions import PopulationSpec
from .policy import CAPACITY_TOL, RewardPolicy, two_level, validate
from .welfare import (
    applicant_welfare,
    band_utilities,
    price_policies,
    private_utility,
    societal_utility,
    two_level_sweep,
)

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


# which of band_utilities' (societal, private) arrays holds each closed-form objective
_UTILITY_COLUMN = {Objective.SOCIETAL_UTILITY: 0, Objective.PRIVATE_UTILITY: 1}


def _grid_values(population: PopulationSpec, capacity: float, objective: Objective, cs: list[float]) -> list[float]:
    """The objective at two-level cutoffs cs > 0, priced in one batch.

    Applicant welfare is ``two_level_sweep``'s column; the closed-form
    objectives take ``price_policies`` with ``band_utilities``.  Either way
    a failing batch is priced again one cutoff at a time, so the error
    raised is the first failing cutoff's own.
    """
    if objective is Objective.APPLICANT_WELFARE:
        return [row[2] for row in two_level_sweep(population, capacity, cs)]
    column = _UTILITY_COLUMN[objective]
    rows = price_policies(
        [two_level(c, capacity) for c in cs],
        lambda levels, cutpoints: band_utilities(population, levels, cutpoints)[column : column + 1],
        lambda policy: (_EVALUATORS[objective](solve(population, policy)),),
    )
    return [value for (value,) in rows]


def optimize_two_level(
    population: PopulationSpec, capacity: float, objective: Objective
) -> OptimizeResult:
    """Maximize one welfare functional over two-level cutoffs in [0, 1-capacity].

    c = 0 (pure randomization) is included as a boundary candidate.  A
    200-point grid locates the best cell; golden-section search narrows the
    cutoff to within 1e-6.  The grid's cutoffs c > 0 are priced in one
    batch, exact to rounding: applicant welfare by ``two_level_sweep``, the
    other two objectives by ``band_utilities``.  The best grid point is
    priced again with scalar ``solve``, and c = 0 and the golden-section
    search take one scalar ``solve`` per cutoff, so the result is what one
    scalar evaluation per cutoff gives.
    """
    if not (0.0 < capacity < 1.0):
        raise DomainError(f"capacity {capacity!r} outside (0, 1)")
    value_at = _objective_fn(population, capacity, objective)
    hi = 1.0 - capacity
    cs = [0.0] + [hi * i / GRID_POINTS for i in range(1, GRID_POINTS + 1)]
    profile = list(zip(cs, [value_at(0.0)] + _grid_values(population, capacity, objective, cs[1:])))
    best = max(range(len(profile)), key=lambda i: profile[i][1])
    lo_b = cs[max(best - 1, 0)]
    hi_b = cs[min(best + 1, len(cs) - 1)]
    c_star, v_star = _golden_max(value_at, lo_b, hi_b)
    best_value = value_at(cs[best])
    if best_value > v_star:
        c_star, v_star = cs[best], best_value
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


def _three_level_candidates(capacity: float, budget: int, seed: int) -> tuple[np.ndarray, ...]:
    """(x, c1, c2) of every candidate the budget pays for, in search order.

    The capacity identity x*(c2-c1) + (1-c2) = capacity pins c1; a pair
    (x, c2) is feasible when 0 < c1 < c2 < 1.  x is in (0, 1), so a spare
    capacity <= 0 gives c1 >= c2, which is infeasible.
    """

    def feasible(x, c2):
        c1 = c2 - (capacity - (1.0 - c2)) / x
        return c1, (0.0 < c1) & (c1 < c2) & (c2 < 1.0)

    lattice = max(2, int(math.isqrt(budget // 2)))
    x = np.repeat((np.arange(lattice) + 0.5) / lattice, lattice)
    c2 = np.tile(1.0 - capacity + capacity * (np.arange(lattice) + 0.5) / lattice, lattice)
    # a budget below 4 ends inside the smallest, 2 x 2 lattice
    keep = np.flatnonzero(feasible(x, c2)[1])[:budget]
    rng = random.Random(seed)
    draws = [
        (rng.uniform(1e-3, 1.0 - 1e-3), rng.uniform(1.0 - capacity + 1e-6, 1.0 - 1e-6))
        for _ in range(budget - len(keep))
    ]
    drawn = np.array(draws).reshape(-1, 2)
    x = np.concatenate((x[keep], drawn[:, 0]))
    c2 = np.concatenate((c2[keep], drawn[:, 1]))
    c1, ok = feasible(x, c2)  # an infeasible draw still consumed its budget unit
    return x[ok], c1[ok], c2[ok]


def find_three_level_improvement(
    population: PopulationSpec,
    capacity: float,
    search_budget: int,
    seed: int = 0,
) -> ThreeLevelSearchResult | None:
    """Search (x, c1, c2) for a three-level policy (0, x, 1) beating non-randomization.

    Each candidate picks (x, c2) and solves c1 from the capacity identity;
    it is feasible when 0 < c1 < c2 < 1.  The budget counts candidates:
    first the feasible points, in order, of an L x L lattice over (x, c2)
    with L = max(2, isqrt(budget // 2)), at most ``search_budget`` of them;
    then one seeded draw per remaining unit, which consumes its unit
    whether feasible or not.  The feasible candidates that pass
    ``validate``'s checks are priced in one ``band_utilities`` call; the
    first maximum is re-evaluated with scalar ``solve`` and
    ``private_utility``, which give the returned value.  Returns that policy
    if it improves private utility by more than 1e-6, else None.
    """
    if search_budget < 1:
        return None
    baseline = private_utility(solve(population, two_level(1.0 - capacity, capacity)))
    x, c1, c2 = _three_level_candidates(capacity, search_budget, seed)
    # validate's checks that the construction leaves open; the mass is summed
    # in expected_reward's order, 0*c1 + x*(c2 - c1) + 1*(1 - c2)
    valid = (0.0 < x) & (x < 1.0) & (np.abs(x * (c2 - c1) + (1.0 - c2) - capacity) <= CAPACITY_TOL)
    x, c1, c2 = x[valid], c1[valid], c2[valid]
    if not len(x):
        return None
    levels = np.stack((np.zeros_like(x), x, np.ones_like(x)), axis=1)
    _, values = band_utilities(population, levels, np.stack((c1, c2), axis=1))
    best = int(np.argmax(values))
    x, c1, c2 = float(x[best]), float(c1[best]), float(c2[best])
    policy = three_level_policy(x, c1, c2, capacity)
    value = private_utility(solve(population, policy))
    if value - baseline > 1e-6:
        return ThreeLevelSearchResult(policy, x, c1, c2, value, baseline)
    return None
