import math
import random

import pytest

from rankdesign import (
    CapacityError,
    DomainError,
    ModelError,
    Objective,
    PiecewiseMonotone,
    PopulationSpec,
    Power,
    Role,
    find_three_level_improvement,
    optimize_two_level,
    private_utility,
    solve,
    three_level_counterexample_check,
    three_level_policy,
    two_level,
    validate,
)
from rankdesign.design import (
    GRID_POINTS,
    OptimizeResult,
    ThreeLevelSearchResult,
    _golden_max,
    _objective_fn,
    _three_level_candidates,
)


def test_optimize_societal(benchmark_population):
    result = optimize_two_level(benchmark_population, 0.2, Objective.SOCIETAL_UTILITY)
    assert result.c_star == pytest.approx(4.0 / 7.0, abs=1e-4)
    assert result.value == pytest.approx(2 * (4 / 7) * (3 / 7) ** 0.75 * 0.2**0.25, abs=1e-6)


def test_optimize_private_boundary(benchmark_population):
    result = optimize_two_level(benchmark_population, 0.2, Objective.PRIVATE_UTILITY)
    assert result.c_star == pytest.approx(0.8, abs=1e-5)
    values = [v for _, v in result.profile]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-9  # private utility profile non-decreasing in c


def test_optimize_applicant_pure_randomization(benchmark_population):
    result = optimize_two_level(benchmark_population, 0.2, Objective.APPLICANT_WELFARE)
    assert result.c_star <= 1e-4
    assert result.value == pytest.approx(0.2, abs=1e-6)


def test_optimize_value_matches_fresh_evaluation(benchmark_population):
    result = optimize_two_level(benchmark_population, 0.2, Objective.SOCIETAL_UTILITY)
    from rankdesign import societal_utility

    fresh = societal_utility(solve(benchmark_population, two_level(result.c_star, 0.2)))
    assert result.value == pytest.approx(fresh, abs=1e-9)


HEAVY_TAIL = PopulationSpec(
    f=Power(1.0, 8.0, role=Role.SKILL_QUANTILE),
    g=Power(1.0, 0.5, role=Role.EFFORT_TRANSFER),
    p=Power(1.0, 2.0, role=Role.COST_FUNCTION),
)


def test_three_level_check_degenerate_collapses(benchmark_population):
    check = three_level_counterexample_check(benchmark_population, x=0.5, c1=0.8, c2=0.8, capacity=0.2)
    assert check.lhs == pytest.approx(check.rhs, abs=1e-12)
    assert check.three_level_value == pytest.approx(check.two_level_value, abs=1e-12)
    assert not check.holds


def test_three_level_check_capacity_guard(benchmark_population):
    with pytest.raises(CapacityError):
        three_level_counterexample_check(benchmark_population, x=0.5, c1=0.3, c2=0.9, capacity=0.2)


def test_three_level_skill_inequality_threshold():
    """Skill values above the explicit bound flip the simplified inequality."""
    x, c2, rho = 0.12, 0.889, 0.2
    c1 = c2 - (rho - (1 - c2)) / x
    assert x * (c2 - c1) + (1 - c2) == pytest.approx(rho, abs=1e-12)
    f_c1, f_top = 0.001, 0.002  # pinned skill values at c1 and 1 - rho
    bound = (f_top * rho - x**2 * f_c1 * (c2 - c1) - x * f_c1 * (1 - c2)) / ((1 - x) * (1 - c2))
    f_steep = PiecewiseMonotone(
        ((0.0, 0.0), (c1, f_c1), (1 - rho, f_top), (c2, bound * 1.5), (1.0, bound * 3.0))
    )
    pop = PopulationSpec(
        f=f_steep,
        g=Power(1.0, 0.5, role=Role.EFFORT_TRANSFER),
        p=Power(1.0, 2.0, role=Role.COST_FUNCTION),
    )
    check = three_level_counterexample_check(pop, x=x, c1=c1, c2=c2, capacity=rho)
    assert check.lhs > check.rhs


def test_heavy_tail_search_finds_improvement():
    result = find_three_level_improvement(HEAVY_TAIL, 0.2, search_budget=2000, seed=0)
    assert result is not None
    assert result.margin > 1e-6
    assert validate(result.policy).ok
    # fresh evaluation agrees with the stored value
    assert private_utility(solve(HEAVY_TAIL, result.policy)) == pytest.approx(result.value, abs=1e-12)


def test_uniform_population_search_regression(benchmark_population):
    """No three-level improvement exists for the linear-skill benchmark."""
    result = find_three_level_improvement(benchmark_population, 0.2, search_budget=2000, seed=0)
    assert result is None


def test_zero_budget_returns_none(benchmark_population):
    assert find_three_level_improvement(benchmark_population, 0.2, search_budget=0) is None


# --- the batched grid and search against their scalar loops ------------------


def reference_optimize_two_level(population, capacity, objective):
    """optimize_two_level with one scalar solve per grid cutoff."""
    value_at = _objective_fn(population, capacity, objective)
    hi = 1.0 - capacity
    cs = [0.0] + [hi * i / GRID_POINTS for i in range(1, GRID_POINTS + 1)]
    profile = [(c, value_at(c)) for c in cs]
    best = max(range(len(profile)), key=lambda i: profile[i][1])
    c_star, v_star = _golden_max(value_at, cs[max(best - 1, 0)], cs[min(best + 1, len(cs) - 1)])
    if profile[best][1] > v_star:
        c_star, v_star = profile[best]
    return OptimizeResult(c_star, v_star, tuple(profile))


@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize("heavy_tail", [False, True])
def test_batched_grid_keeps_the_optimum(benchmark_population, objective, heavy_tail):
    population = HEAVY_TAIL if heavy_tail else benchmark_population
    got = optimize_two_level(population, 0.2, objective)
    want = reference_optimize_two_level(population, 0.2, objective)
    assert (got.c_star, got.value) == (want.c_star, want.value)
    assert [c for c, _ in got.profile] == [c for c, _ in want.profile]
    for (_, value), (_, exact) in zip(got.profile, want.profile):
        assert value == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("objective", list(Objective))
def test_batched_grid_raises_the_first_failing_cutoffs_error(objective):
    # the transfer ends at effort 0.8: grid cutoffs from 0.688 up need a larger threshold effort
    population = PopulationSpec(
        Power(2.0, 1.0, role=Role.SKILL_QUANTILE),
        PiecewiseMonotone(((0.0, 0.1), (0.4, 0.4), (0.8, 0.6)), role=Role.EFFORT_TRANSFER),
        Power(1.0, 2.0, role=Role.COST_FUNCTION),
    )
    with pytest.raises(ModelError) as want:
        reference_optimize_two_level(population, 0.2, objective)
    with pytest.raises(ModelError) as got:
        optimize_two_level(population, 0.2, objective)
    assert str(got.value) == str(want.value)


def reference_find_three_level_improvement(population, capacity, search_budget, seed=0):
    """find_three_level_improvement with one validate, solve and private_utility per candidate."""
    if search_budget < 1:
        return None
    baseline = private_utility(solve(population, two_level(1.0 - capacity, capacity)))
    rng = random.Random(seed)
    best = None
    evals = 0

    def consider(x, c2):
        nonlocal best, evals
        if evals >= search_budget:
            return
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
        if evals == before:
            evals += 1
    if best is not None and best.margin > 1e-6:
        return best
    return None


@pytest.mark.parametrize("budget", [0, 1, 3, 4, 10, 100, 2000, 10000])
@pytest.mark.parametrize("heavy_tail", [False, True])
def test_search_matches_scalar_reference(benchmark_population, heavy_tail, budget):
    population = HEAVY_TAIL if heavy_tail else benchmark_population
    for seed in range(10):
        got = find_three_level_improvement(population, 0.2, budget, seed)
        # the same None, or the same candidate with bit-identical value and baseline
        assert got == reference_find_three_level_improvement(population, 0.2, budget, seed)
        if heavy_tail and budget >= 4:
            assert got is not None


def test_small_budgets_stop_inside_the_lattice():
    # at capacity 0.2 all four points of the smallest, 2 x 2 lattice are feasible,
    # and on f = x**8 the first one wins, so a wrong count would not show in the result
    for budget in (1, 2, 3, 4):
        assert len(_three_level_candidates(0.2, budget, seed=0)[0]) == budget
