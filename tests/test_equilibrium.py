import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from rankdesign import (
    AffinePower,
    DomainError,
    PerturbationError,
    PiecewiseMonotone,
    PopulationSpec,
    Power,
    RewardPolicy,
    Role,
    check_rank_preservation,
    comparative_statics_check,
    corrupted_schedule,
    effort_at,
    reward_at,
    sample_schedule,
    score_at,
    solve,
    threshold_indifference_residuals,
    two_level,
)
from rankdesign.equilibrium import STATICS_GRID, _band_effort, _band_score

FOUR_LEVEL = RewardPolicy((0.0, 0.2, 0.5, 1.0), (0.4, 0.7, 0.9), 0.26)
# g(e0) = 0.4 > 0: idle effort scores, and bands have switch points
IDLE_SCORE_POPULATION = PopulationSpec(
    f=Power(2.0, 1.0, role=Role.SKILL_QUANTILE),
    g=AffinePower(1.0, 0.5, 0.4, role=Role.EFFORT_TRANSFER),
    p=Power(1.0, 2.0, role=Role.COST_FUNCTION),
)


def test_two_level_worked_example(benchmark_population):
    schedule = solve(benchmark_population, two_level(0.8, 0.2))
    assert schedule.bands[1].threshold_effort == pytest.approx(1.0, abs=1e-12)
    assert effort_at(schedule, 0.8) == pytest.approx(1.0, abs=1e-12)
    assert effort_at(schedule, 1.0) == pytest.approx(0.64, abs=1e-12)
    assert effort_at(schedule, 0.9) == pytest.approx((0.8 / 0.9) ** 2, abs=1e-12)
    # admitted scores are constant because idle effort produces zero score
    for theta in (0.8, 0.9, 0.95, 1.0):
        assert score_at(schedule, theta) == pytest.approx(1.6, abs=1e-12)
    assert score_at(schedule, 0.5) == 0.0
    assert effort_at(schedule, 0.5) == 0.0


def test_pure_randomization_idles(benchmark_population):
    schedule = solve(benchmark_population, two_level(0.0, 0.2))
    for theta in np.linspace(0, 1, 17):
        assert effort_at(schedule, theta) == benchmark_population.e0


def test_second_price_indifference(benchmark_population):
    schedule = solve(benchmark_population, FOUR_LEVEL)
    for residual in threshold_indifference_residuals(schedule):
        assert abs(residual) <= 1e-10


def test_threshold_exceeds_boundary_effort(benchmark_population):
    schedule = solve(benchmark_population, FOUR_LEVEL)
    for k in range(1, 4):
        band = schedule.bands[k]
        prev_at_cut = effort_at(schedule, band.lo - 1e-12)
        assert band.threshold_effort >= prev_at_cut


def test_effort_jumps_and_decreases(benchmark_population):
    schedule = solve(benchmark_population, FOUR_LEVEL)
    for c in FOUR_LEVEL.cutpoints:
        below = effort_at(schedule, c - 1e-9)
        above = effort_at(schedule, c)
        assert above > below
    thetas = np.linspace(0.401, 0.699, 50)
    efforts = [effort_at(schedule, t) for t in thetas]
    assert all(b <= a for a, b in zip(efforts, efforts[1:]))


def test_score_separation_strict(benchmark_population):
    schedule = solve(benchmark_population, FOUR_LEVEL)
    grid = np.linspace(0, 1, 4001)
    scores = np.array([score_at(schedule, t) for t in grid])
    bands = np.array([schedule.band_of(t).k for t in grid])
    for k in range(1, 4):
        assert scores[bands == k].min() > scores[bands == k - 1].max()


def test_solve_deterministic(benchmark_population):
    a = solve(benchmark_population, FOUR_LEVEL)
    b = solve(benchmark_population, FOUR_LEVEL)
    assert a.bands == b.bands


def test_best_response_optimality(benchmark_population):
    """No applicant gains by matching another band's threshold score."""
    schedule = solve(benchmark_population, FOUR_LEVEL)
    pop = benchmark_population
    policy = FOUR_LEVEL
    rng = np.random.default_rng(23)
    floors = {0: 0.0}
    for k in range(1, policy.k):
        band = schedule.bands[k]
        floors[k] = pop.g.evaluate(band.threshold_effort) * pop.f.evaluate(band.lo)
    for theta in rng.uniform(1e-3, 1.0, 100):
        k = schedule.band_of(theta).k
        own = policy.levels[k] - pop.p.evaluate(effort_at(schedule, theta))
        for m in range(policy.k):
            if m == k:
                continue
            if m == 0:
                deviation_effort = pop.e0
            else:
                target = floors[m] / pop.f.evaluate(theta)
                deviation_effort = max(pop.g.invert(target), pop.e0)
            alt = policy.levels[m] - pop.p.evaluate(deviation_effort)
            assert own >= alt - 1e-9


def test_rank_preservation_clean(benchmark_population):
    report = check_rank_preservation(solve(benchmark_population, FOUR_LEVEL), 2000)
    assert report.ok
    report = check_rank_preservation(solve(benchmark_population, two_level(0.0, 0.2)), 100)
    assert report.ok


def test_rank_preservation_negative_control(benchmark_population):
    """Halving the top band's threshold drops its scores below the band beneath."""
    policy = RewardPolicy((0.0, 0.9, 1.0), (0.5, 0.75), 0.475)
    schedule = solve(benchmark_population, policy)
    assert check_rank_preservation(schedule, 500).ok
    broken = corrupted_schedule(schedule, k=2, factor=0.5)
    report = check_rank_preservation(broken, 500)
    assert not report.ok
    assert any(v.kind == "score-overlap" for v in report.violations)


def test_corrupted_threshold_breaks_indifference(benchmark_population):
    """A scaled bottom threshold keeps score order but fails the pricing identity."""
    schedule = solve(benchmark_population, two_level(0.8, 0.2))
    broken = corrupted_schedule(schedule, k=1, factor=0.5)
    residuals = threshold_indifference_residuals(broken)
    assert max(abs(r) for r in residuals) > 1e-3


def test_switch_point_with_positive_idle_score():
    pop = PopulationSpec(
        f=Power(2.0, 1.0, role=Role.SKILL_QUANTILE),
        g=AffinePower(1.0, 0.5, 0.4, role=Role.EFFORT_TRANSFER),
        p=Power(1.0, 2.0, role=Role.COST_FUNCTION),
        e0=0.0,
    )
    schedule = solve(pop, two_level(0.2, 0.2))
    band = schedule.bands[1]
    assert band.switch_point is not None
    sp = band.switch_point
    # at the switch point both score branches agree
    floor = pop.g.evaluate(band.threshold_effort) * pop.f.evaluate(0.2)
    assert pop.g.evaluate(pop.e0) * pop.f.evaluate(sp) == pytest.approx(floor, rel=1e-9)
    # beyond it the effort has fallen back to e0 and the score grows again
    assert effort_at(schedule, min(sp + 1e-3, 1.0)) == pop.e0
    assert score_at(schedule, 1.0) > score_at(schedule, sp) - 1e-12
    assert check_rank_preservation(schedule, 1000).ok


def test_comparative_statics(benchmark_population):
    report = comparative_statics_check(benchmark_population, FOUR_LEVEL, k=1, j=3, delta=0.01)
    assert report.ok
    report = comparative_statics_check(benchmark_population, FOUR_LEVEL, k=1, j=3, delta=0.0)
    assert report.ok and report.max_violation == 0.0
    # band 0 efforts stay at e0 when its level rises
    report = comparative_statics_check(benchmark_population, FOUR_LEVEL, k=0, j=2, delta=0.01)
    assert report.ok
    with pytest.raises(PerturbationError):
        comparative_statics_check(benchmark_population, FOUR_LEVEL, k=1, j=2, delta=0.2)
    with pytest.raises(DomainError):
        comparative_statics_check(benchmark_population, FOUR_LEVEL, k=2, j=1, delta=0.01)


def test_comparative_statics_strict_increase(benchmark_population):
    base = solve(benchmark_population, FOUR_LEVEL)
    levels = list(FOUR_LEVEL.levels)
    bounds = (0.0,) + FOUR_LEVEL.cutpoints + (1.0,)
    delta = 0.01
    levels[1] += delta
    levels[3] -= delta * (bounds[2] - bounds[1]) / (bounds[4] - bounds[3])
    moved = solve(benchmark_population, RewardPolicy(tuple(levels), FOUR_LEVEL.cutpoints, 0.26))
    theta = 0.55  # interior of band 1, above e0
    assert effort_at(moved, theta) > effort_at(base, theta)


def test_sample_schedule_grid(benchmark_population):
    schedule = solve(benchmark_population, FOUR_LEVEL)
    rows = sample_schedule(schedule, 2)
    thetas = [r[0] for r in rows]
    assert thetas == sorted({0.0, 1.0, *FOUR_LEVEL.cutpoints})
    for theta, band, effort, score in rows:
        assert reward_at(FOUR_LEVEL, theta) == FOUR_LEVEL.levels[band]
        assert effort == pytest.approx(effort_at(schedule, theta))
        assert score == pytest.approx(score_at(schedule, theta))


def test_invalid_policy_rejected(benchmark_population):
    with pytest.raises(DomainError):
        solve(benchmark_population, RewardPolicy((0.5, 0.3), (0.5,), 0.4))


def test_misconfigured_domains_raise_model_error():
    from rankdesign import ModelError

    # transfer defined only up to effort 0.8 but the deterrence effort is 1.0
    pop = PopulationSpec(
        f=Power(2.0, 1.0, role=Role.SKILL_QUANTILE),
        g=PiecewiseMonotone(((0.0, 0.0), (0.4, 0.4), (0.8, 0.6)), role=Role.EFFORT_TRANSFER),
        p=Power(1.0, 2.0, role=Role.COST_FUNCTION),
    )
    with pytest.raises(ModelError):
        schedule = solve(pop, two_level(0.8, 0.2))
        effort_at(schedule, 0.8)
    # cost bounded above by 0.5 cannot absorb a unit reward jump
    pop2 = PopulationSpec(
        f=Power(2.0, 1.0, role=Role.SKILL_QUANTILE),
        g=Power(1.0, 0.5, role=Role.EFFORT_TRANSFER),
        p=PiecewiseMonotone(((0.0, 0.0), (0.5, 0.1), (1.0, 0.5)), role=Role.COST_FUNCTION),
    )
    with pytest.raises(ModelError):
        solve(pop2, two_level(0.8, 0.2))
    # with g(e0) > 0 the floor of the admitted band needs g at the threshold as well
    pop3 = replace(pop, g=PiecewiseMonotone(((0.0, 0.1), (0.4, 0.4), (0.8, 0.6)), role=Role.EFFORT_TRANSFER))
    with pytest.raises(ModelError, match="domains are inconsistent"):
        solve(pop3, two_level(0.8, 0.2))


def test_bands_store_floor_and_idle_transfer(benchmark_population):
    for population in (benchmark_population, IDLE_SCORE_POPULATION):
        schedule = solve(population, FOUR_LEVEL)
        idle = population.g.evaluate(population.e0)
        assert schedule.bands[0].floor is None
        for band in schedule.bands:
            assert band.idle == idle
        for band in schedule.bands[1:]:
            assert band.floor == population.g.evaluate(band.threshold_effort) * population.f.evaluate(band.lo)


def test_corrupted_schedule_recomputes_the_floor(benchmark_population):
    schedule = solve(benchmark_population, FOUR_LEVEL)
    broken = corrupted_schedule(schedule, k=2, factor=0.5)
    band = broken.bands[2]
    assert band.threshold_effort == 0.5 * schedule.bands[2].threshold_effort
    assert band.floor == benchmark_population.g.evaluate(band.threshold_effort) * benchmark_population.f.evaluate(band.lo)
    assert broken.bands[:2] == schedule.bands[:2] and broken.bands[3] == schedule.bands[3]


def test_band_formula_takes_arrays(benchmark_population):
    # under two_level(0.2, 0.2) the admitted band of IDLE_SCORE_POPULATION has a switch point
    for population, policy in product((benchmark_population, IDLE_SCORE_POPULATION), (FOUR_LEVEL, two_level(0.2, 0.2))):
        schedule = solve(population, policy)
        for band in schedule.bands:
            thetas = np.linspace(band.lo, band.hi, 33)
            efforts = _band_effort(population, band, thetas)
            scores = _band_score(population, band, thetas)
            assert efforts.shape == scores.shape == thetas.shape
            # the array power may differ from the scalar one in the last place, and
            # where the band idles the array gives e0 to rounding
            scalar = [(_band_effort(population, band, t), _band_score(population, band, t)) for t in thetas.tolist()]
            np.testing.assert_allclose(efforts, [e for e, _ in scalar], rtol=1e-14, atol=1e-15)
            np.testing.assert_allclose(scores, [v for _, v in scalar], rtol=1e-14, atol=0.0)


# -- scalar references: the per-rank loops that the array reads replaced ------

def reference_rank_check(schedule, grid_size):
    """(grid size, [(theta, kind, margin)]) of the rank check, one rank at a time."""
    policy = schedule.policy
    thetas = sorted({i / (grid_size - 1) for i in range(grid_size)} | set(policy.cutpoints))
    band_min, band_max = {}, {}
    for theta in thetas:
        band = schedule.band_of(theta)
        s = _band_score(schedule.population, band, theta)
        band_min[band.k] = min(band_min.get(band.k, math.inf), s)
        band_max[band.k] = max(band_max.get(band.k, -math.inf), s)
    violations = []
    for k in range(1, policy.k):
        if k in band_min and (k - 1) in band_max:
            margin = band_min[k] - band_max[k - 1]
            if margin <= 0.0:
                violations.append((schedule.bands[k].lo, "score-overlap", margin))
    return len(thetas), violations


def reference_comparative_statics(population, policy, perturbed, k, j):
    """(below_ok, raised_ok, lowered_ok, max_violation), one rank at a time."""
    base, moved = solve(population, policy), solve(population, perturbed)
    worst = 0.0
    below_ok = raised_ok = lowered_ok = True
    for i in range(STATICS_GRID):
        theta = (i + 0.5) / STATICS_GRID
        band = base.band_of(theta).k
        d = effort_at(moved, theta) - effort_at(base, theta)
        if band < k:
            if abs(d) > 1e-12:
                below_ok = False
                worst = max(worst, abs(d))
        elif band == k:
            if d < -1e-12:
                raised_ok = False
                worst = max(worst, -d)
        elif band <= j:
            if d > 1e-12:
                lowered_ok = False
                worst = max(worst, d)
    return below_ok, raised_ok, lowered_ok, worst


def reference_sample_schedule(schedule, grid):
    """``sample_schedule``'s rows, one rank at a time."""
    thetas = {i / (grid - 1) for i in range(grid)}
    thetas.update(schedule.policy.cutpoints)
    pop = schedule.population
    rows = []
    for theta in sorted(thetas):
        band = schedule.band_of(theta)
        rows.append((theta, band.k, _band_effort(pop, band, theta), _band_score(pop, band, theta)))
    return rows


THREE_LEVEL = RewardPolicy((0.0, 0.9, 1.0), (0.5, 0.75), 0.475)


def _reference_schedules(benchmark_population):
    """The rank-check and sampling cases above, with both corrupted negative controls."""
    schedules = [solve(population, policy) for population, policy in product(
        (benchmark_population, IDLE_SCORE_POPULATION), (FOUR_LEVEL, THREE_LEVEL, two_level(0.8, 0.2),
                                                        two_level(0.2, 0.2), two_level(0.0, 0.2)))]
    broken = [corrupted_schedule(solve(benchmark_population, THREE_LEVEL), k=2, factor=0.5),
              corrupted_schedule(solve(benchmark_population, FOUR_LEVEL), k=2, factor=0.5)]
    return schedules + broken


def _near(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def test_rank_check_matches_scalar_reference(benchmark_population):
    seen_violation = False
    for schedule in _reference_schedules(benchmark_population):
        for grid_size in (2, 500, 2000):
            report = check_rank_preservation(schedule, grid_size)
            size, want = reference_rank_check(schedule, grid_size)
            assert report.grid_size == size
            assert [(v.theta, v.kind) for v in report.violations] == [(theta, kind) for theta, kind, _ in want]
            assert all(_near(v.margin, margin) for v, (_, _, margin) in zip(report.violations, want))
            seen_violation |= bool(want)
    assert seen_violation  # the corrupted schedules fail the check


@pytest.mark.parametrize("population", ["benchmark", "idle"])
@pytest.mark.parametrize("k, j, delta", [(1, 3, 0.01), (1, 3, 0.0), (0, 2, 0.01), (1, 2, -0.01), (1, 2, -0.05)])
def test_comparative_statics_matches_scalar_reference(benchmark_population, population, k, j, delta):
    """A negative delta lowers band k and raises band j, so both of their checks fail."""
    population = benchmark_population if population == "benchmark" else IDLE_SCORE_POPULATION
    report = comparative_statics_check(population, FOUR_LEVEL, k, j, delta)
    bounds = (0.0,) + FOUR_LEVEL.cutpoints + (1.0,)
    levels = list(FOUR_LEVEL.levels)
    levels[k] += delta
    levels[j] -= delta * (bounds[k + 1] - bounds[k]) / (bounds[j + 1] - bounds[j])
    perturbed = RewardPolicy(tuple(levels), FOUR_LEVEL.cutpoints, FOUR_LEVEL.capacity)
    *flags, worst = reference_comparative_statics(population, FOUR_LEVEL, perturbed, k, j)
    assert [report.unchanged_below_ok, report.raised_band_ok, report.lowered_bands_ok] == flags
    assert _near(report.max_violation, worst)
    assert report.ok == (delta >= 0.0)


def test_sample_schedule_matches_scalar_reference(benchmark_population):
    for schedule in _reference_schedules(benchmark_population):
        for grid in (2, 101):
            rows = sample_schedule(schedule, grid)
            want = reference_sample_schedule(schedule, grid)
            assert [(theta, band) for theta, band, _, _ in rows] == [(theta, band) for theta, band, _, _ in want]
            for (_, _, effort, score), (_, _, e, s) in zip(rows, want):
                assert _near(effort, e) and _near(score, s)
            assert all(type(v) is float for row in rows for v in (row[0], row[2], row[3]))
            assert all(type(row[1]) is int for row in rows)
