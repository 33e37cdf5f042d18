import math

import numpy as np
import pytest

from rankdesign import (
    AffinePower,
    PiecewiseMonotone,
    PopulationSpec,
    Power,
    QuadratureError,
    RewardPolicy,
    Role,
    applicant_welfare,
    effort_at,
    private_utility,
    score_at,
    societal_utility,
    solve,
    two_level,
    two_level_sweep,
    welfare_report,
)
from rankdesign.quadrature import adaptive_simpson, integrate_piecewise


def analytic_applicant_welfare(c, rho=0.2):
    # rho - integral of (tilde_e0 * c^2 / theta^2)^2 over [c, 1]
    return rho * (1.0 - c * (1.0 + c + c * c) / 3.0)


def analytic_societal(c, rho=0.2):
    # (1 - c) * g(tilde_e0) * f(c) with f = 2x, g = sqrt, p = square
    return 2.0 * c * (1.0 - c) ** 0.75 * rho**0.25


def analytic_private(c, rho=0.2):
    return rho * (rho / (1.0 - c)) ** 0.25 * 2.0 * c


def test_simpson_basics():
    value, err = adaptive_simpson(lambda x: x * x, 0.0, 1.0)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-12)
    value, _ = adaptive_simpson(math.sin, 0.0, math.pi)
    assert value == pytest.approx(2.0, rel=1e-9)
    value, err = adaptive_simpson(lambda x: 0.0, 0.0, 1.0)
    assert value == 0.0 and err == 0.0


def test_simpson_piecewise_split():
    f = lambda x: abs(x - 0.3)
    exact = 0.3**2 / 2 + 0.7**2 / 2
    value, _ = integrate_piecewise(f, [0.0, 0.3, 1.0])
    assert value == pytest.approx(exact, rel=1e-10)


def test_simpson_nonconvergence_reports_partial():
    def wild(x):
        return math.sin(1.0 / max(x, 1e-12)) / max(x, 1e-12)

    with pytest.raises(QuadratureError) as info:
        adaptive_simpson(wild, 1e-9, 1.0, rel_tol=1e-13)
    assert info.value.partial is not None and math.isfinite(info.value.partial)


def test_applicant_welfare_matches_analytic(benchmark_population):
    for c in (0.3, 0.5, 0.8):
        schedule = solve(benchmark_population, two_level(c, 0.2))
        got = applicant_welfare(schedule)
        assert got == pytest.approx(analytic_applicant_welfare(c), rel=1e-7)
    assert analytic_applicant_welfare(0.8) == pytest.approx(0.069867, abs=1e-6)


def test_societal_matches_analytic(benchmark_population):
    for c in (0.3, 4.0 / 7.0, 0.8):
        schedule = solve(benchmark_population, two_level(c, 0.2))
        assert societal_utility(schedule) == pytest.approx(analytic_societal(c), rel=1e-7)
    assert analytic_societal(4.0 / 7.0) == pytest.approx(0.40476, abs=1e-3)
    assert analytic_societal(0.8) == pytest.approx(0.32, abs=1e-12)


def test_private_matches_analytic(benchmark_population):
    for c in (0.3, 0.5, 0.8):
        schedule = solve(benchmark_population, two_level(c, 0.2))
        assert private_utility(schedule) == pytest.approx(analytic_private(c), rel=1e-7)
    sched = solve(benchmark_population, two_level(0.8, 0.2))
    assert private_utility(sched) == pytest.approx(0.32, abs=1e-9)
    low = private_utility(solve(benchmark_population, two_level(0.5, 0.2)))
    assert private_utility(sched) > low


def test_pure_randomization_extremes(benchmark_population):
    schedule = solve(benchmark_population, two_level(0.0, 0.2))
    assert applicant_welfare(schedule) == 0.2  # exact: zero effort cost integrand
    assert societal_utility(schedule) == 0.0
    assert private_utility(schedule) == 0.0


BENCHMARK_CUTOFFS = [float(c) for c in np.concatenate([np.geomspace(1e-4, 1e-2, 25), np.linspace(1e-2, 0.79, 60)])]


def test_benchmark_welfare_matches_closed_forms(benchmark_population):
    # scores are closed forms and the cost quadrature is 20-point Gauss-Legendre:
    # both sit at rounding level, far inside the 1e-8 quadrature tolerance
    for c in BENCHMARK_CUTOFFS:
        report = welfare_report(solve(benchmark_population, two_level(c, 0.2)))
        assert report.applicant_welfare == pytest.approx(analytic_applicant_welfare(c), rel=1e-12, abs=0.0)
        assert report.societal_utility == pytest.approx(analytic_societal(c), rel=1e-12, abs=0.0)
        assert report.private_utility == pytest.approx(analytic_private(c), rel=1e-12, abs=0.0)
        assert 0.0 <= report.quadrature_error_estimate <= 1e-8 * report.per_band_effort_cost[1]


def test_welfare_continuity_near_zero_cutoff(benchmark_population):
    schedule = solve(benchmark_population, two_level(1e-3, 0.2))
    assert applicant_welfare(schedule) == pytest.approx(0.2, abs=1e-3)


def test_report_identity_and_fields(benchmark_population):
    schedule = solve(benchmark_population, two_level(0.8, 0.2))
    report = welfare_report(schedule)
    cost = sum(report.per_band_effort_cost)
    assert report.applicant_welfare + cost == pytest.approx(0.2, abs=1e-8)
    assert report.applicant_welfare <= 0.2
    assert len(report.per_band_effort_cost) == 2
    assert report.per_band_effort_cost[0] == 0.0
    assert math.isfinite(report.quadrature_error_estimate)
    payload = report.to_json()
    assert payload["private_utility"] == pytest.approx(0.32, abs=1e-9)


def test_sweep_monotonicity(benchmark_population):
    cs = [0.05 * i for i in range(1, 17)]  # up to 0.8 = 1 - rho
    rows = two_level_sweep(benchmark_population, 0.2, cs)
    welfare = [r[2] for r in rows]
    private = [r[4] for r in rows]
    for a, b in zip(welfare, welfare[1:]):
        assert b <= a + 1e-9
    for a, b in zip(private, private[1:]):
        assert b >= a - 1e-9


def test_private_bounded_by_societal(benchmark_population):
    for policy in (two_level(0.5, 0.2), RewardPolicy((0.0, 0.2, 0.5, 1.0), (0.4, 0.7, 0.9), 0.26)):
        schedule = solve(benchmark_population, policy)
        assert private_utility(schedule) <= societal_utility(schedule) * max(policy.levels) + 1e-12


def test_multilevel_welfare_consistent_with_montecarlo(benchmark_population):
    """Sample-mean cross-check of the quadrature on a four-level policy."""
    policy = RewardPolicy((0.0, 0.2, 0.5, 1.0), (0.4, 0.7, 0.9), 0.26)
    schedule = solve(benchmark_population, policy)
    rng = np.random.default_rng(29)
    thetas = rng.uniform(0.0, 1.0, 200_000)
    from rankdesign import effort_at, reward_at, score_at

    scores = np.array([score_at(schedule, t) for t in thetas])
    costs = np.array([benchmark_population.p.evaluate(effort_at(schedule, t)) for t in thetas])
    rewards = np.array([reward_at(policy, t) for t in thetas])
    assert societal_utility(schedule) == pytest.approx(scores.mean(), abs=3e-3)
    assert applicant_welfare(schedule) == pytest.approx((rewards - costs).mean(), abs=3e-3)
    assert private_utility(schedule) == pytest.approx((scores * rewards).mean(), abs=3e-3)


# --- piecewise-linear primitives: kinks are quadrature breakpoints ---------


def _knots(fn, n, hi, role):
    xs = np.linspace(0.0, hi, n)
    return PiecewiseMonotone(tuple((float(x), float(fn(x))) for x in xs), role=role)


PIECEWISE_POPULATION = PopulationSpec(
    f=_knots(lambda x: 2.0 * x**1.5, 9, 1.0, Role.SKILL_QUANTILE),
    g=_knots(math.sqrt, 17, 2.0, Role.EFFORT_TRANSFER),
    p=_knots(lambda x: x * x, 17, 2.0, Role.COST_FUNCTION),
)


def _interp_reference(population, c, rho):
    """Two-level welfare from np.interp primitives and Gauss-Legendre.

    Independent of the library's evaluation and quadrature: each integral is
    split at every knot of f and at every rank where the effort crosses a
    knot of g or p, and each piece gets 8 x 30 Gauss-Legendre nodes.
    """
    fx, fy = (np.array(v) for v in zip(*population.f.knots))
    gx, gy = (np.array(v) for v in zip(*population.g.knots))
    px, py = (np.array(v) for v in zip(*population.p.knots))
    nodes, weights = np.polynomial.legendre.leggauss(30)

    def integrate(fun, a, b, cuts):
        pts = sorted({a, b} | {float(t) for t in cuts if a < t < b})
        total = 0.0
        for lo, hi in zip(pts, pts[1:]):
            edges = np.linspace(lo, hi, 9)
            for u, v in zip(edges, edges[1:]):
                total += 0.5 * (v - u) * np.dot(weights, fun(0.5 * (v - u) * nodes + 0.5 * (u + v)))
        return total

    level = rho / (1.0 - c)
    threshold = np.interp(level, py, px)  # band 0 idles at e0 = 0, p(0) = 0
    floor = np.interp(threshold, gx, gy) * np.interp(c, fx, fy)
    crossings = [np.interp(floor / np.interp(x, gx, gy), fy, fx) for x in np.concatenate([gx[1:], px[1:]])]
    cuts = list(fx) + crossings
    cost = integrate(lambda t: np.interp(np.interp(floor / np.interp(t, fx, fy), gy, gx), px, py), c, 1.0, cuts)
    score = integrate(lambda t: np.full_like(t, floor), c, 1.0, cuts)  # g(e0) = 0: band 0 scores 0
    return rho - cost, score, level * score


def test_piecewise_population_welfare_exact():
    rho = 0.2
    for c in np.linspace(0.01, 1.0 - rho - 0.01, 100):
        c = float(c)
        report = welfare_report(solve(PIECEWISE_POPULATION, two_level(c, rho)))
        got = (report.applicant_welfare, report.societal_utility, report.private_utility)
        for value, expected in zip(got, _interp_reference(PIECEWISE_POPULATION, c, rho)):
            assert value == pytest.approx(expected, rel=1e-10, abs=0.0)


# --- Power families: results match the per-theta formula -----------------


def _reference_band_effort(pop, band, theta):
    if band.threshold_effort is None:
        return pop.e0
    target = pop.g.evaluate(band.threshold_effort) * pop.f.evaluate(band.lo) / pop.f.evaluate(theta)
    if target <= pop.g.evaluate(pop.e0):
        return pop.e0
    return pop.g.invert(target)


def _reference_band_score(pop, band, theta):
    idle_score = pop.g.evaluate(pop.e0) * pop.f.evaluate(theta)
    if band.threshold_effort is None:
        return idle_score
    return max(pop.g.evaluate(band.threshold_effort) * pop.f.evaluate(band.lo), idle_score)


def _reference_pieces(band):
    pts = {band.lo, band.hi}
    if band.switch_point is not None:
        pts.add(band.switch_point)
    edge = band.lo
    while 0.0 < edge < 0.125 * band.hi:
        edge *= 2.0
        pts.add(edge)
    return sorted(pts)


def _simpson_pieces(fun, pts):
    return sum(adaptive_simpson(fun, a, b)[0] for a, b in zip(pts, pts[1:]))


def _reference_report(schedule):
    """The per-theta formula integrated by scalar adaptive Simpson, band by band."""
    pop, policy = schedule.population, schedule.policy
    per_band, societal, private = [], 0.0, 0.0
    for band, level in zip(schedule.bands, policy.levels):
        pts = _reference_pieces(band)
        per_band.append(_simpson_pieces(lambda t: pop.p.evaluate(_reference_band_effort(pop, band, t)), pts))
        score = _simpson_pieces(lambda t: _reference_band_score(pop, band, t), pts)
        societal += score
        private += level * score
    return policy.capacity - sum(per_band), societal, private, per_band


POWER_POPULATIONS = [
    PopulationSpec(
        f=Power(2.0, 1.0, role=Role.SKILL_QUANTILE),
        g=Power(1.0, 0.5, role=Role.EFFORT_TRANSFER),
        p=Power(1.0, 2.0, role=Role.COST_FUNCTION),
    ),
    PopulationSpec(
        f=Power(1.0, 8.0, role=Role.SKILL_QUANTILE),
        g=Power(1.3, 0.6, role=Role.EFFORT_TRANSFER),
        p=Power(0.7, 2.4, role=Role.COST_FUNCTION),
    ),
    PopulationSpec(  # g(e0) > 0: bands have switch points
        f=Power(2.0, 1.0, role=Role.SKILL_QUANTILE),
        g=AffinePower(1.0, 0.5, 0.4, role=Role.EFFORT_TRANSFER),
        p=Power(1.0, 2.0, role=Role.COST_FUNCTION),
    ),
]


@pytest.mark.parametrize("population", POWER_POPULATIONS)
def test_power_families_match_per_theta_formula(population):
    policies = [two_level(c, 0.2) for c in (1e-4, 0.01, 0.2, 0.5, 0.8)]
    policies.append(RewardPolicy((0.0, 0.2, 0.5, 1.0), (0.4, 0.7, 0.9), 0.26))
    thetas = np.linspace(0.0, 1.0, 257)
    for policy in policies:
        schedule = solve(population, policy)
        report = welfare_report(schedule)
        welfare, societal, private, per_band = _reference_report(schedule)
        assert report.applicant_welfare == pytest.approx(welfare, rel=1e-10, abs=0.0)
        assert report.societal_utility == pytest.approx(societal, rel=1e-10, abs=0.0)
        assert report.private_utility == pytest.approx(private, rel=1e-10, abs=0.0)
        # a band's own cost is as good as Simpson's 1e-8 tolerance: on the small
        # band costs of the second population the reference is 1.5e-9 off
        assert report.per_band_effort_cost == pytest.approx(per_band, rel=1e-8, abs=0.0)
        assert math.isfinite(report.quadrature_error_estimate)
        for theta in thetas:
            band = schedule.band_of(theta)
            assert effort_at(schedule, theta) == _reference_band_effort(population, band, theta)
            assert score_at(schedule, theta) == _reference_band_score(population, band, theta)
