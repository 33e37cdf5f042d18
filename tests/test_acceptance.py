"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints one `[ACCEPTANCE] criterion N: PASS/FAIL` line (visible with -s or
-rA).  Expected constants are either derived analytically in-line or
hand-computed from the closed forms; the oracle cross-checks come from the
discrete brute-force module, never from the code path under test.
"""

import time

import numpy as np

from rankdesign import (
    DiscreteInstance,
    GroupSpec,
    MultiSkillSpec,
    Objective,
    PopulationSpec,
    Power,
    RewardPolicy,
    Role,
    UnmeasurableSpec,
    access,
    applicant_welfare,
    beta_for_interior_optimum,
    certify_equilibrium,
    check_multidim_rank_preservation,
    check_rank_preservation,
    effort_at,
    empirical_welfare,
    find_three_level_improvement,
    measurable_conditional_mean,
    optimize_two_level,
    private_utility,
    score_at,
    societal_utility,
    solve,
    three_level_counterexample_check,
    threshold_indifference_residuals,
    two_level,
    two_level_sweep,
    unmeasurable_conditional_mean,
    welfare_gap,
    welfare_gap_derivative,
)

RHO = 0.2

BENCHMARK = PopulationSpec(
    f=Power(2.0, 1.0, role=Role.SKILL_QUANTILE),
    g=Power(1.0, 0.5, role=Role.EFFORT_TRANSFER),
    p=Power(1.0, 2.0, role=Role.COST_FUNCTION),
)

IDENTITY = PopulationSpec(
    f=Power(1.0, 1.0, role=Role.SKILL_QUANTILE),
    g=Power(1.0, 0.5, role=Role.EFFORT_TRANSFER),
    p=Power(1.0, 2.0, role=Role.COST_FUNCTION),
)


def _report(criterion, passed, detail):
    print(f"[ACCEPTANCE] criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_oracle_certifies_closed_form():
    start = time.monotonic()
    n, delta_e = 500, 1e-3
    schedule = solve(BENCHMARK, two_level(0.8, RHO))
    instance = DiscreteInstance.from_schedule(schedule, n, delta_e)
    cert = certify_equilibrium(instance, eps=5.0 / n)
    emp = empirical_welfare(instance)
    elapsed = time.monotonic() - start
    ok = (
        cert.is_eps_equilibrium
        and cert.worst_gain <= 5.0 / n
        and abs(emp.private_utility - 0.32) <= 0.01
        and elapsed < 30.0
    )
    _report(
        1,
        ok,
        f"worst_gain={cert.worst_gain:.3e} (<= {5.0 / n}), "
        f"empirical private utility={emp.private_utility:.4f} (0.32 +- 0.01), {elapsed:.1f}s",
    )


def test_criterion_2_tradeoff_reproduction():
    cs = [0.01 + (0.79 - 0.01) * i / 99 for i in range(100)]
    rows = two_level_sweep(BENCHMARK, RHO, cs)
    welfare = [r[2] for r in rows]
    private = [r[4] for r in rows]
    monotone = all(b <= a + 1e-9 for a, b in zip(welfare, welfare[1:])) and all(
        b >= a - 1e-9 for a, b in zip(private, private[1:])
    )
    result = optimize_two_level(BENCHMARK, RHO, Objective.SOCIETAL_UTILITY)
    ok = (
        monotone
        and abs(result.c_star - 4.0 / 7.0) <= 1e-3
        and abs(result.value - 0.40476) <= 1e-3
    )
    _report(
        2,
        ok,
        f"welfare/private monotone={monotone}, societal max at c={result.c_star:.6f} "
        f"(4/7 +- 1e-3), value={result.value:.5f} (0.40476 +- 1e-3)",
    )


def test_criterion_3_pure_randomization_extremes():
    schedule = solve(BENCHMARK, two_level(0.0, RHO))
    exact_welfare = applicant_welfare(schedule) == RHO
    groups = GroupSpec(2.0, 1.0)
    policy = two_level(0.0, RHO)
    worst_gap = max(
        abs(welfare_gap(IDENTITY, groups, policy, i / 1999)) for i in range(2000)
    )
    ok = exact_welfare and worst_gap <= 1e-12
    _report(3, ok, f"applicant welfare == rho exactly: {exact_welfare}, max |gap| = {worst_gap:.1e}")


def test_criterion_4_four_level_structure():
    policy = RewardPolicy((0.0, 0.2, 0.5, 1.0), (0.4, 0.7, 0.9), 0.26)
    schedule = solve(BENCHMARK, policy)
    jumps = all(
        effort_at(schedule, c) > effort_at(schedule, c - 1e-9) for c in policy.cutpoints
    )
    grid = np.linspace(0.0, 1.0, 10_000)
    bands = np.array([schedule.band_of(t).k for t in grid])
    efforts = np.array([effort_at(schedule, t) for t in grid])
    scores = np.array([score_at(schedule, t) for t in grid])
    decreasing = all(
        np.all(np.diff(efforts[bands == k]) <= 1e-12) for k in range(1, policy.k)
    )
    separated = all(
        scores[bands == k].min() > scores[bands == k - 1].max() for k in range(1, policy.k)
    )
    clean = check_rank_preservation(schedule, 10_000).ok
    ok = jumps and decreasing and separated and clean
    _report(
        4,
        ok,
        f"effort jumps at cutpoints={jumps}, within-band decrease={decreasing}, "
        f"strict score separation={separated}, rank check clean={clean}",
    )


def test_criterion_5_disparate_impact():
    groups = GroupSpec(2.0, 1.0)
    a_03 = access(IDENTITY, groups, two_level(0.3, RHO))
    a_06 = access(IDENTITY, groups, two_level(0.6, RHO))
    cs = np.linspace(0.04, 0.8, 20)
    sweep = [access(IDENTITY, groups, two_level(float(c), RHO)) for c in cs]
    non_increasing = all(b <= a + 1e-12 for a, b in zip(sweep, sweep[1:]))
    fd = welfare_gap_derivative(IDENTITY, groups, c=0.3, theta_true=0.9, capacity=RHO)
    ok = (
        abs(a_03 - 0.171429) <= 1e-6
        and abs(a_06 - 0.1) <= 1e-6
        and non_increasing
        and fd.value > 0.0
    )
    _report(
        5,
        ok,
        f"access(0.3)={a_03:.6f} (0.171429 +- 1e-6), access(0.6)={a_06:.6f} (0.1 +- 1e-6), "
        f"non-increasing={non_increasing}, gap derivative={fd.value:.4f} (> 0)",
    )


def test_criterion_6_three_level_improvement():
    start = time.monotonic()
    heavy = PopulationSpec(
        f=Power(1.0, 8.0, role=Role.SKILL_QUANTILE),
        g=Power(1.0, 0.5, role=Role.EFFORT_TRANSFER),
        p=Power(1.0, 2.0, role=Role.COST_FUNCTION),
    )
    result = find_three_level_improvement(heavy, RHO, search_budget=10_000, seed=0)
    elapsed = time.monotonic() - start
    if result is None:
        _report(6, False, "search returned no improving three-level policy")
        return
    check = three_level_counterexample_check(heavy, result.x, result.c1, result.c2, RHO)
    signs_agree = (check.lhs > check.rhs) == (check.three_level_value > check.two_level_value)
    ok = result.margin > 1e-6 and signs_agree and elapsed < 120.0
    _report(
        6,
        ok,
        f"margin={result.margin:.5f} (> 1e-6) at (x={result.x:.3f}, c1={result.c1:.3f}, "
        f"c2={result.c2:.3f}), inequality sign agrees={signs_agree}, {elapsed:.1f}s",
    )


def test_criterion_7_multidimensional():
    spec = UnmeasurableSpec(
        f=Power(1.0, 1.0),
        g=Power(1.0, 0.5, role=Role.EFFORT_TRANSFER),
        p=Power(1.0, 2.0, role=Role.COST_FUNCTION),
        budget=2.0,
        capacity=RHO,
    )
    beta = beta_for_interior_optimum(spec, 0.4)

    def weighted(c):
        return beta * measurable_conditional_mean(spec, c) + (1 - beta) * unmeasurable_conditional_mean(spec, c)

    h = 2e-5
    derivative = (weighted(0.4 + h) - weighted(0.4 - h)) / (2 * h)
    multi = MultiSkillSpec(
        quantiles=(Power(1.0, 1.0), Power(1.0, 1.0)),
        weights=(0.5, 0.5),
        transfer_slope=1.0,
        cost=Power(1.0, 2.0, role=Role.COST_FUNCTION),
    )
    report = check_multidim_rank_preservation(
        multi, sample_size=500, policy=two_level(0.8, RHO), seed=0, delta_e=5e-3
    )
    ok = 0.0 < beta < 1.0 and abs(derivative) < 1e-4 and report.converged and not report.violations
    _report(
        7,
        ok,
        f"beta={beta:.4f} in (0,1), |d(weighted utility)/dc|={abs(derivative):.2e} (< 1e-4), "
        f"rank-preservation violations={len(report.violations)} over 500 agents",
    )


def test_criterion_8_property_suites():
    rng = np.random.default_rng(41)
    f, g, p = BENCHMARK.f, BENCHMARK.g, BENCHMARK.p
    round_trip = all(
        abs(spec.invert(spec.evaluate(x)) - x) <= 1e-9
        for spec in (f, g, p)
        for x in rng.uniform(0.001, 5.0, 200)
    )
    xs = np.sort(rng.uniform(0.0, 5.0, (200, 2)), axis=1)
    monotone = all(spec.evaluate(a) <= spec.evaluate(b) for spec in (f, g, p) for a, b in xs)
    curvature = all(
        g.evaluate(0.5 * (a + b)) >= 0.5 * (g.evaluate(a) + g.evaluate(b)) - 1e-12
        and p.evaluate(0.5 * (a + b)) <= 0.5 * (p.evaluate(a) + p.evaluate(b)) + 1e-12
        for a, b in xs
    )
    policy = RewardPolicy((0.0, 0.2, 0.5, 1.0), (0.4, 0.7, 0.9), 0.26)
    capacity_identity = abs(policy.expected_reward() - policy.capacity) <= 1e-12
    schedule = solve(BENCHMARK, policy)
    second_price = max(abs(r) for r in threshold_indifference_residuals(schedule)) <= 1e-10
    c = 0.65
    sched = solve(BENCHMARK, two_level(c, RHO))
    analytic = {
        "welfare": RHO * (1 - c * (1 + c + c * c) / 3),
        "societal": 2 * c * (1 - c) ** 0.75 * RHO**0.25,
        "private": RHO * (RHO / (1 - c)) ** 0.25 * 2 * c,
    }
    quadrature_ok = (
        abs(applicant_welfare(sched) - analytic["welfare"]) <= 1e-7 * abs(analytic["welfare"])
        and abs(societal_utility(sched) - analytic["societal"]) <= 1e-7 * abs(analytic["societal"])
        and abs(private_utility(sched) - analytic["private"]) <= 1e-7 * abs(analytic["private"])
    )
    ok = round_trip and monotone and curvature and capacity_identity and second_price and quadrature_ok
    _report(
        8,
        ok,
        f"round-trip={round_trip}, monotone={monotone}, curvature={curvature}, "
        f"capacity identity={capacity_identity}, second-price identity={second_price}, "
        f"quadrature vs analytic (1e-7 rel)={quadrature_ok}",
    )
