import math
from dataclasses import replace

import numpy as np
import pytest

from rankdesign import (
    AffinePower,
    DiscreteInstance,
    DomainError,
    GroupSpec,
    PiecewiseMonotone,
    PopulationSpec,
    Power,
    RegionError,
    RewardPolicy,
    Role,
    access,
    audit_sweep,
    certify_equilibrium,
    effort_at,
    f_mix,
    f_mix_inverse,
    group_thresholds,
    pre_rank,
    region_table,
    solve,
    two_level,
    welfare_gap,
    welfare_gap_derivative,
)
from rankdesign.equilibrium import sample_schedule
from rankdesign.groups import _MixedQuantile
from rankdesign.oracle import default_effort_cap

GROUPS = GroupSpec(2.0, 1.0)


def test_group_spec_validation():
    with pytest.raises(DomainError):
        GroupSpec(1.0, 2.0)
    with pytest.raises(DomainError):
        GroupSpec(-1.0, -2.0)
    with pytest.raises(DomainError):
        GroupSpec(2.0, 1.0, share=0.3)
    GroupSpec(1.0, 1.0)  # equal factors allowed for the symmetric reduction


@pytest.mark.parametrize(
    "args, field",
    [
        ((math.inf, 1.0), "gamma_a"),
        ((math.nan, 1.0), "gamma_a"),
        ((2.0, math.inf), "gamma_b"),
        ((2.0, math.nan), "gamma_b"),
        ((2.0, 1.0, math.nan), "share"),
    ],
)
def test_group_spec_rejects_non_finite(args, field):
    with pytest.raises(DomainError, match=f"{field} must be finite"):
        GroupSpec(*args)


@pytest.mark.parametrize(
    "obj", [{"gamma_a": "x", "gamma_b": 1.0}, {"gamma_a": 2.0, "gamma_b": None}, {"gamma_a": [2.0], "gamma_b": 1.0}, "x"]
)
def test_group_spec_from_json_rejects_non_numbers(obj):
    with pytest.raises(DomainError):
        GroupSpec.from_json(obj)


def test_f_mix_inverse_linear(identity_population):
    assert f_mix_inverse(identity_population, GROUPS, 0.4) == pytest.approx(0.3, abs=1e-12)
    assert f_mix_inverse(identity_population, GROUPS, 0.0) == 0.0
    assert f_mix_inverse(identity_population, GROUPS, 2.0) == 1.0
    assert f_mix_inverse(identity_population, GROUPS, 5.0) == 1.0


def test_f_mix_quantile(identity_population):
    assert f_mix(identity_population, GROUPS, 0.3) == pytest.approx(0.4, abs=1e-9)
    assert f_mix(identity_population, GROUPS, 0.0) == 0.0
    assert f_mix(identity_population, GROUPS, 1.0) == pytest.approx(2.0, abs=1e-12)


def test_pre_rank(identity_population):
    assert pre_rank(identity_population, GROUPS, 0.3, "A") == pytest.approx(0.45, abs=1e-12)
    assert pre_rank(identity_population, GROUPS, 0.0, "A") == 0.0
    assert pre_rank(identity_population, GROUPS, 0.0, "B") == 0.0
    assert pre_rank(identity_population, GROUPS, 1.0, "A") == pytest.approx(1.0, abs=1e-12)


def test_group_thresholds(identity_population):
    tau_a, tau_b = group_thresholds(identity_population, GROUPS, 0.3)
    assert tau_a == pytest.approx(0.2, abs=1e-9)
    assert tau_b == pytest.approx(0.4, abs=1e-9)
    equal = GroupSpec(1.5, 1.5)
    tau_a, tau_b = group_thresholds(identity_population, equal, 0.3)
    assert tau_a == pytest.approx(0.3, abs=1e-9)
    assert tau_b == pytest.approx(0.3, abs=1e-9)


def test_symmetric_groups_reduce_to_base(identity_population):
    equal = GroupSpec(1.0, 1.0)
    for theta in np.linspace(0, 1, 50):
        assert pre_rank(identity_population, equal, theta, "A") == pytest.approx(theta, abs=1e-12)
        assert pre_rank(identity_population, equal, theta, "B") == pytest.approx(theta, abs=1e-12)


def test_welfare_gap_regions(identity_population):
    policy = two_level(0.3, 0.2)
    tau_a, tau_b = group_thresholds(identity_population, GROUPS, 0.3)
    assert welfare_gap(identity_population, GROUPS, policy, 0.5 * tau_a) == 0.0
    assert welfare_gap(identity_population, GROUPS, policy, 0.5 * (tau_a + tau_b)) > 0.0
    assert welfare_gap(identity_population, GROUPS, policy, 0.9) > 0.0


def test_welfare_gap_nonnegative_everywhere(identity_population):
    for c in np.linspace(0.05, 0.8, 20):
        policy = two_level(float(c), 0.2)
        for theta in np.linspace(0.0, 1.0, 101):
            assert welfare_gap(identity_population, GROUPS, policy, float(theta)) >= -1e-12


def test_pure_randomization_gap_zero(identity_population):
    policy = two_level(0.0, 0.2)
    for theta in np.linspace(0, 1, 2000):
        assert welfare_gap(identity_population, GROUPS, policy, float(theta)) == 0.0


def test_gap_derivative_positive(identity_population):
    fd = welfare_gap_derivative(identity_population, GROUPS, c=0.3, theta_true=0.9, capacity=0.2)
    assert fd.value > 0.0
    assert fd.error_estimate < abs(fd.value)


def test_gap_derivative_symmetric_zero(identity_population):
    equal = GroupSpec(1.0, 1.0)
    fd = welfare_gap_derivative(identity_population, equal, c=0.3, theta_true=0.9, capacity=0.2)
    assert fd.value == pytest.approx(0.0, abs=1e-9)


def test_gap_derivative_richardson(identity_population):
    coarse = welfare_gap_derivative(identity_population, GROUPS, 0.3, 0.9, 0.2, h=1e-3)
    fine = welfare_gap_derivative(identity_population, GROUPS, 0.3, 0.9, 0.2, h=5e-4)
    # halving the step shrinks the deviation from the converged value ~4x
    best = welfare_gap_derivative(identity_population, GROUPS, 0.3, 0.9, 0.2, h=1e-6).value
    assert abs(fine.value - best) < abs(coarse.value - best)


def test_gap_derivative_region_guard(identity_population):
    with pytest.raises(RegionError):
        welfare_gap_derivative(identity_population, GROUPS, c=0.3, theta_true=0.3, capacity=0.2)
    with pytest.raises(RegionError):
        welfare_gap_derivative(identity_population, GROUPS, c=0.8, theta_true=0.9, capacity=0.2)


def test_access_closed_form(identity_population):
    assert access(identity_population, GROUPS, two_level(0.3, 0.2)) == pytest.approx(
        0.2 / 0.7 * 0.6, abs=1e-9
    )
    assert access(identity_population, GROUPS, two_level(0.6, 0.2)) == pytest.approx(0.1, abs=1e-9)
    assert access(identity_population, GROUPS, two_level(0.0, 0.2)) == pytest.approx(0.2)


def test_access_monotone_when_inverse_convex(identity_population):
    cs = np.linspace(0.04, 0.8, 20)
    values = [access(identity_population, GROUPS, two_level(float(c), 0.2)) for c in cs]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-12
    assert all(v < 0.2 for v in values)  # pure randomization dominates


def test_region_classification(identity_population):
    c = 0.3
    tau_a, tau_b = group_thresholds(identity_population, GROUPS, c)
    for theta in np.linspace(0.0, 1.0, 201):
        for group, tau in (("A", tau_a), ("B", tau_b)):
            admitted = pre_rank(identity_population, GROUPS, float(theta), group) >= c
            assert admitted == (theta >= tau - 1e-12)


def test_audit_sweep_rows(identity_population):
    rows = audit_sweep(identity_population, GROUPS, 0.2, [0.1, 0.3, 0.5])
    assert len(rows) == 3
    c, tau_a, tau_b, acc, g25, g50, g75 = rows[1]
    assert c == 0.3
    assert tau_a == pytest.approx(0.2, abs=1e-9)
    assert acc == pytest.approx(0.2 / 0.7 * 0.6, abs=1e-9)
    assert g25 >= 0 and g50 >= 0 and g75 >= 0


def test_region_table(identity_population):
    table = region_table(identity_population, GROUPS, two_level(0.3, 0.2))
    assert table["low"]["range"][1] == pytest.approx(0.2, abs=1e-9)
    assert table["middle"]["admit_a"] == pytest.approx(0.2 / 0.7, abs=1e-12)
    assert table["middle"]["admit_b"] == 0.0
    assert table["high"]["admit_b"] == pytest.approx(0.2 / 0.7, abs=1e-12)


FOUR_LEVEL = RewardPolicy((0.0, 0.2, 0.5, 1.0), (0.4, 0.7, 0.9), 0.26)


def test_access_and_region_table_take_two_level_policies_only(identity_population):
    # both read the policy as two_level(c, capacity): rejected below c, one level above
    for policy in (FOUR_LEVEL, RewardPolicy((0.1, 0.3), (0.5,), 0.2)):
        with pytest.raises(DomainError):
            access(identity_population, GROUPS, policy)
        with pytest.raises(DomainError):
            region_table(identity_population, GROUPS, policy)


def test_welfare_gap_takes_any_policy(identity_population):
    equal = GroupSpec(1.5, 1.5)
    for theta in np.linspace(0.0, 1.0, 101):
        assert math.isfinite(welfare_gap(identity_population, GROUPS, FOUR_LEVEL, float(theta)))
        assert welfare_gap(identity_population, equal, FOUR_LEVEL, float(theta)) == 0.0


# -- the exact mixed quantile against the bisection it replaced ------------


def _reference_cdf_clamped(f, value):
    if value <= f.evaluate(0.0):
        return 0.0
    if value >= f.evaluate(1.0):
        return 1.0
    return min(1.0, max(0.0, f.invert(value)))


def _reference_f_mix_inverse(f, groups, x):
    if x < 0.0:
        return 0.0
    return 0.5 * _reference_cdf_clamped(f, x / groups.gamma_a) + 0.5 * _reference_cdf_clamped(
        f, x / groups.gamma_b
    )


def _reference_f_mix(f, groups, q):
    """The 200-step bisection quantile the library used before the exact one."""
    hi = f.evaluate(1.0) * groups.gamma_a
    if q <= 0.0:
        return f.evaluate(0.0) * groups.gamma_b
    if q >= 1.0:
        return hi
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _reference_f_mix_inverse(f, groups, mid) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


NINE_KNOTS = PiecewiseMonotone(tuple((x, 0.25 + 2.0 * x**1.5) for x in np.linspace(0.0, 1.0, 9)))
MIXED_SKILLS = [Power(1.0, 1.0), Power(2.0, 1.5), AffinePower(1.0, 2.0, 0.5), NINE_KNOTS]
GAMMA_PAIRS = [(2.0, 1.0), (1.0, 1.0), (1.5, 1.5), (1.3, 0.7), (4.0, 1.0)]


@pytest.mark.parametrize("gammas", GAMMA_PAIRS)
@pytest.mark.parametrize("f", MIXED_SKILLS)
def test_mixed_quantile_matches_bisection(f, gammas):
    groups = GroupSpec(*gammas)
    mixed = _MixedQuantile(f, groups)
    top = f.evaluate(1.0) * groups.gamma_a
    # the bisection stops within 1e-12 * max(1, top)
    tol = 2e-12 * max(1.0, top)
    for q in np.random.default_rng(5).uniform(0.0, 1.0, 400).tolist() + [0.0, 1.0]:
        assert mixed.evaluate(q) == pytest.approx(_reference_f_mix(f, groups, q), abs=tol)
    for x in np.random.default_rng(6).uniform(-0.1, 1.1 * top, 400).tolist():
        assert mixed.invert(x) == pytest.approx(_reference_f_mix_inverse(f, groups, x), abs=1e-14)


@pytest.mark.parametrize("gammas", GAMMA_PAIRS)
@pytest.mark.parametrize("f", MIXED_SKILLS)
def test_mixed_quantile_monotone_and_round_trip(f, gammas):
    mixed = _MixedQuantile(f, GroupSpec(*gammas))
    qs = np.linspace(0.0, 1.0, 2001).tolist()
    xs = [mixed.evaluate(q) for q in qs]
    assert all(b >= a for a, b in zip(xs, xs[1:]))
    for q, x in zip(qs, xs):
        assert mixed.invert(x) == pytest.approx(q, abs=1e-13)


@pytest.mark.parametrize("gammas", GAMMA_PAIRS)
@pytest.mark.parametrize("f", MIXED_SKILLS)
def test_mixed_quantile_breakpoints_exact(f, gammas):
    groups = GroupSpec(*gammas)
    mixed = _MixedQuantile(f, groups)
    ts = [0.0, *(t for t in f.kinks if 0.0 < t < 1.0), 1.0]
    xs = sorted({gamma * f.evaluate(t) for gamma in gammas for t in ts})
    hs = [mixed.invert(x) for x in xs]
    assert hs[0] == 0.0 and hs[-1] == 1.0
    assert mixed.kinks == tuple(sorted({h for h in hs if 0.0 < h < 1.0}))
    for i, (x, h) in enumerate(zip(xs, hs)):
        # on a flat stretch of the CDF the quantile is its lowest x
        if i == 0 or h > hs[i - 1]:
            assert mixed.evaluate(h) == x


@pytest.mark.parametrize("f", MIXED_SKILLS)
def test_mixed_quantile_reads_arrays_as_numbers(f):
    """An array read gives each value's number read bit for bit, in the array's shape,
    so solve and the schedule's array reads run on the mixed population."""
    mixed = _MixedQuantile(f, GROUPS)
    qs = np.random.default_rng(7).uniform(0.0, 1.0, (40, 3))
    assert mixed.evaluate(qs).shape == qs.shape
    assert mixed.evaluate(qs).tolist() == [[mixed.evaluate(q) for q in row] for row in qs.tolist()]
    xs = np.random.default_rng(8).uniform(-0.1, 1.1 * GROUPS.gamma_a * f.evaluate(1.0), 120)
    assert mixed.invert(xs).tolist() == [mixed.invert(x) for x in xs.tolist()]
    with pytest.raises(DomainError):
        mixed.evaluate(np.array([0.5, 1.5]))
    population = PopulationSpec(mixed, Power(1.0, 0.5, role=Role.EFFORT_TRANSFER), Power(1.0, 2.0, role=Role.COST_FUNCTION))
    schedule = solve(population, two_level(0.4, 0.2))
    for theta, _, effort, _ in sample_schedule(schedule, 50):
        assert effort == pytest.approx(effort_at(schedule, theta), rel=1e-12, abs=1e-15)


# -- two-group oracle cross-check -------------------------------------------


def _three_level(x, c1, c2):
    capacity = RewardPolicy((0.0, x, 1.0), (c1, c2), 0.0).expected_reward()
    return RewardPolicy((0.0, x, 1.0), (c1, c2), capacity)


@pytest.mark.parametrize(
    "g", [Power(1.0, 0.5, role=Role.EFFORT_TRANSFER), AffinePower(1.0, 0.5, 0.1, role=Role.EFFORT_TRANSFER)]
)
@pytest.mark.parametrize("policy", [two_level(0.4, 0.2), _three_level(0.25, 0.5, 0.85)])
def test_two_group_instance_certifies(identity_population, g, policy):
    # Agents of both groups at stratified skill ranks, ranked by scaled skill
    # gamma_G * f(theta) and seeded with the closed-form efforts of solve on
    # the mixed population; g(0) > 0 in the AffinePower case.
    population = replace(identity_population, g=g)
    mixed = replace(population, f=_MixedQuantile(population.f, GROUPS))
    half = 250
    thetas = (np.arange(half) + 0.5) / half
    skill = np.concatenate([GROUPS.gamma_a * thetas, GROUPS.gamma_b * thetas])
    in_b = np.repeat([False, True], half)
    agent_theta = np.concatenate([thetas, thetas])
    ranks = np.array([mixed.f.invert(x) for x in skill])
    order = np.argsort(ranks, kind="stable")
    ranks, skill, in_b, agent_theta = ranks[order], skill[order], in_b[order], agent_theta[order]
    schedule = solve(mixed, policy)
    efforts = [effort_at(schedule, q) for q in ranks]
    n = 2 * half
    cap = default_effort_cap(mixed, policy, 1e-3)
    inst = DiscreteInstance(mixed, policy, ranks, skill, efforts, 1e-3, cap)
    result = certify_equilibrium(inst, eps=5 / n)
    assert result.is_eps_equilibrium, result
    # each group's admitted share against its thresholds at every cutpoint
    levels = inst.assigned_levels()
    thresholds = [group_thresholds(population, GROUPS, c) for c in policy.cutpoints]
    for index, mask in ((0, ~in_b), (1, in_b)):
        taus = [0.0, *(pair[index] for pair in thresholds), 1.0]
        expected = sum(level * (hi - lo) for level, lo, hi in zip(policy.levels, taus, taus[1:]))
        assert levels[mask].mean() == pytest.approx(expected, abs=1.0 / half)
    if policy.k == 2:  # expected is now group B's share, which access gives in closed form
        assert access(population, GROUPS, policy) == pytest.approx(expected, abs=1e-12)
    # the gap at skill ranks away from every threshold: for the two-level policy,
    # neither, only A and both admitted
    welfare = inst.welfares()
    for theta in thetas[[24, 99, 224]]:
        a, b = (int(np.flatnonzero((agent_theta == theta) & (in_b == side))[0]) for side in (False, True))
        assert welfare[a] - welfare[b] == pytest.approx(welfare_gap(population, GROUPS, policy, theta), abs=1e-12)
