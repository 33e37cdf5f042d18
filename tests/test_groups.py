import math

import numpy as np
import pytest

from rankdesign import (
    DomainError,
    GroupSpec,
    RegionError,
    TwoLevelPolicy,
    access,
    audit_sweep,
    f_mix,
    f_mix_inverse,
    group_thresholds,
    pre_rank,
    region_table,
    welfare_gap,
    welfare_gap_derivative,
)

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
    policy = TwoLevelPolicy(0.3, 0.2)
    tau_a, tau_b = group_thresholds(identity_population, GROUPS, 0.3)
    assert welfare_gap(identity_population, GROUPS, policy, 0.5 * tau_a) == 0.0
    assert welfare_gap(identity_population, GROUPS, policy, 0.5 * (tau_a + tau_b)) > 0.0
    assert welfare_gap(identity_population, GROUPS, policy, 0.9) > 0.0


def test_welfare_gap_nonnegative_everywhere(identity_population):
    for c in np.linspace(0.05, 0.8, 20):
        policy = TwoLevelPolicy(float(c), 0.2)
        for theta in np.linspace(0.0, 1.0, 101):
            assert welfare_gap(identity_population, GROUPS, policy, float(theta)) >= -1e-12


def test_pure_randomization_gap_zero(identity_population):
    policy = TwoLevelPolicy(0.0, 0.2)
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
    assert access(identity_population, GROUPS, TwoLevelPolicy(0.3, 0.2)) == pytest.approx(
        0.2 / 0.7 * 0.6, abs=1e-9
    )
    assert access(identity_population, GROUPS, TwoLevelPolicy(0.6, 0.2)) == pytest.approx(0.1, abs=1e-9)
    assert access(identity_population, GROUPS, TwoLevelPolicy(0.0, 0.2)) == pytest.approx(0.2)


def test_access_monotone_when_inverse_convex(identity_population):
    cs = np.linspace(0.04, 0.8, 20)
    values = [access(identity_population, GROUPS, TwoLevelPolicy(float(c), 0.2)) for c in cs]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-12
    assert all(v < 0.2 for v in values)  # pure randomization dominates


def test_region_classification(identity_population):
    c, capacity = 0.3, 0.2
    policy = TwoLevelPolicy(c, capacity)
    tau_a, tau_b = group_thresholds(identity_population, GROUPS, c)
    level = policy.level1
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
    table = region_table(identity_population, GROUPS, TwoLevelPolicy(0.3, 0.2))
    assert table["low"]["range"][1] == pytest.approx(0.2, abs=1e-9)
    assert table["middle"]["admit_a"] == pytest.approx(0.2 / 0.7, abs=1e-12)
    assert table["middle"]["admit_b"] == 0.0
    assert table["high"]["admit_b"] == pytest.approx(0.2 / 0.7, abs=1e-12)
