import numpy as np
import pytest

from rankdesign import (
    CapacityError,
    DomainError,
    RewardPolicy,
    TwoLevelPolicy,
    policy_from_json,
    reward_at,
    two_level,
    validate,
)


def test_validate_ok_cases():
    assert validate(RewardPolicy((0.0, 1.0), (0.8,), 0.2)).ok
    assert validate(RewardPolicy((0.2,), (), 0.2)).ok  # pure randomization


def test_validate_reports_violations():
    report = validate(RewardPolicy((0.5, 0.3), (0.5,), 0.4))
    assert not report.ok
    assert any("not strictly increasing" in str(v) for v in report.violations)
    report = validate(RewardPolicy((0.0, 1.0), (0.5,), 0.2))
    assert any("capacity" in str(v) for v in report.violations)
    report = validate(RewardPolicy((0.0, 1.5), (0.8,), 0.3))
    assert any("level outside" in str(v) for v in report.violations)


def test_reward_at_two_level():
    policy = two_level(0.8, 0.2)
    assert reward_at(policy, 0.9) == pytest.approx(1.0)
    assert reward_at(policy, 0.5) == 0.0
    assert reward_at(policy, 0.8) == pytest.approx(1.0)  # left-closed band
    assert reward_at(policy, 1.0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        reward_at(policy, 1.2)


def test_reward_at_band_convention():
    policy = RewardPolicy((0.0, 0.25, 0.5, 1.0), (0.4, 0.7, 0.9), 0.275)
    assert reward_at(policy, 0.7) == 0.5  # theta = c_2 belongs to the upper band


def test_two_level_construction():
    policy = two_level(0.8, 0.2)
    assert policy.levels == (0.0, 1.0)
    assert policy.cutpoints == (0.8,)
    pure = two_level(0.0, 0.2)
    assert pure.levels == (0.2,)
    assert pure.cutpoints == ()
    mid = two_level(0.5, 0.2)
    assert mid.levels[1] == pytest.approx(0.4)
    with pytest.raises(CapacityError):
        two_level(0.9, 0.2)
    with pytest.raises(DomainError):
        two_level(-0.1, 0.2)
    with pytest.raises(DomainError):
        two_level(0.5, 1.2)


def test_two_level_policy_handle():
    handle = TwoLevelPolicy(0.5, 0.2)
    assert handle.level1 == pytest.approx(0.4)
    assert handle.policy().levels == (0.0, 0.4)
    assert TwoLevelPolicy(0.0, 0.2).level1 == pytest.approx(0.2)


def _random_policy(rng):
    k = rng.integers(1, 5)
    cuts = np.sort(rng.uniform(0.05, 0.95, k - 1))
    while len(cuts) > 1 and np.min(np.diff(cuts)) < 1e-3:
        cuts = np.sort(rng.uniform(0.05, 0.95, k - 1))
    levels = np.sort(rng.uniform(0.0, 1.0, k))
    while len(levels) > 1 and np.min(np.diff(levels)) < 1e-6:
        levels = np.sort(rng.uniform(0.0, 1.0, k))
    policy = RewardPolicy(tuple(levels), tuple(cuts), 0.5)
    return RewardPolicy(policy.levels, policy.cutpoints, policy.expected_reward())


def test_reward_monotone_property():
    rng = np.random.default_rng(3)
    for _ in range(10):
        policy = _random_policy(rng)
        assert validate(policy).ok
        pairs = np.sort(rng.uniform(0.0, 1.0, (1000, 2)), axis=1)
        for lo, hi in pairs:
            assert reward_at(policy, lo) <= reward_at(policy, hi)


def test_capacity_monte_carlo():
    rng = np.random.default_rng(5)
    policy = RewardPolicy((0.0, 0.25, 0.5, 1.0), (0.4, 0.7, 0.9), 0.275)
    assert validate(policy).ok
    thetas = rng.uniform(0.0, 1.0, 1_000_000)
    bands = np.searchsorted(policy.cutpoints, thetas, side="right")
    draws = np.asarray(policy.levels)[bands]
    se = draws.std(ddof=1) / np.sqrt(len(draws))
    assert abs(draws.mean() - policy.capacity) <= 3 * se


def test_policy_json():
    policy = two_level(0.8, 0.2)
    assert policy_from_json(policy.to_json()) == policy
    short = policy_from_json({"two_level": {"c": 0.8, "capacity": 0.2}})
    assert short == policy
    with pytest.raises(DomainError):
        policy_from_json({"levels": [0, 1]})


@pytest.mark.parametrize(
    "spec",
    [
        {"two_level": {"c": "q", "capacity": 0.2}},
        {"two_level": {"c": 0.8, "capacity": None}},
        {"two_level": [0.8, 0.2]},
        {"levels": ["a", 1.0], "cutpoints": [0.8], "capacity": 0.2},
        {"levels": 3, "cutpoints": [0.8], "capacity": 0.2},
    ],
)
def test_policy_json_non_numeric_is_domain_error(spec):
    with pytest.raises(DomainError):
        policy_from_json(spec)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_two_level_rejects_non_finite(bad):
    with pytest.raises(DomainError, match="finite"):
        two_level(bad, 0.2)
    with pytest.raises(DomainError, match="finite"):
        two_level(0.5, bad)


from hypothesis import given, strategies as st


@given(c=st.floats(0.0, 0.999), capacity=st.floats(0.01, 0.99))
def test_two_level_always_valid_or_rejected(c, capacity):
    try:
        policy = two_level(c, capacity)
    except CapacityError:
        assert c > 1.0 - capacity
        return
    assert validate(policy).ok
    assert policy.expected_reward() == pytest.approx(capacity, abs=1e-12)
