import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankdesign import (
    AffinePower,
    DomainError,
    ModelError,
    MultiSkillSpec,
    PiecewiseMonotone,
    Power,
    Role,
    UnmeasurableSpec,
    beta_for_interior_optimum,
    check_multidim_rank_preservation,
    measurable_conditional_mean,
    pre_index,
    two_level,
    unmeasurable_conditional_mean,
    weighted_private_utility,
)
from rankdesign.equilibrium import MAX_SAMPLES

IDENTITY = Power(1.0, 1.0)
COST = Power(1.0, 2.0, role=Role.COST_FUNCTION)


def two_skill_spec():
    return MultiSkillSpec(
        quantiles=(IDENTITY, IDENTITY), weights=(0.5, 0.5), transfer_slope=1.0, cost=COST
    )


def test_pre_index_examples():
    spec = two_skill_spec()
    value, skill = pre_index(spec, (0.6, 0.8))
    assert value == pytest.approx(0.4)
    assert skill == 1
    value, skill = pre_index(spec, (0.8, 0.8))
    assert value == pytest.approx(0.4)
    assert skill == 0  # ties break to the lowest skill index
    single = MultiSkillSpec(quantiles=(IDENTITY,), weights=(1.0,), transfer_slope=1.0, cost=COST)
    value, skill = pre_index(single, (0.37,))
    assert value == pytest.approx(0.37)
    assert skill == 0


def test_pre_index_monotone_in_each_rank():
    spec = two_skill_spec()
    rng = np.random.default_rng(2)
    for _ in range(200):
        a = rng.uniform(0, 1, 2)
        b = a.copy()
        i = rng.integers(0, 2)
        b[i] = min(1.0, a[i] + rng.uniform(0, 1 - a[i] + 1e-12))
        assert pre_index(spec, b)[0] >= pre_index(spec, a)[0] - 1e-15


def _reference_pre_index(spec, row):
    """The row-by-row loop pre_index ran before it took arrays: the first strict
    maximum, so ties go to the lowest skill; each quantile read as a one-element array."""
    best_value, best_skill = -math.inf, 0
    for i, (w, f, r) in enumerate(zip(spec.weights, spec.quantiles, row)):
        v = w * float(f.evaluate(np.array([r]))[0])
        if v > best_value:
            best_value, best_skill = v, i
    return best_value, best_skill


_QUANTILES = (IDENTITY, Power(1.0, 1.0), Power(1.0, 0.5), Power(2.0, 3.0), AffinePower(0.5, 2.0, 0.1),
              PiecewiseMonotone(((0.0, 0.0), (0.5, 0.25), (1.0, 1.0))))
# probability vectors that sum to 1 exactly, equal weights among them so that equal quantiles tie
_WEIGHTS = {1: [(1.0,)], 2: [(0.5, 0.5), (0.25, 0.75)], 3: [(0.25, 0.25, 0.5), (0.5, 0.25, 0.25)]}


@st.composite
def _rank_tables(draw):
    m = draw(st.integers(1, 3))
    spec = MultiSkillSpec(quantiles=tuple(draw(st.sampled_from(_QUANTILES)) for _ in range(m)),
                          weights=draw(st.sampled_from(_WEIGHTS[m])), transfer_slope=1.0, cost=COST)
    # a few shared ranks make exact ties between skills and between rows
    rank = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
    rows = draw(st.lists(st.lists(rank, min_size=m, max_size=m), min_size=1, max_size=20))
    return spec, np.array(rows)


@settings(deadline=None)
@given(_rank_tables())
def test_pre_index_array_matches_rows(case):
    """The (n, m) form gives, row by row, the value and skill index of the one-row form
    and of the row-by-row loop, exact ties included."""
    spec, table = case
    values, skills = pre_index(spec, table)
    assert values.shape == skills.shape == (len(table),)
    rows = [pre_index(spec, row) for row in table]
    assert list(zip(values.tolist(), skills.tolist())) == rows == [_reference_pre_index(spec, row) for row in table]


def test_pre_index_array_checks_its_domain():
    spec = two_skill_spec()
    for bad in ([[0.5, 0.5], [0.5, math.nan]], [[0.5, 1.5]], [[0.5, 0.5, 0.5]], [0.5], 0.5):
        with pytest.raises(DomainError):
            pre_index(spec, bad)


def test_spec_validation():
    with pytest.raises(DomainError):
        MultiSkillSpec(quantiles=(IDENTITY,), weights=(0.5, 0.5), transfer_slope=1.0, cost=COST)
    with pytest.raises(DomainError):
        MultiSkillSpec(quantiles=(IDENTITY,), weights=(0.7,), transfer_slope=1.0, cost=COST)
    with pytest.raises(DomainError):
        MultiSkillSpec(quantiles=(IDENTITY,), weights=(1.0,), transfer_slope=-1.0, cost=COST)


@pytest.mark.parametrize(
    "field, value",
    [("weights", (math.nan, math.nan)), ("weights", (math.inf, 0.5)), ("transfer_slope", math.nan),
     ("transfer_slope", math.inf)],
)
def test_multi_skill_spec_rejects_non_finite_parameters(field, value):
    """A non-finite weight or slope fails when the spec is built, naming the field, not later
    inside the contest with an unrelated error."""
    kwargs = {"quantiles": (IDENTITY, IDENTITY), "weights": (0.5, 0.5), "transfer_slope": 1.0, "cost": COST}
    with pytest.raises(DomainError, match=f"multi-skill spec {field} must be finite"):
        MultiSkillSpec(**{**kwargs, field: value})


@pytest.mark.parametrize(
    "field, value",
    [("budget", math.nan), ("budget", math.inf), ("capacity", math.nan), ("capacity", -math.inf)],
)
def test_unmeasurable_spec_rejects_non_finite_parameters(field, value):
    kwargs = {"f": IDENTITY, "g": Power(1.0, 0.5), "p": COST, "budget": 2.0, "capacity": 0.2}
    with pytest.raises(DomainError, match=f"unmeasurable-skill spec {field} must be finite"):
        UnmeasurableSpec(**{**kwargs, field: value})


def test_skill_integral_is_read_once_per_spec(monkeypatch):
    """The unmeasurable means scale by the integral of f over [0, 1], read once, when the spec is built."""
    calls = []
    monkeypatch.setattr(Power, "integral", lambda self, a, b, _integral=Power.integral: calls.append((a, b))
                        or _integral(self, a, b))
    spec = UnmeasurableSpec(f=IDENTITY, g=Power(1.0, 0.5), p=COST, budget=2.0, capacity=0.2)
    for c in (0.2, 0.4, 0.6):
        weighted_private_utility(spec, c, beta_for_interior_optimum(spec, c))
        unmeasurable_conditional_mean(spec, c)
    assert calls == [(0.0, 1.0)]


def test_spec_rejects_a_negative_quantile():
    """Skills are quantile values >= 0; a quantile with f(0) < 0 fails when the spec is built,
    not halfway through a rank check."""
    with pytest.raises(ModelError, match="nonnegative"):
        MultiSkillSpec(quantiles=(IDENTITY, AffinePower(1.0, 1.0, -0.5)), weights=(0.5, 0.5),
                       transfer_slope=1.0, cost=COST)


def test_rank_preservation_two_skills():
    report = check_multidim_rank_preservation(
        two_skill_spec(), sample_size=200, policy=two_level(0.8, 0.2), seed=4, delta_e=5e-3
    )
    assert report.converged
    assert report.violations == ()


def test_rank_preservation_negative_control():
    report = check_multidim_rank_preservation(
        two_skill_spec(),
        sample_size=200,
        policy=two_level(0.8, 0.2),
        seed=4,
        delta_e=5e-3,
        index_rule="min",
    )
    assert len(report.violations) >= 1


def test_sample_size_is_capped():
    """A sample of more than MAX_SAMPLES agents is refused before its ranks are drawn."""
    for size in (1, MAX_SAMPLES + 1):
        with pytest.raises(DomainError, match="sample_size"):
            check_multidim_rank_preservation(two_skill_spec(), size, two_level(0.8, 0.2))


def test_single_skill_reduces_to_base_model():
    """With m=1 the oracle's admitted set matches the closed-form band."""
    single = MultiSkillSpec(quantiles=(IDENTITY,), weights=(1.0,), transfer_slope=1.0, cost=COST)
    policy = two_level(0.6, 0.2)
    report = check_multidim_rank_preservation(single, 150, policy, seed=9, delta_e=5e-3)
    assert report.converged and not report.violations
    admitted = {agent for agent, _, band, _ in report.rows if band == 1}
    by_index = sorted(report.rows, key=lambda r: r[1])
    expected = {agent for agent, _, _, _ in by_index[-len(admitted):]}
    assert admitted == expected
    # admitted count matches the band width within one agent
    assert abs(len(admitted) - 0.4 * 150) <= 1


UNMEASURABLE = UnmeasurableSpec(
    f=IDENTITY,
    g=Power(1.0, 0.5, role=Role.EFFORT_TRANSFER),
    p=COST,
    budget=2.0,
    capacity=0.2,
)


def test_beta_interior_optimum():
    beta = beta_for_interior_optimum(UNMEASURABLE, 0.4)
    assert 0.0 < beta < 1.0

    def weighted(c):
        return beta * measurable_conditional_mean(UNMEASURABLE, c) + (
            1 - beta
        ) * unmeasurable_conditional_mean(UNMEASURABLE, c)

    h = 2e-5  # different step than the one used to build beta
    derivative = (weighted(0.4 + h) - weighted(0.4 - h)) / (2 * h)
    assert abs(derivative) < 1e-4


def test_beta_sweep_stays_interior():
    for c in (0.1, 0.25, 0.4, 0.55, 0.7):
        beta = beta_for_interior_optimum(UNMEASURABLE, c)
        assert 0.0 < beta < 1.0


def test_weighted_utility_weight_collapse():
    c = 0.4
    assert weighted_private_utility(UNMEASURABLE, c, beta=1.0) == pytest.approx(
        measurable_conditional_mean(UNMEASURABLE, c)
    )
    assert weighted_private_utility(UNMEASURABLE, c, beta=0.0) == pytest.approx(
        unmeasurable_conditional_mean(UNMEASURABLE, c)
    )


def test_budget_too_small_raises():
    small = UnmeasurableSpec(
        f=IDENTITY,
        g=Power(1.0, 0.5, role=Role.EFFORT_TRANSFER),
        p=COST,
        budget=0.2,
        capacity=0.2,
    )
    with pytest.raises(ModelError):
        unmeasurable_conditional_mean(small, 0.7)


def test_measurable_mean_closed_form():
    # g(p_inverse(rho/(1-c))) * f(c) with sqrt transfer and square cost
    c = 0.4
    expected = (0.2 / 0.6) ** 0.25 * 0.4
    assert measurable_conditional_mean(UNMEASURABLE, c) == pytest.approx(expected, abs=1e-12)
