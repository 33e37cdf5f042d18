import math
from dataclasses import dataclass, replace
from bisect import bisect_left, bisect_right, insort

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankdesign import (
    AffinePower,
    DiscreteInstance,
    PiecewiseMonotone,
    PopulationSpec,
    Power,
    RewardPolicy,
    Role,
    best_response_dynamics,
    certify_equilibrium,
    effort_at,
    empirical_welfare,
    solve,
    two_level,
)
from rankdesign import oracle
from rankdesign.errors import DomainError, ModelError
from rankdesign.oracle import CertificationResult, DynamicsResult, default_effort_cap


def test_stratified_ranks(benchmark_population):
    inst = DiscreteInstance.stratified(benchmark_population, two_level(0.8, 0.2), 10, 1e-3)
    assert np.allclose(inst.ranks, (np.arange(10) + 0.5) / 10)
    assert np.all(inst.efforts == 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
def test_non_finite_skill_rejected(benchmark_population, bad):
    """A skill is a quantile value, finite and >= 0: rejected when the instance is
    built, and where a skill assigned after construction is read."""
    inst = DiscreteInstance.stratified(benchmark_population, two_level(0.8, 0.2), 4, 1e-3)
    with pytest.raises(DomainError, match="skills must be finite"):
        DiscreteInstance(inst.population, inst.policy, inst.ranks, [1.0, bad, 1.0, 1.0], inst.efforts,
                         inst.delta_e, inst.e_max)
    inst.skill = np.array([1.0, bad, 1.0, 1.0])
    for read in (lambda: certify_equilibrium(inst, 0.0), lambda: best_response_dynamics(inst),
                 inst.assigned_bands):
        with pytest.raises(DomainError, match="skills must be finite"):
            read()


def test_invalid_grid_or_score_rejected(benchmark_population):
    """The grid step is finite and > 0, the cap finite and >= 0, and every score finite."""
    inst = DiscreteInstance.stratified(benchmark_population, two_level(0.8, 0.2), 4, 1e-3)
    for delta_e, e_max in ((math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0), (1e-3, math.inf), (1e-3, math.nan),
                           (1e-3, -1.0)):  # an empty grid
        with pytest.raises(DomainError, match="effort"):
            DiscreteInstance(inst.population, inst.policy, inst.ranks, inst.skill, inst.efforts, delta_e, e_max)
    with pytest.raises(DomainError, match="effort grid resolution"):  # not a division by zero in the cap
        DiscreteInstance.stratified(_short_transfer_population(), two_level(0.8, 0.2), 4, 0.0)
    inst.skill = np.array([1.0, 1e308, 1.0, 1.0])
    inst.efforts = np.full(4, 100.0)  # g = 10, so agent 1 scores past the largest float
    with np.errstate(over="ignore"), pytest.raises(DomainError, match="scores must be finite"):
        certify_equilibrium(inst, 0.0)


def test_effort_grid_size_is_capped(benchmark_population):
    """A grid step of 1e-9 up to a cap near 1 would ask for about 1e9 columns; the
    instance is rejected when it is built, before any grid exists."""
    with pytest.raises(DomainError, match=r"e_max / delta_e = .* / 1e-09 > 1000000 grid columns"):
        DiscreteInstance.stratified(benchmark_population, two_level(0.8, 0.2), 3, 1e-9)
    inst = DiscreteInstance.stratified(benchmark_population, two_level(0.8, 0.2), 3, 1e-3)
    args = (inst.population, inst.policy, inst.ranks, inst.skill, inst.efforts, 1e-3)
    assert DiscreteInstance(*args, 0.5e-3 * oracle.MAX_GRID_COLUMNS).e_max == 500.0
    with pytest.raises(DomainError, match="grid columns"):
        DiscreteInstance(*args, 2e-3 * oracle.MAX_GRID_COLUMNS)


def test_monte_carlo_ranks_sorted(benchmark_population):
    inst = DiscreteInstance.stratified(benchmark_population, two_level(0.8, 0.2), 50, 1e-3, seed=3)
    assert np.all(np.diff(inst.ranks) >= 0)
    other = DiscreteInstance.stratified(benchmark_population, two_level(0.8, 0.2), 50, 1e-3, seed=3)
    assert np.array_equal(inst.ranks, other.ranks)


def test_certify_closed_form(benchmark_population):
    schedule = solve(benchmark_population, two_level(0.8, 0.2))
    inst = DiscreteInstance.from_schedule(schedule, 500, 1e-3)
    result = certify_equilibrium(inst, eps=5 / 500)
    assert result.is_eps_equilibrium
    assert result.worst_gain <= 5 / 500
    report = result.to_json()
    assert set(report) == {"certified", "worst_gain", "worst_agent", "worst_effort", "per_band_max_gain"}


def test_certify_single_band_exact_zero(benchmark_population):
    schedule = solve(benchmark_population, two_level(0.0, 0.2))
    inst = DiscreteInstance.from_schedule(schedule, 100, 1e-3)
    result = certify_equilibrium(inst, eps=0.0)
    assert result.is_eps_equilibrium
    assert result.worst_gain == 0.0


def test_certify_rejects_wasted_effort(benchmark_population):
    schedule = solve(benchmark_population, two_level(0.8, 0.2))
    inst = DiscreteInstance.from_schedule(schedule, 100, 1e-3)
    inst.efforts[inst.ranks < 0.8] = 0.3  # rejected agents burning cost
    result = certify_equilibrium(inst, eps=5 / 100)
    assert not result.is_eps_equilibrium
    assert result.worst_gain == pytest.approx(0.09, abs=1e-9)  # drop back to zero effort


def test_single_agent_trivially_certified(benchmark_population):
    schedule = solve(benchmark_population, two_level(0.8, 0.2))
    inst = DiscreteInstance.from_schedule(schedule, 1, 1e-3)
    result = certify_equilibrium(inst, eps=0.0)
    assert result.is_eps_equilibrium


def test_dynamics_pure_randomization_one_sweep(benchmark_population):
    inst = DiscreteInstance.stratified(benchmark_population, two_level(0.0, 0.2), 50, 1e-3)
    result = best_response_dynamics(inst)
    assert result.converged
    assert result.rounds == 1
    assert np.all(inst.efforts == benchmark_population.e0)


def test_dynamics_two_agents_grid_exact(benchmark_population):
    """With c = 0.8 no slot rank reaches the admitted band: both idle."""
    schedule = solve(benchmark_population, two_level(0.8, 0.2))
    inst = DiscreteInstance.stratified(benchmark_population, two_level(0.8, 0.2), 2, 1e-3)
    result = best_response_dynamics(inst)
    assert result.converged
    expected = [round(effort_at(schedule, t) / 1e-3) * 1e-3 for t in inst.ranks]
    assert np.allclose(inst.efforts, expected)


def test_dynamics_converges_near_closed_form(benchmark_population):
    schedule = solve(benchmark_population, two_level(0.8, 0.2))
    inst = DiscreteInstance.stratified(benchmark_population, two_level(0.8, 0.2), 200, 1e-3)
    result = best_response_dynamics(inst, max_rounds=4000)
    assert result.converged
    closed = np.array([effort_at(schedule, t) for t in inst.ranks])
    assert np.max(np.abs(inst.efforts - closed)) <= 0.02
    bands = inst.assigned_bands()
    assert np.array_equal(np.nonzero(bands == 1)[0], np.arange(160, 200))


def test_dynamics_deterministic(benchmark_population):
    policy = two_level(0.8, 0.2)
    a = DiscreteInstance.stratified(benchmark_population, policy, 80, 2e-3)
    b = DiscreteInstance.stratified(benchmark_population, policy, 80, 2e-3)
    best_response_dynamics(a, max_rounds=3000)
    best_response_dynamics(b, max_rounds=3000)
    assert np.array_equal(a.efforts, b.efforts)


def test_empirical_welfare_closed_form_seeding(benchmark_population):
    schedule = solve(benchmark_population, two_level(0.8, 0.2))
    inst = DiscreteInstance.from_schedule(schedule, 2000, 1e-3)
    report = empirical_welfare(inst)
    assert report.private_utility == pytest.approx(0.32, abs=0.01)
    c_star = 4.0 / 7.0
    schedule2 = solve(benchmark_population, two_level(c_star, 0.2))
    inst2 = DiscreteInstance.from_schedule(schedule2, 2000, 1e-3)
    report2 = empirical_welfare(inst2)
    assert report2.societal_utility == pytest.approx(0.40476, abs=0.01)
    assert report2.applicant_welfare == pytest.approx(
        0.2 * (1 - c_star * (1 + c_star + c_star**2) / 3), abs=0.01
    )


def test_empirical_pure_randomization_exact(benchmark_population):
    schedule = solve(benchmark_population, two_level(0.0, 0.2))
    inst = DiscreteInstance.from_schedule(schedule, 500, 1e-3)
    report = empirical_welfare(inst)
    assert report.applicant_welfare == 0.2


def test_discrete_rank_preservation_after_certification(benchmark_population):
    schedule = solve(benchmark_population, two_level(0.8, 0.2))
    inst = DiscreteInstance.from_schedule(schedule, 500, 1e-3)
    assert certify_equilibrium(inst, 5 / 500).is_eps_equilibrium
    scores = inst.scores()
    by_score = np.argsort(-scores, kind="stable")
    bands = inst.assigned_bands()
    # walking down the scores must never increase the band
    seen = [bands[i] for i in by_score]
    assert all(a >= b for a, b in zip(seen, seen[1:]))
    # and the band assignment matches the rank-ordered assignment exactly here
    assert np.array_equal(np.nonzero(bands == 1)[0], np.arange(400, 500))


def test_tie_lemma_no_cross_band_ties(benchmark_population):
    schedule = solve(benchmark_population, two_level(0.8, 0.2))
    inst = DiscreteInstance.from_schedule(schedule, 500, 1e-3)
    scores = inst.scores()
    bands = inst.assigned_bands()
    for value in np.unique(scores):
        mask = scores == value
        assert len(np.unique(bands[mask])) == 1


# -- bit-identity against the scalar oracle --------------------------------
#
# The scalar oracle below is the reference for the pruned certification and
# the hoisted best responses: one Python level lookup per (agent, effort) cell
# and per candidate effort.  Its code is kept as it was, except that the bars
# are the positions where its own level table changes, and the entry efforts
# are, per bar, the first grid effort whose score is not below it and the
# first above it, found by comparing the exact products skill * g(e) on the
# grid (computed once per run): the cells certification prices; and standing
# pat is priced wherever the agent stands.  Only the two public entry points
# are renamed to ``reference_*``.  The fast path must
# reproduce it bit for bit: same trajectory, same certification.


class _StandingScores:
    """Counterfactual position/level lookups against the standing profile.

    Maintains the full score multiset (every agent's standing score stays in
    place as a competitor) with incremental updates as the dynamics move one
    agent at a time.
    """

    def __init__(self, instance: DiscreteInstance, scores: np.ndarray):
        self.n = instance.n
        self.sorted_scores: list[float] = sorted(float(s) for s in scores)
        # agent indices holding each distinct score value, ascending
        self.by_value: dict[float, list[int]] = {}
        for idx, s in enumerate(scores):
            self.by_value.setdefault(float(s), []).append(idx)
        self.cutpoints = list(instance.policy.cutpoints)
        self.levels = list(instance.policy.levels)

    def update(self, agent: int, old: float, new: float) -> None:
        old, new = float(old), float(new)
        self.sorted_scores.pop(bisect_left(self.sorted_scores, old))
        insort(self.sorted_scores, new)
        holders = self.by_value[old]
        holders.pop(bisect_left(holders, agent))
        if not holders:
            del self.by_value[old]
        insort(self.by_value.setdefault(new, []), agent)

    def position(self, agent: int, s: float) -> int:
        above = self.n - bisect_right(self.sorted_scores, s)
        holders = self.by_value.get(s)
        if holders:
            # lower-index holders outrank the deviator; the deviator's own
            # standing copy never counts against them
            above += bisect_left(holders, agent)
        return above

    def level_at(self, agent: int, s: float) -> float:
        rank = 1.0 - (self.position(agent, s) + 0.5) / self.n
        return self.levels[bisect_right(self.cutpoints, rank)]

    def nth_highest(self, j: int) -> float:
        return self.sorted_scores[self.n - 1 - j]

    def levels_for_vector(self, agent: int, s: np.ndarray) -> np.ndarray:
        arr = np.asarray(self.sorted_scores)
        pos = self.n - np.searchsorted(arr, s, side="right")
        for idx in np.nonzero(np.isin(s, arr))[0]:
            holders = self.by_value.get(float(s[idx]))
            if holders:
                pos[idx] += bisect_left(holders, agent)
        ranks = 1.0 - (pos + 0.5) / self.n
        bands = np.searchsorted(np.asarray(self.cutpoints), ranks, side="right")
        return np.asarray(self.levels)[bands]


def _best_response(
    instance: DiscreteInstance,
    standing: _StandingScores,
    agent: int,
    entry_positions: list[int],
    improvement_eps: float,
    grid: np.ndarray,
    grid_g: np.ndarray,
) -> float:
    """Exact grid argmax of counterfactual welfare for one agent.

    Between reward steps the reward is flat and cost increases with effort,
    so only the first grid effort whose score is not below each bar needs
    testing, plus the first above it (a score that ties the bar takes its
    full position), idling at e0 and at 0, and standing pat, which is priced
    wherever the agent stands, also outside [0, e_max].
    """
    pop = instance.population
    g, p = pop.g, pop.p
    skill = float(instance.skill[agent])
    current = float(instance.efforts[agent])
    candidates = {current, float(pop.e0), 0.0}
    scores = skill * grid_g
    for j in entry_positions:
        if not (0 <= j < instance.n):
            continue
        bar = standing.nth_highest(j)
        for reached in (np.flatnonzero(scores >= bar), np.flatnonzero(scores > bar)):
            if len(reached):
                candidates.add(float(grid[reached[0]]))
    best_effort = current
    best_gain = -math.inf
    for e in sorted(candidates):
        if not (0.0 <= e <= instance.e_max or e == current):
            continue
        gain = standing.level_at(agent, g.evaluate(e) * skill) - p.evaluate(e)
        if e == current:
            current_gain = gain
        if gain > best_gain:
            best_gain = gain
            best_effort = e
    if best_gain > current_gain + improvement_eps:
        return best_effort
    return current


def reference_best_response_dynamics(
    instance: DiscreteInstance,
    max_rounds: int = 200,
    improvement_eps: float = 1e-12,
) -> DynamicsResult:
    """Round-robin sweeps of exact grid best responses.

    Converged on the first sweep that moves nobody.  One-grid-step sweeps are
    not treated as converged: during a slow bidding war every contested agent
    moves exactly one step per sweep for long stretches, so any nonzero
    tolerance would stop the dynamics mid-escalation.
    Non-convergence reports the agents still moving in the final sweep.
    """
    n, cutpoints, levels = instance.n, instance.policy.cutpoints, instance.policy.levels
    table = [levels[bisect_right(cutpoints, 1.0 - (j + 0.5) / n)] for j in range(n + 1)]
    # the reward changes below sorted position j: its standing score is a bar, lowest first
    entry_positions = [j for j in reversed(range(n)) if table[j] != table[j + 1]]
    last_movers: tuple[int, ...] = ()
    scores = instance.scores()
    standing = _StandingScores(instance, scores)
    g = instance.population.g
    grid = instance.effort_grid()
    grid_g = np.array([g.evaluate(e) for e in grid])
    for round_no in range(1, max_rounds + 1):
        moved = False
        movers = []
        for agent in range(instance.n):
            new = _best_response(instance, standing, agent, entry_positions, improvement_eps, grid, grid_g)
            if new != instance.efforts[agent]:
                old_score = float(scores[agent])
                new_score = g.evaluate(new) * float(instance.skill[agent])
                instance.efforts[agent] = new
                scores[agent] = new_score
                standing.update(agent, old_score, new_score)
                movers.append(agent)
                moved = True
        if not moved:
            return DynamicsResult(True, round_no, instance)
        last_movers = tuple(movers)
    return DynamicsResult(False, max_rounds, instance, last_movers)


def reference_certify_equilibrium(instance: DiscreteInstance, eps: float) -> CertificationResult:
    """Scan every agent and every grid effort for a counterfactual welfare gain.

    Certifies when no deviation gains more than eps over the agent's assigned
    welfare in the standing profile.
    """
    scores = instance.scores()
    standing = _StandingScores(instance, scores)
    grid = instance.effort_grid()
    g, p = instance.population.g, instance.population.p
    grid_g = np.array([g.evaluate(e) for e in grid])
    grid_cost = np.array([p.evaluate(e) for e in grid])
    current_welfare = instance.assigned_levels(scores) - instance.costs()
    bands = instance.assigned_bands(scores)
    worst = -math.inf
    worst_agent = -1
    worst_effort = float("nan")
    per_band = [-math.inf] * instance.policy.k
    for agent in range(instance.n):
        s_dev = grid_g * instance.skill[agent]
        gains = standing.levels_for_vector(agent, s_dev) - grid_cost - current_welfare[agent]
        i = int(np.argmax(gains))
        gain = float(gains[i])
        band = int(bands[agent])
        per_band[band] = max(per_band[band], gain)
        if gain > worst:
            worst, worst_agent, worst_effort = gain, agent, float(grid[i])
    per_band = [0.0 if v == -math.inf else v for v in per_band]
    return CertificationResult(worst <= eps, worst, worst_agent, worst_effort, tuple(per_band))


def reference_assigned_levels(instance: DiscreteInstance, scores: np.ndarray) -> np.ndarray:
    """Reward levels from their own position sort, as before the sort was shared."""
    order = np.lexsort((np.arange(instance.n), -scores))
    pos = np.empty(instance.n, dtype=int)
    pos[order] = np.arange(instance.n)
    ranks = 1.0 - (pos + 0.5) / instance.n
    bands = np.searchsorted(instance.policy.cutpoints, ranks, side="right")
    return np.asarray(instance.policy.levels)[bands]


FOUR_LEVEL = RewardPolicy((0.0, 0.2, 0.5, 1.0), (0.4, 0.7, 0.9), 0.26)


def _affine_population():
    """g(0) = 0.1 > 0: idle effort already scores, so low bars enter at e0."""
    return PopulationSpec(
        f=Power(2.0, 1.0, role=Role.SKILL_QUANTILE),
        g=AffinePower(1.0, 0.5, 0.1, role=Role.EFFORT_TRANSFER),
        p=Power(1.0, 2.0, role=Role.COST_FUNCTION),
        e0=0.0,
    )


def _tie_heavy(population):
    """16 idle agents tie at score 0; 24 agents of equal skill tie on one grid
    effort, and that tie straddles the cutoff: the index tie-break admits 20
    of them and rejects 4."""
    inst = DiscreteInstance.stratified(population, two_level(0.5, 0.2), 40, 1e-2)
    inst.skill[16:] = 1.5
    inst.efforts[16:] = inst.effort_grid()[30]
    return inst


# (name, builder of a fresh instance, max_rounds or None for certification only, eps)
BIT_IDENTITY_CASES = {
    "cold_start_c08_n200": (
        lambda pop: DiscreteInstance.stratified(pop, two_level(0.8, 0.2), 200, 1e-3), 4000, 5 / 200),
    "four_level_certify_n2000": (
        lambda pop: DiscreteInstance.from_schedule(solve(pop, FOUR_LEVEL), 2000, 1e-3), None, 5 / 2000),
    "tie_heavy": (_tie_heavy, 500, 5 / 40),
    "affine_transfer": (
        lambda pop: DiscreteInstance.stratified(_affine_population(), FOUR_LEVEL, 60, 5e-3), 2000, 5 / 60),
    "monte_carlo_ranks": (
        lambda pop: DiscreteInstance.stratified(pop, two_level(0.6, 0.2), 80, 2e-3, seed=7), 3000, 5 / 80),
    "truncated_max_rounds_3": (
        lambda pop: DiscreteInstance.stratified(pop, two_level(0.8, 0.2), 50, 1e-3), 3, 5 / 50),
    "single_agent": (
        lambda pop: DiscreteInstance.stratified(pop, two_level(0.8, 0.2), 1, 1e-3), 100, 0.0),
    # three reward steps, so best responses walk the bars, over 659 sweeps
    "four_level_cold_start_n120": (
        lambda pop: DiscreteInstance.stratified(pop, FOUR_LEVEL, 120, 2e-3), 3000, 5 / 120),
}


@pytest.mark.parametrize("case", sorted(BIT_IDENTITY_CASES))
def test_oracle_bit_identical_to_scalar_reference(benchmark_population, case):
    build, max_rounds, eps = BIT_IDENTITY_CASES[case]
    fast, ref = build(benchmark_population), build(benchmark_population)
    assert fast.efforts.tobytes() == ref.efforts.tobytes()
    if max_rounds is not None:
        # the starting profile, then the profile the dynamics reach
        assert certify_equilibrium(fast, eps) == reference_certify_equilibrium(ref, eps)
        got = best_response_dynamics(fast, max_rounds=max_rounds)
        want = reference_best_response_dynamics(ref, max_rounds=max_rounds)
        assert (got.converged, got.rounds, got.cycling_agents) == (
            want.converged, want.rounds, want.cycling_agents)
        assert fast.efforts.tobytes() == ref.efforts.tobytes()
    assert certify_equilibrium(fast, eps) == reference_certify_equilibrium(ref, eps)
    scores = fast.scores()
    assert fast.assigned_levels(scores).tobytes() == reference_assigned_levels(fast, scores).tobytes()


def test_from_schedule_seeds_effort_at(benchmark_population):
    """The closed-form seeding equals effort_at at every stratified rank, also where g(e0) > 0."""
    for population, policy in ((benchmark_population, two_level(0.8, 0.2)), (benchmark_population, FOUR_LEVEL),
                               (_affine_population(), FOUR_LEVEL)):
        schedule = solve(population, policy)
        inst = DiscreteInstance.from_schedule(schedule, 300, 1e-3)
        assert inst.efforts.tolist() == [effort_at(schedule, t) for t in inst.ranks]


def test_bit_identity_cases_exercise_ties_and_truncation(benchmark_population):
    """The tie-heavy case ties in standing scores; the truncated run stops moving agents."""
    tied = _tie_heavy(benchmark_population)
    assert len(np.unique(tied.scores())) == 2
    assert np.array_equal(np.nonzero(tied.assigned_bands() == 1)[0], np.arange(16, 36))
    build, max_rounds, _ = BIT_IDENTITY_CASES["truncated_max_rounds_3"]
    result = best_response_dynamics(build(benchmark_population), max_rounds=max_rounds)
    assert not result.converged and result.cycling_agents


# -- the standing-pat screen -------------------------------------------------
#
# best_response_dynamics skips the best responses of agents that provably
# stand pat: idle agents at e0, alone or in runs, and agents above the highest
# bar.  These tests hold it to the scalar reference above, which evaluates
# every best response, on instances chosen to switch the screen off as well
# as on.


def _screen(instance, improvement_eps=1e-12):
    """The idle row and the top rows of the standing-pat screen on the instance's profile."""
    grid, grid_g, grid_p = instance._grid_table()
    standing = oracle._StandingScores(instance, instance.scores())
    k0 = int(np.searchsorted(grid, instance.population.e0))
    return oracle._standing_pat_screen(standing, grid, grid_g, grid_p, k0, improvement_eps)


def _spy_moves(monkeypatch):
    """Record every move best_response_dynamics applies, as (agent, old score, new score)."""
    moves = []
    update = oracle._StandingScores.update

    def spied(self, *args):
        moves.append(args)
        update(self, *args)

    monkeypatch.setattr(oracle._StandingScores, "update", spied)
    return moves


def test_movers_per_sweep_count_the_reference_moves(benchmark_population, monkeypatch):
    moves = 0
    update = _StandingScores.update

    def counted_update(self, *args):
        nonlocal moves
        moves += 1
        update(self, *args)

    monkeypatch.setattr(_StandingScores, "update", counted_update)
    fast, ref = (DiscreteInstance.stratified(benchmark_population, FOUR_LEVEL, 60, 5e-3) for _ in range(2))
    want = reference_best_response_dynamics(ref, max_rounds=2000)
    got = best_response_dynamics(fast, max_rounds=2000)
    assert want.converged and got.rounds == want.rounds
    assert len(got.movers_per_sweep) == got.rounds and got.movers_per_sweep[-1] == 0
    assert sum(got.movers_per_sweep) == moves > 0
    assert 0 < got.best_responses <= got.rounds * fast.n


def test_idle_screen_fires_on_the_cold_start(benchmark_population):
    inst = DiscreteInstance.stratified(benchmark_population, two_level(0.8, 0.2), 200, 1e-3)
    result = best_response_dynamics(inst, max_rounds=4000)
    assert result.converged
    assert result.best_responses < result.rounds * inst.n / 2
    # the scalar reference records neither count, so both are pinned
    assert (result.rounds, result.best_responses, sum(result.movers_per_sweep)) == (1525, 78_834, 77_661)


def test_idle_screen_off_for_decreasing_levels(benchmark_population):
    """Rewards that fall with a better position void the bound: nobody is screened."""
    policy = RewardPolicy((1.0, 0.0), (0.5,), 0.2)
    inst = DiscreteInstance.stratified(benchmark_population, policy, 20, 1e-2)
    result = best_response_dynamics(inst, max_rounds=50)
    assert result.best_responses == result.rounds * inst.n


def _increasing_cost_below_e0():
    """e0 = 0.2 with p(0) < p(e0) = 0: the cheapest grid effort undercuts idling."""
    return PopulationSpec(
        f=Power(2.0, 1.0, role=Role.SKILL_QUANTILE),
        g=Power(1.0, 0.5, role=Role.EFFORT_TRANSFER),
        p=PiecewiseMonotone(((0.0, -0.1), (0.2, 0.0), (1.0, 1.0), (3.0, 8.0)), role=Role.COST_FUNCTION),
        e0=0.2,
    )


def test_idle_screen_off_when_effort_below_e0_is_cheaper():
    """Idling at effort 0 costs less than idling at e0 = 0.2, so a bottom-reward
    column pays from e0: the screen has no idle row, and the run is the reference's."""
    fast, ref = (DiscreteInstance.stratified(_increasing_cost_below_e0(), two_level(0.8, 0.2), 20, 1e-2)
                 for _ in range(2))
    assert _screen(fast)[0] is None
    got = best_response_dynamics(fast, max_rounds=1)
    want = reference_best_response_dynamics(ref, max_rounds=1)
    assert (got.converged, got.rounds, got.cycling_agents) == (want.converged, want.rounds, want.cycling_agents)
    assert fast.efforts.tobytes() == ref.efforts.tobytes()


def test_idle_screen_off_for_a_negative_tolerance():
    """With e0 = 1e-200, p(0) and p(e0) both round to 0, so idling at 0 earns what
    idling at e0 earns, and a negative tolerance moves agent 0 to the smaller effort,
    as in the reference.  The screen's bound needs improvement_eps >= 0."""
    e0 = 1e-200
    population = PopulationSpec(f=Power(2.0, 1.0, role=Role.SKILL_QUANTILE), g=Power(1.0, 0.5, role=Role.EFFORT_TRANSFER),
                                p=AffinePower(1.0, 2.0, -e0 ** 2, role=Role.COST_FUNCTION), e0=e0)
    fast, ref = (DiscreteInstance.stratified(population, two_level(0.5, 0.2), 2, 1e-2) for _ in range(2))
    for inst in (fast, ref):
        inst.skill = np.array([1.0, 2.0])
        inst.efforts = np.array([e0, 0.8])
    got = best_response_dynamics(fast, max_rounds=1, improvement_eps=-1e-12)
    reference_best_response_dynamics(ref, max_rounds=1, improvement_eps=-1e-12)
    assert fast.efforts.tobytes() == ref.efforts.tobytes()
    assert fast.efforts[0] == 0.0 and got.best_responses == fast.n


def test_idle_screen_skips_up_to_the_move_threshold():
    """Agent 0, idle at 0, gains 1 - 0.875^2 = 15/64 by tying agent 1's score 0.875,
    where the index tie-break ranks agent 0 first.  With that gain as the tolerance
    the move does not pay and agent 0 is screened; 2^-20 lower it pays, and agent 0
    is evaluated and moves."""
    for eps, responses, efforts in ((15 / 64, 1, [0.0, 0.875]), (15 / 64 - 2.0 ** -20, 2, [0.875, 0.0])):
        fast, ref = (_unit_agents((0.0, 1.0), (0.5,), [1.0, 1.0], [0.0, 0.875]) for _ in range(2))
        got = best_response_dynamics(fast, max_rounds=1, improvement_eps=eps)
        reference_best_response_dynamics(ref, max_rounds=1, improvement_eps=eps)
        assert fast.efforts.tobytes() == ref.efforts.tobytes()
        assert (got.best_responses, fast.efforts.tolist()) == (responses, efforts)


def test_idle_screen_bit_identical_on_rank_check_instance():
    """The shape check_multidim_rank_preservation runs: skills overwritten after stratified."""
    rng = np.random.default_rng(1)
    index = np.sort(0.5 * rng.uniform(0.0, 1.0, size=(200, 2)).max(axis=1))
    population = PopulationSpec(
        f=Power(1.0, 1.0, role=Role.SKILL_QUANTILE),
        g=Power(1.0, 1.0, role=Role.EFFORT_TRANSFER),
        p=Power(1.0, 2.0, role=Role.COST_FUNCTION),
        e0=0.0,
    )
    fast, ref = (DiscreteInstance.stratified(population, two_level(0.8, 0.2), 200, 5e-3) for _ in range(2))
    fast.skill = index.copy()
    ref.skill = index.copy()
    got = best_response_dynamics(fast, max_rounds=2000)
    want = reference_best_response_dynamics(ref, max_rounds=2000)
    assert got.converged
    assert (got.converged, got.rounds, got.cycling_agents) == (want.converged, want.rounds, want.cycling_agents)
    assert fast.efforts.tobytes() == ref.efforts.tobytes()
    assert got.best_responses < got.rounds * fast.n
    # the scalar reference records neither count, so both are pinned
    assert got.best_responses == 18_217
    assert (len(got.movers_per_sweep), sum(got.movers_per_sweep)) == (182, 18_112)
    assert got.movers_per_sweep[:12] == (160, 200, 200, 200, 200, 200, 200, 200, 200, 199, 199, 197)
    assert got.movers_per_sweep[-12:] == (2, 2, 2, 1, 2, 2, 1, 2, 2, 2, 1, 0)


def test_idle_screen_never_skips_a_paying_entry(benchmark_population):
    """The top 8 of 40 agents hold the band at score 1, so an idle agent of skill s
    enters at cost about s^-4.  Skills below 1 never pay and are skipped; agent 19,
    of skill 1.0006, gains 0.002 by entering on the grid and must be evaluated."""
    fast, ref = (DiscreteInstance.stratified(benchmark_population, two_level(0.8, 0.2), 40, 1e-3)
                 for _ in range(2))
    for inst in (fast, ref):
        inst.efforts[32:] = [(1.0 / s) ** 2 for s in inst.skill[32:]]
        inst.skill[19] = 1.0006
    got = best_response_dynamics(fast, max_rounds=1)
    reference_best_response_dynamics(ref, max_rounds=1)
    assert fast.efforts.tobytes() == ref.efforts.tobytes()
    assert fast.efforts[19] == pytest.approx(0.999)
    assert got.best_responses == fast.n - 19  # agents 0..18 skipped


def test_idle_screen_keeps_the_reference_error(benchmark_population):
    """A near-zero skill (1e-300, or the subnormal 5e-324, for which bar / skill
    overflows to inf): while the band's bar is 0 the index tie-break already admits
    the agent at effort 0, and no grid effort lifts their score to a positive bar,
    so that agent stays idle in the reference and in the fast path, screened or not."""
    for tiny in (1e-300, 5e-324):
        fast, ref = (DiscreteInstance.stratified(benchmark_population, two_level(0.8, 0.2), 20, 1e-2)
                     for _ in range(2))
        fast.skill[3] = ref.skill[3] = tiny
        want = reference_best_response_dynamics(ref)
        got = best_response_dynamics(fast)
        assert (got.converged, got.rounds) == (want.converged, want.rounds)
        assert fast.efforts.tobytes() == ref.efforts.tobytes()
        assert fast.efforts[3] == 0.0


def test_top_screen_lets_a_top_agent_shade_down_to_a_fallen_bar(monkeypatch):
    """Agent 3 stands at 1.0, above the top bar 0.9375, and its top row lets it stay
    while that bar is above 0.875.  In the sweep agent 0 drops out, the bar falls to
    0.25, agents 1 and 2 bid it up to 0.375, and agent 3, now able to shade down,
    must be evaluated: it moves to 0.5, the first column above the bar."""
    def build():
        return _unit_agents((0.0, 1.0), (0.5,), [0.75, 1.0, 1.0, 1.0], [1.25, 0.0, 0.25, 1.0])

    fast, ref = build(), build()
    assert sorted(fast.scores())[2] == 0.9375  # the top bar, above the limit 1.0 * 0.875
    assert _screen(fast)[1][1.0] == ((2, 0.875),)
    reference_best_response_dynamics(ref, max_rounds=1)
    moves = _spy_moves(monkeypatch)
    got = best_response_dynamics(fast, max_rounds=1)
    assert fast.efforts.tobytes() == ref.efforts.tobytes()
    assert fast.efforts.tolist() == [0.0, 0.25, 0.375, 0.5]
    assert moves[-1] == (3, 1.0, 0.5) and got.best_responses == 4


@pytest.mark.parametrize("skills, efforts, first_moves", [
    # agent 0 ties the bar held by agents 1 and 2 and, by the index tie-break, takes its position
    ([1.0, 1.0, 1.0, 0.0], [0.875, 0.75, 0.75, 0.0], [(0, 0.875, 0.75)]),
    # agent 3 would tie the bar held by agent 1, which outranks it, so it stays
    ([0.0, 1.0, 0.0, 1.0], [0.0, 0.75, 0.0, 0.875], []),
], ids=["tie_won", "tie_lost"])
def test_top_screen_leaves_a_tie_with_the_top_bar_to_the_best_response(monkeypatch, skills, efforts, first_moves):
    """The top agent stands at 0.875 and the top bar is 0.75, the score of the last
    cheaper column that could pay: its top row needs the bar strictly above that
    limit, so the best response decides the tie."""
    def build():
        return _unit_agents((0.0, 1.0), (0.5,), skills, efforts)

    fast, ref = build(), build()
    assert _screen(fast)[1][0.875] == ((2, 0.75),) and sorted(fast.scores())[2] == 0.75
    reference_best_response_dynamics(ref, max_rounds=1)
    moves = _spy_moves(monkeypatch)
    best_response_dynamics(fast, max_rounds=1)
    assert fast.efforts.tobytes() == ref.efforts.tobytes()
    assert moves[:1] == first_moves


def test_top_screen_skips_up_to_the_move_threshold():
    """Agent 3, at 0.875 above the top bar 0.5625, gains exactly 0.375 by shading
    down to 0.625.  With that gain as the tolerance the move does not pay and agent 3
    is screened; 2^-40 lower it pays, and agent 3 is evaluated and moves."""
    for eps, responses, effort in ((0.375, 1, 0.875), (0.375 - 2.0 ** -40, 2, 0.625)):
        fast, ref = (_unit_agents((0.0, 1.0), (0.5,), [0.0, 0.75, 0.0, 1.0], [0.0, 0.75, 0.0, 0.875])
                     for _ in range(2))
        got = best_response_dynamics(fast, max_rounds=1, improvement_eps=eps)
        reference_best_response_dynamics(ref, max_rounds=1, improvement_eps=eps)
        assert fast.efforts.tobytes() == ref.efforts.tobytes()
        assert (got.best_responses, fast.efforts[3]) == (responses, effort)


def test_top_screen_leaves_an_agent_one_band_down_to_climb(monkeypatch):
    """Three reward levels.  Agent 1, at 0.375 in the middle band, is above the
    middle bar 0.25 and below the top bar 0.625, and climbs to the top band by
    tying that bar ahead of agent 2.  The top row of 0.375, which holds only for
    the top reward, would keep agent 1 there: the screen must not read it below
    the top bar."""
    def build():
        return _unit_agents((0.0, 0.5, 1.0), (0.3, 0.7), [0.0] + [1.0] * 5, [0.0, 0.375, 0.625, 0.875, 0.25, 0.0])

    fast, ref = build(), build()
    steps = oracle._StandingScores(fast, fast.scores()).steps
    assert [(j, sorted(fast.scores())[j]) for j, _ in steps] == [(4, 0.625), (2, 0.25)]
    assert _screen(fast)[1][0.375] == ((4, 0.25),)
    reference_best_response_dynamics(ref, max_rounds=1)
    moves = _spy_moves(monkeypatch)
    best_response_dynamics(fast, max_rounds=1)
    assert fast.efforts.tobytes() == ref.efforts.tobytes()
    assert moves[0] == (1, 0.375, 0.625)
    _assert_oracle_matches_reference(fast, ref, 200, 1e-12)


def test_idle_runs_follow_an_agent_that_leaves_e0():
    """Agent 0 enters the band from e0 in the first sweep, at 0.5, and agents 2 and 3
    bid the top bar up to 1.0, above agent 0's idle limit 0.875.  In the second
    sweep agent 0, no longer idle, drops back to e0: the idle runs must have been
    rebuilt, or agent 0's run would pass its test and be skipped."""
    def build():
        return _unit_agents((0.0, 1.0), (0.5,), [1.0, 4.0, 4.0, 4.0], [0.0, 0.125, 0.125, 0.0])

    fast, ref = build(), build()
    assert _screen(fast)[0] == ((2, 0.875),)
    want = reference_best_response_dynamics(ref, max_rounds=2)
    got = best_response_dynamics(fast, max_rounds=2)
    assert (got.converged, got.rounds, got.cycling_agents) == (want.converged, want.rounds, want.cycling_agents)
    assert fast.efforts.tobytes() == ref.efforts.tobytes()
    assert fast.efforts[0] == 0.0 and got.movers_per_sweep[0] == 3


def test_screen_off_for_decreasing_levels_on_a_warm_profile():
    """Rewards that fall with a better position: no row at all, so the agent above
    the highest bar is evaluated too, in every sweep, as in the reference."""
    def build():
        return _unit_agents((1.0, 0.0), (0.5,), [1.0, 1.0, 1.0, 1.0], [0.0, 0.25, 0.5, 0.875])

    fast, ref = build(), build()
    assert _screen(fast) == (None, {})
    got = best_response_dynamics(fast, max_rounds=50)
    want = reference_best_response_dynamics(ref, max_rounds=50)
    assert (got.converged, got.rounds, got.cycling_agents) == (want.converged, want.rounds, want.cycling_agents)
    assert fast.efforts.tobytes() == ref.efforts.tobytes()
    assert got.best_responses == got.rounds * fast.n


@pytest.mark.parametrize("kwargs", [
    {"improvement_eps": math.nan}, {"improvement_eps": math.inf}, {"improvement_eps": -math.inf},
    {"max_rounds": 0}, {"max_rounds": -3},
], ids=["eps_nan", "eps_inf", "eps_minus_inf", "max_rounds_0", "max_rounds_negative"])
def test_dynamics_reject_a_non_finite_tolerance_or_no_sweep(benchmark_population, kwargs):
    """A NaN or infinite tolerance let nobody move, so the run reported convergence
    after one sweep; max_rounds=-3 returned rounds=-3.  A negative finite tolerance
    stays legal."""
    inst = DiscreteInstance.stratified(benchmark_population, two_level(0.8, 0.2), 10, 1e-2)
    with pytest.raises(DomainError, match="improvement_eps|max_rounds"):
        best_response_dynamics(inst, **kwargs)
    assert best_response_dynamics(inst, max_rounds=1, improvement_eps=-1e-12).rounds == 1


_SKILLS = [
    Power(2.0, 1.0, role=Role.SKILL_QUANTILE),
    PiecewiseMonotone(((0.0, 0.0), (0.3, 0.5), (1.0, 1.2)), role=Role.SKILL_QUANTILE),
]
_TRANSFERS = [
    Power(1.0, 0.5, role=Role.EFFORT_TRANSFER),
    Power(1.5, 1.0, role=Role.EFFORT_TRANSFER),
    AffinePower(1.0, 0.5, 0.1, role=Role.EFFORT_TRANSFER),  # g(0) > 0
    PiecewiseMonotone(((0.0, 0.0), (0.3, 0.6), (1.0, 1.0), (5.0, 2.0)), role=Role.EFFORT_TRANSFER),
    # a domain shorter than the uncapped effort bound: the cap stops at its end
    PiecewiseMonotone(((0.0, 0.0), (0.4, 0.7), (0.8, 0.9)), role=Role.EFFORT_TRANSFER),
]
_COSTS = [  # (p, e0) with p(e0) = 0
    (Power(1.0, 2.0, role=Role.COST_FUNCTION), 0.0),
    (Power(2.0, 1.5, role=Role.COST_FUNCTION), 0.0),
    (PiecewiseMonotone(((0.0, 0.0), (0.5, 0.3), (1.0, 1.0), (3.0, 8.0)), role=Role.COST_FUNCTION), 0.0),
    # e0 > 0 with an increasing p: p(0) < p(e0)
    (AffinePower(1.0, 2.0, -0.04, role=Role.COST_FUNCTION), 0.2),
    (_increasing_cost_below_e0().p, 0.2),
]


@st.composite
def _policies(draw, min_k=1, orders=("non-decreasing", "decreasing", "shuffled")):
    """min_k-4 levels, in one of ``orders``, duplicates allowed."""
    k = draw(st.integers(min_k, 4))
    cutpoints = sorted(draw(st.lists(st.sampled_from([0.1, 0.3, 0.45, 0.6, 0.75, 0.9]),
                                     min_size=k - 1, max_size=k - 1, unique=True)))
    levels = sorted(draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]), min_size=k, max_size=k)))
    order = draw(st.sampled_from(orders))
    if order == "decreasing":
        levels.reverse()
    elif order == "shuffled":
        levels = draw(st.permutations(levels))
    return RewardPolicy(tuple(levels), tuple(cutpoints), 0.2)


@st.composite
def _screen_instances(draw):
    policy = draw(_policies())
    p, e0 = draw(st.sampled_from(_COSTS))
    population = PopulationSpec(f=draw(st.sampled_from(_SKILLS)), g=draw(st.sampled_from(_TRANSFERS)), p=p, e0=e0)
    n = draw(st.integers(1, 30))
    seed = draw(st.one_of(st.none(), st.integers(0, 1000)))  # stratified or Monte Carlo ranks
    delta_e = draw(st.sampled_from([1e-2, 2e-2, 5e-2]))
    skills = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.0), st.integers(1, 8).map(lambda m: m * 5e-324)),
                           min_size=n, max_size=n))
    overwrite = draw(st.sampled_from(["none", "zeros", "all"]))
    # a cold start, or a warm one where some agents already hold grid efforts and
    # idle agents face bars at every distance from their entry cost
    warm = draw(st.one_of(st.none(), st.lists(st.one_of(st.none(), st.integers(0, 200)), min_size=n, max_size=n)))

    def build():
        inst = DiscreteInstance.stratified(population, policy, n, delta_e, seed=seed)
        if overwrite == "zeros":
            inst.skill[np.asarray(skills) == 0.0] = 0.0
        elif overwrite == "all":
            inst.skill = np.sort(np.asarray(skills))
        if warm is not None:
            grid = inst.effort_grid()
            for agent, step in enumerate(warm):
                if step is not None:
                    inst.efforts[agent] = grid[step % len(grid)]
        return inst

    return build


def _outcome(dynamics, instance, max_rounds, eps):
    try:
        result = dynamics(instance, max_rounds=max_rounds, improvement_eps=eps)
    except Exception as exc:  # the screen must not hide or move an error either
        return type(exc).__name__
    return (result.converged, result.rounds, result.cycling_agents)


def _certification(certify, instance, eps):
    try:
        return certify(instance, eps)
    except Exception as exc:
        return type(exc).__name__


def _assert_oracle_matches_reference(fast, ref, max_rounds, eps):
    """Certification, then the dynamics, then certification again, against the reference."""
    assert _certification(certify_equilibrium, fast, eps) == _certification(reference_certify_equilibrium, ref, eps)
    assert _outcome(best_response_dynamics, fast, max_rounds, eps) == _outcome(
        reference_best_response_dynamics, ref, max_rounds, eps)
    assert fast.efforts.tobytes() == ref.efforts.tobytes()
    assert _certification(certify_equilibrium, fast, eps) == _certification(reference_certify_equilibrium, ref, eps)


def _examples(local: int) -> int:
    """``local``, or the example budget of the ``oracle-deep`` profile (tests/conftest.py)
    when pytest runs with ``--hypothesis-profile oracle-deep``."""
    deep = settings.get_profile("oracle-deep")
    return deep.max_examples if settings.default is deep else local


@settings(max_examples=_examples(60), deadline=None)
@given(
    build=_screen_instances(),
    max_rounds=st.integers(1, 300),
    eps=st.sampled_from([1e-12, 0.0, 1e-3, -1e-12]),
)
def test_idle_screen_bit_identical_to_scalar_reference(build, max_rounds, eps):
    _assert_oracle_matches_reference(build(), build(), max_rounds, eps)


# -- reward-step bars ---------------------------------------------------------
#
# Best responses and certification read a deviation's reward from the standing
# bars of the reward steps; only a score equal to a bar takes the full position.
# Dyadic grids, skills and transfers make such exact ties common.

_DYADIC_TRANSFERS = [
    Power(1.0, 1.0, role=Role.EFFORT_TRANSFER),
    Power(2.0, 1.0, role=Role.EFFORT_TRANSFER),
    Power(1.0, 0.5, role=Role.EFFORT_TRANSFER),  # exact on the even powers of two
]


@st.composite
def _tied_instances(draw):
    policy = draw(_policies())
    population = PopulationSpec(f=Power(2.0, 1.0, role=Role.SKILL_QUANTILE),
                                g=draw(st.sampled_from(_DYADIC_TRANSFERS)), p=Power(1.0, 2.0, role=Role.COST_FUNCTION))
    n = draw(st.integers(1, 12))
    delta_e = draw(st.sampled_from([1 / 8, 1 / 16, 1 / 32]))
    skills = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), min_size=n, max_size=n))
    steps = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))

    def build():
        inst = DiscreteInstance.stratified(population, policy, n, delta_e)
        inst.skill = np.asarray(skills, dtype=float)  # any order: the index tie-break matters
        grid = inst.effort_grid()
        inst.efforts = grid[np.asarray(steps) % len(grid)]
        return inst

    return build


@settings(max_examples=_examples(60), deadline=None)
@given(build=_tied_instances(), max_rounds=st.integers(1, 100), eps=st.sampled_from([1e-12, 0.0]))
def test_bars_bit_identical_on_tied_profiles(build, max_rounds, eps):
    _assert_oracle_matches_reference(build(), build(), max_rounds, eps)


@st.composite
def _near_bar_profiles(draw):
    """Warm grid profiles whose agents hold, per a drawn choice, the first grid column
    where their score reaches a bar of a draft profile, or the column either side of
    it: top-band agents just above a bar, and agents a column short of one.
    Levels never fall and there is a reward step, so the screen is on."""
    policy = draw(_policies(min_k=2, orders=("non-decreasing",)))
    p, e0 = draw(st.sampled_from(_COSTS))
    population = PopulationSpec(f=Power(2.0, 1.0, role=Role.SKILL_QUANTILE),
                                g=draw(st.sampled_from(_DYADIC_TRANSFERS + _TRANSFERS)), p=p, e0=e0)
    n = draw(st.integers(1, 24))
    delta_e = draw(st.sampled_from([1 / 8, 1 / 16, 1e-2, 3e-2]))
    skills = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), st.floats(0.0, 2.0)),
                           min_size=n, max_size=n))
    draft = draw(st.lists(st.integers(0, 200), min_size=n, max_size=n))
    # per agent, the draft column, or (which bar, column offset -1, 0 or 1)
    near = draw(st.lists(st.one_of(st.none(), st.tuples(st.integers(0, 3), st.sampled_from([-1, 0, 1]))),
                         min_size=n, max_size=n))

    def build():
        inst = DiscreteInstance.stratified(population, policy, n, delta_e)
        inst.skill = np.asarray(skills, dtype=float)  # any order: the index tie-break matters
        grid, grid_g, _ = inst._grid_table()
        inst.efforts = grid[np.asarray(draft) % len(grid)]
        steps = oracle._StandingScores(inst, inst.scores()).steps
        bars = np.sort(inst.scores())[[j for j, _ in steps]]
        efforts = inst.efforts.copy()
        for agent, choice in enumerate(near):
            if choice is not None and len(bars):
                which, offset = choice
                reached = np.flatnonzero(inst.skill[agent] * grid_g >= bars[which % len(bars)])
                k = reached[0] if len(reached) else len(grid) - 1
                efforts[agent] = grid[min(max(k + offset, 0), len(grid) - 1)]
        inst.efforts = efforts
        return inst

    return build


@settings(max_examples=_examples(60), deadline=None)
@given(build=_near_bar_profiles(), max_rounds=st.integers(1, 100), eps=st.sampled_from([1e-12, 0.0, 1e-3]))
def test_screen_bit_identical_near_the_bars(build, max_rounds, eps):
    _assert_oracle_matches_reference(build(), build(), max_rounds, eps)


def test_exact_tie_at_a_bar_takes_the_full_position(monkeypatch):
    """Four agents of skill 1 with score = effort on a dyadic grid; agents 2 and 3
    stand at 0.5, the bar of the only reward step (the second highest score).
    Agent 0 or 1 deviating to 0.5 ties that bar, and the index tie-break puts
    them first: both the best response and the scan must take that path."""
    population = PopulationSpec(
        f=Power(1.0, 1.0, role=Role.SKILL_QUANTILE),
        g=Power(1.0, 1.0, role=Role.EFFORT_TRANSFER),
        p=Power(1.0, 2.0, role=Role.COST_FUNCTION),
        e0=0.0,
    )

    def build():
        inst = DiscreteInstance.stratified(population, two_level(0.5, 0.2), 4, 0.125)
        inst.skill = np.ones(4)
        inst.efforts = np.array([0.0, 0.0, 0.5, 0.5])
        return inst

    fast, ref = build(), build()
    assert oracle._StandingScores(fast, fast.scores()).steps == [(2, 0.4)]  # bar desc[1], reward 0.4 above it
    searched = []

    def spy(a, x, *args):
        searched.append(x)
        return bisect_right(a, x, *args)

    monkeypatch.setattr(oracle, "bisect_right", spy)
    cert = certify_equilibrium(fast, 0.0)
    assert 0.5 in searched  # the scan resolved a tie cell
    assert cert == reference_certify_equilibrium(ref, 0.0)
    assert cert.worst_agent == 0 and cert.worst_effort == 0.5
    assert cert.worst_gain == pytest.approx(0.4 - 0.25)
    searched.clear()
    got = best_response_dynamics(fast, max_rounds=1)
    assert 0.5 in searched  # so did a best response
    want = reference_best_response_dynamics(ref, max_rounds=1)
    # agents 0 and 1 enter at the bar by the tie-break; 2 and 3, now outranked, step above it
    assert fast.efforts.tolist() == [0.5, 0.5, 0.625, 0.625]
    assert (got.converged, got.rounds, got.cycling_agents) == (want.converged, want.rounds, want.cycling_agents)
    assert fast.efforts.tobytes() == ref.efforts.tobytes()
    _assert_oracle_matches_reference(fast, ref, 200, 1e-12)


# -- pruned certification ----------------------------------------------------
#
# certify_equilibrium prices each agent only where their deviation reward can
# change along the grid.
# Random grid profiles, not only equilibria, give positive worst gains, so the
# argmax and its ties matter.


@st.composite
def _grid_profiles(draw):
    """Dyadic or decimal grids, tied and untied skills, zeros."""
    policy = draw(_policies())
    p, e0 = draw(st.sampled_from(_COSTS))
    g = draw(st.sampled_from(_DYADIC_TRANSFERS + _TRANSFERS))
    population = PopulationSpec(f=Power(2.0, 1.0, role=Role.SKILL_QUANTILE), g=g, p=p, e0=e0)
    n = draw(st.integers(1, 24))
    delta_e = draw(st.sampled_from([1 / 8, 1 / 16, 1 / 32, 1e-2, 3e-2]))
    skills = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), st.floats(0.0, 2.0)),
                           min_size=n, max_size=n))
    steps = draw(st.lists(st.integers(0, 200), min_size=n, max_size=n))

    def build():
        inst = DiscreteInstance.stratified(population, policy, n, delta_e)
        inst.skill = np.asarray(skills, dtype=float)  # any order: the index tie-break matters
        grid = inst.effort_grid()
        inst.efforts = grid[np.asarray(steps) % len(grid)]
        return inst

    return build


@settings(max_examples=_examples(60), deadline=None)
@given(build=_grid_profiles(), eps=st.sampled_from([0.0, 1e-3]))
def test_pruned_certification_bit_identical_on_grid_profiles(build, eps):
    assert _certification(certify_equilibrium, build(), eps) == _certification(
        reference_certify_equilibrium, build(), eps)


def test_pruned_certification_runs_on_the_benchmark_instance(benchmark_population, monkeypatch):
    """Every agent of the closed-form profile is priced at its change points only."""
    searched = []
    first_columns = oracle._first_columns

    def spy(skill, *args):
        searched.append(len(skill))
        return first_columns(skill, *args)

    monkeypatch.setattr(oracle, "_first_columns", spy)
    for policy in (two_level(0.8, 0.2), FOUR_LEVEL):
        inst = DiscreteInstance.from_schedule(solve(benchmark_population, policy), 500, 1e-3)
        searched.clear()
        assert certify_equilibrium(inst, 5 / 500) == reference_certify_equilibrium(inst, 5 / 500)
        assert searched == [500, 500]  # where each bar is reached, then passed, for all 500 agents


def _unit_agents(levels, cutpoints, skills, efforts):
    """Agents with score = skill * effort and cost effort^2 on the grid of step 1/8."""
    population = PopulationSpec(f=Power(1.0, 1.0, role=Role.SKILL_QUANTILE),
                                g=Power(1.0, 1.0, role=Role.EFFORT_TRANSFER), p=Power(1.0, 2.0, role=Role.COST_FUNCTION))
    inst = DiscreteInstance.stratified(population, RewardPolicy(levels, cutpoints, 0.5), len(skills), 0.125)
    inst.skill = np.asarray(skills, dtype=float)
    inst.efforts = np.asarray(efforts, dtype=float)
    return inst


def test_equal_gains_take_the_smallest_effort():
    """Agent 0 holds the top reward at effort 1 for a welfare of 0, exactly what idling
    at 0 earns: the scan reports the smaller effort, and with a negative tolerance the
    best response moves there, as the reference's ascending scan does."""
    def build():
        return _unit_agents((0.0, 1.0), (0.5,), [1.0, 1.0], [1.0, 0.0])

    cert = certify_equilibrium(build(), 0.0)
    assert cert == reference_certify_equilibrium(build(), 0.0)
    assert (cert.worst_gain, cert.worst_agent, cert.worst_effort) == (0.0, 0, 0.0)
    fast, ref = build(), build()
    best_response_dynamics(fast, max_rounds=1, improvement_eps=-1e-12)
    reference_best_response_dynamics(ref, max_rounds=1, improvement_eps=-1e-12)
    assert fast.efforts.tobytes() == ref.efforts.tobytes()
    assert fast.efforts[0] == 0.0


@dataclass(frozen=True)
class _DippingCost(Power):
    """x^2, but 0.5 cheaper on [0.5, 0.6): the cost falls once along the grid."""

    def evaluate(self, x):
        return super().evaluate(x) - (0.5 if 0.5 <= x < 0.6 else 0.0)


@pytest.mark.parametrize("entry_point", [lambda inst: certify_equilibrium(inst, 0.0), best_response_dynamics],
                         ids=["certification", "dynamics"])
def test_certification_rejects_a_falling_cost(entry_point):
    """A cost that falls along the grid breaks FunctionSpec's promise of a strictly
    increasing function, on which pricing the first column of each constant-reward
    stretch rests: certification and the dynamics, which read one grid table,
    refuse it."""
    population = PopulationSpec(f=Power(2.0, 1.0, role=Role.SKILL_QUANTILE),
                                g=Power(1.0, 0.5, role=Role.EFFORT_TRANSFER), p=_DippingCost(1.0, 2.0))
    inst = DiscreteInstance.stratified(population, two_level(0.5, 0.2), 20, 1e-2, e_max=1.0)
    with pytest.raises(ModelError, match="nondecreasing"):
        entry_point(inst)


def test_effort_grid_stops_at_e_max(benchmark_population):
    """No best response takes an effort above e_max, so certification prices none."""
    inst = DiscreteInstance.stratified(benchmark_population, two_level(0.8, 0.2), 10, 1e-2, e_max=0.806)
    assert inst.effort_grid()[-1] == pytest.approx(0.80)
    inst = DiscreteInstance.stratified(benchmark_population, two_level(0.5, 0.3), 10, 1e-3)
    grid = inst.effort_grid()
    assert inst.e_max == pytest.approx(0.7766, abs=1e-4)
    assert grid.max() <= inst.e_max and grid[-1] == pytest.approx(0.776)
    # e0 off the grid is still appended
    inst = DiscreteInstance.stratified(_increasing_cost_below_e0(), two_level(0.8, 0.2), 10, 3e-2)
    grid = inst.effort_grid()
    assert 0.2 in grid and grid.max() <= inst.e_max


def test_idling_at_an_e0_beside_a_grid_step_is_certified():
    """e0 = 0.2 + 1e-7 lies within np.isclose of the grid step 0.2, which used to keep
    e0 off the grid: the dynamics priced idling at e0 and certification did not, so
    certification accepted at eps 0.048 (worst gain 0.0459, at 0.21) a profile where
    agent 0 gains 0.05 by idling at e0.  e0 is now a grid effort of its own."""
    e0 = 0.2 + 1e-7
    population = PopulationSpec(f=Power(2.0, 1.0, role=Role.SKILL_QUANTILE), g=Power(1.0, 0.5, role=Role.EFFORT_TRANSFER),
                                p=AffinePower(1.0, 2.0, -e0 ** 2, role=Role.COST_FUNCTION), e0=e0)

    def build():
        inst = DiscreteInstance.stratified(population, two_level(0.5, 0.2), 4, 1e-2)
        inst.skill = np.array([1.0, 1.0, 0.5, 0.5])
        inst.efforts = np.array([0.3, 0.20000005, e0, e0])
        return inst

    fast, ref = build(), build()
    grid = fast.effort_grid()
    assert e0 in grid and 0.2 in grid
    cert = certify_equilibrium(fast, 0.048)
    assert cert == reference_certify_equilibrium(ref, 0.048)
    assert not cert.is_eps_equilibrium
    assert (cert.worst_agent, cert.worst_effort) == (0, e0)
    assert cert.worst_gain == pytest.approx(0.05, abs=1e-7)
    # one sweep makes that move
    best_response_dynamics(fast, max_rounds=1)
    reference_best_response_dynamics(ref, max_rounds=1)
    assert fast.efforts.tobytes() == ref.efforts.tobytes()
    assert fast.efforts[0] == e0


def test_standing_pat_is_priced_off_the_grid_range(benchmark_population):
    """An agent standing at 2.0, above e_max = 0.652, was never moved: the run
    "converged" after 75 sweeps with agent 9 still there, and certification found
    a gain of 3.9775 at 0.15.  Standing pat is priced wherever the agent stands, and
    an effort outside the cost's domain raises DomainError, as in certification."""
    fast, ref = (DiscreteInstance.stratified(benchmark_population, two_level(0.5, 0.2), 10, 1e-2) for _ in range(2))
    fast.efforts[9] = ref.efforts[9] = 2.0
    got = best_response_dynamics(fast, max_rounds=2000)
    want = reference_best_response_dynamics(ref, max_rounds=2000)
    assert (got.converged, got.rounds) == (want.converged, want.rounds) == (True, 79)
    assert fast.efforts.tobytes() == ref.efforts.tobytes()
    assert fast.efforts[9] == pytest.approx(0.15)
    cert = certify_equilibrium(fast, 1e-12)
    assert cert.is_eps_equilibrium and cert.worst_gain == 0.0
    fast.efforts[9] = -0.5
    for entry_point in (lambda inst: certify_equilibrium(inst, 0.0), best_response_dynamics):
        with pytest.raises(DomainError):
            entry_point(fast)


def test_effort_cap_never_below_e0():
    """A grid holding e0 above the cap left idle agents there unmoved: the dynamics
    stopped after 1 sweep at a profile certification rejects, by 0.04 with a
    given cap of 0.1 < e0, and by 0.5 with the default cap cut to the last grid
    step 0.78 inside the domains, below e0 = 0.79.  The first is rejected; the
    default cap is e0 there."""
    with pytest.raises(DomainError, match="below the idle effort"):
        DiscreteInstance.stratified(_cost_below_e0_population(), two_level(0.5, 0.2), 10, 1e-2, e_max=0.1)
    population = PopulationSpec(
        f=Power(2.0, 1.0, role=Role.SKILL_QUANTILE),
        g=PiecewiseMonotone(((0.0, 0.0), (0.8, 1.0)), role=Role.EFFORT_TRANSFER),
        p=PiecewiseMonotone(((0.0, -0.5), (0.79, 0.0), (0.8, 1.0)), role=Role.COST_FUNCTION),
        e0=0.79,
    )
    assert default_effort_cap(population, two_level(0.5, 0.2), 0.03) == 0.79
    inst = DiscreteInstance.stratified(population, two_level(0.5, 0.2), 5, 0.03)
    assert best_response_dynamics(inst).converged
    assert certify_equilibrium(inst, 1e-12).worst_gain == 0.0


def _short_transfer_population():
    return PopulationSpec(
        f=Power(2.0, 1.0, role=Role.SKILL_QUANTILE),
        g=PiecewiseMonotone(((0.0, 0.0), (0.4, 0.7), (0.8, 0.9)), role=Role.EFFORT_TRANSFER),
        p=Power(1.0, 2.0, role=Role.COST_FUNCTION),
        e0=0.0,
    )


def test_effort_cap_stays_inside_the_transfer_domain():
    """p^-1(1) + 2 delta = 1.02 would pass g's last knot at 0.8, where the
    dynamics used to raise DomainError; the cap is g's last grid effort."""
    population = _short_transfer_population()
    policy = two_level(0.8, 0.2)
    assert default_effort_cap(population, policy, 1e-2) == 0.8
    assert default_effort_cap(population, policy, 3e-2) == pytest.approx(0.78)
    inst = DiscreteInstance.stratified(population, policy, 20, 1e-2)
    assert inst.effort_grid()[-1] == inst.e_max == 0.8
    result = best_response_dynamics(inst, max_rounds=2000)
    assert result.converged
    assert certify_equilibrium(inst, 5 / 20).is_eps_equilibrium
    # unbounded domains keep the uncapped bound
    assert default_effort_cap(replace(population, g=Power(1.0, 0.5, role=Role.EFFORT_TRANSFER)),
                              policy, 1e-2) == 1.0 + 2e-2


# -- converged means certified ------------------------------------------------
#
# Per reward-step bar, the dynamics price the first grid column not below it,
# and on a tie the first above it: the cells certification prices, read from
# the same grid table.  So a run that converges ends at a profile
# certification accepts.


def _cost_below_e0_population():
    """e0 = 0.2 with p = x^2 - 0.04: every effort below e0 is cheaper than idling."""
    return PopulationSpec(
        f=Power(2.0, 1.0, role=Role.SKILL_QUANTILE),
        g=Power(1.0, 0.5, role=Role.EFFORT_TRANSFER),
        p=AffinePower(1.0, 2.0, -0.04, role=Role.COST_FUNCTION),
        e0=0.2,
    )


@pytest.mark.parametrize("population, policy, n, delta_e, skills, rounds", [
    # population None is the benchmark population, skills None the stratified
    # ones.  At N=10 the cutpoint 0.45 sits on the slot rank of position 5,
    # which rounds below it, so the reward changes below position 4: searching
    # the bar of position 5 stopped after 2 sweeps, with agent 4 gaining 0.18
    # by entering
    (None, two_level(0.45, 0.1), 10, 1e-3, None, 522),
    # searching entry efforts from e0 stopped after 2 sweeps, with agent 2
    # gaining 0.0297 at the effort 0.08 < e0
    (_cost_below_e0_population(), two_level(0.3, 0.2), 3, 1e-2, None, 2),
    # skill * g(e) rounds to 0 below e = 0.25 and to 5e-324 above it, so the
    # bar 0 is first beaten at 0.26; entering where the score ties the bar
    # stopped after 1 sweep, with agent 1 gaining 0.1324 at 0.26
    (None, RewardPolicy((0.0, 0.2, 1.0), (0.45, 0.9), 0.2), 2, 1e-2, [0.0, 5e-324], 2),
    # an idle screen bound skill * g(p^-1(0.4)) is subnormal, so it rounds by far
    # more than a relative cushion; screening agent 0 on it stopped after 2
    # sweeps, with agent 0 gaining 0.3324 by tying agent 1's score at 0.26 and
    # taking the top slot by the index tie-break
    (None, two_level(0.5, 0.2), 2, 1e-2, [5e-324, 5e-324], 3),
], ids=["cutpoint_on_a_slot_rank", "entry_below_e0", "subnormal_skill", "subnormal_screen_limit"])
def test_converged_cold_start_certifies(benchmark_population, population, policy, n, delta_e, skills, rounds):
    inst = DiscreteInstance.stratified(population or benchmark_population, policy, n, delta_e)
    if skills is not None:
        inst.skill = np.asarray(skills)
    result = best_response_dynamics(inst, max_rounds=2000)
    assert (result.converged, result.rounds) == (True, rounds)
    cert = certify_equilibrium(inst, 1e-12)
    assert cert.is_eps_equilibrium and cert.worst_gain == 0.0


@settings(max_examples=_examples(60), deadline=None)
@given(build=st.one_of(_screen_instances(), _tied_instances(), _grid_profiles()),
       eps=st.sampled_from([0.0, 1e-12, 1e-3]))
def test_converged_dynamics_certify(build, eps):
    instance = build()
    result = best_response_dynamics(instance, max_rounds=300, improvement_eps=eps)
    if result.converged:
        assert certify_equilibrium(instance, eps).is_eps_equilibrium
