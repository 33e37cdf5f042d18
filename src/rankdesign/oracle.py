"""Discrete-agent brute-force verification of the closed-form equilibrium.

N agents occupy stratified ranks; rewards are assigned by sorting scores
(descending, ties broken toward the lower agent index) and reading the
policy at the slot rank 1 - (j + 0.5)/N of each sorted position j.

Deviations are evaluated counterfactually against the *standing* score
distribution: when agent i contemplates a new score, every current score --
including agent i's own -- stays in place as a competitor.  This mirrors the
continuum equilibrium condition, where a single applicant is mass zero and
cannot vacate band capacity by moving: dropping below one's own standing
score cannot open a free slot in the band.  A naive re-sort that removes the
deviator's old score would leave every band one slot short and make "shade
to the band floor" spuriously profitable at any profile, including the exact
continuum equilibrium.

The position of a deviation score s for agent i is therefore

    pos(i, s) = #{j: score_j > s} + #{j != i: score_j == s and j < i}

which reduces to the agent's current position when s equals their current
score, counts the standing copy of their own score for downward moves, and
applies the index tie-break otherwise.

Only the reward of a deviation matters, and it changes with the position at
no more than K - 1 reward steps b.  Let desc[b] be the (b+1)-th highest
standing score, the step's *bar*.  For any standing multiset pos(i, s) <= b
exactly when s > desc[b], and pos(i, s) > b exactly when s < desc[b]; only
s == desc[b] needs the formula above.  So best responses and certification
read a deviation's reward from at most K - 1 float comparisons against the
bars, and apply the index tie-break on exact ties.  This holds for any order
of the levels, including decreasing and repeated ones.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field

import numpy as np

from .equilibrium import EquilibriumSchedule, effort_at
from .errors import DomainError, RangeError, RankDesignError
from .functions import PopulationSpec
from .policy import RewardPolicy
from .welfare import WelfareReport


@dataclass
class DiscreteInstance:
    """Finite instantiation of the ranking game on an effort grid."""

    population: PopulationSpec
    policy: RewardPolicy
    ranks: np.ndarray          # pre-effort ranks, ascending
    skill: np.ndarray          # f(rank) (or caller-supplied multipliers)
    efforts: np.ndarray
    delta_e: float
    e_max: float

    def __post_init__(self):
        self.ranks = np.asarray(self.ranks, dtype=float)
        self.skill = np.asarray(self.skill, dtype=float)
        self.efforts = np.asarray(self.efforts, dtype=float)
        if self.delta_e <= 0:
            raise DomainError("effort grid resolution must be positive")
        if self.n == 0:
            raise DomainError("instance needs at least one agent")

    @property
    def n(self) -> int:
        return len(self.ranks)

    # -- construction ------------------------------------------------------

    @staticmethod
    def stratified(
        population: PopulationSpec,
        policy: RewardPolicy,
        n: int,
        delta_e: float,
        e_max: float | None = None,
        seed: int | None = None,
    ) -> "DiscreteInstance":
        """Midpoint-stratified ranks (i + 0.5)/n; a seed switches to Monte Carlo ranks."""
        if n < 1:
            raise DomainError("need at least one agent")
        if seed is None:
            ranks = (np.arange(n) + 0.5) / n
        else:
            ranks = np.sort(np.random.default_rng(seed).uniform(0.0, 1.0, n))
        skill = np.array([population.f.evaluate(t) for t in ranks])
        if e_max is None:
            e_max = default_effort_cap(population, policy, delta_e)
        efforts = np.full(n, float(population.e0))
        return DiscreteInstance(population, policy, ranks, skill, efforts, delta_e, e_max)

    @staticmethod
    def from_schedule(
        schedule: EquilibriumSchedule,
        n: int,
        delta_e: float,
        e_max: float | None = None,
    ) -> "DiscreteInstance":
        """Instance seeded with the closed-form efforts at stratified ranks."""
        inst = DiscreteInstance.stratified(schedule.population, schedule.policy, n, delta_e, e_max)
        inst.efforts = np.array([effort_at(schedule, t) for t in inst.ranks])
        return inst

    # -- scoring and reward assignment --------------------------------------

    def scores(self) -> np.ndarray:
        g = self.population.g
        return np.array([g.evaluate(e) for e in self.efforts]) * self.skill

    def positions(self, scores: np.ndarray | None = None) -> np.ndarray:
        """Sorted position of each agent: descending score, lower index first."""
        s = self.scores() if scores is None else scores
        order = np.lexsort((np.arange(self.n), -s))
        pos = np.empty(self.n, dtype=int)
        pos[order] = np.arange(self.n)
        return pos

    def slot_ranks(self, positions: np.ndarray) -> np.ndarray:
        return 1.0 - (positions + 0.5) / self.n

    def assigned_levels(self, scores: np.ndarray | None = None) -> np.ndarray:
        return np.asarray(self.policy.levels)[self.assigned_bands(scores)]

    def assigned_bands(self, scores: np.ndarray | None = None) -> np.ndarray:
        ranks = self.slot_ranks(self.positions(scores))
        return np.searchsorted(self.policy.cutpoints, ranks, side="right")

    def costs(self) -> np.ndarray:
        p = self.population.p
        return np.array([p.evaluate(e) for e in self.efforts])

    def welfares(self) -> np.ndarray:
        return self.assigned_levels() - self.costs()

    def effort_grid(self) -> np.ndarray:
        grid = np.arange(0.0, self.e_max + 0.5 * self.delta_e, self.delta_e)
        e0 = self.population.e0
        if e0 > 0 and not np.any(np.isclose(grid, e0)):
            grid = np.sort(np.append(grid, e0))
        return grid


def default_effort_cap(population: PopulationSpec, policy: RewardPolicy, delta_e: float) -> float:
    """Efforts costing more than the top reward are never best responses.

    The cap stays inside the domains of g and p: where the effort grid up to
    it would pass the smaller upper end, it is the last grid effort inside.
    """
    span = policy.levels[-1] - policy.levels[0]
    cap = population.cost_inverse(span) if span > 0 else population.e0
    cap = max(cap, population.e0) + 2.0 * delta_e
    top = min(population.g.domain[1], population.p.domain[1])
    if cap + 0.5 * delta_e > top:
        steps = math.floor(top / delta_e + 1e-9)
        cap = (steps if steps * delta_e <= top else steps - 1) * delta_e
    return cap


class _StandingScores:
    """Counterfactual position lookups against the standing profile.

    Maintains the full score multiset (every agent's standing score stays in
    place as a competitor) with incremental updates as the dynamics move one
    agent at a time.  ``position_levels[pos]`` is the reward of sorted
    position pos, for pos in 0..n; position n lies below every standing score.
    ``steps`` lists, for each reward step b (``position_levels[b] !=
    position_levels[b + 1]``) in ascending b, the index n - 1 - b of that
    step's bar in ``sorted_scores`` and the reward at positions <= b.
    """

    def __init__(self, instance: DiscreteInstance, scores: np.ndarray | list[float]):
        n = instance.n
        self.sorted_scores: list[float] = sorted(float(s) for s in scores)
        # agent indices holding each distinct score value, ascending
        self.by_value: dict[float, list[int]] = {}
        for idx, s in enumerate(scores):
            self.by_value.setdefault(float(s), []).append(idx)
        cutpoints, levels = instance.policy.cutpoints, instance.policy.levels
        self.position_levels: list[float] = [
            levels[bisect_right(cutpoints, 1.0 - (pos + 0.5) / n)] for pos in range(n + 1)
        ]
        pl = self.position_levels
        self.steps: list[tuple[int, float]] = [(n - 1 - b, pl[b]) for b in range(n) if pl[b] != pl[b + 1]]

    def update(self, agent: int, old: float, new: float) -> None:
        old, new = float(old), float(new)
        self.sorted_scores.pop(bisect_left(self.sorted_scores, old))
        insort(self.sorted_scores, new)
        holders = self.by_value[old]
        holders.pop(bisect_left(holders, agent))
        if not holders:
            del self.by_value[old]
        insort(self.by_value.setdefault(new, []), agent)


class _EffortValues(dict):
    """Memo of (g(e), p(e)) per effort value; g and p are pure and frozen."""

    def __init__(self, population: PopulationSpec):
        super().__init__()
        self._g, self._p = population.g.evaluate, population.p.evaluate

    def __missing__(self, e: float) -> tuple[float, float]:
        value = self[e] = (self._g(e), self._p(e))
        return value


@dataclass
class DynamicsResult:
    converged: bool
    rounds: int
    instance: DiscreteInstance
    cycling_agents: tuple[int, ...] = field(default_factory=tuple)
    movers_per_sweep: tuple[int, ...] = field(default_factory=tuple)
    best_responses: int = 0  # evaluated, i.e. not skipped by the idle screen


def _band_entry_positions(instance: DiscreteInstance) -> list[int]:
    """Worst (largest) sorted position whose slot rank still lies in band >= k."""
    n = instance.n
    out = []
    for c in instance.policy.cutpoints:
        j = math.floor(n * (1.0 - c) - 0.5 + 1e-9)
        out.append(j)
    return out


def _best_response_fn(
    instance: DiscreteInstance,
    standing: _StandingScores,
    effort_values: _EffortValues,
    improvement_eps: float,
):
    """Exact grid best response ``(agent, skill, current) -> effort`` for one run.

    Within a band the reward is flat and cost increases with effort, so only
    the cheapest grid effort reaching each band needs testing, plus idling at
    e0 and standing pat.  Tie efforts (exactly matching a standing score) are
    covered by also probing one grid step below each entry effort.  The
    returned function reads ``standing`` as it is updated between calls; the
    run's constants (g(e0), the grid, the entry positions) are bound once, and
    the candidates around each entry grid step are computed once per run.
    Each candidate's reward is read from the standing bars (see the module
    docstring).
    """
    pop = instance.population
    n, delta_e, e_max = instance.n, instance.delta_e, instance.e_max
    # sorted_scores index of the bar score at each band's entry position
    entry_bars = [n - 1 - j for j in _band_entry_positions(instance) if 0 <= j < n]
    e0, invert, ceil = pop.e0, pop.g.invert, math.ceil
    idle, e0_float = pop.g.evaluate(e0), float(e0)
    sorted_scores, by_value = standing.sorted_scores, standing.by_value
    position_levels, steps = standing.position_levels, standing.steps
    bottom = position_levels[n]
    near_entry: dict[int, list[float]] = {}  # grid step of an entry effort -> its candidates

    def best_response(agent: int, skill: float, current: float) -> float:
        candidates = {current, e0_float, 0.0}
        if skill > 0.0:
            for j in entry_bars:
                bar = sorted_scores[j]
                if bar < 0.0:
                    continue
                target = bar / skill
                if target <= idle:
                    entry = e0
                else:
                    try:
                        entry = invert(target)
                    except RangeError:
                        continue
                k = max(ceil(entry / delta_e - 1e-9), 0)
                near = near_entry.get(k)
                if near is None:
                    e = k * delta_e
                    near = near_entry[k] = [
                        round(cand / delta_e) * delta_e
                        for cand in (e - delta_e, e, e + delta_e)
                        if 0.0 <= cand <= e_max
                    ]
                candidates.update(near)
        # (bar, reward at or above it), highest bar first
        bars = [(sorted_scores[j], reward) for j, reward in steps]
        best_effort = current
        best_gain = -math.inf
        current_gain = None
        for e in sorted(candidates):
            if not (0.0 <= e <= e_max):
                continue
            g_e, p_e = effort_values[e]
            s = g_e * skill
            for bar, reward in bars:
                if not s < bar:
                    if s == bar:
                        # lower-index holders outrank the deviator; the
                        # deviator's own standing copy never counts against them
                        pos = n - bisect_right(sorted_scores, s) + bisect_left(by_value[s], agent)
                        reward = position_levels[pos]
                    break
            else:
                reward = bottom
            gain = reward - p_e
            if e == current:
                current_gain = gain
            if gain > best_gain:
                best_gain = gain
                best_effort = e
        if current_gain is not None and best_gain > current_gain + improvement_eps:
            return best_effort
        return current

    return best_response


# Upward relative cushion on the idle screen's bounds: many times the rounding
# of the few operations behind each bound and each gain comparison, so that
# rounding can only make the screen skip fewer best responses.
_SCREEN_CUSHION = 1e-9


def _idle_screen(
    instance: DiscreteInstance,
    standing: _StandingScores,
    effort_values: _EffortValues,
    improvement_eps: float,
    skills: list[float],
    scores: list[float],
) -> list[tuple[tuple[int, float], ...] | None]:
    """Per agent, the standing bars that keep them idle at e0, or None.

    An entry ``((j, limit), ...)`` means: while the agent's effort is e0 and
    ``sorted_scores[j] >= limit`` for every pair, their best response is e0.
    The bars are the standing scores at the band entry positions, lowest
    first; see ``best_response_dynamics`` for the argument.  Every entry is
    None when a precondition of that argument fails for this run.
    """
    n, pop = instance.n, instance.population
    nobody: list = [None] * n
    levels = standing.position_levels
    entries = sorted({j for j in _band_entry_positions(instance) if 0 <= j < n}, reverse=True)
    low = levels[n]
    positives = [s for s in skills if s > 0.0]
    try:
        g_e0, p_e0 = effort_values[float(pop.e0)]
        g_zero, p_zero = effort_values[0.0]
        g_max = effort_values[float(instance.e_max)][0]
    except (RankDesignError, ArithmeticError, ValueError):
        # some grid effort has no score or cost: the best responses raise
        return nobody
    if not (
        positives
        and improvement_eps >= 0.0
        # a non-finite score or skill leaves the standing order without meaning
        and math.isfinite(sum(map(abs, scores)) + sum(map(abs, skills)) + abs(g_zero) + abs(g_max))
        # rewards never fall with a better position, and are flat below the lowest bar
        and all(a >= b for a, b in zip(levels, levels[1:]))
        and levels[(entries[0] if entries else -1) + 1] == low
        # p is increasing, so no grid effort costs less than p(0)
        and p_zero >= p_e0
    ):
        return nobody
    # The largest target bar / skill any best response can meet must not make
    # the entry-effort arithmetic raise: g.invert is increasing, so it bounds the rest.
    bar_max = max(max(map(abs, scores)), max(map(abs, skills)) * max(abs(g_zero), abs(g_max)))
    try:
        math.ceil(pop.g.invert(bar_max / min(positives)) / instance.delta_e - 1e-9)
    except RangeError:
        pass
    except (RankDesignError, ArithmeticError, ValueError):
        return nobody
    # Score per unit skill that reaching each bar must buy for the move to pay.
    unit_limits = []
    for m, j in enumerate(entries):
        cap = levels[entries[m + 1] + 1] if m + 1 < len(entries) else levels[0]
        cost = cap - low + p_e0 - improvement_eps
        cost += _SCREEN_CUSHION * (abs(cap) + abs(low) + abs(p_e0) + improvement_eps)
        if not cost > 0.0:
            return nobody
        try:
            unit_limits.append((n - 1 - j, pop.g.evaluate(pop.p.invert(cost))))
        except (RankDesignError, ArithmeticError, ValueError):
            return nobody
    out = []
    for skill in skills:
        if not skill > 0.0:
            out.append(None)
            continue
        row = []
        for m, (j, unit) in enumerate(unit_limits):
            limit = skill * unit
            limit += _SCREEN_CUSHION * abs(limit)
            if m == 0:
                # the idle score itself lies strictly below the lowest bar
                limit = max(limit, math.nextafter(g_e0 * skill, math.inf))
            row.append((j, limit))
        out.append(tuple(row))
    return out


def best_response_dynamics(
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
    The result also records the movers of every sweep and how many best
    responses were evaluated.  Each best response prices its candidates
    against the standing bars (see the module docstring): pos <= b exactly
    when the candidate's score beats desc[b], the bar of reward step b, and
    only a score equal to a bar takes the full position with the index
    tie-break.

    An idle screen skips the best response of an agent at e0 whose move is
    ruled out by a bound computed once per run; the trajectory is the one
    every best response would give.  The argument: let B_1 < ... < B_M be
    the standing bars, the scores at the band entry positions, and L the
    reward below B_1.  Suppose rewards never fall with a better position,
    are flat below B_1, no grid effort costs less than p(e0), and the idle
    score g(e0)*s lies strictly below B_1.  Then staying earns exactly
    L - p(e0), any effort scoring below B_1 earns at most that, and an
    effort scoring in [B_m, B_m+1) earns at most the reward cap_m just below
    B_m+1 (the top reward for m = M) at a cost of at least p(g^-1(B_m/s)).
    So no effort gains more than ``improvement_eps`` over staying when every
    B_m >= s*g(p^-1(cap_m - L + p(e0) - improvement_eps)).  Both sides of
    that test are cushioned upward, so rounding only screens fewer agents;
    an agent or run where a bound cannot be computed, or where some best
    response could raise, is never screened.
    """
    last_movers: tuple[int, ...] = ()
    scores = instance.scores().tolist()
    standing = _StandingScores(instance, scores)
    effort_values = _EffortValues(instance.population)
    best_response = _best_response_fn(instance, standing, effort_values, improvement_eps)
    skills = instance.skill.tolist()
    efforts = instance.efforts.tolist()
    screen = _idle_screen(instance, standing, effort_values, improvement_eps, skills, scores)
    sorted_scores, e0 = standing.sorted_scores, float(instance.population.e0)
    movers_per_sweep = []
    responses = 0
    for round_no in range(1, max_rounds + 1):
        movers = []
        for agent, skill in enumerate(skills):
            current = efforts[agent]
            if current == e0:
                bars = screen[agent]
                if bars is not None:
                    for j, limit in bars:
                        if not sorted_scores[j] >= limit:
                            break
                    else:
                        continue
            responses += 1
            new = best_response(agent, skill, current)
            if new != current:
                old_score = scores[agent]
                new_score = effort_values[new][0] * skill
                efforts[agent] = instance.efforts[agent] = new
                scores[agent] = new_score
                standing.update(agent, old_score, new_score)
                movers.append(agent)
        movers_per_sweep.append(len(movers))
        if not movers:
            return DynamicsResult(True, round_no, instance, (), tuple(movers_per_sweep), responses)
        last_movers = tuple(movers)
    return DynamicsResult(False, max_rounds, instance, last_movers, tuple(movers_per_sweep), responses)


@dataclass(frozen=True)
class CertificationResult:
    is_eps_equilibrium: bool
    worst_gain: float
    worst_agent: int
    worst_effort: float
    per_band_max_gain: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "certified": self.is_eps_equilibrium,
            "worst_gain": self.worst_gain,
            "worst_agent": self.worst_agent,
            "worst_effort": self.worst_effort,
            "per_band_max_gain": list(self.per_band_max_gain),
        }


# (agent, grid effort) cells scanned per block of certify_equilibrium: large
# enough for numpy to amortise its call overhead, small enough that the
# block's temporaries stay a few hundred kB and peak memory does not grow
# with N.
_CERTIFY_BLOCK_CELLS = 1 << 14


def certify_equilibrium(instance: DiscreteInstance, eps: float) -> CertificationResult:
    """Scan every agent and every grid effort for a counterfactual welfare gain.

    Certifies when no deviation gains more than eps over the agent's assigned
    welfare in the standing profile.  The scan is exhaustive; it runs over
    blocks of agents, each against the whole effort grid.  A deviation's
    reward is read from the standing bars of the reward steps: the position
    of a score s is at most b exactly when s beats the bar desc[b], the
    (b+1)-th highest standing score, and above b exactly when s falls short
    of it; only a score equal to a bar needs its full position, with the
    index tie-break.  The worst gain is the first largest in agent order.
    """
    n = instance.n
    scores = instance.scores()
    standing = _StandingScores(instance, scores)
    grid = instance.effort_grid()
    g, p = instance.population.g, instance.population.p
    grid_g = np.array([g.evaluate(e) for e in grid])
    grid_cost = np.array([p.evaluate(e) for e in grid])
    bands = instance.assigned_bands(scores)
    current_welfare = np.asarray(instance.policy.levels)[bands] - instance.costs()
    sorted_scores, position_levels = standing.sorted_scores, standing.position_levels
    # (bar, reward at or above it), lowest bar first
    bars = [(sorted_scores[j], reward) for j, reward in reversed(standing.steps)]
    block = max(1, _CERTIFY_BLOCK_CELLS // len(grid))
    best_gain = np.empty(n)
    best_col = np.empty(n, dtype=np.intp)
    for start in range(0, n, block):
        stop = min(start + block, n)
        s_dev = instance.skill[start:stop, None] * grid_g
        reward = position_levels[n]
        for bar, above in bars:
            # a score that is not below the bar (or is NaN, as a sorted search
            # would place it) takes the reward above it
            reward = np.where(s_dev < bar, reward, above)
        for bar in {bar for bar, _ in bars}:
            rows, cols = np.nonzero(s_dev == bar)
            holders, higher = standing.by_value[bar], n - bisect_right(sorted_scores, bar)
            for row, col in zip(rows.tolist(), cols.tolist()):
                # index tie-break against the holders of the tied standing score
                reward[row, col] = position_levels[higher + bisect_left(holders, start + row)]
        gains = (reward - grid_cost) - current_welfare[start:stop, None]
        best = np.argmax(gains, axis=1)
        best_col[start:stop] = best
        best_gain[start:stop] = gains[np.arange(stop - start), best]
    # a strict ">" scan keeps the first largest gain and never takes a NaN one
    best_gain = np.where(best_gain > -math.inf, best_gain, -math.inf)
    worst_agent = int(np.argmax(best_gain))
    worst = float(best_gain[worst_agent])
    if worst > -math.inf:
        worst_effort = float(grid[best_col[worst_agent]])
    else:
        worst_agent, worst_effort = -1, float("nan")
    per_band = []
    for k in range(instance.policy.k):
        in_band = best_gain[bands == k]
        top = float(in_band[np.argmax(in_band)]) if len(in_band) else -math.inf
        per_band.append(top if top > -math.inf else 0.0)
    return CertificationResult(worst <= eps, worst, worst_agent, worst_effort, tuple(per_band))


def empirical_welfare(instance: DiscreteInstance) -> WelfareReport:
    """Sample means of the three welfare functionals over the instance."""
    scores = instance.scores()
    bands = instance.assigned_bands(scores)
    levels = np.asarray(instance.policy.levels)[bands]
    costs = instance.costs()
    per_band = []
    for k in range(instance.policy.k):
        mask = bands == k
        per_band.append(float(costs[mask].sum()) / instance.n)
    return WelfareReport(
        applicant_welfare=float((levels - costs).mean()),
        societal_utility=float(scores.mean()),
        private_utility=float((scores * levels).mean()),
        per_band_effort_cost=tuple(per_band),
        quadrature_error_estimate=0.0,  # sampling, not quadrature
    )


def instance_rows(instance: DiscreteInstance) -> list[tuple[int, float, float, float, int, float]]:
    """Dump rows (agent, rank, effort, score, band, welfare) for CSV export."""
    scores = instance.scores()
    bands = instance.assigned_bands(scores)
    welfare = np.asarray(instance.policy.levels)[bands] - instance.costs()
    return [
        (
            i,
            float(instance.ranks[i]),
            float(instance.efforts[i]),
            float(scores[i]),
            int(bands[i]),
            float(welfare[i]),
        )
        for i in range(instance.n)
    ]
