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

Certification prices few cells per agent.  For a finite skill >= 0 on a
grid where g and p never decrease, the deviation scores skill * g(e_k)
never decrease along the grid, so the comparisons against each bar change
at most twice along a row: where the score stops being below the bar and
where it passes it.  Between those change points the reward is constant and
the cost never falls, so the first column of each constant stretch earns at
least as much as the rest of it, and the first largest gain of the row lies
on one of these at most 2(K - 1) + 1 columns.  Other rows are scanned in
full.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field

import numpy as np

# effort_at is unused here but stays importable: perfbench/tracing.py times it as oracle.effort_at
from .equilibrium import EquilibriumSchedule, _band_effort, effort_at  # noqa: F401
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
        if not np.isfinite(self.skill).all():
            raise DomainError(f"skills must be finite, got {self.skill!r}")
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
        pop = schedule.population
        inst.efforts = np.array([_band_effort(pop, schedule.band_of(t), t) for t in inst.ranks])
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
        """Multiples of delta_e up to e_max (no best response goes above it), plus e0."""
        grid = np.arange(0.0, self.e_max + 0.5 * self.delta_e, self.delta_e)
        grid = grid[grid <= self.e_max]
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

    Maintains every agent's standing score, in agent order (``scores``) and
    as a sorted multiset (``sorted_scores``; every standing score stays in
    place as a competitor), with incremental updates as the dynamics move one
    agent at a time.  ``position_levels[pos]`` is the reward of sorted
    position pos, for pos in 0..n; position n lies below every standing score.
    ``steps`` lists, for each reward step b (``position_levels[b] !=
    position_levels[b + 1]``) in ascending b, the index n - 1 - b of that
    step's bar in ``sorted_scores`` and the reward at positions <= b.
    """

    def __init__(self, instance: DiscreteInstance, scores: np.ndarray | list[float]):
        self.scores: list[float] = [float(s) for s in scores]
        self.sorted_scores: list[float] = sorted(self.scores)
        self.position_levels, self.steps = _reward_steps(instance)

    def update(self, agent: int, old: float, new: float) -> None:
        old, new = float(old), float(new)
        self.sorted_scores.pop(bisect_left(self.sorted_scores, old))
        insort(self.sorted_scores, new)
        self.scores[agent] = new


def _reward_steps(instance: DiscreteInstance) -> tuple[list[float], list[tuple[int, float]]]:
    """``position_levels`` and ``steps`` of ``_StandingScores``."""
    n = instance.n
    cutpoints, levels = instance.policy.cutpoints, instance.policy.levels
    pl = [levels[bisect_right(cutpoints, 1.0 - (pos + 0.5) / n)] for pos in range(n + 1)]
    return pl, [(n - 1 - b, pl[b]) for b in range(n) if pl[b] != pl[b + 1]]


class _EffortValues(dict):
    """Memo of (e, g(e), p(e)) per effort value e; g and p are pure and frozen."""

    def __init__(self, population: PopulationSpec):
        super().__init__()
        self._g, self._p = population.g.evaluate, population.p.evaluate

    def __missing__(self, e: float) -> tuple[float, float, float]:
        value = self[e] = (e, self._g(e), self._p(e))
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
    the (e, g(e), p(e)) candidates around each entry grid step are built once
    per run.  Each candidate's reward is read from the standing bars (see the
    module docstring).  The largest gain wins, and among equal gains the
    smallest effort, as an ascending scan with a strict ">" would pick.
    """
    pop = instance.population
    n, delta_e, e_max = instance.n, instance.delta_e, instance.e_max
    # sorted_scores index of the bar score at each band's entry position
    entry_bars = [n - 1 - j for j in _band_entry_positions(instance) if 0 <= j < n]
    e0, invert, ceil = pop.e0, pop.g.invert, math.ceil
    idle, e0_float = pop.g.evaluate(e0), float(e0)
    sorted_scores, scores = standing.sorted_scores, standing.scores
    position_levels, steps = standing.position_levels, standing.steps
    bottom = position_levels[n]
    # grid step of an entry effort -> its (e, g(e), p(e)) candidates
    near_entry: dict[int, list[tuple[float, float, float]]] = {}
    # e0 and 0.0, evaluated on the first call, so that a run evaluating no best
    # response evaluates g and p at neither
    resting: list[tuple[float, float, float]] | None = None

    def best_response(agent: int, skill: float, current: float) -> float:
        nonlocal resting
        if resting is None:
            resting = [effort_values[e] for e in dict.fromkeys((e0_float, 0.0)) if 0.0 <= e <= e_max]
        candidates = [effort_values[current], *resting] if 0.0 <= current <= e_max else resting.copy()
        if skill > 0.0:
            for j in entry_bars:
                bar = sorted_scores[j]
                if bar < 0.0:
                    continue
                target = bar / skill
                try:
                    entry = e0 if target <= idle else invert(target)
                    k = max(ceil(entry / delta_e - 1e-9), 0)
                except (RangeError, OverflowError):
                    continue  # no effort reaches the bar
                near = near_entry.get(k)
                if near is None:
                    # grid steps k - 1, k, k + 1 inside [0, e_max] before and after rounding
                    e_k = k * delta_e
                    rounded = [round(cand / delta_e) * delta_e
                               for cand in (e_k - delta_e, e_k, e_k + delta_e) if 0.0 <= cand <= e_max]
                    near = near_entry[k] = [effort_values[e] for e in rounded if 0.0 <= e <= e_max]
                candidates += near
        # (bar, reward at or above it), highest bar first
        bars = [(sorted_scores[j], reward) for j, reward in steps]
        best_effort = current
        best_gain = -math.inf
        current_gain = None
        for e, g_e, p_e in candidates:
            s = g_e * skill
            for bar, reward in bars:
                if not s < bar:
                    if s == bar:
                        # lower-index holders outrank the deviator; the
                        # deviator's own standing copy never counts against them
                        reward = position_levels[n - bisect_right(sorted_scores, s) + scores[:agent].count(s)]
                    break
            else:
                reward = bottom
            gain = reward - p_e
            if e == current:
                current_gain = gain
            if gain > best_gain or (gain == best_gain and e < best_effort):
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
        _, g_e0, p_e0 = effort_values[float(pop.e0)]
        _, g_zero, p_zero = effort_values[0.0]
        g_max = effort_values[float(instance.e_max)][1]
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
    standing = _StandingScores(instance, instance.scores())
    scores = standing.scores  # kept current by standing.update
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
                new_score = effort_values[new][1] * skill
                efforts[agent] = instance.efforts[agent] = new
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


# (agent, grid effort) cells scanned per block of the rows certify_equilibrium
# scans in full: large enough for numpy to amortise its call overhead, small
# enough that the block's temporaries stay a few hundred kB and peak memory
# does not grow with N.
_CERTIFY_BLOCK_CELLS = 1 << 14


def _first_columns(skill: np.ndarray, grid_g: np.ndarray, bars: np.ndarray, below) -> np.ndarray:
    """Per agent and bar, the first grid column k where ``below(skill * grid_g[k], bar)``
    fails, or ``len(grid_g)`` where it holds everywhere.

    ``below`` is ``np.less`` or ``np.less_equal``.  Each agent's scores must
    not decrease along the grid, so the columns where it holds are a prefix;
    a branch-free binary search finds its end for all agents and bars at
    once, comparing the same products skill * g(e_k) as a full scan.
    """
    skill = skill[:, None]
    base = np.zeros((len(skill), len(bars)), dtype=np.intp)
    size = len(grid_g)
    while size > 1:
        half = size // 2
        base += half * below(skill * grid_g[base + half], bars)
        size -= half
    return base + below(skill * grid_g[base], bars)


def certify_equilibrium(instance: DiscreteInstance, eps: float) -> CertificationResult:
    """Find each agent's largest counterfactual welfare gain on the effort grid.

    Certifies when no deviation gains more than eps over the agent's assigned
    welfare in the standing profile.  A deviation's reward is read from the
    standing bars of the reward steps: the position of a score s is at most b
    exactly when s beats the bar desc[b], the (b+1)-th highest standing
    score, and above b exactly when s falls short of it; only a score equal
    to a bar needs its full position, with the index tie-break.  Standing
    scores are ordered as np.sort orders them, a NaN above every number.
    When g and p are finite and never decrease on the grid, an agent with a
    finite skill >= 0 is priced only at column 0 and, per bar, the first
    column not below it and the first above it (see the module docstring);
    any other agent, or every agent on any other grid, is scanned over the
    whole grid in blocks.  Both find the first largest gain of the full
    scan.  The worst gain is the first largest in agent order.
    """
    n = instance.n
    scores = instance.scores()
    grid = instance.effort_grid()
    g, p = instance.population.g, instance.population.p
    grid_g = np.array([g.evaluate(e) for e in grid])
    grid_cost = np.array([p.evaluate(e) for e in grid])
    bands = instance.assigned_bands(scores)
    current_welfare = np.asarray(instance.policy.levels)[bands] - instance.costs()
    position_levels, steps = _reward_steps(instance)
    position_levels = np.asarray(position_levels)
    # the standing scores in np.sort order: any NaN last, above every number
    sorted_scores = np.sort(scores).tolist()
    numbers = n - int(np.isnan(scores).sum())
    # (bar, reward at or above it), lowest bar first
    bars = [(sorted_scores[j], reward) for j, reward in reversed(steps)]
    bar_values = {bar for bar, _ in bars}
    skill = instance.skill

    def gains(agents: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Gain of each agent's deviation to grid columns ``cols`` (one row, or one per agent)."""
        s_dev = skill[agents, None] * grid_g[cols]
        reward = position_levels[n]
        for bar, above in bars:
            # a score that is not below the bar takes the reward above it; as
            # np.searchsorted orders them, a NaN bar lies above every number
            # and a NaN score is below no bar
            reward = np.where(s_dev < bar if bar == bar else s_dev == s_dev, reward, above)
        for bar in bar_values:
            rows, cells = np.nonzero(s_dev == bar)
            if len(rows):
                # index tie-break against the lower-index holders of the tied standing score
                holders = np.flatnonzero(scores == bar)
                higher = n - bisect_right(sorted_scores, bar, 0, numbers)
                reward[rows, cells] = position_levels[higher + np.searchsorted(holders, agents[rows])]
        return (reward - grid_cost[cols]) - current_welfare[agents, None]

    best_gain = np.empty(n)
    best_col = np.empty(n, dtype=np.intp)

    def keep_best(agents: np.ndarray, row_gains: np.ndarray, cols: np.ndarray | None = None) -> None:
        best = np.argmax(row_gains, axis=1)  # the first largest, or the first NaN
        rows = np.arange(len(agents))
        best_gain[agents] = row_gains[rows, best]
        best_col[agents] = best if cols is None else cols[rows, best]

    steady = bool(
        np.isfinite(grid_g).all() and np.isfinite(grid_cost).all()
        and (grid_g[1:] >= grid_g[:-1]).all() and (grid_cost[1:] >= grid_cost[:-1]).all()
    )
    pruned = (np.isfinite(skill) & (skill >= 0.0)) if steady else np.zeros(n, dtype=bool)
    agents = np.flatnonzero(pruned)
    if len(agents):
        keys = np.array(list(bar_values), dtype=float)
        cols = np.concatenate((
            np.zeros((len(agents), 1), dtype=np.intp),
            _first_columns(skill[agents], grid_g, keys, np.less),
            _first_columns(skill[agents], grid_g, keys, np.less_equal),
        ), axis=1)
        # ascending, so the first largest gain is the first of the full scan
        cols = np.sort(np.minimum(cols, len(grid) - 1), axis=1)
        keep_best(agents, gains(agents, cols), cols)
    rest = np.flatnonzero(~pruned)
    block = max(1, _CERTIFY_BLOCK_CELLS // len(grid))
    every = np.arange(len(grid))
    for start in range(0, len(rest), block):
        agents = rest[start:start + block]
        keep_best(agents, gains(agents, every))
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
