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

Best responses and certification read one table, ``_grid_table``: the effort
grid, which holds e0 itself, with g and p on it.  The oracle reads f, g and p
only through arrays, one call per table (the skills, the grid table,
``scores``, ``costs`` and the dynamics' standing efforts), so every score the
dynamics compare has the arithmetic of the standing scores.  The
best-response dynamics are one flat loop over round-robin sweeps.  Their
candidates are, per reward-step bar, the first grid column whose score is
not below the bar, and on a tie the first above it: the cells certification
prices, compared as the same products skill * g(e_k); so a run that
converges ends at a profile certification accepts.

The standing-pat screen reads the same table.  Take an agent of skill s at
grid column c whose reward is known to be at least r, and suppose rewards
never fall with a better position and improvement_eps >= 0.  A move must gain
more than stay = (r - p(e_c)) + improvement_eps.  A column scoring below
every bar earns the bottom reward L, and p never falls along the grid, so
none of them pays unless column 0 does: L - p(e_0) > stay, with e_0 the
first grid effort.  A column reaching bar m but no higher one earns at most
the reward at or above that bar, cap_m, so the columns from which reaching
it could pay, cap_m - p(e_k) > stay, are a prefix of the grid, of length
K_m(c).  So the agent stays while every bar with K_m(c) > 0 lies strictly
above s * g(e_{K_m(c) - 1}), by the same products a best response compares.
The dynamics read this at e0's column with r = L for idle agents, and at an
agent's own column with r = the top reward when its score is above the
highest bar.

A best response reads the highest and the lowest bar once: a candidate
scoring above the highest takes the top step's reward, one scoring below the
lowest the bottom reward, and only a score between them (or equal to one of
them) walks the bars.  With one reward step the walk runs only on an exact
tie.  Every move is applied in ``_StandingScores.update``, so moves are
counted there.

Certification prices few cells per agent.  Skills are quantile values, so
finite and >= 0 (``DiscreteInstance`` checks them wherever scores are read),
and the grid table requires g and p to be finite and never to decrease on the
grid (``FunctionSpec`` promises strictly increasing functions).  So the
deviation scores skill * g(e_k) never decrease along the grid, and the
comparisons against each bar change at most twice along a row: where the
score stops being below the bar and where it passes it.  Between those
change points the reward is constant and the cost never falls, so the first
column of each constant stretch earns at least as much as the rest of it,
and the first largest gain of the row lies on one of these at most
2(K - 1) + 1 columns.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field

import numpy as np

# effort_at is unused here but stays importable: perfbench/tracing.py times it as oracle.effort_at
from .equilibrium import MAX_SAMPLES, EquilibriumSchedule, _read_ranks, effort_at  # noqa: F401
from .errors import DomainError, ModelError
from .functions import PopulationSpec
from .policy import RewardPolicy
from .welfare import WelfareReport

MAX_GRID_COLUMNS = 10**6  # the largest e_max / delta_e an instance accepts; MAX_SAMPLES caps its agents


def _check_skills(skill: np.ndarray) -> None:
    """Skills are quantile values f(theta): finite and >= 0."""
    if not ((skill >= 0.0) & (skill < math.inf)).all():
        raise DomainError(f"skills must be finite and nonnegative, got {skill!r}")


def _check_resolution(delta_e: float) -> None:
    if not 0.0 < delta_e < math.inf:
        raise DomainError(f"effort grid resolution must be positive and finite, got {delta_e!r}")


@dataclass
class DiscreteInstance:
    """Finite instantiation of the ranking game on an effort grid.

    Skills are checked when the instance is built and again by ``scores``,
    which every reader of the profile goes through, so a skill assigned
    after construction is checked where it is read.
    """

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
        _check_resolution(self.delta_e)
        if not 0.0 <= self.e_max < math.inf:
            raise DomainError(f"effort cap must be finite and >= 0, got {self.e_max!r}")
        if self.e_max < self.population.e0:
            raise DomainError(f"effort cap {self.e_max!r} lies below the idle effort e0 = {self.population.e0!r}")
        if self.e_max / self.delta_e > MAX_GRID_COLUMNS:
            raise DomainError(f"e_max / delta_e = {self.e_max} / {self.delta_e} > {MAX_GRID_COLUMNS} grid columns")
        _check_skills(self.skill)
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
        if not 1 <= n <= MAX_SAMPLES:
            raise DomainError(f"need 1 to {MAX_SAMPLES} agents, got {n!r}")
        if seed is None:
            ranks = (np.arange(n) + 0.5) / n
        else:
            ranks = np.sort(np.random.default_rng(seed).uniform(0.0, 1.0, n))
        skill = population.f.evaluate(ranks)
        if e_max is None:
            e_max = default_effort_cap(population, policy, delta_e)
        efforts = np.full(n, float(population.e0))
        return DiscreteInstance(population, policy, ranks, skill, efforts, delta_e, e_max)

    @staticmethod
    def from_schedule(schedule: EquilibriumSchedule, n: int, delta_e: float) -> "DiscreteInstance":
        """Instance seeded with the closed-form efforts at stratified ranks."""
        inst = DiscreteInstance.stratified(schedule.population, schedule.policy, n, delta_e)
        inst.efforts = _read_ranks(schedule, inst.ranks)[1]
        return inst

    # -- scoring and reward assignment --------------------------------------

    def scores(self) -> np.ndarray:
        skill = np.asarray(self.skill, dtype=float)
        _check_skills(skill)
        scores = self.population.g.evaluate(np.asarray(self.efforts, dtype=float)) * skill
        if not np.isfinite(scores).all():
            raise DomainError(f"scores must be finite, got {scores!r}")
        return scores

    def positions(self, scores: np.ndarray | None = None) -> np.ndarray:
        """Sorted position of each agent: descending score, lower index first."""
        s = self.scores() if scores is None else scores
        order = np.lexsort((np.arange(self.n), -s))
        pos = np.empty(self.n, dtype=int)
        pos[order] = np.arange(self.n)
        return pos

    def _position_bands(self) -> np.ndarray:
        """Band of each sorted position 0..n, read at its slot rank 1 - (pos + 0.5)/n;
        position n lies below every standing score."""
        slot_ranks = 1.0 - (np.arange(self.n + 1) + 0.5) / self.n
        return np.searchsorted(self.policy.cutpoints, slot_ranks, side="right")

    def assigned_levels(self, scores: np.ndarray | None = None) -> np.ndarray:
        return np.asarray(self.policy.levels)[self.assigned_bands(scores)]

    def assigned_bands(self, scores: np.ndarray | None = None) -> np.ndarray:
        return self._position_bands()[self.positions(scores)]

    def costs(self) -> np.ndarray:
        return self.population.p.evaluate(np.asarray(self.efforts, dtype=float))

    def welfares(self) -> np.ndarray:
        return self.assigned_levels() - self.costs()

    def effort_grid(self) -> np.ndarray:
        """Multiples of delta_e up to e_max (no best response goes above it), plus e0
        itself, so best responses and certification price idling at e0 exactly."""
        grid = np.arange(0.0, self.e_max + 0.5 * self.delta_e, self.delta_e)
        grid = grid[grid <= self.e_max]
        e0 = self.population.e0
        if e0 not in grid:
            grid = np.sort(np.append(grid, e0))
        return grid

    def _grid_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The effort grid with g and p on it: the one table that best responses
        and certification price.  Raises ModelError unless g and p are finite
        and nondecreasing along the grid."""
        grid = self.effort_grid()
        grid_g, grid_p = self.population.g.evaluate(grid), self.population.p.evaluate(grid)
        if not (
            np.isfinite(grid_g).all() and np.isfinite(grid_p).all()
            and (grid_g[1:] >= grid_g[:-1]).all() and (grid_p[1:] >= grid_p[:-1]).all()
        ):
            raise ModelError("the oracle needs g and p finite and nondecreasing on the effort grid")
        return grid, grid_g, grid_p


def default_effort_cap(population: PopulationSpec, policy: RewardPolicy, delta_e: float) -> float:
    """Efforts costing more than the top reward are never best responses.

    The cap stays inside the domains of g and p: where the effort grid up to
    it would pass the smaller upper end, it is the last grid effort inside,
    or e0 if that is larger.
    """
    _check_resolution(delta_e)
    span = policy.levels[-1] - policy.levels[0]
    cap = population.cost_inverse(span) if span > 0 else population.e0
    cap = max(cap, population.e0) + 2.0 * delta_e
    top = min(population.g.domain[1], population.p.domain[1])
    if cap + 0.5 * delta_e > top:
        steps = math.floor(top / delta_e + 1e-9)
        cap = max((steps if steps * delta_e <= top else steps - 1) * delta_e, population.e0)
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
        """Move ``agent``'s standing score from ``old`` to ``new``: the one place a move is applied."""
        self.sorted_scores.pop(bisect_left(self.sorted_scores, old))
        insort(self.sorted_scores, new)
        self.scores[agent] = new


def _reward_steps(instance: DiscreteInstance) -> tuple[list[float], list[tuple[int, float]]]:
    """``position_levels`` and ``steps`` of ``_StandingScores``: the one place that
    decides at which sorted positions the reward changes."""
    n, levels = instance.n, instance.policy.levels
    pl = [levels[k] for k in instance._position_bands().tolist()]
    return pl, [(n - 1 - b, pl[b]) for b in range(n) if pl[b] != pl[b + 1]]


@dataclass
class DynamicsResult:
    converged: bool
    rounds: int
    instance: DiscreteInstance
    cycling_agents: tuple[int, ...] = field(default_factory=tuple)
    movers_per_sweep: tuple[int, ...] = field(default_factory=tuple)
    best_responses: int = 0  # evaluated, i.e. not skipped by the standing-pat screen


_Row = tuple[tuple[int, float], ...]


def _standing_pat_screen(
    standing: _StandingScores,
    grid: np.ndarray,
    grid_g: np.ndarray,
    grid_p: np.ndarray,
    k0: int,
    improvement_eps: float,
) -> tuple[_Row | None, dict[float, _Row]]:
    """The rows of the standing-pat screen: the idle row, for an agent at e0,
    and the top rows, keyed by grid effort, for an agent whose score is above
    the highest bar.  (None, {}) when a precondition of the argument fails.

    A row ``((j, unit), ...)`` means: while an agent of skill s stands at
    that column, earning at least that reward, and ``sorted_scores[j] > s *
    unit`` for every pair, their best response is to stay.  The bars are
    those of ``standing.steps`` that some grid column could pay to reach,
    lowest first; each unit is g at the last such column.  A column from
    which a bottom-reward score could pay has no row.  See
    ``best_response_dynamics`` for the argument.
    """
    levels = standing.position_levels
    if not (
        improvement_eps >= 0.0
        # rewards never fall with a better position, so none is below the bottom one
        and all(a >= b for a, b in zip(levels, levels[1:]))
    ):
        return None, {}
    bottom = levels[-1]
    # per bar, lowest first, the negated gains of reaching it at each grid
    # column: p never falls along the grid, so neither do they
    bar_costs = [(j, grid_p - cap) for j, cap in reversed(standing.steps)]
    units = grid_g.tolist()

    def screen_rows(reward: float, standing_costs: np.ndarray) -> list[_Row | None]:
        # a move must beat this, computed as a best response computes it
        stay = (reward - standing_costs) + improvement_eps
        rows = [None if cut else () for cut in (bottom - grid_p[0] > stay).tolist()]
        for j, costs in bar_costs:
            # per column, how many grid columns could pay to reach the bar: a prefix of the grid
            paying = np.searchsorted(costs, -stay).tolist()
            rows = [row + ((j, units[k - 1]),) if k and row is not None else row for row, k in zip(rows, paying)]
        return rows

    idle = screen_rows(bottom, grid_p[k0:k0 + 1])[0]
    if not standing.steps:
        return idle, {}
    top = zip(grid.tolist(), screen_rows(standing.steps[0][1], grid_p))
    return idle, {e: row for e, row in top if row is not None}


def best_response_dynamics(
    instance: DiscreteInstance,
    max_rounds: int = 200,
    improvement_eps: float = 1e-12,
) -> DynamicsResult:
    """Round-robin sweeps of exact grid best responses, in one flat loop.

    Converged on the first sweep that moves nobody.  One-grid-step sweeps are
    not treated as converged: during a slow bidding war every contested agent
    moves exactly one step per sweep for long stretches, so any nonzero
    tolerance would stop the dynamics mid-escalation.
    Non-convergence reports the agents still moving in the final sweep.
    The result also records the movers of every sweep and how many best
    responses were evaluated.  Raises DomainError unless improvement_eps is
    finite and max_rounds >= 1.

    Between reward steps the reward is flat and cost never falls along the
    grid, so a best response prices, besides idling at e0 and at 0, per
    reward-step bar the first grid column whose score is not below the bar,
    and on a tie the first above it: the cells certification prices, read
    from the same grid table.  The column is found by binary search on g and
    settled on the products skill * g(e_k) themselves, so rounding and
    underflow cannot move it.  Standing pat is priced first, at the (g, p) stored for each
    agent's standing effort, and seeds the running best; the largest gain
    wins, and among equal gains the smallest effort.  The agent moves only
    when the winner gains more than ``improvement_eps`` over standing pat,
    and the move, with the winner's score, goes through
    ``_StandingScores.update``, the one place moves are applied.  Rewards are
    read from the standing bars, the outer two first (see the module
    docstring).  ``instance.efforts`` is written once, when the run ends.
    Raises ModelError unless g and p are finite and nondecreasing on the
    grid.

    A standing-pat screen skips the best response of an agent whose move is
    ruled out on the grid table; the trajectory is the one every best
    response would give.  The argument, for an agent of skill s at any grid
    column c whose reward is at least r: let B_1 <= ... <= B_M be the
    reward-step bars, cap_m the reward at or above B_m, L the bottom reward
    and e_k the effort of grid column k.  Suppose improvement_eps >= 0 and
    rewards never fall with a better position.  Standing pat earns at least
    r - p(e_c), so a move must gain more than stay = (r - p(e_c)) +
    improvement_eps.  A grid column scoring below B_1 earns L, and p never
    falls along the grid, so none of them pays unless the first column does,
    L - p(e_0) > stay.  A column k scoring at least B_m but below every
    higher bar earns at most cap_m, also on a tie, so it can pay only if
    cap_m - p(e_k) > stay; those columns are a prefix of the grid, of length
    K_m(c).  So, when L - p(e_0) <= stay, the agent stays while every bar
    with K_m(c) > 0 lies above s * g(e_{K_m(c) - 1}): no column of the
    prefix reaches it.  The screen compares the products and differences
    that a best response computes, and rounding is monotone, so it is exact.
    Its rows are built once per run, one binary search per bar: the idle
    row, at e0's column with r = L, for an agent at e0; and the top row of
    each grid column, with r = the top reward, for an agent standing there
    whose score is above the highest bar and so takes the top reward.  An
    agent standing off the grid has no top row.  While no agent of a run of
    consecutive idle agents moves, the bars stay fixed across it, so a run
    whose every bar lies above the run's largest idle limit for it is
    skipped with one test per sweep; the runs are rebuilt after a sweep in
    which an agent entered or left e0.
    """
    if not math.isfinite(improvement_eps):
        raise DomainError(f"improvement_eps must be finite, got {improvement_eps!r}")
    if max_rounds < 1:
        raise DomainError(f"max_rounds must be at least 1, got {max_rounds!r}")
    pop = instance.population
    n = instance.n
    standing = _StandingScores(instance, instance.scores())
    # kept current by standing.update
    scores, sorted_scores, update = standing.scores, standing.sorted_scores, standing.update
    position_levels, steps = standing.position_levels, standing.steps
    grid, grid_g, grid_p = instance._grid_table()
    # (e, g(e), p(e)) of each grid column
    cells = list(zip(grid.tolist(), grid_g.tolist(), grid_p.tolist()))
    e0 = float(pop.e0)
    k0 = int(np.searchsorted(grid, e0))  # e0's own grid column
    skills = instance.skill.tolist()
    idle_row, top_rows = _standing_pat_screen(standing, grid, grid_g, grid_p, k0, improvement_eps)
    grid_g, size = grid_g.tolist(), len(cells)
    # sorted_scores index of each reward-step bar, lowest first
    entry_bars = [j for j, _ in reversed(steps)]
    # idling at e0, then at effort 0, the first grid column
    resting = [cells[k0], cells[0]] if k0 else [cells[0]]
    bottom = position_levels[n]
    # sorted_scores index of the outer bars; with no reward step both are 0, and
    # every score takes the bottom reward
    top_j, top_reward = steps[0] if steps else (0, bottom)
    low_j = steps[-1][0] if steps else 0

    def walk(agent: int, s: float) -> float:
        """Reward of a score s not outside the outer bars: the first bar it is not below."""
        for j, reward in steps:
            bar = sorted_scores[j]
            if not s < bar:
                if s == bar:
                    # lower-index holders outrank the deviator; the
                    # deviator's own standing copy never counts against them
                    return position_levels[n - bisect_right(sorted_scores, s) + scores[:agent].count(s)]
                return reward
        return bottom

    standing_efforts = np.asarray(instance.efforts, dtype=float)
    efforts = standing_efforts.tolist()
    # (e, g(e), p(e)) of each agent's standing effort, which need not lie on the grid
    # (from_schedule seeds closed-form efforts, and a caller may set any effort in p's domain);
    # g is read as scores() reads it, so standing pat scores the agent's standing score
    held = list(zip(efforts, pop.g.evaluate(standing_efforts).tolist(), pop.p.evaluate(standing_efforts).tolist()))
    # 1 for each agent at e0, kept current as agents enter and leave e0
    at_rest = bytearray(e == e0 for e in efforts)
    # per bar of the idle row, each agent's limit
    idle_limits = None if idle_row is None else [(j, [s * unit for s in skills]) for j, unit in idle_row]

    def idle_runs() -> list[tuple[int, int, _Row | None]]:
        """The agents in order, as (start, stop, limits): each maximal run of agents
        at e0 with, per bar of the idle row, the run's largest limit; limits is
        None for the runs of other agents.  One run of all agents without an idle row."""
        if idle_limits is None:
            return [(0, n, None)]
        runs, start = [], 0
        while start < n:
            at_e0 = at_rest[start]
            stop = at_rest.find(1 - at_e0, start)
            stop = n if stop < 0 else stop
            runs.append((start, stop, tuple((j, max(limit[start:stop])) for j, limit in idle_limits)
                         if at_e0 else None))
            start = stop
        return runs

    last_movers: tuple[int, ...] = ()
    movers_per_sweep = []
    responses = 0
    runs = idle_runs()
    converged = False
    for round_no in range(1, max_rounds + 1):
        movers = []
        regroup = False
        for start, stop, limits in runs:
            if limits is not None:
                for j, limit in limits:
                    if not sorted_scores[j] > limit:
                        break
                else:
                    continue  # nobody in this idle run moves
            for agent in range(start, stop):
                current = efforts[agent]
                skill = skills[agent]
                top = sorted_scores[top_j]
                if current == e0:
                    row = idle_row
                elif scores[agent] > top:
                    row = top_rows.get(current)
                else:
                    row = None
                if row is not None:
                    for j, unit in row:
                        if not sorted_scores[j] > skill * unit:
                            break
                    else:
                        continue
                responses += 1
                low = sorted_scores[low_j]
                # standing pat
                best_cell = held[agent]
                _, g_e, p_e = best_cell
                best_score = s = g_e * skill
                best_gain = (top_reward if s > top else bottom if s < low else walk(agent, s)) - p_e
                current_gain, best_effort = best_gain, current
                for cell in resting:
                    e, g_e, p_e = cell
                    s = g_e * skill
                    gain = (top_reward if s > top else bottom if s < low else walk(agent, s)) - p_e
                    if gain > best_gain or (gain == best_gain and e < best_effort):
                        best_gain, best_effort, best_score, best_cell = gain, e, s, cell
                if skill > 0.0:
                    for j in entry_bars:
                        bar = sorted_scores[j]
                        # the first column whose score is not below the bar
                        k = bisect_left(grid_g, bar / skill)
                        while k and grid_g[k - 1] * skill >= bar:
                            k -= 1
                        while k < size and grid_g[k] * skill < bar:
                            k += 1
                        # price column k and, while its score ties the bar, the first column above it
                        while k < size:
                            cell = cells[k]
                            e, g_e, p_e = cell
                            s = g_e * skill
                            gain = (top_reward if s > top else bottom if s < low else walk(agent, s)) - p_e
                            if gain > best_gain or (gain == best_gain and e < best_effort):
                                best_gain, best_effort, best_score, best_cell = gain, e, s, cell
                            if s != bar:
                                break
                            # a score tying the bar takes its full position
                            k += 1
                            while k < size and grid_g[k] * skill <= bar:
                                k += 1
                if best_gain > current_gain + improvement_eps and best_effort != current:
                    efforts[agent] = best_effort
                    held[agent] = best_cell
                    update(agent, scores[agent], best_score)
                    movers.append(agent)
                    if current == e0 or best_effort == e0:
                        at_rest[agent] = best_effort == e0
                        regroup = True
        movers_per_sweep.append(len(movers))
        if not movers:
            converged = True
            break
        last_movers = tuple(movers)
        if regroup:
            runs = idle_runs()
    instance.efforts[:] = efforts
    return DynamicsResult(converged, round_no, instance, () if converged else last_movers,
                          tuple(movers_per_sweep), responses)


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
    to a bar needs its full position, with the index tie-break.  Each agent
    is priced only at column 0 and, per bar, the first column not below it
    and the first above it (see the module docstring), which finds the first
    largest gain of a scan over the whole grid.  The worst gain is the first
    largest in agent order.  Raises ModelError when g or p is not finite or
    falls on the grid.
    """
    n = instance.n
    scores = instance.scores()
    grid, grid_g, grid_cost = instance._grid_table()
    bands = instance.assigned_bands(scores)
    current_welfare = np.asarray(instance.policy.levels)[bands] - instance.costs()
    position_levels, steps = _reward_steps(instance)
    position_levels = np.asarray(position_levels)
    sorted_scores = np.sort(scores).tolist()
    # (bar, reward at or above it), lowest bar first
    bars = [(sorted_scores[j], reward) for j, reward in reversed(steps)]
    bar_values = {bar for bar, _ in bars}
    skill = instance.skill
    keys = np.array(list(bar_values), dtype=float)
    cols = np.concatenate((
        np.zeros((n, 1), dtype=np.intp),
        _first_columns(skill, grid_g, keys, np.less),
        _first_columns(skill, grid_g, keys, np.less_equal),
    ), axis=1)
    # ascending, so the first largest gain is the first of the full scan
    cols = np.sort(np.minimum(cols, len(grid) - 1), axis=1)
    s_dev = skill[:, None] * grid_g[cols]
    reward = position_levels[n]
    for bar, above in bars:
        # a score that is not below the bar takes the reward above it
        reward = np.where(s_dev < bar, reward, above)
    for bar in bar_values:
        agents, cells = np.nonzero(s_dev == bar)
        if len(agents):
            # index tie-break against the lower-index holders of the tied standing score
            holders = np.flatnonzero(scores == bar)
            higher = n - bisect_right(sorted_scores, bar)
            reward[agents, cells] = position_levels[higher + np.searchsorted(holders, agents)]
    gains = (reward - grid_cost[cols]) - current_welfare[:, None]
    best = np.argmax(gains, axis=1)  # the first largest
    best_gain = gains[np.arange(n), best]
    worst_agent = int(np.argmax(best_gain))
    worst = float(best_gain[worst_agent])
    worst_effort = float(grid[cols[worst_agent, best[worst_agent]]])
    per_band = []
    for k in range(instance.policy.k):
        in_band = best_gain[bands == k]
        per_band.append(float(in_band[np.argmax(in_band)]) if len(in_band) else 0.0)
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
