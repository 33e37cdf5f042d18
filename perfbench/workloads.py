"""The two benchmark workloads: seeded inputs, one timed pass, output checks.

Every library call goes through a module attribute looked up at call time
(``rd_welfare.two_level_sweep``, not a name imported once), so the traced run
can replace those attributes with timing wrappers.  The checks use only the
closed forms in ``reference`` and plain arithmetic, never the library, so
they add nothing to the traced counts.

* ``design``: the designer's loop, then the auditor's.  Functions, policy,
  equilibrium, quadrature, welfare, design and cli do the designer's work;
  groups and multidim the auditor's; the oracle does none.  The only
  workload that runs groups.
* ``oracle``: the verifier's loop.  The oracle does nearly all the work,
  quadrature none; functions are called one scalar at a time.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import reference as ref

from rankdesign import cli as rd_cli
from rankdesign import design as rd_design
from rankdesign import equilibrium as rd_eq
from rankdesign import groups as rd_groups
from rankdesign import multidim as rd_multidim
from rankdesign import oracle as rd_oracle
from rankdesign import policy as rd_policy
from rankdesign import welfare as rd_welfare
from rankdesign.errors import RankDesignError
from rankdesign.functions import PiecewiseMonotone, PopulationSpec, Power, Role

RHO = ref.RHO

# Stage metrics of each workload, in pass order.  pass_s is their sum.
STAGES = {
    "design": (
        "sweep_s",
        "piecewise_sweep_s",
        "optimize_s",
        "four_level_s",
        "policy_search_s",
        "cli_sweep_s",
        "audit_s",
        "unmeasurable_s",
    ),
    "oracle": ("certify_s", "dynamics_s", "rank_check_s"),
}

SWEEP_CUTOFFS = 250        # a fifth of them log-spaced in [1e-4, 1e-2]
PIECEWISE_CUTOFFS = 100   # an even grid, the same for every seed: see build()
POLICY_SEARCH_BUDGET = 2000
CLI_STEPS = 400
CERTIFY_SIZES = (500, 2000)
DYNAMICS_AGENTS = 200
DYNAMICS_DELTA = 1e-3
DYNAMICS_TOL = 0.02        # the test suite's O(1/N + delta) allowance at N = 200
RANK_CHECK_AGENTS = 500
AUDIT_CUTOFFS = 100
PIECEWISE_AUDIT_CUTOFFS = 20
UNMEASURABLE_CUTOFFS = 200
FOUR_LEVEL = ((0.0, 0.2, 0.5, 1.0), (0.4, 0.7, 0.9), 0.26)


def _jittered(rng: np.random.Generator, lo: float, hi: float, n: int) -> list[float]:
    """n points, one drawn uniformly in each of n equal cells of [lo, hi].

    Stratifying keeps the amount of work nearly the same for every seed.
    """
    cells = (np.arange(n) + rng.uniform(size=n)) / n
    return [float(x) for x in lo + (hi - lo) * cells]


def _log_jittered(rng: np.random.Generator, lo: float, hi: float, n: int) -> list[float]:
    return [10.0**x for x in _jittered(rng, math.log10(lo), math.log10(hi), n)]


def _knots(fn, n: int, hi: float, role) -> PiecewiseMonotone:
    xs = np.linspace(0.0, hi, n)
    return PiecewiseMonotone(tuple((float(x), float(fn(x))) for x in xs), role=role)


def _population(f) -> PopulationSpec:
    """Skill quantile f with the benchmark's transfer g = sqrt and cost p = x**2."""
    return PopulationSpec(
        f=f,
        g=Power(1.0, 0.5, role=Role.EFFORT_TRANSFER),
        p=Power(1.0, 2.0, role=Role.COST_FUNCTION),
    )


def _skill(scale: float, exponent: float) -> Power:
    return Power(scale, exponent, role=Role.SKILL_QUANTILE)


def _piecewise_skill() -> PiecewiseMonotone:
    return _knots(lambda x: 2.0 * x**1.5, 9, 1.0, Role.SKILL_QUANTILE)


def build(workload: str, seed: int, workdir: str) -> dict:
    """Seeded inputs of one workload; the same seed gives the same inputs."""
    rng = np.random.default_rng(seed)
    if workload == "design":
        population = _population(_skill(2.0, 1.0))
        n_log = SWEEP_CUTOFFS // 5
        cli_config = os.path.join(workdir, "sweep.json")
        cli_output = os.path.join(workdir, "sweep.csv")
        lo = float(rng.uniform(0.0, 1e-3))
        hi = float(1.0 - RHO - rng.uniform(1e-3, 1e-2))
        with open(cli_config, "w") as fh:
            json.dump(
                {
                    "population": population.to_json(),
                    "capacity": RHO,
                    "sweep": {"parameter": "c", "range": [lo, hi], "steps": CLI_STEPS},
                },
                fh,
            )
        return {
            **_audit_inputs(rng),
            "population": population,
            "sweep_cutoffs": _log_jittered(rng, 1e-4, 1e-2, n_log)
            + _jittered(rng, 1e-2, 1.0 - RHO, SWEEP_CUTOFFS - n_log),
            "piecewise_population": PopulationSpec(
                f=_piecewise_skill(),
                g=_knots(math.sqrt, 17, 2.0, Role.EFFORT_TRANSFER),
                p=_knots(lambda x: x * x, 17, 2.0, Role.COST_FUNCTION),
            ),
            # Not seeded: which of these cutoffs raise QuadratureError (the known
            # defect) depends on where they fall, and a fixed grid makes the number
            # of failed calls the same for every seed, so runs can be compared.
            "piecewise_cutoffs": [float(c) for c in np.linspace(0.01, 1.0 - RHO - 0.01, PIECEWISE_CUTOFFS)],
            "four_level": rd_policy.RewardPolicy(*FOUR_LEVEL),
            "heavy_tail": _population(_skill(1.0, 8.0)),
            "search_seed": seed,
            "cli_argv": ["--config", cli_config, "--output", cli_output, "sweep"],
            "cli_output": cli_output,
            "cli_range": (lo, hi),
        }
    if workload == "oracle":
        population = _population(_skill(2.0, 1.0))
        return {
            "population": population,
            "policies": (rd_policy.two_level(0.8, RHO), rd_policy.RewardPolicy(*FOUR_LEVEL)),
            "multi_skill": rd_multidim.MultiSkillSpec(
                quantiles=(Power(1.0, 1.0), Power(1.0, 1.0)),
                weights=(0.5, 0.5),
                transfer_slope=1.0,
                cost=population.p,
            ),
            "rank_seed": seed,
        }
    raise ValueError(f"unknown workload {workload!r}")


def _audit_inputs(rng: np.random.Generator) -> dict:
    """Inputs of the auditor's loop, which ``design`` runs after the designer's."""
    identity = _population(_skill(1.0, 1.0))
    return {
        "identity": identity,
        "piecewise": _population(_piecewise_skill()),
        "groups": rd_groups.GroupSpec(2.0, 1.0),
        "audit_cutoffs": _jittered(rng, 0.005, 1.0 - RHO, AUDIT_CUTOFFS),
        "piecewise_audit_cutoffs": _jittered(rng, 0.01, 1.0 - RHO - 0.01, PIECEWISE_AUDIT_CUTOFFS),
        "unmeasurable": rd_multidim.UnmeasurableSpec(
            f=Power(1.0, 1.0), g=identity.g, p=identity.p, budget=2.0, capacity=RHO
        ),
        "unmeasurable_cutoffs": _jittered(rng, 0.01, 1.0 - RHO - 0.01, UNMEASURABLE_CUTOFFS),
    }


@dataclass
class Recorder:
    """Stage times, call outcomes and reference errors of one pass.

    ``calls`` holds (stage, seconds) of every library call in pass order and
    ``outcomes`` the result of every call and check, so passes over the same
    inputs can be lined up call by call and checked to agree.
    """

    stage_s: Counter = field(default_factory=Counter)
    calls: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    mismatches: list = field(default_factory=list)
    max_abs_err: float = 0.0
    max_err_tol: float = 0.0
    output_bytes: int = 0

    def call(self, stage: str, fn, *args, **kwargs):
        """Time one library call into ``stage``.

        A RankDesignError is a failed call: it is counted, not retried, and
        the call returns None.
        """
        self.attempted += 1
        start = perf_counter()
        outcome = stage
        try:
            return fn(*args, **kwargs)
        except RankDesignError as exc:
            self.failed += 1
            self.errors[type(exc).__name__] += 1
            outcome = f"{stage}: {type(exc).__name__}"
            return None
        finally:
            seconds = perf_counter() - start
            self.stage_s[stage] += seconds
            self.calls.append((stage, seconds))
            self.outcomes.append(outcome)

    def verify(self, problems: list[str]) -> None:
        """A call whose output fails any check counts as one failed call."""
        self.outcomes.append(bool(problems))
        if problems:
            self.failed += 1
            self.errors["check"] += 1
            self.mismatches.extend(problems[: max(0, 3 - len(self.mismatches))])

    def error(self, err: float, allowance: float) -> None:
        """Record an error against a closed form and the check's allowance for it."""
        err = err if math.isfinite(err) else math.inf
        self.max_abs_err = max(self.max_abs_err, err)
        self.max_err_tol = max(self.max_err_tol, err / allowance)

    def compare(self, problems: list[str], what: str, got: float, exact: float) -> None:
        """Record the error of ``got`` and note a mismatch beyond the tolerance."""
        self.error(abs(got - exact), ref.allowance(exact))
        if not ref.close(got, exact):
            problems.append(f"{what}: got {got!r}, closed form {exact!r}")


def _finite(*values) -> bool:
    return all(isinstance(v, float) and math.isfinite(v) for v in values)


def _solve_and_report(population, c):
    return rd_welfare.welfare_report(rd_eq.solve(population, rd_policy.two_level(c, RHO)))


def design_pass(inp: dict, rec: Recorder) -> None:
    pop = inp["population"]
    cutoffs = inp["sweep_cutoffs"]
    rows = rec.call("sweep_s", rd_welfare.two_level_sweep, pop, RHO, cutoffs)
    if rows is not None:
        problems = [] if len(rows) == len(cutoffs) else [f"{len(rows)} sweep rows for {len(cutoffs)} cutoffs"]
        for c, _, w, s, p in rows:
            rec.compare(problems, f"applicant welfare at c={c}", w, ref.applicant_welfare(c))
            rec.compare(problems, f"societal utility at c={c}", s, ref.societal_utility(c))
            rec.compare(problems, f"private utility at c={c}", p, ref.private_utility(c))
        rec.verify(problems)

    # Piecewise primitives have no closed form; check the identities they must keep.
    # Their QuadratureErrors are the known defect and count as failed calls.
    for c in inp["piecewise_cutoffs"]:
        report = rec.call("piecewise_sweep_s", _solve_and_report, inp["piecewise_population"], c)
        if report is not None:
            w, s, p = report.applicant_welfare, report.societal_utility, report.private_utility
            problems = []
            if not _finite(w, s, p, report.quadrature_error_estimate):
                problems.append(f"non-finite welfare at c={c}")
            elif w > RHO + 1e-12 or p > s * RHO / (1.0 - c) + 1e-12 or min(report.per_band_effort_cost) < -1e-12:
                problems.append(f"welfare identities violated at c={c}: {report.to_json()}")
            rec.verify(problems)

    for objective in rd_design.Objective:
        result = rec.call("optimize_s", rd_design.optimize_two_level, pop, RHO, objective)
        if result is not None:
            name = objective.value
            problems = []
            if abs(result.c_star - ref.OPTIMAL_CUTOFF[name]) > 1e-4:
                problems.append(f"{name} optimum at c={result.c_star}, closed form {ref.OPTIMAL_CUTOFF[name]}")
            rec.compare(problems, f"{name} at its optimum", result.value, ref.TWO_LEVEL[name](result.c_star))
            rec.verify(problems)

    policy = inp["four_level"]
    report = rec.call("four_level_s", lambda: rd_welfare.welfare_report(rd_eq.solve(pop, policy)))
    if report is not None:
        problems = []
        exact = ref.step_policy_welfare(policy.levels, policy.cutpoints, policy.capacity)
        got = (report.applicant_welfare, report.societal_utility, report.private_utility)
        for what, g, e in zip(("applicant welfare", "societal utility", "private utility"), got, exact):
            rec.compare(problems, f"four-level {what}", g, e)
        rec.verify(problems)

    # wrapped in a tuple: the search itself returns None when it finds nothing
    search = rec.call(
        "policy_search_s",
        lambda: (
            rd_design.find_three_level_improvement(
                inp["heavy_tail"], RHO, POLICY_SEARCH_BUDGET, seed=inp["search_seed"]
            ),
        ),
    )
    if search is not None:
        rec.verify(_check_search(rec, search[0]))

    out = inp["cli_output"]
    if os.path.exists(out):
        os.remove(out)
    code = rec.call("cli_sweep_s", rd_cli.main, inp["cli_argv"])
    if code is not None:
        rec.verify(_check_cli_csv(rec, code, out, inp["cli_range"]))

    audit_pass(inp, rec)


def _check_search(rec: Recorder, found) -> list[str]:
    if found is None:
        return ["no three-level improvement found on f = x**8"]
    problems = []
    # non-randomized admission on f = x**8: level 1 above c = 1 - rho, g(p^-1(1)) = 1
    rec.compare(problems, "non-randomized private utility on f = x**8", found.baseline, RHO * (1.0 - RHO) ** 8)
    mass = found.x * (found.c2 - found.c1) + (1.0 - found.c2)
    if not (found.margin > 0.0 and 0.0 < found.c1 < found.c2 < 1.0 and abs(mass - RHO) <= 1e-9):
        problems.append(f"three-level result is not a better feasible policy: {found}")
    return problems


def _check_cli_csv(rec: Recorder, code: int, path: str, cutoff_range) -> list[str]:
    if code != 0:
        return [f"cli sweep exited with {code}"]
    rec.output_bytes = os.path.getsize(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != CLI_STEPS + 1:
        return [f"cli sweep wrote {len(rows) - 1} rows, expected {CLI_STEPS}"]
    problems = []
    lo, hi = cutoff_range
    for i, row in enumerate(rows[1:]):
        if row[-1]:
            problems.append(f"cli sweep row {i} reports {row[-1]}")
            continue
        c = float(row[0])
        if abs(c - (lo + (hi - lo) * i / (CLI_STEPS - 1))) > 1e-12:
            problems.append(f"cli sweep row {i} has cutoff {c}")
        rec.compare(problems, f"cli applicant welfare at c={c}", float(row[2]), ref.applicant_welfare(c))
        rec.compare(problems, f"cli societal utility at c={c}", float(row[3]), ref.societal_utility(c))
        rec.compare(problems, f"cli private utility at c={c}", float(row[4]), ref.private_utility(c))
    return problems


def _cold_start(population, policy):
    instance = rd_oracle.DiscreteInstance.stratified(population, policy, DYNAMICS_AGENTS, DYNAMICS_DELTA)
    return instance, rd_oracle.best_response_dynamics(instance, max_rounds=4000)


def oracle_pass(inp: dict, rec: Recorder) -> None:
    pop = inp["population"]
    for policy in inp["policies"]:
        for n in CERTIFY_SIZES:
            cert = rec.call(
                "certify_s",
                lambda: rd_oracle.certify_equilibrium(
                    rd_oracle.DiscreteInstance.from_schedule(rd_eq.solve(pop, policy), n, 1e-3), 5.0 / n
                ),
            )
            if cert is not None:
                rec.verify([] if cert.is_eps_equilibrium else [f"N={n} not certified: {cert.to_json()}"])

    two_level = inp["policies"][0]
    out = rec.call("dynamics_s", _cold_start, pop, two_level)
    if out is not None:
        instance, result = out
        problems = [] if result.converged else [f"cold start not converged after {result.rounds} sweeps"]
        c = two_level.cutpoints[0]
        gap = max(abs(float(e) - ref.two_level_effort(float(t), c)) for t, e in zip(instance.ranks, instance.efforts))
        rec.error(gap, DYNAMICS_TOL)
        if not gap <= DYNAMICS_TOL:
            problems.append(f"cold-start efforts {gap} from the closed form")
        rec.verify(problems)

    report = rec.call(
        "rank_check_s",
        rd_multidim.check_multidim_rank_preservation,
        inp["multi_skill"],
        RANK_CHECK_AGENTS,
        two_level,
        seed=inp["rank_seed"],
        delta_e=5e-3,
    )
    if report is not None:
        rec.verify([] if report.ok else [f"rank check failed: converged={report.converged}, "
                                         f"{len(report.violations)} violations"])


def audit_pass(inp: dict, rec: Recorder) -> None:
    """The auditor's loop: two-group audits and the unmeasurable-skill cutoffs."""
    groups = inp["groups"]
    rows = rec.call("audit_s", rd_groups.audit_sweep, inp["identity"], groups, RHO, inp["audit_cutoffs"])
    if rows is not None:
        problems = []
        for c, tau_a, tau_b, acc, *gaps in rows:
            exact = ref.identity_group_audit(c, groups.gamma_a, groups.gamma_b)
            for what, got, e in zip(("tau_A", "tau_B", "access"), (tau_a, tau_b, acc), exact):
                rec.compare(problems, f"identity {what} at c={c}", got, e)
            if not _finite(*gaps):
                problems.append(f"non-finite welfare gap at c={c}")
        rec.verify(problems)

    rows = rec.call("audit_s", rd_groups.audit_sweep, inp["piecewise"], groups, RHO, inp["piecewise_audit_cutoffs"])
    if rows is not None:
        problems = []
        for c, tau_a, tau_b, acc, *gaps in rows:
            # each group holds half the mass, so the two thresholds average to the cutoff
            balance = 0.5 * tau_a + 0.5 * tau_b - c
            level = RHO / (1.0 - c)
            if not (0.0 <= tau_a <= tau_b <= 1.0 and abs(balance) <= ref.REL_TOL
                    and abs(acc - level * (1.0 - tau_b)) <= ref.REL_TOL and _finite(*gaps)):
                problems.append(f"piecewise audit row inconsistent at c={c}: {(tau_a, tau_b, acc, *gaps)}")
        rec.verify(problems)

    spec = inp["unmeasurable"]
    for c in inp["unmeasurable_cutoffs"]:
        beta = rec.call("unmeasurable_s", rd_multidim.beta_for_interior_optimum, spec, c)
        if beta is None:
            continue
        rec.verify([] if 0.0 < beta < 1.0 else [f"beta {beta} outside (0, 1) at c={c}"])
        value = rec.call("unmeasurable_s", rd_multidim.weighted_private_utility, spec, c, beta=beta)
        if value is not None:
            rec.verify([] if _finite(value) and value > 0.0 else [f"weighted utility {value} at c={c}"])


PASSES = {"design": design_pass, "oracle": oracle_pass}
