"""Command-line front end: config-driven experiments emitting CSV/JSON data.

Commands: eval, sweep, equilibrium, groups, verify, optimize, multidim.
Output is data for external plotting, never rendered figures.  Exit codes:
0 success, 2 configuration or validation failure, 3 numerical failure,
4 certification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import design, groups as groups_mod, multidim as multidim_mod, oracle
from .equilibrium import sample_schedule, solve
from .errors import ConfigError, QuadratureError, RankDesignError
from .functions import PopulationSpec
from .groups import GroupSpec
from .policy import policy_from_json, two_level, validate
from .welfare import two_level_sweep, welfare_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CERTIFICATION = 4


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            return _of_kind(json.load(fh), dict, "config")
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _population(config: dict) -> PopulationSpec:
    if "population" not in config:
        raise ConfigError("config is missing the 'population' field")
    return PopulationSpec.from_json(config["population"])


def _policy(config: dict):
    if "policy" not in config:
        raise ConfigError("config is missing the 'policy' field")
    policy = policy_from_json(config["policy"])
    report = validate(policy)
    if not report.ok:
        raise ConfigError("invalid policy: " + "; ".join(report.violations))
    return policy


def _groups(config: dict) -> GroupSpec:
    if "groups" not in config:
        raise ConfigError("config is missing the 'groups' field")
    return GroupSpec.from_json(config["groups"])


def _number(value, what: str) -> float:
    """A finite number from a config value; anything else is a config error."""
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return number


def _integer(value, what: str) -> int:
    """An integral number from a config value, such as 3 or 3.0; 2.5 is a config error."""
    number = _number(value, what)
    if not number.is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(number)


def _of_kind(value, kind: type, what: str):
    """A config value that is a JSON object (dict) or list; anything else is a config error."""
    if not isinstance(value, kind):
        raise ConfigError(f"{what} must be {'a list' if kind is list else 'an object'}, got {value!r}")
    return value


def _sweep_cutoffs(config: dict) -> list[float]:
    sweep = config.get("sweep")
    if not sweep:
        raise ConfigError("config is missing the 'sweep' field")
    sweep = _of_kind(sweep, dict, "sweep")
    if sweep.get("parameter", "c") != "c":
        raise ConfigError("only sweeps over the two-level cutoff 'c' are supported")
    bounds = sweep["range"]
    if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2):
        raise ConfigError(f"sweep range must be [lo, hi], got {bounds!r}")
    lo, hi = (_number(b, "sweep range bound") for b in bounds)
    steps = _integer(sweep["steps"], "sweep steps")
    if steps < 2:
        raise ConfigError("sweep needs at least 2 steps")
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _emit(args, payload, rows=None, header=None) -> None:
    """Write JSON payload or CSV rows to --output (default stdout)."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_eval(args, config: dict) -> int:
    population = _population(config)
    policy = _policy(config)
    schedule = solve(population, policy)
    report = welfare_report(schedule)
    payload = report.to_json()
    rows = [[payload[k] for k in ("applicant_welfare", "societal_utility", "private_utility")]]
    _emit(args, payload, rows, ["applicant_welfare", "societal_utility", "private_utility"])
    return EXIT_OK


def _sweep_point(population: PopulationSpec, c: float, capacity: float):
    try:
        (row,) = two_level_sweep(population, capacity, [c])
        return (*row, "")
    except RankDesignError as exc:
        return (c, "", "", "", "", type(exc).__name__)


def cmd_sweep(args, config: dict) -> int:
    population = _population(config)
    capacity = config.get("capacity")
    if capacity is None:
        raise ConfigError("sweep config needs a top-level 'capacity' field")
    capacity = _number(capacity, "capacity")
    rows = [_sweep_point(population, c, capacity) for c in _sweep_cutoffs(config)]
    if all(r[-1] for r in rows):
        raise ConfigError("every sweep point failed: " + rows[0][-1])
    header = ["c", "level1", "applicant_welfare", "societal_utility", "private_utility", "error"]
    payload = [dict(zip(header, r)) for r in rows]
    args.format = "csv" if args.format is None else args.format
    _emit(args, payload, rows, header)
    return EXIT_OK


def cmd_equilibrium(args, config: dict) -> int:
    population = _population(config)
    policy = _policy(config)
    schedule = solve(population, policy)
    rows = sample_schedule(schedule, args.grid)
    header = ["theta", "band", "effort", "score"]
    payload = [dict(zip(header, r)) for r in rows]
    args.format = "csv" if args.format is None else args.format
    _emit(args, payload, rows, header)
    return EXIT_OK


def cmd_groups(args, config: dict) -> int:
    population = _population(config)
    gspec = _groups(config)
    capacity = config.get("capacity")
    if capacity is None:
        raise ConfigError("groups config needs a top-level 'capacity' field")
    capacity = _number(capacity, "capacity")
    if "sweep" in config:
        cutoffs = _sweep_cutoffs(config)
    else:
        policy = _of_kind(config.get("policy", {}), dict, "policy")
        if "two_level" not in policy:
            raise ConfigError("groups command needs a two-level policy or a sweep")
        shorthand = _of_kind(policy["two_level"], dict, "two_level policy")
        cutoffs = [_number(shorthand.get("c"), "two_level cutoff c")]
    if args.format == "json" and len(cutoffs) == 1:
        table = groups_mod.region_table(population, gspec, two_level(cutoffs[0], capacity))
        _emit(args, table)
        return EXIT_OK
    rows = groups_mod.audit_sweep(population, gspec, capacity, cutoffs)
    gaps = [f"gap_at_q{round(100 * q)}" for q in groups_mod.GAP_QUANTILES]
    header = ["c", "tau_A", "tau_B", "access", *gaps]
    payload = [dict(zip(header, r)) for r in rows]
    args.format = "csv" if args.format is None else args.format
    _emit(args, payload, rows, header)
    return EXIT_OK


def cmd_verify(args, config: dict) -> int:
    population = _population(config)
    policy = _policy(config)
    schedule = solve(population, policy)
    instance = oracle.DiscreteInstance.from_schedule(schedule, args.n, args.delta_e)
    eps = _number(args.eps, "--eps") if args.eps is not None else 5.0 / args.n
    result = oracle.certify_equilibrium(instance, eps)
    payload = result.to_json()
    payload["eps"] = eps
    payload["n"] = args.n
    payload["delta_e"] = instance.delta_e
    payload["e_max"] = instance.e_max
    _emit(args, payload, [[payload["certified"], payload["worst_gain"]]], ["certified", "worst_gain"])
    return EXIT_OK if result.is_eps_equilibrium else EXIT_CERTIFICATION


def cmd_optimize(args, config: dict) -> int:
    population = _population(config)
    capacity = config.get("capacity")
    if capacity is None:
        raise ConfigError("optimize config needs a top-level 'capacity' field")
    objective = {
        "applicant": design.Objective.APPLICANT_WELFARE,
        "societal": design.Objective.SOCIETAL_UTILITY,
        "private": design.Objective.PRIVATE_UTILITY,
    }[args.objective]
    result = design.optimize_two_level(population, _number(capacity, "capacity"), objective)
    if args.output:
        with open(args.output, "w") as fh:
            writer = csv.writer(fh)
            writer.writerow(["c", "value"])
            writer.writerows(result.profile)
    best = {"c": result.c_star, "value": result.value, "objective": args.objective}
    sys.stdout.write(json.dumps(best, indent=2) + "\n")
    return EXIT_OK


def cmd_multidim(args, config: dict) -> int:
    section = config.get("multidim")
    if not section:
        raise ConfigError("config is missing the 'multidim' field")
    section = _of_kind(section, dict, "multidim section")
    from .functions import function_from_json, Role

    payload = {}
    if "budget" in section:
        spec = multidim_mod.UnmeasurableSpec(
            f=function_from_json(section["f"], Role.SKILL_QUANTILE),
            g=function_from_json(section["g"], Role.EFFORT_TRANSFER),
            p=function_from_json(section["p"], Role.COST_FUNCTION),
            budget=_number(section["budget"], "multidim budget"),
            capacity=_number(section["capacity"], "multidim capacity"),
        )
        c = _number(section["c"], "multidim cutoff c")
        beta = multidim_mod.beta_for_interior_optimum(spec, c)
        payload.update(
            {
                "c": c,
                "beta": beta,
                "weighted_private_utility": multidim_mod.weighted_private_utility(spec, c, beta=beta),
                "measurable_mean": multidim_mod.measurable_conditional_mean(spec, c),
                "unmeasurable_mean": multidim_mod.unmeasurable_conditional_mean(spec, c),
            }
        )
    if "skills" in section:
        sk = _of_kind(section["skills"], dict, "multidim skills")
        quantiles = _of_kind(sk["quantiles"], list, "multidim quantiles")
        weights = _of_kind(sk["weights"], list, "multidim weights")
        spec = multidim_mod.MultiSkillSpec(
            quantiles=tuple(function_from_json(q, Role.SKILL_QUANTILE) for q in quantiles),
            weights=tuple(_number(w, "multidim weight") for w in weights),
            transfer_slope=_number(sk.get("transfer_slope", 1.0), "multidim transfer_slope"),
            cost=function_from_json(sk["cost"], Role.COST_FUNCTION),
        )
        report = multidim_mod.check_multidim_rank_preservation(
            spec,
            sample_size=_integer(sk.get("sample_size", 500), "multidim sample_size"),
            policy=_policy(config),
            seed=args.seed,
            delta_e=_number(sk.get("delta_e", 5e-3), "multidim delta_e"),
        )
        payload["rank_preservation"] = {
            "converged": report.converged,
            "rounds": report.rounds,
            "violations": len(report.violations),
        }
    if not payload:
        raise ConfigError("multidim section needs a 'budget' block or a 'skills' block")
    if args.format == "csv":
        rows = [
            (agent, v_pre, band, int(flag))
            for agent, v_pre, band, flag in (report.rows if "skills" in section else ())
        ]
        _emit(args, payload, rows, ["agent", "v_pre", "reward_band", "violation_flag"])
    else:
        _emit(args, payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankdesign",
        description="Equilibrium, welfare, and fairness analysis of ranking reward policies",
    )
    parser.add_argument("--config", help="path to a JSON experiment config")
    parser.add_argument("--output", help="write result to this path instead of stdout")
    parser.add_argument("--format", choices=["csv", "json"], default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--grid", type=int, default=200)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("eval")
    sub.add_parser("sweep")
    sub.add_parser("equilibrium")
    sub.add_parser("groups")
    verify = sub.add_parser("verify")
    verify.add_argument("--n", type=int, default=500)
    verify.add_argument("--delta-e", dest="delta_e", type=float, default=1e-3)
    verify.add_argument("--eps", type=float, default=None)
    optimize = sub.add_parser("optimize")
    optimize.add_argument("--objective", choices=["applicant", "societal", "private"], required=True)
    sub.add_parser("multidim")
    return parser


_COMMANDS = {
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "equilibrium": cmd_equilibrium,
    "groups": cmd_groups,
    "verify": cmd_verify,
    "optimize": cmd_optimize,
    "multidim": cmd_multidim,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format is None and args.command in ("eval", "verify", "optimize", "multidim"):
        args.format = "json"
    try:
        config = _load_config(args.config)
        return _COMMANDS[args.command](args, config)
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (RankDesignError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
