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
from .equilibrium import MAX_SAMPLES, sample_schedule, solve
from .errors import ConfigError, QuadratureError, RankDesignError
from .functions import PopulationSpec, Role, function_from_json
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


def _required(block: dict, key: str, *, nonempty: bool = False, what: str = "config"):
    """A field of the config or of its block ``what``; absent (or, with nonempty, empty or
    false) is a config error that names the block and the field."""
    value = block.get(key)
    if key not in block or (nonempty and not value):
        raise ConfigError(f"{what} is missing the '{key}' field")
    return value


def _capacity(config: dict, command: str) -> float:
    capacity = config.get("capacity")
    if capacity is None:
        raise ConfigError(f"{command} config needs a top-level 'capacity' field")
    return _number(capacity, "capacity")


def _population(config: dict) -> PopulationSpec:
    return PopulationSpec.from_json(_required(config, "population"))


def _policy(config: dict):
    policy = policy_from_json(_required(config, "policy"))
    report = validate(policy)
    if not report.ok:
        raise ConfigError("invalid policy: " + "; ".join(report.violations))
    return policy


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
    sweep = _of_kind(_required(config, "sweep", nonempty=True), dict, "sweep")
    if sweep.get("parameter", "c") != "c":
        raise ConfigError("only sweeps over the two-level cutoff 'c' are supported")
    bounds = _required(sweep, "range", what="sweep")
    if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2):
        raise ConfigError(f"sweep range must be [lo, hi], got {bounds!r}")
    lo, hi = (_number(b, "sweep range bound") for b in bounds)
    steps = _integer(_required(sweep, "steps", what="sweep"), "sweep steps")
    if steps < 2:
        raise ConfigError("sweep needs at least 2 steps")
    if steps > MAX_SAMPLES:
        raise ConfigError(f"sweep steps must be at most {MAX_SAMPLES}, got {steps}")
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write(path: str | None, text: str) -> None:
    """Write text to path, or to stdout when there is none."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(fmt: str, header, rows, payload=None) -> str:
    """Rows as CSV, or as JSON: payload if given, else one object per row, built only here."""
    if fmt == "csv":
        return _csv(header, rows)
    if payload is None:
        payload = [dict(zip(header, r)) for r in rows]
    return json.dumps(payload, indent=2) + "\n"


def _emit(args, header, rows, payload=None) -> None:
    """Write rows to --output (default stdout) in the chosen format."""
    _write(args.output, _render(args.format, header, rows, payload))


def cmd_eval(args, config: dict) -> int:
    population = _population(config)
    policy = _policy(config)
    payload = welfare_report(solve(population, policy)).to_json()
    header = ["applicant_welfare", "societal_utility", "private_utility"]
    _emit(args, header, [[payload[k] for k in header]], payload)
    return EXIT_OK


def _sweep_point(population: PopulationSpec, capacity: float, c: float):
    """One sweep row priced alone, or its cutoff and the name of the error that point raised."""
    try:
        return (*two_level_sweep(population, capacity, [c])[0], "")
    except RankDesignError as exc:
        return (c, "", "", "", "", type(exc).__name__)


def _accepts(c: float, capacity: float) -> bool:
    try:
        two_level(c, capacity)
    except RankDesignError:
        return False
    return True


def cmd_sweep(args, config: dict) -> int:
    """One row per cutoff.  The cutoffs ``two_level`` accepts are priced in one batch; the others,
    and all of them if the batch raises, are priced alone, so each failing point keeps its own error."""
    population = _population(config)
    capacity = _capacity(config, "sweep")
    cutoffs = _sweep_cutoffs(config)
    accepted = [c for c in cutoffs if _accepts(c, capacity)]
    try:
        priced = dict(zip(accepted, ((*row, "") for row in two_level_sweep(population, capacity, accepted))))
    except RankDesignError:
        priced = {}
    rows = [priced.get(c) or _sweep_point(population, capacity, c) for c in cutoffs]
    if all(r[-1] for r in rows):
        raise ConfigError("every sweep point failed: " + rows[0][-1])
    _emit(args, ["c", "level1", "applicant_welfare", "societal_utility", "private_utility", "error"], rows)
    return EXIT_OK


def cmd_equilibrium(args, config: dict) -> int:
    population = _population(config)
    policy = _policy(config)
    _emit(args, ["theta", "band", "effort", "score"], sample_schedule(solve(population, policy), args.grid))
    return EXIT_OK


def cmd_groups(args, config: dict) -> int:
    population = _population(config)
    gspec = GroupSpec.from_json(_required(config, "groups"))
    capacity = _capacity(config, "groups")
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
        _emit(args, (), (), table)
        return EXIT_OK
    rows = groups_mod.audit_sweep(population, gspec, capacity, cutoffs)
    gaps = [f"gap_at_q{round(100 * q)}" for q in groups_mod.GAP_QUANTILES]
    _emit(args, ["c", "tau_A", "tau_B", "access", *gaps], rows)
    return EXIT_OK


def cmd_verify(args, config: dict) -> int:
    population = _population(config)
    policy = _policy(config)
    schedule = solve(population, policy)
    instance = oracle.DiscreteInstance.from_schedule(schedule, args.n, args.delta_e)
    eps = _number(args.eps, "--eps") if args.eps is not None else 5.0 / args.n
    result = oracle.certify_equilibrium(instance, eps)
    payload = result.to_json()
    payload.update(eps=eps, n=args.n, delta_e=instance.delta_e, e_max=instance.e_max)
    # CSV writes the flag as JSON does, true or false
    _emit(args, ["certified", "worst_gain"], [[json.dumps(payload["certified"]), payload["worst_gain"]]], payload)
    return EXIT_OK if result.is_eps_equilibrium else EXIT_CERTIFICATION


def cmd_optimize(args, config: dict) -> int:
    """The best cutoff on stdout, as JSON or one CSV row; --output, if given, gets the objective profile as CSV."""
    population = _population(config)
    capacity = _capacity(config, "optimize")
    objective = {
        "applicant": design.Objective.APPLICANT_WELFARE,
        "societal": design.Objective.SOCIETAL_UTILITY,
        "private": design.Objective.PRIVATE_UTILITY,
    }[args.objective]
    result = design.optimize_two_level(population, capacity, objective)
    if args.output:
        _write(args.output, _csv(["c", "value"], result.profile))
    best = {"c": result.c_star, "value": result.value, "objective": args.objective}
    _write(None, _render(args.format, list(best), [list(best.values())], best))
    return EXIT_OK


def cmd_multidim(args, config: dict) -> int:
    section = _of_kind(_required(config, "multidim", nonempty=True), dict, "multidim section")
    payload = {}
    if "budget" in section:
        field = {key: _required(section, key, what="multidim") for key in ("f", "g", "p", "budget", "capacity", "c")}
        spec = multidim_mod.UnmeasurableSpec(
            f=function_from_json(field["f"], Role.SKILL_QUANTILE),
            g=function_from_json(field["g"], Role.EFFORT_TRANSFER),
            p=function_from_json(field["p"], Role.COST_FUNCTION),
            budget=_number(field["budget"], "multidim budget"),
            capacity=_number(field["capacity"], "multidim capacity"),
        )
        c = _number(field["c"], "multidim cutoff c")
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
    agents = ()
    if "skills" in section:
        sk = _of_kind(section["skills"], dict, "multidim skills")
        quantiles = _of_kind(_required(sk, "quantiles", what="multidim skills"), list, "multidim quantiles")
        weights = _of_kind(_required(sk, "weights", what="multidim skills"), list, "multidim weights")
        spec = multidim_mod.MultiSkillSpec(
            quantiles=tuple(function_from_json(q, Role.SKILL_QUANTILE) for q in quantiles),
            weights=tuple(_number(w, "multidim weight") for w in weights),
            transfer_slope=_number(sk.get("transfer_slope", 1.0), "multidim transfer_slope"),
            cost=function_from_json(_required(sk, "cost", what="multidim skills"), Role.COST_FUNCTION),
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
        agents = report.rows
    if not payload:
        raise ConfigError("multidim section needs a 'budget' block or a 'skills' block")
    rows = ((agent, v_pre, band, int(flag)) for agent, v_pre, band, flag in agents)
    _emit(args, ["agent", "v_pre", "reward_band", "violation_flag"], rows, payload)
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


# command name -> (handler, output format when --format is not given)
_COMMANDS = {
    "eval": (cmd_eval, "json"),
    "sweep": (cmd_sweep, "csv"),
    "equilibrium": (cmd_equilibrium, "csv"),
    "groups": (cmd_groups, "csv"),
    "verify": (cmd_verify, "json"),
    "optimize": (cmd_optimize, "json"),
    "multidim": (cmd_multidim, "json"),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command, default_format = _COMMANDS[args.command]
    args.format = args.format or default_format
    try:
        config = _load_config(args.config)
        return command(args, config)
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (RankDesignError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
