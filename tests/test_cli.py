import contextlib
import copy
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rankdesign import PopulationSpec, two_level_sweep
from rankdesign.cli import main
from rankdesign.equilibrium import MAX_SAMPLES

BENCHMARK_POPULATION = {
    "f": {"family": "power", "scale": 2.0, "exponent": 1.0},
    "g": {"family": "power", "scale": 1.0, "exponent": 0.5},
    "p": {"family": "power", "scale": 1.0, "exponent": 2.0},
    "e0": 0.0,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_eval_benchmark(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"population": BENCHMARK_POPULATION, "policy": {"two_level": {"c": 0.8, "capacity": 0.2}}},
    )
    code, out = run(capsys, ["--config", cfg, "eval"])
    assert code == 0
    payload = json.loads(out)
    assert payload["private_utility"] == pytest.approx(0.32, abs=1e-6)


def test_eval_pure_randomization(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"population": BENCHMARK_POPULATION, "policy": {"two_level": {"c": 0.0, "capacity": 0.2}}},
    )
    code, out = run(capsys, ["--config", cfg, "eval"])
    assert code == 0
    assert json.loads(out)["applicant_welfare"] == 0.2


def test_malformed_config_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["--config", str(path), "eval"])
    assert code == 2
    assert "JSON" in capsys.readouterr().err


def test_missing_field_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"population": BENCHMARK_POPULATION})
    code = main(["--config", cfg, "eval"])
    assert code == 2
    assert "policy" in capsys.readouterr().err


def test_invalid_policy_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "population": BENCHMARK_POPULATION,
            "policy": {"levels": [0.5, 0.3], "cutpoints": [0.5], "capacity": 0.4},
        },
    )
    code = main(["--config", cfg, "eval"])
    assert code == 2
    assert "increasing" in capsys.readouterr().err


def _sweep_config(lo, hi, steps):
    return {
        "population": BENCHMARK_POPULATION,
        "capacity": 0.2,
        "sweep": {"parameter": "c", "range": [lo, hi], "steps": steps},
    }


def test_sweep_monotone_columns(tmp_path, capsys):
    cfg = write_config(tmp_path, _sweep_config(0.01, 0.79, 20))
    code, out = run(capsys, ["--config", cfg, "sweep"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 20
    cs = [float(r["c"]) for r in rows]
    assert cs == sorted(cs)
    welfare = [float(r["applicant_welfare"]) for r in rows]
    private = [float(r["private_utility"]) for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(welfare, welfare[1:]))
    assert all(b >= a - 1e-9 for a, b in zip(private, private[1:]))


def test_sweep_flags_infeasible_points(tmp_path, capsys):
    cfg = write_config(tmp_path, _sweep_config(0.7, 0.9, 5))
    code, out = run(capsys, ["--config", cfg, "sweep"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    errors = [r["error"] for r in rows]
    assert "CapacityError" in errors
    assert any(e == "" for e in errors)


def test_sweep_rows_match_two_level_sweep(tmp_path, capsys):
    # the CLI prices its feasible points in one two_level_sweep batch
    cfg = write_config(tmp_path, _sweep_config(0.01, 0.9, 12))
    code, out = run(capsys, ["--config", cfg, "sweep"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    feasible = [r for r in rows if not r["error"]]
    assert len(feasible) == 10 and [r["error"] for r in rows[10:]] == ["CapacityError"] * 2
    batch = two_level_sweep(PopulationSpec.from_json(BENCHMARK_POPULATION), 0.2, [float(r["c"]) for r in feasible])
    for row, want in zip(feasible, batch):
        got = [float(row[k]) for k in ("c", "level1", "applicant_welfare", "societal_utility", "private_utility")]
        assert got == pytest.approx(list(want), rel=1e-12, abs=0.0)
    # the infeasible points keep their error rows
    cfg = write_config(tmp_path, _sweep_config(0.7, 0.9, 5))
    code, out = run(capsys, ["--config", cfg, "sweep"])
    assert code == 0
    assert out.splitlines()[-2:] == ["0.85,,,,,CapacityError", "0.9,,,,,CapacityError"]


def test_equilibrium_minimal_grid(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"population": BENCHMARK_POPULATION, "policy": {"two_level": {"c": 0.8, "capacity": 0.2}}},
    )
    code, out = run(capsys, ["--config", cfg, "--grid", "2", "equilibrium"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [float(r["theta"]) for r in rows] == [0.0, 0.8, 1.0]


GROUPS_CONFIG = {
    "population": {
        "f": {"family": "power", "scale": 1.0, "exponent": 1.0},
        "g": {"family": "power", "scale": 1.0, "exponent": 0.5},
        "p": {"family": "power", "scale": 1.0, "exponent": 2.0},
    },
    "capacity": 0.2,
    "groups": {"gamma_a": 2.0, "gamma_b": 1.0},
}


def test_groups_single_cutoff(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {**GROUPS_CONFIG, "policy": {"two_level": {"c": 0.3, "capacity": 0.2}}}
    )
    code, out = run(capsys, ["--config", cfg, "groups"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[0]["access"]) == pytest.approx(0.171429, abs=1e-6)


def test_groups_sweep_access_monotone(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {**GROUPS_CONFIG, "sweep": {"parameter": "c", "range": [0.1, 0.7], "steps": 7}},
    )
    code, out = run(capsys, ["--config", cfg, "groups"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    acc = [float(r["access"]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(acc, acc[1:]))


def test_groups_symmetric_zero_gap(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            **GROUPS_CONFIG,
            "groups": {"gamma_a": 1.0, "gamma_b": 1.0},
            "policy": {"two_level": {"c": 0.3, "capacity": 0.2}},
        },
    )
    code, out = run(capsys, ["--config", cfg, "groups"])
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    for col in ("gap_at_q25", "gap_at_q50", "gap_at_q75"):
        assert abs(float(row[col])) < 1e-9


def test_groups_region_table_json(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {**GROUPS_CONFIG, "policy": {"two_level": {"c": 0.3, "capacity": 0.2}}}
    )
    code, out = run(capsys, ["--config", cfg, "--format", "json", "groups"])
    assert code == 0
    table = json.loads(out)
    assert table["middle"]["admit_b"] == 0.0


def test_verify_certifies(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"population": BENCHMARK_POPULATION, "policy": {"two_level": {"c": 0.8, "capacity": 0.2}}},
    )
    code, out = run(capsys, ["--config", cfg, "verify", "--n", "120"])
    assert code == 0
    assert json.loads(out)["certified"] is True


def test_verify_reports_the_grid(tmp_path, capsys):
    """The JSON carries the allowance and the instance next to the verdict: eps, N, the grid step and cap."""
    cfg = write_config(
        tmp_path,
        {"population": BENCHMARK_POPULATION, "policy": {"two_level": {"c": 0.8, "capacity": 0.2}}},
    )
    code, out = run(capsys, ["--config", cfg, "verify", "--n", "120", "--delta-e", "2e-3"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["eps"], payload["n"], payload["delta_e"]) == (5 / 120, 120, 2e-3)
    # p = x^2 and a top reward of 1 cap efforts at 1, plus two grid steps
    assert payload["e_max"] == pytest.approx(1.004)


def test_verify_fails_with_impossible_eps(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"population": BENCHMARK_POPULATION, "policy": {"two_level": {"c": 0.8, "capacity": 0.2}}},
    )
    code, out = run(capsys, ["--config", cfg, "verify", "--n", "120", "--eps", "-1"])
    assert code == 4
    assert json.loads(out)["certified"] is False


@pytest.mark.parametrize("option", [["--delta-e", "nan"], ["--delta-e", "inf"], ["--eps", "nan"], ["--eps", "inf"]])
def test_verify_non_finite_option_exits_2(tmp_path, capsys, option):
    cfg = write_config(
        tmp_path,
        {"population": BENCHMARK_POPULATION, "policy": {"two_level": {"c": 0.8, "capacity": 0.2}}},
    )
    _assert_config_error(capsys, main(["--config", cfg, "verify", "--n", "20", *option]))


def test_verify_oversized_effort_grid_exits_2(tmp_path, capsys):
    """--delta-e 1e-9 up to a cap near 1 asks for about 1e9 grid columns: exit 2, not a memory blow-up."""
    cfg = write_config(
        tmp_path,
        {"population": BENCHMARK_POPULATION, "policy": {"two_level": {"c": 0.8, "capacity": 0.2}}},
    )
    code = main(["--config", cfg, "verify", "--n", "3", "--delta-e", "1e-9"])
    _assert_config_error(capsys, code)


@pytest.mark.parametrize("command", ["eval", "verify"])
def test_negative_skill_quantile_exits_2(tmp_path, capsys, command):
    """An affine skill of offset -0.5 has f(0) < 0, so scores g(e) * f(theta) fall below 0."""
    population = {**BENCHMARK_POPULATION,
                  "f": {"family": "affine_power", "scale": 2.0, "exponent": 1.0, "offset": -0.5}}
    cfg = write_config(tmp_path, {"population": population, "policy": {"two_level": {"c": 0.3, "capacity": 0.2}}})
    _assert_config_error(capsys, main(["--config", cfg, command, *(["--n", "20"] if command == "verify" else [])]))


# the transfer ends at effort 0.8, below the admitted band's threshold effort from c = 2/3 on
SHORT_TRANSFER = {
    **BENCHMARK_POPULATION,
    "g": {"family": "piecewise_monotone", "knots": [[0.0, 0.1], [0.4, 0.4], [0.8, 0.6]]},
}


def test_sweep_prices_each_point_alone_when_the_batch_raises(tmp_path, capsys):
    cfg = write_config(tmp_path, {**_sweep_config(0.3, 0.8, 6), "population": SHORT_TRANSFER})
    code, out = run(capsys, ["--config", cfg, "sweep"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["error"] for r in rows] == ["", "", "", "", "ModelError", "ModelError"]
    assert [r["applicant_welfare"] for r in rows[4:]] == ["", ""]
    feasible = [float(r["c"]) for r in rows[:4]]
    batch = two_level_sweep(PopulationSpec.from_json(SHORT_TRANSFER), 0.2, feasible)
    for row, want in zip(rows, batch):
        got = [float(row[k]) for k in ("c", "level1", "applicant_welfare", "societal_utility", "private_utility")]
        assert got == list(want)


def test_threshold_outside_the_transfer_domain_names_the_effort(tmp_path, capsys):
    cfg = write_config(tmp_path, {"population": SHORT_TRANSFER, "policy": {"two_level": {"c": 0.8, "capacity": 0.2}}})
    assert main(["--config", cfg, "eval"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: threshold effort 1.0 outside the transfer domain; "
        "the cost and transfer domains are inconsistent\n"
    )


@pytest.mark.parametrize(
    "config, command, message",
    [
        ({"sweep": {"steps": 3}}, "sweep", "sweep is missing the 'range' field"),
        ({"sweep": {"range": [0.1, 0.5]}}, "sweep", "sweep is missing the 'steps' field"),
        ({"multidim": {"g": {}, "p": {}, "budget": 2.0, "capacity": 0.2, "c": 0.4}}, "multidim",
         "multidim is missing the 'f' field"),
        ({"multidim": {"f": {}, "g": {}, "p": {}, "budget": 2.0, "capacity": 0.2}}, "multidim",
         "multidim is missing the 'c' field"),
        ({"multidim": {"skills": {"quantiles": [], "weights": []}}}, "multidim",
         "multidim skills is missing the 'cost' field"),
    ],
    ids=["sweep range", "sweep steps", "budget f", "budget c", "skills cost"],
)
def test_missing_block_field_names_the_block_and_the_field(tmp_path, capsys, config, command, message):
    cfg = write_config(tmp_path, {"population": BENCHMARK_POPULATION, "capacity": 0.2, **config})
    assert main(["--config", cfg, command]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_optimize_writes_csv_when_asked(tmp_path, capsys):
    cfg = write_config(tmp_path, {"population": BENCHMARK_POPULATION, "capacity": 0.2})
    profile_path = tmp_path / "profile.csv"
    argv = ["--config", cfg, "--output", str(profile_path), "optimize", "--objective", "private"]
    code, out = run(capsys, ["--format", "csv", *argv])
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    _, json_out = run(capsys, argv)
    assert row == {k: str(v) for k, v in json.loads(json_out).items()}
    assert list(row) == ["c", "value", "objective"]
    assert next(csv.reader(profile_path.open())) == ["c", "value"]


def test_verify_csv_writes_the_flag_as_json_does(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"population": BENCHMARK_POPULATION, "policy": {"two_level": {"c": 0.8, "capacity": 0.2}}},
    )
    for eps, flag in (([], "true"), (["--eps", "-1"], "false")):
        code, out = run(capsys, ["--config", cfg, "--format", "csv", "verify", "--n", "40", *eps])
        assert code == (0 if flag == "true" else 4)
        assert out.splitlines()[1].split(",")[0] == flag


def test_optimize_private(tmp_path, capsys):
    cfg = write_config(tmp_path, {"population": BENCHMARK_POPULATION, "capacity": 0.2})
    profile_path = tmp_path / "profile.csv"
    code, out = run(
        capsys,
        ["--config", cfg, "--output", str(profile_path), "optimize", "--objective", "private"],
    )
    assert code == 0
    best = json.loads(out)
    assert best["c"] == pytest.approx(0.8, abs=1e-4)
    rows = list(csv.DictReader(profile_path.open()))
    assert rows and set(rows[0]) == {"c", "value"}


def test_multidim_command(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "multidim": {
                "f": {"family": "power", "scale": 1.0, "exponent": 1.0},
                "g": {"family": "power", "scale": 1.0, "exponent": 0.5},
                "p": {"family": "power", "scale": 1.0, "exponent": 2.0},
                "budget": 2.0,
                "capacity": 0.2,
                "c": 0.4,
            }
        },
    )
    code, out = run(capsys, ["--config", cfg, "multidim"])
    assert code == 0
    payload = json.loads(out)
    assert 0.0 < payload["beta"] < 1.0


def test_output_file(tmp_path, capsys):
    cfg = write_config(tmp_path, _sweep_config(0.1, 0.5, 3))
    out_path = tmp_path / "sweep.csv"
    code = main(["--config", cfg, "--output", str(out_path), "sweep"])
    assert code == 0
    rows = list(csv.DictReader(out_path.open()))
    assert len(rows) == 3
    assert capsys.readouterr().out == ""


def test_multidim_skills_rank_check(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "policy": {"two_level": {"c": 0.8, "capacity": 0.2}},
            "multidim": {
                "skills": {
                    "quantiles": [
                        {"family": "power", "scale": 1.0, "exponent": 1.0},
                        {"family": "power", "scale": 1.0, "exponent": 1.0},
                    ],
                    "weights": [0.5, 0.5],
                    "cost": {"family": "power", "scale": 1.0, "exponent": 2.0},
                    "sample_size": 120,
                }
            },
        },
    )
    code, out = run(capsys, ["--config", cfg, "--seed", "7", "multidim"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rank_preservation"]["violations"] == 0


def test_multidim_csv(tmp_path, capsys):
    """CSV writes one row per sampled agent of the skills block; a budget block alone gives the header."""
    header = ["agent", "v_pre", "reward_band", "violation_flag"]
    cfg = write_config(
        tmp_path,
        {"policy": {"two_level": {"c": 0.8, "capacity": 0.2}},
         "multidim": {**UNMEASURABLE_SECTION, "skills": SKILLS_SECTION}},
    )
    code, out = run(capsys, ["--config", cfg, "--format", "csv", "multidim"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == header
    assert sorted(int(r[0]) for r in rows[1:]) == list(range(SKILLS_SECTION["sample_size"]))
    assert all(r[3] == "0" for r in rows[1:])
    cfg = write_config(tmp_path, {"multidim": UNMEASURABLE_SECTION}, name="budget.json")
    code, out = run(capsys, ["--config", cfg, "--format", "csv", "multidim"])
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == [header]


def test_multidim_failed_derivative_signs_exit_2(tmp_path, capsys):
    """A cutoff where the unranked skill's mean rises with c has no interior weight: a config error."""
    section = {
        "f": {"family": "piecewise_monotone",
              "knots": [[0, 0], [0.25, 0.6136631515965005], [0.5, 1.6652919875313845],
                        [0.75, 1.81999634264027], [1, 2.817735195388515]]},
        "g": {"family": "power", "scale": 1, "exponent": 0.25335200701368116},
        "p": {"family": "power", "scale": 1, "exponent": 2},
        "budget": 1.9182569003793883,
        "capacity": 0.24363442937652502,
        "c": 0.7213748553742634,
    }
    cfg = write_config(tmp_path, {"multidim": section})
    code = main(["--config", cfg, "multidim"])
    err = capsys.readouterr().err
    assert code == 2
    assert "derivative signs violated" in err and "Traceback" not in err


def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    from rankdesign import cli as cli_mod
    from rankdesign.errors import QuadratureError

    def boom(schedule):
        raise QuadratureError("forced", partial=0.0)

    monkeypatch.setattr(cli_mod, "welfare_report", boom)
    cfg = write_config(
        tmp_path,
        {"population": BENCHMARK_POPULATION, "policy": {"two_level": {"c": 0.8, "capacity": 0.2}}},
    )
    code = main(["--config", cfg, "eval"])
    assert code == 3
    assert "numerical" in capsys.readouterr().err


@pytest.mark.parametrize(
    "population",
    [
        {**BENCHMARK_POPULATION, "p": {"family": "power", "scale": "x", "exponent": 2.0}},
        {**BENCHMARK_POPULATION, "p": {"family": "piecewise_monotone", "knots": [[0, 0], [1, "y"]]}},
        {**BENCHMARK_POPULATION, "e0": "z"},
        "x",
    ],
)
def test_non_numeric_population_exits_2(tmp_path, capsys, population):
    cfg = write_config(
        tmp_path,
        {"population": population, "policy": {"two_level": {"c": 0.8, "capacity": 0.2}}},
    )
    code = main(["--config", cfg, "eval"])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err


def _assert_config_error(capsys, code):
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("c", ["q", None, [0.8]])
def test_non_numeric_policy_exits_2(tmp_path, capsys, c):
    cfg = write_config(
        tmp_path,
        {"population": BENCHMARK_POPULATION, "policy": {"two_level": {"c": c, "capacity": 0.2}}},
    )
    _assert_config_error(capsys, main(["--config", cfg, "eval"]))


@pytest.mark.parametrize(
    "sweep",
    [
        {"range": [0.1], "steps": 5},
        {"range": [0.1, 0.5, 0.7], "steps": 5},
        {"range": ["a", 0.5], "steps": 5},
        {"range": 0.5, "steps": 5},
        {"range": [0.1, float("nan")], "steps": 5},
        {"range": [0.1, 0.5], "steps": "x"},
        {"range": [0.1, 0.5], "steps": 2.5},
        {"range": [0.1, 0.5], "steps": None},
    ],
)
def test_malformed_sweep_exits_2(tmp_path, capsys, sweep):
    cfg = write_config(tmp_path, {**_sweep_config(0.1, 0.5, 5), "sweep": {"parameter": "c", **sweep}})
    _assert_config_error(capsys, main(["--config", cfg, "sweep"]))


@pytest.mark.parametrize("command", ["sweep", "groups"])
def test_sweep_steps_above_the_sample_cap_exit_2(tmp_path, capsys, monkeypatch, command):
    """The step count is checked against the cap before any cutoff is built."""
    from rankdesign import cli as cli_mod

    monkeypatch.setattr(cli_mod, "MAX_SAMPLES", 10)
    for steps, code in ((11, 2), (1e13, 2), (10, 0)):
        cfg = write_config(tmp_path, {**GROUPS_CONFIG, "sweep": {"range": [0.1, 0.5], "steps": steps}})
        assert main(["--config", cfg, command]) == code
        err = capsys.readouterr().err
        assert ("sweep steps must be at most 10" in err) == (code == 2)


def test_sweep_accepts_integral_float_steps(tmp_path, capsys):
    cfg = write_config(tmp_path, _sweep_config(0.1, 0.5, 3.0))
    code, out = run(capsys, ["--config", cfg, "sweep"])
    assert code == 0
    assert len(list(csv.DictReader(io.StringIO(out)))) == 3


def test_sweep_has_no_worker_option(tmp_path, capsys, monkeypatch):
    # sweeps run in this process: --workers is unknown and RANKDESIGN_WORKERS unread
    cfg = write_config(tmp_path, _sweep_config(0.1, 0.5, 3))
    with pytest.raises(SystemExit) as info:
        main(["--config", cfg, "--workers", "2", "sweep"])
    assert info.value.code == 2
    capsys.readouterr()
    monkeypatch.setenv("RANKDESIGN_WORKERS", "abc")
    code, out = run(capsys, ["--config", cfg, "sweep"])
    assert code == 0
    assert len(list(csv.DictReader(io.StringIO(out)))) == 3


UNMEASURABLE_SECTION = {
    "f": {"family": "power", "scale": 1.0, "exponent": 1.0},
    "g": {"family": "power", "scale": 1.0, "exponent": 0.5},
    "p": {"family": "power", "scale": 1.0, "exponent": 2.0},
    "budget": 2.0,
    "capacity": 0.2,
    "c": 0.4,
}

SKILLS_SECTION = {
    "quantiles": [
        {"family": "power", "scale": 1.0, "exponent": 1.0},
        {"family": "power", "scale": 1.0, "exponent": 1.0},
    ],
    "weights": [0.5, 0.5],
    "cost": {"family": "power", "scale": 1.0, "exponent": 2.0},
    "transfer_slope": 1.0,
    "delta_e": 5e-3,
    "sample_size": 60,
}


@pytest.mark.parametrize("field", ["budget", "capacity", "c"])
def test_non_numeric_unmeasurable_field_exits_2(tmp_path, capsys, field):
    cfg = write_config(tmp_path, {"multidim": {**UNMEASURABLE_SECTION, field: "x"}})
    _assert_config_error(capsys, main(["--config", cfg, "multidim"]))


@pytest.mark.parametrize(
    "field, value",
    [
        ("transfer_slope", "x"),
        ("delta_e", "x"),
        ("sample_size", "x"),
        ("sample_size", 2.5),
        ("weights", ["x", 0.5]),
        ("weights", 0.5),
    ],
)
def test_malformed_skills_field_exits_2(tmp_path, capsys, field, value):
    cfg = write_config(
        tmp_path,
        {
            "policy": {"two_level": {"c": 0.8, "capacity": 0.2}},
            "multidim": {"skills": {**SKILLS_SECTION, field: value}},
        },
    )
    _assert_config_error(capsys, main(["--config", cfg, "multidim"]))


# 10^13 agents or ranks would take 80 TB for one array of them
@pytest.mark.parametrize("argv, section", [
    (["verify", "--n", "10000000000000"], {}),
    (["--grid", "10000000000000", "equilibrium"], {}),
    (["multidim"], {"multidim": {"skills": {**SKILLS_SECTION, "sample_size": 10**13}}}),
], ids=["verify --n", "equilibrium --grid", "multidim sample_size"])
def test_oversized_sample_exits_2(tmp_path, capsys, argv, section):
    """An agent count or rank grid from the command line or the config is refused
    before anything of its size is allocated."""
    cfg = write_config(
        tmp_path,
        {"population": BENCHMARK_POPULATION, "policy": {"two_level": {"c": 0.8, "capacity": 0.2}}, **section},
    )
    code = main(["--config", cfg, *argv])
    err = capsys.readouterr().err
    assert code == 2 and "configuration error" in err and "Traceback" not in err
    assert str(MAX_SAMPLES) in err  # the message names the cap


@pytest.mark.parametrize("gamma_a, named", [('"x"', False), ("1e999", True), ("NaN", True)])
def test_malformed_group_factor_exits_2(tmp_path, capsys, gamma_a, named):
    text = json.dumps({**GROUPS_CONFIG, "policy": {"two_level": {"c": 0.3, "capacity": 0.2}}})
    path = tmp_path / "groups.json"
    path.write_text(text.replace('"gamma_a": 2.0', f'"gamma_a": {gamma_a}'))
    code = main(["--config", str(path), "groups"])
    err = capsys.readouterr().err
    assert code == 2
    assert "configuration error" in err and "Traceback" not in err
    # a non-finite factor is named, not reported later as a cost-function domain error
    assert ("gamma_a must be finite" in err) == named


@pytest.mark.parametrize(
    "section",
    [
        {"skills": 5},
        {"skills": {**SKILLS_SECTION, "quantiles": 5}},
        ["budget", "skills"],
    ],
    ids=["skills-not-object", "quantiles-not-list", "section-is-list"],
)
def test_malformed_multidim_structure_exits_2(tmp_path, capsys, section):
    cfg = write_config(
        tmp_path, {"policy": {"two_level": {"c": 0.8, "capacity": 0.2}}, "multidim": section}
    )
    _assert_config_error(capsys, main(["--config", cfg, "multidim"]))


@pytest.mark.parametrize(
    "command, config",
    [
        ("sweep", {**_sweep_config(0.1, 0.5, 3), "sweep": 5}),
        ("groups", {**GROUPS_CONFIG, "sweep": 5}),
        ("groups", {**GROUPS_CONFIG, "policy": 5}),
        ("groups", {**GROUPS_CONFIG, "policy": {"two_level": 5}}),
    ],
    ids=["sweep-sweep-not-object", "groups-sweep-not-object", "groups-policy-not-object",
         "groups-two-level-not-object"],
)
def test_malformed_structure_exits_2(tmp_path, capsys, command, config):
    cfg = write_config(tmp_path, config)
    _assert_config_error(capsys, main(["--config", cfg, command]))


# -- fuzzing: valid configs with one value replaced --------------------------

PIECEWISE_POPULATION = {
    "f": {"family": "piecewise_monotone", "knots": [[0.0, 0.0], [0.5, 0.4], [1.0, 1.0]]},
    "g": {"family": "affine_power", "scale": 1.0, "exponent": 0.5, "offset": 0.0},
    "p": {"family": "power", "scale": 1.0, "exponent": 2.0},
}
FUZZ_SWEEP = {"parameter": "c", "range": [0.1, 0.7], "steps": 3}
FUZZ_GROUPS = {"gamma_a": 2.0, "gamma_b": 1.0, "share": 0.5}
FUZZ_CONFIGS = [
    ("eval", {"population": BENCHMARK_POPULATION, "policy": {"two_level": {"c": 0.8, "capacity": 0.2}}}),
    ("eval", {"population": PIECEWISE_POPULATION,
              "policy": {"levels": [0.0, 0.5, 1.0], "cutpoints": [0.5, 0.9], "capacity": 0.3}}),
    ("sweep", {"population": BENCHMARK_POPULATION, "capacity": 0.2, "sweep": FUZZ_SWEEP}),
    ("groups", {"population": BENCHMARK_POPULATION, "capacity": 0.2, "groups": FUZZ_GROUPS,
                "sweep": FUZZ_SWEEP}),
    ("groups", {"population": PIECEWISE_POPULATION, "capacity": 0.2, "groups": FUZZ_GROUPS,
                "policy": {"two_level": {"c": 0.3, "capacity": 0.2}}}),
    ("verify", {"population": BENCHMARK_POPULATION, "policy": {"two_level": {"c": 0.8, "capacity": 0.2}}}),
    ("verify", {"population": PIECEWISE_POPULATION,
                "policy": {"levels": [0.0, 0.5, 1.0], "cutpoints": [0.5, 0.9], "capacity": 0.3}}),
    ("optimize", {"population": BENCHMARK_POPULATION, "capacity": 0.2}),
    ("multidim", {"policy": {"two_level": {"c": 0.8, "capacity": 0.2}},
                  "multidim": {**UNMEASURABLE_SECTION,
                               "skills": {**SKILLS_SECTION, "delta_e": 1e-2, "sample_size": 20}}}),
]
# command-line arguments after the command; small N keeps each run short
FUZZ_ARGS = {"verify": ["--n", "20", "--delta-e", "1e-2"], "optimize": ["--objective", "private"]}


def _key_paths(node, prefix=()):
    """Every key path below node, through objects and lists."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _key_paths(value, prefix + (key,))


FUZZ_CASES = [(command, config, path) for command, config in FUZZ_CONFIGS for path in _key_paths(config)]


@settings(max_examples=250, deadline=None)
@given(case=st.sampled_from(FUZZ_CASES), value=st.sampled_from([5, "x", [], {}, None]))
def test_cli_fuzz_one_value_replaced(case, value):
    command, config, path = case
    config = copy.deepcopy(config)
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["--config", str(cfg), command, *FUZZ_ARGS.get(command, ())])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


def test_fuzz_configs_are_valid(capsys):
    """Unmutated, every fuzz config runs to exit 0."""
    with tempfile.TemporaryDirectory() as tmp:
        for i, (command, config) in enumerate(FUZZ_CONFIGS):
            cfg = Path(tmp) / f"config{i}.json"
            cfg.write_text(json.dumps(config))
            code = main(["--config", str(cfg), command, *FUZZ_ARGS.get(command, ())])
            assert code == 0, (command, capsys.readouterr().err)
