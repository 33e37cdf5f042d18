"""Byte-for-byte CLI outputs: every command, both formats, to stdout and to --output.

The expected bytes live in ``tests/cli_golden.json``, one entry per command
and format: the exit code, stdout of a plain run, and stdout and the file of a
run with ``--output``.  After a deliberate change of output, rewrite it with
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from rankdesign.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

POPULATION = {
    "f": {"family": "power", "scale": 2.0, "exponent": 1.0},
    "g": {"family": "power", "scale": 1.0, "exponent": 0.5},
    "p": {"family": "power", "scale": 1.0, "exponent": 2.0},
}
IDENTITY = {**POPULATION, "f": {"family": "power", "scale": 1.0, "exponent": 1.0}}
POLICY = {"two_level": {"c": 0.8, "capacity": 0.2}}
GROUPS = {"population": IDENTITY, "capacity": 0.2, "groups": {"gamma_a": 2.0, "gamma_b": 1.0}}

# name -> (config, argv after --config/--format/--output)
CASES = {
    "eval": ({"population": POPULATION, "policy": POLICY}, ["eval"]),
    # cutoffs above 1 - capacity are infeasible, so the error column is filled too
    "sweep": (
        {"population": POPULATION, "capacity": 0.2, "sweep": {"range": [0.5, 0.9], "steps": 5}},
        ["sweep"],
    ),
    "equilibrium": ({"population": POPULATION, "policy": POLICY}, ["--grid", "4", "equilibrium"]),
    "groups-sweep": ({**GROUPS, "sweep": {"range": [0.1, 0.5], "steps": 3}}, ["groups"]),
    "groups-single": ({**GROUPS, "policy": {"two_level": {"c": 0.3, "capacity": 0.2}}}, ["groups"]),
    "verify": ({"population": POPULATION, "policy": POLICY}, ["verify", "--n", "40"]),
    "verify-fails": ({"population": POPULATION, "policy": POLICY}, ["verify", "--n", "40", "--eps", "-1"]),
    "optimize": ({"population": POPULATION, "capacity": 0.2}, ["optimize", "--objective", "societal"]),
    "multidim": (
        {
            "policy": POLICY,
            "multidim": {
                **IDENTITY,
                "budget": 2.0,
                "capacity": 0.2,
                "c": 0.4,
                "skills": {
                    "quantiles": [IDENTITY["f"], IDENTITY["f"]],
                    "weights": [0.5, 0.5],
                    "cost": IDENTITY["p"],
                    "sample_size": 12,
                },
            },
        },
        ["--seed", "3", "multidim"],
    ),
    "multidim-budget": (
        {"multidim": {**IDENTITY, "budget": 2.0, "capacity": 0.2, "c": 0.4}},
        ["multidim"],
    ),
}
FORMATS = ("csv", "json")


def _stdout_of(argv) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue().encode()


def capture(name: str, fmt: str) -> dict:
    """Exit code and output bytes of one case: a plain run, then one with --output."""
    config, argv = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(config))
        head = ["--config", str(cfg), "--format", fmt]
        code, stdout = _stdout_of(head + argv)
        out = Path(tmp) / "out"
        out_code, out_stdout = _stdout_of(head + ["--output", str(out)] + argv)
        written = out.read_bytes()
    assert out_code == code
    return {"exit": code, "stdout": stdout, "output_stdout": out_stdout, "output_file": written}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_bytes(name, fmt):
    want = json.loads(GOLDEN.read_text())[f"{name} {fmt}"]
    got = capture(name, fmt)
    assert got["exit"] == want["exit"]
    for key in ("stdout", "output_stdout", "output_file"):
        assert got[key] == want[key].encode(), key


if __name__ == "__main__":
    table = {}
    for name in sorted(CASES):
        for fmt in FORMATS:
            got = capture(name, fmt)
            table[f"{name} {fmt}"] = {k: v if k == "exit" else v.decode() for k, v in got.items()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
