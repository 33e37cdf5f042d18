"""Benchmark of rankdesign: run one seeded workload, check it, print its metrics.

    python3 perfbench/run.py --workload design --seed 1 --seconds 45 --trace 0

Workloads (see workloads.py): ``design`` and ``oracle``, each run in this one
process with no worker pool.  A first pass warms up and fixes the outcome of
every call: ``attempted`` and ``failed`` count the calls of that pass, and
every later pass over the same inputs must repeat those outcomes call by
call, or the run is not correct.  The workload then repeats until
``--seconds`` have passed.  Timings are medians over those passes.
``setup_s`` is the median of several fresh interpreters, each timed from its
start until the workload's inputs are ready, started at even intervals
through the run.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it list every metric with its
unit and sample count, the stage timings of the workload and the
environment.  ``--record FILE`` also appends the full result to FILE as one
JSON line, for compare.py.

The library is imported from ``src/`` of the tree given by ``--root``
(default: the tree this script is in); without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60


def summarize(values) -> dict:
    """Median and sample count, plus the highest percentile with ten samples beyond it."""
    vals = sorted(values)
    n = len(vals)
    out = {"value": statistics.median(vals), "n": n, "tail_pct": None, "tail": None}
    if n >= 11:
        out["tail_pct"] = math.floor(100 * (n - 10) / n)
        out["tail"] = vals[n - 11]
    return out


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "seed": args.seed,
        "traced": bool(args.trace),
        "workload": args.workload,
        "seconds": args.seconds,
    }


def setup_probe(args, src: Path, workdir: Path):
    """A function that starts one fresh interpreter, which imports the library
    and builds the inputs, and returns its set-up and import times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    probe_dir = workdir / "probe"
    probe_dir.mkdir()

    def probe() -> dict:
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), args.workload, str(args.seed), str(probe_dir)],
            env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        return {"setup_s": result["ready"] - start, "import_s": result["import_s"]}

    return probe


def run_passes(args, inputs, workloads, tracing, probe):
    """Run the first pass, then repeat passes until the time is up, with the
    set-up probes due by then between them.

    Returns (first recorder, untraced recorders, traced recorders,
    per-layer samples, set-up samples).
    """
    one_pass = workloads.PASSES[args.workload]
    first = workloads.Recorder()
    one_pass(inputs, first)
    untraced, traced, layers, setups = [], [], [], []
    tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        rec = workloads.Recorder()
        if tracer is None or len(untraced) <= len(traced):
            one_pass(inputs, rec)
            untraced.append(rec)
        else:
            tracer.reset()
            with tracer.installed():
                one_pass(inputs, rec)
            traced.append(rec)
            layers.append(tracer.layer_metrics())
        while len(setups) < SETUP_PROBES and time.perf_counter() >= start + len(setups) * args.seconds / SETUP_PROBES:
            setups.append(probe())
        if time.perf_counter() >= deadline and untraced and (tracer is None or traced):
            return first, untraced, traced, layers, setups


def pass_seconds(rec) -> float:
    return sum(rec.stage_s.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("design", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", help="source tree to benchmark (default: this checkout)")
    parser.add_argument("--record", help="append the full result to this file as a JSON line")
    args = parser.parse_args(argv)

    root = Path(args.root).resolve() if args.root else HERE.parent
    src = root / "src"
    if not (src / "rankdesign" / "__init__.py").is_file():
        print(f"error: no rankdesign source tree under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # the benchmark measures the single-process path only
    os.environ.pop("RANKDESIGN_WORKERS", None)
    import rankdesign

    if Path(rankdesign.__file__).resolve().parent != (src / "rankdesign").resolve():
        print(f"error: imported rankdesign from {rankdesign.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracing
    import workloads
    from reference import TOL_SHARE_FLOOR

    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    env = environment(args)
    workdir = HERE / "_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        inputs = workloads.build(args.workload, args.seed, str(workdir))
        first, untraced, traced, layers, setups = run_passes(
            args, inputs, workloads, tracing, setup_probe(args, src, workdir)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())

    recs = [first] + untraced + traced
    attempted, failed, errors = first.attempted, first.failed, first.errors
    diverged = sum(r.outcomes != first.outcomes for r in recs)
    values = {
        "setup_s": summarize(s["setup_s"] for s in setups),
        "pass_s": summarize(pass_seconds(r) for r in untraced),
        "max_err_tol": {"value": max(TOL_SHARE_FLOOR, *(r.max_err_tol for r in recs)), "n": len(recs)},
        "max_abs_err": {"value": max(r.max_abs_err for r in recs), "n": len(recs)},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "n": 1},
        "failed_ratio": {"value": failed / attempted, "n": attempted},
    }
    for stage in workloads.STAGES[args.workload]:
        values[stage] = summarize(r.stage_s[stage] for r in untraced)
    if args.trace:
        for name in layers[0]:
            values[name] = summarize(sample[name] for sample in layers)
        values["setup.import_s"] = summarize(s["import_s"] for s in setups)
        values["cli.output_bytes"] = summarize(r.output_bytes for r in traced)
        values["trace.overhead_ratio"] = {
            "value": statistics.median(pass_seconds(r) for r in traced) / values["pass_s"]["value"],
            "n": len(traced),
        }

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({stage: "s" for stage in workloads.STAGES[args.workload]})
    units["max_abs_err"] = "1"
    units["failed_ratio"] = "ratio"
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    details = reported + [n for n in values if n not in reported]

    print(f"rankdesign benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(untraced)} untraced and {len(traced)} traced passes")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name in details:
        v = values[name]
        tail = f"p{v['tail_pct']} {v['tail']:.6g}" if v.get("tail_pct") is not None else "-"
        print(f"  {name:28s} {v['value']:<14.6g} {units[name]:6s} n={v['n']:<6d} tail {tail}")
    mismatches = [m for r in recs for m in r.mismatches][:5]
    correct = not errors["check"] and not diverged
    print(f"calls per pass: {attempted} attempted, {failed} failed {dict(errors)}; "
          f"{diverged} passes with other outcomes than the first; correct {correct}")
    for m in mismatches:
        print(f"  mismatch: {m}")

    if args.record:
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
            "correct": correct, "attempted": attempted, "failed": failed, "errors": dict(errors),
            "metrics": {n: {**values[n], "unit": units[n]} for n in details},
        }
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n]["value"], "unit": units[n]} for n in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
