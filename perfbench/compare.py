"""Compare benchmark results of two commits, pair by pair.

Collect results from two source trees with the same benchmark code, in
alternating order (base first on odd seeds, head first on even seeds):

    python3 perfbench/compare.py run BASE_TREE HEAD_TREE --out DIR [--pairs 10]

Every workload of BENCHMARK.json runs for its run_seconds, on seeds 1 to
--pairs.  This writes DIR/base.jsonl and DIR/head.jsonl, then prints the
report.  To report on result sets made earlier with ``run.py --record``:

    python3 perfbench/compare.py report BASE.jsonl HEAD.jsonl

For each workload and metric the report gives each side's median and
quartiles, the share of pairs (same workload and seed) the head won, and a
verdict:

* improved: the head won at least nine tenths of the pairs, ties counting
  for neither, and the medians differ by more than the base's quartile
  spread;
* worse: the head's median is worse than the base's by more than the bound;
* unresolved: the quartile spread of either side is wider than the bound,
  and not every head run beats every base run;
* unchanged: otherwise.

A gain does not count when the head fails a larger share of its calls than
the base on that workload: its "improved" becomes "unresolved".  Shares, not
counts, because the head may make more or fewer calls in a pass.

Bounds come from BENCHMARK.json; a workload's stage timings use the bound of
pass_s, and failed_ratio may not rise at all.  Per-layer metrics and
max_abs_err, a rounding-level residual on design that max_err_tol already
judges, have no bound and get no verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_spec() -> dict:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def load(path: str) -> dict:
    """{(workload, trace): {seed: record}} from a file of JSON lines."""
    out: dict = defaultdict(dict)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                out[(rec["workload"], rec["trace"])][rec["seed"]] = rec
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rules(spec: dict) -> dict:
    """metric name -> (better, bound or None)."""
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    out["failed_ratio"] = ("lower", 0.0)
    out["max_abs_err"] = ("lower", None)
    return out


def verdict(base: list[float], head: list[float], better: str, bound: float | None,
            more_failed: bool = False) -> tuple[str, str]:
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    won = f"{wins}/{len(base)}"
    if bound is None:
        return won, "-"
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    gain = sign * (bmed - hmed)
    if wins >= 0.9 * len(base) and gain > bq3 - bq1:
        return won, "unresolved" if more_failed else "improved"
    if -gain > bound * abs(bmed):
        return won, "worse"
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0, (hq3 - hq1) / abs(hmed) if hmed else 0.0)
    all_better = all(sign * (b - h) > 0 for b in base for h in head)
    # with no bound to exceed, any rise was already judged worse above
    if bound and spread > bound and not all_better:
        return won, "unresolved"
    return won, "unchanged"


def report(base_path: str, head_path: str) -> int:
    spec = load_spec()
    metric_rules = rules(spec)
    base, head = load(base_path), load(head_path)
    order = [w["name"] for w in spec["workloads"]]
    keys = sorted(set(base) & set(head), key=lambda k: (order.index(k[0]) if k[0] in order else len(order), k[1]))
    if not keys:
        print("no workload has results on both sides", file=sys.stderr)
        return 2
    for workload, trace in keys:
        seeds = sorted(set(base[(workload, trace)]) & set(head[(workload, trace)]))
        if not seeds:
            continue
        b_recs = [base[(workload, trace)][s] for s in seeds]
        h_recs = [head[(workload, trace)][s] for s in seeds]
        b_fail = sum(r["failed"] for r in b_recs), sum(r["attempted"] for r in b_recs)
        h_fail = sum(r["failed"] for r in h_recs), sum(r["attempted"] for r in h_recs)
        more_failed = h_fail[0] * b_fail[1] > b_fail[0] * h_fail[1]
        print(f"\n{workload}{' (traced)' if trace else ''}: {len(seeds)} pairs, seeds {seeds[0]}..{seeds[-1]}")
        print(f"  {'metric':28s} {'unit':6s} {'base median [q1, q3]':34s} {'head median [q1, q3]':34s} {'won':7s} verdict")
        for name, first in b_recs[0]["metrics"].items():
            if not all(name in r["metrics"] for r in b_recs + h_recs):
                continue
            b = [r["metrics"][name]["value"] for r in b_recs]
            h = [r["metrics"][name]["value"] for r in h_recs]
            if name in metric_rules:
                better, bound = metric_rules[name]
            else:  # a stage timing of this workload
                better, bound = "lower", metric_rules["pass_s"][1]
            won, label = verdict(b, h, better, bound, more_failed)
            bq1, bmed, bq3 = quartiles(b)
            hq1, hmed, hq3 = quartiles(h)
            print(f"  {name:28s} {first['unit']:6s} {f'{bmed:.5g} [{bq1:.5g}, {bq3:.5g}]':34s} "
                  f"{f'{hmed:.5g} [{hq1:.5g}, {hq3:.5g}]':34s} {won:7s} {label}")
        print(f"  calls failed: base {b_fail[0]}/{b_fail[1]}, head {h_fail[0]}/{h_fail[1]}; "
              f"correct: base {all(r['correct'] for r in b_recs)}, head {all(r['correct'] for r in h_recs)}")
    return 0


def collect(args) -> int:
    spec = load_spec()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sides = {"base": args.base, "head": args.head}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in range(1, args.pairs + 1):
            for side in (("base", "head") if seed % 2 else ("head", "base")):
                cmd = [sys.executable, str(HERE / "run.py"), "--root", sides[side],
                       "--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", str(args.trace), "--record", str(out / f"{side}.jsonl")]
                done = subprocess.run(cmd, capture_output=True, text=True)
                if done.returncode != 0:
                    print(f"{side} {workload} seed {seed} failed:\n{done.stderr}", file=sys.stderr)
                    return 1
                print(f"{workload} seed {seed} {side}: done", file=sys.stderr)
    return report(str(out / "base.jsonl"), str(out / "head.jsonl"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare benchmark results of two commits.")
    sub = parser.add_subparsers(dest="command", required=True)
    rep = sub.add_parser("report", help="compare two result sets written by run.py --record")
    rep.add_argument("base")
    rep.add_argument("head")
    run = sub.add_parser("run", help="benchmark two source trees in alternating pairs, then compare")
    run.add_argument("base", help="source tree of the parent commit")
    run.add_argument("head", help="source tree of the change")
    run.add_argument("--out", required=True, help="directory for base.jsonl and head.jsonl")
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.command == "report":
        return report(args.base, args.head)
    return collect(args)


if __name__ == "__main__":
    sys.exit(main())
