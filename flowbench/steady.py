#!/usr/bin/env python3
"""Steadiness tool for the designer-flow benchmark.

Run one workload k times, each with another seed, and print every
metric's median, quartiles and spread (interquartile range over median)
next to its bound from BENCHMARK.json:

    python3 flowbench/steady.py run --workload team_sync --runs 5 --out a.json

Compare two saved sets of runs: for each metric, how much worse the
second median is than the first, against the metric's bound:

    python3 flowbench/steady.py compare a.json b.json

Spreads use statistics.quantiles(values, n=4). A metric is steady when
its spread is below a third of its bound; setup_s has no spread limit.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_specs(bench, trace):
    return {m["name"]: m for m in bench["per_layer" if trace == "1" else "end_to_end"]}


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(ROOT / "flowbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"run failed (exit {done.returncode}): {' '.join(command)}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"incorrect run: {' '.join(command)}\n{done.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def cmd_run(args):
    bench = load_benchmark()
    specs = metric_specs(bench, args.trace)
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for i in range(args.runs):
        seed = args.seed0 + i
        runs.append(run_once(args.workload, seed, seconds, args.trace))
        print(f"run {i + 1}/{args.runs} seed {seed} done", file=sys.stderr)
    print(f"{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    unsteady = []
    for name, spec in specs.items():
        values = [r[name] for r in runs]
        median, q1, q3, sp = spread(values)
        bound = spec.get("bound")
        flag = ""
        if bound is not None and name != "setup_s":
            if sp > bound:
                flag = "  UNSTEADY"
                unsteady.append(name)
            elif sp >= bound / 3:
                flag = "  over bound/3"
        print(f"{name:36} {median:14.6g} {q1:14.6g} {q3:14.6g} {sp:8.4f} "
              f"{bound if bound is not None else '-':>6}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace, "runs": runs}, indent=1))
    return 1 if unsteady else 0


def cmd_compare(args):
    bench = load_benchmark()
    first = json.loads(Path(args.first).read_text())
    second = json.loads(Path(args.second).read_text())
    if first["workload"] != second["workload"] or first["trace"] != second["trace"]:
        raise SystemExit("the two sets ran different workloads or trace modes")
    specs = metric_specs(bench, first["trace"])
    print(f"{first['workload']}: {len(first['runs'])} vs {len(second['runs'])} runs")
    print(f"{'metric':36} {'median_1':>14} {'median_2':>14} {'worse_by':>9} {'bound':>6}")
    regressed = []
    for name, spec in specs.items():
        m1 = statistics.median(r[name] for r in first["runs"])
        m2 = statistics.median(r[name] for r in second["runs"])
        worse = (m2 - m1) / m1 if spec["better"] == "lower" else (m1 - m2) / m1
        bound = spec.get("bound")
        flag = "  WORSE" if bound is not None and worse > bound else ""
        if flag:
            regressed.append(name)
        print(f"{name:36} {m1:14.6g} {m2:14.6g} {worse:9.4f} "
              f"{bound if bound is not None else '-':>6}{flag}")
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run one workload k times")
    run.add_argument("--workload", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seed0", type=int, default=1)
    run.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    run.add_argument("--trace", choices=("0", "1"), default="0")
    run.add_argument("--out", help="save the raw values here")
    compare = sub.add_parser("compare", help="compare two saved sets of runs")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
