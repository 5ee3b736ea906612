#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, summarised into a BENCH_<label>.json file.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload gauss-desk --seeds 21-30 --label pr10

For each seed it runs the command that ``BENCHMARK.json`` declares, with
``--workload W --seed S --seconds <run_seconds> --trace 0``, once in each
checkout, in that checkout's own directory. The side that runs first
alternates from pair to pair. Both checkouts must declare the same
benchmark. Every end-to-end metric gets, per side, its median and
quartiles, and the number of pairs the change won (ties count for
neither), plus the per-pair values. The Python, numpy and scipy versions
the command runs under are recorded too.

The file is written in any case, but if any run reports ``correct: false``
or ``failed > 0``, the tool names each such seed and side on stderr and
exits 1.

The file gains one entry per workload: running the tool again with
another workload adds that workload's entry to the same file, and a
workload run again replaces its own entry.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def seed_list(text):
    """'21-30' or '1,4,9' as a list of ints."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def load_benchmark(checkout):
    return json.loads((checkout / "BENCHMARK.json").read_text())


def run_once(checkout, command, workload, seed, seconds):
    """The JSON object the benchmark prints on its last line of output."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(args)} in {checkout} exited {done.returncode}:\n"
                 f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(benchmark, runs):
    metrics = {}
    for spec in benchmark["end_to_end"]:
        name, higher = spec["name"], spec["better"] == "higher"
        values = {side: [run[side]["metrics"][name]["value"] for run in runs] for side in SIDES}
        wins = sum(
            (change > parent) if higher else (change < parent)
            for parent, change in zip(values["parent"], values["change"])
        )
        parent, change = spread(values["parent"]), spread(values["change"])
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": parent,
            "change": change,
            "change_wins": wins,
            "pairs": len(runs),
            "median_gap_exceeds_parent_iqr": (
                abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"]
            ),
            "values": values,
        }
    return metrics


def environment(command):
    probe = ("import json, platform, numpy, scipy; print(json.dumps({'python': "
             "platform.python_version(), 'numpy': numpy.__version__, 'scipy': scipy.__version__}))")
    done = subprocess.run([command[0], "-c", probe], capture_output=True, text=True, check=True)
    return {**json.loads(done.stdout), "machine": platform.machine(), "cpus": os.cpu_count()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 21-30 or 3,5,8")
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two pairs: give two or more seeds")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = load_benchmark(checkouts["change"])
    if load_benchmark(checkouts["parent"]) != benchmark:
        sys.exit("bench_pairs: the two checkouts declare different benchmarks")
    command = benchmark["command"]

    runs = []
    for index, seed in enumerate(args.seeds):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        run = {"seed": seed, "first": order[0]}
        for side in order:
            run[side] = run_once(checkouts[side], command, args.workload, seed,
                                 benchmark["run_seconds"])
            print(f"{args.workload} seed {seed} {side}: correct={run[side]['correct']} "
                  f"failed={run[side]['failed']}", file=sys.stderr)
        runs.append(run)

    path = args.out_dir / f"BENCH_{args.label}.json"
    record = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    record["environment"] = environment(command)
    record["command"] = command + ["--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
    record["workloads"][args.workload] = {
        "seeds": args.seeds,
        "correct": all(run[side]["correct"] for run in runs for side in SIDES),
        "failed": sum(run[side]["failed"] for run in runs for side in SIDES),
        "metrics": summarise(benchmark, runs),
    }
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    faulty = [(run["seed"], side, run[side]) for run in runs for side in SIDES
              if not run[side]["correct"] or run[side]["failed"] > 0]
    for seed, side, result in faulty:
        print(f"bench_pairs: {args.workload} seed {seed} {side} reported "
              f"correct={result['correct']} failed={result['failed']}", file=sys.stderr)
    return 1 if faulty else 0


if __name__ == "__main__":
    sys.exit(main())
