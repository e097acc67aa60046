"""Time two checkouts against each other in alternating benchmark pairs.

Run from anywhere (stdlib only):

    python3 tools/benchpairs.py --parent ../old --change . --tag 39 \\
        --workloads grid_solve:10,small_checks:10,reilly_ball:3,mc_hitting:3

Each checkout is a directory with `perfbench/` and the `src/` it imports.
For each workload and pair, `python3 perfbench/run.py --workload W --seed S
--trace 0` runs once in each checkout, one after the other (run.py takes
its run length from the checkout's BENCHMARK.json `run_seconds`):
the parent first in even-indexed pairs (0, 2, ...), the change first in
the others, so a drift of the machine's load falls on both sides alike.
The last line of each run's standard output is its JSON result.

It writes `BENCH_<tag>.json` in the current directory (rewritten after
every pair, so an interrupted series keeps its finished pairs) with the
machine facts and, per workload and end-to-end metric, each side's runs,
median and quartiles (`statistics.quantiles`, n = 4), `change_lower` (the
pairs in which the change reads strictly lower, as "k/n"),
`median_change_frac` (change median / parent median - 1), `parent_iqr` and
each side's failed counts.
It reads the metric names from the change's BENCHMARK.json and imports
nothing from the package.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ORDER = "alternating, parent first in even-indexed pairs (0, 2, ...)"


def run_once(checkout, workload, seed):
    """The JSON result of one untraced benchmark run in `checkout`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(runs):
    """Median and quartiles of one side's runs, rounded to 4 decimals."""
    q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
    return {"median": round(statistics.median(runs), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "runs": [round(r, 4) for r in runs]}


def compare(parent, change, metrics):
    """One workload's entry: per metric both sides and their comparison."""
    pairs = len(parent)
    entry = {"pairs": pairs, "order": ORDER}
    for name in metrics:
        p = [run["metrics"][name]["value"] for run in parent]
        c = [run["metrics"][name]["value"] for run in change]
        sp, sc = summary(p), summary(c)
        entry[name] = {
            "parent": sp, "change": sc,
            "change_lower": f"{sum(b < a for a, b in zip(p, c))}/{pairs}",
            "median_change_frac": round(statistics.median(c) / statistics.median(p) - 1.0, 4),
            "parent_iqr": round(sp["q3"] - sp["q1"], 4),
        }
    entry["failed"] = {"parent": [run["failed"] for run in parent],
                       "change": [run["failed"] for run in change]}
    return entry


def machine():
    libc, version = platform.libc_ver()
    facts = {"cores": os.cpu_count(), "kernel": platform.release(),
             "libc": f"{libc} {version}".strip(), "python": platform.python_version()}
    for dist in ("numpy", "scipy"):
        try:
            facts[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            facts[dist] = None
    return facts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="the parent's checkout")
    ap.add_argument("--change", required=True, type=Path, help="the change's checkout")
    ap.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    ap.add_argument("--workloads", required=True,
                    help="comma-separated workload:pairs, e.g. grid_solve:10,mc_hitting:3")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--parent-rev", default="", help="the parent's revision, recorded as is")
    ap.add_argument("--change-text", default="", help="one line on the change, recorded as is")
    ap.add_argument("--claim", default="none", help="the claimed gain, recorded as is")
    args = ap.parse_args(argv)

    plan = []
    for item in args.workloads.split(","):
        workload, _, pairs = item.partition(":")
        plan.append((workload, int(pairs or 1)))
    config = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in config["end_to_end"]]
    bench = {
        "change": args.change_text, "parent": args.parent_rev, "claim": args.claim,
        "machine": machine(),
        "method": (f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--trace 0 ({config['run_seconds']} s runs, BENCHMARK.json's "
                   f"run_seconds) in each checkout, {ORDER}; each "
                   "side's median and quartiles (statistics.quantiles, n=4) over its runs; "
                   "change_lower counts the pairs where the change reads strictly lower"),
        "end_to_end": {},
    }
    out = Path(f"BENCH_{args.tag}.json")
    for workload, pairs in plan:
        runs = {"parent": [], "change": []}
        for i in range(pairs):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                checkout = args.parent if side == "parent" else args.change
                runs[side].append(run_once(checkout, workload, args.seed))
            key = f"{workload}@seed{args.seed}"
            bench["end_to_end"][key] = compare(runs["parent"], runs["change"], metrics)
            out.write_text(json.dumps(bench, indent=2) + "\n")
            wall = bench["end_to_end"][key][metrics[0]]
            print(f"{workload} pair {i + 1}/{pairs}: {metrics[0]} parent "
                  f"{wall['parent']['runs'][-1]} change {wall['change']['runs'][-1]}", flush=True)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
