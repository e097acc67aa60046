"""Run the benchmark over several seeds and report each end-to-end metric's
median, quartiles and spread (interquartile distance / median).

Run from the repository root, one run at a time:

    python3 perfbench/spread.py --workloads grid_solve mc_hitting --seeds 1 2 3 4 5

The summary is printed and written as JSON to --out (default
.bench_out/spread.json); its "workloads" section has the layout of the
measured part of perfbench/BASELINE.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds):
    """The result line of one untraced run, with the printed summary
    ("  name value unit" lines) under "summary"."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                         check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["summary"] = {parts[0]: float(parts[1]) for parts in map(str.split, lines[1:-1])
                         if len(parts) == 3 and not parts[0].startswith("FAILED")}
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "runs": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", default=str(ROOT / ".bench_out" / "spread.json"))
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds) for seed in args.seeds]
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in bounds}
        summary = {name: summarize([r["summary"][name] for r in runs])
                   for name in runs[0]["summary"] if name not in bounds}
        report[workload] = {"seeds": args.seeds, "correct": all(r["correct"] for r in runs),
                            "failed": sum(r["failed"] for r in runs), "metrics": metrics,
                            "summary": summary}
        print(f"{workload}: correct {report[workload]['correct']}")
        for name, s in metrics.items():
            print(f"  {name:<12} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  "
                  f"q3 {s['q3']:10.4f}  spread {s['spread']:.4f} "
                  f"(bound {bounds[name]}, spread/bound {s['spread'] / bounds[name]:.2f})",
                  flush=True)
    out = Path(args.out)
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seconds": args.seconds, "workloads": report}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
