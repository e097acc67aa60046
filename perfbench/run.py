"""Benchmark of shrinkerlab: four verified workloads, timed from outside.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid_solve --seed 1 --seconds 10 --trace 0

The benchmark imports the package from the checkout's `src/`, generates the
workload's inputs from the seed, sets up (import, inputs, one untimed
warm-up task), then runs whole passes over the workload's tasks back to
back, one client in one process (a closed loop), until `--seconds` have
passed and at least MIN_PASSES passes are done.  Every task checks its
results at the acceptance suite's tolerances; a failed check is printed by
name and counted.

With `--trace 0` the end-to-end metrics of BENCHMARK.json are reported:

    setup_s      median over three set-ups (this process and then two child
                 processes doing the same set-up), each from the start of
                 its process, interpreter start-up included, to the moment
                 the first task could start
    wall_s       one pass over the workload: the wall time of the timed
                 phase divided by the number of passes
    peak_rss_mb  peak resident set of this process (getrusage)

The summary printed above the result line also gives `failed_frac` and,
for grid_solve and mc_hitting, the workload's rate (work of one pass /
wall_s): solved unknowns per second and OU paths per second.

With `--trace 1` every task runs twice in turn, untraced and traced, for at
least one pass, and the per-layer metrics of BENCHMARK.json are reported
per pass, together with trace.overhead_frac (traced pass time / untraced
pass time - 1).  The spans are written to
.bench_out/trace-<workload>-<seed>.json.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  BLAS threads are capped at the number of CPUs.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 1
# Every task is timed at least twice: on grid_solve and reilly_ball, whose
# passes outlast --seconds, the mean of two passes spreads less over ten
# seeds than a single pass.
MIN_PASSES = 2
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 170
WORKLOADS = ("grid_solve", "mc_hitting", "reilly_ball", "small_checks")
# work per second printed in the summary, for the workloads that have one
RATES = {"grid_solve": "unknowns_per_s", "mc_hitting": "paths_per_s"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the timed phase (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken inputs, for the benchmark's own tests")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit (used for child set-ups)")
    return ap.parse_args(argv)


def process_seconds():
    """Seconds since this process was started (to the clock tick)."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def run_task(task, tracer=None):
    """Run one task; returns (seconds, work, failed check names)."""
    note = tracer.note if tracer is not None else (lambda key, value: None)
    t0 = time.perf_counter()
    try:
        work, failed = task.run(note)
    except Exception as exc:  # a crash is a failed task, reported by name
        work, failed = 0, [f"raised {type(exc).__name__}: {exc}"]
    return time.perf_counter() - t0, work, failed


def set_up(args, trace):
    """Import the package, generate the inputs and run the warm-up task."""
    sys.path.insert(0, str(ROOT / "src"))
    import shrinkerlab
    import workloads
    from tracer import Tracer

    wl = workloads.build(args.workload, args.seed, args.tiny)
    tracer = Tracer(shrinkerlab) if trace else None
    warmup = next(t for t in wl.tasks if t.name == wl.warmup)
    if tracer is not None:
        tracer.install()
        tracer.begin_task("warmup:" + warmup.name)
    try:
        _, _, failed = run_task(warmup, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    tally = Tally()
    tally.add("warmup:" + warmup.name, failed)
    return wl, tracer, tally


class Tally:
    """Task runs attempted and the checks that failed, by task."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []       # (task, check name)

    def add(self, task, failed):
        self.attempted += 1
        self.failed += bool(failed)
        self.failures += [(task, name) for name in failed]


def timed_phase(wl, seconds, tracer, tally):
    """Closed loop of whole passes over the tasks; returns per-task times
    (untraced and traced) and the work of one run of each task."""
    times = {t.name: [] for t in wl.tasks}
    traced_times = {t.name: [] for t in wl.tasks}
    work = {}
    min_passes = 1 if tracer is not None else MIN_PASSES
    start = time.perf_counter()
    passes = 0
    while passes < min_passes or time.perf_counter() - start < seconds:
        for task in wl.tasks:
            secs, work[task.name], failed = run_task(task)
            times[task.name].append(secs)
            tally.add(task.name, failed)
            if tracer is not None:
                tracer.install()
                tracer.begin_task(task.name)
                try:
                    secs, _, failed = run_task(task, tracer)
                finally:
                    tracer.uninstall()
                traced_times[task.name].append(secs)
                tally.add(task.name, failed)
        passes += 1
    return times, traced_times, work


def pass_seconds(times):
    """Mean time of one pass: the time of all task runs / the passes."""
    passes = len(next(iter(times.values())))
    return sum(sum(v) for v in times.values()) / passes


def child_setup(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "shrinkerlab" / "__init__.py").is_file():
        print(f"error: no shrinkerlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    threads = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads

    if args.setup_only:
        set_up(args, trace=False)
        print(json.dumps({"setup_s": process_seconds()}))
        return 0

    wl, tracer, tally = set_up(args, trace=args.trace)
    setups = [process_seconds()]
    setups += [child_setup(args) for _ in range(0 if args.trace else SETUP_CHILDREN)]

    times, traced_times, work = timed_phase(wl, args.seconds, tracer, tally)
    wall = pass_seconds(times)
    passes = [sum(run) for run in zip(*times.values())]
    print(f"{wl.name} seed {args.seed}: {len(wl.tasks)} tasks, {len(passes)} passes, "
          f"{tally.attempted} task runs, inputs {json.dumps(wl.inputs)}")
    print("  pass times (s): " + " ".join(f"{t:.4f}" for t in passes))
    for task, name in tally.failures:
        print(f"FAILED {task}: {name}")

    if args.trace:
        values = tracer.per_layer([t.name for t in wl.tasks])
        values["trace.overhead_frac"] = pass_seconds(traced_times) / wall - 1.0
        declared = spec["per_layer"]
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{wl.name}-{args.seed}.json")
        for name in sorted(set(tracer.absent)):
            print(f"absent hook: {name}")
    else:
        values = {"setup_s": statistics.median(setups), "wall_s": wall,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        declared = spec["end_to_end"]
        summary = dict(values, failed_frac=tally.failed / tally.attempted)
        units = {m["name"]: m["unit"] for m in declared}
        units["failed_frac"] = "ratio"
        if wl.name in RATES:
            summary[RATES[wl.name]] = sum(work.values()) / wall
            units[RATES[wl.name]] = "1/s"
        print("  set-ups (s): " + " ".join(f"{t:.4f}" for t in setups))
        for name, value in summary.items():
            print(f"  {name:<16} {value:.6g} {units[name]}")

    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in declared}
    if args.trace:
        for name, m in metrics.items():
            if m["value"]:
                print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
