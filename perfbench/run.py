"""Benchmark of the `multidegree` CLI: seeded job lists run in process.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

One client runs the jobs one after another in this single-threaded
process (a closed loop), each through `multidegree.cli.main(argv)`, and
checks every job's exit code, stdout bytes and report stderr against the
pool.  A run is a fresh process, so in-process caches start cold every
time.  `--seconds` sets the length of the job list: ceil(seconds / 4)
rounds, each a fixed mix of job classes.  The list does not shrink or
grow with the program's speed, so two commits time the same jobs.

With `--trace 0` the run reports the end-to-end metrics.  With
`--trace 1` it runs the first half of that job list twice, untraced in a
child process and traced in this one, and reports the per-layer metrics.
Every run ends with the untimed contract slice (`contract.py`).  The
last line of stdout is one JSON object; the lines before it are for
people.  README.md says what each metric means and what should move it.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import contract
import tracing
from jobs import ROOT, WORKLOADS, call, import_cli, job_list, load_pool

ROUND_SECONDS = 4.0
SETUP_SPAWNS = 11
# reported times are scaled to the speed at which reference() takes this long
REFERENCE_S = 0.0026
REFERENCE_EVERY_S = 0.1
SPEED_WINDOW_S = 1.0
SPAN_DIR = ROOT / ".bench_out"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benchmark of the multidegree CLI.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # child of a traced run: time the traced job list untraced
    parser.add_argument("--baseline", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def reference() -> float:
    """Time one fixed piece of pure-Python work: tuple keys, dict updates,
    Fraction sums and a sort, the kinds of operation the library spends
    its time in."""
    start = time.perf_counter()
    table: dict[tuple[int, int, int], int] = {}
    for i in range(3500):
        key = (i % 97, i % 89, i // 7)
        table[key] = table.get(key, 0) + i
    total = Fraction(0)
    for i in range(1, 180):
        total += Fraction(1, i)
    sorted(table.items())
    return time.perf_counter() - start


class Speedometer:
    """Times reference() between jobs, about once per REFERENCE_EVERY_S,
    and rescales job times to the machine speed at which the reference
    takes REFERENCE_S.

    Hosts shared with other tenants change speed by up to half for
    seconds at a time, which moves raw times more than the bounds
    allow.  The reference slows down with the program, so dividing by
    the median reference time around a job cancels most of that; a
    change to the program cannot move the reference.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self.due = time.perf_counter()
        self.sample()

    def sample(self) -> None:
        """Time the reference as often as is due since the last call."""
        now = time.perf_counter()
        while self.due <= now:
            self.at.append(now)
            self.took.append(reference())
            self.due += REFERENCE_EVERY_S

    def scale(self, start: float, seconds: float) -> float:
        """`seconds` measured from `start`, at the reference speed."""
        lo = bisect.bisect_left(self.at, start - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.at, start + seconds + SPEED_WINDOW_S)
        return seconds * REFERENCE_S / statistics.median(self.took[lo:hi])


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all
    order statistics with Beta(p(n+1), (1-p)(n+1)) weights.

    Single order statistics move with the noise of the one or two jobs
    that happen to sit at that rank; these weights spread over the
    neighbouring ranks and keep the estimate steady from run to run.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    grid = 50  # midpoint-rule steps per order statistic
    weights = []
    for i in range(n):
        mass = 0.0
        for k in range(grid):
            x = (i + (k + 0.5) / grid) / n
            mass += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
        weights.append(mass)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def setup_seconds() -> tuple[float, float, bool]:
    """Median time from spawning a fresh interpreter to the first line of
    `python -m multidegree.cli --schema rank_function`, scaled and raw,
    and whether every spawn printed that schema and exited 0."""
    env = {"PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-m", "multidegree.cli", "--schema", "rank_function"]
    speed, spawns, ok = Speedometer(), [], True
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=ROOT, env=env) as proc:
            first = proc.stdout.readline()
            spawns.append((start, time.perf_counter() - start))
            rest, _ = proc.communicate(timeout=60)
        speed.sample()
        try:
            ok &= proc.returncode == 0 and not rest and json.loads(first)["title"] == "rank_function"
        except (json.JSONDecodeError, KeyError, TypeError):
            ok = False
    scaled = [speed.scale(start, seconds) for start, seconds in spawns]
    return statistics.median(scaled), statistics.median(seconds for _, seconds in spawns), ok


def run_jobs(main, jobs) -> tuple[list[float], list[float], int]:
    """Run the jobs one after another with the reference between them;
    return per-job seconds scaled and raw, and the number of jobs whose
    outcome differs from the pool."""
    speed, timed, failed = Speedometer(), [], 0
    for job in jobs:
        # garbage of earlier jobs is collected here, off the clock, as a
        # fresh CLI process would never see it
        gc.collect()
        start = time.perf_counter()
        outcome = call(main, list(job.argv))
        seconds = time.perf_counter() - start
        timed.append((start, seconds))
        speed.sample()
        failed += not job.check(outcome)
    return [speed.scale(start, seconds) for start, seconds in timed], [seconds for _, seconds in timed], failed


def timed_run(cli, jobs) -> tuple[dict, list[str], int, bool]:
    setup_s, setup_raw, setup_ok = setup_seconds()
    latencies, raw, failed = run_jobs(cli.main, jobs)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = sum(latencies)
    ms = [x * 1e3 for x in latencies]
    raw_ms = [x * 1e3 for x in raw]
    p50, p90 = quantile(ms, 0.5), quantile(ms, 0.9)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "job_p50_ms": (p50, "ms"),
        "job_p90_ms": (p90, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    lines = [
        "metric        scaled        raw",
        f"setup_s       {setup_s:10.4f}  {setup_raw:10.4f} s    median of {SETUP_SPAWNS} spawns",
        f"wall_s        {wall:10.4f}  {sum(raw):10.4f} s    {len(jobs)} jobs",
        f"job_p50_ms    {p50:10.4f}  {quantile(raw_ms, 0.5):10.4f} ms   n={len(ms)}",
        f"job_p90_ms    {p90:10.4f}  {quantile(raw_ms, 0.9):10.4f} ms   n={len(ms)}, {sum(x > p90 for x in ms)} beyond",
        f"peak_rss_mb   {peak_mb:10.4f}              MB",
    ]
    return metrics, lines, failed, setup_ok


def traced_run(cli, jobs, args) -> tuple[dict, list[str], int, bool]:
    child = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0", "--baseline"],
        capture_output=True, text=True, timeout=170,
    )
    if child.returncode != 0:
        sys.exit(f"untraced baseline failed:\n{child.stderr}")
    baseline = json.loads(child.stdout.splitlines()[-1])
    tracer = tracing.Tracer()
    tracer.install()
    traced_main = tracer.wrap(tracing.JOB_SPAN, cli.main)

    def main(argv):
        tracer.job += 1
        return traced_main(argv)

    latencies, _, failed = run_jobs(main, jobs)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = (sum(latencies) / baseline["wall_s"] - 1, "ratio")
    span_file = SPAN_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(span_file)
    lines = [f"{name:45s} {value:12.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}")
    return metrics, lines, failed, baseline["failed"] == 0


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    cli = import_cli()
    classes = load_pool(args.workload)
    rounds = math.ceil(args.seconds / ROUND_SECONDS)
    if args.baseline or args.trace:
        rounds = math.ceil(rounds / 2)
    jobs = job_list(classes, args.seed, rounds)

    if args.baseline:
        latencies, _, failed = run_jobs(cli.main, jobs)
        print(json.dumps({"wall_s": sum(latencies), "failed": failed}))
        return 0
    if args.trace:
        metrics, lines, failed, ok = traced_run(cli, jobs, args)
    else:
        metrics, lines, failed, ok = timed_run(cli, jobs)

    cases = contract.cases(cli.main, args.workload, classes, args.seed)
    failures = {c.name: why for c in cases if (why := contract.failure(cli.main, c)) is not None}
    unexpected = set(failures) - set(contract.KNOWN_FAILURES)
    fixed = {c.name for c in cases if c.name in contract.KNOWN_FAILURES and c.name not in failures}

    print(f"workload {args.workload}  seed {args.seed}  {len(jobs)} timed jobs  {len(cases)} contract cases")
    for line in lines:
        print(line)
    print(
        f"failed_frac   {(failed + len(failures)) / (len(jobs) + len(cases)):10.4f}  ratio  "
        f"{failed} of {len(jobs)} jobs, {len(failures)} of {len(cases)} contract cases"
    )
    for name, why in sorted(failures.items()):
        print(f"  contract {'NEW' if name in unexpected else 'known'} failure {name}: {why}")
    for name in sorted(fixed):
        print(f"  contract fixed {name}, which {contract.KNOWN_FAILURES[name]} at the recording commit")

    print(json.dumps({
        "correct": ok and failed == 0 and not unexpected,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
