"""Jobs of the benchmark: loading the program, running one CLI call in
process, the recorded job pools and the seeded job list drawn from them.

A job is one argv for `multidegree.cli.main`.  Every job class of a
workload has a pool of jobs built once by `make_pool.py` from a fixed
pool seed; the pool file records each job's expected exit code, the
sha256 of its stdout bytes and, for report jobs, its stderr JSON.  A run
draws its job list from the pools with the run's own seed, so the same
seed gives the same jobs in the same order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
POOL_DIR = HERE / "pool"
WORKLOADS = ("enumerate", "certify", "sr-ideals", "polytopes")


def import_cli():
    """Import `multidegree.cli` from this checkout's `src/`, or exit non-zero.

    The benchmark measures the checkout it sits in; a copy of the
    package found anywhere else on the path must not stand in for it.
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from multidegree import cli
    except ImportError as exc:
        sys.exit(f"cannot import multidegree from {src}: {exc}")
    if src not in Path(cli.__file__).resolve().parents:
        sys.exit(f"multidegree was imported from {cli.__file__}, not from {src}")
    return cli


@dataclass(frozen=True)
class Outcome:
    exit: int | None
    stdout: bytes
    stderr: str
    error: str | None  # exception type name when the call raised

    @property
    def stdout_sha256(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()

    def stderr_json(self):
        """The last stderr line parsed as JSON, or None."""
        lines = self.stderr.strip().splitlines()
        if not lines:
            return None
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            return None


def call(main, argv: list[str]) -> Outcome:
    """Run `main(argv)`, normally `multidegree.cli.main`, with stdout and
    stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback from the CLI is a failed job
            error = type(exc).__name__
    return Outcome(code, out.getvalue().encode("utf-8"), err.getvalue(), error)


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    exit: int
    stdout_sha256: str
    stderr_json: object = None

    def check(self, outcome: Outcome) -> bool:
        if outcome.error is not None or outcome.exit != self.exit:
            return False
        if outcome.stdout_sha256 != self.stdout_sha256:
            return False
        return self.stderr_json is None or outcome.stderr_json() == self.stderr_json


@dataclass(frozen=True)
class JobClass:
    name: str
    per_round: int
    jobs: tuple[Job, ...]


def load_pool(workload: str) -> list[JobClass]:
    with open(POOL_DIR / f"{workload}.json", encoding="utf-8") as handle:
        document = json.load(handle)
    return [
        JobClass(
            c["name"],
            c["per_round"],
            tuple(Job(tuple(j["argv"]), j["exit"], j["stdout_sha256"], j.get("stderr_json")) for j in c["jobs"]),
        )
        for c in document["classes"]
    ]


def job_list(classes: list[JobClass], seed: int, rounds: int) -> list[Job]:
    """The timed job list of a run: `per_round * rounds` jobs from every
    class, shuffled together.

    Each class is consumed along seeded permutations of its pool, so a
    run of the standard length uses every pool job equally often and
    every seed times the same multiset of jobs in another order.
    """
    rng = random.Random(seed)
    jobs: list[Job] = []
    for c in classes:
        stream: list[Job] = []
        while len(stream) < c.per_round * rounds:
            stream += rng.sample(c.jobs, len(c.jobs))
        jobs += stream[: c.per_round * rounds]
    rng.shuffle(jobs)
    return jobs
