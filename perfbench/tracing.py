"""Per-layer spans, recorded from outside the program.

`install()` wraps the public functions of each module of
`src/multidegree/` in every module namespace that binds them (for
example `msupp_from_rank` is bound in `polymatroid`, `flagmoduli` and
`schubert`), plus the `IntPolynomial` methods and the `Support`
constructor.  Each call records a span (name, start, end, parent span,
job id) in memory.  `layer_metrics()` turns the spans into `<span>.calls`
and `<span>.self_s`, where self time is the span's duration minus the
time its direct child spans cover, and adds the counts that are read
from arguments and return values.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# (span name, module, attribute): functions wrapped wherever bound
FUNCTIONS = [
    ("linalg.rank_rational", "linalg", "rank_rational"),
    ("linalg.rank_mod_p", "linalg", "rank_mod_p"),
    ("linalg.solve_rational", "linalg", "solve_rational"),
    ("polymatroid.linear_rank", "polymatroid", "linear_rank"),
    ("polymatroid.validate_rank_function", "polymatroid", "validate_rank_function"),
    ("polymatroid.msupp_from_rank", "polymatroid", "msupp_from_rank"),
    ("polymatroid.is_mconvex", "polymatroid", "is_mconvex"),
    ("polymatroid.rank_from_support", "polymatroid", "rank_from_support"),
    ("schubert.schubert_polynomial", "schubert", "schubert_polynomial"),
    ("schubert.theta_rank_function", "schubert", "theta_rank_function"),
    ("schubert.schubert_support_polytope", "schubert", "schubert_support_polytope"),
    ("flagmoduli.flag_rank_function", "flagmoduli", "flag_rank_function"),
    ("flagmoduli.m0n_rank_function", "flagmoduli", "m0n_rank_function"),
    ("flagmoduli.flag_comparator_report", "flagmoduli", "flag_comparator_report"),
    ("hilbert.stanley_reisner_ideal", "hilbert", "stanley_reisner_ideal"),
    ("hilbert.kpolynomial", "hilbert", "kpolynomial"),
    ("hilbert.quotient_krull_dimension", "hilbert", "quotient_krull_dimension"),
    ("hilbert.multidegree_polynomial", "hilbert", "multidegree_polynomial"),
    ("mixedvol.mixed_volumes", "mixedvol", "mixed_volumes"),
    ("mixedvol.volume", "mixedvol", "volume"),
    ("mixedvol.minkowski_sum", "mixedvol", "minkowski_sum"),
    ("mixedvol.extreme_points", "mixedvol", "extreme_points"),
    ("mixedvol.polytope_dim", "mixedvol", "polytope_dim"),
    ("mixedvol.positivity_criterion", "mixedvol", "positivity_criterion"),
    ("mixedvol.segments_criterion", "mixedvol", "segments_criterion"),
]

# (span name, class module, class, method names sharing one wrapper)
METHODS = [
    ("poly.mul", "poly", "IntPolynomial", ("__mul__", "__rmul__")),
    ("poly.sub", "poly", "IntPolynomial", ("__sub__",)),
    ("poly.divided_difference", "poly", "IntPolynomial", ("divided_difference",)),
    ("poly.substitute_one_minus", "poly", "IntPolynomial", ("substitute_one_minus",)),
    ("poly.truncate_total_degree", "poly", "IntPolynomial", ("truncate_total_degree",)),
    ("polymatroid.Support", "polymatroid", "Support", ("__init__",)),
]

JOB_SPAN = "cli"
SPAN_NAMES = [JOB_SPAN] + [f[0] for f in FUNCTIONS] + [m[0] for m in METHODS]


def _count_args0(args, result):
    return len(args[0])


def _count_result(args, result):
    return len(result)


# counter name -> (span name, function of (args, result) giving the increment)
COUNTERS = {
    "linalg.rank_rational.rows": ("linalg.rank_rational", _count_args0),
    "poly.substitute_one_minus.terms_out": ("poly.substitute_one_minus", _count_result),
    "poly.truncate_total_degree.terms_in": ("poly.truncate_total_degree", _count_args0),
    "poly.truncate_total_degree.terms_kept": ("poly.truncate_total_degree", _count_result),
    "polymatroid.msupp_from_rank.points": ("polymatroid.msupp_from_rank", _count_result),
    "polymatroid.is_mconvex.points_in": ("polymatroid.is_mconvex", _count_args0),
    # the constructor returns None; count the points it stored
    "polymatroid.Support.points_in": ("polymatroid.Support", _count_args0),
    "hilbert.kpolynomial.terms_out": ("hilbert.kpolynomial", _count_result),
    "mixedvol.minkowski_sum.points_out": ("mixedvol.minkowski_sum", lambda args, result: len(result.vertices)),
}


class Tracer:
    def __init__(self) -> None:
        # span i = (name, start, end, parent index or -1, job id)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._open: list[int] = []
        self.job = -1
        self.counts = {name: 0 for name in COUNTERS}
        self._counters_of: dict[str, list[tuple[str, object]]] = {}
        for counter, (span, fn) in COUNTERS.items():
            self._counters_of.setdefault(span, []).append((counter, fn))

    def wrap(self, name: str, fn):
        counters = self._counters_of.get(name, ())
        spans, open_, counts = self.spans, self._open, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[index] = (name, start, end, parent, self.job)
            for counter, count in counters:
                counts[counter] += count(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every imported `multidegree` module that binds it."""
        modules = {n: m for n, m in sys.modules.items() if n == "multidegree" or n.startswith("multidegree.")}
        for name, module, attr in FUNCTIONS:
            original = getattr(modules[f"multidegree.{module}"], attr)
            traced = self.wrap(name, original)
            for namespace in modules.values():
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, traced)
        for name, module, cls_name, attrs in METHODS:
            cls = getattr(modules[f"multidegree.{module}"], cls_name)
            traced = self.wrap(name, getattr(cls, attrs[0]))
            for attr in attrs:
                setattr(cls, attr, traced)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """calls and self time of every span name, zero when never called,
        plus the argument and result counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _job in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = {name: 0 for name in SPAN_NAMES}
        self_s = {name: 0.0 for name in SPAN_NAMES}
        for (name, start, end, _parent, _job), children in zip(self.spans, child_time):
            calls[name] += 1
            self_s[name] += end - start - children
        metrics: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = (calls[name], "count")
            metrics[f"{name}.self_s"] = (self_s[name], "s")
        for counter in COUNTERS:
            if not counter.startswith("poly.truncate_total_degree."):
                metrics[counter] = (self.counts[counter], "count")
        kept = self.counts["poly.truncate_total_degree.terms_kept"]
        seen = self.counts["poly.truncate_total_degree.terms_in"]
        metrics["poly.truncate_total_degree.kept_frac"] = (kept / seen if seen else 0.0, "ratio")
        return metrics

    def write(self, path: Path) -> None:
        """One JSON line per span: name, start, end, parent, job."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")
