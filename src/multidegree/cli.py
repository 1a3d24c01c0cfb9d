"""Command-line interface: one subcommand per computation, JSON in and
JSON out.

Standard output carries exactly one JSON document; all diagnostics go
to standard error.  Identical invocations produce identical bytes (all
collections are emitted in canonical order).  Exit status: 0 success,
2 validation error, 3 enumeration-budget or unsupported-size error.

A handler passes a `Support` itself in its result document.  `_emit`
writes it as {"p":...,"points":...} with the text of
`Support.points_json`, which a support from `msupp_from_rank` writes from
its slice DAG, one JSON block per distinct slice and no point tuple.
A support that a result prints twice is rendered once: `flag` puts its
points text in both the support and the comparator's `only_rank_route`
(every flag point lies outside the literal system), and `schubert`,
when its two supports agree, writes the theta polytope's support text
into both fields.
A handler passes an `IntPolynomial` through `_polynomial_fields`, which
renders it once into its "polynomial" JSON text, written as it stands,
and its "pretty" text, with no dict per term.  Every other value goes
through json.dumps with sorted keys and no spaces.

One table, `_COMMANDS`, lists the subcommands and their options.
`_read_argv` reads from it, without argparse, `--schema NAME` and a
subcommand followed only by whole option strings of its own.  Every other
argv (`[]`, help, abbreviations, `--opt=value`, `-vv`, `--`, values that
start with "-" or do not convert, unknown tokens) goes to the argparse
parser that `build_parser` builds from it once, which writes every help,
usage and error text.
"""

from __future__ import annotations

import functools
import json
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Sequence

from . import flagmoduli, hilbert, mixedvol, polymatroid, schubert
from .errors import BudgetExceededError, UnsupportedSizeError, ValidationError
from .poly import IntPolynomial
from .schemas import SCHEMAS, check, check_property

if TYPE_CHECKING:  # handlers read both readers' namespaces by attribute
    import argparse

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3

# json.dumps(..., sort_keys=True, separators=(",", ":")) without a new encoder per call
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _fail(message: str, code: int) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return code


def _load_document(args: argparse.Namespace) -> dict:
    if args.json is not None and args.input is not None:
        raise ValidationError("give either --input or --json, not both")
    if args.json is not None:
        text, origin = args.json, "--json"
    elif args.input is None:
        raise ValidationError("this subcommand needs --input or --json")
    else:
        origin = "stdin" if args.input == "-" else args.input
        try:
            if args.input == "-":
                text = sys.stdin.read()
            else:
                with open(args.input, "r", encoding="utf-8") as handle:
                    text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"cannot read {origin}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"malformed JSON from {origin} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # e.g. an integer of more digits than int() reads
        raise ValidationError(f"unreadable JSON from {origin}: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError(f"JSON from {origin} is nested too deeply") from exc


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"malformed {what} {text!r}: expected comma-separated integers") from exc


class _JsonText(str):
    """Compact JSON text with sorted keys, which `_encode` writes as it stands."""


def _support_text(p: int, points: str) -> _JsonText:
    """The JSON text of a support on p elements whose points text is `points`."""
    return _JsonText(f'{{"p":{p},"points":{points}}}')


def _polynomial_fields(poly: IntPolynomial) -> dict:
    """The "polynomial" and "pretty" fields of a result, from one render."""
    text, pretty = poly.render()
    return {"polynomial": _JsonText(text), "pretty": pretty}


def _encode(value: object) -> str:
    """`value` as compact JSON with sorted keys: the bytes of
    json.dumps(value, sort_keys=True, separators=(",", ":")) with every
    Support and every IntPolynomial read as its `to_json_dict`.  A
    Support stands in a document itself or as a value of its top-level
    dict, whose keys are str; an IntPolynomial stands as such a value,
    in the JSON text that `_polynomial_fields` puts in."""
    if isinstance(value, polymatroid.Support):
        return _support_text(value.p, value.points_json())
    if isinstance(value, _JsonText):
        return value
    written = isinstance(value, dict) and any(
        isinstance(item, (polymatroid.Support, _JsonText)) for item in value.values()
    )
    if written:
        return "{" + ",".join(
            f"{_dumps(key)}:{_encode(item)}" for key, item in sorted(value.items())
        ) + "}"
    return _dumps(value)


def _emit(document: object, args: argparse.Namespace) -> int:
    payload = _encode(document) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            raise ValidationError(f"cannot write {args.output}: {exc}") from exc
    sys.stdout.write(payload)
    return EXIT_OK


# -- subcommand handlers -----------------------------------------------------


def _cmd_schubert(args: argparse.Namespace) -> int:
    if args.perm is not None:
        pi = schubert.Permutation(_parse_int_list(args.perm, "permutation"))
    else:
        pi = schubert.Permutation.from_json_dict(_load_document(args))
    poly = schubert.schubert_polynomial(pi)
    support = poly.support()  # exponent coordinates m
    polytope = schubert.schubert_support_polytope(pi)  # multidegree types n = (p-1)*1 - m
    bound = pi.p - 1
    if args.exponent_coordinates:
        convention, polytope = "exponent", polytope.complement(bound)
    else:
        convention, support = "msupp", support.complement(bound)
    agrees = support == polytope
    if agrees:
        # one text for both fields; in the msupp convention the polytope's
        # support is the one written from its slice DAG
        support = polytope = _support_text(polytope.p, polytope.points_json())
    result = {
        "permutation": pi.to_json_dict(),
        "length": schubert.length(pi),
        **_polynomial_fields(poly),
        "has_negative_coefficients": bool(poly.negative_exponents()),
        "support_convention": convention,
        "support": support,
        "theta_polytope_support": polytope,
        "agrees": agrees,
    }
    return _emit(result, args)


def _cmd_theta(args: argparse.Namespace) -> int:
    if args.subset is None:
        raise ValidationError("theta needs --subset (possibly empty string for the empty set)")
    subset = _parse_int_list(args.subset, "subset")
    if args.perm is not None:
        pi = schubert.Permutation(_parse_int_list(args.perm, "permutation"))
        diagram = schubert.rothe_diagram(pi)
    else:
        diagram = schubert.Diagram.from_json_dict(_load_document(args))
    result = {
        "diagram": diagram.to_json_dict(),
        "subset": sorted(subset),
        "theta": schubert.theta(diagram, subset),
    }
    if args.perm is not None:
        result["length"] = schubert.length(pi)
        result["projection_codim"] = schubert.projection_codim(pi, subset)
    return _emit(result, args)


def _cmd_msupp_rank(args: argparse.Namespace) -> int:
    rank = polymatroid.RankFunction.from_json_dict(_load_document(args))
    try:
        support = polymatroid.msupp_from_rank(rank)
    except polymatroid.InvalidRankError as exc:
        print(json.dumps(exc.report.to_json_dict(), sort_keys=True), file=sys.stderr)
        return EXIT_VALIDATION
    return _emit(
        {"support": support, "count": len(support), "weight": support.weight},
        args,
    )


def _cmd_msupp_linear(args: argparse.Namespace) -> int:
    family = polymatroid.SubspaceFamily.from_json_dict(_load_document(args))
    rank = polymatroid.linear_rank(family)
    support = polymatroid.msupp_from_rank(rank)
    return _emit(
        {
            "rank_function": rank.to_json_dict(),
            "support": support,
            "count": len(support),
        },
        args,
    )


def _cmd_mconvex(args: argparse.Namespace) -> int:
    support = polymatroid.Support.from_json_dict(_load_document(args))
    report = polymatroid.is_mconvex(support)
    return _emit(report.to_json_dict(), args)


def _cmd_kpoly(args: argparse.Namespace) -> int:
    ideal = hilbert.MonomialIdeal.from_json_dict(_load_document(args))
    poly = hilbert.kpolynomial(ideal)
    return _emit(_polynomial_fields(poly), args)


def _cmd_multidegree(args: argparse.Namespace) -> int:
    ideal = hilbert.MonomialIdeal.from_json_dict(_load_document(args))
    print(
        "warning: output is the sum of mult_P * prod_{i in P} <deg x_i, t> over "
        "the minimum primes P; it equals the multidegree polynomial only when the "
        "quotient has no irrelevant torsion, which is not verified here",
        file=sys.stderr,
    )
    poly = hilbert.multidegree_polynomial(ideal)
    return _emit(
        {**_polynomial_fields(poly), "codimension": poly.total_degree()},
        args,
    )


def _cmd_sr_ideal(args: argparse.Namespace) -> int:
    complex_ = hilbert.SimplicialComplex.from_json_dict(_load_document(args))
    ideal = hilbert.stanley_reisner_ideal(complex_, vars_per_vertex=args.vars_per_vertex)
    return _emit(ideal.to_json_dict(), args)


def _cmd_facet_support(args: argparse.Namespace) -> int:
    complex_ = hilbert.SimplicialComplex.from_json_dict(_load_document(args))
    support = hilbert.facet_support(complex_)
    return _emit({"support": support, "count": len(support)}, args)


def _parse_polytopes(document: dict) -> list[mixedvol.LatticePolytope]:
    """The polytopes of a `polytope_tuple` document.  Its n is not read
    here: `mixedvol` and `positivity --n` ignore it."""
    if isinstance(document, dict) and "n" in document:
        document = {key: value for key, value in document.items() if key != "n"}
    check("polytope_tuple", document)
    return [mixedvol.LatticePolytope(k["d"], k["vertices"]) for k in document["polytopes"]]


def _cmd_mixedvol(args: argparse.Namespace) -> int:
    table = mixedvol.mixed_volumes(_parse_polytopes(_load_document(args)))
    return _emit(table.to_json_dict(), args)


def _cmd_positivity(args: argparse.Namespace) -> int:
    document = _load_document(args)
    polytopes = _parse_polytopes(document)
    if args.n is not None:
        n = _parse_int_list(args.n, "type vector")
    elif "n" in document:
        check_property("polytope_tuple", document, "n")
        n = document["n"]
    else:
        raise ValidationError("positivity needs --n or an 'n' field in the input")
    # the two criteria are one rank test, so the decision is made once
    positive = mixedvol.positivity_criterion(polytopes, n)
    return _emit({"n": list(n), "positive": positive, "segments": positive}, args)


def _cmd_flag(args: argparse.Namespace) -> int:
    if args.p is None:
        raise ValidationError("flag needs --p")
    support = flagmoduli.flag_msupp(args.p)
    points = _JsonText(support.points_json())
    # every point has weight r([p]) = binom(p+1, 2), which the literal
    # system never reaches, so its report lists every point
    comparator = {
        "p": support.p,
        "count_rank_route": len(support),
        "count_literal_route": 0,
        "agree": False,
        "only_rank_route": points,
        "only_literal_route": [],
    }
    return _emit(
        {
            "support": _support_text(support.p, points),
            "count": len(support),
            "comparator": _JsonText(_encode(comparator)),
        },
        args,
    )


def _cmd_m0n(args: argparse.Namespace) -> int:
    if args.p is None:
        raise ValidationError("m0n needs --p")
    support = flagmoduli.m0n_msupp(args.p)
    if args.count_only:
        return _emit(len(support), args)
    return _emit({"support": support, "count": len(support)}, args)


# options that subcommands share, as (option strings, add_argument keywords)
_OUTPUT = ("--output", {"help": "also write the JSON result to this path"})
_VERBOSE = ("-v --verbose", {"action": "count", "default": 0})
_INPUT = ("--input", {"help": "path of the input JSON document ('-' for stdin)"})
_JSON = ("--json", {"help": "inline input JSON document"})


class _Command:
    """A subcommand: its help text, its handler and its arguments as
    (option strings, add_argument keywords) pairs, shared ones first.
    For `_read_argv`: `defaults`, the namespace before any option, and
    `options`, each option string's dest and action (store_true, count)
    or value type (str, int)."""

    # a plain class: a NamedTuple would double this module's import time
    def __init__(self, help: str, handler: Callable[[argparse.Namespace], int],
                 arguments: tuple = (), takes_input: bool = True):
        self.help, self.handler = help, handler
        self.arguments = (_OUTPUT, _VERBOSE, *((_INPUT, _JSON) if takes_input else ()), *arguments)
        self.defaults, self.options = {"schema": None}, {}
        for names, keywords in self.arguments:
            names = names.split()
            # argparse's dest: the first long option string, else the first
            dest = ([n for n in names if n[:2] == "--"] or names)[0].lstrip("-").replace("-", "_")
            kind = keywords.get("action") or keywords.get("type", str)
            self.defaults[dest] = keywords.get("default", False if kind == "store_true" else None)
            self.options.update(dict.fromkeys(names, (dest, kind)))


_P = ("--p", {"type": int, "help": "number of projective factors"})

# every subcommand, in the order of the help text
_COMMANDS = {
    "schubert": _Command("Schubert polynomial and its supports", _cmd_schubert, (
        ("--perm", {"help": "one-line notation, e.g. 3,2,1"}),
        ("--exponent-coordinates", {"action": "store_true", "help": "report supports as "
                                    "polynomial exponents m instead of multidegree types n"}),
    )),
    "theta": _Command("column-word statistic of a diagram", _cmd_theta, (
        ("--perm", {"help": "use the Rothe diagram of this permutation"}),
        ("--subset", {"help": "comma-separated rows, e.g. 2,3 (empty for the empty set)"}),
    )),
    "msupp-rank": _Command(
        "lattice points of the base polytope of a rank function", _cmd_msupp_rank
    ),
    "msupp-linear": _Command("rank function and support of a subspace family", _cmd_msupp_linear),
    "mconvex": _Command("M-convexity test with an exchange-axiom witness", _cmd_mconvex),
    "kpoly": _Command("K-polynomial of a monomial ideal", _cmd_kpoly),
    "multidegree": _Command("multidegree polynomial of a monomial ideal", _cmd_multidegree),
    "facet-support": _Command(
        "incidence vectors of the top-dimensional facets", _cmd_facet_support
    ),
    "mixedvol": _Command("mixed-volume table of a polytope tuple", _cmd_mixedvol),
    "sr-ideal": _Command("Stanley-Reisner ideal of a simplicial complex", _cmd_sr_ideal, (
        ("--vars-per-vertex", {"type": int, "default": 1, "help": "variables per vertex "
                               "(2 gives the one-projective-line-per-vertex grading)"}),
    )),
    "positivity": _Command("positivity and independent-segments criteria", _cmd_positivity, (
        ("--n", {"help": "type vector, e.g. 1,1,1"}),
    )),
    "flag": _Command(
        "flag variety support and comparator report", _cmd_flag, (_P,), takes_input=False
    ),
    "m0n": _Command("moduli-of-rational-curves support (Catalan count)", _cmd_m0n, (
        _P, ("--count-only", {"action": "store_true", "help": "print only the cardinality"}),
    ), takes_input=False),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the CLI, built from `_COMMANDS` on the first
    call and shared by every later one.  `main` uses it for the argvs that
    `_read_argv` does not read, and for the usage text of a bare call."""
    import argparse  # only here: the usual calls never need it

    parser = argparse.ArgumentParser(
        prog="multidegree",
        description="Exact multidegree supports from combinatorial data.",
    )
    parser.add_argument(
        "--schema",
        metavar="NAME",
        choices=sorted(SCHEMAS),
        help="print the JSON schema for an input type and exit "
        f"(one of: {', '.join(sorted(SCHEMAS))})",
    )
    sub = parser.add_subparsers(dest="subcommand")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for names, keywords in command.arguments:
            p.add_argument(*names.split(), **keywords)
    return parser


def _read_argv(argv: Sequence[str]) -> SimpleNamespace | None:
    """The fields that `build_parser().parse_args(argv)` gives when argv is
    `--schema NAME` or a subcommand followed only by whole option strings
    of its own, each value the next token and not starting with "-" unless
    it is "-"; None for every other argv."""
    if len(argv) == 2 and argv[0] == "--schema" and argv[1] in SCHEMAS:
        return SimpleNamespace(schema=argv[1], subcommand=None)
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    fields = dict(command.defaults, subcommand=argv[0])
    tokens = iter(argv[1:])
    for token in tokens:
        dest, kind = command.options.get(token, (None, None))
        if kind == "store_true":
            fields[dest] = True
        elif kind == "count":
            fields[dest] += 1
        elif kind is None:
            return None
        else:
            value = next(tokens, None)
            if value is None or (value[:1] == "-" and value != "-"):
                return None
            try:
                fields[dest] = kind(value)
            except ValueError:
                return None
    return SimpleNamespace(**fields)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv) or build_parser().parse_args(argv)
    if args.schema is not None:
        sys.stdout.write(_dumps(SCHEMAS[args.schema]) + "\n")
        return EXIT_OK
    if args.subcommand is None:
        build_parser().print_usage(sys.stderr)
        return EXIT_VALIDATION
    try:
        return _COMMANDS[args.subcommand].handler(args)
    except ValidationError as exc:
        return _fail(str(exc), EXIT_VALIDATION)
    except (BudgetExceededError, UnsupportedSizeError) as exc:
        return _fail(str(exc), EXIT_BUDGET)


if __name__ == "__main__":
    sys.exit(main())
