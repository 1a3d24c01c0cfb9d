"""The contracts of errors.py: one function decides every budget,
`_integer` reads every public integer argument, and every value class
is immutable and compared, hashed, printed and pickled by its fields.
A number too long to print raises UnsupportedSizeError.  The library
imports nothing outside the standard library, parses as Python 3.10,
and the CLI does not import `dataclasses` or `inspect`."""

import ast
import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from multidegree import (
    BudgetExceededError,
    Diagram,
    Grading,
    IntPolynomial,
    LatticePolytope,
    MConvexReport,
    MixedVolumeTable,
    MonomialIdeal,
    Permutation,
    RankFunction,
    RankReport,
    SimplicialComplex,
    SubspaceFamily,
    Support,
    UnsupportedSizeError,
    ValidationError,
    errors,
    flag_msupp,
    kpolynomial,
    m0n_msupp,
    minkowski_sum,
    msupp_from_rank,
    multidegree_polynomial,
    projection_codim,
    rothe_diagram,
    theta,
)
from multidegree.errors import check_budget
from multidegree.polymatroid import RankViolation

SRC = Path(__file__).resolve().parents[1] / "src" / "multidegree"


def test_only_errors_raises_budget_exceeded():
    raisers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
                if name == "BudgetExceededError":
                    raisers.append(f"{path.name}:{node.lineno}")
    assert [r.split(":")[0] for r in raisers] == ["errors.py"], raisers


def test_check_budget_reads_the_default_at_call_time(monkeypatch):
    check_budget(errors.DEFAULT_ENUMERATION_BUDGET, "steps")
    monkeypatch.setattr(errors, "DEFAULT_ENUMERATION_BUDGET", 4)
    check_budget(4, "steps")
    with pytest.raises(BudgetExceededError, match="^steps: 5 exceeds the budget of 4$"):
        check_budget(5, "steps")
    check_budget(5, "nodes", budget=5)
    with pytest.raises(BudgetExceededError, match="^nodes: 6 exceeds the budget of 5$"):
        check_budget(6, "nodes", budget=5)


SEGMENT = LatticePolytope(1, [(0,), (1,)])
DIAGRAM = rothe_diagram(Permutation((2, 1, 3)))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: Support(True, [(1,)]), id="support-bool-p"),
        pytest.param(lambda: Support(2.0, [(1, 0)]), id="support-float-p"),
        pytest.param(lambda: RankFunction(True, [0, 1]), id="rank-bool-p"),
        pytest.param(lambda: RankFunction(2.0, [0, 1, 1, 1]), id="rank-float-p"),
        pytest.param(lambda: RankFunction(1, [0, 1]).of_set([1.0]), id="of-set-float"),
        pytest.param(lambda: flag_msupp(True), id="flag-bool-p"),
        pytest.param(lambda: m0n_msupp(2.0), id="m0n-float-p"),
        pytest.param(lambda: theta(DIAGRAM, [1.0]), id="theta-float-row"),
        pytest.param(lambda: projection_codim(Permutation((2, 1, 3)), [1.0]), id="projection-float-row"),
        pytest.param(lambda: minkowski_sum([SEGMENT], [True]), id="weight-bool"),
        pytest.param(lambda: minkowski_sum([SEGMENT], [1.5]), id="weight-float"),
        pytest.param(lambda: Grading(2, 1, [[1], [1.0]]), id="grading-float-degree"),
        pytest.param(lambda: Grading(2, 1, [[1], [True]]), id="grading-bool-degree"),
    ],
)
def test_non_integer_argument_refused(call):
    # `_integer`'s own message: a check further on may also say "is not
    # an integer", as the vertex check does for a scaled float weight
    with pytest.raises(ValidationError, match="^entry .* is not an integer$"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: Support(-1, []), "negative", id="support-p"),
        pytest.param(lambda: minkowski_sum([SEGMENT], [-1]), "nonnegative", id="weight"),
    ],
)
def test_negative_integer_argument_refused(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def test_empty_ground_set_support_kept():
    assert IntPolynomial(0).support() == Support(0, [])


def test_src_imports_only_the_standard_library():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno} {name}")
    assert outside == []


def test_src_parses_as_the_oldest_supported_python():
    # pyproject.toml declares requires-python = ">=3.10"
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # -S: no site hooks, so only the library's own imports count
    code = "import sys, multidegree.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


VIOLATION = RankViolation("monotonicity", ((1,), (1, 2)), "rank drops from 2 to 1")
HALF = Fraction(1, 2)


# (a construction, one with a field changed, the repr of the first)
VALUES = {
    "rank-function": (
        lambda: RankFunction(2, [0, 1, 1, 2]),
        lambda: RankFunction(2, [0, 1, 1, 1]),
        "RankFunction(p=2, values=(0, 1, 1, 2))",
    ),
    "rank-violation": (
        lambda: RankViolation("monotonicity", ((1,), (1, 2)), "rank drops from 2 to 1"),
        lambda: RankViolation("monotonicity", ((1,), (1, 2)), "rank drops from 3 to 1"),
        "RankViolation(axiom='monotonicity', subsets=((1,), (1, 2)), detail='rank drops from 2 to 1')",
    ),
    "rank-report": (
        lambda: RankReport(False, (VIOLATION,)),
        lambda: RankReport(True, (VIOLATION,)),
        f"RankReport(valid=False, violations=({VIOLATION!r},))",
    ),
    "mconvex-report": (
        lambda: MConvexReport(False, ((0, 2), (2, 0), 2)),
        lambda: MConvexReport(False, ((0, 2), (2, 0), 1)),
        "MConvexReport(mconvex=False, witness=((0, 2), (2, 0), 2))",
    ),
    "subspace-family": (
        lambda: SubspaceFamily(2, [[[1, 2]], [[0, 1]]]),
        lambda: SubspaceFamily(2, [[[1, 2]], [[0, 1]]], field="Fp:5"),
        "SubspaceFamily(ambient_dim=2, field='Q', generators=(((Fraction(1, 1), Fraction(2, 1)),),"
        " ((Fraction(0, 1), Fraction(1, 1)),)))",
    ),
    "grading": (
        lambda: Grading(2, 2, [[1, 0], [0, 1]]),
        lambda: Grading(2, 2, [[1, 0], [1, 1]]),
        "Grading(nvars=2, p=2, degree_of=((1, 0), (0, 1)))",
    ),
    "monomial-ideal": (
        lambda: MonomialIdeal(Grading.standard(2), [(1, 1), (2, 0)]),
        lambda: MonomialIdeal(Grading.standard(2), [(1, 1), (3, 0)]),
        "MonomialIdeal(grading=Grading(nvars=2, p=2, degree_of=((1, 0), (0, 1))),"
        " generators=((1, 1), (2, 0)))",
    ),
    "simplicial-complex": (
        lambda: SimplicialComplex(3, [(1, 2), (1, 3), (2, 3)]),
        lambda: SimplicialComplex(4, [(1, 2), (1, 3), (2, 3)]),
        "SimplicialComplex(nverts=3, facets=((1, 2), (1, 3), (2, 3)))",
    ),
    "lattice-polytope": (
        lambda: LatticePolytope(2, [(0, 0), (1, "1/3"), (0, 1)]),
        lambda: LatticePolytope(2, [(0, 0), (1, "1/2"), (0, 1)]),
        "LatticePolytope(d=2, vertices=((Fraction(0, 1), Fraction(0, 1)),"
        " (Fraction(0, 1), Fraction(1, 1)), (Fraction(1, 1), Fraction(1, 3))))",
    ),
    "mixed-volume-table": (
        lambda: MixedVolumeTable(2, 2, {(2, 0): HALF, (1, 1): HALF, (0, 2): HALF}),
        lambda: MixedVolumeTable(2, 2, {(2, 0): HALF, (1, 1): 2 * HALF, (0, 2): HALF}),
        "MixedVolumeTable(p=2, d=2, entries=(((0, 2), Fraction(1, 2)), ((1, 1), Fraction(1, 2)),"
        " ((2, 0), Fraction(1, 2))))",
    ),
    "permutation": (
        lambda: Permutation((2, 1, 3)),
        lambda: Permutation((1, 2, 3)),
        "Permutation(p=3, one_line=(2, 1, 3))",
    ),
    "diagram": (
        lambda: Diagram(3, [(1, 1), (1, 2)]),
        lambda: Diagram(3, [(1, 1)]),
        "Diagram(p=3, cells=frozenset({(1, 1), (1, 2)}))",
    ),
    "support": (
        lambda: Support(2, [(1, 1), (2, 0)]),
        lambda: Support(2, [(1, 1), (0, 2)]),
        "Support(p=2, points=((1, 1), (2, 0)))",
    ),
    "support-from-dag": (
        lambda: msupp_from_rank(RankFunction(3, [0, 1, 1, 2, 1, 2, 2, 2])),
        lambda: msupp_from_rank(RankFunction(3, [0, 1, 1, 2, 1, 2, 2, 3])),
        "Support(p=3, points=((0, 1, 1), (1, 0, 1), (1, 1, 0)))",
    ),
    "int-polynomial": (
        lambda: IntPolynomial(2, {(1, 0): 3, (0, 2): -1}),
        lambda: IntPolynomial(2, {(1, 0): 2, (0, 2): -1}),
        "IntPolynomial(2, '-t2^2 + 3*t1')",
    ),
    "int-polynomial-packed": (
        lambda: kpolynomial(MonomialIdeal(Grading.standard(2), [(1, 1)])),
        lambda: kpolynomial(MonomialIdeal(Grading.standard(2), [(2, 1)])),
        "IntPolynomial(2, '1 - t1*t2')",
    ),
}


@pytest.mark.parametrize("make, changed, text", VALUES.values(), ids=VALUES.keys())
def test_value_semantics(make, changed, text):
    a, b, c = make(), make(), changed()
    assert a is not b and a == b and hash(a) == hash(b) and not a != b
    assert a != c and c != a
    assert a != object() and (a == object()) is False
    assert repr(a) == text
    for copied in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert type(copied) is type(a) and copied == a and hash(copied) == hash(a)
        assert repr(copied) == text
    for name in [*type(a).__slots__, "unknown"]:
        with pytest.raises(AttributeError, match=f"^cannot assign to field {name!r}$"):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b and repr(a) == text


def test_polynomial_past_the_digit_limit_is_unsupported():
    # (x1, x2, x3) in one grading variable: C = d1 d2 d3 t^3, whose
    # 4,501 digits from three 1,501-digit degrees are more than str() writes
    degrees = [int(str(k) * 1501) for k in (7, 8, 9)]
    ideal = MonomialIdeal(Grading(3, 1, [[d] for d in degrees]), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    c = multidegree_polynomial(ideal)
    assert c == IntPolynomial(1, {(3,): degrees[0] * degrees[1] * degrees[2]})
    for write in (c.render, c.pretty, c.to_json_text, c.to_json_dict):
        with pytest.raises(UnsupportedSizeError, match="digits"):
            write()
