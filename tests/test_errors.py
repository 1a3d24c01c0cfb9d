"""The contracts of errors.py: one function decides every budget, and
`_integer` reads every public integer argument.  The library imports
nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

from multidegree import (
    BudgetExceededError,
    Grading,
    IntPolynomial,
    LatticePolytope,
    Permutation,
    RankFunction,
    Support,
    ValidationError,
    errors,
    flag_msupp,
    m0n_msupp,
    minkowski_sum,
    projection_codim,
    rothe_diagram,
    theta,
)
from multidegree.errors import check_budget

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
