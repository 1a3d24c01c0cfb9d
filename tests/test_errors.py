"""The budget contract of errors.py: one function decides every budget."""

import ast
from pathlib import Path

import pytest

from multidegree import BudgetExceededError, errors
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
