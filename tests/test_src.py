import ast
from pathlib import Path

import pytest

import noether

SRC = Path(noether.__file__).resolve().parent


def test_src_has_no_assert_statement():
    # python -O strips every assert, so a check that decides a result is a
    # plain raise; the CI pass under -O runs the whole suite on that rule
    found = [
        f"{path.relative_to(SRC.parent)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_oracle_checks_survive_optimize():
    # a non-monic polynomial is outside what the norm oracle handles
    from oracles import companion_det_norm

    with pytest.raises(AssertionError):
        companion_det_norm([1, 2], [1])
