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


# divisors is imported into quadforms only so that the benchmark's tracer,
# which wraps it in every module that imports it, finds it there
_SEAM_IMPORTS = {("noether/quadforms.py", "divisors")}


def _unused_imports(path: Path, root: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a; an `as` name or `from a import b` binds that name
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    rel = path.relative_to(root).as_posix()
    return [f"{rel}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used | exported and (rel, name) not in _SEAM_IMPORTS]


def test_every_import_is_used():
    tests = Path(__file__).resolve().parent
    found = [
        entry
        for root, files in ((SRC.parent, sorted(SRC.rglob("*.py"))), (tests.parent, sorted(tests.glob("*.py"))))
        for path in files
        for entry in _unused_imports(path, root)
    ]
    assert found == []
