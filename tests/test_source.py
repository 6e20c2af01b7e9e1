"""Source-level rules for the package."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "latticegfun"


def test_no_assert_statements():
    # invariants are explicit raises so that they still run under python -O
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
