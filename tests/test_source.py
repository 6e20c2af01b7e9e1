"""Source-level rules for the package."""
import ast
import importlib
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "latticegfun"


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


def test_tracer_sites_resolve():
    # the benchmark's tracer rebinds these module-level names; a renamed or
    # dropped site would otherwise surface only in a traced benchmark run
    layers = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))["LAYERS"]
    assert layers
    missing = []
    for layer, (where, _, _) in layers.items():
        for module, attr in where:
            target = getattr(importlib.import_module(f"latticegfun.{module}"), attr, None)
            if not callable(target):
                missing.append(f"{layer}: latticegfun.{module}.{attr}")
    assert not missing, missing
