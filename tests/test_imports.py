"""The package's one import order: every import at module level, and the
intra-package ``from .x import`` edges form no cycle."""

import ast
import graphlib
import subprocess
import sys
from pathlib import Path

import sepdisc

SRC = Path(sepdisc.__file__).parent
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def test_no_import_inside_a_function_or_class_body():
    bodies = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = {
        f"{name}.py:{node.lineno}"
        for name, tree in TREES.items()
        for body in ast.walk(tree)
        if isinstance(body, bodies)
        for node in ast.walk(body)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    assert not found


def test_intra_package_imports_form_no_cycle():
    edges = {
        name: {node.module or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}
        for name, tree in TREES.items()
    }
    assert set().union(*edges.values()) <= set(TREES)
    # static_order raises CycleError on a cycle
    order = list(graphlib.TopologicalSorter(edges).static_order())
    assert order.index("tensor_rank") < order.index("states") < order.index("constructions") < order.index("sampling")


def test_import_loads_the_nine_core_modules():
    # sampling, statefile, verify and cli load only when asked for
    probe = "import sys, sepdisc; print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'sepdisc')))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, cwd=SRC.parent)
    modules = "config constructions discrimination errors linalg separability states tensor_rank".split()
    assert done.stdout.split() == ["sepdisc"] + [f"sepdisc.{m}" for m in modules]
