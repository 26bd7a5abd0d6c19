"""The package top and the demos: what one exports, the other imports."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import sboxsim

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _top_level_imports(path: Path) -> set:
    tree = ast.parse(path.read_text())
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "sboxsim"
            and node.level == 0 for alias in node.names}


def test_package_top_exports_exactly_what_the_demos_import():
    exported = {name for name, value in vars(sboxsim).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    imported = set().union(*map(_top_level_imports, DEMOS))
    assert exported == imported


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
