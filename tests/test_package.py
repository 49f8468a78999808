"""The package root re-exports nothing: every name is imported from the module that defines it."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import occq


def test_root_holds_no_import_and_no_assignment():
    tree = ast.parse(Path(occq.__file__).read_text())
    statements = (ast.Import, ast.ImportFrom, ast.Assign, ast.AnnAssign, ast.AugAssign)
    assert not [type(node).__name__ for node in ast.walk(tree) if isinstance(node, statements)]


def test_importing_one_module_loads_only_that_module():
    probe = "import sys, occq.errors; print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'occq')))"
    src = str(Path(occq.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["occq", "occq.errors"]


def test_readme_layout_names_exactly_the_modules():
    src = Path(occq.__file__).parent
    readme = (src.parents[1] / "README.md").read_text()
    block = readme.split("## Layout", 1)[1].split("```")[1]
    listed = re.findall(r"^  (\S+\.py)\s", block, flags=re.MULTILINE)
    assert sorted(listed) == sorted(path.name for path in src.glob("*.py"))
