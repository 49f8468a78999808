"""The package root re-exports nothing: every name is imported from the module that defines it;
and every public name in the package has a caller outside the unit tests."""

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


# Public names that no code outside the unit tests calls, each kept for a reason.
TEST_ONLY_NAMES = {
    "oracle.bellman_q": "the independent Bellman check on exact_q",
    "policy.sample_actions": "how the tests reach the tanh-Gaussian sampling law",
}


def _identifiers(path: Path) -> set[str]:
    """Every name, attribute, import alias part and identifier-shaped string constant in ``path``;
    the strings count because the benchmark's tracer wraps functions by name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update([*node.name.split("."), node.asname or ""])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            found.add(node.value)
    return found


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    src = Path(occq.__file__).parent
    root = src.parents[1]
    callers = [*src.glob("*.py"), *root.glob("perfbench/*.py"), *root.glob("scripts/*.py"), root / "tests/test_acceptance.py"]
    used = set().union(*map(_identifiers, callers))
    defined = (
        (path.stem, node.name)
        for path in src.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    )
    assert sorted(f"{module}.{name}" for module, name in defined if name not in used) == sorted(TEST_ONLY_NAMES)
