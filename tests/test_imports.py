"""Every library module uses each name it imports at top level, and
every module-level private function or class is read somewhere in the
package. A deletion that leaves an import or a helper behind fails here;
no linter is part of the test run."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spilloverfree"
# __init__ imports names only to re-export them
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source):
    """Names bound by the module's top-level imports that the module
    never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def dead_helpers(sources):
    """Module-level _private functions and classes that no module among
    `sources` reads: calls, refers to or imports by name."""
    trees = [ast.parse(source) for source in sources]
    defined = [node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")]
    read = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return [name for name in defined if name not in read]


def test_the_guard_sees_an_unused_import():
    assert unused_imports("import numpy as np\nimport scipy.linalg as sla\nnp.eye(2)\n") == ["sla"]
    assert unused_imports("import scipy.optimize\nscipy.optimize.minimize\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_sees_a_dead_helper():
    assert dead_helpers(["def _used():\n    pass\n\ndef _dead():\n    pass\n\n_used()\n"]) == ["_dead"]
    # imported by name or read as an attribute counts as used
    assert dead_helpers(["def _a():\n    pass\n\nclass _B:\n    pass\n",
                         "from .m import _a\nimport m\nm._B\n"]) == []


def test_no_dead_private_helper():
    assert dead_helpers([path.read_text() for path in sorted(SRC.glob("*.py"))]) == []
