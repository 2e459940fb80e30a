"""Every library module uses each name it imports at top level, and
every module-level private function or class, and every private method
of a module-level class, is read somewhere in the package. A deletion that leaves an import or a helper behind fails here;
no linter is part of the test run. The package also calls no SVD: matrix
2-norms go through pencil._spec_norm and rank tests through a QR. Worker
threads start only in pencil._beside and mmio._in_order, each from a pool
that a with block joins. In cli, only the one writer creates directories
and writes files. A matrix operand's shape is tested only by
pencil._as_matrix."""

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
    """Module-level _private functions and classes, and _private (not
    __dunder__) methods of module-level classes, that no module among
    `sources` reads: calls, refers to or imports by name."""
    trees = [ast.parse(source) for source in sources]
    tops = [node for tree in trees for node in tree.body]
    members = [node for top in tops if isinstance(top, ast.ClassDef) for node in top.body
               if isinstance(node, ast.FunctionDef) and not node.name.endswith("__")]
    defined = [node.name for node in tops + members
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


# calls that take an SVD; lstsq (seed_certificate's p x p(p+1)/2 system) is allowed
SVD_CALLS = {"svd", "svdvals", "cond", "matrix_rank", "pinv"}


def svd_calls(source):
    """`name:line` of each call in `source` to one of SVD_CALLS, or to
    norm with ord 2 (its second argument or the ord keyword)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        ords = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "ord"]
        two = any(isinstance(o, ast.Constant) and o.value == 2 for o in ords)
        if name in SVD_CALLS or (name == "norm" and two):
            found.append(f"{name}:{node.lineno}")
    return found


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


def test_the_guard_sees_a_dead_private_method():
    source = ("class A:\n    def __init__(self):\n        self._used()\n\n"
              "    def _used(self):\n        pass\n\n    def _dead(self):\n        pass\n")
    assert dead_helpers([source]) == ["_dead"]
    # read in another module counts as used
    assert dead_helpers([source, "A()._dead()\n"]) == []


def test_no_dead_private_helper():
    assert dead_helpers([path.read_text() for path in sorted(SRC.glob("*.py"))]) == []


def test_the_guard_sees_an_svd():
    calls = ("np.linalg.svd(A)", "sla.svdvals(A)", "np.linalg.cond(A)", "matrix_rank(A)",
             "sla.pinv(A)", "np.linalg.norm(A, 2)", "np.linalg.norm(A, ord=2)")
    assert svd_calls("\n".join(calls)) == ["svd:1", "svdvals:2", "cond:3", "matrix_rank:4",
                                             "pinv:5", "norm:6", "norm:7"]
    assert svd_calls("np.linalg.norm(A)\nnp.linalg.norm(A, axis=0)\nnp.linalg.lstsq(A, b)\n"
                     "np.linalg.norm(A, 'fro')\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_svd_in_the_package(path):
    assert svd_calls(path.read_text()) == []


def mentions(tree, names):
    """(function, node) for each node of `tree` that names one of `names`
    (a name, an attribute, an imported or a defined name): the innermost
    function around it (None at module level), and the node."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if getattr(node, "attr", getattr(node, "id", getattr(node, "name", None))) in names:
            found.append((function, node))
        for child in ast.iter_child_nodes(node):
            visit(child, function)
    visit(tree, None)
    return found


def thread_pools(source):
    """(function, joined) for each mention of ThreadPoolExecutor in `source`:
    the innermost function around it (None at module level), and whether it
    is called as the context expression of a with block."""
    tree = ast.parse(source)
    joined = {id(item.context_expr.func) for node in ast.walk(tree) if isinstance(node, ast.With)
              for item in node.items if isinstance(item.context_expr, ast.Call)}
    return [(function, id(node) in joined)
            for function, node in mentions(tree, {"ThreadPoolExecutor"})]


def test_the_guard_sees_a_thread_pool_outside_a_with_block():
    source = ("import concurrent.futures as cf\nfrom concurrent.futures import ThreadPoolExecutor\n"
              "def f():\n    with cf.ThreadPoolExecutor(1) as pool:\n        pass\n"
              "def g():\n    pool = cf.ThreadPoolExecutor(1)\n"
              "    with ThreadPoolExecutor(2) as a, open('x'):\n        pass\n")
    assert thread_pools(source) == [(None, False), ("f", True), ("g", False), ("g", True)]


def test_worker_threads_start_only_in_the_two_helpers():
    found = sorted((path.stem, *use) for path in SRC.glob("*.py")
                   for use in thread_pools(path.read_text()))
    assert found == [("mmio", "_in_order", True), ("pencil", "_beside", True)]


# what creates a directory or writes a file in cli
WRITES = {"makedirs", "write_matrix", "write_spectral", "write_report"}


def around(source, names):
    """The innermost function (None at module level) around each mention
    of one of `names` in `source`."""
    return [function for function, _ in mentions(ast.parse(source), names)]


def test_the_guard_sees_a_write_outside_the_writer():
    source = ("import os\nfrom os import makedirs\nfrom . import mmio\n"
              "def _write(d):\n    os.makedirs(d)\n    mmio.write_report({}, d)\n"
              "def _cmd_gen(d):\n    write = mmio.write_matrix\n    mmio.write_spectral(x, d)\n")
    assert around(source, WRITES) == [None, "_write", "_write", "_cmd_gen", "_cmd_gen"]


def test_every_command_writes_through_the_one_writer():
    # so no command can write before it has computed everything it writes
    assert set(around((SRC / "cli.py").read_text(), WRITES)) == {"_write"}


# (module, function) where .ndim may be read: the one check of a matrix
# operand, a parameter vector or stack, the Matrix Market writer, and
# RealSpectralData, which keeps its own checks
NDIM_READERS = {("pencil", "_as_matrix"), ("embedding", "structured_gamma"),
                ("mmio", "write_matrix"), ("spectral", "__post_init__")}


def test_the_guard_sees_a_shape_test_outside_the_operand_check():
    source = ("import numpy as np\ndef _as_matrix(A):\n    return A.ndim\n"
              "def f(A):\n    if A.ndim != 2 or np.ndim(A[0]) != 1:\n        raise ValueError\n")
    assert around(source, {"ndim"}) == ["_as_matrix", "f", "f"]


def test_matrix_operands_are_checked_only_by_as_matrix():
    # a hand-written shape test would skip the numeric and finiteness tests
    found = {(path.stem, function) for path in SRC.glob("*.py")
             for function in around(path.read_text(), {"ndim"})}
    assert found == NDIM_READERS
