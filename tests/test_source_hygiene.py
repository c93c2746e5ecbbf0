"""Static checks on the package source, with the standard library's ast only.

Every module of quiverlim except ``__init__.py`` (which imports to export)
must use each of its top-level imports, and every private function, method
or class (a ``_name`` that is not a dunder) must be referenced somewhere in
the package: a helper that nothing uses should go.  No function imports:
every module dependency shows at the top of its module, so an import cycle
cannot hide inside a function body.  The verify suites hold no error
handling of their own: the one runner that wraps them does.  One
least-squares Newton loop serves every min-norm correction in the package.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "quiverlim"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
         for path in sorted(SRC.glob("*.py"))}
MODULES = sorted(name for name in TREES if name != "__init__.py")


def _names_read(tree) -> set[str]:
    """The Name ids of a module, with those inside string annotations."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns] + [a.annotation for a in ast.walk(node.args)
                                            if isinstance(a, ast.arg)]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for ann in filter(None, annotations):
            for sub in ast.walk(ann):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                              if isinstance(n, ast.Name)}
    return names


def _imported(tree) -> list[str]:
    """The names that the module's top-level imports bind."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    return bound


@pytest.mark.parametrize("module", MODULES)
def test_every_top_level_import_is_used(module):
    tree = TREES[module]
    used = _names_read(tree)
    assert [name for name in _imported(tree) if name not in used] == []


def test_every_private_helper_is_referenced():
    referenced = set()
    for tree in TREES.values():
        referenced |= _names_read(tree)
        referenced |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    unused = [f"{module}:{node.name}" for module in MODULES
              for node in ast.walk(TREES[module])
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node.name.startswith("_") and not node.name.endswith("__")
              and node.name not in referenced]
    assert unused == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_function_imports(module):
    inside = [f"{node.name}:{sub.lineno}" for node in ast.walk(TREES[module])
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              for sub in ast.walk(node) if isinstance(sub, (ast.Import, ast.ImportFrom))]
    assert inside == []


def test_verify_suites_leave_errors_to_their_runner():
    suites = [node for node in TREES["verify.py"].body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("_suite_")]
    assert len(suites) == 13
    handling = [node.name for node in suites
                if any(isinstance(sub, ast.Try) for sub in ast.walk(node))]
    assert handling == []


def test_one_lstsq_newton_loop():
    # the slice solves and the sample projection share one min-norm Newton
    # kernel; a second lstsq inside a loop body is a second such loop
    in_loops = {(module, sub.lineno) for module, tree in TREES.items()
                for loop in ast.walk(tree) if isinstance(loop, (ast.For, ast.While))
                for sub in ast.walk(loop)
                if isinstance(sub, ast.Call)
                and ast.unparse(sub.func).split(".")[-1] == "lstsq"}
    assert len(in_loops) == 1, sorted(in_loops)
