"""Every import in the package is used: a stdlib ``ast`` scan standing in for
pyflakes' unused-import check."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "qglab")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def unused_imports(source):
    """(line, name) of every name bound by an import and never read, where
    a name listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.append((node.lineno,
                              alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in used]


def test_the_scan_sees_an_unused_import():
    source = "import os\nimport sys\nfrom a import b, c as d\n__all__ = ['d']\nos.sep\n"
    assert unused_imports(source) == [(2, "sys"), (3, "b")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unused_imports(fh.read()) == []
