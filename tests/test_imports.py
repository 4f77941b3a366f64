"""Every import in the package is used, every module-level function or class
and every method of such a class is read somewhere in the package (a public
one may instead be traced by the benchmark or kept on an explicit list),
every field that a class's ``__init__`` sets is read somewhere in the
package (exception payloads are kept on an explicit list), and every
defaulted parameter is set by some call: stdlib ``ast`` scans standing in
for pyflakes' unused-import check and a dead-code check."""

import ast
import os
import subprocess
import sys
import textwrap

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src", "qglab")
TRACER = os.path.join(os.path.dirname(TESTS), "perfbench", "tracer.py")
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


def unread_defs(sources):
    """(module, line, name) of every module-level function or class, dunders
    aside, that no other top-level statement of any module reads, by name,
    by attribute or through an import; a re-export in ``__init__.py`` reads
    nothing.  A method of a module-level class, named "Class.method", is
    unread when no other statement reads it as an attribute, ``x.method``:
    no top-level statement but its class, and no other member of its class.
    A bare name, such as a local variable of the method's name, does not
    read a method."""
    trees = {module: ast.parse(source) for module, source in sources.items()}

    def reads(node, module):
        """(every name the node reads, the attribute names among them)"""
        names, attrs = set(), set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                attrs.add(n.attr)
            elif isinstance(n, ast.ImportFrom) and module != "__init__.py":
                names.update(alias.name for alias in n.names)
        return names | attrs, attrs

    tops = [(node, reads(node, module)) for module, tree in trees.items()
            for node in tree.body]
    members = [(member, reads(member, module)) for module, tree in trees.items()
               for node in tree.body if isinstance(node, ast.ClassDef)
               for member in node.body]

    def is_read(name, as_attr, *skip):
        return any(name in read[as_attr] for other, read in tops + members
                   if other not in skip)

    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("__")
                    and not is_read(node.name, False, node, *node.body)):
                unread.append((module, node.lineno, node.name))
            if isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if (isinstance(fn, ast.FunctionDef)
                            and not fn.name.startswith("__")
                            and not is_read(fn.name, True, node, fn)):
                        unread.append((module, fn.lineno,
                                       "%s.%s" % (node.name, fn.name)))
    return unread


def package_sources():
    sources = {}
    for module in MODULES:
        with open(os.path.join(SRC, module)) as fh:
            sources[module] = fh.read()
    return sources


def test_the_scan_sees_an_unread_private_def():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _self_only():\n    _self_only()\n",
        "b.py": "from .a import _used\nclass _Dead:\n    pass\n"
                "def public():\n    pass\n"
                "class _SelfMade:\n    def make(self):\n        return _SelfMade()\n",
        "c.py": "from .b import public\n",
    }
    assert unread_defs(sources) == [("a.py", 4, "_self_only"),
                                    ("b.py", 2, "_Dead"),
                                    ("b.py", 6, "_SelfMade"),
                                    ("b.py", 7, "_SelfMade.make")]


def test_the_scan_sees_an_unread_method():
    sources = {
        "a.py": "class K:\n    def used(self):\n        self.helper()\n"
                "    def helper(self):\n        pass\n"
                "    def recursive(self):\n        self.recursive()\n"
                "    def __len__(self):\n        return 0\n"
                "    def shadowed(self):\n        pass\n",
        # a local variable named like a method does not read it
        "b.py": "from .a import K\nK().used()\n"
                "def f():\n    shadowed = K()\n    return shadowed\n",
        "c.py": "from .b import f\n",
    }
    assert unread_defs(sources) == [("a.py", 6, "K.recursive"),
                                    ("a.py", 10, "K.shadowed")]


def test_no_unread_private_def():
    assert [u for u in unread_defs(package_sources())
            if u[2].split(".")[-1].startswith("_")] == []


# Public names that nothing in the package reads and the benchmark does not
# trace: pi_star, pi(omega#)*, until the corep suite's generators record
# checks the V_star generator against it.
KEPT_PUBLIC = {("corep.py", "pi_star")}


def traced_names():
    """Every name in perfbench/tracer.py's LAYERS, "Class.method" giving
    both parts, read from the source without importing it."""
    with open(TRACER) as fh:
        tree = ast.parse(fh.read())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    return {part for names in layers.values() for name in names
            for part in name.split(".")}


def test_the_scan_sees_an_unread_public_def():
    sources = {
        "a.py": "def used():\n    pass\n\nclass Dead:\n    pass\n"
                "def self_only():\n    self_only()\n"
                "class SelfMade:\n    def make(self):\n        return SelfMade()\n",
        "b.py": "from .a import used\n",
    }
    assert unread_defs(sources) == [("a.py", 4, "Dead"),
                                    ("a.py", 6, "self_only"),
                                    ("a.py", 8, "SelfMade"),
                                    ("a.py", 9, "SelfMade.make")]
    # a def that only the package's __init__ re-exports is unread
    sources["a.py"] += "def exported():\n    pass\n"
    sources["__init__.py"] = ("from .a import exported, used\n"
                              "__all__ = ['exported']\n")
    assert unread_defs(sources) == [("a.py", 4, "Dead"),
                                    ("a.py", 6, "self_only"),
                                    ("a.py", 8, "SelfMade"),
                                    ("a.py", 9, "SelfMade.make"),
                                    ("a.py", 11, "exported")]


def test_no_unread_public_def():
    unread = {(module, name) for module, _, name in unread_defs(package_sources())
              if not name.split(".")[-1].startswith("_")}
    traced = traced_names()
    assert ({u for u in unread if u[1].split(".")[-1] not in traced}
            == KEPT_PUBLIC)


def unread_fields(sources):
    """(module, line, "Class.field") of every attribute that the ``__init__``
    of a module-level class sets on self, ``self.field = ...``, and that no
    statement of any module reads as an attribute, ``x.field``; a store or
    a delete is no read."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    for n in ast.walk(fn):
                        if (isinstance(n, ast.Attribute)
                                and isinstance(n.ctx, ast.Store)
                                and getattr(n.value, "id", None) == "self"
                                and n.attr not in read):
                            unread.append((module, n.lineno,
                                           "%s.%s" % (cls.name, n.attr)))
    return unread


def test_the_scan_sees_an_unread_field():
    sources = {
        "a.py": "class K:\n    def __init__(self, a, b):\n"
                "        self.used = a\n        self.dead = b\n"
                "        self.own, self.pair = a, b\n"
                "    def m(self):\n        return self.own\n"
                "def f(k):\n    k.dead = 1\n    return k.used\n",
        # a bare name does not read a field
        "b.py": "pair = 0\nclass L:\n    def __init__(self):\n"
                "        self.lone = pair\n",
    }
    assert unread_fields(sources) == [("a.py", 4, "K.dead"),
                                      ("a.py", 5, "K.pair"),
                                      ("b.py", 4, "L.lone")]


# Exception payloads: nothing in the package reads them, but callers that
# catch the exception do.
KEPT_FIELDS = {("errors.py", "DegeneracyError.gap"),
               ("errors.py", "ConvergenceError.diagnostics")}


def test_no_unread_field():
    assert {(module, field) for module, _, field
            in unread_fields(package_sources())} == KEPT_FIELDS


def unset_defaults(sources, callers):
    """(module, line, function, parameter) of every defaulted parameter of a
    function or method in ``sources`` that no call in ``callers`` passes, by
    keyword or by position.  Calls resolve by name alone, ``f(...)`` or
    ``x.f(...)``; ``*args`` counts as passing every positional parameter and
    ``**kwargs`` every parameter, and dunder methods are skipped."""
    calls = {}
    for source in callers.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                splat = any(isinstance(a, ast.Starred) for a in node.args)
                keys = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append((
                    float("inf") if splat else len(node.args), keys))
    unset = []
    for module, source in sources.items():
        tree = ast.parse(source)
        methods = {fn for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or fn.name.startswith("__")):
                continue
            args = fn.args
            params = args.posonlyargs + args.args
            # a bound call's first positional argument fills the parameter after self
            skip = len(params) - len(args.defaults) - (fn in methods)
            defaulted = [(skip + k, p.arg) for k, p in
                         enumerate(params[len(params) - len(args.defaults):])]
            defaulted += [(float("inf"), p.arg) for p, d in
                          zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for position, name in defaulted:
                if not any(npos > position or name in keys or None in keys
                           for npos, keys in calls.get(fn.name, ())):
                    unset.append((module, fn.lineno, fn.name, name))
    return unset


def test_the_scan_sees_a_default_no_call_sets():
    sources = {"a.py": "def f(x, y=1, z=2, *, w=3):\n    pass\n"
                       "class K:\n    def m(self, p=0, q=1):\n        pass\n"
                       "    def __init__(self, r=0):\n        pass\n"}
    callers = {"b.py": "f(0, 5)\nK().m(q=2)\n",
               "c.py": "def g(*a, **k):\n    f(*a)\n    K.m(**k)\n"}
    assert unset_defaults(sources, {"b.py": callers["b.py"]}) == [
        ("a.py", 1, "f", "z"), ("a.py", 1, "f", "w"), ("a.py", 4, "m", "p")]
    assert unset_defaults(sources, callers) == [("a.py", 1, "f", "w")]


def test_every_default_is_set_by_some_call():
    sources = package_sources()
    callers = dict(sources)
    for name in sorted(os.listdir(TESTS)):
        if name.endswith(".py"):
            with open(os.path.join(TESTS, name)) as fh:
                callers["tests/" + name] = fh.read()
    assert unset_defaults(sources, callers) == []


# Imports that break a cycle stay inside the function that needs them:
# catalog imports corep, so corep reaches the catalog at call time.
CYCLE_BREAKERS = {("corep.py", "random_invertible_corep", ".catalog")}
# The second reason: the scipy-backed Fock layer loads only in the suite
# runners that call it, so the algebra commands never import scipy.
DEFERRED_LAYERS = {("suite.py", "run_khintchine", ".fock"),
                   ("suite.py", "run_noncb", ".fock")}


def nested_imports(source):
    """(line, function, module) of every import inside a function body, the
    function being the innermost one that holds it."""
    tree = ast.parse(source)
    found = {}
    # ast.walk is breadth first, so an inner function overwrites its holder
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        found[node, alias.name] = (node.lineno, fn.name, alias.name)
                elif isinstance(node, ast.ImportFrom):
                    name = "." * node.level + (node.module or "")
                    found[node, name] = (node.lineno, fn.name, name)
    return sorted(found.values())


def test_the_scan_sees_an_import_inside_a_function():
    source = ("import os\ndef f():\n    import json\n    from .a import b\n"
              "    def g():\n        from . import c\n"
              "class K:\n    def m(self):\n        import sys\n")
    assert nested_imports(source) == [(3, "f", "json"), (4, "f", ".a"),
                                      (6, "g", "."), (9, "m", "sys")]


def test_imports_are_at_module_level_except_cycle_breakers():
    seen = set()
    for module in MODULES:
        with open(os.path.join(SRC, module)) as fh:
            for _, fn, name in nested_imports(fh.read()):
                seen.add((module, fn, name))
    assert seen == CYCLE_BREAKERS | DEFERRED_LAYERS


def test_algebra_suites_load_no_scipy():
    # only the khintchine and noncb runners load the Fock layer, and scipy with it
    code = textwrap.dedent("""
        import sys
        import qglab.cli
        from qglab.builders import builtin_instance
        from qglab.suite import SuiteConfig, run_suite

        def scipy_modules():
            return sorted(m for m in sys.modules
                          if m == "scipy" or m.startswith("scipy."))

        assert scipy_modules() == [], scipy_modules()
        cfg = SuiteConfig(instances=[("c_z2", builtin_instance("c_z2"))],
                          suites=("validate", "duality", "corep", "multiplier",
                                  "unitarize"), trials=2)
        assert run_suite(cfg).passed
        assert scipy_modules() == [], scipy_modules()
        cfg = SuiteConfig(suites=("khintchine",), trials=2, copies=4, length=3)
        assert run_suite(cfg).passed
        assert "scipy" in sys.modules
    """)
    path = os.pathsep.join([os.path.dirname(SRC), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=30,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
