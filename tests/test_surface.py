"""Every default of the library is a knob some caller turns.

A keyword option that no call ever sets carries no behaviour: its default
is a constant written in the signature.  This test parses the library and
every caller (the library itself, the tests, the scripts and the benchmark
harness) and asserts that each parameter default of each function and method
in ``src/lorentz_lab`` is set by at least one call: by keyword, by position,
or through a ``*``/``**`` spread.  Calls are matched by the callee's name
(a class name stands for its ``__init__``), which over-approximates: a
default counts as set when any function of that name is called so.
"""

import ast
import glob
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
LIBRARY = sorted(glob.glob(os.path.join(ROOT, "src", "lorentz_lab", "*.py")))
CALLERS = LIBRARY + sorted(
    path for sub in ("tests", "scripts", "perfbench")
    for path in glob.glob(os.path.join(ROOT, sub, "**", "*.py"), recursive=True))

# (module, function, parameter) triples allowed to keep a default no call sets
ALLOWED = set()


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def _defaults(tree):
    """(qualified name, call name, parameter, positional index) of every
    parameter default, the index None for keyword-only parameters and
    counted without ``self``/``cls`` for methods."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                is_method = owner is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list)
                skip = 1 if is_method else 0
                name = owner if child.name == "__init__" else child.name
                qual = f"{owner}.{child.name}" if owner else child.name
                first = len(positional) - len(args.defaults)
                for k, arg in enumerate(positional[first:], start=first):
                    out.append((qual, name, arg.arg, k - skip))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((qual, name, arg.arg, None))
                visit(child, None)

    visit(tree, None)
    return out


def _calls(trees):
    """Per callee name: the keywords set, the largest positional count and
    whether some call spreads ``*`` or ``**`` arguments.  A name imported
    ``as`` an alias is called under its own name."""
    seen = {}
    for tree in trees:
        alias = {a.asname: a.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 for a in node.names if a.asname}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            name = alias.get(name, name)
            kw, n_pos, spread = seen.setdefault(name, (set(), 0, False))
            kw |= {k.arg for k in node.keywords if k.arg is not None}
            spread = spread or any(k.arg is None for k in node.keywords) \
                or any(isinstance(a, ast.Starred) for a in node.args)
            seen[name] = (kw, max(n_pos, len(node.args)), spread)
    return seen


def test_every_default_is_set_by_some_call():
    calls = _calls(_parse(path) for path in CALLERS)
    unset = []
    for path in LIBRARY:
        module = os.path.basename(path)[:-3]
        for qual, name, param, index in _defaults(_parse(path)):
            kw, n_pos, spread = calls.get(name, (set(), 0, False))
            if param in kw or spread or (index is not None and n_pos > index):
                continue
            if (module, qual, param) not in ALLOWED:
                unset.append(f"{module}.{qual}({param}=...)")
    assert not unset, "defaults no call sets: " + ", ".join(unset)


def test_scan_sees_defaults_and_calls():
    # the scan itself: defaults of a constructor, a method (keyword-only
    # too) and a function; calls by position, by keyword and through a
    # spread under an import alias
    tree = ast.parse(
        "class A:\n"
        "    def __init__(self, a, b=1):\n"
        "        pass\n"
        "    def m(self, c=2, *, d=3):\n"
        "        pass\n"
        "def f(e=4, g=5):\n"
        "    pass\n"
        "from mod import f as h\n"
        "A(0, 1).m(d=0)\n"
        "h(**{})\n")
    assert [(q, p, i) for q, _, p, i in _defaults(tree)] == [
        ("A.__init__", "b", 1), ("A.m", "c", 0), ("A.m", "d", None),
        ("f", "e", 0), ("f", "g", 1)]
    calls = _calls([tree])
    assert calls["A"] == (set(), 2, False)
    assert calls["m"] == ({"d"}, 0, False)
    assert calls["f"] == (set(), 0, True)
