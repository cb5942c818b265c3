"""Every defaulted parameter in cpdist is set by some call in the program.

An option that no call sets has one value in use, so it belongs in a
constant.  The program is src/cpdist plus the benchmark harness in cpbench/;
tests and demos do not count as callers.  A call sets a parameter by keyword
or by position (self/cls dropped; a class call reaches its __init__).
Callees are matched by name, except calls through a name imported from
another library (np.linalg.solve is not sdp.solve).  A call that forwards
its enclosing function's own defaulted parameter counts only if that
parameter is itself set, and *args/**kwargs pass on nothing.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def program_sources() -> dict:
    paths = sorted((ROOT / "src" / "cpdist").glob("*.py"))
    paths += [p for p in sorted((ROOT / "cpbench").glob("*.py"))
              if not p.name.startswith("test_")]
    return {f"{p.parent.name}.{p.stem}": p.read_text(encoding="utf-8")
            for p in paths}


def _params(fn) -> tuple:
    """(positional names without self/cls, defaulted names) of a def."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults)
                  if default is not None]
    if positional[:1] in (["self"], ["cls"]):
        positional = positional[1:]
    return positional, defaulted


def _external_names(tree) -> set:
    """Names a module binds by importing from outside cpdist."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names
                         if not a.name.startswith("cpdist"))
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and not node.module.startswith("cpdist")):
            names.update(a.asname or a.name for a in node.names)
    return names


def _root(func):
    """The name at the root of a call's callee expression, if any."""
    while isinstance(func, ast.Attribute):
        func = func.value
    return func.id if isinstance(func, ast.Name) else None


def _walk(node, scope, fn, visit):
    """Call visit(node, scope, fn) on every node below `node`, with `scope`
    the enclosing qualified name and `fn` the innermost enclosing def."""
    for child in ast.iter_child_nodes(node):
        visit(child, scope, fn)
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _walk(child, f"{scope}.{child.name}", child, visit)
        elif isinstance(child, ast.ClassDef):
            _walk(child, f"{scope}.{child.name}", fn, visit)
        else:
            _walk(child, scope, fn, visit)


def unset_options(sources: dict) -> list:
    """Defaulted parameters, as "module.qualname(param)", that no call sets."""
    defs = {}      # callee name -> [(qualname, positional, defaulted)]
    owner = {}     # def node -> its qualname

    def collect(node, scope, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner[node] = f"{scope}.{node.name}"
            defs.setdefault(node.name, []).append(
                (owner[node], *_params(node)))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    defs.setdefault(node.name, []).append(
                        (f"{scope}.{node.name}.__init__", *_params(item)))

    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    for mod, tree in trees.items():
        _walk(tree, mod, None, collect)

    sources_of = {}    # option -> [None for a value, or a forwarded option]

    def record(node, scope, fn):
        if not isinstance(node, ast.Call) or _root(node.func) in external:
            return
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        own = _params(fn)[1] if fn is not None else []

        def source(value):
            if isinstance(value, ast.Name) and value.id in own:
                return f"{owner[fn]}({value.id})"
            return None

        for qual, positional, defaulted in defs.get(name, []):
            given = []
            for param, arg in zip(positional, node.args):
                if isinstance(arg, ast.Starred):
                    break
                given.append((param, arg))
            given += [(kw.arg, kw.value) for kw in node.keywords if kw.arg]
            for param, value in given:
                if param in defaulted:
                    sources_of.setdefault(f"{qual}({param})", []).append(
                        source(value))

    for mod, tree in trees.items():
        external = _external_names(tree)
        _walk(tree, mod, None, record)

    options = {f"{qual}({p})" for entries in defs.values()
               for qual, _, defaulted in entries for p in defaulted}
    is_set = {opt for opt, srcs in sources_of.items() if None in srcs}
    grew = True
    while grew:
        grew = False
        for opt, srcs in sources_of.items():
            if opt not in is_set and is_set.intersection(srcs):
                is_set.add(opt)
                grew = True
    return sorted(options - is_set)


SNIPPET = '''
def check(mat, atol=1e-8):
    return mat

def eigh(mat, atol=1e-8):
    return check(mat, atol)

def svd(a, cutoff=0.0):
    return a

def pinv(a, rcond=1e-15):
    return svd(a, rcond)

import numpy as np

class Box:
    def __init__(self, size, tight=False):
        self.size = size

    def fit(self, x, tol=0.1, scale=1.0):
        return self.fit(x, scale=2.0)

def run(p, *args, quiet=False, **kwargs):
    Box(3, True)
    np.linalg.eigh(p, 1e-3)
    return pinv(p, rcond=1e-9), eigh(p, *args, **kwargs)
'''


def test_the_check_sees_an_unset_option():
    # eigh forwards an unset option to check; pinv forwards a set one to svd
    assert unset_options({"m": SNIPPET}) == [
        "m.Box.fit(tol)", "m.check(atol)", "m.eigh(atol)", "m.run(quiet)"]


def test_every_cpdist_option_is_set_by_a_caller():
    unset = [opt for opt in unset_options(program_sources())
             if opt.startswith("cpdist.")]
    assert unset == []
