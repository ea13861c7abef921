"""No dead inputs: every parameter of every function and lambda in the
library is read in its body.

Exempt are the receiver of a method (`self`, `cls`) and the methods of
the ambient kinds that implement a name declared on `Ambient`: an override
keeps the interface's signature even where it ignores an argument, as
`ZMod.divide` ignores `side`.
"""

import ast
from pathlib import Path

import cdlab

SRC = Path(cdlab.__file__).parent


def _params(fn) -> list:
    a = fn.args
    out = [*a.posonlyargs, *a.args, *a.kwonlyargs]
    out += [p for p in (a.vararg, a.kwarg) if p is not None]
    return [p.arg for p in out]


def _reads(fn) -> set:
    body = fn.body if isinstance(fn.body, list) else [fn.body]
    return {
        node.id
        for stmt in body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _is_static(fn) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)


def _interface(tree) -> set:
    """The method names declared on Ambient."""
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Ambient")
    return {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}


def unread_parameters(src: Path = SRC) -> list:
    """(module, function, parameter, line) for each parameter its function
    never reads, exemptions taken out."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        exempt = _interface(tree) if path.name == "ambient.py" else set()
        owner = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                owner[child] = node
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            params = _params(fn)
            if isinstance(owner[fn], ast.ClassDef):
                if fn.name in exempt:
                    continue
                if not _is_static(fn):
                    params = params[1:]  # the receiver
            reads = _reads(fn)
            name = getattr(fn, "name", "<lambda>")
            found += [(path.name, name, p, fn.lineno) for p in params if p not in reads]
    return found


def test_every_parameter_is_read():
    assert unread_parameters() == []


def test_the_scan_sees_an_unread_parameter(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(a, b):\n    return a\n\n"
        "g = lambda x, y: y\n\n"
        "class C:\n"
        "    def m(self, used, unused):\n        return used\n\n"
        "    @staticmethod\n    def s(first):\n        return 0\n"
    )
    assert [(fn, p) for _, fn, p, _ in unread_parameters(tmp_path)] == [
        ("f", "b"), ("<lambda>", "x"), ("m", "unused"), ("s", "first"),
    ]
