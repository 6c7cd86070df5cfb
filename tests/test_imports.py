"""No module of the package imports a name it never uses, no private
module-level name goes unused by the package, every public module-level
function or class is used by the package or exported, and no module but
`series.py` reads a series' Fraction-keyed `terms` view or its `real` and
`imag` numerators.
Every module imports only the standard library and its own package, and none
writes a float literal or calls `float`.  Importing the CLI loads neither the
identity cases nor the thread pool.

`__init__.py` is left out of the import check: it imports names to
re-export them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qstrings"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each name bound by an import and never loaded."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.partition(".")[0]))
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in loaded]


def test_checker_finds_an_unused_import():
    src = "import os\nfrom a.b import c as d, e\nimport x.y\nprint(e, x.y)\n"
    assert unused_imports(src) == [(1, "os"), (2, "d")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def private_definitions(source: str) -> list:
    """(line, name) of each `_`-prefixed, non-dunder function, class or
    assignment at module level."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(line, name) for line, name in out
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))]


def loaded_names(tree: ast.AST) -> set:
    """Every name read as a plain name or an attribute in `tree`."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_checker_finds_private_names():
    src = "__all__ = []\n_A = 1\nB = 2\n\ndef _f():\n    return _A\n\nclass _C:\n    pass\n"
    assert private_definitions(src) == [(2, "_A"), (5, "_f"), (8, "_C")]
    assert {"_A", "_f", "_C"} & loaded_names(ast.parse(src)) == {"_A"}
    assert "_g" in loaded_names(ast.parse("m._g()\n"))


def test_every_private_name_is_used():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    loaded = set().union(*(loaded_names(ast.parse(src)) for src in sources.values()))
    unused = [(module, line, name) for module, src in sources.items()
              for line, name in private_definitions(src) if name not in loaded]
    assert unused == []


def public_definitions(source: str) -> list:
    """(line, name) of each function or class at module level whose name
    does not start with `_`."""
    return [(node.lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def outside_loads(source: str) -> set:
    """The names read (as by ``loaded_names``) anywhere but in the body of the
    module-level definition of that name: a recursive call is no use."""
    out = set()
    for node in ast.parse(source).body:
        names = loaded_names(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.discard(node.name)
        out |= names
    return out


# public names that the package neither uses nor exports, with the reason
UNUSED_PUBLIC = {
    "pretty": "expr's documented rendering of a parsed expression, "
              "parse(pretty(parse(s))) == parse(s), which the parser's round-trip tests use",
}


def test_checker_finds_public_names_nothing_uses():
    src = ("def f(n):\n    return f(n - 1) if n else g()\n\n\ndef g():\n    return 1\n\n\n"
           "class C:\n    pass\n\n\nclass D(C):\n    pass\n\n\ndef _h():\n    return D\n")
    assert public_definitions(src) == [(1, "f"), (5, "g"), (9, "C"), (13, "D")]
    assert {"f", "g", "C", "D"} - outside_loads(src) == {"f"}


def test_every_public_name_is_used_or_exported():
    # a public function or class that the package never reads is dead code,
    # unless qstrings.__all__ exports it
    import qstrings
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*(outside_loads(src) for src in sources.values())) | set(qstrings.__all__)
    unused = [(module, line, name) for module, src in sources.items()
              for line, name in public_definitions(src) if name not in used and name not in UNUSED_PUBLIC]
    assert unused == []
    assert not used & UNUSED_PUBLIC.keys()  # an exemption that is no longer needed goes


def reads_of(source: str, attr: str) -> list:
    """Lines that read the attribute `attr` of anything."""
    return [n.lineno for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and n.attr == attr and isinstance(n.ctx, ast.Load)]


def test_checker_finds_attribute_reads():
    assert reads_of("x = s.terms\nlen(a.b.terms)\ns.terms = 1\nterms = 2\n", "terms") == [1, 2]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "series.py"])
def test_terms_view_is_read_only_in_series(module):
    # the view builds a Fraction and a GaussianRational per term: package
    # code works on the int lattice (den, coeffs) instead
    assert reads_of((PACKAGE / module).read_text(), "terms") == []


def part_reads(source: str) -> list:
    """Lines that read the `real` or the `imag` numerator dict of anything."""
    return sorted(reads_of(source, "real") + reads_of(source, "imag"))


def test_checker_finds_coeffs_pair_reads():
    src = ("a = s.real.values()\nfor k in s.keys():\n    pass\nb = x.y.imag.get(3)\n"
           "c = g.re + g.im\nd = {**s.imag}\ns.real = {}\n")
    assert part_reads(src) == [1, 4, 6]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "series.py"])
def test_coeffs_pairs_are_read_only_in_series(module):
    # the two dicts hold the numerators of a coefficient's parts over the
    # series' cden: package code reads coefficients through the boundary
    # (`items_sorted`, `__getitem__`) and the stored keys through `keys()`;
    # a GaussianRational's `re` and `im` stay readable
    assert part_reads((PACKAGE / module).read_text()) == []


def foreign_imports(source: str) -> list:
    """(line, module) of each absolute import of a module that is neither in
    the standard library nor the package itself."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append((node.lineno, node.module))
    return [(line, name) for line, name in out
            if name.partition(".")[0] not in sys.stdlib_module_names | {"qstrings"}]


def float_uses(source: str) -> list:
    """Lines with a float or complex literal or a call of `float`."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Constant) and isinstance(n.value, (float, complex))
                  or isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "float")


def test_checkers_find_foreign_imports_and_floats():
    src = ("from __future__ import annotations\nimport os.path, numpy as np\nfrom . import series\n"
           "from qstrings.theta import J\nfrom sympy.core import S\nx = 0.5 + 2j\n"
           "y = float(x)\nz = math.inf\nw = '1.5'\n")
    assert foreign_imports(src) == [(2, "numpy"), (5, "sympy.core")]
    assert float_uses(src) == [6, 6, 7]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_stdlib_only_and_no_floats(module):
    # the package computes exactly, on ints and Fractions, with nothing but
    # the standard library; `math.inf` is a name and marks an exact series
    source = (PACKAGE / module).read_text()
    assert foreign_imports(source) == []
    assert float_uses(source) == []


def test_cli_start_up_loads_neither_the_cases_nor_the_thread_pool():
    # `eval` and `string` run no identity case and no thread pool: importing
    # the CLI compiles neither the 300 case builders nor concurrent.futures
    # (which pulls in logging), and the first registry() call builds the cases
    code = ("import sys, qstrings, qstrings.cli, qstrings.verify\n"
            "print([m for m in ('qstrings.cases', 'concurrent.futures', 'logging') if m in sys.modules])\n"
            "print(len(qstrings.verify.registry()), 'qstrings.cases' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["[]", "300 True"]
