"""Every name a chartrans module imports is read by that module.  The one
kind of exception is a name that perfbench/pipeline.py's TRACED looks up on
the module (so the tracer can replace it there), read from TRACED itself."""

import ast
from pathlib import Path

import chartrans
from test_bench_targets import _pipeline

SRC = Path(chartrans.__file__).resolve().parent


def _unread_imports(tree):
    """The names tree imports that it never reads, in import order."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    traced = {}
    for owner, attr, *_ in _pipeline().TRACED:
        traced.setdefault(getattr(owner, "__name__", None), set()).add(attr)
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert paths
    unread = {}
    for path in paths:
        allowed = traced.get(f"chartrans.{path.stem}", set())
        names = _unread_imports(ast.parse(path.read_text(encoding="utf-8")))
        unread.update({f"{path.stem}.{n}": path.name for n in names if n not in allowed})
    assert unread == {}


def test_the_scan_finds_an_unread_import():
    tree = ast.parse("import os, re as regex\nfrom x import a, b\nprint(a, os.sep)\n")
    assert _unread_imports(tree) == ["regex", "b"]
