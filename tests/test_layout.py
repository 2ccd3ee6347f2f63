"""Code that only the tests use lives in tests/, not in src/.

Every top-level function and class in src/langdual must be referenced from
somewhere in src/ outside its own body.  A name that __init__.py exports may
instead be referenced from scripts/, from perfbench/ (whose tracer names the
functions it wraps as strings) or from tests/test_acceptance.py; being
exported is not a use.  Test-only helpers belong in tests/helpers.py, and
slower reference algorithms in tests/oracles.py.

No top-level function in src/langdual is memoized by functools.lru_cache or
functools.cache: such a cache lives as long as the process and keeps every
argument alive.  Tables derived from an object are cached on the object.

No function in src/langdual imports anything in its body.  The benchmark
imports langdual afresh for every pass, so a deferred import is paid inside
whichever instance first reaches it, and shows as a latency outlier there.

Every function that perfbench/tracer.py names in LAYERS or SIZES is a
callable of its langdual module: the tracer wraps each one by getattr, so
the traced benchmark pass breaks when one leaves its module.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "langdual"


def _outside_users(root: Path) -> set[str]:
    """The names that scripts/, perfbench/ and the acceptance tests use, and
    the strings perfbench/ holds.  A bare name counts only in a file that
    imports it from langdual, so a local of the same name is no use; an
    attribute counts wherever it is read."""
    paths = [*sorted((root / "scripts").glob("*.py")), root / "tests" / "test_acceptance.py"]
    names = set()
    for path in [*paths, *sorted((root / "perfbench").glob("*.py"))]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "langdual"
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in imported:
                names.add(imported[node.id])
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and path not in paths:
                names.add(node.value)
    return names


def _unreferenced(src: Path, outside: set[str]) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    exported = {
        alias.asname or alias.name
        for node in trees["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    defined = []
    users: dict[str, set[tuple[str, str | None]]] = {}
    for module, tree in trees.items():
        for top in tree.body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
            if owner is not None:
                defined.append((module, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    users.setdefault(node.id, set()).add((module, owner))
                elif isinstance(node, ast.Attribute):
                    users.setdefault(node.attr, set()).add((module, owner))
    return [
        f"{module}.{name}"
        for module, name in defined
        if not users.get(name, set()) - {(module, name)} and not (name in exported and name in outside)
    ]


def test_every_top_level_definition_in_src_is_used_in_src_or_from_outside_the_tests():
    assert SRC.is_dir()
    assert _unreferenced(SRC, _outside_users(ROOT)) == []


def test_every_function_the_tracer_names_is_a_callable_of_its_module():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    named = [(module, fn) for module, functions in tracer.LAYERS.items() for fn in functions]
    named += [(metric.split(".")[0], fn) for metric, (fn, _) in tracer.SIZES.items()]
    for module, fn in named:
        assert callable(getattr(importlib.import_module(f"langdual.{module}"), fn, None)), f"langdual.{module}.{fn}"


def test_a_local_of_the_same_name_is_no_outside_use(tmp_path):
    for folder in ("scripts", "tests", "perfbench"):
        (tmp_path / folder).mkdir()
    (tmp_path / "scripts" / "tour.py").write_text(
        "from langdual import correspond as corr\nfrom langdual.languages import accepts\n\n"
        "def order_check(x): return x\n\nprint(corr, order_check(1))\n",
        encoding="utf-8",
    )
    acceptance = tmp_path / "tests" / "test_acceptance.py"
    acceptance.write_text("import langdual\n\nlangdual.piece_join\n", encoding="utf-8")
    (tmp_path / "perfbench" / "workloads.py").write_text(
        "def accepts(word): return word\n\naccepts(1)\nLAYERS = ['present_subset']\n", encoding="utf-8"
    )
    assert _outside_users(tmp_path) == {"correspond", "piece_join", "present_subset"}


def _process_caches(src: Path) -> list[str]:
    found = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in top.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in ("lru_cache", "cache"):
                    found.append(f"{path.stem}.{top.name}")
    return found


def test_no_top_level_function_in_src_keeps_a_process_wide_cache(tmp_path):
    assert _process_caches(SRC) == []
    (tmp_path / "cached.py").write_text(
        "import functools\nfrom functools import cache, lru_cache\n\n"
        "@lru_cache(maxsize=None)\ndef a(x): return x\n\n"
        "@functools.lru_cache\ndef b(x): return x\n\n"
        "@cache\ndef c(x): return x\n\n"
        "@functools.cache\ndef d(x): return x\n\n"
        "@staticmethod\ndef e(x): return x\n",
        encoding="utf-8",
    )
    assert _process_caches(tmp_path) == ["cached.a", "cached.b", "cached.c", "cached.d"]


def _local_imports(src: Path) -> list[str]:
    """module:line of every import statement inside a function body."""
    found = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if isinstance(inner, (ast.Import, ast.ImportFrom)):
                        found.add((path.stem, inner.lineno))
    return [f"{module}:{line}" for module, line in sorted(found)]


def test_no_function_in_src_imports_in_its_body(tmp_path):
    assert _local_imports(SRC) == []
    (tmp_path / "lazy.py").write_text(
        "import json\n\n"
        "def a():\n    import os\n    return os\n\n"
        "class B:\n    def c(self):\n        def d():\n            from . import e\n        return d\n\n"
        "async def f():\n    from json import dumps\n",
        encoding="utf-8",
    )
    assert _local_imports(tmp_path) == ["lazy:4", "lazy:10", "lazy:14"]
