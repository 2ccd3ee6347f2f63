"""Code that only the tests use lives in tests/, not in src/.

Every top-level function and class in src/langdual must be referenced from
somewhere in src/ outside its own body, or be exported by __init__.py.
Test-only helpers belong in tests/helpers.py, and slower reference
algorithms in tests/oracles.py.

No top-level function in src/langdual is memoized by functools.lru_cache or
functools.cache: such a cache lives as long as the process and keeps every
argument alive.  Tables derived from an object are cached on the object.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "langdual"


def _unreferenced(src: Path) -> list[str]:
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
        if name not in exported and not users.get(name, set()) - {(module, name)}
    ]


def test_every_top_level_definition_in_src_is_used_in_src_or_exported():
    assert SRC.is_dir()
    assert _unreferenced(SRC) == []


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
