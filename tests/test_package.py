"""The package's public surface."""

import ast
import re
from pathlib import Path

import speechslu

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "speechslu"
# the code that uses the package: the package itself, its scripts and the
# benchmark (whose own tests do not count as callers)
CALLERS = (SRC, ROOT / "scripts", ROOT / "perfbench")


def test_every_exported_name_resolves():
    missing = [name for name in speechslu.__all__ if not hasattr(speechslu, name)]
    assert missing == []


def _public_definitions(tree: ast.Module):
    """Public module-level functions, classes and constants, and public methods."""
    for node in tree.body:
        targets = ([node.target] if isinstance(node, ast.AnnAssign)
                   else node.targets if isinstance(node, ast.Assign) else [])
        yield from (t.id for t in targets
                    if isinstance(t, ast.Name) and not t.id.startswith("_"))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
            if isinstance(node, ast.ClassDef):
                yield from (item.name for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_"))


def _named(tree: ast.Module) -> set[str]:
    """Every identifier a module uses: names it reads (not those it only
    assigns), attributes, imports, and the words of its string literals
    other than docstrings (a tracer patches functions by name)."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            names.update(re.findall(r"\w+", node.value))
    return names


def test_every_public_name_in_src_has_a_caller_outside_tests():
    defined, named = set(), set()
    for directory in CALLERS:
        for path in sorted(directory.rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            named |= _named(tree)
            if directory == SRC:
                defined.update(_public_definitions(tree))
    unreached = sorted(defined - named)
    assert unreached == [], f"public names that only tests call: {unreached}"
