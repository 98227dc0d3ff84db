"""Every public function, class and method of ``src/alcoved`` is reached:
its name is read as an identifier somewhere in ``src/``, or README.md
names it in a code span or a fenced code block as library surface.
Dunders and the methods of private classes are exempt.  Code that
nothing reaches and no reader is told about is deleted, not kept."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "alcoved"
README = ROOT / "README.md"


def _public_definitions(tree: ast.Module):
    """The module-level functions and classes, and the methods of the
    public module-level classes; the caller drops the private names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef))


def _identifiers(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _readme_names() -> set:
    """The identifiers in README.md's fenced blocks and inline code spans;
    the fenced blocks are cut out before the backticks are paired."""
    text = README.read_text(encoding="utf-8")
    fence = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
    code = fence.findall(text) + re.findall(r"`([^`]+)`", fence.sub("", text))
    return set(re.findall(r"[A-Za-z_]\w*", "\n".join(code)))


def test_every_public_name_is_reached_or_documented():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    reached = {name for tree in trees.values() for name in _identifiers(tree)}
    reached |= _readme_names()
    unreached = [
        f"{module}:{node.lineno} {node.name}"
        for module, tree in trees.items()
        for node in _public_definitions(tree)
        if not node.name.startswith("_") and node.name not in reached
    ]
    assert not unreached, unreached
