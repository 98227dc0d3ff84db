"""The library tour in README.md runs against the current API, and gives
the values its comments state."""

import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _tour() -> str:
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def _stated_value(comment: str):
    """The Python literal that opens ``comment``, up to its first space,
    ``,`` or ``:`` outside brackets, or ``None`` when it opens with prose."""
    depth, end = 0, len(comment)
    for i, ch in enumerate(comment):
        depth += (ch in "([{") - (ch in ")]}")
        if depth == 0 and ch in " ,:":
            end = i
            break
    try:
        return ast.literal_eval(comment[:end])
    except (ValueError, SyntaxError):
        return None


def _matches(value, stated) -> bool:
    """A list stated with a trailing ``...`` is a prefix of the value."""
    if isinstance(stated, list) and stated and stated[-1] is Ellipsis:
        return value[: len(stated) - 1] == stated[:-1]
    return value == stated


def test_readme_tour_runs():
    exec(compile(_tour(), str(README), "exec"), {})


def test_readme_tour_states_its_values():
    # an expression's comment states its value; an assignment's stated
    # int ("20 marked quadratic binomials") is the length of what it names
    source = _tour()
    lines = source.splitlines()
    namespace, checked = {}, []
    for stmt in ast.parse(source).body:
        exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
        _, _, comment = lines[stmt.lineno - 1].partition("# ")
        stated = _stated_value(comment)
        if stated is None:
            continue
        if isinstance(stmt, ast.Assign):
            (target,) = stmt.targets
            assert len(namespace[target.id]) == stated, (ast.unparse(stmt), stated)
        else:
            value = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
            assert _matches(value, stated), (ast.unparse(stmt), value, stated)
        checked.append(ast.unparse(stmt))
    assert checked == [
        "alcoved.weyl_order(rs)",
        "W.cdes.tolist()",
        "W.C.tolist()",
        "W.cmaj.tolist()",
        "w.act_on_root((1, 0))",
        "alcoved.volume(P)",
        "alcoved.volume_identity_check(P, W)['identity_holds']",
        "basis = alcoved.groebner_basis(P)",
        "basis[0]",
        "simplices = alcoved.triangulate(P)",
        "simplices[0]",
        "R.rules[0].tolist()",
        "R.weights.tolist()",
        "R.normal_form([(-2, 1), (0, -1)])",
        "R.is_standard([(-1, 0), (-1, 0)])",
    ]
