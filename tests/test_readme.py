"""The README's library tour runs as written and prints what its comments say.

Each expression statement of the tour's ``python`` block carries its
result as a trailing comment; the block runs in a fresh namespace and
every such result is checked, by its printed form or as a literal.
"""

import ast
import pathlib

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _tour() -> str:
    text = README.read_text("utf-8")
    start = text.index("```python\n", text.index("## Library tour")) + len("```python\n")
    return text[start:text.index("```", start)]


def _shows(value, comment: str) -> bool:
    if str(value) == comment:
        return True
    try:
        return value == ast.literal_eval(comment)
    except (ValueError, SyntaxError):
        return False


def test_library_tour_results():
    source = _tour()
    lines = source.splitlines()
    namespace = {}
    checked = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert _shows(value, comment), (ast.unparse(stmt), value, comment)
        checked.append(comment)
    assert checked == ["Z_2^6", "1", "Z^10", "[4, 4, 4, 4, 32]", "True", "True"]
