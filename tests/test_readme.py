"""README's "Library quick start" block runs, and every value a comment
in it states is the value the library returns."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _stated_value(line: str):
    """The literal a '# value' or '# value: remark' comment states, or
    None when the comment is prose."""
    if "#" not in line:
        return None
    comment = line.split("#", 1)[1].strip()
    for candidate in (comment, comment.split(":", 1)[0]):
        try:
            return (ast.literal_eval(candidate),)
        except (ValueError, SyntaxError):
            pass
    return None


def test_quick_start_values():
    source = _quick_start()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for statement in ast.parse(source).body:
        code = ast.Module(body=[statement], type_ignores=[])
        if not isinstance(statement, ast.Expr):
            exec(compile(code, str(README), "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), str(README), "eval"), namespace)
        # the comment ends the statement's last line, or has the next
        # line to itself
        end = statement.end_lineno
        stated = _stated_value(lines[end - 1])
        if stated is None and end < len(lines) and lines[end].lstrip().startswith("#"):
            stated = _stated_value(lines[end])
        if stated is not None:
            expression = ast.get_source_segment(source, statement)
            assert value == stated[0], (expression, value)
            checked.append((expression, stated[0]))
    assert checked == [
        ("decide(forest, 3).colorable", False),
        ("decide(forest, 2).colorable", False),
        ("equitable_chromatic_number(forest)", 4),
        ("verify(forest, coloring).ok", True),
        ("sorted(coloring.sizes())", [1, 1, 2, 2]),
        ("trace.branch, trace.fallback_used", ("equality", False)),
        ("coloring.assignment, trace.branch", ((1, 2, 1, 2), "two-sides")),
        ("profile.vertex, profile.vertex_alpha", (0, 1)),
        ("[profile.decide(k).colorable for k in range(1, 7)]",
         [False, False, False, True, True, True]),
    ]
