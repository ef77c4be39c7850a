"""README's Library tour runs, and every value its comments give is right."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_lines():
    text = README.read_text()
    section = text[text.index("## Library tour"):]
    block = section[section.index("```python\n") + len("```python\n"):]
    return block[: block.index("```")].splitlines()


def split_comment(line):
    """(code, comment text) of one line of Python; the comment may be ''."""
    for token in tokenize.generate_tokens(io.StringIO(line).readline):
        if token.type == tokenize.COMMENT:
            return line[: token.start[1]].rstrip(), token.string[1:].strip()
    return line.rstrip(), ""


def rendered(value):
    """A value as the tour writes it: lists bracketed, everything else by str."""
    if isinstance(value, list):
        return "[" + ", ".join(map(str, value)) + "]"
    return str(value)


def test_library_tour_values():
    namespace = {}
    checked = 0
    for line in tour_lines():
        code, comment = split_comment(line)
        if not code:
            continue
        statement = ast.parse(code).body[0]
        if not isinstance(statement, ast.Expr):
            assert not comment, f"a comment on a statement gives no checkable value: {line}"
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        if comment:
            # the comment opens with the value, then may say more after it
            assert re.match(re.escape(rendered(value)) + r"(?![\w.])", comment), (
                f"{code} is {rendered(value)}, the README says {comment}"
            )
            checked += 1
    assert checked >= 5
