"""The Python examples of README.md run, in order, and print what they say.

Every ```python block runs in one shared namespace, top to bottom.  An
expression statement with a trailing ``# value`` comment whose value is a
full-precision Python literal (no ``...``) must have exactly that repr.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)


def trailing_comments(source: str) -> dict[int, str]:
    """Line number -> text of the comment that ends that line."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {tok.start[0]: tok.string[1:].strip() for tok in tokens if tok.type == tokenize.COMMENT}


def documented_value(comment: str | None):
    """The literal a comment documents, or None when it is prose or elided."""
    if comment is None or "..." in comment:
        return None
    try:
        ast.literal_eval(comment)
    except (ValueError, SyntaxError):
        return None
    return comment


def test_readme_examples_print_their_documented_values():
    namespace: dict = {}
    checked, mismatches = 0, []
    for block in python_blocks(README.read_text()):
        comments = trailing_comments(block)
        for stmt in ast.parse(block).body:
            expected = documented_value(comments.get(stmt.end_lineno))
            if isinstance(stmt, ast.Expr) and expected is not None:
                got = repr(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
                checked += 1
                if got != expected:
                    mismatches.append(f"{ast.unparse(stmt)}: README says {expected}, got {got}")
            else:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert not mismatches, "\n".join(mismatches)
    assert checked >= 8
