"""Run README.md's Python snippets and check the output their comments show.

Every ```python block runs in order, in one namespace, one top-level
statement at a time.  A statement that prints must carry the printed text
as a comment, at the end of its last line or alone on the line after it.
"""

import ast
import contextlib
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def _comments(source: str) -> dict[int, str]:
    """The text of each comment by line number, without its ``#``."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {t.start[0]: t.string[1:].strip() for t in tokens if t.type == tokenize.COMMENT}


def test_readme_snippets_print_what_their_comments_show():
    namespace: dict = {}
    checked = 0
    for block in _blocks():
        lines = block.splitlines()
        comments = _comments(block)
        for node in ast.parse(block).body:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
            printed = out.getvalue().strip()
            if not printed:
                continue
            last = node.end_lineno
            expected = comments.get(last)
            if expected is None and last < len(lines) and lines[last].lstrip().startswith("#"):
                expected = comments[last + 1]
            assert printed == expected, f"README line {lines[last - 1]!r}"
            checked += 1
    assert checked >= 3
