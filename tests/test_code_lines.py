"""Code lines of src/sidephase: the count quoted for size changes.

A line counts if it holds a token other than a comment, NL, NEWLINE,
INDENT or DEDENT, and lies outside a module, class or function docstring.
A token spanning several lines, as a multi-line string does, puts each of
them on the count.  Print each module's count and the total with

    python tests/test_code_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sidephase"

# ENDMARKER sits on the line after the last one.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in source, by the rule above."""
    held: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            held.update(range(token.start[0], token.end[0] + 1))
    return len(held - _docstring_lines(ast.parse(source)))


def module_counts() -> dict[str, int]:
    """Each src/sidephase module's code lines, by module name."""
    return {
        path.stem: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a comment


# a comment line
class Box:
    """Class docstring."""

    size = 2

    def area(self):
        """Function docstring

        with a blank line.
        """
        return math.prod(
            (self.size, self.size),
        )


TEXT = """a string that is
not a docstring"""
'''


def test_counts_tokens_outside_docstrings_and_comments():
    # import, class, size and def; return and its two continuation lines;
    # and the two lines of the TEXT assignment.
    assert code_lines(SNIPPET) == 9


def test_every_module_is_counted():
    counts = module_counts()
    assert "cli" in counts and all(count > 0 for count in counts.values())


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit("usage: python tests/test_code_lines.py")
    counts = module_counts()
    for name, count in counts.items():
        print(f"{name:12} {count:5}")
    print(f"{'total':12} {sum(counts.values()):5}")
