"""Count the code lines of each module of ``src/kacwalk``.

    python3 tools/code_lines.py

A code line is a physical line that holds a token other than a comment,
whitespace or a docstring, where a docstring is the first statement of a
module, class or function when that statement is a string. Blank lines,
comment lines and docstring lines do not count; a line that holds code
and a trailing comment counts once. The script prints one
``lines  path`` row per module, sorted by path, then the total.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kacwalk"
# Tokens that are layout or comment, never code.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree):
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in one module's source text."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        lines.update(row for row in range(tok.start[0], tok.end[0] + 1)
                     if row not in skip)
    return len(lines)


def main():
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.relative_to(SRC.parents[1])}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
