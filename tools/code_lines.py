"""Count the code lines of each module of ``src/mixedcorr``.

A code line is a non-blank line that is not only a comment and lies outside
every docstring (the leading string of a module, class or function body).
Prints one ``<count>  <module>`` line per module and a total.

    python tools/code_lines.py [package directory]
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

DEFAULT_PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "mixedcorr"


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Non-blank, non-comment lines of ``source`` outside docstrings."""
    skip = _docstring_lines(ast.parse(source))
    ignored = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in ignored:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv) -> int:
    package = pathlib.Path(argv[1]) if len(argv) > 1 else DEFAULT_PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d}  {path.name}")
    print(f"{total:5d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
