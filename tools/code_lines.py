"""Count the code lines of ``src/afembed``, per module and in total.

A line counts when it holds a token, by :mod:`tokenize`, other than a
comment or NL, NEWLINE, INDENT and DEDENT, and lies outside every string
constant that is a whole expression statement (a docstring), by :mod:`ast`.

Usage: ``python tools/code_lines.py [package directory]``; the default is
``src/afembed`` next to this file's parent directory.
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    package = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "afembed"
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.stem:<12} {n:>6,}")
    print(f"{'total':<12} {total:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
