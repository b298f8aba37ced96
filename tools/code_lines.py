"""Count the code lines of ``src/afembed``, per module and in total.

A line counts when it holds a token, by :mod:`tokenize`, other than a
comment or NL, NEWLINE, INDENT and DEDENT, and lies outside every string
constant that is a whole expression statement (a docstring), by :mod:`ast`.

Usage: ``python tools/code_lines.py [package directory] [--commands]``; the
default directory is ``src/afembed`` next to this file's parent directory.
``--commands`` then runs each command on ``tests/golden/square.txt`` in a
fresh interpreter, with the package directory's parent on ``PYTHONPATH``,
and prints a row per command: the code lines of the ``afembed`` modules it
loaded, and their names.  Two last rows do the same for ``verify --map
tests/golden/square_sum.genmap.txt``, a map with a sum in one image, which
runs what a constructed map does not, and for ``classify`` on
``tests/golden/square_plus_entrance.txt``, a not-finite input, the one
request that runs the witness search.
"""

import ast
import os
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
ROOT = Path(__file__).resolve().parent.parent
SQUARE = ROOT / "tests" / "golden" / "square.txt"
SQUARE_SUM = ROOT / "tests" / "golden" / "square_sum.genmap.txt"
ENTRANCE = ROOT / "tests" / "golden" / "square_plus_entrance.txt"
# each row's name, and the arguments of its run, the input last
COMMANDS = {
    "classify": ["classify", "--input", str(SQUARE)],
    "loops": ["loops", "--input", str(SQUARE)],
    "export": ["export", "--input", str(SQUARE)],
    "embed": ["embed", "--input", str(SQUARE)],
    "verify": ["verify", "--input", str(SQUARE)],
    "verify --map": ["verify", "--map", str(SQUARE_SUM), "--input", str(SQUARE)],
    "classify entrance": ["classify", "--input", str(ENTRANCE)],
}
#: the columns a command row's name fills
WIDTH = 18
# runs one command and prints the ``afembed`` modules it loaded
_LOADED = (
    "import io, sys\n"
    "from afembed.cli import main\n"
    "main(sys.argv[1:], out=io.StringIO())\n"
    "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'afembed'))\n"
)


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


def loaded_modules(package: Path, command: list[str]) -> list[str]:
    """The stems of the package's modules that ``afembed <command>`` loads,
    ``__init__`` for the package itself; ``command`` is the command and its
    arguments."""
    with tempfile.TemporaryDirectory() as out:
        env = dict(os.environ, PYTHONPATH=str(package.parent), AFEMBED_OUTPUT_DIR=out)
        argv = [sys.executable, "-c", _LOADED, *command]
        names = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout.split()
    return sorted(name.partition(".")[2] or "__init__" for name in names)


def main(argv: list[str]) -> int:
    args = [a for a in argv[1:] if a != "--commands"]
    package = Path(args[0]) if args else ROOT / "src" / "afembed"
    counts = {}
    for path in sorted(package.glob("*.py")):
        counts[path.stem] = code_lines(path.read_text(encoding="utf-8"))
        print(f"{path.stem:<12} {counts[path.stem]:>6,}")
    print(f"{'total':<12} {sum(counts.values()):>6,}")
    if "--commands" in argv:
        print(f"loaded by each command on {SQUARE.relative_to(ROOT)}, and by classify on {ENTRANCE.relative_to(ROOT)}:")
        for name, command in COMMANDS.items():
            stems = loaded_modules(package, command)
            print(f"{name:<{WIDTH}} {sum(map(counts.__getitem__, stems)):>6,}  {' '.join(stems)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
