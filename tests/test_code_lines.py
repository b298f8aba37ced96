import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''"""A module docstring
over two lines."""

# a comment line
import os  # a comment after code


def f(x):
    """A docstring."""
    "a string statement is not code either"
    text = """a string constant
    spanning two lines"""
    return (x,
            text)
'''


def test_the_rule_counts_code_outside_comments_and_docstrings():
    # import, def, the assignment's two lines and the return's two lines
    assert code_lines.code_lines(SAMPLE) == 6


def test_the_total_is_the_sum_of_the_modules():
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, check=True).stdout
    rows = [line.split() for line in out.splitlines()]
    assert rows[-1][0] == "total"
    assert sum(int(n.replace(",", "")) for _, n in rows[:-1]) == int(rows[-1][1].replace(",", ""))
    assert [name for name, _ in rows[:-1]] == sorted(p.stem for p in TOOL.parent.parent.glob("src/afembed/*.py"))
