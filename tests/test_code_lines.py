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


def test_each_command_row_sums_the_modules_it_loads():
    """``--commands`` adds a row per command on the square, one for
    ``verify --map`` of a map with a sum and one for ``classify`` of a
    not-finite graph: the modules it loaded and their code lines, which sum
    the module rows above it; the constructed-map ``verify`` loads neither
    the graph writers, nor the witness search, nor the term grammar, nor
    the general sparse algebra, which the map with a sum loads with the
    term grammar; only the not-finite ``classify`` loads the witness search."""
    out = subprocess.run([sys.executable, str(TOOL), "--commands"], capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    cut = next(i for i, line in enumerate(lines) if line.startswith("loaded by each command"))
    counts = {name: int(n.replace(",", "")) for name, n in map(str.split, lines[: cut - 1])}
    rows = {}
    width = code_lines.WIDTH  # a row's name fills its first columns, and may hold a space
    for line in lines[cut + 1 :]:
        n, *stems = line[width:].split()
        rows[line[:width].rstrip()] = (int(n.replace(",", "")), stems)
    assert list(rows) == ["classify", "loops", "export", "embed", "verify", "verify --map", "classify entrance"]
    for command, (total, stems) in rows.items():
        assert {"__init__", "cli", "graph", "loops"} <= set(stems), command
        assert total == sum(counts[stem] for stem in stems), command
    assert {"numrep", "verify"} <= set(rows["verify"][1])
    assert not {"formats", "notation", "witness", "sparse"} & set(rows["verify"][1])
    assert set(rows["verify --map"][1]) == set(rows["verify"][1]) | {"notation", "sparse"}
    assert [command for command, (_, stems) in rows.items() if "witness" in stems] == ["classify entrance"]
    assert set(rows["classify entrance"][1]) == set(rows["classify"][1]) | {"witness"}
