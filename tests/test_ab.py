"""``tools/ab.py`` on the benchmark's smoke lists: a tree against itself
gives the same bytes and a report of every phase, and a copy whose tail
phases move by one part in 10^15 is named as differing."""

import importlib.util
import re
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


@pytest.fixture()
def ab(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))  # ab imports same_bytes beside it
    spec = importlib.util.spec_from_file_location("ab", TOOLS / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_against_itself(ab, capsys):
    assert ab.main([str(ROOT), "--smoke", "--rounds", "2"]) == 0
    out = capsys.readouterr().out
    heads = re.findall(r"^(\S+): seed 5, 2 round\(s\) of (\d+) requests", out, re.M)
    assert [name for name, _ in heads] == ["structure-mix", "verify-wide", "verify-deep"]
    rows = re.findall(r"^  (this|other) +(.+)$", out, re.M)
    assert [label for label, _ in rows] == ["this", "other"] * 3
    for _, values in rows:
        latency, start, work, exit_, peak = map(float, values.split())
        assert min(start, work, exit_, peak) > 0
        assert latency > max(start, work, exit_)  # each request's latency is above each of its phases
    ratios = re.findall(r"median (\S+), quartiles (\S+) (\S+), this tree faster in (\d) of 2$", out, re.M)
    assert len(ratios) == 3
    for median, q1, q3, wins in ratios:
        assert 0 < float(q1) <= float(median) <= float(q3)
        assert int(wins) <= 2
    pairs = [int(n) * 2 for _, n in heads]
    assert re.findall(r"stdout and exit codes: identical over (\d+) request pairs", out) == [str(n) for n in pairs]


def test_a_moved_bit_is_named(ab, tmp_path, capsys):
    for part in ("src/afembed", "bench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    numrep = tmp_path / "src" / "afembed" / "numrep.py"
    text = numrep.read_text(encoding="utf-8")
    phase = "return cmath.exp(2j * math.pi * j / n)"
    assert text.count(phase) == 1
    numrep.write_text(text.replace(phase, phase + " * (1 + 1e-15j)"), encoding="utf-8")
    assert ab.main([str(tmp_path), "--smoke", "--rounds", "1", "--workload", "verify-wide", "--seed", "1"]) == 1
    assert "stdout and exit codes: DIFFER over 3 request pairs" in capsys.readouterr().out
