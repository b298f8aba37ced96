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
    # the ratio over whole latencies, then over the work phases alone, per workload
    ratio = r"^  (req/s|work req/s) per round, this/other: median (\S+), quartiles (\S+) (\S+), this tree faster in (\d) of 2$"
    ratios = re.findall(ratio, out, re.M)
    assert [label for label, *_ in ratios] == ["req/s", "work req/s"] * 3
    for _, median, q1, q3, wins in ratios:
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


def test_setup_imports_against_itself(ab, capsys):
    """``--setup 3`` times three imports of ``afembed.cli`` per tree and
    way of waiting before the requests: a median within its quartiles, and
    a count of the timed waits read late, for each tree."""
    argv = [str(ROOT), "--setup", "3", "--smoke", "--rounds", "1", "--workload", "structure-mix"]
    assert ab.main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"setup: 3 fresh imports of afembed.cli per tree and wait, this tree against {ROOT}\n")
    rows = re.findall(r"^  (this|other) +plain wait ms: median (\S+), quartiles (\S+) (\S+); timed wait: (\d) of 3 above 90 ms$", out, re.M)
    assert [label for label, *_ in rows] == ["this", "other"]
    for _, median, q1, q3, _ in rows:
        assert 0 < float(q1) <= float(median) <= float(q3)
    assert re.search(r"^structure-mix: seed 5, 1 round\(s\) of \d+ requests", out, re.M)


def test_probe_and_imports_without_site(ab, capsys):
    """Every run prints a host probe before the requests, after the
    ``--setup`` lines, and ``--setup 2`` also times two imports per tree
    under ``-S``; a tree against itself breaks no planted answer."""
    argv = [str(ROOT), "--setup", "2", "--smoke", "--rounds", "1", "--workload", "structure-mix"]
    assert ab.main(argv) == 0
    out = capsys.readouterr().out
    rows = re.findall(r"^  (this|other) +-S plain wait ms: median (\S+), quartiles (\S+) (\S+)$", out, re.M)
    assert [label for label, *_ in rows] == ["this", "other"]
    for _, median, q1, q3 in rows:
        assert 0 < float(q1) <= float(median) <= float(q3)
    probe = r"^probe: medians of 10 runs in ms: python -c pass (\S+), python -S -c pass (\S+), a loop of 200000 steps (\S+)$"
    [medians] = re.findall(probe, out, re.M)
    assert min(map(float, medians)) > 0
    assert out.index("  other -S plain wait") < out.index("probe:") < out.index("structure-mix: seed 5")
    assert re.search(r"^  planted answers, runs with problems: this 0, other 0 of \d+ each$", out, re.M)


def test_a_broken_planted_answer_is_named(ab, tmp_path, capsys):
    """A tree whose not-finite verdicts exit 1, not 3, breaks the planted
    answer of each such request, and the report names that tree."""
    for part in ("src/afembed", "bench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "afembed" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count("EXIT_NOT_FINITE = 3\n") == 1
    cli.write_text(text.replace("EXIT_NOT_FINITE = 3\n", "EXIT_NOT_FINITE = 1\n"), encoding="utf-8")
    assert ab.main([str(tmp_path), "--smoke", "--rounds", "1", "--workload", "structure-mix"]) == 1
    out = capsys.readouterr().out
    [(count, total)] = re.findall(r"^  planted answers, runs with problems: this 0, other (\d+) of (\d+) each; first in other: exit 1, expected 3$", out, re.M)
    assert 0 < int(count) < int(total)
