"""``tools/same_bytes.py`` on the benchmark's smoke lists: a tree is the
same as itself, and a copy whose tail phases move by one part in 10^15 is
not."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_bytes.py"
_spec = importlib.util.spec_from_file_location("same_bytes", TOOL)
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


def test_every_run_is_planned_in_both_formats():
    runs = same_bytes.requests([1], smoke=True)
    assert len({rid for rid, _, _ in runs}) == len(runs)
    assert [argv[2] for _, argv, _ in runs] == ["json", "text"] * (len(runs) // 2)
    assert {rid.split("-s1-")[0] for rid, _, _ in runs} == {"structure-mix", "verify-wide", "verify-deep"}


def test_a_tree_gives_its_own_bytes():
    runs, difference = same_bytes.compare(ROOT, [1], smoke=True)
    assert difference is None
    assert runs == len(same_bytes.requests([1], smoke=True))


def test_a_moved_bit_is_named(tmp_path):
    shutil.copytree(ROOT / "src" / "afembed", tmp_path / "src" / "afembed", ignore=shutil.ignore_patterns("__pycache__"))
    numrep = tmp_path / "src" / "afembed" / "numrep.py"
    text = numrep.read_text(encoding="utf-8")
    phase = "return cmath.exp(2j * math.pi * j / n)"
    assert text.count(phase) == 1
    numrep.write_text(text.replace(phase, phase + " * (1 + 1e-15j)"), encoding="utf-8")
    _, difference = same_bytes.compare(tmp_path, [1], smoke=True)
    assert difference == "verify-wide-s1-r000-json: stdout differ"
