"""``tools/mutants.py``: every mutant still matches the code, and three fast ones are killed."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

# each killed by its first failing test, in about a second
FAST = ("product-drops-a-power", "contract-at-a-shared-receiver", "residual-tolerance-100x")


def test_every_mutant_matches_the_code_and_names_its_tests():
    """The old text occurs as often as the mutant says, the new text differs,
    each named test file exists, and a name, a reason or an equivalence
    argument is given once per mutant."""
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert (ROOT / m.file).read_text(encoding="utf-8").count(m.old) == m.count, m.name
        assert m.old != m.new and m.reason and m.tests, m.name
        assert all((ROOT / test.partition("::")[0]).is_file() for test in m.tests), m.name


def run(*args: str) -> list[str]:
    proc = subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()


def test_three_fast_mutants_are_killed():
    lines = run("--only", ",".join(FAST))
    assert [line.split()[:2] for line in lines[:-1]] == [[name, "killed"] for name in FAST]
    assert lines[-1] == "3 of 3 killed or equivalent"


def test_the_killing_tests_pass_on_an_unchanged_copy():
    """So a kill above is the mutant's doing, not the copy's."""
    lines = run("--control", "--only", FAST[-1])
    assert lines[0].split()[:2] == [FAST[-1], "passes"]
    assert lines[-1] == "the tests of 1 of 1 pass unchanged"
