"""Byte-for-byte regression of ``--format json`` reports on a fixed corpus.

The ``*.stdout`` files and ``exit_codes.json`` under ``tests/golden`` were
written by the CLI before the relation catalogue was shared between the
symbolic and numeric verifiers; a refactor of either backend must leave
every record, its order and the exit code unchanged.  The corpus covers an
embeddable loop at two depths, an entrance, cycles exiting into a DAG with
multi-receiver vertices (so CK3 needs receiver expansion), a self-loop with
a non-default multiplicity sequence, an acyclic graph, and two corrupted
generator maps that must keep failing the same way.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from afembed.cli import main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

# case name -> argv; "@name" is replaced by the path of GOLDEN / name
CASES = {
    "classify_square": ["classify", "--input", "@square.txt"],
    "verify_square_d4": ["verify", "--input", "@square.txt", "--depth", "4"],
    "verify_square_d6": ["verify", "--input", "@square.txt", "--depth", "6"],
    "classify_square_plus_entrance": ["classify", "--input", "@square_plus_entrance.txt"],
    "verify_square_plus_entrance": ["verify", "--input", "@square_plus_entrance.txt"],
    "loops_square_plus_entrance": ["loops", "--input", "@square_plus_entrance.txt"],
    "classify_cycles_dag": ["classify", "--input", "@cycles_dag.txt"],
    "verify_cycles_dag": ["verify", "--input", "@cycles_dag.txt", "--depth", "4"],
    "loops_cycles_dag": ["loops", "--input", "@cycles_dag.txt"],
    "classify_self_loop": ["classify", "--input", "@self_loop.txt"],
    "verify_self_loop_mult": [
        "verify", "--input", "@self_loop.txt", "--mult", "3,3;2", "--depth", "4",
    ],
    "classify_dag": ["classify", "--input", "@dag.txt"],
    "verify_dag": ["verify", "--input", "@dag.txt"],
    "loops_dag": ["loops", "--input", "@dag.txt"],
    "verify_square_fswap_map": [
        "verify", "--input", "@square.txt", "--depth", "4", "--map", "@square_fswap.genmap.txt",
    ],
    "verify_square_tdropped_map": [
        "verify", "--input", "@square.txt", "--depth", "4", "--map", "@square_tdropped.genmap.txt",
    ],
}


def resolve(argv: list[str]) -> list[str]:
    return [str(GOLDEN / a[1:]) if a.startswith("@") else a for a in argv] + ["--format", "json"]


def run_case(name: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(resolve(CASES[name]), out=out)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    code, stdout = run_case(name)
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert code == expected_codes[name]
    assert stdout == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")


def test_corpus_exercises_every_outcome():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert set(codes) == set(CASES)
    assert {codes[n] for n in ("verify_square_fswap_map", "verify_square_tdropped_map")} == {2}
    assert codes["verify_square_plus_entrance"] == 3
    assert "receiver expansion" in (GOLDEN / "verify_cycles_dag.stdout").read_text()


# runs the CLI in a fresh interpreter in which any import of scipy fails
WITHOUT_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
import afembed
from afembed.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_verify_needs_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-c", WITHOUT_SCIPY, *resolve(CASES["verify_square_d6"])]
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    expected_code = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))["verify_square_d6"]
    assert proc.returncode == expected_code, proc.stderr.decode("utf-8", "replace")[-500:]
    assert proc.stdout == (GOLDEN / "verify_square_d6.stdout").read_bytes()
