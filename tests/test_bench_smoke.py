"""The benchmark's requests still run and still check out, in a few seconds.

For each workload this runs the smallest request of its ``--smoke`` list
once, untraced, through ``bench/launch.py`` (a fresh interpreter, as the
benchmark does) and checks the output against the planted answer with
``bench/checks.py``.  ``python3 bench/smoke.py`` remains the full check of
the benchmark itself.  The bench modules are imported without writing
bytecode, so ``bench/`` is only read.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.fixture(scope="module")
def bench():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        import checks
        import workloads
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved
    return workloads, checks


@pytest.mark.parametrize("workload", ["structure-mix", "verify-wide", "verify-deep"])
def test_smallest_smoke_request(bench, workload, tmp_path):
    workloads, checks = bench
    requests = workloads.WORKLOADS[workload](random.Random(f"{workload}:1:0"), True)
    req = min(requests, key=lambda r: len(r.graph.text))
    graph = tmp_path / "graph.txt"
    graph.write_text(req.graph.text, encoding="utf-8")
    outdir = tmp_path / "artifacts"
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
        PYTHONDONTWRITEBYTECODE="1",
        AFEMBED_OUTPUT_DIR=str(outdir),
        AFEMBED_BENCH_REPORT=str(tmp_path / "report.json"),
        AFEMBED_BENCH_TRACE="0",
    )
    argv = [
        sys.executable, str(BENCH / "launch.py"), req.command,
        "--input", str(graph), "--format", "json", *req.options,
    ]
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    problems = checks.check(req.command, req.graph, proc.returncode, proc.stdout, outdir)
    assert problems == [], proc.stderr.decode("utf-8", "replace")[-500:]
    assert (tmp_path / "report.json").is_file()
