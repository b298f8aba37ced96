"""The benchmark's requests still run and still check out, in a few seconds.

For each workload this runs the smallest request of its ``--smoke`` list
once, untraced, through ``bench/launch.py`` (a fresh interpreter, as the
benchmark does) and checks the output against the planted answer with
``bench/checks.py``.  ``python3 bench/smoke.py`` remains the full check of
the benchmark itself.  The bench modules are imported without writing
bytecode, so ``bench/`` is only read.

The traced launcher wraps the functions named in its ``LAYERS`` table as
attributes of ``afembed.cli``; a name that stops being one, or that a
command stops calling through the module, would lose its span silently,
so both are checked here.
"""

import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _bench_module(name: str):
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved


@pytest.fixture(scope="module")
def bench():
    return _bench_module("workloads"), _bench_module("checks")


def _launch_env(tmp_path, outdir, trace: str) -> dict:
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
        PYTHONDONTWRITEBYTECODE="1",
        AFEMBED_OUTPUT_DIR=str(outdir),
        AFEMBED_BENCH_REPORT=str(tmp_path / "report.json"),
        AFEMBED_BENCH_TRACE=trace,
    )


@pytest.mark.parametrize("workload", ["structure-mix", "verify-wide", "verify-deep"])
def test_smallest_smoke_request(bench, workload, tmp_path):
    workloads, checks = bench
    requests = workloads.WORKLOADS[workload](random.Random(f"{workload}:1:0"), True)
    req = min(requests, key=lambda r: len(r.graph.text))
    graph = tmp_path / "graph.txt"
    graph.write_text(req.graph.text, encoding="utf-8")
    outdir = tmp_path / "artifacts"
    env = _launch_env(tmp_path, outdir, trace="0")
    argv = [
        sys.executable, str(BENCH / "launch.py"), req.command,
        "--input", str(graph), "--format", "json", *req.options,
    ]
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    problems = checks.check(req.command, req.graph, proc.returncode, proc.stdout, outdir)
    assert problems == [], proc.stderr.decode("utf-8", "replace")[-500:]
    assert (tmp_path / "report.json").is_file()


def test_every_traced_layer_is_a_cli_attribute():
    import afembed.cli as cli

    layers = _bench_module("launch").LAYERS
    assert [name for name in layers if not callable(getattr(cli, name, None))] == []


def test_traced_requests_span_every_layer(tmp_path):
    """Each command, traced, opens a span for each layer it runs, and the
    commands together cover every ``LAYERS`` name but ``witness_infinite``.

    That one checks a witness that a caller brings; every command writes
    the witness ``classify`` built, which needs no check, so none runs it.
    """
    golden = ROOT / "tests" / "golden"
    square = str(golden / "square.txt")
    requests = {
        ("classify", "--input", str(golden / "square_plus_entrance.txt")): {"load_graph", "classify"},
        ("loops", "--input", square): {"load_graph", "disjoint_simple_loops"},
        ("embed", "--input", square, "--depth", "3"): {"load_graph", "embed", "materialize", "serialize_graph", "export_dot"},
        ("verify", "--input", square, "--depth", "3"): {
            "load_graph", "embed", "verify_ck_family", "build_rep", "relation_residuals", "loop_spectrum",
        },
        ("export", "--input", square, "--format", "dot"): {"load_graph", "export_dot"},
    }
    for argv, layers in requests.items():
        env = _launch_env(tmp_path, tmp_path / "artifacts", trace="1")
        proc = subprocess.run([sys.executable, str(BENCH / "launch.py"), *argv], env=env, capture_output=True, timeout=60)
        assert proc.returncode in (0, 3), proc.stderr.decode("utf-8", "replace")[-500:]
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert report["absent"] == [], argv
        assert {span["name"] for span in report["spans"]} == {"import", "main", *layers}, argv
    assert set().union(*requests.values()) == set(_bench_module("launch").LAYERS) - {"witness_infinite"}
