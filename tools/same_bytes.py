"""Check that another source tree gives the same bytes on the benchmark's requests.

Usage: ``python tools/same_bytes.py OTHER_TREE [--seeds 5,6]``

For each seed this draws pass 0 of every workload in ``bench/workloads.py``
(the graphs ``bench/run.py`` draws first for that seed) and runs each
request through ``afembed.cli.main`` twice, with ``--format json`` and with
``--format text``.  All runs of one tree happen in one child process that
imports ``afembed`` from the tree's ``src``; this tree and ``OTHER_TREE``
run one after the other on the same input files, with the same working
directory, so no path differs between them.  Each run is recorded as the
SHA-256 of its stdout, of its stderr, and of the files it writes (the
``embed`` artifacts), with its exit code.  The first run whose record
differs is named and the exit status is 1; otherwise the number of
identical runs is printed.  ``bench/`` is only read.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORMATS = ("json", "text")


def requests(seeds: list[int], smoke: bool = False) -> list[tuple[str, list[str], str]]:
    """``(run id, afembed argv without --input, graph text)`` for every run,
    in workload, seed, request and format order."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        workloads = importlib.import_module("workloads").WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "bench"))
        sys.dont_write_bytecode = saved
    runs = []
    for name, draw in workloads.items():
        for seed in seeds:
            for i, req in enumerate(draw(random.Random(f"{name}:{seed}:0"), smoke)):
                for fmt in FORMATS:
                    rid = f"{name}-s{seed}-r{i:03d}-{fmt}"
                    runs.append((rid, [req.command, "--format", fmt, *req.options], req.graph.text))
    return runs


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child(plan_path: str, result_path: str) -> None:
    """Run every planned request through ``afembed.cli.main`` in this
    process, from the working directory, and write the records as JSON."""
    from afembed import cli

    records = {}
    for rid, argv in json.loads(Path(plan_path).read_text(encoding="utf-8")):
        outdir = Path("out") / rid
        os.environ[cli.OUTPUT_DIR_ENV] = str(outdir)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except Exception as exc:  # the installed command would print a traceback and exit 1
                code = f"{type(exc).__name__}: {exc}"
        files = sorted(p for p in outdir.rglob("*") if p.is_file()) if outdir.exists() else []
        artifacts = b"".join(f"{p.relative_to(outdir)}\0".encode() + _digest(p.read_bytes()).encode() for p in files)
        shutil.rmtree(outdir, ignore_errors=True)
        records[rid] = {
            "stdout": _digest(stdout.getvalue().encode("utf-8", "backslashreplace")),
            "stderr": _digest(stderr.getvalue().encode("utf-8", "backslashreplace")),
            "exit": code,
            "artifacts": _digest(artifacts),
        }
    Path(result_path).write_text(json.dumps(records), encoding="utf-8")


def run_tree(tree: Path, plan: Path, workdir: Path) -> dict:
    """The records of every planned run, from ``tree``'s ``afembed``."""
    result = workdir / "result.json"
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"), PYTHONDONTWRITEBYTECODE="1")
    code = f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); import same_bytes; same_bytes.child(sys.argv[1], sys.argv[2])"
    subprocess.run([sys.executable, "-c", code, str(plan), str(result)], cwd=workdir, env=env, check=True)
    records = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    return records


def compare(other: Path, seeds: list[int], smoke: bool = False) -> tuple[int, str | None]:
    """``(runs, the first difference or None)`` between this tree and ``other``."""
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        workdir = Path(tmp)
        (workdir / "inputs").mkdir()
        plan = []
        for rid, argv, text in requests(seeds, smoke):
            graph = Path("inputs") / f"{rid.rsplit('-', 1)[0]}.txt"
            (workdir / graph).write_text(text, encoding="utf-8")
            plan.append((rid, [argv[0], "--input", str(graph), *argv[1:]]))
        (workdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        mine, theirs = (run_tree(tree, workdir / "plan.json", workdir) for tree in (ROOT, other))
        for rid, _ in plan:
            differ = [key for key in mine[rid] if mine[rid][key] != theirs[rid][key]]
            if differ:
                return len(plan), f"{rid}: {', '.join(differ)} differ"
        return len(plan), None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("other_tree", type=Path, help="a checkout to compare with, holding src/afembed")
    p.add_argument("--seeds", default="5,6", help="comma-separated benchmark seeds (default 5,6)")
    args = p.parse_args(argv)
    if not (args.other_tree / "src" / "afembed").is_dir():
        p.error(f"{args.other_tree} holds no src/afembed")
    runs, difference = compare(args.other_tree, [int(s) for s in args.seeds.split(",")])
    if difference:
        print(f"first difference: {difference}")
        return 1
    print(f"{runs} runs identical: stdout, stderr, exit code and artifacts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
