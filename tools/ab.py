"""Time this source tree against another, one benchmark request at a time.

Usage: ``python tools/ab.py OTHER_TREE [--workload NAME] [--seed 5] [--rounds 5] [--smoke] [--setup N]``

For each workload of ``bench/workloads.py`` (or the one ``--workload``
names) this draws pass 0 of ``--seed``, as ``tools/same_bytes.py`` does,
and runs every request once per round through each tree's
``bench/launch.py``, as ``bench/run.py`` spawns it: ``--format json``, the
tree's ``src`` first on ``PYTHONPATH``, and every module compiled from
source (``PYTHONDONTWRITEBYTECODE=1``) on both sides.  The two trees run
each request back to back, on the same input file, output directory and
working directory, so no path differs between them; which tree goes first
swaps from one request to the next and from one round to the next.

A request's latency, from spawn to reaped, splits by the launcher's report
into start (interpreter start-up, ``site`` included, to the launcher's
first statement), work (the imports and the command, to the launcher's
last timestamp) and exit (writing the report, interpreter shutdown and the
reaping).  Per tree this prints the medians of the four over every
request and the largest ``VmHWM``; per round, each tree's requests per
second (requests over the sum of their latencies) and their ratio, this
tree's over the other's, as its median, quartiles and the rounds this tree
won; and whether every stdout and exit code were the same in both trees,
which is the exit status: 1 if any differed.  ``bench/`` is only read.

``--setup N`` first times what ``bench/run.py`` reports as ``setup_s``: N
fresh ``python -c "import afembed.cli"`` per tree, interleaved as the
requests are, each waited for in two ways.  A plain wait gives the true
wall time, whose quartiles and median are printed per tree.  A wait with a
``timeout=``, as ``measure_setup`` calls it, makes CPython poll the child
with sleeps that double up to 50 ms, so a sample can read a poll step
late; per tree this prints how many of those samples read above
:data:`POLLED_ABOVE_S`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from same_bytes import ROOT, pass_zero

PHASES = ("latency", "start", "work", "exit")
POLLED_ABOVE_S = 0.09  # a timed wait's sample above this read at least one late poll step


def tree_env(tree: Path, **extra: str) -> dict:
    """The environment of a process of ``tree``: its ``src`` first on
    ``PYTHONPATH``, and every module compiled from source."""
    pythonpath = os.pathsep.join(filter(None, [str(tree.resolve() / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath, PYTHONDONTWRITEBYTECODE="1", **extra)


def spawn(tree: Path, req, graph: Path, workdir: Path) -> dict:
    """One request through ``tree``'s launcher: its phases in seconds,
    ``VmHWM`` in kB, stdout and exit code."""
    report, outdir = workdir / "report.json", workdir / "out"
    env = tree_env(
        tree,
        AFEMBED_OUTPUT_DIR=str(outdir),
        AFEMBED_BENCH_REPORT=str(report),
        AFEMBED_BENCH_TRACE="0",
    )
    argv = [sys.executable, str(tree.resolve() / "bench" / "launch.py"), req.command, "--input", str(graph), "--format", "json", *req.options]
    t0 = perf_counter()
    proc = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, timeout=600)
    t1 = perf_counter()
    shutil.rmtree(outdir, ignore_errors=True)
    launched = json.loads(report.read_text(encoding="utf-8"))
    report.unlink()
    return {
        "latency": t1 - t0,
        "start": launched["started"] - t0,
        "work": launched["exiting"] - launched["started"],
        "exit": t1 - launched["exiting"],
        "vm_hwm_kb": launched["vm_hwm_kb"],
        "stdout": proc.stdout,
        "code": proc.returncode,
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def import_cli(tree: Path, polled: bool) -> float:
    """Seconds from spawning a fresh ``import afembed.cli`` of ``tree`` to
    reaping it; ``polled`` waits with a ``timeout=``, as ``measure_setup`` does."""
    wait = {"timeout": 600} if polled else {}
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import afembed.cli"], env=tree_env(tree), check=True, **wait)
    return perf_counter() - t0


def compare_setup(other: Path, count: int) -> list[str]:
    """The report lines of ``count`` imports per tree and way of waiting."""
    trees = (ROOT, other)
    plain: tuple[list[float], list[float]] = ([], [])
    polled: tuple[list[float], list[float]] = ([], [])
    for i in range(count):
        order = (i % 2, 1 - i % 2)
        for side in order:
            plain[side].append(import_cli(trees[side], polled=False))
        for side in order:
            polled[side].append(import_cli(trees[side], polled=True))
    lines = [f"setup: {count} fresh imports of afembed.cli per tree and wait, this tree against {other}"]
    for label, times, timed in zip(("this", "other"), plain, polled):
        q1, q3 = quartiles(times)
        above = sum(t > POLLED_ABOVE_S for t in timed)
        lines.append(
            f"  {label:6s}plain wait ms: median {1000 * statistics.median(times):.2f}, quartiles {1000 * q1:.2f} {1000 * q3:.2f}; "
            f"timed wait: {above} of {count} above {1000 * POLLED_ABOVE_S:.0f} ms"
        )
    return lines


def compare(other: Path, workload: str, seed: int, reqs: list, rounds: int) -> tuple[list[str], bool]:
    """The report lines of one workload's requests, and whether both trees
    gave the same stdout and exit codes."""
    trees = (ROOT, other)
    runs: tuple[list[dict], list[dict]] = ([], [])
    ratios, wins, same = [], 0, True
    with tempfile.TemporaryDirectory(prefix="ab_") as tmp:
        workdir = Path(tmp)
        graphs = [workdir / f"r{i:03d}.txt" for i in range(len(reqs))]
        for graph, req in zip(graphs, reqs):
            graph.write_text(req.graph.text, encoding="utf-8")
        for r in range(rounds):
            spent = [0.0, 0.0]
            for i, (req, graph) in enumerate(zip(reqs, graphs)):
                first = (r + i) % 2
                outcome = [None, None]
                for side in (first, 1 - first):
                    outcome[side] = spawn(trees[side], req, graph, workdir)
                    runs[side].append(outcome[side])
                    spent[side] += outcome[side]["latency"]
                same &= outcome[0]["stdout"] == outcome[1]["stdout"] and outcome[0]["code"] == outcome[1]["code"]
            ratios.append(spent[1] / spent[0])  # requests per second, this tree's over the other's
            wins += spent[0] < spent[1]
    lines = [f"{workload}: seed {seed}, {rounds} round(s) of {len(reqs)} requests, this tree against {other}"]
    lines.append(f"  {'tree':6s}" + "".join(f"{name + ' ms':>12s}" for name in PHASES) + f"{'VmHWM MB':>12s}")
    for label, mine in zip(("this", "other"), runs):
        medians = [1000 * statistics.median(run[name] for run in mine) for name in PHASES]
        peak = max(run["vm_hwm_kb"] for run in mine) / 1024
        lines.append(f"  {label:6s}" + "".join(f"{m:12.2f}" for m in medians) + f"{peak:12.2f}")
    q1, q3 = quartiles(ratios)
    lines.append(
        f"  req/s per round, this/other: median {statistics.median(ratios):.4f}, quartiles {q1:.4f} {q3:.4f}, "
        f"this tree faster in {wins} of {rounds}"
    )
    lines.append(f"  stdout and exit codes: {'identical' if same else 'DIFFER'} over {len(runs[0])} request pairs")
    return lines, same


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("other_tree", type=Path, help="a checkout to compare with, holding src/afembed and bench/launch.py")
    p.add_argument("--workload", help="one workload of bench/workloads.py (default: every one)")
    p.add_argument("--seed", type=int, default=5, help="benchmark seed whose pass 0 is drawn (default 5)")
    p.add_argument("--rounds", type=int, default=5, help="passes over the requests (default 5)")
    p.add_argument("--smoke", action="store_true", help="the smallest size of each family, as bench/run.py --smoke")
    p.add_argument("--setup", type=int, default=0, metavar="N", help="first time N imports of afembed.cli per tree (default 0)")
    args = p.parse_args(argv)
    if not (args.other_tree / "src" / "afembed").is_dir() or not (args.other_tree / "bench" / "launch.py").is_file():
        p.error(f"{args.other_tree} holds no src/afembed and bench/launch.py")
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    if args.setup < 0:
        p.error("--setup must be at least 0")
    drawn: dict[str, list] = {}
    for name, _, _, req in pass_zero([args.seed], args.smoke, None if args.workload is None else {args.workload}):
        drawn.setdefault(name, []).append(req)
    if not drawn:
        p.error(f"no workload {args.workload!r} in bench/workloads.py")
    if args.setup:
        print("\n".join(compare_setup(args.other_tree, args.setup)), flush=True)
    identical = True
    for name, reqs in drawn.items():
        lines, same = compare(args.other_tree, name, args.seed, reqs, args.rounds)
        print("\n".join(lines), flush=True)
        identical &= same
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
