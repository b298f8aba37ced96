"""Closed-loop benchmark of the ``afembed`` command line.

Run from the repository root::

    python3 bench/run.py --workload structure-mix --seed 1 --seconds 15 --trace 0

One client sends one request at a time and waits for it: every request is
a fresh ``afembed`` process (``bench/launch.py``) on a generated graph file,
so at most two processes are busy.  The run makes whole passes over the
workload's request list (``workloads.py``) until ``--seconds`` have gone by;
each pass draws fresh graphs from the seed.  Every output is checked
against the planted answer (``checks.py``), and every eighth request is
repeated at once to check that its stdout is byte-identical.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
requests through the traced launcher and reports per-layer self times and
counters per pass; the repeats then run untraced and give the tracing
overhead.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
give every metric by name with its unit, the environment, and failures.
Scratch files, a results file and (traced) the spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from checks import check
from launch import LAYERS
from workloads import WORKLOADS, Request

BENCH_DIR = Path(__file__).resolve().parent
SRC = Path("src")
OUT = Path(".bench_out")
SETUP_SAMPLES = 5
CHECK_EVERY = 8
TAIL_BEYOND = 10  # samples a tail percentile must have beyond it
MEASURE_LIMIT_S = 140  # no request starts later than this into a run
RUN_LIMIT_S = 170  # any child still running then is killed, so a run ends within 180 s
MEMORY_CEILING_MB = 1024  # per request; the machine's memory is shared

END_TO_END_UNITS = {
    "requests_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    request: str
    command: str
    spawned: float
    exited: float
    stdout: bytes = b""
    report: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def latency(self) -> float:
        return self.exited - self.spawned


def environment(seed: int) -> dict:
    """What a result depends on besides the code: versions, BLAS threads, cores, seed."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read through its C API."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line and line.rstrip().endswith(".so")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def measure_setup(env: dict, count: int, deadline: float) -> list[float]:
    """Wall times of fresh interpreters that only import ``afembed.cli``."""
    samples = []
    for _ in range(count):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import afembed.cli"], env=env, check=True, timeout=deadline - t0)
        samples.append(perf_counter() - t0)
    return samples


class Runner:
    """Spawns requests one at a time and checks each output."""

    def __init__(self, workdir: Path, base_env: dict, deadline: float):
        self.workdir = workdir
        self.base_env = base_env
        self.deadline = deadline
        for sub in ("inputs", "artifacts", "reports"):
            (workdir / sub).mkdir(parents=True)

    def write_input(self, rid: str, req: Request) -> None:
        (self.workdir / "inputs" / f"{rid}.txt").write_text(req.graph.text, encoding="utf-8")

    def spawn(self, rid: str, req: Request, traced: bool) -> Outcome:
        outdir = self.workdir / "artifacts" / rid
        report = self.workdir / "reports" / f"{rid}.json"
        env = dict(
            self.base_env,
            AFEMBED_OUTPUT_DIR=str(outdir),
            AFEMBED_BENCH_REPORT=str(report),
            AFEMBED_BENCH_TRACE="1" if traced else "0",
            AFEMBED_BENCH_REQUEST=rid,
        )
        argv = [
            sys.executable, str(BENCH_DIR / "launch.py"), req.command,
            "--input", str(self.workdir / "inputs" / f"{rid}.txt"), "--format", "json", *req.options,
        ]
        t0 = perf_counter()
        try:
            proc = subprocess.run(argv, env=env, capture_output=True, timeout=max(self.deadline - t0, 1.0))
        except subprocess.TimeoutExpired:
            return Outcome(rid, req.command, t0, perf_counter(), problems=[f"killed after {RUN_LIMIT_S} s into the run"])
        out = Outcome(rid, req.command, t0, perf_counter(), proc.stdout)
        try:
            out.report = json.loads(report.read_text(encoding="utf-8"))
            report.unlink()
        except (OSError, ValueError) as exc:
            out.problems.append(f"no launcher report: {exc}")
        peak_mb = out.report.get("vm_hwm_kb", 0) / 1024
        if peak_mb > MEMORY_CEILING_MB:
            out.problems.append(f"peak memory {peak_mb:.0f} MB is above the {MEMORY_CEILING_MB} MB ceiling")
        out.problems += check(req.command, req.graph, proc.returncode, proc.stdout, outdir)
        if out.problems and proc.stderr:
            out.problems.append("stderr: " + proc.stderr.decode("utf-8", "replace")[-300:])
        return out


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it, and its value."""
    n = len(latencies)
    if n < 2 * TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(latencies)[n - TAIL_BEYOND - 1]


def end_to_end(passes: list[list[Outcome]], repeats: list[Outcome], setup: list[float]) -> tuple[dict, list[str]]:
    timed = [o for p in passes for o in p]
    lat = [o.latency for o in timed]
    ok = sum(1 for o in timed if not o.problems)
    metrics = {
        "requests_per_s": ok / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(o.report.get("vm_hwm_kb", 0) for o in timed + repeats) / 1024,
    }
    notes = [f"setup_s: median of {len(setup)} imports, samples {' '.join(f'{s:.3f}' for s in setup)}"]
    tails = [t for t in (tail([o.latency for o in p]) for p in passes) if t is not None]
    if tails:
        metrics["latency_tail_s"] = statistics.median(v for _, v in tails)
        notes.append(
            f"latency_tail_s: p{tails[0][0]:.1f} of each pass ({len(passes[0])} samples, {TAIL_BEYOND} beyond it), "
            f"median over {len(tails)} pass(es)"
        )
    else:
        notes.append(f"latency_tail_s: absent, a pass needs >= {2 * TAIL_BEYOND} requests, has {len(passes[0])}")
    return metrics, notes


def _self_times(spans: list[dict]) -> list[float]:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metric_names(absent) -> set[str]:
    """Every per-layer metric, less those fed only by absent functions or counters."""
    names = {"cli.import_s", "cli.import.calls", "cli.self_s", "cli.self.calls", "cli.stdout_bytes"}
    names |= {"cli.interpreter_start_s", "cli.interpreter_exit_s", "trace.wall_s", "trace.unaccounted_s"}
    for name, (base, counters) in LAYERS.items():
        if name not in absent:
            names |= {f"{base}_s", f"{base}.calls"} | {c for c in counters if c not in absent}
    return names


def per_layer(passes: list[list[Outcome]], repeats: list[Outcome], by_id: dict) -> tuple[dict, list[str]]:
    """Per-pass sums of span self times and counters over the correct traced requests.

    A request's wall time splits into interpreter start-up (spawn to the
    launcher's first statement), the spans, and interpreter exit (report
    written to process reaped); what is left is unaccounted.
    """
    timed = [o for p in passes for o in p]
    absent = {name for o in timed for name in o.report.get("absent", ())}
    totals: dict[str, float] = {name: 0 for name in layer_metric_names(absent)}
    for o in timed:
        if o.problems:
            continue  # its spans may be cut short; counted in fail_ratio
        spans = o.report["spans"]
        for span, own in zip(spans, _self_times(spans)):
            base = {"import": "cli.import", "main": "cli.self"}.get(span["name"]) or LAYERS[span["name"]][0]
            totals[f"{base}_s"] += own
            totals[f"{base}.calls"] += 1
            for counter, value in span.get("counters", {}).items():
                if counter in totals:
                    totals[counter] += value
        start, exit_ = o.report["started"] - o.spawned, o.exited - o.report["exiting"]
        roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
        totals["cli.interpreter_start_s"] += start
        totals["cli.interpreter_exit_s"] += exit_
        totals["trace.wall_s"] += o.latency
        totals["trace.unaccounted_s"] += o.latency - start - exit_ - roots
    totals["cli.stdout_bytes"] = sum(len(o.stdout) for o in timed)
    metrics = {name: value / len(passes) for name, value in totals.items()}
    pairs = [(by_id[r.request].latency, r.latency) for r in repeats]
    if pairs:
        metrics["trace.overhead_ratio"] = sum(t for t, _ in pairs) / sum(u for _, u in pairs)

    wall, rest = metrics["trace.wall_s"], metrics["trace.unaccounted_s"]
    layers = sorted(((v, k) for k, v in metrics.items() if k.endswith("_s") and not k.startswith("trace.")), reverse=True)
    notes = [f"per-layer values are per pass ({len(passes)} pass(es), {len(timed)} traced requests)"]
    notes += [f"{name}: absent" for name in sorted(layer_metric_names(()) - metrics.keys())]
    notes += [f"absent from afembed.cli or its return values: {name}" for name in sorted(absent)]
    notes.append("self time by layer: " + ", ".join(f"{k} {v:.3f} s ({100 * v / wall:.1f}%)" for v, k in layers if v > 0))
    notes.append(f"self times account for {wall - rest:.3f} s of {wall:.3f} s traced wall time; unaccounted {rest:.4f} s")
    if pairs:
        notes.append(f"tracing overhead: traced/untraced wall over {len(pairs)} repeated requests = {metrics['trace.overhead_ratio']:.4f}")
    else:
        notes.append("trace.overhead_ratio: absent, no request was repeated")
    return metrics, notes


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    return {"cli.stdout_bytes": "bytes", "trace.overhead_ratio": "ratio"}.get(name, "count")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="smallest sizes and one import sample, for a quick self-check")
    return p.parse_args(argv)


def run_passes(runner: Runner, args: argparse.Namespace, launched: float) -> tuple[list[list[Outcome]], list[Outcome]]:
    """Whole passes until ``args.seconds`` have gone by; each pass draws fresh graphs."""
    passes: list[list[Outcome]] = []
    repeats: list[Outcome] = []
    start = perf_counter()
    while not passes or perf_counter() - start < args.seconds:
        reqs = WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}:{len(passes)}"), args.smoke)
        rids = [f"p{len(passes)}r{i:03d}" for i in range(len(reqs))]
        for rid, req in zip(rids, reqs):
            runner.write_input(rid, req)
        outcomes: list[Outcome] = []
        passes.append(outcomes)
        for i, (rid, req) in enumerate(zip(rids, reqs)):
            if perf_counter() - launched > MEASURE_LIMIT_S:
                print(f"stopped {MEASURE_LIMIT_S} s into the run, inside pass {len(passes) - 1}", file=sys.stderr)
                return passes, repeats
            outcomes.append(runner.spawn(rid, req, bool(args.trace)))
            if i % CHECK_EVERY == args.seed % CHECK_EVERY:
                again = runner.spawn(rid, req, traced=False)
                if again.stdout != outcomes[-1].stdout:
                    again.problems.append("stdout differs from the first run of the same request")
                repeats.append(again)
    return passes, repeats


def main(argv=None) -> int:
    launched = perf_counter()
    args = parse_args(argv)
    if not (SRC / "afembed" / "cli.py").is_file():
        print(f"error: {SRC / 'afembed' / 'cli.py'} not found; run from the repository root", file=sys.stderr)
        return 2
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = OUT / tag
    shutil.rmtree(workdir, ignore_errors=True)
    pythonpath = os.pathsep.join(filter(None, [str(SRC.resolve()), os.environ.get("PYTHONPATH")]))
    base_env = dict(os.environ, PYTHONPATH=pythonpath)
    env_record = environment(args.seed)
    deadline = launched + RUN_LIMIT_S
    setup = measure_setup(base_env, 1 if args.smoke else SETUP_SAMPLES, deadline)
    try:
        start = perf_counter()
        passes, repeats = run_passes(Runner(workdir, base_env, deadline), args, launched)
        elapsed = perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = [o for p in passes for o in p] + repeats
    failures = [o for o in every if o.problems]
    if args.trace:
        metrics, notes = per_layer(passes, repeats, {o.request: o for p in passes for o in p})
    else:
        metrics, notes = end_to_end(passes, repeats, setup)

    lines = [
        f"afembed CLI benchmark: workload={args.workload} seed={args.seed} trace={args.trace}"
        f" smoke={int(args.smoke)} seconds={args.seconds:g}",
        "environment: " + " ".join(f"{k}={v}" for k, v in env_record.items()),
        f"{len(passes)} pass(es) of {len(passes[0])} requests in {elapsed:.2f} s, plus {len(repeats)} repeats",
    ]
    lines += [f"{name:34s} {value:.6g} {unit_of(name)}" for name, value in sorted(metrics.items())]
    lines.append(f"{'fail_ratio':34s} {len(failures) / len(every):.6g} ratio ({len(failures)} of {len(every)} requests)")
    lines += notes
    lines += [f"FAILED {o.request} {o.command}: {'; '.join(o.problems)}" for o in failures[:10]]
    print("\n".join(lines))

    result = {
        "correct": not failures,
        "attempted": len(every),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in sorted(metrics.items())},
    }
    record = {
        "environment": env_record,
        "report": lines,
        "requests": [[o.request, o.command, round(o.latency, 6), o.problems] for o in every],
        **result,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        spans = [s for o in every for s in o.report.get("spans", [])]
        (OUT / f"spans-{tag}.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
