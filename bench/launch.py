"""Run one ``afembed`` request the way the installed command would.

Usage: ``PYTHONPATH=src python3 bench/launch.py <afembed arguments>``

The package is not installed and ``afembed.cli`` has no ``__main__``
block, so this calls ``afembed.cli.entry_point`` itself.  It never writes
to stdout, which therefore holds exactly the CLI's bytes.  Three
environment variables control what it records:

``AFEMBED_BENCH_REPORT``
    file that receives a JSON report at exit: the process's own peak
    resident memory (``VmHWM``), the ``perf_counter`` times at which this
    script started and began to exit (the clock is system-wide, so the
    parent can time interpreter start-up and exit), and, when traced, the
    spans.
``AFEMBED_BENCH_TRACE``
    ``1`` to time each layer: an ``import`` span, a ``main`` span around
    ``entry_point``, and one span per call of each function that
    ``afembed.cli`` imports and that is listed in :data:`LAYERS`.  Spans
    stay in memory until exit.  A listed name missing from ``afembed.cli``
    is reported as absent.
``AFEMBED_BENCH_REQUEST``
    request id stored on every span.
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()  # first statement: interpreter start-up ends here

import functools
import json
import os


def _ck3_expanded(report) -> int:
    """CK3 checks proved only after receiver expansion: the direct comparison was wasted."""
    return sum(1 for c in report.checks if c.relation.startswith("CK3") and c.note)


# name imported by afembed.cli -> (timed metric, {counter metric: value read from the return value})
LAYERS = {
    "load_graph": (
        "graph.load_graph",
        {"graph.vertices": lambda g: len(g.vertices), "graph.edges": lambda g: len(g.edges)},
    ),
    "serialize_graph": ("graph.serialize", {}),
    "export_dot": ("graph.serialize", {}),
    "classify": (
        "loops.classify",
        {"loops.loops_found": lambda c: len(c.loops), "loops.witnesses": lambda c: int(c.witness is not None)},
    ),
    "disjoint_simple_loops": ("loops.disjoint_simple_loops", {}),
    "witness_infinite": ("loops.witness_infinite", {}),
    "embed": ("embedding.embed", {"embedding.loops_replaced": lambda r: len(r[0].replacements)}),
    "materialize": ("embedding.materialize", {"embedding.materialized_edges": lambda g: len(g.edges)}),
    "verify_ck_family": (
        "verify.ck_family",
        {"verify.checks": lambda r: len(r.checks), "verify.ck3_expanded": _ck3_expanded},
    ),
    "build_rep": ("numrep.build_rep", {"numrep.dimension": lambda r: r.dimension}),
    "relation_residuals": ("numrep.relation_residuals", {"numrep.residual_instances": lambda r: len(r.entries)}),
    "loop_spectrum": ("numrep.loop_spectrum", {"numrep.eigenvalues": lambda r: len(r.eigenvalues)}),
}


class Tracer:
    """In-memory spans of one request; each records its parent's index."""

    def __init__(self, request: str):
        self.request = request
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._open: list[int] = []

    def begin(self, name: str) -> dict:
        span = {
            "name": name,
            "start": perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "request": self.request,
        }
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn, counters: dict):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            span["counters"] = {}
            for metric, read in counters.items():
                try:
                    span["counters"][metric] = read(result)
                except (AttributeError, TypeError, IndexError):
                    self.absent.append(metric)
            return result

        return traced

    def instrument(self, module) -> None:
        for name, (_, counters) in LAYERS.items():
            fn = getattr(module, name, None)
            if callable(fn):
                setattr(module, name, self.wrap(name, fn, counters))
            else:
                self.absent.append(name)


def _vm_hwm_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> None:
    report_path = os.environ.get("AFEMBED_BENCH_REPORT")
    tracer = None
    if os.environ.get("AFEMBED_BENCH_TRACE") == "1":
        tracer = Tracer(os.environ.get("AFEMBED_BENCH_REQUEST", ""))
    try:
        if tracer is None:
            import afembed.cli as cli
        else:
            span = tracer.begin("import")
            import afembed.cli as cli

            tracer.end(span)
            tracer.instrument(cli)
            span = tracer.begin("main")
        try:
            cli.entry_point()
        finally:
            if tracer is not None:
                tracer.end(span)
    finally:
        if report_path:
            report = {"vm_hwm_kb": _vm_hwm_kb(), "started": STARTED, "exiting": perf_counter()}
            if tracer is not None:
                report.update(spans=tracer.spans, absent=sorted(set(tracer.absent)))
            with open(report_path, "w", encoding="utf-8") as out:
                json.dump(report, out)


if __name__ == "__main__":
    main()
