"""Command-line front end: parse, classify, embed, verify, export.

Exit codes: 0 for AF or AF-embeddable inputs (the report distinguishes
them), 3 when a loop has an entrance, 1 for unreadable or malformed input
and command-line usage errors, 2 when a verification check fails.
Structured output is newline-delimited JSON records with sorted keys, so
identical inputs produce byte-identical reports.  Messages that are not
records (``error: ...``, ``verification failed: ...``) go to stderr, so
every line of a ``--format json`` stdout parses as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module
from pathlib import Path as FsPath

from .graph import GraphError, export_dot, graph_to_dict, load_graph, serialize_graph
from .loops import EntranceExistsError, SimpleLoop, Verdict, _chain_lines, classify, disjoint_simple_loops
from .loops import witness_infinite  # noqa: F401 -- no command calls it; the benchmark's LAYERS wraps it


def _deferred(module: str, name: str):
    """A stand-in for ``afembed.<module>.<name>`` that imports the module at its first call.

    ``classify``, ``loops`` and ``export`` need only ``graph`` and ``loops``,
    so the term engine, the embedding, the verifier and the numeric stage
    are imported by the commands that run them.  The stand-ins stay module
    attributes that the commands look up at each call, so a caller can
    still wrap them here.
    """

    def call(*args, **kwargs):
        return getattr(import_module(f".{module}", __package__), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


embed = _deferred("embedding", "embed")
materialize = _deferred("embedding", "materialize")
verify_ck_family = _deferred("verify", "verify_ck_family")
build_rep = _deferred("numrep", "build_rep")
relation_residuals = _deferred("numrep", "relation_residuals")
loop_spectrum = _deferred("numrep", "loop_spectrum")

OUTPUT_DIR_ENV = "AFEMBED_OUTPUT_DIR"

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_VERIFICATION_FAILED = 2
EXIT_NOT_FINITE = 3

#: Largest residual, and largest spectral deviation, that ``verify`` accepts.
TOL_ALG = 1e-12
TOL_SPEC = 1e-10


_JSON = json.JSONEncoder(sort_keys=True)


def _emit(records: list[dict], fmt: str, out) -> None:
    """Write each record and its newline with one ``write`` call."""
    if fmt == "json":
        for rec in records:
            out.write(_JSON.encode(rec) + "\n")
    else:
        for rec in records:
            fields = " ".join(f"{k}={rec[k]}" for k in sorted(rec) if k != "record")
            out.write(f"{rec['record']}: {fields}\n")


def _load(path: str):
    if path == "-":
        return load_graph(sys.stdin.read())
    return load_graph(FsPath(path).read_text(encoding="utf-8"))


def _output_dir() -> FsPath:
    d = FsPath(os.environ.get(OUTPUT_DIR_ENV, "."))
    d.mkdir(parents=True, exist_ok=True)
    return d


def _stem(args) -> str:
    return "graph" if args.input == "-" else FsPath(args.input).stem


def _loop_record(loop: SimpleLoop) -> dict:
    return {"record": "loop", "edges": " ".join(loop.edges), "vertices": " ".join(loop.vertices)}


def _entrance_record(exc: EntranceExistsError) -> dict:
    """The refusal of ``loops`` and ``verify``: the vertex the entrance reaches."""
    return {"record": "error", "reason": "entrance exists", "at": exc.witness.entry_vertex}


def cmd_classify(args, out) -> int:
    g = _load(args.input)
    cls = classify(g)
    records = [{"record": "classification", "verdict": cls.verdict.value}]
    records += map(_loop_record, cls.loops)
    if cls.witness is not None:
        lines = _chain_lines(cls.witness)  # classify built it: it needs no check
        records.append(
            {
                "record": "witness",
                "entry_vertex": cls.witness.entry_vertex,
                "entry_edge": cls.witness.entry_edge,
                "alpha": str(cls.witness.alpha),
                "beta": str(cls.witness.beta),
                "chain": " ; ".join(lines[2:]),
            }
        )
    _emit(records, args.format, out)
    return EXIT_NOT_FINITE if cls.verdict is Verdict.NOT_FINITE else EXIT_OK


def cmd_loops(args, out) -> int:
    g = _load(args.input)
    try:
        loops = disjoint_simple_loops(g)
    except EntranceExistsError as exc:
        _emit([_entrance_record(exc)], args.format, out)
        return EXIT_NOT_FINITE
    records = [{"record": "loops", "count": len(loops)}]
    records += map(_loop_record, loops)
    _emit(records, args.format, out)
    return EXIT_OK


def cmd_embed(args, out) -> int:
    from .embedding import genmap_to_text, spec_to_dict

    g = _load(args.input)
    try:
        spec, gmap = embed(g, args.mult)
    except EntranceExistsError as exc:
        lines = _chain_lines(exc.witness)  # the witness classify built
        _emit(
            [{"record": "error", "reason": "entrance exists", "witness": " ; ".join(lines)}],
            args.format,
            out,
        )
        return EXIT_NOT_FINITE
    f_d = materialize(spec, args.depth)
    outdir = _output_dir()
    stem = _stem(args)
    paths = {
        "spec": outdir / f"{stem}.embedding.json",
        "genmap": outdir / f"{stem}.genmap.txt",
        "graph": outdir / f"{stem}.F{args.depth}.txt",
        "dot": outdir / f"{stem}.F{args.depth}.dot",
    }
    paths["spec"].write_text(json.dumps(spec_to_dict(spec), sort_keys=True, indent=2) + "\n")
    paths["genmap"].write_text(genmap_to_text(gmap, spec))
    paths["graph"].write_text(serialize_graph(f_d))
    paths["dot"].write_text(export_dot(f_d, "F"))
    records = [
        {
            "record": "embedding",
            "loops_replaced": len(spec.replacements),
            "depth": args.depth,
            "mult": args.mult.render(),
        }
    ]
    records += [{"record": "artifact", "kind": k, "path": str(p)} for k, p in sorted(paths.items())]
    _emit(records, args.format, out)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    from . import numrep  # and with it every other module, before any stage runs
    from .embedding import genmap_from_text
    from .terms import term_to_str
    from .verify import RelationStatus

    g = _load(args.input)
    try:
        spec, gmap = embed(g, args.mult)
    except EntranceExistsError as exc:
        _emit([_entrance_record(exc)], args.format, out)
        return EXIT_NOT_FINITE
    if args.map:
        gmap = genmap_from_text(FsPath(args.map).read_text(encoding="utf-8"), spec)
        expected = set(g.edge_names)
        if set(gmap.edge_map) != expected:
            raise GraphError(
                f"generator map domain mismatch: expected edges {sorted(expected)}"
            )

    failures: list[str] = []
    records: list[dict] = []

    report = verify_ck_family(gmap, spec)
    for check in report.checks:
        rec = {"record": "symbolic", "relation": check.relation, "status": check.status.value}
        if check.note:
            rec["note"] = check.note
        if check.status is RelationStatus.FAILED:
            rec["difference"] = term_to_str(check.difference, spec)
            failures.append(f"symbolic {check.relation}")
        records.append(rec)

    rep = build_rep(spec, args.depth)
    residuals = relation_residuals(rep, gmap)
    for entry in residuals.entries:
        ok = entry.value <= TOL_ALG
        records.append(
            {
                "record": "residual",
                "instance": entry.name,
                "value": f"{entry.value:.3e}",
                "ok": ok,
            }
        )
        if not ok:
            failures.append(f"residual {entry.name}")
    for entry in residuals.boundary_defects:
        records.append(
            {
                "record": "boundary-defect",
                "instance": entry.name,
                "value": f"{entry.value:.3e}",
                "expected": "1.0 (documented truncation defect)",
            }
        )

    for loop_rep in spec.replacements:
        loop = loop_rep.loop
        report_s = loop_spectrum(rep, loop, gmap)
        level_size = loop_rep.tail.mult.level_sizes(args.depth)[-1]
        bound = numrep.spectral_net_bound(loop.n, level_size)
        ok = (
            report_s.max_modulus_deviation <= TOL_SPEC
            and report_s.hausdorff_to_circle <= bound + 1e-12
            and report_s.conjugation_mismatch <= TOL_SPEC
        )
        records.append(
            {
                "record": "spectrum",
                "loop": " ".join(loop.edges),
                "nonzero_eigenvalues": len(report_s.eigenvalues),
                "max_modulus_deviation": f"{report_s.max_modulus_deviation:.3e}",
                "hausdorff_to_circle": f"{report_s.hausdorff_to_circle:.6f}",
                "net_bound": f"{bound:.6f}",
                "ok": ok,
            }
        )
        if not ok:
            failures.append(f"spectrum {' '.join(loop.edges)}")

    records.append(
        {
            "record": "summary",
            "symbolic_proved": report.all_proved,
            "max_residual": f"{residuals.max_residual:.3e}",
            "failures": len(failures),
        }
    )
    _emit(records, args.format, out)
    if failures:
        print(f"verification failed: {failures[0]}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    return EXIT_OK


def cmd_export(args, out) -> int:
    g = _load(args.input)
    if args.format == "dot":
        print(export_dot(g), end="", file=out)
    elif args.format == "json":
        print(json.dumps(graph_to_dict(g), sort_keys=True, indent=2), file=out)
    else:
        print(serialize_graph(g), end="", file=out)
    return EXIT_OK


def _mult(text: str):
    """``--mult``: a :class:`MultiplicitySeq`.  argparse converts the string
    default too, and only for ``embed`` and ``verify``, so building the
    parser imports nothing; a bad value is a usage error that says why."""
    from .embedding import MultiplicitySeq

    try:
        return MultiplicitySeq.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afembed",
        description="Classify finiteness of a graph algebra and construct/verify its AF-embedding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json")):
        p.add_argument("--input", required=True, help="graph file (text or JSON format), '-' for stdin")
        p.add_argument("--format", choices=formats, default="text")

    p = sub.add_parser("classify", help="finiteness verdict with witnesses")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("loops", help="list the disjoint simple loops")
    common(p)
    p.set_defaults(func=cmd_loops)

    p = sub.add_parser("embed", help="construct the loop-free graph and generator map")
    common(p)
    p.add_argument("--depth", type=int, default=6, help="tail depth of the materialized stage")
    p.add_argument("--mult", type=_mult, default="2", help="level multiplicities, e.g. '2' or '3,2;2'")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("verify", help="prove the relations symbolically and check numeric residuals")
    common(p)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--mult", type=_mult, default="2")
    p.add_argument("--map", help="generator map file to verify instead of the constructed one")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="re-emit the input graph in another format")
    common(p, formats=("text", "json", "dot"))
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means a failed verification here
        return EXIT_INPUT_ERROR if exc.code else EXIT_OK
    if getattr(args, "depth", 0) < 0:
        print("error: depth must be >= 0", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        return args.func(args, out)
    except (OSError, GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entry_point() -> None:
    """The installed command: a reader that closes its end of the pipe ends
    the process silently, by the default ``SIGPIPE`` action, as it ends
    ``cat``, where the platform has that signal."""
    try:
        # the C module under ``signal``, which builds its enums at import: 1 ms and 0.15 MB a request
        from _signal import SIG_DFL, SIGPIPE, signal
    except ImportError:
        pass
    else:
        signal(SIGPIPE, SIG_DFL)
    sys.exit(main())
