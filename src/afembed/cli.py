"""Command-line front end: parse, classify, embed, verify, export.

Exit codes: 0 for AF or AF-embeddable inputs (the report distinguishes
them), 3 when a loop has an entrance, 1 for unreadable or malformed input
and command-line usage errors, 2 when a verification check fails.
Structured output is newline-delimited JSON records with sorted keys, so
identical inputs produce byte-identical reports.  Messages that are not
records (``error: ...``, ``verification failed: ...``) go to stderr, so
every line of a ``--format json`` stdout parses as JSON.

Each record is written from a template for its shape (:class:`_Shape`),
in batches of about 64 KiB; its bytes are those of
``json.JSONEncoder(sort_keys=True)``.  ``verify`` decides every refusal
before its first record, so a refused run's stdout is empty.  It holds its
stage reports, never its output; a report holds only the outcomes that
differ from the default, and names each row as it is written.
"""

from __future__ import annotations

import os
import sys
from importlib import import_module
from io import TextIOWrapper
from types import SimpleNamespace

try:  # the C function ``json.encoder`` uses, without importing ``json``, which only some commands need
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

from .graph import GraphError, load_graph
from .loops import EntranceExistsError, Verdict, classify, disjoint_simple_loops


def _deferred(module: str, name: str):
    """A stand-in for ``afembed.<module>.<name>`` that imports the module at its first call.

    ``classify`` and ``loops`` need only ``graph`` and ``loops``, so every
    other module is imported by the requests that run it: the graph
    writers, the witness search, the term engine, the embedding, the
    verifier and the numeric stage.  The stand-ins stay module attributes
    that the commands look up at each call, so a caller can still wrap
    them here.
    """

    def call(*args, **kwargs):
        return getattr(import_module(f".{module}", __package__), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


serialize_graph = _deferred("formats", "serialize_graph")
export_dot = _deferred("formats", "export_dot")
witness_infinite = _deferred("witness", "witness_infinite")  # no command calls it; the benchmark's LAYERS wraps it
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
BATCH = 1 << 16  # characters of whole records per ``write``


class _Shape:
    """One record shape: its fields in ``sort_keys`` order, and per format
    the constant text around their values.

    ``format[fmt]`` takes the values in field order and gives the record;
    ``parts[fmt]`` is the same template split at the values, for records
    spliced from fragments.  The keys and the record name are fixed here,
    so a record encodes only its values.
    """

    __slots__ = ("record", "fields", "parts", "format")

    def __init__(self, record: str, *fields: str):
        keys = sorted({*fields, "record"})
        self.record, self.fields = record, tuple(k for k in keys if k != "record")
        json_parts, text_parts, jc, tc = [], [], "{", f"{record}:"
        for i, k in enumerate(keys):
            jc += (", " if i else "") + encode_basestring_ascii(k) + ": "
            if k == "record":
                jc += encode_basestring_ascii(record)
                continue
            json_parts.append(jc)
            text_parts.append(f"{tc} {k}=")
            jc = tc = ""
        json_parts.append(jc + "}\n")
        text_parts.append(tc + "\n")
        self.parts = {"json": tuple(json_parts), "text": tuple(text_parts)}
        self.format = {
            fmt: "{}".join(p.replace("{", "{{").replace("}", "}}") for p in parts).format
            for fmt, parts in self.parts.items()
        }


CLASSIFICATION = _Shape("classification", "verdict")
LOOP = _Shape("loop", "edges", "vertices")
LOOPS = _Shape("loops", "count")
WITNESS = _Shape("witness", "alpha", "beta", "chain", "entry_edge", "entry_vertex")
ENTRANCE = _Shape("error", "at", "reason")  # the refusal of ``loops`` and ``verify``
ENTRANCE_CHAIN = _Shape("error", "reason", "witness")  # the refusal of ``embed``
EMBEDDING = _Shape("embedding", "depth", "loops_replaced", "mult")
ARTIFACT = _Shape("artifact", "kind", "path")
SYMBOLIC = _Shape("symbolic", "relation", "status")
SYMBOLIC_NOTE = _Shape("symbolic", "note", "relation", "status")
SYMBOLIC_DIFFERENCE = _Shape("symbolic", "difference", "relation", "status")
RESIDUAL = _Shape("residual", "instance", "ok", "value")
BOUNDARY_DEFECT = _Shape("boundary-defect", "expected", "instance", "value")
SPECTRUM = _Shape(
    "spectrum", "hausdorff_to_circle", "loop", "max_modulus_deviation", "net_bound", "nonzero_eigenvalues", "ok"
)
SUMMARY = _Shape("summary", "failures", "max_residual", "symbolic_proved")


def _json_chars(s: str) -> str:
    """The characters of ``s`` as a JSON string holds them: escaped, unquoted."""
    return encode_basestring_ascii(s)[1:-1]


class _Writer:
    """Writes whole records to ``out``, :data:`BATCH` characters a
    ``write`` and a ``flush``; :meth:`flush` writes the rest.

    ``--format json`` writes the line ``json.JSONEncoder(sort_keys=True)``
    writes; ``--format text`` writes ``<record>: key=value ...`` in the
    same key order.  Values are strings, bools and ints: :attr:`string` and
    :attr:`boolean` write the first two, and an int is written as it
    formats.  :attr:`text` writes a string's characters alone (unquoted),
    for values given as fragments (:meth:`spliced`).
    """

    def __init__(self, fmt: str, out):
        self.fmt, self.out, self.batch, self.size = fmt, out, [], 0
        if fmt == "json":
            self.string, self.boolean = encode_basestring_ascii, {True: "true", False: "false"}.__getitem__
            self.text, self.quote = _json_chars, '"'
        else:
            self.string = self.boolean = self.text = str
            self.quote = ""

    def write(self, records: str) -> None:
        """Whole records; a batch's worth goes alone, as a join of one str is no copy."""
        if len(records) >= BATCH:
            self.flush()
        self.batch.append(records)
        self.size += len(records)
        if self.size >= BATCH:
            self.flush()

    def flush(self) -> None:
        if self.batch:
            self.out.write("".join(self.batch))
            self.batch, self.size = [], 0
        self.out.flush()

    def line(self, shape: _Shape, values: dict) -> str:
        string, boolean, values = self.string, self.boolean, map(values.__getitem__, shape.fields)
        return shape.format[self.fmt](*[string(v) if v.__class__ is str else boolean(v) if v.__class__ is bool else v for v in values])

    def __call__(self, shape: _Shape, **values) -> None:
        """One record of ``shape``, its values given by field name."""
        self.write(self.line(shape, values))

    def skipping(self, report, shape: _Shape, key: str, **values):
        """The held rows of the catalogue ``report``, for the caller to
        write; the rest are written here (``key`` names a row, ``values``
        give the default)."""
        return report.written(self.write, lambda name: self.line(shape, {**values, key: name}), self.text)

    def spliced(self, shape: _Shape, **values: list[str]) -> None:
        """One record whose values are strings given by field name as
        fragments already written by :attr:`text`: the record is one join
        of the template and the fragments, so no joined value is held
        alongside it."""
        parts, quote = shape.parts[self.fmt], self.quote
        pieces = [parts[0]]
        for key, part in zip(shape.fields, parts[1:]):
            pieces.append(quote)
            pieces += values[key]
            pieces.append(quote + part)
        self.write("".join(pieces))


def _chain_value(lines) -> list[str]:
    """The fragments of ``" ; ".join(lines)``, for lines of fragments."""
    value = list(lines[0])
    for line in lines[1:]:
        value.append(" ; ")
        value += line
    return value


def _write_witness(write: _Writer, w) -> None:
    """``classify``'s ``witness`` record: the paths and the chain of
    :func:`~afembed.witness.witness_infinite`, unchecked, as ``classify``
    built ``w``."""
    from .witness import _chain_fragments

    lines = _chain_fragments(w, write.text)
    write.spliced(
        WITNESS,
        alpha=[lines[0][1]],
        beta=[lines[1][1]],
        chain=_chain_value(lines[2:]),
        entry_edge=[write.text(w.entry_edge)],
        entry_vertex=[lines[0][3]],
    )


def _write_entrance_chain(write: _Writer, w) -> None:
    """``embed``'s refusal: every line of the chain."""
    from .witness import _chain_fragments

    write.spliced(ENTRANCE_CHAIN, reason=["entrance exists"], witness=_chain_value(_chain_fragments(w, write.text)))


def _load(path: str):
    """The graph at ``path``, or on standard input for ``-``: UTF-8 bytes,
    read a block at a time unless it is JSON."""
    if path == "-":
        if sys.stdin is None:
            raise OSError("standard input is closed")
        return load_graph(sys.stdin.buffer)
    with open(path, "rb") as f:
        return load_graph(f)


def _write_loops(write: _Writer, loops) -> None:
    for loop in loops:
        write(LOOP, edges=" ".join(loop.edges), vertices=" ".join(loop.vertices))


def cmd_classify(args, write: _Writer) -> int:
    g = _load(args.input)
    cls = classify(g)
    write(CLASSIFICATION, verdict=cls.verdict.value)
    _write_loops(write, cls.loops)
    if cls.witness is not None:
        _write_witness(write, cls.witness)
    return EXIT_NOT_FINITE if cls.verdict is Verdict.NOT_FINITE else EXIT_OK


def cmd_loops(args, write: _Writer) -> int:
    g = _load(args.input)
    try:
        loops = disjoint_simple_loops(g)
    except EntranceExistsError as exc:
        write(ENTRANCE, at=exc.witness.entry_vertex, reason="entrance exists")
        return EXIT_NOT_FINITE
    write(LOOPS, count=len(loops))
    _write_loops(write, loops)
    return EXIT_OK


def cmd_embed(args, write: _Writer) -> int:
    g = _load(args.input)
    try:
        spec, gmap = embed(g, args.mult)
    except EntranceExistsError as exc:
        _write_entrance_chain(write, exc.witness)
        return EXIT_NOT_FINITE
    from pathlib import Path as FsPath

    from .notation import genmap_to_text, spec_to_dict

    f_d = materialize(spec, args.depth)
    genmap = genmap_to_text(gmap, spec)  # it refuses an id the map cannot name, before any file is written
    outdir = FsPath(os.environ.get(OUTPUT_DIR_ENV, "."))
    outdir.mkdir(parents=True, exist_ok=True)
    stem = "graph" if args.input == "-" else FsPath(args.input).stem
    paths = {
        "spec": outdir / f"{stem}.embedding.json",
        "genmap": outdir / f"{stem}.genmap.txt",
        "graph": outdir / f"{stem}.F{args.depth}.txt",
        "dot": outdir / f"{stem}.F{args.depth}.dot",
    }
    import json

    paths["spec"].write_text(json.dumps(spec_to_dict(spec), sort_keys=True, indent=2) + "\n", encoding="utf-8")
    paths["genmap"].write_text(genmap, encoding="utf-8")
    with open(paths["graph"], "w", encoding="utf-8") as text, open(paths["dot"], "w", encoding="utf-8") as dot:
        serialize_graph(f_d, text)
        export_dot(f_d, "F", dot)
    write(EMBEDDING, depth=args.depth, loops_replaced=len(spec.replacements), mult=args.mult.render())
    for kind, path in sorted(paths.items()):
        write(ARTIFACT, kind=kind, path=str(path))
    return EXIT_OK


def cmd_verify(args, write: _Writer) -> int:
    """Every stage that can refuse runs before the first record, so a
    refused run writes nothing to stdout.  The numeric stages run first:
    the representation is dropped once its reports exist, before the
    symbolic report is built.  Then each report is written, in the order
    symbolic, residuals, boundary defects, spectra, summary, and released."""
    from . import numrep  # and with it the embedding, the term engine and the verifier, before any stage runs
    from .verify import RelationStatus

    g = _load(args.input)
    try:
        spec, gmap = embed(g, args.mult)
    except EntranceExistsError as exc:
        write(ENTRANCE, at=exc.witness.entry_vertex, reason="entrance exists")
        return EXIT_NOT_FINITE
    if args.map:
        from .notation import genmap_from_text

        with open(args.map, encoding="utf-8") as f:
            gmap = genmap_from_text(f.read(), spec)
        expected = set(g.edge_names)
        if set(gmap.edge_map) != expected:
            raise GraphError(f"generator map domain mismatch: expected edges {sorted(expected)}")

    rep = build_rep(spec, args.depth)
    residuals = relation_residuals(rep, gmap)
    spectra = [loop_spectrum(rep, r.loop, gmap) for r in spec.replacements]
    del rep
    report = verify_ck_family(gmap, spec)

    failures = 0
    first_failure = ""
    for check in write.skipping(report.checks, SYMBOLIC, "relation", status="PROVED"):
        shape, difference = SYMBOLIC_NOTE if check.note else SYMBOLIC, ""
        if check.status is RelationStatus.FAILED:  # the catalogue's failures carry no note
            from .notation import term_to_str

            shape, difference = SYMBOLIC_DIFFERENCE, term_to_str(check.difference, spec)
            failures += 1
            first_failure = first_failure or f"symbolic {check.relation}"
        write(shape, difference=difference, note=check.note, relation=check.relation, status=check.status.value)
    symbolic_proved = failures == 0
    del report

    for name, value in write.skipping(residuals.entries, RESIDUAL, "instance", ok=True, value=f"{0.0:.3e}"):
        ok = value <= TOL_ALG
        write(RESIDUAL, instance=name, ok=ok, value=f"{value:.3e}")
        if not ok:
            failures += 1
            first_failure = first_failure or f"residual {name}"
    for name, value in residuals.boundary_defects:
        write(BOUNDARY_DEFECT, expected="1.0 (documented truncation defect)", instance=name, value=f"{value:.3e}")
    max_residual = residuals.max_residual
    del residuals

    for loop_rep, report_s in zip(spec.replacements, spectra):
        edges = loop_rep.loop.edges
        level_size = loop_rep.tail.mult.level_sizes(args.depth)[-1]
        bound = numrep.spectral_net_bound(len(edges), level_size)
        ok = (
            report_s.max_modulus_deviation <= TOL_SPEC
            and report_s.hausdorff_to_circle <= bound + 1e-12
            and report_s.conjugation_mismatch <= TOL_SPEC
        )
        write(
            SPECTRUM,
            hausdorff_to_circle=f"{report_s.hausdorff_to_circle:.6f}",
            loop=" ".join(edges),
            max_modulus_deviation=f"{report_s.max_modulus_deviation:.3e}",
            net_bound=f"{bound:.6f}",
            nonzero_eigenvalues=len(report_s.eigenvalues),
            ok=ok,
        )
        if not ok:
            failures += 1
            first_failure = first_failure or f"spectrum of the {len(edges)}-edge loop from {edges[0]}"

    write(SUMMARY, failures=failures, max_residual=f"{max_residual:.3e}", symbolic_proved=symbolic_proved)
    if failures:
        write.flush()  # the records come first on a stream shared with stderr
        print(f"verification failed: {first_failure}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    return EXIT_OK


def cmd_export(args, write: _Writer) -> int:
    g = _load(args.input)
    if args.format == "json":
        import json

        from .formats import graph_to_dict

        write.write(json.dumps(graph_to_dict(g), sort_keys=True, indent=2) + "\n")
    else:
        write.write(export_dot(g) if args.format == "dot" else serialize_graph(g))
    return EXIT_OK


def _mult(text: str):
    """``--mult``: a :class:`MultiplicitySeq`.  Both readers of the command
    line convert the string default too, and only for ``embed`` and
    ``verify``, so reading ``classify``'s imports nothing; a bad value is a
    usage error that says why, which only argparse reports."""
    from .embedding import MultiplicitySeq

    try:
        return MultiplicitySeq.parse(text)
    except ValueError as exc:
        import argparse

        raise argparse.ArgumentTypeError(str(exc)) from None


_FORMATS = ("text", "json")
#: Each command's body, help line and ``--format`` values, and its options
#: beyond ``--input`` and ``--format``, each with its converter, default and help.
COMMANDS = {
    "classify": (cmd_classify, "finiteness verdict with witnesses", _FORMATS, {}),
    "loops": (cmd_loops, "list the disjoint simple loops", _FORMATS, {}),
    "embed": (cmd_embed, "construct the loop-free graph and generator map", _FORMATS, {
        "--depth": (int, 6, "tail depth of the materialized stage"),
        "--mult": (_mult, "2", "level multiplicities, e.g. '2' or '3,2;2'"),
    }),
    "verify": (cmd_verify, "prove the relations symbolically and check numeric residuals", _FORMATS, {
        "--depth": (int, 6, None),
        "--mult": (_mult, "2", None),
        "--map": (None, None, "generator map file to verify instead of the constructed one"),
    }),
    "export": (cmd_export, "re-emit the input graph in another format", ("text", "json", "dot"), {}),
}


def build_parser() -> argparse.ArgumentParser:
    """The full grammar of :data:`COMMANDS`, with help, abbreviations and
    argparse's usage errors; :func:`main` builds it only for a command line
    that :func:`_read` leaves to it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="afembed",
        description="Classify finiteness of a graph algebra and construct/verify its AF-embedding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, text, formats, options) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--input", required=True, help="graph file (text or JSON format), '-' for stdin")
        p.add_argument("--format", choices=formats, default="text")
        for option, (convert, default, help_text) in options.items():
            p.add_argument(option, type=convert, default=default, help=help_text)
        p.set_defaults(func=func)
    return parser


def _read(argv: list[str]):
    """The namespace ``build_parser().parse_args(argv)`` gives, for the plain
    form only: a command of :data:`COMMANDS`, then ``--option value`` pairs of
    its options, each given once, ``--input`` among them, no value starting
    with ``-`` but ``-`` itself, and every value one that argparse takes.
    Anything else is ``None``, left to argparse, which also writes help and
    every usage error."""
    if len(argv) % 2 == 0 or argv[0] not in COMMANDS:
        return None
    func, _, formats, options = COMMANDS[argv[0]]
    given = dict(zip(argv[1::2], argv[2::2]))
    fmt = given.get("--format", "text")
    if len(given) != len(argv) // 2 or "--input" not in given or fmt not in formats:
        return None
    known = ("--input", "--format", *options)
    if any(option not in known or (value.startswith("-") and value != "-") for option, value in given.items()):
        return None
    args = SimpleNamespace(command=argv[0], func=func, input=given["--input"], format=fmt)
    for option, (convert, default, _) in options.items():
        value = given.get(option, default)
        try:  # argparse converts a given value, and a default that is a string
            setattr(args, option[2:], convert(value) if convert and isinstance(value, str) else value)
        except Exception:  # argparse converts it again, and reports or raises as it does
            return None
    return args


def main(argv=None, out=None) -> int:
    """Run the command ``argv`` (default ``sys.argv[1:]``) and return its exit
    code.  A command line of the plain form is read by :func:`_read`, which
    imports no argparse, ``gettext`` or ``locale`` and builds no parser:
    about 4 ms a request on a 2-vCPU host with CPython 3.11, against 13 us.
    argparse reads any other command line."""
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on a usage error, but 2 means a failed verification here
            return EXIT_INPUT_ERROR if exc.code else EXIT_OK
    if getattr(args, "depth", 0) < 0:
        print("error: depth must be >= 0", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        if out is None:
            raise OSError("standard output is closed")
        write = _Writer(args.format, out)
        code = args.func(args, write)
        write.flush()
        return code
    except (OSError, GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entry_point() -> None:
    """The installed command: a reader that closes its end of the pipe ends
    the process silently, by the default ``SIGPIPE`` action, as it ends
    ``cat``, where the platform has that signal.  Standard output is UTF-8
    text, as every file the command writes is, whatever the locale or
    ``PYTHONIOENCODING`` say; input is read as bytes and decoded as UTF-8.

    Once the command has returned, every object alive is moved to the
    collector's permanent generation (``gc.freeze``), so the collections
    of interpreter shutdown skip the modules, classes and functions the
    request loaded, whose memory the operating system takes back at exit
    anyway: a small request's exit fell from about 8 to 3 ms (2 vCPUs,
    CPython 3.11).  Exit handlers, ``finally`` blocks and the flushing of
    standard output and error still run, and every file the command writes
    is closed by then.  :func:`main` does not freeze, since tests and tools
    call it many times in one process, which must go on collecting."""
    if isinstance(sys.stdout, TextIOWrapper):  # not closed (None) or replaced
        sys.stdout.reconfigure(encoding="utf-8")
    try:
        # the C module under ``signal``, which builds its enums at import: 1 ms and 0.15 MB a request
        from _signal import SIG_DFL, SIGPIPE, signal
    except ImportError:
        pass
    else:
        signal(SIGPIPE, SIG_DFL)
    code = main()
    import gc  # built in: nothing to compile

    gc.freeze()
    sys.exit(code)
