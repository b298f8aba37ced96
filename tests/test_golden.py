"""Byte-for-byte regression of ``--format json`` reports on a fixed corpus.

The ``*.stdout`` files and ``exit_codes.json`` under ``tests/golden`` were
written by the CLI before the relation catalogue was shared between the
symbolic and numeric verifiers; a refactor of either backend must leave
every record, its order and the exit code unchanged.  The corpus covers an
embeddable loop at two depths, an entrance, cycles exiting into a DAG with
multi-receiver vertices (so CK3 needs receiver expansion), a self-loop with
a non-default multiplicity sequence, an acyclic graph, and two corrupted
generator maps that must keep failing the same way.  Two more maps pin the
numeric arithmetic of the generator maps the construction never produces:
an image scaled by a unit coefficient other than 1, and an image that is a
genuine sum with two entries in one row, whose loop spectrum needs a dense
eigensolver.  The failing runs' ``verification failed: ...`` line has since
moved to stderr, so every golden stdout of a ``--format json`` run holds
JSON records only.

The structure outputs were pinned before the graph core was interned to
integers: ``export`` in all three formats, ``classify`` and ``loops`` on a
host whose ids crowd the tail namespaces, and ``classify`` of a JSON copy
of ``cycles_dag`` (``cycles_dag.json``, written by ``export --format json``).
Five ``*_text`` cases pin the default text records of ``classify``,
``loops`` and ``verify``, two of them on the failing fswap and t-dropped
maps, whose FAILED ``difference`` fields and ``ok=False`` records then
have a text golden too.  Two more entrance graphs pin every witness
output: ``two_self_loops``, whose entry edge is itself a loop, and
``cycle_into_cycle``, whose entry edge leaves another cycle.  An ``export`` or ``*_text`` case names its own
``--format``; every other case runs with ``--format json``.
"""

import ast
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
    "verify_square_phase_map": [
        "verify", "--input", "@square.txt", "--depth", "5", "--map", "@square_phase.genmap.txt",
    ],
    "verify_square_sum_map": [
        "verify", "--input", "@square.txt", "--depth", "5", "--map", "@square_sum.genmap.txt",
    ],
    "classify_crowded": ["classify", "--input", "@crowded.txt"],
    "loops_crowded": ["loops", "--input", "@crowded.txt"],
    "classify_cycles_dag_json": ["classify", "--input", "@cycles_dag.json"],
    # the default text records: a witness chain, loops, and ``note`` values with spaces
    "classify_square_plus_entrance_text": ["classify", "--input", "@square_plus_entrance.txt", "--format", "text"],
    "loops_crowded_text": ["loops", "--input", "@crowded.txt", "--format", "text"],
    "verify_cycles_dag_text": ["verify", "--input", "@cycles_dag.txt", "--depth", "4", "--format", "text"],
    # failing maps in text: ``difference`` values and ``ok=False`` records
    "verify_square_fswap_map_text": [
        "verify", "--input", "@square.txt", "--depth", "4", "--map", "@square_fswap.genmap.txt", "--format", "text",
    ],
    "verify_square_tdropped_map_text": [
        "verify", "--input", "@square.txt", "--depth", "4", "--map", "@square_tdropped.genmap.txt", "--format", "text",
    ],
}
# two more entrance witnesses: an entry edge that is itself a loop, and one
# that leaves another cycle
for _graph in ("two_self_loops", "cycle_into_cycle"):
    for _command in ("classify", "loops", "verify"):
        CASES[f"{_command}_{_graph}"] = [_command, "--input", f"@{_graph}.txt"]
    CASES[f"classify_{_graph}_text"] = ["classify", "--input", f"@{_graph}.txt", "--format", "text"]
# ``export`` in each of its formats; these name their own ``--format``
for _graph in ("cycles_dag", "crowded"):
    for _fmt in ("text", "json", "dot"):
        CASES[f"export_{_graph}_{_fmt}"] = ["export", "--input", f"@{_graph}.txt", "--format", _fmt]


def resolve(argv: list[str]) -> list[str]:
    fmt = [] if "--format" in argv else ["--format", "json"]
    return [str(GOLDEN / a[1:]) if a.startswith("@") else a for a in argv] + fmt


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


class CountingOut(io.StringIO):
    """A text stream that keeps each ``write`` it is given, in ``chunks``."""

    def __init__(self):
        super().__init__()
        self.chunks = []

    @property
    def writes(self) -> int:
        return len(self.chunks)

    def write(self, text: str) -> int:
        self.chunks.append(text)
        return super().write(text)


def cycle_file(tmp_path: Path, n: int) -> Path:
    path = tmp_path / f"c{n}.txt"
    path.write_text("".join(f"vertex u{i}\n" for i in range(n)) + "".join(f"edge e{i} u{i} u{(i + 1) % n}\n" for i in range(n)))
    return path


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_records_leave_in_batches(fmt, tmp_path):
    """Whole records are joined and written about 64 KiB at a time, so an
    unbuffered stdout makes one system call per batch, not per record, and
    no ``write`` splits a record."""
    out = CountingOut()
    assert main(resolve(CASES["verify_square_d4"] + ["--format", fmt]), out=out) == 0
    if fmt == "json":
        assert out.getvalue() == (GOLDEN / "verify_square_d4.stdout").read_text(encoding="utf-8")
    assert out.chunks == [out.getvalue()] and out.getvalue().count("\n") == 71
    out = CountingOut()
    assert main(["verify", "--input", str(cycle_file(tmp_path, 48)), "--format", fmt], out=out) == 0
    size = len(out.getvalue().encode("utf-8"))
    assert size > 4 * 65536
    assert all(chunk.endswith("\n") for chunk in out.chunks)
    assert out.writes <= -(-size // 65536) + 1


def test_corpus_exercises_every_outcome():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert set(codes) == set(CASES)
    assert {codes[n] for n in CASES if n.endswith("_map")} == {2}
    assert codes["verify_square_plus_entrance"] == 3
    assert "receiver expansion" in (GOLDEN / "verify_cycles_dag.stdout").read_text()


# runs the CLI in a fresh interpreter in which any import of the package
# named by the first argument fails; the remaining arguments go to the CLI
WITHOUT_PACKAGE = """
import sys

blocked = sys.argv.pop(1)

class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name == blocked or name.startswith(blocked + "."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, Blocker())
import afembed
from afembed.cli import main
sys.exit(main(sys.argv[1:]))
"""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def run_without(blocked: str, argv: list[str]) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-c", WITHOUT_PACKAGE, blocked, *argv]
    return subprocess.run(cmd, env=child_env(), capture_output=True, timeout=120)


def expected_code(name: str) -> int:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))[name]


def test_verify_needs_no_scipy():
    proc = run_without("scipy", resolve(CASES["verify_square_d6"]))
    assert proc.returncode == expected_code("verify_square_d6"), proc.stderr.decode("utf-8", "replace")[-500:]
    assert proc.stdout == (GOLDEN / "verify_square_d6.stdout").read_bytes()


STRUCTURE_CASES = sorted(n for n in CASES if n.startswith(("classify_", "loops_")))


@pytest.mark.parametrize("name", STRUCTURE_CASES)
def test_structure_commands_need_no_numpy(name):
    proc = run_without("numpy", resolve(CASES[name]))
    assert proc.returncode == expected_code(name), proc.stderr.decode("utf-8", "replace")[-500:]
    assert proc.stdout == (GOLDEN / f"{name}.stdout").read_bytes()


# a --map loop image that is a genuine sum, whose spectrum is dense, is the one use of numpy left
NUMPY_MAPS = {"verify_square_sum_map"}
VERIFY_CASES = sorted(n for n in CASES if n.startswith("verify_") and n not in NUMPY_MAPS)


@pytest.mark.parametrize("name", VERIFY_CASES)
def test_verify_needs_no_numpy(name):
    proc = run_without("numpy", resolve(CASES[name]))
    assert proc.returncode == expected_code(name), proc.stderr.decode("utf-8", "replace")[-500:]
    assert proc.stdout == (GOLDEN / f"{name}.stdout").read_bytes()


@pytest.mark.parametrize("name", sorted(NUMPY_MAPS))
def test_a_dense_spectrum_without_numpy_is_refused(name):
    """A loop image that is a genuine sum needs numpy's dense eigensolver:
    without numpy the request is refused, with one ``error:`` line naming
    numpy and the loop, an empty stdout and no traceback."""
    proc = run_without("numpy", resolve(CASES[name]))
    assert (proc.returncode, proc.stdout) == (1, b""), proc.stderr.decode("utf-8", "replace")[-500:]
    assert proc.stderr == b"error: the spectrum of LOOP[e4 e3 e2 e1] needs numpy, which did not load: numpy is blocked\n"


@pytest.mark.parametrize("command", ["embed", "export"])
def test_embed_and_export_need_no_numpy(command, tmp_path, monkeypatch):
    """Same stdout, exit code and artifacts as an unblocked in-process run."""
    monkeypatch.setenv("AFEMBED_OUTPUT_DIR", str(tmp_path))
    argv = resolve([command, "--input", "@square.txt"])
    out = io.StringIO()
    code = main(argv, out=out)
    artifacts = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert code == 0 and len(artifacts) == (4 if command == "embed" else 0)
    for p in tmp_path.iterdir():
        p.unlink()
    proc = run_without("numpy", argv)
    assert proc.returncode == code, proc.stderr.decode("utf-8", "replace")[-500:]
    assert proc.stdout == out.getvalue().encode("utf-8")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == artifacts


# compiled only by the commands that run them: ``fractions`` and ``decimal``
# only ``notation``'s reading of a ``--map`` loads; ``json`` only a JSON graph,
# ``embed``'s spec and ``export --format json`` load
DEFERRED = ("afembed.terms", "afembed.embedding", "afembed.verify", "afembed.numrep", "fractions", "decimal", "json")
# loaded only to read a command line that is not of the plain form
ARGPARSE = ("argparse", "gettext")

# every request loads the package, the command line, the graph model and the loop analysis
STRUCTURE = {"afembed", "afembed.cli", "afembed.graph", "afembed.loops"}
# ``verify`` imports the numeric stage before any stage runs, and with it these
NUMERIC = STRUCTURE | {"afembed.terms", "afembed.embedding", "afembed.verify", "afembed.numrep"}
# the ``afembed`` modules of each request, in a fresh interpreter, and its exit code:
# ``formats`` writes graphs and reads JSON ones, ``witness`` finds an entrance's
# loop, ``notation`` writes and reads terms, maps and specs, and ``sparse``
# multiplies a ``--map``'s sums and unaligned pieces and sorts its spectra
MODULE_SETS = {
    "classify": (["classify", "--input", "@square.txt"], 0, STRUCTURE),
    "classify an entrance": (["classify", "--input", "@square_plus_entrance.txt"], 3, STRUCTURE | {"afembed.witness"}),
    "loops": (["loops", "--input", "@square.txt"], 0, STRUCTURE),
    "loops an entrance": (["loops", "--input", "@square_plus_entrance.txt"], 3, STRUCTURE | {"afembed.witness"}),
    "export text": (["export", "--input", "@square.txt", "--format", "text"], 0, STRUCTURE | {"afembed.formats"}),
    "export dot": (["export", "--input", "@square.txt", "--format", "dot"], 0, STRUCTURE | {"afembed.formats"}),
    "export json": (["export", "--input", "@square.txt", "--format", "json"], 0, STRUCTURE | {"afembed.formats"}),
    "embed": (
        ["embed", "--input", "@square.txt"],
        0,
        STRUCTURE | {"afembed.terms", "afembed.embedding", "afembed.notation", "afembed.formats"},
    ),
    "embed an entrance": (
        ["embed", "--input", "@square_plus_entrance.txt"],
        3,
        STRUCTURE | {"afembed.terms", "afembed.embedding", "afembed.witness"},
    ),
    "verify": (["verify", "--input", "@square.txt"], 0, NUMERIC),
    "verify a JSON graph": (["verify", "--input", "@cycles_dag.json"], 0, NUMERIC | {"afembed.formats"}),
    "verify an entrance": (["verify", "--input", "@square_plus_entrance.txt"], 3, NUMERIC | {"afembed.witness"}),
    "verify --map": (
        ["verify", "--input", "@square.txt", "--map", "@square_fswap.genmap.txt"],
        2,
        NUMERIC | {"afembed.notation", "afembed.sparse"},
    ),
    "verify --map a sum": (
        ["verify", "--input", "@square.txt", "--map", "@square_sum.genmap.txt"],
        2,
        NUMERIC | {"afembed.notation", "afembed.sparse"},
    ),
}


def test_structure_commands_never_import_numrep(tmp_path):
    """Each request loads exactly the ``afembed`` modules it runs, in a
    fresh interpreter: ``classify``, ``loops`` and ``export`` no term
    engine, embedding, verifier or numeric stage, and on a text graph no
    ``json`` unless ``export`` writes JSON; ``embed`` neither ``fractions``
    nor ``decimal``; a constructed-map ``verify`` none of the graph
    writers, the witness search, the term grammar, the general sparse
    algebra, ``fractions`` or ``decimal``; and no request, each a command
    line of the plain form, ``argparse`` or ``gettext``."""
    env = dict(child_env(), AFEMBED_OUTPUT_DIR=str(tmp_path))
    loaded = {}
    for name, (argv, expected, _) in MODULE_SETS.items():
        code = (
            "import io, sys\n"
            "from afembed.cli import main\n"
            f"code = main({resolve(argv)!r}, out=io.StringIO())\n"
            "print(code, *sorted(m for m in sys.modules if m.split('.')[0] == 'afembed' or m in %r))\n" % (DEFERRED + ARGPARSE,)
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")[-500:]
        exit_code, *modules = proc.stdout.decode().split()
        assert int(exit_code) == expected, name
        loaded[name] = set(modules)
    assert {name: {m for m in modules if m.split(".")[0] == "afembed"} for name, modules in loaded.items()} == {
        name: modules for name, (_, _, modules) in MODULE_SETS.items()
    }
    for name in ("classify", "classify an entrance", "loops", "loops an entrance", "export text", "export dot"):
        assert not loaded[name] & set(DEFERRED), name
    assert loaded["export json"] & set(DEFERRED) == {"json"}
    for name in ("verify", "verify a JSON graph", "verify an entrance"):
        assert not loaded[name] & {"afembed.sparse", "fractions", "decimal"}, name
    assert not loaded["embed"] & {"fractions", "decimal"}
    for name, modules in loaded.items():
        assert not modules & set(ARGPARSE), name
    assert len(list(tmp_path.iterdir())) == 4  # embed ran and wrote its artifacts


# stdlib modules a request loads only where it uses them; with ``site``, a
# ``.pth`` file may load them before afembed, so they are looked for under ``-S``
PLAIN_STDLIB = ("re", "typing", "pathlib")


def test_structure_commands_load_no_unused_stdlib_module_without_site(tmp_path):
    """In a fresh ``python -S``, where nothing but the request loads a
    module, ``classify``, ``loops`` and a text or DOT ``export`` load
    none of ``re``, ``typing`` and ``pathlib``, on an entrance too, and
    ``verify`` loads no ``pathlib``: only ``embed`` writes files by path."""
    env = dict(child_env(), AFEMBED_OUTPUT_DIR=str(tmp_path))
    structure = ("classify", "classify an entrance", "loops", "loops an entrance", "export text", "export dot")
    verify = ("verify", "verify an entrance", "verify --map")
    loaded = {}
    for name in structure + verify:
        argv, expected, _ = MODULE_SETS[name]
        code = (
            "import io, sys\n"
            "from afembed.cli import main\n"
            f"code = main({resolve(argv)!r}, out=io.StringIO())\n"
            f"print(code, *sorted(m for m in {PLAIN_STDLIB!r} if m in sys.modules))\n"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")[-500:]
        exit_code, *modules = proc.stdout.decode().split()
        assert int(exit_code) == expected, name
        loaded[name] = set(modules)
    assert {name: loaded[name] for name in structure} == {name: set() for name in structure}
    assert all("pathlib" not in loaded[name] for name in verify), loaded


# the names that left the modules a constructed-map ``verify`` loads, each
# with the module that now holds it; the package still exports the public ones
MOVED = {
    "afembed.notation": (
        "_TOKEN_RE", "monomial_to_str", "term_to_str", "TermParseError", "_TermParser", "parse_term",
        "genmap_to_text", "genmap_from_text", "spec_to_dict", "_power_str",
    ),
    "afembed.formats": ("serialize_graph", "graph_to_dict", "export_dot", "_dot_quote", "graph_from_dict", "parse_graph_json"),
    "afembed.witness": (
        "_cycle_through", "validate_witness", "witness_infinite", "_chain_fragments",
        "verify_witness",
    ),
    "afembed.sparse": ("_take", "_join_table", "_argsort", "_by_source", "_split", "_multiset_mismatch"),
}


def test_every_moved_name_imports_from_afembed():
    """Each moved name is defined in its new module; each that the package
    exported before the move still imports from ``afembed``, as the same
    object, and ``import afembed`` loads none of the new modules."""
    code = (
        "import importlib, sys\n"
        "import afembed\n"
        "print(*sorted(m for m in sys.modules if m.startswith('afembed')))\n"
        f"for module, names in {MOVED!r}.items():\n"
        "    for name in names:\n"
        "        value = getattr(importlib.import_module(module), name)\n"
        "        assert not hasattr(value, '__qualname__') or value.__module__ == module, (module, name)\n"
        "        if name in afembed._LAZY:\n"
        "            assert getattr(afembed, name) is value, name\n"
        f"print(*sorted(n for names in {MOVED!r}.values() for n in names if n in afembed._LAZY))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")[-500:]
    package, exported = proc.stdout.decode().splitlines()
    assert package.split() == ["afembed", "afembed.graph", "afembed.loops"]
    assert exported.split() == sorted(
        ["export_dot", "graph_from_dict", "graph_to_dict", "parse_graph_json", "serialize_graph", "witness_infinite"]
        + ["parse_term", "term_to_str", "verify_witness"]
    )


# ``dataclasses`` and what it loads to generate its methods; the package
# writes its classes by hand, so no request pays for them at start-up
CODE_GENERATION = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_no_command_loads_dataclasses(tmp_path):
    """Neither ``import afembed`` nor any command on the square loads a
    module of :data:`CODE_GENERATION`."""
    argvs = [resolve([cmd, "--input", "@square.txt"]) for cmd in ("classify", "loops", "export", "embed", "verify")]
    code = (
        "import io, sys\n"
        "import afembed\n"
        f"banned = set({CODE_GENERATION!r})\n"
        "assert not sys.modules.keys() & banned, sorted(sys.modules.keys() & banned)\n"
        "from afembed.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    assert main(argv, out=io.StringIO()) == 0, argv\n"
        "    assert not sys.modules.keys() & banned, (argv[0], sorted(sys.modules.keys() & banned))\n"
    )
    env = dict(child_env(), AFEMBED_OUTPUT_DIR=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")[-500:]


def test_no_module_imports_dataclasses():
    """A static scan: no module of the package names ``dataclasses`` in an import."""
    offenders = []
    for path in sorted((SRC / "afembed").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


# every name ``afembed`` exported before its numeric names were resolved lazily, but
# ``StarContext``, whose one implementation ``AugmentedGraphSpec`` took its place
EXPORTED = """
    Edge Graph GraphError GraphParseError Path export_dot graph_from_dict graph_to_dict
    load_graph parse_graph parse_graph_json serialize_graph
    Classification EntranceExistsError EntranceWitness InvalidWitnessError SimpleLoop
    Verdict classify cycle_vertices disjoint_simple_loops witness_infinite
    CKTerm GaussianRational NormalMonomial adjoint expand_ck3 multiply
    parse_term projection term_to_str
    AugmentedGraphSpec BratteliTailSpec GeneratorMap LoopReplacement MultiplicitySeq
    embed materialize
    RelationReport RelationStatus verify_ck_family verify_witness
    PathBasis SpectrumReport TruncatedRep build_rep loop_spectrum op_of_term relation_residuals
    __version__
""".split()


def test_exported_names_resolve_and_numpy_loads_last():
    """In a fresh interpreter every name resolves both as ``afembed.X`` and
    through ``from afembed import X``, and none of them loads numpy."""
    code = (
        "import sys, afembed\n"
        "assert 'numpy' not in sys.modules\n"
        f"for name in {EXPORTED!r}:\n"
        "    ns = {}\n"
        "    exec(f'from afembed import {name}', ns)\n"
        "    assert ns[name] is getattr(afembed, name), name\n"
        "assert 'numpy' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")[-500:]


def run_process(argv: list[str]) -> subprocess.CompletedProcess:
    code = "import sys\nfrom afembed.cli import entry_point\nentry_point()\n"
    return subprocess.run([sys.executable, "-c", code, *argv], env=child_env(), capture_output=True, timeout=120)


def assert_ndjson(stdout: bytes) -> None:
    for line in stdout.decode("utf-8").splitlines():
        json.loads(line)


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.endswith("_map")))
def test_failing_verify_stdout_is_ndjson(name):
    """The failure message goes to stderr; stdout holds only the records."""
    proc = run_process(resolve(CASES[name]))
    assert proc.returncode == 2
    assert_ndjson(proc.stdout)
    assert proc.stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    assert proc.stderr.decode("utf-8").startswith("verification failed: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--input", "@no_such_graph.txt"],
        ["verify", "--input", "@square_fswap.genmap.txt"],
        ["verify", "--input", "@cycles_dag.txt", "--map", "@square_fswap.genmap.txt"],
        ["verify", "--input", "@square.txt", "--depth", "-1"],
        ["classify", "--input", "@square_fswap.genmap.txt"],
    ],
    ids=["missing-file", "malformed-graph", "map-domain-mismatch", "negative-depth", "classify-malformed"],
)
def test_input_error_stdout_is_ndjson(argv):
    proc = run_process(resolve(argv))
    assert proc.returncode == 1
    assert_ndjson(proc.stdout)
    assert proc.stderr.decode("utf-8").startswith("error: ")


# ``embed`` writes four artifacts next to its report.  The files under
# ``golden/embed/<case>/`` were written by the CLI before ``materialize``
# read the augmented graph from the spec's own tables: the artifacts byte
# for byte, and stdout with the output directory replaced by ``@out``.
# ``square_plus_entrance`` writes no artifact: its one ``error`` record
# carries the whole witness chain, pinned before the loop analysis was
# rewritten as a single SCC pass.
EMBED_GOLDEN = GOLDEN / "embed"
EMBED_CASES = {
    "square_d3": ["embed", "--input", "@square.txt", "--depth", "3"],
    "cycles_dag_mult": ["embed", "--input", "@cycles_dag.txt", "--mult", "3,1;2", "--depth", "2"],
    "self_loop_d0": ["embed", "--input", "@self_loop.txt", "--depth", "0"],
    "crowded": ["embed", "--input", "@crowded.txt"],
    "square_plus_entrance": ["embed", "--input", "@square_plus_entrance.txt"],
}


def run_embed_case(name: str, outdir: Path, monkeypatch) -> tuple[int, str, dict[str, bytes]]:
    monkeypatch.setenv("AFEMBED_OUTPUT_DIR", str(outdir))
    out = io.StringIO()
    code = main(resolve(EMBED_CASES[name]), out=out)
    stdout = out.getvalue().replace(json.dumps(str(outdir) + os.sep)[1:-1], "@out/")
    return code, stdout, {p.name: p.read_bytes() for p in outdir.iterdir()}


@pytest.mark.parametrize("name", sorted(EMBED_CASES))
def test_embed_artifacts_match_golden(name, tmp_path, monkeypatch):
    code, stdout, artifacts = run_embed_case(name, tmp_path, monkeypatch)
    case_dir = EMBED_GOLDEN / name
    expected = {p.name: p.read_bytes() for p in case_dir.iterdir() if p.name != "stdout"}
    assert code == json.loads((EMBED_GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))[name]
    assert stdout == (case_dir / "stdout").read_text(encoding="utf-8")
    assert artifacts == expected


def test_crowded_host_pushes_tails_past_its_ids():
    spec = json.loads((EMBED_GOLDEN / "crowded" / "crowded.embedding.json").read_text(encoding="utf-8"))
    assert [r["namespace"] for r in spec["replacements"]] == ["T5", "T6"]
