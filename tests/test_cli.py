import contextlib
import gc
import io
import json
import os
import re
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from afembed import cli, loops
from afembed import witness as witness_mod
from afembed.cli import (
    EXIT_INPUT_ERROR,
    EXIT_NOT_FINITE,
    EXIT_OK,
    EXIT_VERIFICATION_FAILED,
    entry_point,
    main,
)
from afembed.embedding import MAX_STAGE_SIZE, embed
from afembed.formats import graph_to_dict, serialize_graph
from afembed.graph import Edge, Graph, GraphError, _check_token, load_graph
from afembed.loops import EntranceExistsError, Verdict, classify
from afembed.notation import TermParseError, genmap_to_text, parse_term
from afembed.numrep import MAX_DENSE_SUPPORT
from afembed.terms import ContextMismatchError
from afembed.verify import Catalogue

from .conftest import SQUARE_TEXT
from .strategies import condition5_graphs, multigraphs
from .test_golden import CASES, GOLDEN, CountingOut, child_env, cycle_file, resolve


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture()
def square_file(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text(SQUARE_TEXT)
    return path


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    d = tmp_path / "out"
    monkeypatch.setenv("AFEMBED_OUTPUT_DIR", str(d))
    return d


class TestClassify:
    def test_square(self, square_file):
        code, out = run_cli(["classify", "--input", str(square_file)])
        assert code == EXIT_OK
        assert "AF_EMBEDDABLE_NOT_AF" in out
        assert out.count("loop:") == 1

    def test_acyclic(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("vertex a\nvertex b\nedge e a b\n")
        code, out = run_cli(["classify", "--input", str(p)])
        assert code == EXIT_OK
        assert "verdict=AF" in out

    def test_two_self_loops_exit_3_with_witness(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("vertex v\nedge a v v\nedge b v v\n")
        code, out = run_cli(["classify", "--input", str(p)])
        assert code == EXIT_NOT_FINITE
        assert "NOT_FINITE" in out
        assert "p(v)" in out  # the rendered inequality chain

    def test_parse_error_exit_1_with_position(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        p.write_text("vertex a\nedge e a nope\n")
        code, out = run_cli(["classify", "--input", str(p)])
        assert code == EXIT_INPUT_ERROR
        assert "line 2" in capsys.readouterr().err

    def test_deeply_nested_json_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "deep.json"
        p.write_text('{"vertices": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out = run_cli(["classify", "--input", str(p)])
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert capsys.readouterr().err == "error: invalid JSON: arrays or objects nested too deeply\n"

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"vertices": ["a"],\n "edges": [,]}', "line 2: invalid JSON: Expecting value"),
            (
                '{"vertices": ["a"], "edges": [{"id": "e", "src": "a", "dst": "a"}, {"id": "e", "src": "a", "dst": "a"}]}',
                "duplicate edge id 'e'",
            ),
        ],
        ids=["invalid-json", "duplicate-edge-id"],
    )
    def test_malformed_json_graph_is_input_error(self, tmp_path, capsys, doc, message):
        p = tmp_path / "g.json"
        p.write_text(doc)
        assert run_cli(["classify", "--input", str(p)]) == (EXIT_INPUT_ERROR, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_input_dash_reads_stdin(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO((GOLDEN / "square.txt").read_bytes()), encoding="utf-8"))
        code, out = run_cli(["classify", "--input", "-", "--format", "json"])
        assert (code, out) == (EXIT_OK, (GOLDEN / "classify_square.stdout").read_text())

    def test_missing_file(self, tmp_path):
        code, out = run_cli(["classify", "--input", str(tmp_path / "none.txt")])
        assert code == EXIT_INPUT_ERROR

    def test_json_format_deterministic(self, square_file):
        code1, out1 = run_cli(["classify", "--input", str(square_file), "--format", "json"])
        code2, out2 = run_cli(["classify", "--input", str(square_file), "--format", "json"])
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        records = [json.loads(line) for line in out1.strip().splitlines()]
        assert records[0]["verdict"] == "AF_EMBEDDABLE_NOT_AF"


class TestWitnessCheckedOnce:
    """``classify`` builds its witness from the edges it walked, so the
    commands that write it do not check it again."""

    @pytest.mark.parametrize("command", ["classify", "embed"])
    def test_classifier_witness_is_not_checked_again(self, command, outdir, monkeypatch):
        checked = []
        real = witness_mod.validate_witness
        monkeypatch.setattr(witness_mod, "validate_witness", lambda g, w: checked.append(w) or real(g, w))
        code, out = run_cli([command, "--input", str(GOLDEN / "square_plus_entrance.txt"), "--format", "json"])
        assert code == EXIT_NOT_FINITE and "s*(x) s(x) = p(w)" in out
        assert checked == []
        # the counter sees the check where it does run: a witness a caller brings
        g = load_graph((GOLDEN / "square_plus_entrance.txt").read_text())
        witness_mod.witness_infinite(g, classify(g).witness)
        assert len(checked) == 1


# --- the record writer: one template per shape, byte-equal to the encoder

# ids as ``_check_token`` accepts them: escapes, quotes, control and non-ASCII
# characters.  The characters no id holds (white space, ``#`` and the lone
# surrogates, which a JSON graph can spell) are not drawn: ``_is_id`` would only
# throw them away, often enough to fail Hypothesis's health check
_ID_CHARS = st.characters(
    exclude_categories=("Cs", "Zs", "Zl", "Zp"), exclude_characters="\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85#"
) | st.sampled_from(['"', "\\", "\x01", "\x7f", "\xe9", "\U0001f600"])


def _is_id(name: str) -> bool:
    try:
        _check_token("vertex", name)
    except GraphError:
        return False
    return True


_IDS = st.text(_ID_CHARS, min_size=1, max_size=8).filter(_is_id)
# record values: ids joined as records join them, with spaces and separators
_STRINGS = st.lists(_IDS | st.sampled_from([" ", " ; ", " + ", "-1 "]), max_size=5).map("".join)
_INT_FIELDS = {"count", "depth", "loops_replaced", "failures", "nonzero_eigenvalues"}
_BOOL_FIELDS = {"ok", "symbolic_proved"}
_SHAPES = {name: v for name, v in vars(cli).items() if isinstance(v, cli._Shape)}


def _field_values(shape):
    return st.tuples(
        *(
            st.integers() if k in _INT_FIELDS else st.booleans() if k in _BOOL_FIELDS else _STRINGS
            for k in shape.fields
        )
    )


def _reference_lines(rec: dict) -> dict[str, str]:
    """A record as ``json.JSONEncoder(sort_keys=True)`` writes it, and the
    text line ``<record>: key=value ...`` in the same key order."""
    fields = " ".join(f"{k}={rec[k]}" for k in sorted(rec) if k != "record")
    return {"json": json.JSONEncoder(sort_keys=True).encode(rec) + "\n", "text": f"{rec['record']}: {fields}\n"}


def _reference_chain_lines(w) -> tuple[str, ...]:
    """The witness chain written out line by line: the reference for the
    fragments of ``witness._chain_fragments``."""
    v, alpha, beta = w.entry_vertex, w.alpha, w.beta
    a = " ".join(f"s({e})" for e in w.loop.edges)
    a_star = " ".join(f"s*({e})" for e in reversed(w.loop.edges))
    b, b_star = f"s({w.entry.name})", f"s*({w.entry.name})"
    return (
        f"alpha = {alpha} : {alpha.source} -> {alpha.range}",
        f"beta  = {beta} : {beta.source} -> {beta.range}",
        f"{a_star} {a} = p({v})",
        f"{b_star} {b} = p({beta.source})",
        f"{a_star} {b} = 0",
        f"{a} {a_star} < {a} {a_star} + {b} {b_star} <= p({v})",
        f"p({v}) is equivalent to a proper subprojection of itself: infinite",
    )


@st.composite
def _witnesses(draw):
    n = draw(st.integers(1, 4))
    edges = tuple(draw(st.lists(_IDS, min_size=n, max_size=n, unique=True)))
    vertices = tuple(draw(st.lists(_IDS, min_size=n, max_size=n, unique=True)))
    entry = Edge(draw(_IDS.filter(lambda e: e not in edges)), draw(_IDS), vertices[0])
    return loops.EntranceWitness(loops.SimpleLoop(edges, vertices), entry)


class TestRecordWriter:
    """Each record is the bytes ``JSONEncoder(sort_keys=True)`` gives in
    ``--format json``, and ``<record>: key=value ...`` in ``--format text``,
    whichever way it is written: by field name, spliced from fragments, or
    as one of a run of skipped CK2 pairs; the records leave in one batch."""

    def test_every_record_shape_has_a_template(self):
        shapes = {(s.record, s.fields) for s in _SHAPES.values()}
        assert shapes == {
            ("classification", ("verdict",)),
            ("loop", ("edges", "vertices")),
            ("loops", ("count",)),
            ("witness", ("alpha", "beta", "chain", "entry_edge", "entry_vertex")),
            ("error", ("at", "reason")),
            ("error", ("reason", "witness")),
            ("embedding", ("depth", "loops_replaced", "mult")),
            ("artifact", ("kind", "path")),
            ("symbolic", ("relation", "status")),
            ("symbolic", ("note", "relation", "status")),
            ("symbolic", ("difference", "relation", "status")),
            ("residual", ("instance", "ok", "value")),
            ("boundary-defect", ("expected", "instance", "value")),
            ("spectrum", (
                "hausdorff_to_circle", "loop", "max_modulus_deviation", "net_bound", "nonzero_eigenvalues", "ok",
            )),
            ("summary", ("failures", "max_residual", "symbolic_proved")),
        }

    @pytest.mark.parametrize("name", sorted(_SHAPES))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_record_equals_the_encoder(self, name, data):
        shape = _SHAPES[name]
        values = dict(zip(shape.fields, data.draw(_field_values(shape))))
        expected = _reference_lines({"record": shape.record, **values})
        for fmt in ("json", "text"):
            out = CountingOut()
            write = cli._Writer(fmt, out)
            write(shape, **values)
            records = 1
            if all(isinstance(v, str) for v in values.values()):
                write.spliced(shape, **{k: [write.text(v)] for k, v in values.items()})
                records += 1
            write.flush()
            assert (out.getvalue(), out.writes) == (records * expected[fmt], 1)

    @given(edges=st.lists(_IDS, max_size=4), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_skipped_pairs_equal_the_encoder(self, edges, data):
        """``skipping`` writes each row with the default outcome, each run of
        them in one row of the CK2 grid from one template, and hands the held
        rows, in order, to the caller.  The table has a CK1 row, the grid, a
        CK3 row and two rows of its own, the second showing the outcome of a
        pair.  Every grid holds ids with a quote, a backslash and non-ASCII
        characters, which JSON escapes."""
        edges = sorted({*edges, 'a"', "b\\", "caf\u00e9", "\U0001f600"})
        family = Graph.build(["v"], [(e, "v", "v") for e in edges])
        for shape, key, default in (
            (cli.SYMBOLIC, "relation", {"status": "PROVED"}),
            (cli.RESIDUAL, "instance", {"ok": True, "value": "0.000e+00"}),
        ):
            catalogue = Catalogue(family, ("CK1",), default, lambda name, outcome: {key: name, **outcome})
            catalogue.append("OWN[v]", ":one")
            catalogue.append("OWN[v]", ":two", catalogue.position("CK2", (edges[0], edges[-1])))
            for p in sorted(data.draw(st.sets(st.integers(0, len(catalogue) - 2)))):
                values = dict(zip(shape.fields, data.draw(_field_values(shape))))
                del values[key]
                catalogue.put(p, values)
            for fmt in ("json", "text"):
                out = CountingOut()
                write = cli._Writer(fmt, out)
                for report in write.skipping(catalogue, shape, key, **default):
                    write(shape, **report)
                write.flush()
                expected = "".join(_reference_lines({"record": shape.record, **r})[fmt] for r in catalogue)
                assert (out.getvalue(), out.writes) == (expected, 1)
            assert len(catalogue) == 1 + len(edges) ** 2 + 1 + 2

    @given(_witnesses())
    @settings(max_examples=80, deadline=None)
    def test_witness_records_equal_the_encoder(self, w):
        lines = _reference_chain_lines(w)
        assert tuple(map("".join, witness_mod._chain_fragments(w))) == lines
        witness = {
            "record": "witness",
            "entry_vertex": w.entry_vertex,
            "entry_edge": w.entry_edge,
            "alpha": str(w.alpha),
            "beta": str(w.beta),
            "chain": " ; ".join(lines[2:]),
        }
        refusal = {"record": "error", "reason": "entrance exists", "witness": " ; ".join(lines)}
        for write_record, rec in ((cli._write_witness, witness), (cli._write_entrance_chain, refusal)):
            for fmt in ("json", "text"):
                out = CountingOut()
                write = cli._Writer(fmt, out)
                write_record(write, w)
                write.flush()
                assert (out.getvalue(), out.writes) == (_reference_lines(rec)[fmt], 1)


class TestLoops:
    def test_square(self, square_file):
        code, out = run_cli(["loops", "--input", str(square_file), "--format", "json"])
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert records[0] == {"record": "loops", "count": 1}
        assert records[1]["edges"] == "e4 e3 e2 e1"

    def test_entrance_refused(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("vertex v\nedge a v v\nedge b v v\n")
        code, _ = run_cli(["loops", "--input", str(p)])
        assert code == EXIT_NOT_FINITE


class TestEmbed:
    def test_writes_artifacts(self, square_file, outdir):
        code, out = run_cli(["embed", "--input", str(square_file), "--depth", "3"])
        assert code == EXIT_OK
        spec_doc = json.loads((outdir / "square.embedding.json").read_text())
        assert spec_doc["replacements"][0]["f_edges"] == ["T1.f1", "T1.f2", "T1.f3", "T1.f4"]
        genmap = (outdir / "square.genmap.txt").read_text()
        assert "e1 = s(T1.f2) t(T1) s*(T1.f1)" in genmap
        assert (outdir / "square.F3.dot").read_text().startswith("digraph F")

    def test_materialized_output_classifies_af(self, square_file, outdir):
        code, _ = run_cli(["embed", "--input", str(square_file), "--depth", "4"])
        assert code == EXIT_OK
        f4 = load_graph((outdir / "square.F4.txt").read_text())
        assert classify(f4).verdict is Verdict.AF

    def test_entrance_refused_with_witness(self, tmp_path, outdir):
        p = tmp_path / "g.txt"
        p.write_text("vertex v\nedge a v v\nedge b v v\n")
        code, out = run_cli(["embed", "--input", str(p)])
        assert code == EXIT_NOT_FINITE
        assert "witness" in out

    def test_acyclic_identity(self, tmp_path, outdir):
        p = tmp_path / "dag.txt"
        p.write_text("vertex a\nvertex b\nedge e a b\n")
        code, _ = run_cli(["embed", "--input", str(p), "--depth", "2"])
        assert code == EXIT_OK
        f2 = load_graph((outdir / "dag.F2.txt").read_text())
        assert f2 == load_graph(p.read_text())
        assert "e = s(e)" in (outdir / "dag.genmap.txt").read_text()


class TestVerify:
    def test_square_green(self, square_file):
        code, out = run_cli(["verify", "--input", str(square_file), "--depth", "3"])
        assert code == EXIT_OK
        assert "summary" in out

    def test_low_depth_still_green(self, square_file):
        # spectral net is coarse at depth 1 but within the depth-dependent bound
        code, _ = run_cli(["verify", "--input", str(square_file), "--depth", "1"])
        assert code == EXIT_OK

    def test_corrupted_map_fails_named(self, square_file, outdir, tmp_path):
        code, _ = run_cli(["embed", "--input", str(square_file), "--depth", "3"])
        assert code == EXIT_OK
        genmap_path = outdir / "square.genmap.txt"
        text = genmap_path.read_text().replace(
            "e1 = s(T1.f2) t(T1) s*(T1.f1)", "e1 = s(T1.f3) t(T1) s*(T1.f1)"
        )
        bad = tmp_path / "bad.genmap.txt"
        bad.write_text(text)
        code, out = run_cli(
            ["verify", "--input", str(square_file), "--depth", "3", "--map", str(bad)]
        )
        assert code == EXIT_VERIFICATION_FAILED
        assert "FAILED" in out
        assert "CK" in out  # names the failing instance

    def test_t_dropped_map_caught_numerically(self, square_file, outdir, tmp_path):
        """Symbolic relations still hold without the unitary; the spectrum
        check is what rejects the corrupted map.  Depth must be at least 4:
        below that T^4 is the identity on the shallow corner levels and the
        corrupted family is genuinely indistinguishable at that stage."""
        code, _ = run_cli(["embed", "--input", str(square_file), "--depth", "4"])
        assert code == EXIT_OK
        text = (outdir / "square.genmap.txt").read_text()
        for i, j in ((1, 2), (2, 3), (3, 4), (4, 1)):
            text = text.replace(
                f"e{i} = s(T1.f{j}) t(T1) s*(T1.f{i})", f"e{i} = s(T1.f{j}) s*(T1.f{i})"
            )
        bad = tmp_path / "bad.genmap.txt"
        bad.write_text(text)
        assert "t(T1)" not in bad.read_text()
        code, out = run_cli(
            ["verify", "--input", str(square_file), "--depth", "4", "--map", str(bad)]
        )
        assert code == EXIT_VERIFICATION_FAILED
        assert "spectrum" in out

    def test_report_bytes_deterministic(self, square_file):
        code1, out1 = run_cli(["verify", "--input", str(square_file), "--depth", "3", "--format", "json"])
        code2, out2 = run_cli(["verify", "--input", str(square_file), "--depth", "3", "--format", "json"])
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    def test_duplicate_map_line_is_input_error(self, tmp_path, capsys):
        """A second image for an edge must not silently replace the first."""
        golden = Path(__file__).parent / "golden"
        bad = tmp_path / "dup.genmap.txt"
        bad.write_text(
            (golden / "square_fswap.genmap.txt").read_text() + "e1 = s(T1.f2) t(T1) s*(T1.f1)\n"
        )
        code, out = run_cli(
            ["verify", "--input", str(golden / "square.txt"), "--depth", "3", "--map", str(bad)]
        )
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert "line 6: duplicate image for edge 'e1'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "image, message",
        [
            ("1/0 s(T1.f2) t(T1) s*(T1.f1)", "zero denominator in coefficient '1/0'"),
            ("(" * 2000 + "s(T1.f2)" + ")" * 2000 + " t(T1) s*(T1.f1)", "parentheses nested deeper than 100"),
        ],
        ids=["zero-denominator", "deep-nesting"],
    )
    def test_unparsable_map_term_is_input_error(self, tmp_path, capsys, image, message):
        golden = Path(__file__).parent / "golden"
        bad = tmp_path / "bad.genmap.txt"
        bad.write_text(f"e1 = {image}\n")
        code, out = run_cli(
            ["verify", "--input", str(golden / "square.txt"), "--depth", "3", "--map", str(bad)]
        )
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert capsys.readouterr().err == f"error: line 1: {message}\n"

    @pytest.mark.parametrize(
        "image, message",
        [
            ("s(T1.f2) t(T1)^" + "1" * 5000 + " s*(T1.f1)", "exponent of t(T1) is too long: 5000 digits"),
            ("1/" + "3" * 5000 + " s(T1.f2) t(T1) s*(T1.f1)", "coefficient at position 0 is too long: 5000 digits"),
        ],
        ids=["exponent", "coefficient"],
    )
    def test_overlong_number_in_map_term_is_parse_error(self, tmp_path, capsys, image, message):
        """More digits than ``int`` converts: the message is about the term, not the interpreter."""
        golden = Path(__file__).parent / "golden"
        spec, _ = embed(load_graph((golden / "square.txt").read_text()))
        with pytest.raises(TermParseError):
            parse_term(image, spec)
        bad = tmp_path / "bad.genmap.txt"
        bad.write_text(f"e1 = {image}\n")
        code, out = run_cli(
            ["verify", "--input", str(golden / "square.txt"), "--depth", "2", "--map", str(bad)]
        )
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert capsys.readouterr().err == f"error: line 1: {message}\n"

    @pytest.mark.parametrize(
        "atom, kind",
        [("p(T1.L" + "1" * 5000 + ".1)", "vertex"), ("s(T1.b1." + "1" * 5000 + ")", "edge")],
        ids=["level", "edge-index"],
    )
    def test_overlong_tail_index_is_unknown_id(self, tmp_path, capsys, atom, kind):
        golden = Path(__file__).parent / "golden"
        spec, _ = embed(load_graph((golden / "square.txt").read_text()))
        with pytest.raises(ContextMismatchError):
            parse_term(atom, spec)
        bad = tmp_path / "bad.genmap.txt"
        bad.write_text(f"e1 = {atom}\n")
        code, out = run_cli(
            ["verify", "--input", str(golden / "square.txt"), "--depth", "2", "--map", str(bad)]
        )
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: line 1: unknown {kind} 'T1.") and err.endswith("': its index has 5000 digits\n")

    def test_map_written_by_embed_reads_back_with_equals_in_ids(self, tmp_path, outdir):
        """Edge ids may hold ``=``: the map ``embed`` writes is what ``verify
        --map`` reads, and it gives the report of the constructed map."""
        graph = tmp_path / "eq.txt"
        graph.write_text("vertex u\nvertex v\nvertex w\nedge a=b u v\nedge =c v u\nedge d= v w\n")
        assert run_cli(["embed", "--input", str(graph), "--depth", "3"])[0] == EXIT_OK
        argv = ["verify", "--input", str(graph), "--depth", "3", "--format", "json"]
        constructed = run_cli(argv)
        assert constructed[0] == EXIT_OK
        assert run_cli([*argv, "--map", str(outdir / "eq.genmap.txt")]) == constructed

    @pytest.mark.parametrize("edges", ["edge a(b u v\nedge c) v u\n", "edge a(b u v\nedge c) u v\n"])
    def test_embed_refuses_an_id_its_map_cannot_name(self, tmp_path, outdir, capsys, edges):
        """The term grammar reads an atom's id up to the first parenthesis,
        so ``embed`` refuses an edge id that holds one, on a loop or off
        every loop, before it writes any file; ``verify`` without ``--map``
        writes no map, and accepts it."""
        graph = tmp_path / "paren.txt"
        graph.write_text("vertex u\nvertex v\n" + edges)
        assert run_cli(["embed", "--input", str(graph), "--depth", "2"]) == (EXIT_INPUT_ERROR, "")
        assert capsys.readouterr().err == "error: edge id 'a(b' holds '(' or ')', which a generator map cannot name\n"
        assert not outdir.exists()
        code, out = run_cli(["verify", "--input", str(graph), "--depth", "2"])
        assert code == EXIT_OK and out.endswith("summary: failures=0 max_residual=0.000e+00 symbolic_proved=True\n")

    def test_map_line_without_equals_is_input_error(self, tmp_path, capsys):
        golden = Path(__file__).parent / "golden"
        bad = tmp_path / "bad.genmap.txt"
        bad.write_text("e1 s(T1.f2) t(T1) s*(T1.f1)\n")
        code, out = run_cli(
            ["verify", "--input", str(golden / "square.txt"), "--depth", "2", "--map", str(bad)]
        )
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert capsys.readouterr().err == "error: line 1: expected '<edge-id> = <term>'\n"

    def test_map_image_beyond_the_stage_is_input_error(self, tmp_path, capsys):
        """``T1.b9.1`` is an edge of the augmented graph, but not of ``F_2``."""
        golden = Path(__file__).parent / "golden"
        bad = tmp_path / "bad.genmap.txt"
        bad.write_text(
            "e1 = s(T1.b9.1)\n"
            "e2 = s(T1.f3) t(T1) s*(T1.f2)\n"
            "e3 = s(T1.f4) t(T1) s*(T1.f3)\n"
            "e4 = s(T1.f1) t(T1) s*(T1.f4)\n"
        )
        code, out = run_cli(
            ["verify", "--input", str(golden / "square.txt"), "--depth", "2", "--map", str(bad)]
        )
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert capsys.readouterr().err == "error: edge 'T1.b9.1' not in the materialized stage\n"

    def test_numeric_stages_refuse_before_the_symbolic_one(self, tmp_path, capsys):
        """``verify`` runs the numeric stages first: of a map that both
        stages refuse, the message names the numeric refusal, ``T1.b9.1``
        beyond ``F_2``, not the symbolic one, ``t(T1) s(T1.b1.1)`` without
        a normal form; stdout stays empty either way."""
        golden = Path(__file__).parent / "golden"
        bad = tmp_path / "bad.genmap.txt"
        bad.write_text("e1 = t(T1)^-1\ne2 = s(T1.b1.1)\ne3 = s(T1.b9.1)\ne4 = s(T1.f1) t(T1) s*(T1.f4)\n")
        argv = ["verify", "--input", str(golden / "square.txt"), "--map", str(bad)]
        assert run_cli([*argv, "--depth", "2"]) == (EXIT_INPUT_ERROR, "")
        assert capsys.readouterr().err == "error: edge 'T1.b9.1' not in the materialized stage\n"
        assert run_cli([*argv, "--depth", "9"]) == (EXIT_INPUT_ERROR, "")
        assert capsys.readouterr().err == (
            "error: irreducible word is not of the form s..s t^k s*..s*: t(T1) s(T1.b1.1) in CK2[e1,e2]\n"
        )

    def test_map_term_without_a_normal_form_is_refused_with_its_line(self, tmp_path, capsys):
        """A map term is parsed into normal form: a product that has none is
        refused while the map is read, with its line, written in the term
        grammar; so is a term naming an unknown id."""
        golden = Path(__file__).parent / "golden"
        bad = tmp_path / "bad.genmap.txt"
        argv = ["verify", "--input", str(golden / "square.txt"), "--depth", "2", "--map", str(bad)]
        bad.write_text("# no normal form\ne1 = t(T1) s(T1.b1.1)\n")
        assert run_cli(argv) == (EXIT_INPUT_ERROR, "")
        assert capsys.readouterr().err == (
            "error: line 2: irreducible word is not of the form s..s t^k s*..s*: t(T1) s(T1.b1.1)\n"
        )
        bad.write_text("e1 = s(T1.f2) t(T1) s*(T1.f1)\ne2 = t*(T1)^2 s(zz)\n")
        assert run_cli(argv) == (EXIT_INPUT_ERROR, "")
        assert capsys.readouterr().err == "error: line 2: unknown edge 'zz'\n"

    def test_coefficient_beyond_the_float_range_is_input_error(self, tmp_path, capsys):
        """Up to 10^308 a coefficient is a float, and the residuals read ``inf``;
        one more digit has no float at all."""
        golden = Path(__file__).parent / "golden"
        bad = tmp_path / "big.genmap.txt"
        bad.write_text(
            "e1 = 1" + "0" * 400 + " s(T1.f2) t(T1) s*(T1.f1)\n"
            "e2 = s(T1.f3) t(T1) s*(T1.f2)\n"
            "e3 = s(T1.f4) t(T1) s*(T1.f3)\n"
            "e4 = s(T1.f1) t(T1) s*(T1.f4)\n"
        )
        code, out = run_cli(
            ["verify", "--input", str(golden / "square.txt"), "--depth", "2", "--map", str(bad)]
        )
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert capsys.readouterr().err == (
            "error: coefficient 100000000000000000000000... of 401 characters is beyond the float range\n"
        )

    def test_loop_free_basis_stops_at_its_longest_path(self):
        """The stage of a loop-free graph does not grow with the depth, so the
        basis must not walk a billion empty levels; the report is depth 6's."""
        argv = ["verify", "--input", str(GOLDEN / "dag.txt"), "--depth", "1000000000", "--format", "json"]
        code = "from afembed.cli import entry_point\nentry_point()\n"
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env=child_env(),
            capture_output=True,
            timeout=30,
            preexec_fn=_cap_address_space,
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
        assert proc.stdout == (GOLDEN / "verify_dag.stdout").read_bytes()

    @pytest.mark.parametrize(
        "power, reduced",
        [("99999999999999999999", "7"), ("-99999999999999999997", "-5"), ("100000000000000000000", "8")],
    )
    def test_huge_map_exponent_is_reduced_modulo_the_period(self, tmp_path, capsys, power, reduced):
        """``T^8`` is the corner projection of ``F_3`` at ``--mult 2``, so an
        exponent beyond 8 reports as its representative in 1 .. 8, and
        finishes at once rather than after ``|k| - 1`` operator products."""
        rest = "e2 = s(T1.f3) t(T1) s*(T1.f2)\ne3 = s(T1.f4) t(T1) s*(T1.f3)\ne4 = s(T1.f1) t(T1) s*(T1.f4)\n"
        argvs = {}
        for k in (power, reduced):
            path = tmp_path / f"{k}.genmap.txt"
            path.write_text(f"e1 = s(T1.f2) t(T1)^{k} s*(T1.f1)\n" + rest)
            argvs[k] = ["verify", "--input", str(GOLDEN / "square.txt"), "--depth", "3", "--map", str(path)]
        code, out = run_cli(argvs[reduced])
        assert code == EXIT_VERIFICATION_FAILED
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "from afembed.cli import entry_point\nentry_point()\n", *argvs[power]],
            env=child_env(),
            capture_output=True,
            timeout=10,
        )
        assert time.perf_counter() - started < 1  # interpreter start-up included
        assert (proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")) == (code, out, capsys.readouterr().err)

    def test_domain_mismatch_is_input_error(self, square_file, tmp_path, capsys):
        bad = tmp_path / "bad.genmap.txt"
        bad.write_text("e1 = p(u1)\n")
        code, out = run_cli(
            ["verify", "--input", str(square_file), "--depth", "2", "--map", str(bad)]
        )
        assert code == EXIT_INPUT_ERROR
        assert "domain" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify"], ["verify", "--map", "MAP"], ["embed"]])
@pytest.mark.parametrize("name", ["square", "dag"])
def test_a_request_indexes_two_graphs(name, argv, tmp_path, outdir, monkeypatch):
    """A graph is indexed once when it is read, and ``F_d`` once; the
    replaced graph is the input's index, which every stage reads."""
    graph = GOLDEN / f"{name}.txt"
    if "MAP" in argv:
        assert run_cli(["embed", "--input", str(graph), "--depth", "3"])[0] == EXIT_OK
        argv = [*argv[:-1], str(outdir / f"{name}.genmap.txt")]
    built = []
    init = Graph.__init__
    monkeypatch.setattr(Graph, "__init__", lambda self, *args: built.append(init(self, *args)))
    assert run_cli([*argv, "--input", str(graph), "--depth", "3"])[0] == EXIT_OK
    assert len(built) == 2


class TestUsageErrors:
    """argparse's own exit code 2 would read as "a verification failed"."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--input", "g.txt", "--mult", "x;2"],
            ["verify"],
            ["classify", "--input", "g.txt", "--format", "yaml"],
            [],
            *(["verify", "--input", "g.txt", "--mult", m] for m in ("2,,3;2", ",;2", ";2", "1_000", "\u0663")),
            ["verify", "--input", "g.txt", "--tol-alg", "1e-12"],
        ],
    )
    def test_usage_error_exits_1(self, argv, capsys):
        code, _ = run_cli(argv)
        assert code == EXIT_INPUT_ERROR
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["embed", "verify"])
    @pytest.mark.parametrize(
        "mult, reason",
        [
            ("1", "the repeating multiplicity must be >= 2 so that entries >= 2 occur infinitely often"),
            ("0;2", "multiplicities must be >= 1"),
            ("3;1", "the repeating multiplicity must be >= 2 so that entries >= 2 occur infinitely often"),
            ("2,,3;2", "expected '<tail>' or '<m1>,<m2>,...;<tail>', not '2,,3;2'"),
        ],
    )
    def test_mult_error_names_its_reason(self, command, mult, reason, capsys):
        assert run_cli([command, "--input", "g.txt", "--mult", mult]) == (EXIT_INPUT_ERROR, "")
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert err.endswith(f"afembed {command}: error: argument --mult: {reason}\n")

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
    def test_closed_reader_ends_the_process_silently(self, tmp_path):
        """As ``afembed loops ... | head -1`` would: the reader takes one byte
        of 50,001 records, about 2 MB, far more than a pipe buffer, and
        closes its end while the command still writes them."""
        n = 50_000
        graph = tmp_path / "self_loops.txt"
        graph.write_text("".join(f"vertex v{i}\nedge e{i} v{i} v{i}\n" for i in range(n)))
        assert self.close_after_one_byte(["loops", "--input", str(graph)]) == (b"l", b"", -signal.SIGPIPE)

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
    def test_closed_reader_mid_verify_report(self, tmp_path):
        """The same for a report that leaves in batches: a C48's ``verify``
        records, about 300 kB, several batches and more than a pipe buffer."""
        graph = cycle_file(tmp_path, 48)
        assert self.close_after_one_byte(["verify", "--input", str(graph)]) == (b"s", b"", -signal.SIGPIPE)

    @staticmethod
    def close_after_one_byte(argv):
        """The first byte of the command's stdout, read before closing the
        pipe, and then its stderr and exit status."""
        code = "from afembed.cli import entry_point; entry_point()"
        proc = subprocess.Popen([sys.executable, "-c", code, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
        try:
            first = proc.stdout.read(1)
            proc.stdout.close()
            stderr = proc.stderr.read()
            proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        return first, stderr, proc.returncode

    def test_closed_output_is_one_input_error(self, capsys):
        """Records leave in batches, the last one as ``main`` ends: a stream
        closed under it is still one ``error:`` line and exit 1."""
        out = io.StringIO()
        out.close()
        assert main(["verify", "--input", str(GOLDEN / "square.txt"), "--depth", "3"], out=out) == EXIT_INPUT_ERROR
        assert capsys.readouterr() == ("", "error: I/O operation on closed file\n")

    def test_failing_verify_writes_its_summary_before_the_message(self):
        """On one pipe for stdout and stderr, as ``2>&1`` gives, the records
        come first: the failure message follows the ``summary`` record,
        whether or not stdout is buffered."""
        argv = resolve(CASES["verify_square_tdropped_map"])
        code = "from afembed.cli import entry_point; entry_point()"
        env = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
        for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
            proc = subprocess.run(
                [sys.executable, "-c", code, *argv], stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env={**env, **unbuffered}, timeout=120
            )
            assert proc.returncode == EXIT_VERIFICATION_FAILED
            lines = proc.stdout.decode("utf-8").splitlines(keepends=True)
            assert "".join(lines[:-1]).encode() == (GOLDEN / "verify_square_tdropped_map.stdout").read_bytes()
            assert json.loads(lines[-2])["record"] == "summary"
            assert lines[-1] == "verification failed: spectrum of the 4-edge loop from e4\n"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the child's stream is closed between fork and exec")
    @pytest.mark.parametrize(
        "fd, argv, message",
        [
            (1, ["loops", "--input", str(GOLDEN / "square.txt")], "standard output is closed"),
            (1, ["export", "--input", str(GOLDEN / "square.txt")], "standard output is closed"),
            (0, ["loops", "--input", "-"], "standard input is closed"),
        ],
        ids=["loops-stdout", "export-stdout", "loops-stdin"],
    )
    def test_closed_standard_stream_is_input_error(self, fd, argv, message):
        """As ``afembed ... >&-`` or ``<&-`` would: Python starts with
        ``sys.stdout`` or ``sys.stdin`` set to ``None``.  Both once ended in
        an ``AttributeError`` traceback, and ``export`` wrote nothing and
        exited 0."""
        code = "from afembed.cli import entry_point; entry_point()"
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            preexec_fn=lambda: os.close(fd),
            env=child_env(),
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (EXIT_INPUT_ERROR, f"error: {message}\n".encode())
        assert proc.stdout == b""

    def test_process_exit_code(self, monkeypatch, capsys):
        """``entry_point`` sets ``SIGPIPE`` to its default action, which,
        left so in this process, would let a later test's child that leaves
        piped input unread end the whole session; and it freezes the
        collector, which, left so, would keep every object of the session
        so far from being collected."""
        monkeypatch.setattr("sys.argv", ["afembed", "verify", "--mult", "x;2"])
        found = signal.getsignal(signal.SIGPIPE)
        try:
            with pytest.raises(SystemExit) as exc:
                entry_point()
        finally:
            signal.signal(signal.SIGPIPE, found)
            gc.unfreeze()
        assert exc.value.code == EXIT_INPUT_ERROR

    def test_the_process_exits_with_the_collector_frozen(self):
        """Every object alive when the command returns is in the permanent
        generation by the time the exit handlers run, so the collections
        of shutdown skip them; the report is the golden's."""
        code = (
            "import atexit, gc, sys; atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr)); "
            "from afembed.cli import entry_point; entry_point()"
        )
        argv = resolve(CASES["classify_square"])
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, env=child_env(), timeout=60)
        assert proc.returncode == EXIT_OK
        assert proc.stdout == (GOLDEN / "classify_square.stdout").read_bytes()
        assert int(proc.stderr) > 0

    def test_main_leaves_the_collector_as_it_was(self):
        """Tests and tools call ``main`` many times in one process, which
        must go on collecting."""
        frozen = gc.get_freeze_count()
        assert run_cli(resolve(CASES["verify_square_d4"]))[0] == EXIT_OK
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize(
        "command, options",
        [
            ("classify", ["--input", "--format"]),
            ("loops", ["--input", "--format"]),
            ("embed", ["--input", "--format", "--depth", "--mult"]),
            ("verify", ["--input", "--format", "--depth", "--mult", "--map"]),
            ("export", ["--input", "--format"]),
        ],
    )
    def test_help_lists_exactly_these_options(self, command, options, capsys):
        """The tolerances are fixed, not settable: ``--tol-alg inf`` once let a
        map that drops ``t`` exit 0."""
        assert run_cli([command, "--help"]) == (EXIT_OK, "")
        listed = re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out)
        assert list(dict.fromkeys(listed)) == options + ["--help"]

    def test_help_exits_0(self, capsys):
        code, _ = run_cli(["verify", "--help"])
        assert code == EXIT_OK
        assert "--mult" in capsys.readouterr().out


class TestExport:
    def test_dot(self, square_file):
        code, out = run_cli(["export", "--input", str(square_file), "--format", "dot"])
        assert code == EXIT_OK
        assert out.count("->") == 4

    def test_json_round_trip(self, square_file):
        code, out = run_cli(["export", "--input", str(square_file), "--format", "json"])
        assert code == EXIT_OK
        assert load_graph(out) == load_graph(SQUARE_TEXT)

    def test_text_round_trip(self, square_file):
        code, out = run_cli(["export", "--input", str(square_file), "--format", "text"])
        assert load_graph(out) == load_graph(SQUARE_TEXT)

    @pytest.mark.parametrize(
        "doc, name",
        [
            ({"vertices": ["x#1"], "edges": []}, "x#1"),
            ({"vertices": ["u"], "edges": [{"id": "f#2", "src": "u", "dst": "u"}]}, "f#2"),
        ],
        ids=["vertex", "edge"],
    )
    def test_comment_sign_in_a_json_id_is_input_error(self, tmp_path, capsys, doc, name):
        """Written as text, the id would read back as a comment: as another
        graph, or as a malformed line."""
        p = tmp_path / "g.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["export", "--input", str(p), "--format", "text"]) == (EXIT_INPUT_ERROR, "")
        assert repr(name) in capsys.readouterr().err


# A guard that fails to refuse must not take the machine's memory with it:
# the child gets half a gigabyte of address space, a fraction of the ceiling
# stage's footprint, and either hits it or the timeout.
CHILD_ADDRESS_SPACE = 512 << 20


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


class TestUtf8Ids:
    """Ids are UTF-8 text from end to end: the command reads and writes
    UTF-8 whatever the locale or ``PYTHONIOENCODING`` say, and an id that no
    UTF-8 text holds is refused before a byte is written."""

    CAFE = "vertex caf\u00e9\nedge e caf\u00e9 caf\u00e9\n"
    SURROGATE = '{"vertices": ["a\\ud800"], "edges": [{"id": "e", "src": "a\\ud800", "dst": "a\\ud800"}]}'

    @staticmethod
    def run(argv, encoding, stdin=None):
        code = "from afembed.cli import entry_point\nentry_point()\n"
        env = dict(child_env(), PYTHONIOENCODING=encoding)
        return subprocess.run([sys.executable, "-c", code, *argv], input=stdin, env=env, capture_output=True, timeout=120)

    def test_stdin_is_read_as_utf8(self, tmp_path):
        """Under a latin-1 stdin, ``caf\u00e9`` once came in as ``caf\u00c3\u00a9``."""
        graph = tmp_path / "cafe.txt"
        graph.write_text(self.CAFE, encoding="utf-8")
        by_path = self.run(["loops", "--input", str(graph), "--format", "json"], "latin-1")
        by_stdin = self.run(["loops", "--input", "-", "--format", "json"], "latin-1", graph.read_bytes())
        assert by_path.returncode == by_stdin.returncode == EXIT_OK
        assert by_stdin.stdout == by_path.stdout
        assert by_path.stdout.endswith(b'"vertices": "caf\\u00e9"}\n')

    def test_text_is_written_as_utf8(self, tmp_path):
        """Under an ASCII stdout, the first record was written and the loop's failed."""
        graph = tmp_path / "cafe.txt"
        graph.write_text(self.CAFE, encoding="utf-8")
        proc = self.run(["loops", "--input", str(graph)], "ascii")
        assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
        assert proc.stdout == "loops: count=1\nloop: edges=e vertices=caf\u00e9\n".encode("utf-8")

    def test_artifacts_are_written_as_utf8(self, tmp_path, monkeypatch):
        """Under an ASCII locale, ``embed`` once stopped at the first artifact
        naming ``caf\u00e9``, leaving the others half written."""
        graph = tmp_path / "cafe.txt"
        graph.write_text(self.CAFE, encoding="utf-8")
        written = {}
        for locale in ("ascii", "utf-8"):
            monkeypatch.setenv("AFEMBED_OUTPUT_DIR", str(tmp_path / locale))
            # no UTF-8 mode and no coercion of the C locale: the locale's encoding is ASCII
            monkeypatch.setenv("LC_ALL", "C" if locale == "ascii" else "C.UTF-8")
            monkeypatch.setenv("PYTHONUTF8", "0")
            monkeypatch.setenv("PYTHONCOERCECLOCALE", "0")
            proc = self.run(["embed", "--input", str(graph)], locale)
            assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
            written[locale] = {f.name: f.read_bytes() for f in (tmp_path / locale).iterdir()}
        assert len(written["ascii"]) == 4
        assert written["ascii"] == written["utf-8"]
        assert "vertex caf\u00e9\n".encode("utf-8") in written["ascii"]["cafe.F6.txt"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("source", ["path", "stdin"])
    def test_an_id_no_utf8_text_holds_is_refused(self, tmp_path, fmt, source):
        """A JSON escape can spell a lone surrogate; ``--format text`` once wrote
        a record and then failed on it."""
        graph = tmp_path / "surrogate.json"
        graph.write_text(self.SURROGATE, encoding="utf-8")
        if source == "path":
            proc = self.run(["loops", "--input", str(graph), "--format", fmt], "utf-8")
        else:
            proc = self.run(["loops", "--input", "-", "--format", fmt], "utf-8", graph.read_bytes())
        assert (proc.returncode, proc.stdout) == (EXIT_INPUT_ERROR, b"")
        assert proc.stderr == b"error: vertex id is not UTF-8 text: 'a\\ud800'\n"

    @pytest.mark.parametrize("source", ["path", "stdin"])
    def test_a_decoding_error_names_its_byte_in_the_whole_input(self, tmp_path, source):
        """The input is decoded a 64 KiB block at a time; a bad byte beyond
        the first block was once reported at its position in its block:
        byte 408,897 at "position 7437".  Bad bytes in the first, second and
        seventh block, and a sequence cut off by the end of the input, are
        reported as decoding the whole input reports them."""
        text = "".join(f"vertex v{i:06d}\n" for i in range(30_000)).encode("utf-8")
        cases = [(10, b"\xff"), (65_539, b"\xff"), (70_000, b"\xf0\x28"), (408_897, b"\xff"), (len(text), b"\xf0\x9f\x98")]
        for at, bad in cases:
            data = text[:at] + bad + text[at:]
            with pytest.raises(UnicodeDecodeError) as whole:
                data.decode("utf-8")
            graph = tmp_path / "bad.txt"
            graph.write_bytes(data)
            # standard input is the file, not a pipe, whose unread rest would
            # meet the SIGPIPE action an in-process ``entry_point`` leaves behind
            with open(graph, "rb") as stdin:
                argv = [sys.executable, "-c", "from afembed.cli import entry_point\nentry_point()\n", "classify", "--input"]
                argv.append(str(graph) if source == "path" else "-")
                proc = subprocess.run(argv, stdin=stdin, env=child_env(), capture_output=True, timeout=120)
            assert (proc.returncode, proc.stdout) == (EXIT_INPUT_ERROR, b""), at
            assert proc.stderr.decode("utf-8") == f"error: {whole.value}\n"


# A C400 at depth 6 has 160,000 CK2 pairs, 400 of them multiplied.  Built as
# records, the pairs took the run to about 62 MB; held as the multiplied
# instances alone, it peaks at about 26 MB (x86-64 Linux, CPython 3.11).
VERIFY_C400_PEAK_MB = 45
# runs the CLI with the remaining arguments and prints its exit code and
# ``ru_maxrss``: from a small interpreter, since a child's ``ru_maxrss``
# counts the memory of the process it was forked from
PEAK_RSS = """
import os, subprocess, sys
code = "from afembed.cli import entry_point; entry_point()"
proc = subprocess.Popen([sys.executable, "-c", code, *sys.argv[1:]], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kilobytes on Linux")
def test_verify_memory_grows_with_the_products_not_the_pairs(tmp_path):
    """A default ``verify`` of a C400 in a fresh process, its output
    discarded: the child's own peak resident memory."""
    argv = ["verify", "--input", str(cycle_file(tmp_path, 400)), "--format", "json"]
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS, *argv], env=child_env(), capture_output=True, timeout=120)
    code, peak_kb = map(int, proc.stdout.split())
    assert code == EXIT_OK
    assert peak_kb / 1024 < VERIFY_C400_PEAK_MB

def _verify_peak_kb(tmp_path, n: int) -> int:
    argv = ["verify", "--input", str(cycle_file(tmp_path, n)), "--format", "json"]
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS, *argv], env=child_env(), capture_output=True, timeout=120)
    code, peak_kb = map(int, proc.stdout.split())
    assert code == EXIT_OK
    return peak_kb


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kilobytes on Linux")
def test_verify_memory_grows_linearly_in_the_loop_length(tmp_path):
    """A default ``verify`` of C10, C1000 and C2000, each in a fresh process
    with its output discarded.  Each LOOP row of the residual report once
    held its whole loop in its name, so the peak grew quadratically in n:
    from C1000 to C2000 it rose 1.82 times as much as from C10 to C1000
    (x86-64 Linux, CPython 3.11).  A loop's rows now share one name prefix
    and show their instances' outcomes by position: 1.05 times.  A ratio of
    differences does not depend on the interpreter's own start-up size."""
    c10, c1000, c2000 = (_verify_peak_kb(tmp_path, n) for n in (10, 1000, 2000))
    assert c2000 - c1000 <= 1.3 * (c1000 - c10)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kilobytes on Linux")
def test_verify_memory_per_row_of_a_deep_self_loop():
    """A default ``verify`` of the one-edge self-loop at depths 14 and 16,
    each in a fresh process with its output discarded: 81,903 and 327,661
    basis rows.  The peak grew by 199 bytes per added row while each row's
    index was made as two int objects, the loop spectrum paired every value
    with its modulus, and a residual held every difference; it grows by
    about 135 (x86-64 Linux, CPython 3.11).  A difference of peaks does
    not depend on the interpreter's own start-up size."""
    peaks = []
    for depth in (14, 16):
        argv = ["verify", "--input", str(GOLDEN / "self_loop.txt"), "--depth", str(depth)]
        proc = subprocess.run([sys.executable, "-c", PEAK_RSS, *argv], env=child_env(), capture_output=True, timeout=120)
        code, peak_kb = map(int, proc.stdout.split())
        assert code == EXIT_OK
        peaks.append(peak_kb * 1024)
    assert peaks[1] - peaks[0] <= 175 * (327_661 - 81_903)


class TestStageCeiling:
    """A stage above ``MAX_STAGE_SIZE`` is an input error, found before it is built."""

    @pytest.mark.parametrize(
        "argv, pattern",
        [
            (
                ["embed", "--input", "square.txt", "--mult", "9999999999999999999999"],
                r"stage F_6 has 11 vertices and 59999999999999999999998 edges, more than the (\d+) a stage may have",
            ),
            (
                ["embed", "--input", "square.txt", "--depth", "1000000000000"],
                r"stage F_1000000000000 has 1000000000005 vertices and 2000000000004 edges, more than the (\d+) a stage may have",
            ),
            (
                ["verify", "--input", "self_loop.txt", "--depth", "30"],
                r"the path basis of F_30 has at least (\d+) rows, more than the (\d+) a stage may have",
            ),
            (
                [
                    "verify", "--input", "square.txt", "--mult", "99999999999", "--depth", "2",
                    "--map", "square_tail_pair.genmap.txt",
                ],
                r"stage F_2 has 7 vertices and 200000000002 edges, more than the (\d+) a stage may have",
            ),
        ],
        ids=["embed-mult", "embed-depth", "verify-depth", "verify-map-mult"],
    )
    def test_refused_in_a_capped_process(self, argv, pattern, tmp_path):
        argv = [str(GOLDEN / a) if a.endswith(".txt") else a for a in argv]
        code = "from afembed.cli import entry_point\nentry_point()\n"
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env=dict(child_env(), AFEMBED_OUTPUT_DIR=str(tmp_path / "out")),
            capture_output=True,
            timeout=60,
            preexec_fn=_cap_address_space,
        )
        assert (proc.returncode, proc.stdout) == (EXIT_INPUT_ERROR, b"")
        message = proc.stderr.decode("utf-8")
        match = re.fullmatch(f"error: {pattern}\n", message)
        assert match, message
        *counts, ceiling = map(int, match.groups())
        assert ceiling == MAX_STAGE_SIZE and all(n > MAX_STAGE_SIZE for n in counts)
        assert not (tmp_path / "out").exists()  # no artifact was written

    def test_dense_spectrum_refused_in_a_capped_process(self):
        """The square's sum map at depth 11 needs the dense eigensolver on
        4,094 basis vectors, about 550 MB; it is refused before that."""
        argv = ["verify", "--input", str(GOLDEN / "square.txt"), "--map", str(GOLDEN / "square_sum.genmap.txt"), "--depth", "11"]
        code = "from afembed.cli import entry_point\nentry_point()\n"
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env=child_env(),
            capture_output=True,
            timeout=60,
            preexec_fn=_cap_address_space,
        )
        assert (proc.returncode, proc.stdout) == (EXIT_INPUT_ERROR, b"")
        assert proc.stderr.decode("utf-8") == (
            f"error: the spectrum needs a dense eigensolver on 4094 basis vectors, more than the {MAX_DENSE_SUPPORT} it may take\n"
        )


# --- fuzz: any argv over any graph ends in an exit code and a message

# up to 3 a stage at depth 8 stays small; a number past 2^21 crosses the
# stage ceiling wherever it is used
_HUGE = st.integers(2**21, 10**30).map(str)
_MULT_TAIL = st.sampled_from(["2", "3", "02", "0003"]) | _HUGE
_MULT = st.one_of(
    _MULT_TAIL,
    st.builds("{};{}".format, st.lists(st.sampled_from(["1", "2", "3", "01"]) | _HUGE, min_size=1, max_size=4).map(",".join), _MULT_TAIL),
    # near misses of ``[0-9]+(,[0-9]+)*;[0-9]+|[0-9]+``
    st.sampled_from(
        ["", "0", "1", "00", "0;2", "3;1", ";", ";2", "2;", ",;2", "2,,3;2", "2;3;4", "-2", "+2", " 2", "2 ",
         "1_000", "2.0", "\u0663", "0x2", "2e3", "2,3", "2;;3"]
    ),
)
_ATOM_IDS = ["T1.f1", "T1.f2", "T2.f1", "T1.b1.1", "T1.b2.2", "T1.v", "T1.L1.1", "T9.f1", "c0x0", "w0", "v0", "l0e0"]
_FACTOR = st.one_of(
    st.builds("{}({})".format, st.sampled_from(["s", "s*", "p"]), st.sampled_from(_ATOM_IDS)),
    st.builds("t({})".format, st.sampled_from(["T1", "T2", "T9"])),
)
_TERM = st.builds(
    "{}{}".format,
    st.sampled_from(["", "2 ", "-1 ", "(3/5+4/5i) ", "i ", "1/0 ", "1" + "0" * 400 + " ", "0 "]),
    st.lists(_FACTOR, min_size=1, max_size=4).map(" ".join),
)
_IMAGE = st.one_of(_TERM, st.lists(_TERM, min_size=2, max_size=3).map(" + ".join), st.text(max_size=12))
_EXPONENT = st.sampled_from(["2", "-3", "0", "99999999999999999999", "-10000000000000000000000", "x"])


@st.composite
def _map_text(draw, g) -> str:
    """The constructed map with at most two of its lines given a tail
    exponent, replaced, dropped or repeated, or with an extra line."""
    try:
        spec, gmap = embed(g)
        lines = genmap_to_text(gmap, spec).splitlines()[1:]
    except EntranceExistsError:
        lines = [f"{e} = s({e})" for e in g.edge_names]
    for _ in range(draw(st.integers(0, 2))):
        action = draw(st.sampled_from(["power", "power", "replace", "drop", "repeat", "extra"]))
        i = draw(st.integers(0, len(lines))) if lines else 0
        if action == "extra" or i == len(lines):
            lines.insert(i, f"{draw(st.sampled_from(['zz', '', 'l0e0']))} = {draw(_IMAGE)}")
        elif action == "power":
            lines[i] = re.sub(r"t\(T\d+\)", lambda t: f"{t.group(0)}^{draw(_EXPONENT)}", lines[i], count=1)
        elif action == "replace":
            lines[i] = f"{lines[i].partition(' =')[0]} = {draw(_IMAGE)}"
        elif action == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


# id characters that crowd the term and map syntax; a relabelled graph may
# also draw ``#`` or a Unicode space, which a JSON id can hold but a line of
# the text format cannot
_ID_ALPHABET = "ab.()="


@st.composite
def _json_document(draw, g) -> str:
    """``g`` as a JSON document, its ids relabelled from ``_ID_ALPHABET``."""
    chars = st.sampled_from(_ID_ALPHABET + 2 * draw(st.sampled_from(["", "#", "#", "\u2003"])))

    def relabel(names):
        return {n: draw(st.text(chars, max_size=3)) + str(i) for i, n in enumerate(names)}

    vn, en = relabel(g.vertex_names), relabel(g.edge_names)
    doc = graph_to_dict(g)
    doc["vertices"] = [vn[v] for v in doc["vertices"]]
    doc["edges"] = [{"id": en[e["id"]], "src": vn[e["src"]], "dst": vn[e["dst"]]} for e in doc["edges"]]
    return json.dumps(doc, ensure_ascii=False)


@st.composite
def _requests(draw):
    # export twice: its text documents are where an id that cannot be written shows
    command = draw(st.sampled_from(["classify", "loops", "export", "export", "embed", "verify", "verify --map"]))
    embeddable = condition5_graphs(max_loops=2)
    if command == "verify --map":  # a map that has a loop to send into a tail
        g = draw(embeddable.filter(lambda g: classify(g).loops))
    else:
        g = draw(embeddable | multigraphs(max_vertices=5, max_edges=8))
    options = ["--format", draw(st.sampled_from(["text", "json", "dot"] if command == "export" else ["text", "json"]))]
    map_text = None
    if command == "verify --map":
        command, map_text = "verify", draw(_map_text(g))
    if command in ("embed", "verify"):
        options += ["--depth", str(draw(st.integers(0, 8)))]
        options += ["--mult", draw(_MULT)]
    if not draw(st.booleans()):
        return serialize_graph(g), command, options, map_text
    if map_text is not None:  # the map names the graph's own ids
        return json.dumps(graph_to_dict(g)), command, options, map_text
    return draw(_json_document(g)), command, options, map_text


class TestFuzz:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("fuzz")
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("AFEMBED_OUTPUT_DIR", str(d / "out"))
            yield d

    @given(request=_requests())
    @example(request=('{"vertices": ["x#1"], "edges": []}', "export", ["--format", "text"], None))
    @settings(max_examples=200, deadline=None)
    def test_every_request_ends_in_a_code_and_parseable_records(self, workdir, request):
        graph_text, command, options, map_text = request
        graph = workdir / "g.txt"
        graph.write_text(graph_text, encoding="utf-8")
        argv = [command, "--input", str(graph), *options]
        if map_text is not None:
            (workdir / "g.genmap.txt").write_text(map_text, encoding="utf-8")
            argv += ["--map", str(workdir / "g.genmap.txt")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv, out=out)
        event(f"{command} exit {code}")
        assert code in (EXIT_OK, EXIT_INPUT_ERROR, EXIT_VERIFICATION_FAILED, EXIT_NOT_FINITE), argv
        assert "Traceback" not in err.getvalue()
        if code == EXIT_INPUT_ERROR:
            assert out.getvalue() == "" and err.getvalue(), argv
        if command == "export":
            if code == EXIT_OK and "dot" not in options:  # the document reads back as the input
                assert load_graph(out.getvalue()) == load_graph(graph_text), argv
        elif "json" in options:
            for line in out.getvalue().splitlines():
                json.loads(line)
