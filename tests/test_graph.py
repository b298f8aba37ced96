import gc
import json
import os
import random
import re
import sys
import tempfile
import threading
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import afembed.graph as graph_module
from afembed import cli
from afembed.formats import export_dot, graph_from_dict, graph_to_dict, parse_graph_json, serialize_graph
from afembed.graph import (
    Graph,
    GraphError,
    GraphParseError,
    UndeclaredEndpointError,
    UnknownVertexError,
    _check_token,
    load_graph,
    parse_graph,
)

from .oracles import SetGraph, reference_parse_graph, set_graph_from_dict, set_parse_graph, string_parse_graph
from .strategies import multigraphs


class TestParsing:
    def test_square_graph(self, square):
        assert square.vertices == frozenset({"u1", "u2", "u3", "u4"})
        assert len(square.edges) == 4
        assert square.edge("e2").source == "u2"
        assert square.edge("e2").range == "u3"

    def test_single_vertex_no_edges(self):
        g = parse_graph("vertex only\n")
        assert g.vertices == frozenset({"only"})
        assert g.edges == ()

    def test_undeclared_endpoint_reports_line(self):
        with pytest.raises(GraphParseError, match="line 2.*undeclared vertex 'nope'"):
            parse_graph("vertex a\nedge e a nope\n")

    def test_duplicate_vertex(self):
        with pytest.raises(GraphParseError, match="duplicate vertex"):
            parse_graph("vertex a\nvertex a\n")

    def test_duplicate_edge(self):
        with pytest.raises(GraphParseError, match="duplicate edge"):
            parse_graph("vertex a\nedge e a a\nedge e a a\n")

    def test_unknown_directive_reports_position(self):
        with pytest.raises(GraphParseError, match="line 3"):
            parse_graph("vertex a\n\nnode b\n")

    def test_comments_and_order_insensitivity(self):
        g = parse_graph("edge e a b  # forward reference\nvertex b\nvertex a\n")
        assert g.edge("e").range == "b"

    @given(multigraphs())
    @settings(max_examples=120, deadline=None)
    def test_text_round_trip(self, g):
        assert parse_graph(serialize_graph(g)) == g

    @given(multigraphs())
    @settings(max_examples=120, deadline=None)
    def test_dict_round_trip(self, g):
        assert graph_from_dict(graph_to_dict(g)) == g


class TestReceivers:
    def test_square_unique_receiver(self, square):
        assert square.receivers("u2") == frozenset({"e1"})

    def test_isolated_vertex(self):
        g = parse_graph("vertex a\nvertex b\nedge e a a\n")
        assert g.receivers("b") == frozenset()

    def test_two_parallel_self_loops(self, two_self_loops):
        assert two_self_loops.receivers("v") == frozenset({"a", "b"})

    def test_unknown_vertex(self, square):
        with pytest.raises(UnknownVertexError):
            square.receivers("nope")

    @given(multigraphs())
    @settings(max_examples=120, deadline=None)
    def test_receivers_partition_edges(self, g):
        seen = []
        for v in g.vertices:
            rec = g.receivers(v)
            assert all(g.edge(e).range == v for e in rec)
            seen.extend(rec)
        assert sorted(seen) == sorted(e.name for e in g.edges)


class TestMalformedJson:
    """Each document is rejected with a GraphParseError, never a TypeError
    traceback and never silently read as some other graph."""

    @pytest.mark.parametrize(
        "doc",
        [
            '{"vertices": [1, 2], "edges": []}',
            '{"vertices": "abc", "edges": []}',
            '{"vertices": ["a"], "edges": "xy"}',
            '{"vertices": ["a"], "edges": [{"id": 1, "src": "a", "dst": "a"}]}',
            '{"vertices": ["a"], "edges": [{"id": "e", "src": "a", "dst": ["a"]}]}',
            '{"vertices": ["a"], "edges": ["e"]}',
            '{"vertices": ["a"], "edges": [{"id": "e", "src": "a"}]}',
            '{"vertices": ["a"]}',
            "[1, 2]",
        ],
    )
    def test_rejected_by_load_graph(self, doc):
        with pytest.raises(GraphParseError):
            load_graph(doc)

    def test_top_level_array_is_not_an_unknown_directive(self):
        with pytest.raises(GraphParseError, match="must be an object"):
            load_graph("[1,2]")

    @pytest.mark.parametrize(
        "doc, kind",
        [("42", "int"), ('"abc"', "str"), ("null", "NoneType"), ("true", "bool"), ("-1", "int")],
    )
    def test_top_level_scalar_is_not_an_unknown_directive(self, doc, kind):
        with pytest.raises(GraphParseError, match=f"a JSON graph must be an object, not {kind}$"):
            load_graph(doc)

    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
            lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
            max_leaves=12,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_any_json_value_loads_or_raises_graph_error(self, value):
        try:
            g = load_graph(json.dumps(value))
        except GraphError:
            return
        assert isinstance(g, Graph)

    @pytest.mark.parametrize("obj", ["abc", 42, None, [1, 2], ["a"]])
    def test_non_object_documents(self, obj):
        with pytest.raises(GraphParseError):
            graph_from_dict(obj)

    def test_string_vertices_not_split_into_characters(self):
        with pytest.raises(GraphParseError, match="list of string ids"):
            graph_from_dict({"vertices": "abc", "edges": []})

    def test_string_edges_named_in_message(self):
        with pytest.raises(GraphParseError, match="'edges' must be a list of objects"):
            graph_from_dict({"vertices": ["a"], "edges": "xy"})

    def test_deep_nesting_is_a_parse_error(self):
        doc = '{"vertices": ' + "[" * 100_000 + "]" * 100_000 + "}"
        with pytest.raises(GraphParseError, match="nested too deeply"):
            parse_graph_json(doc)


ID_CHARS = st.sampled_from(list("aT1._-#") + [" ", "\t", "\n", "\u2003", "\x1c", "\x85", "\u3000", "\xa0", "\u200b"])


class TestIdCheck:
    """Ids reach ``_check_token`` unsplit from JSON documents and the Python API."""

    @given(st.text(ID_CHARS | st.characters(), max_size=6))
    @example("\ud800")
    @settings(max_examples=400, deadline=None)
    def test_rejects_exactly_empty_and_whitespace_ids(self, name):
        # a lone surrogate is no UTF-8 text, and st.characters() draws them
        rejected = not name or any(c.isspace() or "\ud800" <= c <= "\udfff" for c in name) or "#" in name
        try:
            _check_token("vertex", name)
        except GraphError:
            assert rejected
        else:
            assert not rejected
        try:
            graph_from_dict({"vertices": [name], "edges": []})
        except GraphError:
            assert rejected
        else:
            assert not rejected

    @given(
        st.text(ID_CHARS | st.characters(), min_size=1, max_size=6).filter(lambda s: s.split() == [s] and "#" not in s),
        st.integers(0, 2),
    )
    @example("\ud800", 0)
    @example("a\udfffb", 2)
    @settings(max_examples=300, deadline=None)
    def test_the_text_and_json_readers_refuse_the_same_ids(self, name, blank):
        """A ``str`` can hold a lone surrogate, as a JSON escape can spell
        one: the text reader refuses it at its line, the JSON reader as an id."""
        surrogate = any("\ud800" <= c <= "\udfff" for c in name)
        text = "\n" * blank + f"vertex {name}\nedge e {name} {name}\n"
        for read in (parse_graph, load_graph):
            try:
                read(text)
            except GraphParseError as exc:
                assert surrogate and str(exc) == f"line {blank + 1}: {name!r} is not UTF-8 text"
            else:
                assert not surrogate
        try:
            parse_graph_json(json.dumps({"vertices": [name], "edges": [{"id": "e", "src": name, "dst": name}]}))
        except GraphError as exc:
            assert surrogate and str(exc) == f"vertex id is not UTF-8 text: {name!r}"
        else:
            assert not surrogate

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    def test_a_lone_surrogate_is_refused_after_the_lines_before_it(self, block):
        """Each error is reported at the first line that has one, whichever
        block holds it, and a comment is text like any other."""
        head = "".join(f"vertex v{i}\n" for i in range(100))
        with mock.patch.object(graph_module, "_BLOCK", block):
            with pytest.raises(GraphParseError, match="^line 102: 'x\\\\udc00' is not UTF-8 text$"):
                parse_graph(head + "vertex a # \u00e9\nedge e a a # x\udc00\nvertex v0\n")
            with pytest.raises(GraphParseError, match="^line 101: duplicate vertex id 'v0'$"):
                parse_graph(head + "vertex v0\nvertex \ud800\n")

    @pytest.mark.parametrize("name", ["", "a b", "\u2003", "a\x1c", "\x85b", "x\u3000y"])
    def test_whitespace_ids_rejected(self, name):
        with pytest.raises(GraphError, match="without whitespace"):
            graph_from_dict({"vertices": [name], "edges": []})


class TestDotExport:
    def test_square(self, square):
        dot = export_dot(square)
        assert dot.startswith("digraph")
        assert dot.count("->") == 4
        assert '"u1" -> "u2" [label="e1"];' in dot

    def test_empty_body(self):
        g = Graph.build([], [])
        assert export_dot(g) == "digraph E {\n}\n"

    def test_parallel_edges_stay_distinct(self, two_self_loops):
        dot = export_dot(two_self_loops)
        assert dot.count('"v" -> "v"') == 2

    def test_quotes_and_backslashes_escaped(self):
        g = Graph.build(['a"b', "c\\"], [('e"1', 'a"b', "c\\")])
        dot = export_dot(g)
        assert '  "a\\"b" -> "c\\\\" [label="e\\"1"];' in dot
        # every quoted DOT string is closed: nothing but separators lies between them
        quoted = re.compile(r'"(?:[^"\\]|\\.)*"')
        for line in dot.splitlines()[1:-1]:
            assert set(quoted.sub("", line)) <= set(" ->;[]label=")
        ids = {re.sub(r"\\(.)", r"\1", q[1:-1]) for q in quoted.findall(dot)}
        assert ids == {'a"b', "c\\", 'e"1'}


# ids for the oracle comparison: few enough that self-loops and parallel
# edges are common, and ids that are not tokens
ORACLE_IDS = st.sampled_from(["a", "b", "c", "d", "e"])
NOT_TOKENS = st.sampled_from(["a b", "", "\u3000", "x\ty", "e#f"])


@st.composite
def declarations(draw):
    """Vertex ids and ``(id, source, range)`` triples.  Half of them are
    malformed: ids may repeat or hold whitespace, endpoints may be undeclared."""
    malformed = draw(st.booleans())
    ids = ORACLE_IDS | NOT_TOKENS if malformed else ORACLE_IDS
    vertices = draw(st.lists(ids, max_size=6, unique=not malformed))
    endpoint = st.sampled_from(vertices) if vertices else ids
    names = st.integers(0, 20).map(lambda i: f"e{i}")
    if malformed:
        endpoint, names = endpoint | ids, names | NOT_TOKENS
    edges = draw(st.lists(
        st.tuples(names, endpoint, endpoint), max_size=12, unique_by=None if malformed else (lambda t: t[0])
    ))
    return vertices, edges


def name_level_view(g) -> tuple:
    """Everything the symbolic and numeric layers read, in order, including
    the errors of lookups by unknown names."""
    vertices = sorted(g.vertices)
    lookups = []
    for lookup in (g.edge, g.receivers, g.out_edges):
        try:
            lookups.append(lookup("missing"))
        except GraphError as exc:
            lookups.append((type(exc), str(exc)))
    return (
        vertices,
        g.edges,
        [g.edge(e.name) for e in g.edges],
        [g.receivers(v) for v in vertices],
        [g.out_edges(v) for v in vertices],
        lookups,
    )


def outcome(construct, *args) -> tuple:
    try:
        g = construct(*args)
    except GraphError as exc:
        return ("rejected", type(exc), str(exc))
    return ("built", name_level_view(g))


class TestAgainstSetOracle:
    """The integer index answers as the set-based core it replaced did."""

    @given(declarations())
    @settings(max_examples=300, deadline=None)
    def test_build(self, decl):
        vertices, edges = decl
        assert outcome(Graph.build, vertices, edges) == outcome(SetGraph.build, vertices, edges)

    @given(declarations(), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_parse_graph(self, decl, rnd):
        vertices, edges = decl
        lines = [f"vertex {v}" for v in vertices] + [f"edge {n} {s} {r}" for n, s, r in edges]
        rnd.shuffle(lines)
        text = "\n".join(lines)
        assert outcome(parse_graph, text) == outcome(set_parse_graph, text)

    @given(declarations())
    @settings(max_examples=300, deadline=None)
    def test_graph_from_dict(self, decl):
        vertices, edges = decl
        doc = {"vertices": vertices, "edges": [{"id": n, "src": s, "dst": r} for n, s, r in edges]}
        assert outcome(graph_from_dict, doc) == outcome(set_graph_from_dict, doc)

    @given(multigraphs(max_vertices=6, max_edges=14))
    @settings(max_examples=200, deadline=None)
    def test_well_formed_multigraphs(self, g):
        edges = [(e.name, e.source, e.range) for e in reversed(g.edges)]
        assert name_level_view(g) == name_level_view(SetGraph.build(sorted(g.vertices), edges))

    def test_parse_errors_keep_their_line(self):
        text = "edge e1 a b\nvertex a\nedge e2 a a\nedge e1 a a\n"
        expected = outcome(set_parse_graph, text)
        assert expected[0] == "rejected" and expected[2].startswith("line 4:")
        assert outcome(parse_graph, text) == expected


# --- the one-pass parser against the parser it replaced

# every line break of str.splitlines(); "\x1f" and "\u3000" below split words but no lines
LINE_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
SPACES = st.sampled_from([" ", "\t", "  ", "\x1f", "\u3000"])
COMMENTS = st.sampled_from(["#", " # note", "#vertex x", "\t#edge e a a"])
VERTEX_IDS = ["a", "b", "c", "d"]


@st.composite
def statement(draw, clean: bool):
    """One line's words.  A clean line is a blank, a comment, a vertex or an
    edge between declared ids; any other line may repeat an id, name an
    undeclared endpoint ``z``, miscount its words or misname its directive."""
    kinds = ["vertex", "edge", "edge", "blank"] + ([] if clean else ["arity", "directive"])
    kind = draw(st.sampled_from(kinds))
    endpoint = st.sampled_from(VERTEX_IDS if clean else VERTEX_IDS + ["z"])
    if kind == "vertex":
        words = ["vertex", draw(st.sampled_from(VERTEX_IDS))]
    elif kind == "edge":
        words = ["edge", f"e{draw(st.integers(0, 30 if clean else 4))}", draw(endpoint), draw(endpoint)]
    elif kind == "arity":
        words = draw(st.sampled_from([["vertex"], ["vertex", "a", "b"], ["edge", "e9", "a"], ["edge", "e9", "a", "b", "c"]]))
    elif kind == "directive":
        words = [draw(st.sampled_from(["node", "Vertex", "edges", "v#vertex"])), "a"]
    else:
        words = []
    line = draw(SPACES).join(words)
    if draw(st.booleans()):
        line = draw(SPACES) + line
    if draw(st.integers(0, 3)) == 0:
        line += draw(COMMENTS)
    return line


@st.composite
def graph_texts(draw):
    """Texts in the line format, half of them well formed (every id declared
    once, somewhere: forward references are common), with every line break
    of ``str.splitlines`` and a final break or none."""
    clean = draw(st.booleans())
    lines = draw(st.lists(statement(clean), max_size=14))
    if clean:  # keep the first line of each id, then declare each vertex not declared yet
        kept, seen = [], set()
        for line in lines:
            words = line.split("#")[0].split()
            if words and words[1] in seen:
                continue
            seen.update(words[1:2])
            kept.append(line)
        lines = draw(st.permutations(kept + [f"vertex {v}" for v in VERTEX_IDS if v not in seen]))
    breaks = [draw(LINE_BREAKS) for _ in lines]
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    if breaks and draw(st.booleans()):
        text = text[: -len(breaks[-1])]
    return text


def parsed(parse, text: str):
    try:
        return parse(text)
    except GraphParseError as exc:
        return ("rejected", str(exc), exc.line)


class TestOnePassParser:
    """``parse_graph`` returns the graph, or raises the error at the line,
    that the parser keeping every line and a table per edge did, whatever
    block size it splits the text in."""

    @given(graph_texts(), st.sampled_from([1, 2, 3, 7, 1 << 16]))
    @settings(max_examples=600, deadline=None)
    def test_matches_the_reference_parser(self, text, block):
        with mock.patch.object(graph_module, "_BLOCK", block):
            assert parsed(parse_graph, text) == parsed(reference_parse_graph, text)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("vertex a\nnode b\nvertex a\n", 2, "unknown directive 'node'"),
            ("vertex a\nvertex a\nnode b\n", 2, "duplicate vertex id 'a'"),
            ("edge e a a\nvertex a b\nedge e a a\n", 2, "expected: vertex <id>"),
            ("edge e1 a b\nedge e2 b z\nedge e3 y b\nvertex a\nvertex b\nnode\x1cvertex c", 6, "unknown directive 'node'"),
            ("edge e1 a b\r\nedge e2 b z\r\nedge e3 y b\r\nvertex a\r\nvertex b\r\n", 2, "edge 'e2' references undeclared vertex 'z'"),
            ("edge e1 y z\u2028vertex a\n", 1, "edge 'e1' references undeclared vertex 'y'"),
        ],
    )
    def test_first_offending_line_wins(self, text, line, message):
        with pytest.raises(GraphParseError) as exc:
            parse_graph(text)
        assert (exc.value.line, str(exc.value)) == (line, f"line {line}: {message}")


# --- the index of a large graph

N = 50_000


@pytest.fixture(scope="module")
def c50000_text() -> str:
    """A 50,000-cycle with 11-character ids, declared vertices first."""
    rnd = random.Random(N)
    labels = [f"{x:010x}" for x in rnd.sample(range(1 << 40), 2 * N)]
    vertices = ["v" + x for x in labels[:N]]
    lines = [f"vertex {v}" for v in vertices]
    lines += [f"edge e{x} {vertices[i]} {vertices[(i + 1) % N]}" for i, x in enumerate(labels[N:])]
    return "\n".join(lines) + "\n"


class TestIndexFootprint:
    """The index is flat integer columns, and parsing keeps no per-line tables."""

    def test_columns_are_integer_arrays(self, square):
        columns = (square.src, square.rng, square.out_start, square.out_ids, square.recv_start, square.recv_ids)
        assert all(isinstance(c, array) and c.typecode == "q" for c in columns)
        assert list(square.out_start) == list(square.recv_start) == [0, 1, 2, 3, 4]

    def test_load_graph_peak(self, c50000_text):
        """tracemalloc's peak over ``load_graph`` of the 3 MB text: 36-38 MB
        when the index held a tuple per vertex and side and the parser every
        line, about 20 MB now."""
        tracemalloc.start()
        try:
            g = load_graph(c50000_text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(g.edge_names) == len(g.vertex_names) == N
        assert peak <= 24 * 10**6

    def test_load_graph_adds_no_container_per_vertex(self, c50000_text):
        """Counted with the collector off, so that no collection untracks a
        container before the count: a tuple per vertex and side added 100,000."""
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            g = load_graph(c50000_text)
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert len(g.vertex_names) == N
        assert added < 100


# --- the streaming reader against the reader that held the whole text

# one padding line: a comment, white space that splits no line, or nothing
PAD_LINES = st.sampled_from(["# " + "pad " * 16, " \t\x1f\u3000 ", ""])


@st.composite
def reader_texts(draw):
    """The texts of :func:`graph_texts`, and as often the same text with
    72,000 characters or more of comments and blank lines spliced in at a
    line boundary, so that the reader takes it in more than one block."""
    text = draw(graph_texts())
    if draw(st.booleans()):
        lines = text.splitlines(keepends=True)
        at = draw(st.integers(0, len(lines)))
        unit = "".join(draw(PAD_LINES) + draw(LINE_BREAKS) for _ in range(8))
        pad = unit * (72_000 // len(unit) + 1)
        text = "".join(lines[:at]) + pad + "".join(lines[at:])
    return text


def read_through_a_pipe(text: str):
    """``cli._load("-")`` with standard input the read end of an OS pipe,
    opened as the command opens it, that a thread fills with the text."""
    r, w = os.pipe()

    def fill():
        try:
            with open(w, "wb") as out:
                out.write(text.encode("utf-8"))
        except BrokenPipeError:  # the reader stopped at an error and closed its end
            pass

    writer = threading.Thread(target=fill)
    writer.start()
    try:
        with open(r, encoding="utf-8") as stdin, mock.patch.object(sys, "stdin", stdin):
            return cli._load("-")
    finally:
        writer.join(timeout=60)
        assert not writer.is_alive()


def read_from_a_file(text: str):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "g.txt")
        with open(path, "wb") as out:  # the text's own line breaks, untranslated
            out.write(text.encode("utf-8"))
        return cli._load(path)


class TestStreamingReader:
    """``parse_graph`` and ``load_graph`` read a ``str`` or a text stream a
    block at a time and keep the line of each forward reference.  From a
    string, a file or a pipe they return the graph, or raise the error at
    the line, that the reader holding the whole text did (the oracle)."""

    @given(reader_texts())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_whole_text_reader(self, text):
        expected = parsed(string_parse_graph, text)
        assert parsed(parse_graph, text) == expected
        assert parsed(load_graph, text) == expected
        assert parsed(read_from_a_file, text) == expected
        assert parsed(read_through_a_pipe, text) == expected

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    def test_forward_reference_line_in_a_later_block(self, block):
        """The undeclared endpoint is reported at its own line, although
        the reader has moved blocks past it."""
        text = "edge e1 a z\n" + "".join(f"vertex v{i}\n" for i in range(20_000)) + "vertex a\n"
        with mock.patch.object(graph_module, "_BLOCK", block):
            assert parsed(read_from_a_file, text) == parsed(string_parse_graph, text)
        assert parsed(parse_graph, text) == ("rejected", "line 1: edge 'e1' references undeclared vertex 'z'", 1)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ("  \n\t 42\n", "a JSON graph must be an object, not int"),
            ('"vertex a"', "a JSON graph must be an object, not str"),
            ("\n" * 70_000 + "null", "a JSON graph must be an object, not NoneType"),
            (" \n" * 40_000 + '{"vertices": ["a"], "edges": []}', None),
            ("node a\n" + "vertex b\n" * 10_000, "line 1: unknown directive 'node'"),
        ],
        ids=["number", "string", "null-after-blocks-of-blank-lines", "object-after-a-block-of-spaces", "bad-directive"],
    )
    def test_json_is_told_from_text_at_its_first_character(self, doc, message):
        """A document that is not text is read whole and decided as it was:
        even when white space fills the reader's first block."""
        for read in (load_graph, read_from_a_file, read_through_a_pipe):
            if message is None:
                assert read(doc) == load_graph('{"vertices": ["a"], "edges": []}')
            else:
                with pytest.raises(GraphError) as exc:
                    read(doc)
                assert str(exc.value) == message


class TestLoadFootprint:
    def test_load_peak_within_twice_what_it_keeps(self, tmp_path):
        """``cli._load`` of a 20,000-cycle file, traced: the peak is at most
        twice the graph it returns.  The text is read a 64 KiB block at a
        time, so what stays above the graph is the parser's tables (the id
        table and the edge-name set, freed before the index is built) and
        the index's construction: the two sort orders, boxed ints dropped
        one after the other, and one pass of counting per side.  The reader
        that held the whole text and its decoded copy, and sorted each side
        of the index with a boxed key, peaked at 2.45 times; this one at
        about 1.78."""
        n = 20_000
        rnd = random.Random(n)
        labels = [f"{x:010x}" for x in rnd.sample(range(1 << 40), 2 * n)]
        vertices = ["v" + x for x in labels[:n]]
        path = tmp_path / "c20000.txt"
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(f"vertex {v}\n" for v in vertices)
            out.writelines(f"edge e{x} {vertices[i]} {vertices[(i + 1) % n]}\n" for i, x in enumerate(labels[n:]))
        del labels, vertices
        gc.collect()
        tracemalloc.start()
        try:
            g = cli._load(str(path))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(g.edge_names) == len(g.vertex_names) == n
        assert peak <= 2.0 * held, (peak, held)
