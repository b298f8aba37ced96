import io
import itertools
import time

import pytest
from hypothesis import given, settings

from afembed.embedding import embed, materialize
from afembed.graph import Edge, Graph, Path, UnknownEdgeError, load_graph, parse_graph
from afembed.loops import (
    EntranceExistsError,
    EntranceWitness,
    InvalidWitnessError,
    SimpleLoop,
    Verdict,
    classify,
    _loop_of,
    cycle_vertices,
    disjoint_simple_loops,
)
from afembed.verify import RelationStatus
from afembed.witness import _cycle_through, validate_witness, verify_witness, witness_infinite

from .conftest import SQUARE_TEXT, growth_ratio
from .oracles import (
    backtracking_cycle_through,
    enumerate_simple_cycles,
    loop_of,
    oracle_classify,
    oracle_cycle_vertices,
    oracle_has_entrance,
    oracle_witness,
    tarjan_cycle_vertices,
)
from .strategies import clustered_multigraphs, condition5_graphs, entrance_graphs, looped_multigraphs, multigraphs


class TestCycleVertices:
    def test_square(self, square):
        assert cycle_vertices(square) == frozenset({"u1", "u2", "u3", "u4"})

    def test_materialized_replacement_has_none(self, square_embedding):
        spec, _ = square_embedding
        assert cycle_vertices(materialize(spec, 3)) == frozenset()

    def test_two_disjoint_two_cycles_plus_pendant(self):
        g = parse_graph(
            "vertex a\nvertex b\nvertex c\nvertex d\nvertex p\n"
            "edge ab a b\nedge ba b a\nedge cd c d\nedge dc d c\nedge pa p a\n"
        )
        assert cycle_vertices(g) == oracle_cycle_vertices(g) == frozenset({"a", "b", "c", "d"})

    @given(multigraphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, g):
        assert cycle_vertices(g) == oracle_cycle_vertices(g) == tarjan_cycle_vertices(g)

    @given(clustered_multigraphs(max_vertices=80, max_edges=240))
    @settings(max_examples=150, deadline=None)
    def test_matches_tarjan_on_large_multigraphs(self, g):
        """Graphs too large to enumerate cycles in, self-loops and parallel edges included."""
        assert cycle_vertices(g) == tarjan_cycle_vertices(g)


class TestEntranceViolation:
    def test_square_has_none(self, square):
        assert classify(square).witness is None

    def test_two_self_loops(self, two_self_loops):
        w = classify(two_self_loops).witness
        assert w.entry_vertex == "v" and w.entry_edge in {"a", "b"}

    def test_square_plus_entrance(self, square_plus_entrance):
        w = classify(square_plus_entrance).witness
        assert (w.entry_vertex, w.entry_edge) == ("u2", "x")

    def test_equivalence_on_all_small_graphs(self):
        """Exhaustive check against the literal loop-entrance definition on
        every labeled multigraph with <= 4 vertices and <= 6 edges."""
        vertices = ["a", "b", "c", "d"]
        pairs = list(itertools.product(vertices, vertices))
        checked = 0
        for m in range(0, 7):
            for combo in itertools.combinations_with_replacement(pairs, m):
                edges = [(f"e{i}", s, d) for i, (s, d) in enumerate(combo)]
                g = Graph.build(vertices, edges)
                fast = classify(g).witness is None
                assert fast == (not oracle_has_entrance(g))
                checked += 1
        assert checked > 50_000


class TestDisjointSimpleLoops:
    def test_square_single_loop(self, square):
        (loop,) = disjoint_simple_loops(square)
        assert loop.edges == ("e4", "e3", "e2", "e1")
        assert loop.vertices == ("u1", "u2", "u3", "u4")

    def test_acyclic_graph(self):
        g = parse_graph("vertex a\nvertex b\nedge e a b\n")
        assert disjoint_simple_loops(g) == []

    def test_two_disjoint_self_loops(self):
        g = parse_graph("vertex a\nvertex b\nedge la a a\nedge lb b b\n")
        loops = disjoint_simple_loops(g)
        assert [l.edges for l in loops] == [("la",), ("lb",)]

    def test_entrance_precondition(self, two_self_loops):
        with pytest.raises(EntranceExistsError):
            disjoint_simple_loops(two_self_loops)

    @given(condition5_graphs())
    @settings(max_examples=100, deadline=None)
    def test_partition_of_cycle_vertices(self, g):
        loops = disjoint_simple_loops(g)
        covered = [v for loop in loops for v in loop.vertices]
        assert sorted(covered) == sorted(cycle_vertices(g))
        edges = [e for loop in loops for e in loop.edges]
        assert len(set(edges)) == len(edges)

    @given(condition5_graphs())
    @settings(max_examples=100, deadline=None)
    def test_loops_satisfy_invariants(self, g):
        """Each loop's edges run from ``u_i`` to ``u_{i+1}``, closing at
        ``u_1``, and its vertices ``u_1, ..., u_n`` are distinct."""
        for loop in disjoint_simple_loops(g):
            traversal = [g.edge(e) for e in reversed(loop.edges)]
            assert [e.source for e in traversal] == list(loop.vertices)
            assert [e.range for e in traversal] == list(loop.vertices[1:] + loop.vertices[:1])
            assert len(set(loop.vertices)) == loop.n


class TestClassify:
    def test_square(self, square):
        cls = classify(square)
        assert cls.verdict is Verdict.AF_EMBEDDABLE_NOT_AF
        assert len(cls.loops) == 1

    def test_replacement_graph_is_af(self, square_embedding):
        spec, _ = square_embedding
        assert classify(materialize(spec, 4)).verdict is Verdict.AF

    def test_two_self_loops(self, two_self_loops):
        cls = classify(two_self_loops)
        assert cls.verdict is Verdict.NOT_FINITE
        assert cls.witness is not None

    @given(multigraphs())
    @settings(max_examples=200, deadline=None)
    def test_matches_literal_oracle(self, g):
        assert classify(g).verdict is oracle_classify(g)

    def test_one_analysis_per_call(self, square_plus_entrance, monkeypatch):
        """A not-finite verdict runs the SCC pass once and the cycle search once."""
        import afembed.loops as loops_mod
        import afembed.witness as witness_mod

        calls = {"scc": 0, "cycle": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        # the int-level routines behind cycle_vertices and the witness loop
        monkeypatch.setattr(loops_mod, "_on_cycle", counted("scc", loops_mod._on_cycle))
        monkeypatch.setattr(witness_mod, "_cycle_through", counted("cycle", witness_mod._cycle_through))
        cls = classify(square_plus_entrance)
        assert cls.verdict is Verdict.NOT_FINITE
        assert calls == {"scc": 1, "cycle": 1}

    @pytest.mark.parametrize("command", ["classify", "loops", "embed", "verify"])
    def test_each_command_runs_one_scc_pass(self, command, tmp_path, monkeypatch):
        """No command classifies twice: ``embed`` and ``verify`` analyse the input once."""
        import afembed.loops as loops_mod
        from afembed.cli import main

        path = tmp_path / "square.txt"
        path.write_text(SQUARE_TEXT)
        monkeypatch.setenv("AFEMBED_OUTPUT_DIR", str(tmp_path / "out"))
        calls = []
        on_cycle = loops_mod._on_cycle
        monkeypatch.setattr(loops_mod, "_on_cycle", lambda g: calls.append(g) or on_cycle(g))
        argv = [command, "--input", str(path), "--format", "json"]
        assert main(argv + (["--depth", "3"] if command == "verify" else []), out=io.StringIO()) == 0
        assert len(calls) == 1

    def test_deep_path_into_a_cycle(self):
        """A 100,000-vertex path entering a 3-cycle: the SCC pass is iterative and linear."""
        n = 100_000
        vertices = [f"p{i}" for i in range(n)] + ["c0", "c1", "c2"]
        edges = [(f"q{i}", f"p{i}", f"p{i + 1}") for i in range(n - 1)]
        edges += [("q_in", f"p{n - 1}", "c0"), ("k0", "c0", "c1"), ("k1", "c1", "c2"), ("k2", "c2", "c0")]
        cls, seconds = timed_classify(Graph.build(vertices, edges))
        assert cls.verdict is Verdict.NOT_FINITE
        assert cls.witness.loop.edges == ("k2", "k1", "k0")
        assert cls.witness.entry_vertex == "c0" and cls.witness.entry_edge == "q_in"
        assert seconds < 2


class TestWitness:
    @given(multigraphs())
    @settings(max_examples=300, deadline=None)
    def test_classify_builds_only_valid_witnesses(self, g):
        """The command line writes the classifier's witness unchecked."""
        w = classify(g).witness
        if w is not None:
            validate_witness(g, w)

    def test_shortest_instance(self, two_self_loops):
        w = classify(two_self_loops).witness
        chain = "\n".join(witness_infinite(two_self_loops, w))
        assert w.alpha.edges == ("a",) and w.beta.edges == ("b",)
        assert "p(v)" in chain
        assert "infinite" in chain

    def test_square_plus_entrance(self, square_plus_entrance):
        w = classify(square_plus_entrance).witness
        assert w.entry_vertex == "u2" and w.entry_edge == "x"
        assert w.alpha.source == w.alpha.range == "u2"
        assert w.entry == Edge("x", "w", "u2")
        assert w.alpha == Path(("e1", "e4", "e3", "e2"), "u2", "u2")
        assert w.beta == Path(("x",), "w", "u2")
        assert "p(u2)" in "\n".join(witness_infinite(square_plus_entrance, w))

    def test_a_witness_is_a_loop_and_an_edge(self, square_plus_entrance):
        """``alpha`` and ``beta`` are read off the two fields, so no witness
        can hold a path ``beta`` other than its entry edge."""
        w = classify(square_plus_entrance).witness
        assert EntranceWitness.__slots__ == ("loop", "entry")
        with pytest.raises(TypeError):
            EntranceWitness(loop=w.loop, entry=w.entry, beta=Path((), "u2", "u2"))

    def test_alpha_equal_beta_rejected(self, two_self_loops):
        """On a self-loop, ``beta == alpha`` exactly when the entry edge is the loop's."""
        w = classify(two_self_loops).witness
        bad = EntranceWitness(w.loop, two_self_loops.edge(w.loop.edges[0]))
        assert bad.beta == bad.alpha
        with pytest.raises(InvalidWitnessError):
            witness_infinite(two_self_loops, bad)

    def test_entry_edge_on_loop_rejected(self, square_plus_entrance):
        w = classify(square_plus_entrance).witness
        bad = EntranceWitness(w.loop, Edge("e1", "u1", "u2"))
        with pytest.raises(InvalidWitnessError):
            witness_infinite(square_plus_entrance, bad)

    # corruptions of square_plus_entrance's witness: loop e1 e4 e3 e2 based at
    # u2, entered by x from w; each names the fields it replaces
    CORRUPTED = {
        "no loop edge": ({"loop": SimpleLoop((), ())}, "a loop has at least one edge"),
        "loop not composable": (
            {"loop": SimpleLoop(("e1", "e3", "e4", "e2"), ("u2", "u3", "u4", "u1"))},
            "edges do not compose: ('e1', 'e3', 'e4', 'e2')",
        ),
        "loop not closed": (
            {"loop": SimpleLoop(("e4", "e3", "e2"), ("u2", "u3", "u4"))},
            "path does not close up into a loop",
        ),
        "loop twice round": (
            {"loop": SimpleLoop(("e1", "e4", "e3", "e2") * 2, ("u2", "u3", "u4", "u1") * 2)},
            "loop is not simple: repeated range vertex",
        ),
        "loop vertices": (
            {"loop": SimpleLoop(("e1", "e4", "e3", "e2"), ("u1", "u2", "u3", "u4"))},
            "loop vertex list inconsistent with its edges",
        ),
        "loop based elsewhere": (
            {"loop": SimpleLoop(("e2", "e1", "e4", "e3"), ("u3", "u4", "u1", "u2"))},
            "entry edge does not point at the entry vertex",
        ),
        "entry edge on loop": ({"entry": Edge("e1", "u1", "u2")}, "entry edge lies on the loop"),
        "entry edge elsewhere": (
            {"loop": SimpleLoop(("e4", "e3", "e2", "e1"), ("u1", "u2", "u3", "u4"))},
            "entry edge does not point at the entry vertex",
        ),
        "entry edge unknown": ({"entry": Edge("zz", "w", "u2")}, "unknown edge 'zz'"),
        "entry source misrecorded": (
            {"entry": Edge("x", "u3", "u2")},
            "entry edge's recorded ends are not its ends in the graph",
        ),
        "beta elsewhere": (
            {"entry": Edge("x", "w", "u3")},
            "entry edge's recorded ends are not its ends in the graph",
        ),
    }

    @pytest.mark.parametrize("check", [witness_infinite, lambda g, w: verify_witness(w, g)], ids=["chain", "proof"])
    @pytest.mark.parametrize("corruption", sorted(CORRUPTED))
    def test_corrupted_witness_rejected_with_its_reason(self, square_plus_entrance, corruption, check):
        fields, message = self.CORRUPTED[corruption]
        w = classify(square_plus_entrance).witness
        bad = EntranceWitness(**{"loop": w.loop, "entry": w.entry, **fields})
        error = UnknownEdgeError if corruption == "entry edge unknown" else InvalidWitnessError
        with pytest.raises(error) as exc:
            check(square_plus_entrance, bad)
        assert str(exc.value) == message

    @given(entrance_graphs())
    @settings(max_examples=100, deadline=None)
    def test_generated_witnesses_validate(self, g):
        cls = classify(g)
        assert cls.verdict is Verdict.NOT_FINITE
        w = cls.witness
        lines = witness_infinite(g, w)
        assert w.alpha != w.beta
        assert w.alpha.range == w.beta.range == w.entry_vertex
        assert len(lines) == 7

    @given(multigraphs(max_vertices=5, max_edges=8))
    @settings(max_examples=100, deadline=None)
    def test_accepts_exactly_the_true_witnesses(self, g):
        """Every simple cycle, based at each of its vertices, paired with every
        edge under its true ends and with one end replaced: the check accepts
        the pair iff the edge is off the loop, keeps its true ends and ranges
        at the base, and each accepted pair proves all three identities."""
        vertices = sorted(g.vertices)
        for cycle in enumerate_simple_cycles(g):
            for k in range(len(cycle)):
                loop = loop_of(g, cycle[k:] + cycle[:k])
                for e in g.edges:
                    candidates = [e]
                    candidates += [Edge(e.name, v, e.range) for v in vertices if v != e.source]
                    candidates += [Edge(e.name, e.source, v) for v in vertices if v != e.range]
                    for entry in candidates:
                        w = EntranceWitness(loop, entry)
                        true = entry == e and e.name not in loop.edges and e.range == loop.base
                        try:
                            validate_witness(g, w)
                        except InvalidWitnessError:
                            assert not true, w
                            continue
                        assert true, w
                        report = verify_witness(w, g)
                        assert [c.status for c in report.checks] == [RelationStatus.PROVED] * 3


def diamond_ladder(rungs: int, closed: bool = False) -> Graph:
    """The entry vertex ``a`` on the 2-cycle ``a -> y -> a``, entered from ``z``.

    From ``a`` hangs a chain of ``rungs`` diamonds whose edge ids sort
    before the cycle's, so an id-ordered backtracking search walks all
    ``2**rungs`` ladder paths first.  If ``closed``, the ladder's last
    vertex has an edge back to ``a`` and the witness runs down the ladder;
    ``a`` sorts before every other vertex, so it stays the entry vertex.
    """
    vertices = ["a", "y", "z"]
    edges = [("c1", "a", "y"), ("c2", "y", "a"), ("c3", "z", "a")]
    top = "a"
    for i in range(rungs):
        left, right, bottom = f"l{i}", f"r{i}", f"b{i}"
        vertices += [left, right, bottom]
        edges += [(f"a{i}.1", top, left), (f"a{i}.2", left, bottom)]
        edges += [(f"a{i}.3", top, right), (f"a{i}.4", right, bottom)]
        top = bottom
    if closed:
        edges.append(("a_back", top, "a"))
    return Graph.build(vertices, edges)


def timed_classify(g: Graph):
    start = time.perf_counter()
    cls = classify(g)
    return cls, time.perf_counter() - start


def cycle_through(g: Graph, v: str) -> SimpleLoop:
    """The witness search's loop through the vertex named ``v``, by name."""
    return _loop_of(g, _cycle_through(g, g.vertex_id(v)))


class TestSimpleCycleThrough:
    def test_deterministic_lexicographic(self, square_plus_entrance):
        loop = cycle_through(square_plus_entrance, "u2")
        assert loop.edges == ("e1", "e4", "e3", "e2")
        assert loop.base == "u2"

    def test_self_loop(self, self_loop):
        loop = cycle_through(self_loop, "u")
        assert loop.edges == ("e",) and loop.vertices == ("u",)

    def test_a_vertex_off_every_cycle_is_refused(self):
        with pytest.raises(ValueError, match="'a' does not lie on a cycle"):
            _cycle_through(parse_graph("vertex a\nvertex b\nedge x a b\nedge y b b\n"), 0)

    @given(multigraphs(max_vertices=9, max_edges=22))
    @settings(max_examples=300, deadline=None)
    def test_matches_backtracking_reference(self, g):
        """The same loop as the id-ordered backtracking DFS at every cycle
        vertex, and so the same witness as one built from that DFS."""
        for v in sorted(cycle_vertices(g)):
            assert cycle_through(g, v) == backtracking_cycle_through(g, v)
        assert classify(g).witness == oracle_witness(g)

    @given(looped_multigraphs())
    @settings(max_examples=300, deadline=None)
    def test_the_witness_is_the_backtracking_loop_at_the_first_entered_cycle_vertex(self, g):
        """With self-loops and parallel edges: the witness loop is the
        backtracking DFS's through the first cycle vertex, by id, that
        receives two edges or more, and its entry edge is the least of that
        vertex's other receivers; with no such vertex there is none."""
        entered = [v for v in sorted(oracle_cycle_vertices(g)) if len(g.receivers(v)) > 1]
        witness = classify(g).witness
        if not entered:
            assert witness is None
            return
        loop = backtracking_cycle_through(g, entered[0])
        assert witness == EntranceWitness(loop, g.edge(min(g.receivers(entered[0]) - {loop.edges[0]})))

    @pytest.mark.parametrize("closed", [False, True], ids=["dead_end", "closed"])
    def test_diamond_ladder_is_not_exponential(self, closed):
        g = diamond_ladder(200, closed)
        cls, seconds = timed_classify(g)
        assert cls.witness is not None and cls.witness.entry_vertex == "a"
        # the closed witness enters ``a`` by ``a_back``, so ``c2`` is the entrance
        assert cls.witness.entry_edge == ("c2" if closed else "c3")
        assert cls.witness.loop.n == (401 if closed else 2)
        assert seconds < 0.1

    def test_long_cycle_with_one_entrance(self):
        """C20,000 entered once: a per-step recomputation would be quadratic here."""
        n = 20_000
        vertices = [f"u{i}" for i in range(n)] + ["w"]
        edges = [(f"e{i}", f"u{i}", f"u{(i + 1) % n}") for i in range(n)] + [("x", "w", "u0")]
        cls, seconds = timed_classify(Graph.build(vertices, edges))
        assert cls.witness is not None and cls.witness.loop.n == n
        assert cls.witness.entry_vertex == "u0" and cls.witness.entry_edge == "x"
        assert seconds < 2


def cycle_text(n: int) -> str:
    lines = [f"vertex u{i}" for i in range(n)]
    lines += [f"edge e{i} u{i} u{(i + 1) % n}" for i in range(n)]
    return "\n".join(lines) + "\n"


def test_load_and_classify_grow_linearly():
    """Four times the cycle costs under six times the time: linear growth
    gives 4x and quadratic 16x."""
    small, large = cycle_text(12_500), cycle_text(50_000)
    assert classify(load_graph(large)).loops[0].n == 50_000
    ratio = growth_ratio(lambda: classify(load_graph(small)), lambda: classify(load_graph(large)), 6)
    assert ratio < 6, f"C50,000 took {ratio:.1f}x the time of C12,500"


@pytest.mark.parametrize("command", ["classify", "loops", "embed"])
@pytest.mark.parametrize("entrance", [False, True], ids=["embeddable", "entrance"])
def test_structure_commands_build_no_edge_objects(command, entrance, tmp_path, monkeypatch):
    """The loop analysis and the embedding read the integer index: on a
    C20,000 they build at most the one ``Edge`` that checks the witness's
    entry edge."""
    from afembed.cli import main
    from afembed.graph import Edge

    monkeypatch.setenv("AFEMBED_OUTPUT_DIR", str(tmp_path / "out"))
    text = cycle_text(20_000) + ("vertex w\nedge x w u0\n" if entrance else "")
    path = tmp_path / "c.txt"
    path.write_text(text)
    built = []
    init = Edge.__init__
    monkeypatch.setattr(Edge, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    assert main([command, "--input", str(path), "--format", "json"], out=io.StringIO()) == (3 if entrance else 0)
    assert len(built) <= int(entrance)


class TestEmbedErrorPath:
    def test_embed_refuses_entrance(self, two_self_loops):
        with pytest.raises(EntranceExistsError) as exc_info:
            embed(two_self_loops)
        assert exc_info.value.witness.entry_vertex == "v"
