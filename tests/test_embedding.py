import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afembed.embedding import (
    AugmentedGraphSpec,
    BratteliTailSpec,
    LoopReplacement,
    MultiplicitySeq,
    NamespaceCollisionError,
    _pick_namespaces,
    embed,
    genmap_from_text,
    genmap_to_text,
    materialize,
    spec_to_dict,
)
from afembed.graph import Graph, GraphError, graph_from_dict, graph_to_dict, load_graph, named_edges, parse_graph
from afembed.loops import SimpleLoop, cycle_vertices, disjoint_simple_loops
from afembed.terms import ContextMismatchError, NormalMonomial, parse_term

from .conftest import growth_ratio
from .oracles import count_paths_with_range, reference_materialize
from .strategies import condition5_graphs
from .test_golden import GOLDEN


class TestMultiplicitySeq:
    def test_default_all_two(self):
        m = MultiplicitySeq()
        assert [m.value(k) for k in range(1, 5)] == [2, 2, 2, 2]

    def test_level_sizes_power_of_two(self):
        assert MultiplicitySeq().level_sizes(3) == [1, 2, 4, 8]

    def test_prefix_then_tail(self):
        assert MultiplicitySeq((3,), 2).level_sizes(3) == [1, 3, 6, 12]

    def test_all_ones_rejected(self):
        with pytest.raises(ValueError):
            MultiplicitySeq((), 1)

    def test_zero_prefix_rejected(self):
        with pytest.raises(ValueError):
            MultiplicitySeq((0,), 2)

    def test_parse_render_round_trip(self):
        for text in ("2", "3;2", "3,1,4;5"):
            m = MultiplicitySeq.parse(text)
            assert MultiplicitySeq.parse(m.render()) == m


class TestEmbed:
    def test_square_structure(self, square, square_embedding):
        spec, gmap = square_embedding
        assert len(spec.replacements) == 1
        rep = spec.replacements[0]
        assert rep.loop.edges == ("e4", "e3", "e2", "e1")
        assert rep.f_edges == ("T1.f1", "T1.f2", "T1.f3", "T1.f4")
        for i, f in enumerate(rep.f_edges, start=1):
            assert spec.edge_source(f) == "T1.v"
            assert spec.edge_range(f) == f"u{i}"

    def test_square_generator_map(self, square_embedding):
        spec, gmap = square_embedding
        # e_i |-> s(f_{i+1}) t s*(f_i), cyclically
        assert gmap.edge_map["e1"] .monomials()[0] == NormalMonomial(("T1.f2",), 1, ("T1.f1",), "T1.v")
        assert gmap.edge_map["e4"].monomials()[0] == NormalMonomial(("T1.f1",), 1, ("T1.f4",), "T1.v")

    def test_acyclic_graph_is_identity(self):
        g = parse_graph("vertex a\nvertex b\nedge e a b\n")
        spec, gmap = embed(g)
        assert spec.replacements == ()
        assert spec.graph is g
        assert materialize(spec, 5) == g
        assert gmap.edge_map["e"].monomials()[0] == NormalMonomial(("e",), 0, (), "a")

    def test_self_loop_cyclic_index(self, self_loop):
        spec, gmap = embed(self_loop)
        (rep,) = spec.replacements
        assert rep.loop.n == 1
        # with n = 1 the cyclic successor of f_1 is f_1 itself
        assert gmap.edge_map["e"].monomials()[0] == NormalMonomial(
            ("T1.f1",), 1, ("T1.f1",), "T1.v"
        )

    def test_domain_covers_generators_exactly(self, square, square_embedding):
        _, gmap = square_embedding
        assert set(gmap.edge_map) == {e.name for e in square.edges}

    def test_namespace_avoids_collision(self):
        g = parse_graph(
            "vertex T1.v\nvertex b\nedge T1.f1 T1.v b\nedge back b T1.v\n"
        )
        spec, _ = embed(g)
        assert spec.replacements[0].tail.namespace == "T2"

    def test_many_self_loops_embed_in_linear_time(self):
        n = 2_000
        g = Graph.build([f"v{i}" for i in range(n)], [(f"e{i}", f"v{i}", f"v{i}") for i in range(n)])
        start = time.perf_counter()
        spec, _ = embed(g)
        assert time.perf_counter() - start < 0.5
        assert [rep.tail.namespace for rep in spec.replacements] == [f"T{i}" for i in range(1, n + 1)]

    def test_embed_grows_linearly(self):
        """Four times the self-loops cost under six times the time: linear
        growth gives 4x and quadratic 16x."""

        def run(n):
            g = Graph.build([f"v{i}" for i in range(n)], [(f"e{i}", f"v{i}", f"v{i}") for i in range(n)])
            return lambda: embed(g)

        ratio = growth_ratio(run(500), run(2_000), 6)
        assert ratio < 6, f"2,000 self-loops took {ratio:.1f}x the time of 500"

    def test_spec_holds_the_input_graph(self, square, square_embedding):
        spec, _ = square_embedding
        assert spec.graph is square

    @given(condition5_graphs())
    @settings(max_examples=60, deadline=None)
    def test_one_replacement_per_loop(self, g):
        spec, gmap = embed(g)
        assert len(spec.replacements) == len(disjoint_simple_loops(g))
        assert set(gmap.edge_map) == {e.name for e in g.edges}
        kept = {e["id"] for e in spec_to_dict(spec)["base"]["edges"]}
        replaced = {e for rep in spec.replacements for e in rep.loop.edges}
        assert kept | replaced == {e.name for e in g.edges}
        assert not kept & replaced


def old_pick_namespaces(g: Graph, count: int) -> list[str]:
    """The namespace rule as first written: scan every host id per candidate."""
    taken = set(g.vertices) | {e.name for e in g.edges}
    out: list[str] = []
    i = 1
    while len(out) < count:
        ns = f"T{i}"
        i += 1
        if not any(t == ns or t.startswith(ns + ".") for t in taken):
            out.append(ns)
    return out


HOST_IDS = st.sampled_from(
    ["T1", "T1.x", "T10.y", "T1x", "T2.", "T2", "T3.v", ".T4", "T4..", "T", "T11", "t5"]
) | st.from_regex(r"T[0-9]{1,2}[.x]?[.a-z0-9]{0,3}", fullmatch=True)


class TestPickNamespaces:
    @given(st.sets(HOST_IDS, max_size=12), st.sets(HOST_IDS, max_size=6), st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_matches_scan_of_every_id(self, vertex_ids, edge_ids, count):
        vertices = sorted(vertex_ids | {"anchor"})
        edges = [(e, "anchor", "anchor") for e in sorted(edge_ids - vertex_ids)]
        g = Graph.build(vertices, edges)
        assert _pick_namespaces(g, count) == old_pick_namespaces(g, count)

    def test_listed_ids(self):
        g = Graph.build(["T1", "T1x", "T2.", "T10.y"], [("T3.f1", "T1", "T1x")])
        assert _pick_namespaces(g, 3) == ["T4", "T5", "T6"]


class TestMaterialize:
    def test_depth_zero(self, square_embedding):
        spec, _ = square_embedding
        f0 = materialize(spec, 0)
        assert f0.vertices == frozenset({"u1", "u2", "u3", "u4", "T1.v"})
        assert {e.name for e in f0.edges} == {"T1.f1", "T1.f2", "T1.f3", "T1.f4"}

    def test_depth_three_counts(self, square_embedding):
        spec, _ = square_embedding
        f3 = materialize(spec, 3)
        tail_edges = [e for e in f3.edges if ".b" in e.name]
        assert len(tail_edges) == 6  # 2 per level, 3 levels
        for k in range(4):
            assert count_paths_with_range(f3, "T1.v", k) == 2**k

    def test_depth_negative_rejected(self, square_embedding):
        spec, _ = square_embedding
        with pytest.raises(ValueError):
            materialize(spec, -1)

    def test_acyclic_at_every_depth(self, square_embedding):
        spec, _ = square_embedding
        for d in range(11):
            assert cycle_vertices(materialize(spec, d)) == frozenset()

    def test_unique_receiver_at_loop_vertices(self, square_embedding):
        spec, _ = square_embedding
        f4 = materialize(spec, 4)
        for i in range(1, 5):
            assert f4.receivers(f"u{i}") == frozenset({f"T1.f{i}"})

    def test_namespace_collision_rejected(self):
        # the host graph already owns the id the tail would generate for its sink
        g = parse_graph("vertex a\nvertex T1.v\nedge e a a\n")
        loop = disjoint_simple_loops(g)[0]
        with pytest.raises(NamespaceCollisionError):
            AugmentedGraphSpec(g, (LoopReplacement(loop, BratteliTailSpec("T1")),))

    def test_embed_skips_colliding_namespace(self):
        g = parse_graph("vertex a\nvertex T1.v\nedge e a a\n")
        spec, _ = embed(g)
        assert spec.replacements[0].tail.namespace == "T2"
        materialize(spec, 2)  # no collision

    @given(condition5_graphs())
    @settings(max_examples=40, deadline=None)
    def test_embedding_always_loop_free(self, g):
        spec, _ = embed(g)
        for d in (0, 1, 3):
            fd = materialize(spec, d)
            assert cycle_vertices(fd) == frozenset()
        f2 = materialize(spec, 2)
        for rep in spec.replacements:
            for i, u in enumerate(rep.loop.vertices, start=1):
                assert f2.receivers(u) == frozenset({rep.tail.f_edge(i)})


class TestCornerDimension:
    def test_default_mult(self, square_embedding):
        spec, _ = square_embedding
        assert spec.replacements[0].tail.mult.level_sizes(3) == [1, 2, 4, 8]

    def test_prefix_mult_cross_checked_by_enumeration(self, square):
        spec, _ = embed(square, MultiplicitySeq((3,), 2))
        sizes = spec.replacements[0].tail.mult.level_sizes(3)
        assert sizes == [1, 3, 6, 12]
        f3 = materialize(spec, 3)
        for k in range(4):
            assert count_paths_with_range(f3, "T1.v", k) == sizes[k]

    def test_product_formula_by_enumeration_to_depth_8(self, square_embedding):
        spec, _ = square_embedding
        sizes = spec.replacements[0].tail.mult.level_sizes(8)
        f8 = materialize(spec, 8)
        for k in range(9):
            assert count_paths_with_range(f8, "T1.v", k) == sizes[k] == 2**k

    def test_invalid_tail_index(self, square_embedding):
        spec, _ = square_embedding
        with pytest.raises(IndexError):
            spec.replacements[5].tail.mult.level_sizes(3)


class TestLazyContext:
    def test_tail_receivers_at_any_level(self, square_embedding):
        spec, _ = square_embedding
        assert spec.receivers("T1.v") == frozenset({"T1.b1.1", "T1.b1.2"})
        assert spec.receivers("T1.L7.1") == frozenset({"T1.b8.1", "T1.b8.2"})

    def test_deep_edges_resolve(self, square_embedding):
        spec, _ = square_embedding
        assert spec.edge_source("T1.b9.2") == "T1.L9.1"
        assert spec.edge_range("T1.b1.1") == "T1.v"

    def test_out_of_range_parallel_index(self, square_embedding):
        spec, _ = square_embedding
        from afembed.terms import ContextMismatchError

        with pytest.raises(ContextMismatchError):
            spec.edge_source("T1.b1.3")  # mult is 2 at level 1

    def test_sinks(self, square_embedding):
        spec, _ = square_embedding
        assert spec.sink_vertex("T1") == "T1.v"
        assert spec.sink_namespace("T1.v") == "T1"
        assert spec.sink_namespace("u1") is None


# additions to the input graph that shadow ids the square's tail T1 generates
SHADOWS = {
    "level-vertex": (["T1.L1.1"], []),
    "tail-edge": (["w1", "w2"], [("T1.b1.1", "w1", "w2")]),
    "sink": (["T1.v"], []),
    "f-edge": (["w"], [("T1.f1", "w", "w")]),
    "bare-namespace": (["T1"], []),
}


def shadowed_graph(spec: AugmentedGraphSpec, vertices: list, edges: list) -> Graph:
    obj = graph_to_dict(spec.graph)
    obj["vertices"] += vertices
    obj["edges"] += [{"id": e, "src": a, "dst": b} for e, a, b in edges]
    return graph_from_dict(obj)


class TestNamespaceOwnership:
    """A tail's namespace belongs to the tail: no id of the input graph lies
    in it, and the only ids the context knows in it are those the tail
    generates."""

    @pytest.mark.parametrize("shadow", sorted(SHADOWS))
    def test_shadowing_graph_rejected_at_construction(self, square_embedding, shadow):
        spec, _ = square_embedding
        with pytest.raises(NamespaceCollisionError):
            AugmentedGraphSpec(shadowed_graph(spec, *SHADOWS[shadow]), spec.replacements)

    def test_unshadowed_addition_accepted(self, square_embedding):
        spec, _ = square_embedding
        again = AugmentedGraphSpec(shadowed_graph(spec, ["T10.v", "T"], [("T2.b1.1", "T", "T10.v")]), spec.replacements)
        assert again.receivers("T1.v") == frozenset({"T1.b1.1", "T1.b1.2"})

    def test_removed_loop_edge_claims_its_namespace(self):
        g = parse_graph("vertex a\nedge T1.e a a\n")
        (loop,) = disjoint_simple_loops(g)
        with pytest.raises(NamespaceCollisionError):
            AugmentedGraphSpec(g, (LoopReplacement(loop, BratteliTailSpec("T1")),))
        assert embed(g)[0].replacements[0].tail.namespace == "T2"

    @pytest.mark.parametrize("namespace", ["T1.x", "", "T 1", "a.b"])
    def test_namespace_must_be_a_dot_free_token(self, namespace):
        g = parse_graph("vertex a\nedge e a a\n")
        (loop,) = disjoint_simple_loops(g)
        with pytest.raises(NamespaceCollisionError):
            AugmentedGraphSpec(g, (LoopReplacement(loop, BratteliTailSpec(namespace)),))

    @pytest.mark.parametrize(
        "alias",
        [
            "T1.L0.1", "T1.L01.1", "T1.b0.1", "T1.b01.1", "T1.b1.01",
            "T1.L\u0661.1", "T1.b1.\u0661", "T1.f0", "T1.f01", "T1.f5", "T1.L1.2", "T1", "T1.",
        ],
    )
    def test_ids_the_tail_never_generates_are_unknown(self, square_embedding, alias):
        spec, _ = square_embedding
        for lookup in (spec.check_vertex, spec.edge_source, spec.edge_range, spec.endpoints, spec.receivers):
            with pytest.raises(ContextMismatchError):
                lookup(alias)
        for atom in ("p", "s", "s*"):
            with pytest.raises(ContextMismatchError):
                parse_term(f"{atom}({alias})", spec)


class TestLoopAgainstGraph:
    """A replaced loop runs through vertices of the input graph along its
    edges: each ``e_i`` is an edge from ``u_i`` to ``u_{i+1}``."""

    def test_loop_vertex_outside_the_graph_rejected(self, square_embedding):
        spec, _ = square_embedding
        (rep,) = spec.replacements
        loop = SimpleLoop(rep.loop.edges, ("zz",) + rep.loop.vertices[1:])
        with pytest.raises(GraphError, match="loop edge 'e1' is not an edge of the graph from 'zz' to 'u2'"):
            AugmentedGraphSpec(spec.graph, (LoopReplacement(loop, rep.tail),))

    @pytest.mark.parametrize(
        "edges, message",
        [
            (("e4", "e3", "e2", "zz"), "loop edge 'zz' is not an edge of the graph from 'u1' to 'u2'"),
            (("e4", "e3", "e1", "e2"), "loop edge 'e2' is not an edge of the graph from 'u1' to 'u2'"),
            (("e4", "e3", "e2", "e2"), "loop edge 'e2' is not an edge of the graph from 'u1' to 'u2'"),
        ],
    )
    def test_loop_edge_off_its_ends_rejected(self, square_embedding, edges, message):
        spec, _ = square_embedding
        (rep,) = spec.replacements
        with pytest.raises(GraphError) as exc:
            AugmentedGraphSpec(spec.graph, (LoopReplacement(SimpleLoop(edges, rep.loop.vertices), rep.tail),))
        assert str(exc.value) == message

    def test_a_loop_edge_in_two_replacements_rejected(self):
        g = parse_graph("vertex a\nedge e a a\n")
        (loop,) = disjoint_simple_loops(g)
        twice = (LoopReplacement(loop, BratteliTailSpec("T1")), LoopReplacement(loop, BratteliTailSpec("T2")))
        with pytest.raises(GraphError, match="loop edge 'e' is not an edge of the graph from 'a' to 'a'"):
            AugmentedGraphSpec(g, twice)

    def test_a_loop_with_an_entrance_is_refused(self, square_embedding):
        """The construction needs a loop vertex to receive its loop edge
        alone (``verify`` reads a loop's ``co-iso`` and ``iso`` off CK2 and
        CK3 on that ground), so an edge off the loop into one is refused."""
        spec, _ = square_embedding
        message = "loop vertex 'u2' receives an edge off its loop: the loop has an entrance"
        with pytest.raises(GraphError) as exc:
            AugmentedGraphSpec(shadowed_graph(spec, ["w"], [("x", "w", "u2")]), spec.replacements)
        assert str(exc.value) == message


CROWDED_IDS = st.sampled_from(
    ["T1", "T2", "T1.v", "T3.x.y", "T4.b1.1", "T1.L1.1", "T2.f1", "T10"]
) | st.from_regex(r"T[1-6](\.(v|f[0-2]|L[0-2]\.1|b[0-2]\.[0-2]|x\.y))?", fullmatch=True)


@st.composite
def crowded_condition5_graphs(draw) -> Graph:
    """An entrance-free graph with some ids renamed into the namespaces
    ``embed`` would otherwise pick, in the shapes the tails generate."""
    g = draw(condition5_graphs())
    ids = sorted(g.vertices) + [e.name for e in g.edges]
    names = draw(st.lists(CROWDED_IDS, unique=True, max_size=len(ids)))
    positions = draw(st.permutations(range(len(ids))))
    rename = {ids[i]: name for i, name in zip(positions, names)}
    r = lambda x: rename.get(x, x)  # noqa: E731
    return Graph.build([r(v) for v in g.vertices], [(r(e.name), r(e.source), r(e.range)) for e in g.edges])


MULTS = st.builds(
    MultiplicitySeq, st.lists(st.integers(1, 3), max_size=3).map(tuple), st.integers(2, 3)
)


class TestLazyAgreesWithMaterialize:
    """The lazy context and every finite stage describe one graph."""

    @given(crowded_condition5_graphs(), MULTS, st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_stage_is_known_to_the_context(self, g, mult, depth):
        spec, _ = embed(g, mult)
        fd = materialize(spec, depth)
        for v in fd.vertices:
            assert spec.check_vertex(v) == v
        for e in fd.edges:
            assert spec.endpoints(e.name) == (e.source, e.range)
        for v in spec.graph.vertices:
            assert spec.receivers(v) == fd.receivers(v)
        for rep in spec.replacements:
            for k in range(depth):
                v = rep.tail.vertex(k)
                assert spec.receivers(v) == fd.receivers(v)
            assert rep.tail.vertex(depth) in fd.vertices
            assert rep.tail.vertex(depth + 1) not in fd.vertices


class TestSerialization:
    @given(condition5_graphs())
    @settings(max_examples=60, deadline=None)
    def test_spec_base_is_the_graph_off_its_loops(self, g):
        """``"base"`` is the graph ``embed`` once built of E's edges off the
        replaced loops, as ``graph_to_dict`` writes it."""
        spec, _ = embed(g)
        on_loops = {e for rep in spec.replacements for e in rep.loop.edges}
        base = Graph.build(g.vertex_names, [e for e in named_edges(g) if e[0] not in on_loops])
        assert spec_to_dict(spec)["base"] == graph_to_dict(base)

    def test_genmap_round_trip(self, square_embedding):
        spec, gmap = square_embedding
        text = genmap_to_text(gmap, spec)
        again = genmap_from_text(text, spec)
        assert again.edge_map == gmap.edge_map

    def test_genmap_round_trip_with_equals_in_ids(self):
        """An edge id may hold ``=``, as only whitespace and ``#`` are refused:
        the written map reads back, the id being the first token before an
        ``=``; a line written without spaces still reads."""
        g = parse_graph("vertex u\nvertex v\nvertex w\nvertex x\nedge a=b u v\nedge =c v u\nedge d= v w\nedge h w x\n")
        spec, gmap = embed(g)
        assert spec.replacements[0].loop.edges in (("a=b", "=c"), ("=c", "a=b"))
        text = genmap_to_text(gmap, spec)
        assert "\na=b = s(T1.f2) t(T1) s*(T1.f1)\n" in text and "\nd= = s(d=)\n" in text
        assert genmap_from_text(text, spec).edge_map == gmap.edge_map
        compact = text.replace("h = s(h)", "h=s(h)")
        assert compact != text and genmap_from_text(compact, spec).edge_map == gmap.edge_map

    def test_genmap_text_shape(self, square_embedding):
        spec, gmap = square_embedding
        text = genmap_to_text(gmap, spec)
        assert "e1 = s(T1.f2) t(T1) s*(T1.f1)" in text


class TestMaterializeIndex:
    """``materialize`` hands the ids it generates to the index unchecked; the
    graph is the one ``Graph.build`` makes of the same ids after checking
    that each is a token and that none repeats."""

    @given(condition5_graphs(), st.sampled_from(["2", "3,3;2", "1;2", "3,1;2", "4"]), st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_matches_build_of_its_ids(self, g, mult, depth):
        spec, _ = embed(g, MultiplicitySeq.parse(mult))
        assert materialize(spec, depth) == reference_materialize(spec, depth)

    @pytest.mark.parametrize("mult", ["2", "3,3;2"])
    @pytest.mark.parametrize("name", ["crowded", "cycles_dag", "dag", "self_loop", "square"])
    def test_golden_stages(self, name, mult):
        spec, _ = embed(load_graph((GOLDEN / f"{name}.txt").read_text()), MultiplicitySeq.parse(mult))
        for depth in range(7):
            assert materialize(spec, depth) == reference_materialize(spec, depth)
