"""Hypothesis strategies and seeded random generators for graphs and terms."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from afembed.graph import Graph


@st.composite
def multigraphs(draw, max_vertices: int = 8, max_edges: int = 16) -> Graph:
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    vertices = [f"v{i}" for i in range(n)]
    m = draw(st.integers(min_value=0, max_value=max_edges))
    edges = []
    for j in range(m):
        src = draw(st.sampled_from(vertices))
        dst = draw(st.sampled_from(vertices))
        edges.append((f"e{j}", src, dst))
    return Graph.build(vertices, edges)


@st.composite
def looped_multigraphs(draw, max_vertices: int = 7, max_edges: int = 14) -> Graph:
    """Multigraphs with a self-loop and a pair of parallel edges at least,
    whose ids fall among the others' (``e3p`` sorts between ``e3`` and ``e4``)."""
    g = draw(multigraphs(max_vertices, max_edges))
    vertices = sorted(g.vertices)
    edges = [(e.name, e.source, e.range) for e in g.edges]
    slots = st.integers(min_value=0, max_value=max_edges)
    v, u, w = (draw(st.sampled_from(vertices)) for _ in range(3))
    edges += [(f"e{draw(slots)}s", v, v), (f"e{draw(slots)}p", u, w), (f"e{draw(slots)}q", u, w)]
    return Graph.build(vertices, edges)


@st.composite
def clustered_multigraphs(draw, max_vertices: int = 80, max_edges: int = 240) -> Graph:
    """Multigraphs whose edges mostly stay inside a few vertex clusters, so
    several strongly connected components of every size feed into each other."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    k = draw(st.integers(min_value=1, max_value=max(1, n // 3)))
    vertices = [f"v{i}" for i in range(n)]
    clusters = [vertices[c::k] for c in range(k)]
    m = draw(st.integers(min_value=0, max_value=max_edges))
    edges = []
    for j in range(m):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        inside = draw(st.integers(min_value=0, max_value=3)) > 0
        dst = draw(st.sampled_from(clusters[i % k] if inside else vertices))
        edges.append((f"e{j}", vertices[i], dst))
    return Graph.build(vertices, edges)


@st.composite
def condition5_graphs(draw, max_loops: int = 3) -> Graph:
    """Graphs in which no loop has an entrance: planted disjoint loops plus
    extra edges that only ever point at loop-free vertices."""
    k = draw(st.integers(min_value=0, max_value=max_loops))
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    for li in range(k):
        length = draw(st.integers(min_value=1, max_value=4))
        ring = [f"c{li}x{i}" for i in range(length)]
        vertices.extend(ring)
        for i in range(length):
            edges.append((f"l{li}e{i}", ring[i], ring[(i + 1) % length]))
    free_count = draw(st.integers(min_value=0 if k else 1, max_value=4))
    free = [f"w{i}" for i in range(free_count)]
    vertices.extend(free)
    extra = draw(st.integers(min_value=0, max_value=6)) if free else 0
    for j in range(extra):
        dst_i = draw(st.integers(min_value=0, max_value=free_count - 1))
        # sources below the target among free vertices keep the free part acyclic
        candidates = vertices[: len(vertices) - free_count] + free[:dst_i]
        if not candidates:
            continue
        src = draw(st.sampled_from(candidates))
        edges.append((f"x{j}", src, free[dst_i]))
    return Graph.build(vertices, edges)


@st.composite
def entrance_graphs(draw) -> Graph:
    """Graphs guaranteed to contain a loop with an entrance."""
    g = draw(multigraphs(max_vertices=6, max_edges=10))
    vertices = sorted(g.vertices)
    target = draw(st.sampled_from(vertices))
    edges = [(e.name, e.source, e.range) for e in g.edges]
    edges.append(("loopa", target, target))
    other = draw(st.sampled_from(vertices))
    edges.append(("loopb", other, target))
    return Graph.build(vertices, edges)


# --- seeded generators for the acceptance suite (exact counts, no shrinking)


def random_multigraph(rng: random.Random, max_vertices: int = 8, max_edges: int = 16) -> Graph:
    n = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    m = rng.randint(0, max_edges)
    edges = [
        (f"e{j}", rng.choice(vertices), rng.choice(vertices)) for j in range(m)
    ]
    return Graph.build(vertices, edges)


def random_condition5_graph(rng: random.Random, max_loops: int = 3) -> Graph:
    k = rng.randint(1, max_loops)
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    for li in range(k):
        length = rng.randint(1, 4)
        ring = [f"c{li}x{i}" for i in range(length)]
        vertices.extend(ring)
        for i in range(length):
            edges.append((f"l{li}e{i}", ring[i], ring[(i + 1) % length]))
    free = [f"w{i}" for i in range(rng.randint(0, 4))]
    vertices.extend(free)
    for j in range(rng.randint(0, 6)):
        if not free:
            break
        dst_i = rng.randrange(len(free))
        candidates = vertices[: len(vertices) - len(free)] + free[:dst_i]
        if not candidates:
            continue
        edges.append((f"x{j}", rng.choice(candidates), free[dst_i]))
    return Graph.build(vertices, edges)


def random_entrance_graph(rng: random.Random) -> Graph:
    g = random_multigraph(rng, max_vertices=6, max_edges=10)
    vertices = sorted(g.vertices)
    target = rng.choice(vertices)
    edges = [(e.name, e.source, e.range) for e in g.edges]
    edges.append(("loopa", target, target))
    edges.append(("loopb", rng.choice(vertices), target))
    return Graph.build(vertices, edges)
