"""Cycle and entrance analysis: the finiteness classifier with witnesses.

The decision procedure reduces "no loop has an entrance" to "every vertex
lying on a cycle has exactly one receiving edge".  If a cycle vertex had a
second receiver, the loop through it would have an entrance there; and an
entrance at a loop vertex is by definition a second receiver at that
vertex.  Entrances of non-simple loops add nothing: every vertex of a
closed walk lies on a simple cycle, so the check over cycle vertices is
equivalent to the literal quantification over all loops.  This makes the
verdict O(|V| + |E|) via strongly connected components instead of an
exponential cycle enumeration: one pass of Tarjan's algorithm (SIAM J.
Comput. 1, 1972) in Pearce's single-array form (A space-efficient
algorithm for finding strongly connected components, IPL 116, 2016).

The witness loop of a not-finite verdict is the first simple cycle through
the entry vertex ``v`` that a DFS finds when it tries out-edges in id
order.  The search keeps a vertex marked after backing out of it, so it
too is O(|V| + |E|), and it finds the same loop as a DFS that unmarks:
say it backed out of ``w`` with path ``P``, so every route from ``w`` to
``v`` meets ``P`` before ``v``.  Later, with path ``P'``, a route from
``w`` to ``v`` that avoids ``P'`` before ``v`` meets some ``p`` in ``P``
but not in ``P'``.  The first vertex ``q`` of ``P`` not in ``P'`` was
backed out of too, yet it reaches ``v`` along ``P`` to ``p`` and then
along the route, avoiding the part of ``P`` before ``q``: a contradiction.
So a backed-out vertex could never have led back to ``v``.

A witness is that loop and one other edge into its base: the base then
receives two edges, so the loop has an entrance.  ``classify`` builds it
from the edges that search walked, so it checks nothing twice, and the
command line writes its chain with :func:`_chain_fragments`, unchecked; where
a witness comes in from a caller, in :func:`witness_infinite` and
``verify.verify_witness``, :func:`validate_witness` is its one check.
"""

from __future__ import annotations

from enum import Enum
from types import SimpleNamespace

from .graph import Edge, Frozen, Graph, Path


class Verdict(str, Enum):
    AF = "AF"
    AF_EMBEDDABLE_NOT_AF = "AF_EMBEDDABLE_NOT_AF"
    NOT_FINITE = "NOT_FINITE"


class InvalidWitnessError(ValueError):
    pass


class EntranceExistsError(ValueError):
    """Raised when an operation requires the no-entrance condition."""

    def __init__(self, witness: "EntranceWitness"):
        self.witness = witness
        super().__init__(
            f"loop through {witness.entry_vertex!r} has an entrance "
            f"(edge {witness.entry_edge!r})"
        )


class SimpleLoop(Frozen):
    """A loop ``(e_n, ..., e_1)`` whose range vertices are pairwise distinct.

    ``vertices`` lists ``u_i = source(e_i)`` in the order ``(u_1, ..., u_n)``;
    the loop is based at ``u_1``.
    """

    __slots__ = ("edges", "vertices")

    def __init__(self, edges: tuple[str, ...], vertices: tuple[str, ...]):
        _loop_edges(self, edges)
        _loop_vertices(self, vertices)

    @property
    def n(self) -> int:
        return len(self.edges)

    @property
    def base(self) -> str:
        return self.vertices[0]

    def edge_index(self, i: int) -> str:
        """The edge ``e_i`` (1-based; the stored tuple is ``(e_n, ..., e_1)``)."""
        return self.edges[self.n - i]


_loop_edges, _loop_vertices = SimpleLoop.edges.__set__, SimpleLoop.vertices.__set__


class EntranceWitness(Frozen):
    """A loop and an edge ``entry`` off it that ranges at the loop's base.

    ``alpha``, the loop as a path from its base to itself, and ``beta``,
    the one-edge path of ``entry``, exhibit ``p`` at the base, the entry
    vertex, as an infinite projection.
    """

    __slots__ = ("loop", "entry")

    def __init__(self, loop: SimpleLoop, entry: Edge):
        _witness_loop(self, loop)
        _witness_entry(self, entry)

    @property
    def entry_vertex(self) -> str:
        return self.loop.base

    @property
    def entry_edge(self) -> str:
        return self.entry.name

    @property
    def alpha(self) -> Path:
        return Path(self.loop.edges, self.loop.base, self.loop.base)

    @property
    def beta(self) -> Path:
        return Path((self.entry.name,), self.entry.source, self.entry.range)


_witness_loop, _witness_entry = EntranceWitness.loop.__set__, EntranceWitness.entry.__set__


class Classification(SimpleNamespace):
    """``verdict``; ``loops``, the disjoint simple loops of an AF-embeddable
    graph (else empty); ``witness``, the entrance of a not-finite one (else None)."""


def _loop_of(g: Graph, traversal: list[int]) -> SimpleLoop:
    """The loop whose edge ids ``e_1, ..., e_n`` are given in traversal order."""
    en, vn, src = g.edge_names, g.vertex_names, g.src
    return SimpleLoop(tuple(en[e] for e in reversed(traversal)), tuple(vn[src[e]] for e in traversal))


def _on_cycle(g: Graph) -> bytearray:
    """Per vertex id, 1 iff the vertex lies on a loop: one pass of Pearce's algorithm.

    ``rindex[v]`` is ``v``'s visit number, lowered to the smallest visit
    number ``v`` reaches while its component is open, and ``closed`` (above
    every visit number) once the component closes.  ``stack`` holds the
    vertices of open components that do not root them.  A vertex lies on
    a loop iff its component has a second vertex or it has a self-loop.
    """
    start, ids, rng = g.out_start, g.out_ids, g.rng
    closed = len(g.vertex_names)
    rindex = [-1] * closed
    on = bytearray(closed)
    stack: list[int] = []
    visit = 0
    for root in range(closed):
        if rindex[root] >= 0:
            continue
        rindex[root] = visit
        # the DFS path: vertices, their visit numbers, and iterators over the
        # positions of their out-edges in ``ids`` (a range iterator is not a
        # container the garbage collector tracks, however deep the path)
        path, visits, todo = [root], [visit], [iter(range(start[root], start[root + 1]))]
        visit += 1
        while path:
            v = path[-1]
            for k in todo[-1]:
                w = rng[ids[k]]
                if rindex[w] < 0:
                    rindex[w] = visit
                    path.append(w)
                    visits.append(visit)
                    todo.append(iter(range(start[w], start[w + 1])))
                    visit += 1
                    break
                if w == v:
                    on[v] = 1
                elif rindex[w] < rindex[v]:
                    rindex[v] = rindex[w]
            else:
                path.pop()
                todo.pop()
                first = visits.pop()
                low = rindex[v]
                if low < first:  # v does not root its component, which stays open
                    stack.append(v)
                    parent = path[-1]
                    if low < rindex[parent]:
                        rindex[parent] = low
                    continue
                rindex[v] = closed
                while stack and rindex[stack[-1]] >= first:
                    w = stack.pop()
                    rindex[w] = closed
                    on[w] = on[v] = 1
    return on


def cycle_vertices(g: Graph) -> frozenset[str]:
    """Vertices lying on at least one loop."""
    vn = g.vertex_names
    return frozenset(vn[v] for v, on in enumerate(_on_cycle(g)) if on)


def _cycle_through(g: Graph, v: int) -> list[int]:
    """Edge ids ``e_1, ..., e_n`` of the first simple cycle through ``v`` found
    by DFS, edges tried in id order; see :func:`simple_cycle_through`."""
    start, ids, rng = g.out_start, g.out_ids, g.rng
    chosen: list[int] = []
    marked = bytearray(len(g.vertex_names))
    marked[v] = 1
    path, todo = [v], [iter(range(start[v], start[v + 1]))]
    while path:
        for k in todo[-1]:
            e = ids[k]
            w = rng[e]
            if w == v:
                chosen.append(e)
                return chosen
            if not marked[w]:
                marked[w] = 1
                chosen.append(e)
                path.append(w)
                todo.append(iter(range(start[w], start[w + 1])))
                break
        else:
            path.pop()
            todo.pop()
            if chosen:
                chosen.pop()
    raise ValueError(f"vertex {g.vertex_names[v]!r} does not lie on a cycle")


def simple_cycle_through(g: Graph, v: str) -> SimpleLoop:
    """First simple cycle through ``v`` found by DFS, edges tried in id order.

    ``v`` must lie on a cycle.  The result is based at ``v``.  A vertex the
    search backs out of stays marked, so each vertex and edge is visited
    at most once; the module docstring shows why the loop found is still
    that of the DFS that unmarks on backtracking.
    """
    return _loop_of(g, _cycle_through(g, g.vertex_id(v)))


def disjoint_simple_loops(g: Graph) -> list[SimpleLoop]:
    """All loops of an entrance-free graph, traced along unique receivers.

    Every cycle vertex appears in exactly one returned loop, and the loops
    are pairwise vertex- and edge-disjoint.  Each loop is based at its
    smallest vertex; loops are sorted by base vertex.
    """
    cls = classify(g)
    if cls.witness is not None:
        raise EntranceExistsError(cls.witness)
    return list(cls.loops)


def classify(g: Graph) -> Classification:
    """Apply the finiteness trichotomy: AF, AF-embeddable, or not finite.

    This is the one graph analysis: a single SCC pass, and one cycle search
    at the first cycle vertex with a second receiver, whose loop and first
    other receiver are the witness.  It runs on vertex and edge ids, whose
    order is name order; names are looked up only for the loops and the
    witness it returns.
    """
    on = _on_cycle(g)
    cycles = [v for v, flag in enumerate(on) if flag]
    if not cycles:
        return Classification(verdict=Verdict.AF, loops=(), witness=None)
    start, ids, src, vn, en = g.recv_start, g.recv_ids, g.src, g.vertex_names, g.edge_names
    for v in cycles:
        if start[v + 1] - start[v] > 1:
            traversal = _cycle_through(g, v)
            entry = min(e for e in ids[start[v] : start[v + 1]] if e != traversal[-1])
            witness = EntranceWitness(_loop_of(g, traversal), Edge(en[entry], vn[src[entry]], vn[v]))
            return Classification(verdict=Verdict.NOT_FINITE, loops=(), witness=witness)
    loops: list[SimpleLoop] = []
    for v in cycles:
        if not on[v]:  # already traced
            continue
        # walk back along unique receivers: e_n, e_{n-1}, ..., e_1
        edges: list[int] = []
        cur = v
        while True:
            e = ids[start[cur]]
            edges.append(e)
            on[cur] = 0
            cur = src[e]
            if cur == v:
                break
        edges.reverse()
        loops.append(_loop_of(g, edges))
    return Classification(verdict=Verdict.AF_EMBEDDABLE_NOT_AF, loops=tuple(loops), witness=None)


def validate_witness(g: Graph, w: EntranceWitness) -> None:
    """The one check of a witness, on ``g``'s index.

    The loop's edges exist, compose, close up and are simple, and its
    vertex list is their sources; the entry edge exists, is off the loop,
    is recorded with its ends in ``g`` and ranges at the loop's base.
    """
    edges = w.loop.edges
    if not edges:
        raise InvalidWitnessError("a loop has at least one edge")
    ids = [g.edge_id(e) for e in edges]
    src, rng, vn = g.src, g.rng, g.vertex_names
    if any(src[a] != rng[b] for a, b in zip(ids, ids[1:])):
        raise InvalidWitnessError(f"edges do not compose: {edges!r}")
    if rng[ids[0]] != src[ids[-1]]:
        raise InvalidWitnessError("path does not close up into a loop")
    if len({rng[e] for e in ids}) != len(ids):
        raise InvalidWitnessError("loop is not simple: repeated range vertex")
    if w.loop.vertices != tuple(vn[src[e]] for e in reversed(ids)):
        raise InvalidWitnessError("loop vertex list inconsistent with its edges")
    entry = g.edge_id(w.entry.name)
    if entry in ids:
        raise InvalidWitnessError("entry edge lies on the loop")
    if (w.entry.source, w.entry.range) != (vn[src[entry]], vn[rng[entry]]):
        raise InvalidWitnessError("entry edge's recorded ends are not its ends in the graph")
    if rng[entry] != src[ids[-1]]:
        raise InvalidWitnessError("entry edge does not point at the entry vertex")


def witness_infinite(g: Graph, w: EntranceWitness) -> tuple[str, ...]:
    """The strict-inequality chain exhibiting an infinite projection, one line each.

    The first two lines name ``alpha`` and ``beta``; the rest is the chain.
    """
    validate_witness(g, w)
    return tuple(map("".join, _chain_fragments(w)))


def _chain_fragments(w: EntranceWitness, text=str) -> tuple[tuple[str, ...], ...]:
    """The lines of :func:`witness_infinite`, each as the fragments it joins,
    for a witness known to be valid, such as the one :func:`classify` builds.

    ``text`` writes the fragments that hold ids; it must act character by
    character, as a JSON string escape does, so it is applied once to each
    of the loop's two words however often the chain repeats them.  A
    record can then splice the fragments into its own text, and a long
    loop's chain is never held as lines, their join and the record at once.
    """
    v, alpha, beta = text(w.entry_vertex), w.alpha, w.beta
    a = text(" ".join(f"s({e})" for e in w.loop.edges))
    a_star = text(" ".join(f"s*({e})" for e in reversed(w.loop.edges)))
    b, b_star = text(f"s({w.entry.name})"), text(f"s*({w.entry.name})")
    u = text(beta.source)
    return (
        ("alpha = ", text(str(alpha)), " : ", v, " -> ", v),
        ("beta  = ", text(str(beta)), " : ", u, " -> ", text(beta.range)),
        (a_star, " ", a, " = p(", v, ")"),
        (b_star, " ", b, " = p(", u, ")"),
        (a_star, " ", b, " = 0"),
        (a, " ", a_star, " < ", a, " ", a_star, " + ", b, " ", b_star, " <= p(", v, ")"),
        ("p(", v, ") is equivalent to a proper subprojection of itself: infinite"),
    )
