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

The witness of a not-finite verdict, a loop and one other edge into its
base, is found by the search in :mod:`afembed.witness`, which ``classify``
loads only when it finds an entrance.
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
            from .witness import _cycle_through

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
