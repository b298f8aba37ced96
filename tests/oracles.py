"""Independent brute-force oracles the fast implementations are checked against.

Everything here applies the definitions literally: simple cycles are
enumerated by exhaustive DFS over vertex-simple walks, the entrance test
quantifies over every enumerated cycle, and word normal forms are computed
by the rewrite system that defines them, leftmost first and in *every*
rewrite order; ``multiply``, which meets two normal monomials at their
junction in closed form, is checked against them.  None of it shares code paths with the
production implementations beyond the basic graph accessors.  It also
keeps implementations that faster ones replaced, as references: the
two-array Tarjan, the sixteen-case pair table, the set-based graph core,
the sort-based path basis, the text parser that held every line and a
line table per edge, the one that held the whole text, ``materialize`` as it checked its own ids, the term
parser that threads a ``(scalar, term)`` pair through its sums (it
multiplies with the production term operations; only the grammar is
under test), the
relation catalogue that multiplies out every CK2 pair, the loop residuals
``co-iso`` and ``iso`` formed as products of their own (with the
production operator products: only which products are formed is under
test), the column norm that merged the whole operator, the tail power
that multiplied ``T`` out ``|k| - 1`` times, the spectrum check that
sorted both multisets by a Python key and took every phase twice, the
piece product that
always joined on a table of source positions, the adjoint that always
sorted by target, the compression to a boolean mask and the subtraction
that multiplied by -1 first, and the frozen dataclasses the value types
were before they were written by hand.  ``toarray`` is the dense matrix
the package once formed for its tests, ``term_of_word`` the term helper it
held for them, and ``monomial_of_word`` its reader of irreducible words.
"""

from __future__ import annotations

import cmath
import math
import operator
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce
from itertools import compress, islice
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

from afembed.graph import (
    DuplicateIdError,
    Edge,
    Graph,
    GraphParseError,
    Path,
    UndeclaredEndpointError,
    UnknownEdgeError,
    UnknownVertexError,
    _check_token,
)
from afembed.embedding import AugmentedGraphSpec, BratteliTailSpec, MultiplicitySeq
from afembed.loops import EntranceWitness, SimpleLoop, Verdict
from afembed.numrep import _NO_PIECE, Operator, Piece, TruncatedRep, _merge, _mul, _same_entries, op_of_term
from afembed.sparse import _take
from afembed.notation import _TOKEN_RE, TermParseError, _power_str
from afembed.terms import (
    ONE,
    CKTerm,
    GaussianRational,
    NormalMonomial,
    UnrepresentableTermError,
    adjoint,
    isometry,
    multiply,
    projection,
    tail_unitary,
)


def out_edges(g: Graph, v: str) -> list[Edge]:
    """The edges with source ``v``, read off ``g.edges`` in id order, which is
    name order: the order in which the witness search tries out-edges."""
    return [e for e in g.edges if e.source == v]


def enumerate_simple_cycles(g: Graph) -> list[tuple[str, ...]]:
    """All simple cycles as edge tuples in traversal order, one per rotation.

    A cycle is recorded only from its smallest vertex, so each cyclic
    rotation appears exactly once; parallel edges give distinct cycles.
    """
    cycles: list[tuple[str, ...]] = []
    out = {v: out_edges(g, v) for v in g.vertices}

    def dfs(start: str, current: str, visited: set[str], trail: list[str]):
        for e in out[current]:
            if e.range == start:
                cycles.append(tuple(trail + [e.name]))
            elif e.range not in visited and e.range > start:
                visited.add(e.range)
                trail.append(e.name)
                dfs(start, e.range, visited, trail)
                trail.pop()
                visited.discard(e.range)

    for v in sorted(g.vertices):
        dfs(v, v, {v}, [])
    return cycles


def loop_of(g: Graph, traversal: Iterable[str]) -> SimpleLoop:
    """The loop whose edges ``e_1, ..., e_n`` are named in traversal order."""
    traversal = tuple(traversal)
    return SimpleLoop(traversal[::-1], tuple(g.edge(e).source for e in traversal))


def backtracking_cycle_through(g: Graph, v: str) -> SimpleLoop:
    """First simple cycle through ``v`` found by backtracking DFS, edges in id order.

    The reference for :func:`afembed.witness._cycle_through`, which must
    return the same loop visiting each vertex once.  Exponential on a ladder of
    diamonds that dead-ends, so keep the inputs small.
    """
    chosen: list[str] = []
    visited: set[str] = {v}
    out = {w: out_edges(g, w) for w in g.vertices}

    stack = [iter(out[v])]
    current = [v]
    while stack:
        it = stack[-1]
        advanced = False
        for e in it:
            if e.range == v:
                return loop_of(g, chosen + [e.name])
            if e.range not in visited:
                chosen.append(e.name)
                visited.add(e.range)
                current.append(e.range)
                stack.append(iter(out[e.range]))
                advanced = True
                break
        if not advanced:
            stack.pop()
            if chosen:
                visited.discard(current.pop())
                chosen.pop()
    raise ValueError(f"vertex {v!r} does not lie on a cycle")


def oracle_witness(g: Graph) -> EntranceWitness | None:
    """The entrance witness built literally: the smallest cycle vertex with a
    second receiver, the reference loop through it, the smallest other receiver."""
    for v in sorted(oracle_cycle_vertices(g)):
        rec = g.receivers(v)
        if len(rec) > 1:
            loop = backtracking_cycle_through(g, v)
            entry = min(rec - {loop.edges[0]})  # the loop is based at v: e_n enters it
            return EntranceWitness(loop, g.edge(entry))
    return None


def cycle_vertex_set(g: Graph, cycle: tuple[str, ...]) -> set[str]:
    return {g.edge(e).source for e in cycle}


def oracle_cycle_vertices(g: Graph) -> frozenset[str]:
    out: set[str] = set()
    for cycle in enumerate_simple_cycles(g):
        out |= cycle_vertex_set(g, cycle)
    return frozenset(out)


def tarjan_components(g: Graph) -> list[set[str]]:
    """Iterative Tarjan over the vertex adjacency (parallel edges collapsed)."""
    succ: dict[str, list[str]] = {v: [] for v in g.vertices}
    for e in g.edges:
        succ[e.source].append(e.range)
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = 0
    components: list[set[str]] = []

    for root in sorted(g.vertices):
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            for j in range(pi, len(succ[v])):
                w = succ[v][j]
                if w not in index:
                    work[-1] = (v, j + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp: set[str] = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                components.append(comp)
    return components


def tarjan_cycle_vertices(g: Graph) -> frozenset[str]:
    """Cycle vertices by Tarjan's two-array SCC algorithm plus a self-loop scan.

    The classifier's implementation before it became one pass of Pearce's
    single-array form; linear, so it checks :func:`afembed.loops.cycle_vertices`
    on graphs too large for :func:`oracle_cycle_vertices`.
    """
    result: set[str] = set()
    for comp in tarjan_components(g):
        if len(comp) > 1:
            result |= comp
    for e in g.edges:
        if e.source == e.range:
            result.add(e.source)
    return frozenset(result)


def oracle_classify(g: Graph) -> Verdict:
    """Literal reading of the trichotomy over enumerated simple cycles."""
    cycles = enumerate_simple_cycles(g)
    if not cycles:
        return Verdict.AF
    for cycle in cycles:
        ranges = [g.edge(e).range for e in cycle]
        if any(len(g.receivers(v)) > 1 for v in ranges):
            return Verdict.NOT_FINITE
    return Verdict.AF_EMBEDDABLE_NOT_AF


def oracle_has_entrance(g: Graph) -> bool:
    return oracle_classify(g) is Verdict.NOT_FINITE


# ---------------------------------------------------------------------------
# The rewrite system that defines the normal form of ``afembed.terms``, on
# words in the atoms ``("p", v)``, ``("s", e)``, ``("s*", e)`` and ``("t",
# ns, k)``: one step on an atom pair as a table of the sixteen tag pairs,
# leftmost-first rewriting, the monomial of an irreducible word, and every
# rewrite order at once.  ``multiply`` is checked against them.

#: sentinel distinct from any word: the zero element
ZERO = None
#: what a rewrite step returns when no rule applies to the pair
KEEP = "keep"


def _unique_receiver(ctx: AugmentedGraphSpec, v: str) -> str | None:
    rec = ctx.receivers(v)
    if len(rec) == 1:
        (e,) = rec
        return e
    return None


def reference_reduce_pair(ctx: AugmentedGraphSpec, a: tuple, b: tuple):
    """The rewrite step as a table of all sixteen atom-tag pairs.

    Returns a single replacement atom, ``ZERO`` for an annihilating pair, or
    ``KEEP`` when no rule applies.  Atoms are not validated here.
    """
    ta, tb = a[0], b[0]
    if ta == "p":
        w = a[1]
        if tb == "p":
            return a if w == b[1] else ZERO
        if tb == "s":
            return b if w == ctx.edge_range(b[1]) else ZERO
        if tb == "s*":
            return b if w == ctx.edge_source(b[1]) else ZERO
        if tb == "t":
            return b if w == ctx.sink_vertex(b[1]) else ZERO
    if tb == "p":
        w = b[1]
        if ta == "s":
            return a if w == ctx.edge_source(a[1]) else ZERO
        if ta == "s*":
            return a if w == ctx.edge_range(a[1]) else ZERO
        if ta == "t":
            return a if w == ctx.sink_vertex(a[1]) else ZERO
    if ta == "s*" and tb == "s":
        return ("p", ctx.edge_source(a[1])) if a[1] == b[1] else ZERO
    if ta == "s" and tb == "s*":
        if ctx.edge_source(a[1]) != ctx.edge_source(b[1]):
            return ZERO
        if a[1] == b[1] and _unique_receiver(ctx, ctx.edge_range(a[1])) == a[1]:
            return ("p", ctx.edge_range(a[1]))
        return KEEP
    if ta == "s" and tb == "s":
        return KEEP if ctx.edge_source(a[1]) == ctx.edge_range(b[1]) else ZERO
    if ta == "s*" and tb == "s*":
        return KEEP if ctx.edge_range(a[1]) == ctx.edge_source(b[1]) else ZERO
    if ta == "t" and tb == "t":
        if a[1] != b[1]:
            return ZERO
        k = a[2] + b[2]
        return ("t", a[1], k) if k else ("p", ctx.sink_vertex(a[1]))
    if ta == "s" and tb == "t":
        return KEEP if ctx.edge_source(a[1]) == ctx.sink_vertex(b[1]) else ZERO
    if ta == "t" and tb == "s*":
        return KEEP if ctx.edge_source(b[1]) == ctx.sink_vertex(a[1]) else ZERO
    if ta == "t" and tb == "s":
        return KEEP if ctx.edge_range(b[1]) == ctx.sink_vertex(a[1]) else ZERO
    if ta == "s*" and tb == "t":
        return KEEP if ctx.edge_range(a[1]) == ctx.sink_vertex(b[1]) else ZERO
    raise ValueError(f"unhandled atom pair {a!r}, {b!r}")


def reference_normalize_word(ctx: AugmentedGraphSpec, word: tuple):
    """Leftmost-first rewriting with :func:`reference_reduce_pair`."""
    w = list(word)
    i = 0
    while i < len(w) - 1:
        step = reference_reduce_pair(ctx, w[i], w[i + 1])
        if step == KEEP:
            i += 1
            continue
        if step is ZERO:
            return ZERO
        w[i : i + 2] = [step]
        i = max(i - 1, 0)
    return tuple(w)


def word_of_monomial(ctx: AugmentedGraphSpec, m: NormalMonomial) -> tuple:
    """The word of a normal monomial, atom by atom."""
    atoms: list[tuple] = [("s", e) for e in m.alpha]
    if m.power:
        atoms.append(("t", ctx.sink_namespace(m.source), m.power))
    atoms.extend(("s*", e) for e in reversed(m.beta))
    return tuple(atoms) or (("p", m.source),)


def monomial_of_word(ctx: AugmentedGraphSpec, word: tuple) -> NormalMonomial:
    """Read an irreducible word back as a normal monomial: ``terms.monomial_of_word``
    when the package multiplied by rewriting words, kept verbatim but for the
    word's text, written here atom by atom."""
    if len(word) == 1 and word[0][0] == "p":
        return NormalMonomial((), 0, (), ctx.check_vertex(word[0][1]))
    i = 0
    alpha: list[str] = []
    while i < len(word) and word[i][0] == "s":
        alpha.append(word[i][1])
        i += 1
    power = 0
    sink: str | None = None
    if i < len(word) and word[i][0] == "t":
        power = word[i][2]
        sink = ctx.sink_vertex(word[i][1])
        i += 1
    beta_rev: list[str] = []
    while i < len(word) and word[i][0] == "s*":
        beta_rev.append(word[i][1])
        i += 1
    if i != len(word):
        text = " ".join(_power_str(a[1], a[2]) if a[0] == "t" else f"{a[0]}({a[1]})" for a in word)
        raise UnrepresentableTermError(f"irreducible word is not of the form s..s t^k s*..s*: {text}")
    beta = tuple(reversed(beta_rev))
    if power:
        source = sink  # type: ignore[assignment]
    elif alpha:
        source = ctx.edge_source(alpha[-1])
    else:
        source = ctx.edge_source(beta[-1])
    return NormalMonomial(tuple(alpha), power, beta, source)


def term_of_word(ctx: AugmentedGraphSpec, word: Iterable[tuple], coeff=1) -> CKTerm:
    """The term of a word: its leftmost normal form, read as a monomial."""
    nf = reference_normalize_word(ctx, tuple(word))
    if nf is ZERO:
        return CKTerm.zero()
    return CKTerm.of(monomial_of_word(ctx, nf), coeff)


def all_order_normal_forms(ctx: AugmentedGraphSpec, word: tuple) -> set:
    """Every normal form reachable by any sequence of rewrite choices.

    ``ZERO`` results are represented by the element ``None`` in the set.
    Confluence means the returned set is a singleton.
    """
    seen: dict[tuple, set] = {}

    def explore(w: tuple) -> set:
        if w in seen:
            return seen[w]
        seen[w] = set()  # guard; words strictly shrink so no real cycles
        results: set = set()
        reducible = False
        for i in range(len(w) - 1):
            step = reference_reduce_pair(ctx, w[i], w[i + 1])
            if step == KEEP:
                continue
            reducible = True
            if step is ZERO:
                results.add(None)
            else:
                results |= explore(w[:i] + (step,) + w[i + 2 :])
        if not reducible:
            results = {w}
        seen[w] = results
        return results

    return explore(tuple(word))


def sorted_path_basis(g: Graph, depth: int) -> tuple[tuple[Path, ...], tuple[int, ...]]:
    """``PathBasis.build`` before the basis became int arrays, kept verbatim:
    each level sorted by edge tuple, then source.  Returns the paths and
    the suffix rows, which the int-array basis must reproduce row by row."""
    # (edges, source, range, suffix index); edges and source tell paths apart
    level = sorted(((), v, v, -1) for v in g.vertices)
    rows = list(level)
    out = {v: out_edges(g, v) for v in g.vertices}
    for _ in range(depth):
        start = len(rows) - len(level)
        level = sorted(
            ((e.name,) + edges, source, e.range, start + i)
            for i, (edges, source, end, _) in enumerate(level)
            for e in out[end]
        )
        rows += level
    paths = tuple(Path(edges, source=source, range=end) for edges, source, end, _ in rows)
    return paths, tuple(row[3] for row in rows)


def basis_paths(rep: TruncatedRep) -> tuple[Path, ...]:
    """The paths of ``rep``'s basis, row by row, from :func:`sorted_path_basis`."""
    return sorted_path_basis(rep.graph, rep.depth)[0]


def count_paths_with_range(g: Graph, v: str, length: int) -> int:
    """Path count by explicit enumeration (checks the product formula)."""
    if length == 0:
        return 1 if v in g.vertices else 0
    frontier = [((e.name,), e.source) for e in g.edges if e.range == v]
    for _ in range(length - 1):
        frontier = [
            (edges + (e.name,), e.source)
            for edges, src in frontier
            for e in g.edges
            if e.range == src
        ]
    return len(frontier)


# ---------------------------------------------------------------------------
# The graph core before vertex and edge ids were interned to integers:
# ``Graph.build``, ``parse_graph`` and ``graph_from_dict`` as they were, with
# only the class renamed.  The integer-indexed core must answer every
# name-level query the same, in the same order, and reject every malformed
# input with the same exception class and message.


@dataclass(frozen=True)
class SetGraph:
    """The graph core before integer interning, kept as an oracle: verbatim
    but for its out-edge view, which the index no longer has.

    Immutable finite directed multigraph.

    Edges are stored sorted by name, so structurally equal graphs compare
    equal regardless of declaration order.
    """

    vertices: frozenset[str]
    edges: tuple[Edge, ...]
    _by_name: dict = field(default_factory=dict, compare=False, repr=False, hash=False)
    _receivers: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    @classmethod
    def build(cls, vertices: Iterable[str], edges: Iterable[Edge | tuple[str, str, str]]) -> "SetGraph":
        vset: set[str] = set()
        for v in vertices:
            _check_token("vertex", v)
            if v in vset:
                raise DuplicateIdError(f"duplicate vertex id {v!r}")
            vset.add(v)
        elist: list[Edge] = []
        names: set[str] = set()
        for e in edges:
            if not isinstance(e, Edge):
                e = Edge(*e)
            _check_token("edge", e.name)
            if e.name in names:
                raise DuplicateIdError(f"duplicate edge id {e.name!r}")
            names.add(e.name)
            for endpoint in (e.source, e.range):
                if endpoint not in vset:
                    raise UndeclaredEndpointError(
                        f"edge {e.name!r} references undeclared vertex {endpoint!r}"
                    )
            elist.append(e)
        elist.sort(key=lambda e: e.name)
        g = cls(frozenset(vset), tuple(elist))
        g._by_name.update({e.name: e for e in elist})
        recv: dict[str, set[str]] = {v: set() for v in vset}
        for e in elist:
            recv[e.range].add(e.name)
        g._receivers.update({v: frozenset(s) for v, s in recv.items()})
        return g

    def edge(self, name: str) -> Edge:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownEdgeError(f"unknown edge {name!r}") from None

    def receivers(self, v: str) -> frozenset[str]:
        """Edge names with range ``v`` (the set ``r^{-1}(v)``)."""
        try:
            return self._receivers[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None


def set_parse_graph(text: str) -> SetGraph:
    """Parse the line-oriented graph format; errors report the 1-based line."""
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    vseen: set[str] = set()
    edge_lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise GraphParseError("expected: vertex <id>", lineno)
            if parts[1] in vseen:
                raise GraphParseError(f"duplicate vertex id {parts[1]!r}", lineno)
            vseen.add(parts[1])
            vertices.append(parts[1])
        elif parts[0] == "edge":
            if len(parts) != 4:
                raise GraphParseError("expected: edge <id> <source-id> <range-id>", lineno)
            name = parts[1]
            if name in edge_lines:
                raise GraphParseError(f"duplicate edge id {name!r}", lineno)
            edge_lines[name] = lineno
            edges.append((name, parts[2], parts[3]))
        else:
            raise GraphParseError(f"unknown directive {parts[0]!r}", lineno)
    for name, src, dst in edges:
        for endpoint in (src, dst):
            if endpoint not in vseen:
                raise GraphParseError(
                    f"edge {name!r} references undeclared vertex {endpoint!r}",
                    edge_lines[name],
                )
    return SetGraph.build(vertices, edges)


def set_graph_from_dict(obj: object) -> SetGraph:
    if not isinstance(obj, dict):
        raise GraphParseError(f"a JSON graph must be an object, not {type(obj).__name__}")
    vertices, edges = obj.get("vertices"), obj.get("edges")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise GraphParseError("'vertices' must be a list of string ids")
    if not isinstance(edges, list) or not all(isinstance(e, dict) for e in edges):
        raise GraphParseError("'edges' must be a list of objects with 'id', 'src' and 'dst'")
    triples = [(e.get("id"), e.get("src"), e.get("dst")) for e in edges]
    if not all(isinstance(x, str) for t in triples for x in t):
        raise GraphParseError("every edge needs string 'id', 'src' and 'dst' values")
    return SetGraph.build(vertices, triples)


# ``graph.parse_graph`` before it parsed in one pass without side tables,
# verbatim but for its name and its last line: the index constructor now
# takes vertex names in any order, so it no longer takes ``vertex_ids``.


def reference_parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format; errors report the 1-based line.

    A part of a split line is a token by construction, so only duplicates
    and undeclared endpoints are checked here, each once.
    """
    vertices: list[str] = []
    vseen: set[str] = set()
    names: list[str] = []
    sources: list[str] = []
    ranges: list[str] = []
    edge_lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = (raw[: raw.index("#")] if "#" in raw else raw).split()
        if not parts:
            continue
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise GraphParseError("expected: vertex <id>", lineno)
            if parts[1] in vseen:
                raise GraphParseError(f"duplicate vertex id {parts[1]!r}", lineno)
            vseen.add(parts[1])
            vertices.append(parts[1])
        elif parts[0] == "edge":
            if len(parts) != 4:
                raise GraphParseError("expected: edge <id> <source-id> <range-id>", lineno)
            name = parts[1]
            if name in edge_lines:
                raise GraphParseError(f"duplicate edge id {name!r}", lineno)
            edge_lines[name] = lineno
            names.append(name)
            sources.append(parts[2])
            ranges.append(parts[3])
        else:
            raise GraphParseError(f"unknown directive {parts[0]!r}", lineno)
    vertices.sort()
    vertex_ids = {v: i for i, v in enumerate(vertices)}
    src = [vertex_ids.get(v, -1) for v in sources]
    rng = [vertex_ids.get(v, -1) for v in ranges]
    if -1 in src or -1 in rng:
        for name, s, r, si, ri in zip(names, sources, ranges, src, rng):
            if si < 0 or ri < 0:
                raise GraphParseError(
                    f"edge {name!r} references undeclared vertex {s if si < 0 else r!r}",
                    edge_lines[name],
                )
    return Graph(vertices, names, src, rng)


# ``graph.parse_graph`` before it read streams: the text is held whole and
# split a block at a time, and an undeclared endpoint's line is found by
# reading the text again.  Verbatim but for the names, the block size, which
# is a parameter, and its docstrings.


def string_statements(text: str, block: int = 1 << 16) -> Iterator[tuple[int, list[str]]]:
    """``(line number, words)`` of each statement of the text format."""
    lineno, start, size = 0, 0, len(text)
    while start < size:
        end = text.find("\n", start + block) + 1 or size
        for raw in text[start:end].splitlines():
            lineno += 1
            parts = (raw[: raw.index("#")] if "#" in raw else raw).split()
            if not parts:
                continue
            if parts[0] == "vertex":
                if len(parts) != 2:
                    raise GraphParseError("expected: vertex <id>", lineno)
            elif parts[0] == "edge":
                if len(parts) != 4:
                    raise GraphParseError("expected: edge <id> <source-id> <range-id>", lineno)
            else:
                raise GraphParseError(f"unknown directive {parts[0]!r}", lineno)
            yield lineno, parts
        start = end


def string_parse_graph(text: str, block: int = 1 << 16) -> Graph:
    """The graph of a text held whole; errors report the 1-based line."""
    position: dict[str, int] = {}
    names: list[str] = []
    seen: set[str] = set()
    src, rng = array("q"), array("q")
    forward: list[str] = []
    for lineno, parts in string_statements(text, block):
        if len(parts) == 2:
            if parts[1] in position:
                raise GraphParseError(f"duplicate vertex id {parts[1]!r}", lineno)
            position[parts[1]] = len(position)
            continue
        _, name, source, range_ = parts
        if name in seen:
            raise GraphParseError(f"duplicate edge id {name!r}", lineno)
        seen.add(name)
        names.append(name)
        for ends, v in ((src, source), (rng, range_)):
            i = position.get(v)
            if i is None:
                i = ~len(forward)
                forward.append(v)
            ends.append(i)
    del seen
    if forward:
        resolved = [position.get(v, -1) for v in forward]
        if -1 in resolved:
            k = resolved.index(-1)  # forward names come in edge order, a source before its range
            e = src.index(~k) if ~k in src else rng.index(~k)
            line = string_edge_line(text, e, block)
            raise GraphParseError(f"edge {names[e]!r} references undeclared vertex {forward[k]!r}", line)
        src = array("q", [resolved[~i] if i < 0 else i for i in src])
        rng = array("q", [resolved[~i] if i < 0 else i for i in rng])
    vertex_names = list(position)
    del position
    return Graph(vertex_names, names, src, rng)


def string_edge_line(text: str, e: int, block: int = 1 << 16) -> int:
    """The line of the ``e``-th edge statement (from 0) of a text whose statements all parse."""
    return next(islice((lineno for lineno, parts in string_statements(text, block) if len(parts) == 4), e, None))


def reference_materialize(spec, depth: int) -> Graph:
    """``embedding.materialize`` before it passed its ids to the index
    unchecked: the same ids, through ``Graph.build``, which checks that each
    is a token and that none repeats (the stage ceiling is left out)."""
    vertices = [*spec.graph.vertex_names, *spec._sinks]
    edges = [(e, *ends) for e, ends in spec._finite_edges.items()]
    for rep in spec.replacements:
        tail = rep.tail
        for k in range(1, depth + 1):
            vertices.append(tail.vertex(k))
            ends = tail.tail_edge_ends(k)
            edges.extend((e, *ends) for e in tail.level_edges(k))
    return Graph.build(vertices, edges)


# ``notation._TermParser`` and ``notation.parse_term`` before the parser returned
# one value per sum and product, kept verbatim but for the two names.


class ReferenceTermParser:
    """Recursive-descent parser for the term grammar.

    sum := ['-'] product (('+'|'-') product)* ; product := factor+ ;
    factor := coefficient | atom | '(' sum ')'.  Coefficients are rationals
    with an optional trailing ``i``; ``t`` atoms take an optional integer
    exponent.  Parentheses nest at most ``MAX_NESTING`` deep, so the
    descent never exhausts the interpreter's stack.
    """

    MAX_NESTING = 100

    def __init__(self, ctx: AugmentedGraphSpec, text: str):
        self.ctx = ctx
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.nesting = 0

    @staticmethod
    def _tokenize(text: str) -> list[tuple[str, object]]:
        tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise TermParseError(f"unexpected input at position {pos}: {text[pos:pos+20]!r}")
                break
            pos = m.end()
            # a ValueError from int() or Fraction() means more digits than the interpreter reads
            if m.group("atom"):
                try:
                    exp = int(m.group("exp")) if m.group("exp") else 1
                except ValueError:
                    atom, digits = f"{m.group('atom')}({m.group('id')})", len(m.group("exp").lstrip("-"))
                    raise TermParseError(f"exponent of {atom} is too long: {digits} digits") from None
                tokens.append(("atom", (m.group("atom"), m.group("id"), exp)))
            elif m.group("num"):
                try:
                    frac = Fraction(m.group("num"))
                except ZeroDivisionError:
                    raise TermParseError(f"zero denominator in coefficient {m.group('num')!r}") from None
                except ValueError:
                    at, digits = m.start("num"), max(len(x) for x in m.group("num").split("/"))
                    raise TermParseError(f"coefficient at position {at} is too long: {digits} digits") from None
                if m.group("numi"):
                    tokens.append(("coeff", GaussianRational(Fraction(0), frac)))
                else:
                    tokens.append(("coeff", GaussianRational(frac)))
            elif m.group("i"):
                tokens.append(("coeff", GaussianRational(Fraction(0), Fraction(1))))
            else:
                tokens.append(("op", m.group("op")))
        return tokens

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def parse(self) -> CKTerm:
        scalar, term = self.parse_sum()
        if self.peek() is not None:
            raise TermParseError(f"trailing tokens at {self.pos}")
        if term is None:
            if scalar.is_zero:
                return CKTerm.zero()
            raise TermParseError("a bare scalar is not a term in a non-unital algebra")
        return term

    # sums and products carry either a pure scalar (term part None) or a
    # term; this lets parenthesized Gaussian rationals like (1+i) act as
    # coefficients while parenthesized term sums distribute over products

    def parse_sum(self) -> tuple[GaussianRational, CKTerm | None]:
        sign = 1
        if self.peek() == ("op", "-"):
            self.pos += 1
            sign = -1
        total_scalar, total_term = self.parse_product()
        total_scalar = total_scalar * GaussianRational.of(sign)
        if total_term is not None:
            total_term = total_term.scale(sign)
        while True:
            tok = self.peek()
            if tok not in (("op", "+"), ("op", "-")):
                return total_scalar, total_term
            self.pos += 1
            sign = 1 if tok == ("op", "+") else -1
            scalar, term = self.parse_product()
            if (term is None) != (total_term is None):
                raise TermParseError("cannot add a bare scalar to a term")
            if term is None:
                total_scalar = total_scalar + scalar * GaussianRational.of(sign)
            else:
                total_term = total_term + term.scale(sign)

    def parse_product(self) -> tuple[GaussianRational, CKTerm | None]:
        scalar = ONE
        term: CKTerm | None = None
        empty = True
        while True:
            tok = self.peek()
            if tok == ("op", "-") and empty:
                # unary minus, e.g. the coefficient "-i"
                self.pos += 1
                scalar = scalar * GaussianRational.of(-1)
                empty = False
                continue
            if tok is None or tok in (("op", "+"), ("op", "-"), ("op", ")")):
                break
            kind, value = tok
            self.pos += 1
            empty = False
            if kind == "coeff":
                scalar = scalar * value
            elif kind == "atom":
                factor = self._atom_term(value)
                term = factor if term is None else multiply(term, factor, self.ctx)
            elif tok == ("op", "("):
                self.nesting += 1
                if self.nesting > self.MAX_NESTING:
                    raise TermParseError(f"parentheses nested deeper than {self.MAX_NESTING}")
                inner_scalar, inner_term = self.parse_sum()
                if self.peek() != ("op", ")"):
                    raise TermParseError("unbalanced parenthesis")
                self.pos += 1
                self.nesting -= 1
                if inner_term is None:
                    scalar = scalar * inner_scalar
                else:
                    term = inner_term if term is None else multiply(term, inner_term, self.ctx)
            else:
                raise TermParseError(f"unexpected token {tok!r}")
        if empty:
            raise TermParseError("empty product")
        if term is None:
            return scalar, None
        return ONE, term.scale(scalar)

    def _atom_term(self, value) -> CKTerm:
        sym, name, exp = value
        if sym == "p":
            if exp != 1:
                raise TermParseError("exponents are only supported on t atoms")
            return projection(self.ctx, name)
        if sym == "s":
            if exp != 1:
                raise TermParseError("exponents are only supported on t atoms")
            return isometry(self.ctx, name)
        if sym == "s*":
            if exp != 1:
                raise TermParseError("exponents are only supported on t atoms")
            return adjoint(isometry(self.ctx, name))
        if sym == "t":
            return tail_unitary(self.ctx, name, exp)
        if sym == "t*":
            return tail_unitary(self.ctx, name, -exp)
        raise TermParseError(f"unknown atom {sym!r}")


def reference_parse_term(text: str, ctx: AugmentedGraphSpec) -> CKTerm:
    text = text.strip()
    if text == "0":
        return CKTerm.zero()
    return ReferenceTermParser(ctx, text).parse()


X = TypeVar("X")


def reference_ck_instances(
    family: Graph,
    images: Mapping[str, X],
    projection: Callable[[str], X],
    adjoint: Callable[[X], X],
    product: Callable[[X, X], X],
    zero: X,
) -> Iterator[tuple[str, str | None, tuple[tuple[str, X, X], ...]]]:
    """``verify.ck_instances`` before it skipped cross-range CK2 products,
    kept verbatim: every CK2 pair is multiplied out.

    The CK1-CK3 instances of the family ``images`` over ``family``.

    Yields ``(family, vertex, identities)`` per instance, where ``vertex``
    is the vertex a CK1 or CK3 instance is stated at (None for CK2) and
    ``identities`` are ``(name, lhs, rhs)`` triples; the first name names
    the instance.  CK1[v] holds two identities, ``p p = p`` (CK1[v]) and
    ``p* = p`` (CK1*[v]); CK2[e,f] is ``img(e)* img(f) = delta_ef
    p(source(e))``; CK3[v] is the receiver sum ``sum_e img(e) img(e)* =
    p(v)`` at each vertex that receives an edge.  Each backend passes its
    own operations (its ``+`` is the sum); each adjoint is computed once
    per edge.
    """
    vn, en = family.vertex_names, family.edge_names  # sorted, as ids number them
    for v in vn:
        p = projection(v)
        yield "CK1", v, ((f"CK1[{v}]", product(p, p), p), (f"CK1*[{v}]", adjoint(p), p))

    edge_names = sorted(images)
    adjoints = {e: adjoint(images[e]) for e in edge_names}
    for e in edge_names:
        for f in edge_names:
            rhs = projection(vn[family.src[family.edge_id(e)]]) if e == f else zero
            yield "CK2", None, ((f"CK2[{e},{f}]", product(adjoints[e], images[f]), rhs),)

    start, ids = family.recv_start, family.recv_ids
    for i, v in enumerate(vn):
        if start[i] < start[i + 1]:
            total = zero
            for e in map(en.__getitem__, ids[start[i] : start[i + 1]]):
                total = total + product(images[e], adjoints[e])
            yield "CK3", v, ((f"CK3[{v}]", total, projection(v)),)


def reference_loop_entries(rep: TruncatedRep, gmap) -> list[tuple[str, float]]:
    """The ``co-iso`` and ``iso`` residuals of every replaced loop, as
    ``numrep.relation_residuals`` formed them before it read them off
    ``CK2[e_i,e_i]`` and ``CK3[u_{i+1}]``, kept verbatim: the interior
    Frobenius norms of ``a* a - P(u_i)`` and ``a a* - P(u_{i+1})`` for
    ``a`` the image of ``e_i``, in report order."""
    interior = interior_mask(rep)
    entries = []
    for loop_rep in rep.spec.replacements:
        loop = loop_rep.loop
        name = " ".join(loop.edges)
        u_terms = [op_of_term(gmap.edge_map[loop.edge_index(i)], rep) for i in range(1, loop.n + 1)]
        for i in range(1, loop.n + 1):
            a = u_terms[i - 1]
            a_star = a.adjoint()
            p_ui = rep.P[loop.vertices[i - 1]]
            p_next = rep.P[loop.vertices[i % loop.n]]
            entries.append((f"LOOP[{name}]:co-iso[{i}]", reference_frobenius(reference_difference(a_star @ a, p_ui), interior)))
            entries.append((f"LOOP[{name}]:iso[{i}]", reference_frobenius(reference_difference(a @ a_star, p_next), interior)))
    return entries


def reference_tail_entries(rep: TruncatedRep) -> list[tuple[str, float]]:
    """The ``TAIL`` residuals, as ``numrep.relation_residuals`` formed them
    before it read them off ``T``'s phases, kept verbatim: the Frobenius
    norms of the operator products ``T T* - P(v)`` and ``T* T - P(v)`` over
    the whole stage, for ``v`` the tail's sink, in report order."""
    entries = []
    for ns, t in sorted(rep.T.items()):
        p_v = rep.P[rep.spec.sink_vertex(ns)]
        entries.append((f"TAIL[{ns}]:unitary", (t @ t.adjoint()).frobenius(minus=p_v)))
        entries.append((f"TAIL[{ns}]:unitary*", (t.adjoint() @ t).frobenius(minus=p_v)))
    return entries


def reference_tail_power(rep: TruncatedRep, namespace: str, k: int) -> Operator:
    """``numrep._tail_power`` before it raised ``T``'s phases elementwise,
    kept verbatim: ``|k| - 1`` operator products of ``T``, or of ``T*``
    for ``k < 0``."""
    base = rep.T[namespace] if k > 0 else rep.T[namespace].adjoint()
    out = base
    for _ in range(abs(k) - 1):
        out = out @ base
    return out


def reference_circle_hausdorff(values, radial: float) -> float:
    """``numrep._circle_hausdorff`` before it took the angles that
    ``loop_spectrum`` forms once, kept verbatim: it takes each value's phase."""
    angles = sorted(map(cmath.phase, values))
    gaps = [b - a for a, b in zip(angles, angles[1:])]
    gaps.append(angles[0] + 2 * math.pi - angles[-1])
    return max(radial, 2.0 * math.sin(max(gaps) / 4.0))


def reference_multiset_mismatch(a: list[tuple[complex, float]], b: list[tuple[complex, float]]) -> float:
    """``numrep._multiset_mismatch`` before it took ``T^n``'s side with its
    moduli and angles, kept verbatim: both multisets of ``(value, modulus)``
    pairs sorted by a Python key."""
    if len(a) != len(b):
        return float("inf")
    if len(a) == 0:
        return 0.0

    def key(pair: tuple[complex, float]) -> tuple[float, float]:
        # the angle rounded to 9 decimals as numpy rounds it, then the modulus
        return round(cmath.phase(pair[0]) * 1e9) / 1e9, pair[1]

    return max(math.hypot(x.real - y.real, x.imag - y.imag) for (x, _), (y, _) in zip(sorted(a, key=key), sorted(b, key=key)))


def reference_spectrum_distances(rep: TruncatedRep, report) -> tuple[float, float]:
    """``hausdorff_to_circle`` and ``conjugation_mismatch`` of a
    ``loop_spectrum`` report, as ``loop_spectrum`` formed them with the two
    functions above from the eigenvalues the report holds."""
    evals = report.eigenvalues
    moduli = [math.hypot(z.real, z.imag) for z in evals]
    radial = max(abs(m - 1.0) for m in moduli)
    conj_nonzero = [(z, math.hypot(z.real, z.imag)) for z in report.conjugated_nonzero]
    ns = rep.spec.replacement_for(report.loop).tail.namespace
    shallow = sum(len(level) for level in rep.corner_levels[ns][: rep.depth])
    return (
        reference_circle_hausdorff(evals, radial),
        reference_multiset_mismatch(conj_nonzero, list(zip(evals[:shallow], moduli))),
    )


def toarray(op: Operator):
    """The dense matrix of ``op``, as a numpy array."""
    import numpy as np

    out = np.zeros((op.dim, op.dim), dtype=np.complex128)
    for p in op.pieces:
        np.add.at(out, (list(p.tgt), list(p.src)), p.values())
    return out


def reference_after(a: Piece, b: Piece) -> Piece:
    """``Piece.after`` before a right factor landing on ``a.src`` in order
    skipped the join, kept verbatim: ``a @ b`` by a table of where each
    source index sits in ``a.src``."""
    position = dict(zip(a.src, range(len(a.src))))
    if position.keys().isdisjoint(b.tgt):
        return _NO_PIECE
    at = list(map(position.get, b.tgt))
    if None in at:
        hit = [i for i, k in enumerate(at) if k is not None]
        src, at, b_phase = tuple(map(b.src.__getitem__, hit)), [at[i] for i in hit], _take(b.phase, hit)
    else:
        src, b_phase = b.src, b.phase
    return Piece(src, tuple(map(a.tgt.__getitem__, at)), _mul(_take(a.phase, at), b_phase))


def reference_adjoint(p: Piece) -> Piece:
    """``Piece.adjoint`` before ascending targets skipped the sort, kept verbatim."""
    if p.src == p.tgt:  # a diagonal: its indices stay
        return p if p.phase is None else Piece(p.src, p.tgt, tuple(map(complex.conjugate, p.phase)))
    order = sorted(range(len(p.tgt)), key=p.tgt.__getitem__)
    phase = None if p.phase is None else tuple(map(complex.conjugate, map(p.phase.__getitem__, order)))
    return Piece(tuple(map(p.tgt.__getitem__, order)), tuple(map(p.src.__getitem__, order)), phase)


def interior_mask(rep: TruncatedRep) -> tuple[bool, ...]:
    """The interior as the stage held it before it was a ``range``: True on
    the rows of the paths of length ``1 .. depth-1``."""
    return tuple(i in rep.interior for i in range(rep.dimension))


def reference_compress(run, mask: tuple[bool, ...]):
    """``numrep._compress`` before it sliced to a ``range``, kept verbatim:
    the entries of a ``(src, tgt, values)`` run with both ends in ``mask``."""
    src, tgt, values = run
    keep = list(map(operator.and_, map(mask.__getitem__, src), map(mask.__getitem__, tgt)))
    return tuple(compress(src, keep)), tuple(compress(tgt, keep)), tuple(compress(values, keep))


def reference_difference(lhs: Operator, rhs: Operator) -> Operator:
    """``lhs - rhs`` as ``Operator.__sub__`` formed it, kept verbatim: ``rhs`` multiplied by -1, then added."""
    return Operator(lhs.dim, lhs.pieces + rhs.scale(-1).pieces)


def reference_frobenius(op: Operator, mask: tuple[bool, ...] | None = None) -> float:
    """``Operator.frobenius`` before it compressed to a ``range`` and
    subtracted, kept verbatim: the norm of the compression to ``mask``."""
    runs = [(p.src, p.tgt, p.values()) for p in op.pieces]
    if not runs:
        return 0.0
    if len(runs) > 1 and mask is not None and not _same_entries(runs):
        runs = [reference_compress(run, mask) for run in runs]
    if len(runs) == 1:
        values = (runs[0] if mask is None else reference_compress(runs[0], mask))[2]
    elif _same_entries(runs):
        src, tgt, _ = runs[0]
        values = tuple(reduce(partial(map, operator.add), (r[2] for r in runs)))
        values = [v for s, t, v in compress(zip(src, tgt, values), values) if mask is None or (mask[s] and mask[t])]
    else:
        values = _merge(op.dim, runs).values()
    return math.hypot(*(x for v in values for x in (v.real, v.imag)))


def reference_column_norm(op: Operator, j: int) -> float:
    """``Operator.column_norm`` before it bisected each piece for column
    ``j``, kept verbatim: the whole operator's entries are merged, then
    the column's are read."""
    return math.hypot(*(x for s, _, v in zip(*op.entries()) if s == j for x in (v.real, v.imag)))


# ---------------------------------------------------------------------------
# The value types as frozen dataclasses, as the package defined them before
# it wrote its classes by hand: the fields, their defaults and
# ``MultiplicitySeq``'s checks, kept verbatim.  Each twin takes its
# original's name as ``__qualname__``, which the generated ``repr`` prints.
# A field that holds another value type holds the package's own class.


@dataclass(frozen=True)
class EdgeTwin:
    __qualname__ = "Edge"

    name: str
    source: str
    range: str


@dataclass(frozen=True)
class PathTwin:
    __qualname__ = "Path"

    edges: tuple[str, ...]
    source: str
    range: str


@dataclass(frozen=True)
class SimpleLoopTwin:
    __qualname__ = "SimpleLoop"

    edges: tuple[str, ...]
    vertices: tuple[str, ...]


@dataclass(frozen=True)
class EntranceWitnessTwin:
    __qualname__ = "EntranceWitness"

    loop: SimpleLoop
    entry: Edge


@dataclass(frozen=True)
class GaussianRationalTwin:
    __qualname__ = "GaussianRational"

    real: int | Fraction = 0
    imag: int | Fraction = 0


@dataclass(frozen=True)
class NormalMonomialTwin:
    __qualname__ = "NormalMonomial"

    alpha: tuple[str, ...]
    power: int
    beta: tuple[str, ...]
    source: str


@dataclass(frozen=True)
class MultiplicitySeqTwin:
    __qualname__ = "MultiplicitySeq"

    prefix: tuple[int, ...] = ()
    tail: int = 2

    def __post_init__(self):
        if any(m < 1 for m in self.prefix):
            raise ValueError("multiplicities must be >= 1")
        if self.tail < 2:
            raise ValueError(
                "the repeating multiplicity must be >= 2 so that entries >= 2 occur infinitely often"
            )


@dataclass(frozen=True)
class BratteliTailSpecTwin:
    __qualname__ = "BratteliTailSpec"

    namespace: str
    mult: MultiplicitySeq = field(default_factory=MultiplicitySeq)


@dataclass(frozen=True)
class LoopReplacementTwin:
    __qualname__ = "LoopReplacement"

    loop: SimpleLoop
    tail: BratteliTailSpec
