"""The entrance-witness search, and the checks of a witness a caller brings.

:func:`~afembed.loops.classify` loads this module only when it finds a
cycle vertex with a second receiver, so an AF or AF-embeddable input, and
every ``verify`` of one, never compiles it.

The witness loop of a not-finite verdict is the first simple cycle through
the entry vertex ``v`` that a DFS finds when it tries out-edges in id
order.  This search alone reads out-edges, and their order fixes the
witness, so it builds that adjacency itself, with the index's own
:func:`~afembed.graph._adjacency` over the sources, once per not-finite
input; the graph's index holds only the receivers.  The search keeps a
vertex marked after backing out of it, so it is O(|V| + |E|), and it
finds the same loop as a DFS that unmarks:
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
:func:`verify_witness`, :func:`validate_witness` is its one check.
:func:`verify_witness` proves the chain's identities in the term engine,
which it alone of this module's functions loads.
"""

from __future__ import annotations

from .graph import Graph, _adjacency
from .loops import EntranceWitness, InvalidWitnessError


def _cycle_through(g: Graph, v: int) -> list[int]:
    """Edge ids ``e_1, ..., e_n`` of the first simple cycle through the vertex
    id ``v`` found by DFS, out-edges tried in id order.

    ``v`` must lie on a cycle; ``e_1`` leaves it and ``e_n`` enters it.  A
    vertex the search backs out of stays marked, so each vertex and edge is
    visited at most once; the module docstring shows why the loop found is
    still that of the DFS that unmarks on backtracking.
    """
    (start, ids), rng = _adjacency(g.src, len(g.vertex_names)), g.rng
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


def verify_witness(w: EntranceWitness, g: Graph) -> RelationReport:
    """Prove the algebraic content of the infinite-projection chain: a
    report of three rows of its own, over no graph.  The term engine and
    the report are imported here, so ``classify`` compiles neither."""
    from .embedding import AugmentedGraphSpec
    from .terms import CKTerm, NormalMonomial, adjoint, isometry, multiply, projection
    from .verify import _PROVED, Catalogue, RelationCheck, RelationReport, RelationStatus

    validate_witness(g, w)
    ctx = AugmentedGraphSpec(g, ())
    # the loop ``(e_n, ..., e_1)`` is a path from its base to its base
    s_alpha = CKTerm.of(NormalMonomial(w.loop.edges, 0, (), w.loop.base))
    s_beta = isometry(ctx, w.entry.name)
    identities = (
        ("WITNESS[alpha*alpha]", multiply(adjoint(s_alpha), s_alpha, ctx), projection(ctx, w.loop.base)),
        ("WITNESS[beta*beta]", multiply(adjoint(s_beta), s_beta, ctx), projection(ctx, w.entry.source)),
        ("WITNESS[alpha*beta]", multiply(adjoint(s_alpha), s_beta, ctx), CKTerm.zero()),
    )
    checks = Catalogue(Graph((), (), (), ()), ("CK1",), _PROVED, RelationCheck)
    for name, lhs, rhs in identities:
        checks.put(checks.append(name), _PROVED if lhs == rhs else (RelationStatus.FAILED, lhs - rhs, ""))
    return RelationReport(checks=checks)


def witness_infinite(g: Graph, w: EntranceWitness) -> tuple[str, ...]:
    """The strict-inequality chain exhibiting an infinite projection, one line each.

    The first two lines name ``alpha`` and ``beta``; the rest is the chain.
    """
    validate_witness(g, w)
    return tuple(map("".join, _chain_fragments(w)))


def _chain_fragments(w: EntranceWitness, text=str) -> tuple[tuple[str, ...], ...]:
    """The lines of :func:`witness_infinite`, each as the fragments it joins,
    for a witness known to be valid, such as the one ``classify`` builds.

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
