"""Mechanical relation checking for mapped generator families.

The relation instances are listed once, by :func:`ck_instances`; the exact
checker here and the numeric residuals of :mod:`afembed.numrep` both
evaluate that one catalogue, each with its own algebra.

Each backend's report is one table over the catalogue, a
:class:`Catalogue`: a row per identity in catalogue order, then the
backend's own rows.  A backend holds an outcome only where it differs from
its default (PROVED with no note here, a residual of exactly ``0.0`` in
:mod:`afembed.numrep`), each under its own row's position; a row's name is
formed from its position when the row is viewed or written.

Most CK2 instances are zero by orthogonality of ranges: distinct edges
have orthogonal ranges (Raeburn, *Graph Algebras*, CBMS 103, 2005, Ch. 1),
so ``img(e)* img(f)`` vanishes when the two images cannot meet from the
left.  Each backend names the places an image meets another from the left,
its ``support``, and the catalogue multiplies only the pairs whose supports
share one; every other pair is zero on both sides, exactly what the product
would be, and is never formed.  Its row keeps the default outcome, as does
each multiplied instance that holds, so a report grows with the outcomes
that differ from the default, not with |E|^2.

A check is PROVED only by exact normal-form equality in the symbolic
engine.  Two obligations of the standard uniqueness criterion for
injectivity cannot be rewrite facts and are reported as RECORDED: the
mapped vertex projections are nonzero (they are generator projections of
the host algebra), and each replaced loop's image must have full circle
spectrum, which is checked numerically by the truncated representation
instead.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from types import SimpleNamespace
from typing import Callable, Collection, Hashable, Iterator, Mapping, TypeVar

from .embedding import AugmentedGraphSpec, GeneratorMap
from .graph import Graph
from .terms import CKTerm, UnrepresentableTermError, adjoint, expand_ck3, multiply, projection

X = TypeVar("X")


def ck_instances(
    family: Graph,
    images: Mapping[str, X],
    projection: Callable[[str], X],
    adjoint: Callable[[X], X],
    product: Callable[[X, X], X],
    support: Callable[[X], Collection[Hashable]],
    zero: X,
) -> Iterator[tuple[str, str | tuple[str, str], tuple[tuple[X, X], ...]]]:
    """The CK1-CK3 instances of the family ``images`` over ``family``.

    Yields ``(kind, at, identities)`` per instance, where ``at`` is the
    vertex a CK1 or CK3 instance is stated at, or the pair ``(e, f)`` of
    CK2[e,f], and ``identities`` are ``(lhs, rhs)`` pairs; a
    :class:`Catalogue` names them.  CK1[v] holds two identities, ``p p = p``
    and ``p* = p``; CK2[e,f] is ``img(e)* img(f) = delta_ef p(source(e))``;
    CK3[v] is the receiver sum ``sum_e img(e) img(e)* = p(v)`` at each
    vertex that receives an edge.  Each backend passes its own operations;
    a receiver sum is ``zero.plus(products)``, the products added in
    receiver order in one pass, so a vertex with ``k`` receivers costs
    O(k), where adding them one at a time, each sum a new value, would cost
    O(k^2).  Each adjoint is computed once per edge.

    ``support(x)`` gives keys such that ``adjoint(x) y`` is zero unless
    ``support(x)`` and ``support(y)`` share one: the ranges of distinct
    edges are orthogonal (Raeburn, *Graph Algebras*, CBMS 103, 2005,
    Ch. 1), so the constructed map, whose images start with distinct
    edges, takes one CK2 product per edge rather than |E|^2, on either
    side.  A superset of the keys is safe, a subset is not.  Through an
    inverted index from key to edges, each row CK2[e,.] yields only the
    pairs whose supports meet, and CK2[e,e] (its right-hand side is not
    zero), in catalogue order: every other pair is ``zero`` on both sides,
    and is not yielded at all.
    """
    vn, en = family.vertex_names, family.edge_names  # sorted, as ids number them
    kind, at = "CK1", ""  # the instance whose products are being formed
    try:
        for at in vn:
            p = projection(at)
            yield kind, at, ((product(p, p), p), (adjoint(p), p))

        edge_names = sorted(images)
        adjoints = {e: adjoint(images[e]) for e in edge_names}
        keys = {e: support(images[e]) for e in edge_names}
        meeting: dict[Hashable, list[str]] = {}
        for e in edge_names:
            for k in keys[e]:
                meeting.setdefault(k, []).append(e)
        kind = "CK2"
        for e in edge_names:
            for f in sorted({e}.union(*map(meeting.__getitem__, keys[e]))):
                at = (e, f)
                rhs = projection(vn[family.src[family.edge_id(e)]]) if e == f else zero
                # no local holds the product, or the last one would live on through CK3
                yield kind, at, ((product(adjoints[e], images[f]), rhs),)

        kind, start, ids = "CK3", family.recv_start, family.recv_ids
        for i, at in enumerate(vn):
            if start[i] < start[i + 1]:
                receivers = map(en.__getitem__, ids[start[i] : start[i + 1]])
                total = zero.plus([product(images[e], adjoints[e]) for e in receivers])
                yield kind, at, ((total, projection(at)),)
    except UnrepresentableTermError as exc:
        # a symbolic product without a normal form: say which instance formed it
        raise UnrepresentableTermError(f"{exc} in {kind}[{','.join(at) if kind == 'CK2' else at}]") from exc


class Catalogue:
    """One backend's report: a table with a row per identity of the
    catalogue over ``family``, then a row per check of the backend's own,
    that holds only the outcomes that differ from ``default``.

    Rows by position: from 0, ``len(ck1)`` per vertex, ``<ck1[k]>[v]``
    for the identities of CK1[v]; from ``ck2``, the CK2 grid, CK2[e,f] at
    ``ck2 + e * |E| + f`` by ids; from ``ck3``, CK3[v] per vertex of
    ``receivers``, the vertex ids that receive an edge; from ``own``, the
    ``rows`` :meth:`append` adds, each ``(prefix, rest)``: its name in two
    parts, the prefix shared with its neighbours.  ``outcomes`` maps a
    position to its outcome where :meth:`put` found that not ``default``.
    A row's name is formed from its position when it is viewed or written,
    and its view is ``view(name, outcome)``.
    """

    def __init__(self, family: Graph, ck1: tuple[str, ...], default, view: Callable = lambda *row: row):
        self.family, self.ck1, self.default, self.view = family, ck1, default, view
        self.rows: list[tuple[str, str]] = []
        self.outcomes: dict[int, X] = {}
        self.ck2 = len(family.vertex_names) * len(ck1)
        self.ck3 = self.ck2 + len(family.edge_names) ** 2
        start = family.recv_start
        self.receivers = [v for v in range(len(family.vertex_names)) if start[v] < start[v + 1]]
        self.own = self.ck3 + len(self.receivers)

    def position(self, kind: str, at) -> int:
        """The row of the instance :func:`ck_instances` states at ``at``: the first, for CK1."""
        if kind == "CK2":
            return self.ck2 + self.family.edge_id(at[0]) * len(self.family.edge_names) + self.family.edge_id(at[1])
        v = self.family.vertex_id(at)
        return v * len(self.ck1) if kind == "CK1" else self.ck3 + bisect_left(self.receivers, v)

    def append(self, prefix: str, rest: str = "") -> int:
        """The position of a new row of the backend's own."""
        self.rows.append((prefix, rest))
        return len(self) - 1

    def put(self, p: int, outcome) -> None:
        """The outcome of row ``p``, held only where it is not the default."""
        if outcome != self.default:
            self.outcomes[p] = outcome

    def __len__(self) -> int:
        return self.own + len(self.rows)

    def name(self, p: int) -> str:
        g, k = self.family, len(self.ck1)
        if p < self.ck2:
            return f"{self.ck1[p % k]}[{g.vertex_names[p // k]}]"
        if p < self.ck3:
            e, f = divmod(p - self.ck2, len(g.edge_names))
            return f"CK2[{g.edge_names[e]},{g.edge_names[f]}]"
        if p < self.own:
            return f"CK3[{g.vertex_names[self.receivers[p - self.ck3]]}]"
        return "".join(self.rows[p - self.own])

    def row(self, p: int):
        """The view of row ``p``."""
        return self.view(self.name(p), self.outcomes.get(p, self.default))

    def __iter__(self) -> Iterator:
        return map(self.row, range(len(self)))

    def held(self) -> list[int]:
        """The positions of the rows whose outcome is not the default, in order."""
        return sorted(self.outcomes)

    def written(self, write: Callable[[str], None], record: Callable[[str], str], text: Callable[[str], str]) -> Iterator:
        """The view of each held row in order, for the caller to write.
        Each row between them goes to ``write`` here, as ``record(name)``,
        its record with the default outcome; a run of them in one row of the
        CK2 grid goes as one string, cut from one record where the second
        edge goes, each edge as ``text`` writes it."""
        edges = self.family.edge_names
        names, j = [*map(text, edges)], 0
        for p in [*self.held(), len(self)]:
            while j < p:
                if self.ck2 <= j < self.ck3:
                    e, f = divmod(j - self.ck2, len(edges))
                    k = min(p, j - f + len(edges))  # the run ends at ``p`` or with its row
                    # cut at the marker, the last one in the record: only constants follow it
                    head, _, tail = record(f"CK2[{edges[e]},\0]").rpartition(text("\0"))
                    write(head + (tail + head).join(names[f : f + k - j]) + tail)
                else:
                    k = j + 1
                    write(record(self.name(j)))
                j = k
            if p < len(self):
                yield self.row(p)
            j = p + 1


def left_ends(term: CKTerm, ctx: AugmentedGraphSpec) -> set[str]:
    """The keys at the left end of each monomial of ``term``: the symbolic
    backend's ``support``.

    ``s_alpha t^k s_beta*`` starts with the edge ``alpha[0]``, and a product
    ``m* n`` of monomials that start with distinct edges has the factor
    ``s_e* s_f = 0``.  When ``alpha`` is empty, the monomial starts at its
    source ``v``, which meets ``v`` and each edge into ``v``, so it is keyed
    by all of them.  A vertex and an edge of one name share a key, which
    only multiplies a pair more.
    """
    keys: set[str] = set()
    for m in term.monomials():
        keys.update((m.alpha[0],) if m.alpha else (m.source, *ctx.receivers(m.source)))
    return keys


class RelationStatus(Enum):
    PROVED = "PROVED"
    FAILED = "FAILED"
    RECORDED = "RECORDED"


class RelationCheck:
    """The view of one row of a symbolic report: its name, ``relation``, and
    its outcome, ``(status, difference, note)``."""

    __slots__ = ("relation", "status", "difference", "note")

    def __init__(self, relation: str, outcome: tuple[RelationStatus, CKTerm | None, str]):
        self.relation = relation
        self.status, self.difference, self.note = outcome


class RelationReport(SimpleNamespace):
    """``checks``, a :class:`Catalogue` whose outcomes are ``(status,
    difference, note)``, PROVED with no note by default, and whose rows are
    viewed as :class:`RelationCheck`."""


_PROVED = (RelationStatus.PROVED, None, "")


def verify_ck_family(gmap: GeneratorMap, spec: AugmentedGraphSpec) -> RelationReport:
    """Check every catalogued relation instance of the mapped family exactly.

    The receiver-sum relation is compared directly first; when the direct
    normal forms differ, the projection side is expanded by the host
    graph's own receiver sum, which is exactly how multi-receiver vertices
    are handled without breaking confluence.
    """
    checks = Catalogue(spec.graph, ("CK1",), _PROVED, RelationCheck)
    expanded = (RelationStatus.PROVED, None, "equal after receiver expansion in the host graph")
    for kind, at, identities in ck_instances(
        checks.family,
        gmap.edge_map,
        lambda w: projection(spec, w),
        adjoint,
        lambda a, b: multiply(a, b, spec),
        lambda a: left_ends(a, spec),
        CKTerm.zero(),
    ):
        for lhs, rhs in identities:  # the first that differs decides
            if lhs != rhs:
                rhs = expand_ck3(rhs, at, spec) if kind == "CK3" else rhs
                checks.put(checks.position(kind, at), expanded if lhs == rhs else (RelationStatus.FAILED, lhs - rhs, ""))
                break
    universal = "images are generator projections of the host algebra, nonzero by universality"
    checks.put(checks.append("NONZERO[vertex projections]"), (RelationStatus.RECORDED, None, universal))
    numeric = "full-circle spectrum is not a rewrite fact; checked numerically"
    for rep in spec.replacements:
        checks.put(checks.append(f"SPECTRUM[{' '.join(rep.loop.edges)}]"), (RelationStatus.RECORDED, None, numeric))
    return RelationReport(checks=checks)
