"""Mechanical relation checking for mapped generator families.

The relation instances are listed once, by :func:`ck_instances`; the exact
checker here and the numeric residuals of :mod:`afembed.numrep` both
evaluate that one catalogue, each with its own algebra.

Most CK2 instances are zero by orthogonality of ranges: distinct edges
have orthogonal ranges (Raeburn, *Graph Algebras*, CBMS 103, 2005, Ch. 1),
so ``img(e)* img(f)`` vanishes when the two images cannot meet from the
left.  Each backend names the places an image meets another from the left,
its ``support``, and the catalogue multiplies only the pairs whose supports
share one; every other pair is zero on both sides, exactly what the product
would be, and is never built: a :class:`Catalogue` holds the reports on the
multiplied instances and stands for the rest, so a report's size grows with
the products, not with |E|^2.

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
from .loops import EntranceWitness, validate_witness
from .terms import CKTerm, NormalMonomial, StarContext, UnrepresentableTermError, adjoint, expand_ck3, isometry, multiply, projection

X = TypeVar("X")


def ck_instances(
    family: Graph,
    images: Mapping[str, X],
    projection: Callable[[str], X],
    adjoint: Callable[[X], X],
    product: Callable[[X, X], X],
    support: Callable[[X], Collection[Hashable]],
    zero: X,
) -> Iterator[tuple[str, str | tuple[str, str], tuple[tuple[str, X, X], ...]]]:
    """The CK1-CK3 instances of the family ``images`` over ``family``.

    Yields ``(family, at, identities)`` per instance, where ``at`` is the
    vertex a CK1 or CK3 instance is stated at, or the pair ``(e, f)`` of
    CK2[e,f], and ``identities`` are ``(name, lhs, rhs)`` triples; the
    first name names the instance.  CK1[v] holds two identities,
    ``p p = p`` (CK1[v]) and ``p* = p`` (CK1*[v]); CK2[e,f] is
    ``img(e)* img(f) = delta_ef p(source(e))``; CK3[v] is the receiver sum
    ``sum_e img(e) img(e)* = p(v)`` at each vertex that receives an edge.
    Each backend passes its own operations (its ``+`` is the sum); each
    adjoint is computed once per edge.

    ``support(x)`` gives keys such that ``adjoint(x) y`` is zero unless
    ``support(x)`` and ``support(y)`` share one: the ranges of distinct
    edges are orthogonal (Raeburn, *Graph Algebras*, CBMS 103, 2005,
    Ch. 1), so for the constructed map the symbolic CK2 takes
    sum_v |recv(v)|^2 products rather than |E|^2.  A superset of the keys
    is safe, a subset is not.  Through an inverted index from key to
    edges, each row CK2[e,.] yields only the pairs whose supports meet, and
    CK2[e,e] (its right-hand side is not zero), in catalogue order: every
    other pair is ``zero`` on both sides, and is not yielded at all.  A
    :class:`Catalogue` holds a backend's reports on what is yielded and
    stands for the rest.
    """
    vn, en = family.vertex_names, family.edge_names  # sorted, as ids number them
    name = ""  # the instance whose products are being formed
    try:
        for v in vn:
            p = projection(v)
            name = f"CK1[{v}]"
            yield "CK1", v, ((name, product(p, p), p), (f"CK1*[{v}]", adjoint(p), p))

        edge_names = sorted(images)
        adjoints = {e: adjoint(images[e]) for e in edge_names}
        keys = {e: support(images[e]) for e in edge_names}
        meeting: dict[Hashable, list[str]] = {}
        for e in edge_names:
            for k in keys[e]:
                meeting.setdefault(k, []).append(e)
        for e in edge_names:
            for f in sorted({e}.union(*map(meeting.__getitem__, keys[e]))):
                rhs = projection(vn[family.src[family.edge_id(e)]]) if e == f else zero
                name = f"CK2[{e},{f}]"
                # no local holds the product, or the last one would live on through CK3
                yield "CK2", (e, f), ((name, product(adjoints[e], images[f]), rhs),)

        start, ids = family.recv_start, family.recv_ids
        for i, v in enumerate(vn):
            if start[i] < start[i + 1]:
                name, total = f"CK3[{v}]", zero
                for e in map(en.__getitem__, ids[start[i] : start[i + 1]]):
                    total = total + product(images[e], adjoints[e])
                yield "CK3", v, ((name, total, projection(v)),)
    except UnrepresentableTermError as exc:
        # a symbolic product without a normal form: say which instance formed it
        raise UnrepresentableTermError(f"{exc} in {name}") from exc


class Catalogue:
    """One backend's reports on the instances :func:`ck_instances` yields,
    in its order, standing for the CK2 pairs it does not yield.

    ``head`` holds the reports before the CK2 pairs, ``pairs[e]`` the
    ``(f, report)`` of each yielded CK2[e,f], and ``tail`` the reports
    after the pairs.  Each other pair of ``edges`` (sorted) is zero on both
    sides; its report is ``skipped(name)``, built only when iteration
    reaches it.  ``len`` and iteration count every one of the |E|^2 pairs.
    """

    def __init__(self, edges: list[str], skipped: Callable[[str], X]):
        self.edges, self.skipped, self.head, self.pairs, self.tail = edges, skipped, [], {}, []

    def add(self, family: str, at, report: X) -> None:
        """A report on an instance, in the order the catalogue yields them."""
        if family == "CK2":
            self.pairs.setdefault(at[0], []).append((at[1], report))
        else:
            (self.head if family == "CK1" else self.tail).append(report)

    def __len__(self) -> int:
        return len(self.head) + len(self.edges) ** 2 + len(self.tail)

    def runs(self) -> Iterator[X | range]:
        """The held reports in order, with each run of skipped pairs between
        them as a range of grid positions, all in one row: position ``p``
        is CK2[edges[p // n],edges[p % n]] for ``n`` edges."""
        yield from self.head
        edges, n = self.edges, len(self.edges)
        for i, e in enumerate(edges):
            j = i * n
            for f, report in self.pairs.get(e, ()):
                k = i * n + bisect_left(edges, f)
                if j < k:
                    yield range(j, k)
                yield report
                j = k + 1
            if j < i * n + n:
                yield range(j, i * n + n)
        yield from self.tail

    def __iter__(self) -> Iterator[X]:
        edges, n = self.edges, len(self.edges)
        for run in self.runs():
            if isinstance(run, range):
                yield from (self.skipped(f"CK2[{edges[p // n]},{edges[p % n]}]") for p in run)
            else:
                yield run

    def written(self, write: Callable[[str], None], record: Callable[[str], str], text: Callable[[str], str]) -> Iterator[X]:
        """The held reports in order, for the caller to write; each run of
        skipped pairs between them goes to ``write`` as one string of
        ``record(name)`` per pair, cut from one record of the run's row
        where the second edge goes, each edge as ``text`` writes it."""
        names = [*map(text, self.edges)]
        for run in self.runs():
            if run.__class__ is not range:
                yield run
                continue
            i, j = divmod(run.start, len(names))
            # cut at the marker, the last one in the record: only constants follow it
            head, _, tail = record(f"CK2[{self.edges[i]},\0]").rpartition(text("\0"))
            write(head + (tail + head).join(names[j : j + len(run)]) + tail)


def left_vertices(term: CKTerm, ctx: StarContext) -> set[str]:
    """The vertex at the left end of each monomial of ``term``.

    ``s_alpha t^k s_beta*`` starts at the range of ``alpha``'s first edge,
    or at its source when ``alpha`` is empty; a product ``m* n`` of
    monomials that start at different vertices rewrites to zero at the
    seam, so this is the symbolic backend's ``support``.
    """
    return {ctx.edge_range(m.alpha[0]) if m.alpha else m.source for m in term.monomials()}


class RelationStatus(Enum):
    PROVED = "PROVED"
    FAILED = "FAILED"
    RECORDED = "RECORDED"


class RelationCheck:
    __slots__ = ("relation", "status", "difference", "note")

    def __init__(self, relation: str, status: RelationStatus, difference: CKTerm | None = None, note: str = ""):
        self.relation = relation
        self.status = status
        self.difference = difference
        self.note = note


class RelationReport(SimpleNamespace):
    """``checks``, the :class:`RelationCheck` of each instance: a
    :class:`Catalogue` from :func:`verify_ck_family`, whose skipped CK2
    pairs are PROVED, and a tuple from :func:`verify_witness`."""

    @property
    def all_proved(self) -> bool:
        return all(c.status is not RelationStatus.FAILED for c in self.checks)

    def failures(self) -> list[RelationCheck]:
        return [c for c in self.checks if c.status is RelationStatus.FAILED]

    def find(self, relation: str) -> RelationCheck:
        for c in self.checks:
            if c.relation == relation:
                return c
        raise KeyError(relation)


def _identity_check(name: str, lhs: CKTerm, rhs: CKTerm) -> RelationCheck:
    if lhs == rhs:
        return RelationCheck(name, RelationStatus.PROVED)
    return RelationCheck(name, RelationStatus.FAILED, difference=lhs - rhs)


def verify_ck_family(gmap: GeneratorMap, spec: AugmentedGraphSpec) -> RelationReport:
    """Check every catalogued relation instance of the mapped family exactly.

    The receiver-sum relation is compared directly first; when the direct
    normal forms differ, the projection side is expanded by the host
    graph's own receiver sum, which is exactly how multi-receiver vertices
    are handled without breaking confluence.
    """
    checks = Catalogue(sorted(gmap.edge_map), lambda name: RelationCheck(name, RelationStatus.PROVED))
    for family, at, identities in ck_instances(
        spec.original_graph(),
        gmap.edge_map,
        lambda w: projection(spec, w),
        adjoint,
        lambda a, b: multiply(a, b, spec),
        lambda a: left_vertices(a, spec),
        CKTerm.zero(),
    ):
        name = identities[0][0]
        check = RelationCheck(name, RelationStatus.PROVED)
        failed = [(lhs, rhs) for _, lhs, rhs in identities if lhs != rhs]
        if failed:
            lhs, rhs = failed[0]
            if family == "CK3":
                rhs = expand_ck3(rhs, at, spec)
            if lhs == rhs:
                check.note = "equal after receiver expansion in the host graph"
            else:
                check = RelationCheck(name, RelationStatus.FAILED, difference=lhs - rhs)
        checks.add(family, at, check)
    universal = "images are generator projections of the host algebra, nonzero by universality"
    checks.tail.append(RelationCheck("NONZERO[vertex projections]", RelationStatus.RECORDED, note=universal))
    numeric = "full-circle spectrum is not a rewrite fact; checked numerically"
    for rep in spec.replacements:
        checks.tail.append(RelationCheck(f"SPECTRUM[{' '.join(rep.loop.edges)}]", RelationStatus.RECORDED, note=numeric))
    return RelationReport(checks=checks)


def verify_witness(w: EntranceWitness, g: Graph) -> RelationReport:
    """Prove the algebraic content of the infinite-projection chain."""
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
    return RelationReport(checks=tuple(_identity_check(*identity) for identity in identities))
