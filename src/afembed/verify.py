"""Mechanical relation checking for mapped generator families.

The relation instances are listed once, by :func:`ck_instances`; the exact
checker here and the numeric residuals of :mod:`afembed.numrep` both
evaluate that one catalogue, each with its own algebra.

Most CK2 instances are zero by orthogonality of ranges: distinct edges
have orthogonal ranges (Raeburn, *Graph Algebras*, CBMS 103, 2005, Ch. 1),
so ``img(e)* img(f)`` vanishes when the two images cannot meet from the
left.  Each backend names the places an image meets another from the left,
its ``support``, and the catalogue multiplies only the pairs whose supports
share one; every other pair is the backend's zero, exactly what the product
would be.

A check is PROVED only by exact normal-form equality in the symbolic
engine.  Two obligations of the standard uniqueness criterion for
injectivity cannot be rewrite facts and are reported as RECORDED: the
mapped vertex projections are nonzero (they are generator projections of
the host algebra), and each replaced loop's image must have full circle
spectrum, which is checked numerically by the truncated representation
instead.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Collection, Hashable, Iterator, Mapping, TypeVar

from .embedding import AugmentedGraphSpec, GeneratorMap
from .graph import Graph
from .loops import EntranceWitness, validate_witness
from .terms import CKTerm, NormalMonomial, StarContext, adjoint, expand_ck3, isometry, multiply, projection

X = TypeVar("X")


def ck_instances(
    family: Graph,
    images: Mapping[str, X],
    projection: Callable[[str], X],
    adjoint: Callable[[X], X],
    product: Callable[[X, X], X],
    support: Callable[[X], Collection[Hashable]],
    zero: X,
) -> Iterator[tuple[str, str | None, tuple[tuple[str, X, X], ...]]]:
    """The CK1-CK3 instances of the family ``images`` over ``family``.

    Yields ``(family, vertex, identities)`` per instance, where ``vertex``
    is the vertex a CK1 or CK3 instance is stated at (None for CK2) and
    ``identities`` are ``(name, lhs, rhs)`` triples; the first name names
    the instance.  CK1[v] holds two identities, ``p p = p`` (CK1[v]) and
    ``p* = p`` (CK1*[v]); CK2[e,f] is ``img(e)* img(f) = delta_ef
    p(source(e))``; CK3[v] is the receiver sum ``sum_e img(e) img(e)* =
    p(v)`` at each vertex that receives an edge.  Each backend passes its
    own operations (its ``+`` is the sum); each adjoint is computed once
    per edge.

    ``support(x)`` gives keys such that ``adjoint(x) y`` is zero unless
    ``support(x)`` and ``support(y)`` share one: the ranges of distinct
    edges are orthogonal (Raeburn, *Graph Algebras*, CBMS 103, 2005,
    Ch. 1), so for the constructed map the symbolic CK2 takes
    sum_v |recv(v)|^2 products rather than |E|^2.  A superset of the keys
    is safe, a subset is not.  Through an inverted index from key to
    edges, CK2[e,f] is ``product(adjoint(img(e)), img(f))`` when the
    supports meet or ``e == f`` (its right-hand side is not zero), and
    ``zero`` otherwise.
    """
    vn, en = family.vertex_names, family.edge_names  # sorted, as ids number them
    for v in vn:
        p = projection(v)
        yield "CK1", v, ((f"CK1[{v}]", product(p, p), p), (f"CK1*[{v}]", adjoint(p), p))

    edge_names = sorted(images)
    adjoints = {e: adjoint(images[e]) for e in edge_names}
    keys = {e: support(images[e]) for e in edge_names}
    meeting: dict[Hashable, list[str]] = {}
    for e in edge_names:
        for k in keys[e]:
            meeting.setdefault(k, []).append(e)
    for e in edge_names:
        partners = {e}.union(*map(meeting.__getitem__, keys[e]))
        for f in edge_names:
            rhs = projection(vn[family.src[family.edge_id(e)]]) if e == f else zero
            # no local holds the product, or the last one would live on through CK3
            yield "CK2", None, ((f"CK2[{e},{f}]", product(adjoints[e], images[f]) if f in partners else zero, rhs),)

    start, ids = family.recv_start, family.recv_ids
    for i, v in enumerate(vn):
        if start[i] < start[i + 1]:
            total = zero
            for e in map(en.__getitem__, ids[start[i] : start[i + 1]]):
                total = total + product(images[e], adjoints[e])
            yield "CK3", v, ((f"CK3[{v}]", total, projection(v)),)


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


class RelationReport:
    __slots__ = ("checks",)

    def __init__(self, checks: tuple[RelationCheck, ...]):
        self.checks = checks

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
    checks: list[RelationCheck] = []
    for family, v, identities in ck_instances(
        spec.original_graph(),
        gmap.edge_map,
        lambda w: projection(spec, w),
        adjoint,
        lambda a, b: multiply(a, b, spec),
        lambda a: left_vertices(a, spec),
        CKTerm.zero(),
    ):
        name = identities[0][0]
        failed = [(lhs, rhs) for _, lhs, rhs in identities if lhs != rhs]
        if not failed:
            checks.append(RelationCheck(name, RelationStatus.PROVED))
            continue
        lhs, rhs = failed[0]
        if family == "CK3":
            rhs = expand_ck3(rhs, v, spec)
            if lhs == rhs:
                note = "equal after receiver expansion in the host graph"
                checks.append(RelationCheck(name, RelationStatus.PROVED, note=note))
                continue
        checks.append(RelationCheck(name, RelationStatus.FAILED, difference=lhs - rhs))
    checks.append(
        RelationCheck(
            "NONZERO[vertex projections]",
            RelationStatus.RECORDED,
            note="images are generator projections of the host algebra, nonzero by universality",
        )
    )
    for rep in spec.replacements:
        loop_name = " ".join(rep.loop.edges)
        checks.append(
            RelationCheck(
                f"SPECTRUM[{loop_name}]",
                RelationStatus.RECORDED,
                note="full-circle spectrum is not a rewrite fact; checked numerically",
            )
        )
    return RelationReport(tuple(checks))


def verify_witness(w: EntranceWitness, g: Graph) -> RelationReport:
    """Prove the algebraic content of the infinite-projection chain."""
    validate_witness(g, w)
    ctx = AugmentedGraphSpec(g, ())
    # the loop ``(e_n, ..., e_1)`` is a path from its base to its base
    s_alpha = CKTerm.of(NormalMonomial(w.loop.edges, 0, (), w.loop.base))
    s_beta = isometry(ctx, w.entry.name)
    checks = (
        _identity_check(
            "WITNESS[alpha*alpha]",
            multiply(adjoint(s_alpha), s_alpha, ctx),
            projection(ctx, w.loop.base),
        ),
        _identity_check(
            "WITNESS[beta*beta]",
            multiply(adjoint(s_beta), s_beta, ctx),
            projection(ctx, w.entry.source),
        ),
        _identity_check(
            "WITNESS[alpha*beta]",
            multiply(adjoint(s_alpha), s_beta, ctx),
            CKTerm.zero(),
        ),
    )
    return RelationReport(checks)
