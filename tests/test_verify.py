import itertools
import operator
import re
from functools import partial
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afembed import numrep, verify
from afembed.embedding import AugmentedGraphSpec, GeneratorMap, MultiplicitySeq, embed, genmap_from_text, genmap_to_text
from afembed.graph import load_graph, parse_graph
from afembed.loops import EntranceExistsError, EntranceWitness, classify
from afembed.numrep import Operator, build_rep, last_edges, op_of_term, relation_residuals
from afembed.terms import (
    NormalMonomial,
    CKTerm,
    adjoint,
    multiply,
    projection,
    term_of_word,
)
from afembed.verify import Catalogue, RelationStatus, ck_instances, left_ends, verify_ck_family, verify_witness

from .oracles import all_order_normal_forms, reference_ck_instances
from .strategies import condition5_graphs, entrance_graphs, multigraphs
from .test_golden import GOLDEN


class TestVerifyCKFamily:
    def test_square_all_proved(self, square_embedding):
        spec, gmap = square_embedding
        report = verify_ck_family(gmap, spec)
        assert report.all_proved
        checks = {c.relation: c for c in report.checks}
        assert checks["CK2[e1,e1]"].status is RelationStatus.PROVED
        assert checks["CK2[e1,e2]"].status is RelationStatus.PROVED
        assert checks["CK3[u2]"].status is RelationStatus.PROVED

    def test_identity_map_on_acyclic(self):
        g = parse_graph(
            "vertex a\nvertex b\nvertex c\nedge e a b\nedge f a b\nedge g b c\n"
        )
        spec, gmap = embed(g)
        report = verify_ck_family(gmap, spec)
        assert report.all_proved
        # b has two receivers: proved via receiver expansion, not contraction
        assert "expansion" in {c.relation: c for c in report.checks}["CK3[b]"].note

    def test_spectrum_obligation_recorded(self, square_embedding):
        spec, gmap = square_embedding
        report = verify_ck_family(gmap, spec)
        recorded = [c for c in report.checks if c.status is RelationStatus.RECORDED]
        assert any(c.relation.startswith("SPECTRUM") for c in recorded)
        assert any(c.relation.startswith("NONZERO") for c in recorded)

    def test_corrupted_map_without_t_still_proves_relations(self, square_embedding):
        """Dropping the unitary from one image leaves all CK relations intact;
        only the (numerically checked) spectrum obligation can expose it."""
        spec, gmap = square_embedding
        text = genmap_to_text(gmap, spec).replace("s(T1.f2) t(T1) s*(T1.f1)", "s(T1.f2) s*(T1.f1)")
        corrupted = genmap_from_text(text, spec)
        assert corrupted.edge_map != gmap.edge_map
        report = verify_ck_family(corrupted, spec)
        assert report.all_proved
        assert any(c.relation.startswith("SPECTRUM") for c in report.checks)

    def test_broken_image_is_flagged_with_difference(self, square_embedding):
        spec, gmap = square_embedding
        bad_edges = dict(gmap.edge_map)
        bad_edges["e1"] = CKTerm.of(NormalMonomial(("T1.f3",), 1, ("T1.f1",), "T1.v"))
        report = verify_ck_family(GeneratorMap(edge_map=bad_edges), spec)
        assert not report.all_proved
        failed = report.failures()
        assert any(c.relation == "CK3[u2]" for c in failed)
        assert all(c.difference is not None and not c.difference.is_zero for c in failed)

    @given(condition5_graphs())
    @settings(max_examples=40, deadline=None)
    def test_all_relations_proved_for_embeddings(self, g):
        spec, gmap = embed(g)
        assert verify_ck_family(gmap, spec).all_proved


class TestVerifyWitness:
    def test_two_self_loop_witness(self, two_self_loops):
        w = classify(two_self_loops).witness
        report = verify_witness(w, two_self_loops)
        assert report.all_proved
        assert len(report.checks) == 3

    def test_square_plus_entrance_cross_checked(self, square_plus_entrance):
        g = square_plus_entrance
        w = classify(g).witness
        ctx = AugmentedGraphSpec(g, ())
        report = verify_witness(w, g)
        assert report.all_proved
        # cross-check each identity by the exhaustive rewrite-order oracle
        alpha_word = tuple(("s*", e) for e in reversed(w.alpha.edges)) + tuple(
            ("s", e) for e in w.alpha.edges
        )
        forms = all_order_normal_forms(ctx, alpha_word)
        assert forms == {(("p", w.alpha.source),)}
        ortho_word = tuple(("s*", e) for e in reversed(w.alpha.edges)) + tuple(
            ("s", e) for e in w.beta.edges
        )
        assert all_order_normal_forms(ctx, ortho_word) == {None}

    def test_equal_paths_rejected(self, two_self_loops):
        from afembed.loops import EntranceWitness, InvalidWitnessError

        w = classify(two_self_loops).witness
        # on a self-loop, beta == alpha exactly when the entry edge is the loop's
        bad = EntranceWitness(w.loop, two_self_loops.edge(w.loop.edges[0]))
        with pytest.raises(InvalidWitnessError):
            verify_witness(bad, two_self_loops)

    @given(entrance_graphs())
    @settings(max_examples=60, deadline=None)
    def test_generated_witnesses_prove(self, g):
        w = classify(g).witness
        ctx = AugmentedGraphSpec(g, ())
        report = verify_witness(w, g)
        assert report.all_proved
        # the algebraic content directly
        s_a = term_of_word(ctx, [("s", e) for e in w.alpha.edges])
        s_b = term_of_word(ctx, [("s", e) for e in w.beta.edges])
        assert multiply(adjoint(s_a), s_a, ctx) == projection(ctx, w.alpha.source)
        assert multiply(adjoint(s_a), s_b, ctx).is_zero

    def test_identity_check_reports_a_difference(self, two_self_loops):
        """``validate_witness`` stops every witness that could fail an
        identity, so the proof's own check is exercised past it: with
        ``beta = alpha``, ``alpha* beta`` is ``p(base)``, not zero."""
        g = two_self_loops
        w = classify(g).witness
        bad = EntranceWitness(w.loop, g.edge(w.loop.edges[0]))
        with mock.patch.object(verify, "validate_witness", lambda g, w: None):
            report = verify_witness(bad, g)
        assert not report.all_proved and len(report.checks) == 3
        (failed,) = report.failures()
        assert (failed.relation, failed.status) == ("WITNESS[alpha*beta]", RelationStatus.FAILED)
        assert failed.difference == projection(AugmentedGraphSpec(g, ()), w.loop.base)
        proved = [(c.relation, c.status, c.difference, c.note) for c in report.checks][:2]
        assert proved == [(f"WITNESS[{x}*{x}]", RelationStatus.PROVED, None, "") for x in ("alpha", "beta")]


# --- cross-range CK2 pairs: skipped by support, as if multiplied out


def ck2_products(spec: AugmentedGraphSpec, gmap: GeneratorMap) -> int:
    """How many products the catalogue makes for its CK2 instances."""
    calls = 0

    def product(a, b):
        nonlocal calls
        calls += 1
        return multiply(a, b, spec)

    ck2 = before = 0
    for family, _, _ in ck_instances(
        spec.graph,
        gmap.edge_map,
        lambda v: projection(spec, v),
        adjoint,
        product,
        lambda a: left_ends(a, spec),
        CKTerm.zero(),
    ):
        if family == "CK2":  # an instance's products are made before it is yielded
            ck2 += calls - before
        before = calls
    return ck2


def cycle(n: int):
    return parse_graph("".join(f"vertex u{i}\n" for i in range(n)) + "".join(f"edge e{i} u{i} u{(i + 1) % n}\n" for i in range(n)))


_F_EDGE = re.compile(r"T\d+\.f\d+")
_ATOM = re.compile(r"(?:s\*?|p)\([^()\s]+\)|t\(T\d+\)")
_COEFFICIENT = st.sampled_from(["-1", "1/2", "i", "(3/5+4/5i)", "-2i"])


@st.composite
def mapped_families(draw):
    """A spec, a generator map and a depth: the constructed map of a random
    multigraph at a random ``--mult`` (the identity map if a loop has an
    entrance) with up to three of its images summed, f-swapped, phased,
    given a tail power, cut down by a term or an atom, or zeroed."""
    g = draw(condition5_graphs(max_loops=2) | multigraphs(max_vertices=5, max_edges=8))
    try:
        spec, gmap = embed(g, MultiplicitySeq.parse(draw(st.sampled_from(["2", "3", "1,3;2"]))))
    except EntranceExistsError:
        spec = AugmentedGraphSpec(g, ())
        lines = [f"{e} = s({e})" for e in g.edge_names]
    else:
        lines = genmap_to_text(gmap, spec).splitlines()[1:]
    assume(lines)
    names = [line.partition(" = ")[0] for line in lines]
    images = [line.partition(" = ")[2] for line in lines]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(images) - 1))
        action = draw(st.sampled_from(["sum", "sum", "fswap", "phase", "power", "drop", "zero"]))
        if action == "sum":
            other = draw(st.sampled_from(images + [f"p({v})" for v in g.vertex_names]))
            images[i] = f"{images[i]} + {draw(_COEFFICIENT)} ({other})"
        elif action == "fswap":
            fs = sorted(set(_F_EDGE.findall(" ".join(images))))
            if len(fs) >= 2:
                a, b = draw(st.permutations(fs))[:2]
                images[i] = _F_EDGE.sub(lambda m: {a: b, b: a}.get(m.group(0), m.group(0)), images[i])
        elif action == "phase":
            images[i] = f"{draw(_COEFFICIENT)} ({images[i]})"
        elif action == "power":
            images[i] = re.sub(r"t\(T\d+\)", lambda m: f"{m.group(0)}^{draw(st.sampled_from([2, -1, 3]))}", images[i], count=1)
        elif action == "drop":
            summands = images[i].split(" + ")
            if len(summands) > 1:
                del summands[draw(st.integers(0, len(summands) - 1))]
            else:
                atoms = _ATOM.findall(summands[0])
                if len(atoms) > 1:
                    del atoms[draw(st.integers(0, len(atoms) - 1))]
                summands = [" ".join(atoms)]
            images[i] = " + ".join(summands)
        else:
            images[i] = "0"
    try:
        gmap = genmap_from_text("".join(f"{e} = {img}\n" for e, img in zip(names, images)), spec)
    except ValueError:
        assume(False)
    return spec, gmap, draw(st.integers(1, 3))


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def symbolic_checks(spec, gmap):
    report = verify_ck_family(gmap, spec)
    return [(c.relation, c.status, c.difference, c.note) for c in report.checks]


def numeric_entries(spec, gmap, depth):
    """Every residual and boundary defect, each value as its bits (sign included)."""
    report = relation_residuals(build_rep(spec, depth), gmap)
    return [(name, value.hex()) for name, value in report.entries], [(name, value.hex()) for name, value in report.boundary_defects]


def numeric_sides(spec, gmap, depth):
    """Each identity of the catalogue over the stage's operators, unmasked:
    its name and the entries of both sides, each value as its bits; a CK2
    pair the catalogue does not yield has zero on both sides."""
    rep = build_rep(spec, depth)
    ops = {e: op_of_term(term, rep) for e, term in gmap.edge_map.items()}
    zero = Operator(rep.dimension)

    def bits(op):
        src, tgt, values = op.entries()
        return src, tgt, [(v.real.hex(), v.imag.hex()) for v in values]

    family = spec.graph
    sides = Catalogue(family, ("CK1", "CK1*"), (bits(zero), bits(zero)))
    for kind, at, identities in numrep.ck_instances(
        family, ops, rep.P.__getitem__, Operator.adjoint, operator.matmul, partial(last_edges, rep), zero
    ):
        for k, (lhs, rhs) in enumerate(identities):
            sides.put(sides.position(kind, at) + k, (bits(lhs), bits(rhs)))
    return list(sides)


def both_backends(spec, gmap, depth):
    """The symbolic checks, the residuals and defects, and the catalogue's
    numeric sides: what a catalogue that skips a product could change."""
    return (
        outcome(symbolic_checks, spec, gmap),
        outcome(numeric_entries, spec, gmap, depth),
        outcome(numeric_sides, spec, gmap, depth),
    )


def multiplied_out(family, images, projection, adjoint, product, support, zero):
    """The reference catalogue, every CK2 pair multiplied out; each CK2
    instance is stated at its pair, and each identity as its two sides, as
    ``ck_instances`` states them."""
    pairs = itertools.product(sorted(images), repeat=2)
    for kind, at, identities in reference_ck_instances(family, images, projection, adjoint, product, zero):
        yield kind, next(pairs) if kind == "CK2" else at, tuple((lhs, rhs) for _, lhs, rhs in identities)


class TestCrossRangeLemma:
    """CK2 pairs whose supports do not meet are the backend's zero, without a
    product; everything else is multiplied out as before."""

    @pytest.mark.parametrize("n", [1, 2, 5, 48])
    def test_cycle_takes_one_product_per_edge(self, n):
        g = cycle(n)
        spec, gmap = embed(g)
        assert ck2_products(spec, gmap) == n == sum((hi - lo) ** 2 for lo, hi in zip(g.recv_start, g.recv_start[1:]))

    @pytest.mark.parametrize("name, products, pairs", [("cycles_dag", 11, 121), ("crowded", 6, 36)])
    def test_constructed_map_takes_same_range_pairs_only(self, name, products, pairs):
        """Each image of the constructed map starts with its own edge, so
        only CK2[e,e] meets: one product per edge."""
        g = load_graph((GOLDEN / f"{name}.txt").read_text())
        spec, gmap = embed(g)
        assert len(g.edge_names) ** 2 == pairs
        assert ck2_products(spec, gmap) == products == len(g.edge_names)

    @pytest.mark.parametrize("k", [1, 10, 1000])
    def test_an_in_star_takes_one_product_per_edge(self, k):
        """k edges into one vertex: distinct edges have orthogonal ranges, so
        k CK2 products, not k^2, and a report that holds no CK2 outcome."""
        g = parse_graph("vertex c\n" + "".join(f"vertex s{i}\nedge e{i} s{i} c\n" for i in range(k)))
        spec, gmap = embed(g)
        assert ck2_products(spec, gmap) == k
        checks = verify_ck_family(gmap, spec).checks
        assert len(checks) == (k + 1) + k * k + 1 + 1 and [p for p in checks.outcomes if checks.ck2 <= p < checks.ck3] == []

    @settings(max_examples=120, deadline=None)
    @given(family=mapped_families())
    def test_both_backends_match_the_full_catalogue(self, family):
        spec, gmap, depth = family
        skipped = both_backends(spec, gmap, depth)
        with mock.patch.object(verify, "ck_instances", multiplied_out), mock.patch.object(numrep, "ck_instances", multiplied_out):
            full = both_backends(spec, gmap, depth)
        assert skipped == full
