import pytest
from hypothesis import given, settings

from afembed.embedding import AugmentedGraphSpec, GeneratorMap, embed, genmap_from_text, genmap_to_text
from afembed.graph import parse_graph
from afembed.loops import classify
from afembed.terms import (
    NormalMonomial,
    CKTerm,
    adjoint,
    multiply,
    path_isometry,
    projection,
)
from afembed.verify import RelationStatus, verify_ck_family, verify_witness

from .oracles import all_order_normal_forms
from .strategies import condition5_graphs, entrance_graphs


class TestVerifyCKFamily:
    def test_square_all_proved(self, square_embedding):
        spec, gmap = square_embedding
        report = verify_ck_family(gmap, spec)
        assert report.all_proved
        assert report.find("CK2[e1,e1]").status is RelationStatus.PROVED
        assert report.find("CK2[e1,e2]").status is RelationStatus.PROVED
        assert report.find("CK3[u2]").status is RelationStatus.PROVED

    def test_identity_map_on_acyclic(self):
        g = parse_graph(
            "vertex a\nvertex b\nvertex c\nedge e a b\nedge f a b\nedge g b c\n"
        )
        spec, gmap = embed(g)
        report = verify_ck_family(gmap, spec)
        assert report.all_proved
        # b has two receivers: proved via receiver expansion, not contraction
        assert "expansion" in report.find("CK3[b]").note

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
        report = verify_ck_family(GeneratorMap(bad_edges), spec)
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
        bad = EntranceWitness(w.loop, w.entry_vertex, w.entry_edge, w.alpha, w.alpha)
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
        s_a = path_isometry(ctx, w.alpha.edges)
        s_b = path_isometry(ctx, w.beta.edges)
        assert multiply(adjoint(s_a), s_a, ctx) == projection(ctx, w.alpha.source)
        assert multiply(adjoint(s_a), s_b, ctx).is_zero
