import cmath
import math
import struct
from pathlib import Path as FsPath

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afembed import embedding, numrep, sparse
from afembed.cli import build_parser
from afembed.embedding import (
    MultiplicitySeq,
    StageTooLargeError,
    embed,
    materialize,
)
from afembed.graph import Graph, Path, load_graph
from afembed.loops import Verdict, classify
from afembed.notation import genmap_from_text, genmap_to_text
from afembed.numrep import (
    _basis_rows,
    _tail_phase,
    _compress,
    _level_phases,
    _tail_power,
    DenseSpectrumTooLargeError,
    Operator,
    PathBasis,
    Piece,
    RepresentationError,
    build_rep,
    loop_product,
    loop_spectrum,
    op_of_term,
    relation_residuals,
    spectral_net_bound,
)
from afembed.sparse import _multiset_mismatch
from afembed.terms import NormalMonomial, CKTerm

from .conftest import growth_ratio
from .oracles import (
    basis_paths,
    interior_mask,
    reference_adjoint,
    reference_after,
    reference_column_norm,
    reference_compress,
    reference_difference,
    reference_frobenius,
    reference_loop_entries,
    reference_multiset_mismatch,
    reference_spectrum_distances,
    reference_tail_entries,
    reference_tail_power,
    sorted_path_basis,
    term_of_word,
    toarray,
)
from .strategies import condition5_graphs, multigraphs
from .test_golden import CASES, GOLDEN, resolve

ALG_TOL = 1e-12
SPEC_TOL = 1e-10


@pytest.fixture(scope="module")
def square_rep(square_embedding):
    spec, _ = square_embedding
    return build_rep(spec, 4)


def _interior(rep):
    """Dense projector onto the interior paths, lengths 1 .. depth-1."""
    return np.diag(
        [1.0 if 1 <= len(p.edges) <= rep.depth - 1 else 0.0 for p in basis_paths(rep)]
    ).astype(np.complex128)


class TestBuildRep:
    def test_depth_zero_rejected(self, square_embedding):
        spec, _ = square_embedding
        with pytest.raises(RepresentationError):
            build_rep(spec, 0)

    def test_corner_block_sizes(self, square_embedding):
        spec, _ = square_embedding
        rep = build_rep(spec, 3)
        levels = rep.corner_levels["T1"]
        assert [len(level) for level in levels] == [1, 2, 4, 8]
        assert sum(len(level) for level in levels) == 15

    def test_depth_one_block_is_plus_minus_one(self, square_embedding):
        spec, _ = square_embedding
        rep = build_rep(spec, 1)
        level1 = rep.corner_levels["T1"][1]
        t = toarray(rep.T["T1"])
        entries = [complex(t[i, i]) for i in level1]
        assert np.allclose(sorted(entries, key=lambda z: z.real), [-1.0, 1.0])

    def test_unitary_on_corner(self, square_rep):
        t = toarray(square_rep.T["T1"])
        p_v = toarray(square_rep.P["T1.v"])
        assert np.max(np.abs(t @ t.conj().T - p_v)) <= ALG_TOL
        assert np.max(np.abs(t.conj().T @ t - p_v)) <= ALG_TOL

    def test_t_supported_on_corner(self, square_rep):
        t = toarray(square_rep.T["T1"])
        p_v = toarray(square_rep.P["T1.v"])
        assert np.max(np.abs(p_v @ t - t)) == 0.0
        assert np.max(np.abs(t @ p_v - t)) == 0.0

    def test_generator_co_isometry_exact_below_boundary(self, square_rep):
        """S[e]* S[e] = P[source(e)] exactly on all paths shorter than the
        depth, vertex vectors included; only the boundary layer truncates."""
        mask = np.diag(
            [1.0 if len(p.edges) <= square_rep.depth - 1 else 0.0 for p in basis_paths(square_rep)]
        ).astype(np.complex128)
        for e in square_rep.graph.edges:
            s = toarray(square_rep.S[e.name])
            diff = (s.conj().T @ s - toarray(square_rep.P[e.source])) @ mask
            assert np.max(np.abs(diff)) == 0.0

    def test_edge_isometry_action(self, square_rep):
        s = toarray(square_rep.S["T1.f1"])
        # moves each corner path of length < d to its f1-extension
        paths = basis_paths(square_rep)
        out = s @ np.eye(square_rep.dimension)[:, paths.index(Path((), "T1.v", "T1.v"))]
        target = Path(("T1.f1",), "T1.v", square_rep.graph.edge("T1.f1").range)
        assert out[paths.index(target)] == 1.0
        assert np.sum(np.abs(out)) == 1.0


class TestOpOfTerm:
    def test_projection_trace_counts_paths(self, square_rep):
        p = op_of_term(CKTerm.of(NormalMonomial((), 0, (), "u1")), square_rep)
        ranging = [q for q in basis_paths(square_rep) if q.range == "u1"]
        assert abs(toarray(p).trace() - len(ranging)) < 1e-14

    def test_mapped_edge_is_partial_isometry(self, square_embedding, square_rep):
        spec, gmap = square_embedding
        a = toarray(op_of_term(gmap.edge_map["e1"], square_rep))
        pi = _interior(square_rep)
        p_u1 = toarray(op_of_term(CKTerm.of(NormalMonomial((), 0, (), "u1")), square_rep))
        diff = pi @ (a.conj().T @ a - p_u1) @ pi
        assert np.max(np.abs(diff)) <= ALG_TOL

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_normal_form_matches_word_product(self, square_embedding, data):
        """Symbolic normalization and raw matrix multiplication agree on the
        interior compression."""
        spec, _ = square_embedding
        rep = build_rep(spec, 3)
        pool = [("p", "u1"), ("p", "T1.v")]
        for e in ("T1.f1", "T1.f2", "T1.b1.1", "T1.b1.2", "T1.b2.1"):
            pool.append(("s", e))
            pool.append(("s*", e))
        pool.append(("t", "T1", 1))
        pool.append(("t", "T1", -1))
        n = data.draw(st.integers(min_value=1, max_value=5))
        word = tuple(data.draw(st.sampled_from(pool)) for _ in range(n))
        try:
            term = term_of_word(spec, word)
        except Exception:
            assume(False)
            return
        symbolic = toarray(op_of_term(term, rep))
        numeric = np.eye(rep.dimension, dtype=np.complex128)
        for atom in reversed(word):
            numeric = _atom_matrix(rep, atom) @ numeric
        pi = _interior(rep)
        diff = pi @ (symbolic - numeric) @ pi
        assert np.max(np.abs(diff)) <= SPEC_TOL

    def test_tail_exponent_beyond_the_deepest_level_is_reduced(self, square_embedding):
        """Every level size divides ``N_d``, so ``T^(N_d)`` is the corner
        projection, and an exponent beyond ``N_d`` is evaluated as its
        representative in ``1 .. N_d``, which the products form as before."""
        spec, _ = square_embedding
        rep = build_rep(spec, 3)
        period = len(rep.corner_levels["T1"][-1])
        assert period == 8
        corner = toarray(rep.P["T1.v"])
        for k in (*range(-3 * period, 0), *range(1, 3 * period + 1)):
            op = op_of_term(CKTerm.of(NormalMonomial((), k, (), "T1.v")), rep)
            dense = _atom_matrix(rep, ("t", "T1", k))
            assert np.max(np.abs(toarray(op) - dense)) <= SPEC_TOL, k
            reduced = (abs(k) - 1) % period + 1
            same = op_of_term(CKTerm.of(NormalMonomial((), reduced if k > 0 else -reduced, (), "T1.v")), rep)
            assert repr(op) == repr(same), k  # to the bit, signed zeros included
            if k % period == 0:
                assert np.max(np.abs(dense - corner)) <= SPEC_TOL, k


def _atom_matrix(rep, atom):
    """Dense matrix of one word atom, built from the generators alone."""
    if atom[0] == "p":
        return toarray(rep.P[atom[1]])
    if atom[0] == "s":
        return toarray(rep.S[atom[1]])
    if atom[0] == "s*":
        return toarray(rep.S[atom[1]]).conj().T
    ns, k = atom[1], atom[2]
    base = toarray(rep.T[ns]) if k > 0 else toarray(rep.T[ns]).conj().T
    out = base
    for _ in range(abs(k) - 1):
        out = out @ base
    return out


class TestRelationResiduals:
    def test_square_all_within_tolerance(self, square_embedding, square_rep):
        spec, gmap = square_embedding
        report = relation_residuals(square_rep, gmap)
        assert report.entries
        assert report.max_residual <= ALG_TOL

    def test_boundary_defect_is_exactly_one(self, square_embedding, square_rep):
        spec, gmap = square_embedding
        report = relation_residuals(square_rep, gmap)
        assert len(report.boundary_defects) == 4
        for _, value in report.boundary_defects:
            assert value == pytest.approx(1.0, abs=1e-14)

    def test_loop_longer_than_the_deepest_level_keeps_its_power(self):
        """A 1,000-cycle at depth 6, where ``N_6 = 64``: the closed side of
        ``LOOP:power`` once reduced ``t^1000`` to ``t^40``, whose rounded
        phases differed from the 1,000 products of the loop side by 1.09e-12,
        beyond the tolerance ``verify`` applies.

        The spectrum reads the phases of that same ``t^1000``, and its
        modulus deviation grows with n: 6.5e-14 here, 1.3e-13 on C2000.
        The stage ceiling admits C_n at depth 6 up to n of about 16,000,
        where that is about 1e-12, a hundredth of the spectral tolerance."""
        n = 1000
        g = load_graph("".join(f"vertex u{i}\n" for i in range(n)) + "".join(f"edge e{i} u{i} u{(i + 1) % n}\n" for i in range(n)))
        spec, gmap = embed(g)
        rep = build_rep(spec, 6)
        report = relation_residuals(rep, gmap)
        power = [value for name, value in report.entries if name.endswith(":power")]
        assert power == [0.0]
        assert report.max_residual <= ALG_TOL
        assert loop_spectrum(rep, spec.replacements[0].loop, gmap).max_modulus_deviation <= 1e-12


class TestLoopSpectrum:
    def test_square_d6_nonzero_eigenvalues(self, square_embedding):
        """Closed form: T^4 on the level-k block contributes the
        2^{k-2}-th roots of unity, so depth 6 realizes the 16th roots."""
        spec, gmap = square_embedding
        rep = build_rep(spec, 6)
        report = loop_spectrum(rep, spec.replacements[0].loop, gmap)
        evals = np.array(report.eigenvalues)
        assert report.max_modulus_deviation <= SPEC_TOL
        roots16 = {np.round(np.exp(2j * np.pi * j / 16), 8) for j in range(16)}
        seen = {np.round(z, 8) for z in evals}
        assert roots16 <= seen
        expected = {
            np.round(np.exp(2j * np.pi * j * 4 / 2**k), 8)
            for k in range(0, 7)
            for j in range(2**k)
        }
        assert seen == expected

    def test_hausdorff_bound_and_conjugation(self, square_embedding):
        spec, gmap = square_embedding
        rep = build_rep(spec, 6)
        report = loop_spectrum(rep, spec.replacements[0].loop, gmap)
        bound = spectral_net_bound(4, 2**6)
        assert bound == pytest.approx(math.pi * 4 / 64)
        assert report.hausdorff_to_circle <= bound
        assert report.conjugation_mismatch <= SPEC_TOL
        # conjugated operator sees exactly the levels below the boundary
        shallow = {
            np.round(np.exp(2j * np.pi * j * 4 / 2**k), 8)
            for k in range(0, 6)
            for j in range(2**k)
        }
        assert {np.round(z, 8) for z in report.conjugated_nonzero} == shallow

    def test_self_loop_spectrum(self, self_loop):
        spec, gmap = embed(self_loop)
        rep = build_rep(spec, 4)
        report = loop_spectrum(rep, spec.replacements[0].loop, gmap)
        seen = {np.round(z, 8) for z in report.eigenvalues}
        expected = {
            np.round(np.exp(2j * np.pi * j / 2**k), 8) for k in range(0, 5) for j in range(2**k)
        }
        assert seen == expected  # all 2^k-th roots, k <= 4
        assert report.hausdorff_to_circle <= math.pi / 16 + 1e-12

    def test_moduli_within_tolerance(self, square_embedding):
        spec, gmap = square_embedding
        rep = build_rep(spec, 5)
        report = loop_spectrum(rep, spec.replacements[0].loop, gmap)
        for z in report.conjugated_nonzero:
            assert abs(abs(z) - 1.0) <= SPEC_TOL

    def test_no_eigensolver_for_the_constructed_map(self, square_embedding, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolver called")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        monkeypatch.setattr(np.linalg, "eig", refuse)
        spec, gmap = square_embedding
        rep = build_rep(spec, 10)
        report = loop_spectrum(rep, spec.replacements[0].loop, gmap)
        assert len(report.eigenvalues) == sum(len(level) for level in rep.corner_levels["T1"])
        assert report.max_modulus_deviation <= SPEC_TOL
        assert report.hausdorff_to_circle <= spectral_net_bound(4, 2**10)
        assert report.conjugation_mismatch <= SPEC_TOL

    def test_unreplaced_loop_rejected(self, square_embedding, self_loop):
        spec, gmap = square_embedding
        other_spec, _ = embed(self_loop)
        rep = build_rep(spec, 3)
        with pytest.raises(RepresentationError):
            loop_spectrum(rep, other_spec.replacements[0].loop, gmap)

    def test_spectra_grow_linearly_in_the_loops(self):
        """Four times the self-loops cost under six times the time for their
        spectra: the spec finds each loop's replacement by a lookup, not by a
        scan of every replacement, which grows quadratically."""

        def run(n):
            g = Graph.build([f"v{i}" for i in range(n)], [(f"e{i}", f"v{i}", f"v{i}") for i in range(n)])
            spec, gmap = embed(g)
            rep = build_rep(spec, 2)
            return lambda: [loop_spectrum(rep, r.loop, gmap) for r in spec.replacements]

        ratio = growth_ratio(run(500), run(2_000), 6)
        assert ratio < 6, f"the spectra of 2,000 self-loops took {ratio:.1f}x the time of 500"

    def test_prefix_multiplicity(self, square):
        spec, gmap = embed(square, MultiplicitySeq((3,), 2))
        rep = build_rep(spec, 3)
        report = loop_spectrum(rep, spec.replacements[0].loop, gmap)
        sizes = [len(level) for level in rep.corner_levels[spec.replacements[0].tail.namespace]]
        assert sizes == [1, 3, 6, 12]
        expected = {
            np.round(np.exp(2j * np.pi * j * 4 / n), 8) for n in (1, 3, 6, 12) for j in range(n)
        }
        assert {np.round(z, 8) for z in report.eigenvalues} == expected


class TestLevelInterleaving:
    def test_successive_blocks_converge(self, square_rep):
        """The level-(k+1) diagonal refines the level-k diagonal blockwise:
        ``|u_{k+1} - u_k (x) 1| <= 2 sin(pi / N_{k+1})`` for doubling tails,
        which is what makes the tail unitaries a convergent choice."""
        t = toarray(square_rep.T["T1"])
        levels = square_rep.corner_levels["T1"]
        for k in range(len(levels) - 1):
            u_k = np.array([t[i, i] for i in levels[k]])
            u_next = np.array([t[i, i] for i in levels[k + 1]])
            refined = np.repeat(u_k, 2)  # u_k (x) 1 in the lexicographic order
            bound = 2 * math.sin(math.pi / len(u_next))
            assert np.max(np.abs(u_next - refined)) <= bound + 1e-12


class TestPathBasis:
    def test_closed_under_suffixes(self, square_rep):
        paths = set(basis_paths(square_rep))
        for p in paths:
            for k in range(1, len(p.edges)):
                suffix = Path(p.edges[k:], p.source, square_rep.graph.edge(p.edges[k]).range)
                assert suffix in paths

    def test_contains_all_vertex_paths(self, square_rep):
        for v in square_rep.graph.vertices:
            assert Path((), v, v) in basis_paths(square_rep)

    @staticmethod
    def assert_matches_sorted_basis(g, depth):
        """Row by row, the vertex, or the range-end edge and the suffix row,
        which ``extension`` pairs with the row: with the vertex rows, these
        pin down every path."""
        basis = PathBasis.build(g, depth)
        paths, suffix = sorted_path_basis(g, depth)
        assert len(basis) == len(paths)
        shorter = [-1] * len(basis)
        for src, rows in basis.extension:
            for s, r in zip(src, rows):
                shorter[r] = s
        for i, (p, e, s, t) in enumerate(zip(paths, basis.edge, shorter, suffix)):
            expected = (g.edge_id(p.edges[0]), t) if p.edges else (-1, -1, g.vertex_names[i])
            assert ((e, s) if p.edges else (e, s, p.source)) == expected, f"row {i}"

    @settings(max_examples=150, deadline=None)
    @given(g=multigraphs(max_vertices=5, max_edges=8), depth=st.integers(min_value=0, max_value=4))
    def test_matches_sorted_basis(self, g, depth):
        """Self-loops and parallel edges included: extending rows edge by edge
        in id order gives the order the sort-based build gave."""
        self.assert_matches_sorted_basis(g, depth)

    @pytest.mark.parametrize("mult", ["2", "3,3;2"])
    @pytest.mark.parametrize("name", ["square", "cycles_dag", "self_loop", "dag", "crowded"])
    def test_matches_sorted_basis_on_golden_stages(self, name, mult):
        spec, _ = embed(load_graph((GOLDEN / f"{name}.txt").read_text()), MultiplicitySeq.parse(mult))
        self.assert_matches_sorted_basis(materialize(spec, 4), 4)

    def test_build_rep_builds_no_path(self, square_embedding, monkeypatch):
        """The operators are read off the basis's int arrays, not off ``Path`` rows."""
        spec, _ = square_embedding
        built = []
        init = Path.__init__
        monkeypatch.setattr(Path, "__init__", lambda self, *a, **kw: built.append(a) or init(self, *a, **kw))
        rep = build_rep(spec, 6)
        assert rep.dimension > 100 and built == []


def _same_multiset(a, b, tol):
    """Whether two lists of complex numbers agree up to ``tol`` after matching."""
    rest = list(b)
    for z in a:
        if not rest:
            return False
        k = min(range(len(rest)), key=lambda j: abs(rest[j] - z))
        if abs(rest[k] - z) > tol:
            return False
        rest.pop(k)
    return not rest


class TestOperatorSpectrum:
    def test_cycle_and_chain(self):
        """A 3-cycle with phase product w gives the cube roots of w; the
        two vertices of a chain give zeros."""
        phases = np.array([np.exp(0.4j), 0.9 * np.exp(2.1j), np.exp(-1.3j), 1.7j])
        # 0 -> 1 -> 2 -> 0 is the cycle, 3 -> 4 the chain
        piece = Piece((0, 1, 2, 3), (1, 2, 0, 4), tuple(phases.tolist()))
        op = Operator(5, (piece,))
        w = phases[0] * phases[1] * phases[2]
        roots = [abs(w) ** (1 / 3) * np.exp(1j * (np.angle(w) + 2 * np.pi * k) / 3) for k in range(3)]
        spectrum = op.eigenvalues()
        assert _same_multiset(spectrum, roots + [0, 0], 1e-12)
        assert _same_multiset(spectrum, np.linalg.eigvals(toarray(op)), 1e-7)

    def test_genuine_sum_uses_dense_spectrum(self):
        a = Operator(3, (Piece((0, 1), (1, 0)),))
        b = Operator(3, (Piece((0,), (0,), (2.0 + 0j,)),))
        total = a + b
        assert _same_multiset(total.eigenvalues(), np.linalg.eigvals(toarray(total)[:2, :2]), 1e-12)

    def test_dense_support_above_the_ceiling_is_refused_unallocated(self, monkeypatch):
        """A genuine sum on 2 basis vectors is solved at a ceiling of 2 and
        refused at 1, without a matrix being made."""
        total = Operator(3, (Piece((0, 1), (1, 0)),)) + Operator(3, (Piece((0,), (0,), (2.0 + 0j,)),))
        monkeypatch.setattr(numrep, "MAX_DENSE_SUPPORT", 2)
        assert len(total.eigenvalues()) == 2
        monkeypatch.setattr(numrep, "MAX_DENSE_SUPPORT", 1)

        def refuse(*args, **kwargs):
            raise AssertionError("dense matrix allocated")

        monkeypatch.setattr(np, "zeros", refuse)
        with pytest.raises(DenseSpectrumTooLargeError) as exc:
            total.eigenvalues()
        assert str(exc.value) == "the spectrum needs a dense eigensolver on 2 basis vectors, more than the 1 it may take"


@st.composite
def operators(draw, dim=6):
    """Sums of one to three random phased partial permutations."""
    pieces = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        src = sorted(draw(st.sets(st.integers(0, dim - 1), max_size=dim)))
        tgt = draw(st.permutations(range(dim)))[: len(src)]
        phases = [
            complex(draw(st.floats(-2, 2)), draw(st.floats(-2, 2))) for _ in src
        ]
        pieces.append(Piece(tuple(src), tuple(tgt), tuple(phases)))
    return Operator(dim, tuple(pieces))


class TestOperatorAlgebra:
    """The operator engine against dense matrices of the same operators."""

    @given(operators(), operators(), st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    def test_matches_dense(self, a, b, lo, hi):
        da, db = toarray(a), toarray(b)
        product = a @ b
        assert np.allclose(toarray(product), da @ db, atol=1e-12)
        for p in product.pieces:
            assert np.all(np.diff(p.src) > 0) and len(set(list(p.tgt))) == len(p.tgt)
        assert np.allclose(toarray(reference_difference(a, b)), da - db, atol=1e-12)
        assert np.allclose(toarray(a.adjoint()), da.conj().T, atol=1e-12)
        m = np.diag([float(lo <= i < hi) for i in range(6)])
        assert a.frobenius(range(lo, hi)) == pytest.approx(np.linalg.norm(m @ da @ m), abs=1e-12)
        assert a.frobenius(range(lo, hi), minus=b) == pytest.approx(np.linalg.norm(m @ (da - db) @ m), abs=1e-12)
        assert a.column_norm(2) == pytest.approx(np.linalg.norm(da[:, 2]), abs=1e-12)


def _bits(z: complex) -> bytes:
    """The IEEE bits of both parts, so that -0.0 and 0.0 differ."""
    return struct.pack("<2d", z.real, z.imag)


# finite parts, signed zeros included, small enough that no product overflows
finite = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)
complexes = st.builds(complex, finite, finite)


class TestExactArithmetic:
    """The plain-Python arithmetic of the engine against numpy, bit for bit,
    where both are exact or correctly rounded and so agree on every host:
    tail phases, complex products, negation and the rounding of angles.
    Norms and moduli are CPython's ``math.hypot``, with nothing of numpy's
    to match, as numpy's own rounding of them depends on its CPU kernels."""

    def test_tail_phases_match_numpy(self):
        """Every level size of the doubling, tripling and ``3,3;2`` tails up to 6,561."""
        sizes = {b**k for b in (2, 3) for k in range(9) if b**k <= 6561}
        sizes |= {9 * 2**k for k in range(10)}
        for n in sorted(sizes):
            ours = [_tail_phase(j, n) for j in range(n)]
            theirs = [complex(np.exp(2j * np.pi * j / n)) for j in range(n)]
            assert list(map(_bits, ours)) == list(map(_bits, theirs)), n

    @pytest.mark.parametrize("mult, depth", [("2", 12), ("3", 7), ("3,3;2", 10)])
    def test_tail_phases_are_the_per_row_phases(self, self_loop, mult, depth):
        """``T``'s phases are ``_tail_phase(j, N_k)`` row by row, bit for bit:
        a level below a doubling takes the next level's phases at stride 2,
        and a level below a tripling forms its own, whose phases would differ
        from the next level's at stride 3."""
        spec, _ = embed(self_loop, MultiplicitySeq.parse(mult))
        rep = build_rep(spec, depth)
        sizes = [len(level) for level in rep.corner_levels["T1"]]
        assert sizes == MultiplicitySeq.parse(mult).level_sizes(depth)
        per_row = [_tail_phase(j, n) for n in sizes for j in range(n)]
        assert list(map(_bits, rep.T["T1"].pieces[0].phase)) == list(map(_bits, per_row))
        if "3" in mult:
            strided = [_tail_phase(3 * j, 3 * n) for n in sizes[:3] for j in range(n)]
            assert list(map(_bits, strided)) != list(map(_bits, per_row[: len(strided)]))

    def test_level_phases_take_strides_of_any_power_of_two(self):
        """Levels that grow by 1, 2, 4 or 8 at a time, and by 3 or 6 between them."""
        for sizes in ([1, 2, 8, 8, 64], [1, 3, 12, 24, 24, 192], [1, 6, 6, 18, 36]):
            per_row = [_tail_phase(j, n) for n in sizes for j in range(n)]
            assert list(map(_bits, _level_phases(sizes))) == list(map(_bits, per_row)), sizes

    @given(complexes, complexes)
    @settings(max_examples=500, deadline=None)
    def test_python_product_is_the_separate_multiply_formula(self, a, b):
        """The formula the numpy engine spelled out to avoid fused multiply-adds."""
        x, y = np.array([a]), np.array([b])
        old = np.empty(1, dtype=np.complex128)
        old.real = x.real * y.real - x.imag * y.imag
        old.imag = x.real * y.imag + x.imag * y.real
        assert _bits(a * b) == _bits(complex(old[0]))

    @given(complexes)
    @settings(max_examples=300, deadline=None)
    def test_negation_matches_numpy_scalar_product(self, a):
        """``Operator.scale(-1)`` multiplies in Python; numpy's scalar product agrees there."""
        assert _bits(a * complex(-1)) == _bits(complex((np.array([a]) * complex(-1))[0]))

    @given(st.floats(min_value=-4.0, max_value=4.0))
    def test_angle_rounding_matches_numpy(self, x):
        assert round(x * 1e9) / 1e9 == float(np.round(np.float64(x), 9))


class TestStageCeiling:
    """Stages are counted before they are built, and refused above the ceiling."""

    @staticmethod
    def lower_ceiling(monkeypatch, size):
        monkeypatch.setattr(embedding, "MAX_STAGE_SIZE", size)
        monkeypatch.setattr(numrep, "MAX_STAGE_SIZE", size)

    @settings(max_examples=150, deadline=None)
    @given(g=multigraphs(max_vertices=5, max_edges=8), depth=st.integers(min_value=0, max_value=4))
    def test_row_count_matches_basis(self, g, depth):
        assert _basis_rows(g, depth) == len(PathBasis.build(g, depth))

    @pytest.mark.parametrize("mult", ["2", "1;2", "3,3;2", "1,1,1,5;3"])
    @pytest.mark.parametrize("name", ["square", "cycles_dag", "self_loop", "dag"])
    def test_stage_counts_match_the_built_stage(self, name, mult, monkeypatch):
        """At a ceiling equal to the stage's size it is built; one below, the
        refusal names the counts the built stage has."""
        spec, _ = embed(load_graph((GOLDEN / f"{name}.txt").read_text()), MultiplicitySeq.parse(mult))
        for depth in range(6):
            f_d = materialize(spec, depth)
            nv, ne = len(f_d.vertex_names), len(f_d.edge_names)
            self.lower_ceiling(monkeypatch, nv + ne)
            assert materialize(spec, depth) == f_d
            self.lower_ceiling(monkeypatch, nv + ne - 1)
            with pytest.raises(StageTooLargeError) as exc:
                materialize(spec, depth)
            assert str(exc.value) == (
                f"stage F_{depth} has {nv} vertices and {ne} edges, more than the {nv + ne - 1} a stage may have"
            )
            monkeypatch.undo()

    @pytest.mark.parametrize("depth", [2, 3, 5])
    def test_basis_above_the_ceiling_is_refused(self, square_embedding, depth, monkeypatch):
        """From depth 2 the basis outgrows the stage, whose size is refused first."""
        spec, _ = square_embedding
        rows = build_rep(spec, depth).dimension
        self.lower_ceiling(monkeypatch, rows)
        assert build_rep(spec, depth).dimension == rows
        self.lower_ceiling(monkeypatch, rows - 1)
        with pytest.raises(StageTooLargeError) as exc:
            build_rep(spec, depth)
        assert str(exc.value) == (
            f"the path basis of F_{depth} has at least {rows} rows, more than the {rows - 1} a stage may have"
        )

    def test_row_count_stops_past_the_ceiling(self, monkeypatch):
        """A deep stage is counted only until it is known to be too large."""
        g = materialize(embed(load_graph((GOLDEN / "self_loop.txt").read_text()))[0], 12)
        self.lower_ceiling(monkeypatch, 100)
        rows = _basis_rows(g, 12)
        assert 100 < rows < len(PathBasis.build(g, 12))


def _golden_verify_runs():
    """``(case, graph, depth, mult, map path)`` of every golden ``verify``
    case whose graph embeds, as the command line reads them."""
    runs = []
    for name, argv in sorted(CASES.items()):
        if argv[0] != "verify":
            continue
        args = build_parser().parse_args(resolve(argv))
        g = load_graph(FsPath(args.input).read_text(encoding="utf-8"))
        if classify(g).verdict is not Verdict.NOT_FINITE:
            runs.append(pytest.param(g, args.depth, args.mult, args.map, id=name))
    return runs


# Gaussian rationals other than the units 1, -1, i and -i: some change moduli, and
# some have parts that binary floating point holds only rounded
_NON_UNIT = st.sampled_from(["1/2", "-2i", "(1+i)", "(3/5+4/5i)", "(2/3-1/7i)"])


@st.composite
def summed_loop_maps(draw):
    """A graph whose loops have no entrance, with its constructed map at a
    random ``--mult`` after every loop edge's image is made a sum: a
    non-unit multiple of itself plus a non-unit multiple of another edge's
    image or of a vertex projection; and a depth.  Half the time that is
    the projection on the edge's source, which leaves two entries in a row
    of ``a a*``, so that the CK3 sum merges it into other pieces than it
    has in ``iso``'s own product."""
    g = draw(condition5_graphs(max_loops=2))
    spec, gmap = embed(g, MultiplicitySeq.parse(draw(st.sampled_from(["2", "3", "1,3;2"]))))
    assume(spec.replacements)
    lines = genmap_to_text(gmap, spec).splitlines()[1:]
    images = dict(line.split(" = ") for line in lines)
    others = st.sampled_from(sorted(images.values()) + [f"p({v})" for v in g.vertex_names])
    for loop_rep in spec.replacements:
        loop = loop_rep.loop
        for i in range(1, loop.n + 1):
            e, other = loop.edge_index(i), draw(st.just(f"p({loop.vertices[i - 1]})") | others)
            images[e] = f"{draw(_NON_UNIT)} ({images[e]}) + {draw(_NON_UNIT)} ({other})"
    text = "".join(f"{e} = {image}\n" for e, image in images.items())
    return spec, genmap_from_text(text, spec), draw(st.integers(1, 3))


# parts of phases: signed zeros, exact values and any others
_PART = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5]) | st.floats(-2, 2)


@st.composite
def overlapping_operators(draw, dim=5):
    """Sums of one to five phased partial permutations on few basis vectors,
    so that pieces repeat cells: a piece may be an earlier one negated, so
    that its cells cancel to zero, and values carry signed zeros; a piece
    with phase None is all ones."""
    part = _PART
    pieces = []
    for _ in range(draw(st.integers(1, 5))):
        if pieces and draw(st.booleans()):
            p = draw(st.sampled_from(pieces))
            pieces.append(Piece(p.src, p.tgt, tuple(-v for v in p.values())))
            continue
        src = sorted(draw(st.sets(st.integers(0, dim - 1), max_size=dim)))
        tgt = draw(st.permutations(range(dim)))[: len(src)]
        phase = None if draw(st.booleans()) else tuple(complex(draw(part), draw(part)) for _ in src)
        pieces.append(Piece(tuple(src), tuple(tgt), phase))
    return Operator(dim, tuple(pieces))


# values with their ties: roots of unity of several orders, the same angle
# reached by a product, signed zeros at angles 0 and pi, and moduli off 1 by an ulp
_SPECTRAL_VALUES = st.sampled_from(
    [cmath.exp(2j * math.pi * k / 8) for k in range(8)]
    + [cmath.exp(2j * math.pi * k / 4) ** 2 for k in range(4)]
    + [complex(-1.0, 0.0), complex(-1.0, -0.0), complex(1.0, -0.0), complex(math.nextafter(1.0, 2.0), 0.0)]
    + [complex(0.0, 1.0), complex(-0.0, 1.0), 0.75 + 0.25j]
)


class TestSpectrumDistances:
    """``hausdorff_to_circle`` and ``conjugation_mismatch`` keep their bits:
    the angles are taken once, and a conjugated side that is ``T^n``'s
    values in row order, as the constructed map's is, is matched without a
    sort.  The oracles sort both sides by a Python key, as before."""

    @staticmethod
    def distances(report):
        return report.hausdorff_to_circle.hex(), report.conjugation_mismatch.hex()

    @pytest.mark.parametrize("g, depth, mult, map_path", _golden_verify_runs())
    def test_the_goldens(self, g, depth, mult, map_path):
        spec, gmap = embed(g, mult)
        if map_path:
            gmap = genmap_from_text(FsPath(map_path).read_text(encoding="utf-8"), spec)
        rep = build_rep(spec, depth)
        for loop_rep in spec.replacements:
            report = loop_spectrum(rep, loop_rep.loop, gmap)
            assert self.distances(report) == tuple(x.hex() for x in reference_spectrum_distances(rep, report))

    @pytest.mark.parametrize("mult, depth", [("2", 11), ("3", 6), ("3,3;2", 8)])
    def test_deep_constructed_maps(self, square, mult, depth):
        spec, gmap = embed(square, MultiplicitySeq.parse(mult))
        rep = build_rep(spec, depth)
        report = loop_spectrum(rep, spec.replacements[0].loop, gmap)
        assert self.distances(report) == tuple(x.hex() for x in reference_spectrum_distances(rep, report))

    @given(family=summed_loop_maps())
    @settings(max_examples=40, deadline=None)
    def test_summed_maps(self, family):
        spec, gmap, depth = family
        rep = build_rep(spec, depth)
        for loop_rep in spec.replacements:
            report = loop_spectrum(rep, loop_rep.loop, gmap)
            assert self.distances(report) == tuple(x.hex() for x in reference_spectrum_distances(rep, report))

    @given(st.lists(_SPECTRAL_VALUES, max_size=12), st.data())
    @settings(max_examples=400, deadline=None)
    def test_multisets_with_ties(self, values, data):
        """The conjugated side is ``values`` itself, a permutation of them,
        the same values with each zero part's sign flipped, or other values
        of the same number: values equal but for a signed zero, whose angles
        may be pi and -pi, are matched by the sort."""
        values = tuple(values)
        flipped = tuple(complex(-z.real if z.real == 0 else z.real, -z.imag if z.imag == 0 else z.imag) for z in values)
        conjugated = data.draw(st.sampled_from([values, tuple(reversed(values)), flipped]) | st.permutations(values))
        conjugated = data.draw(st.just(conjugated) | st.lists(_SPECTRAL_VALUES, min_size=len(values), max_size=len(values)))
        a = [(z, math.hypot(z.real, z.imag)) for z in conjugated]
        b = [(z, math.hypot(z.real, z.imag)) for z in values]
        got = _multiset_mismatch(a, b, [cmath.phase(z) for z, _ in b])
        assert got.hex() == reference_multiset_mismatch(a, b).hex()
        assert _multiset_mismatch(a, b + [(1j, 1.0)], [0.0] * (len(b) + 1)) == math.inf


class TestSharedProducts:
    """Each numeric product of ``verify`` is formed once: a loop's
    ``co-iso`` and ``iso`` residuals are read off the CK instances that
    form the same products, each image and each loop's product is formed
    once per stage and read again by ``loop_spectrum``, ``T^n`` takes no
    product, and the CK3
    vertex defect reads one column.  The oracles form them as before."""

    @staticmethod
    def loop_entries(report):
        return [(name, value) for name, value in report.entries if ":co-iso[" in name or ":iso[" in name]

    @pytest.mark.parametrize("g, depth, mult, map_path", _golden_verify_runs())
    def test_loop_entries_equal_the_direct_products_on_the_goldens(self, g, depth, mult, map_path):
        spec, gmap = embed(g, mult)
        if map_path:
            gmap = genmap_from_text(FsPath(map_path).read_text(encoding="utf-8"), spec)
        rep = build_rep(spec, depth)
        assert self.loop_entries(relation_residuals(rep, gmap)) == reference_loop_entries(rep, gmap)

    @given(family=summed_loop_maps())
    @settings(max_examples=60, deadline=None)
    def test_loop_entries_equal_the_direct_products_on_summed_maps(self, family):
        spec, gmap, depth = family
        rep = build_rep(spec, depth)
        assert self.loop_entries(relation_residuals(rep, gmap)) == reference_loop_entries(rep, gmap)

    @staticmethod
    def tail_entries(report):
        return [(name, value.hex()) for name, value in report.entries if name.startswith("TAIL[")]

    @pytest.mark.parametrize("mult", ["2", "3,3;2"])
    @pytest.mark.parametrize(
        "name, depth",
        [(name, 6) for name in ("square", "cycles_dag", "dag", "crowded")] + [("self_loop", d) for d in range(1, 13)],
    )
    def test_tail_entries_equal_the_operator_products(self, name, depth, mult):
        """Every golden graph's tails, and a self-loop's at depths 1 to 12:
        the ``TAIL`` rows read off ``T``'s phases equal, bit for bit, the
        norms of ``T T* - P(v)`` and ``T* T - P(v)`` formed as operators."""
        spec, gmap = embed(load_graph((GOLDEN / f"{name}.txt").read_text()), MultiplicitySeq.parse(mult))
        rep = build_rep(spec, depth)
        expected = [(row, value.hex()) for row, value in reference_tail_entries(rep)]
        assert self.tail_entries(relation_residuals(rep, gmap)) == expected
        assert len(expected) == 2 * len(spec.replacements)

    @given(op=overlapping_operators())
    @settings(max_examples=300, deadline=None)
    def test_column_norm_equals_the_whole_operator_merge(self, op):
        for j in range(op.dim):  # columns no piece touches included
            assert op.column_norm(j).hex() == reference_column_norm(op, j).hex()

    def test_a_loop_is_multiplied_out_once(self, monkeypatch):
        """C16 at depth 6 takes 97 products: 32 for the images (two each),
        16 each for CK1, CK2 (the images end in distinct edges) and CK3, and
        15 for the loop and 2 to close ``T^16`` in ``LOOP:power``; ``TAIL``
        reads ``T``'s phases, where it took 2 products; the spectrum reads
        the loop's product that ``LOOP:power`` formed, where it formed its
        15 again, 114 in all with ``TAIL``'s.  ``T^16`` is
        ``T``'s phases raised elementwise, which takes no product: its 15
        made 129 before, and with the 32 of ``co-iso`` and ``iso`` and the
        spectrum's own ``T^16`` and images, 208."""
        n = 16
        g = load_graph("".join(f"vertex u{i}\n" for i in range(n)) + "".join(f"edge e{i} u{i} u{(i + 1) % n}\n" for i in range(n)))
        spec, gmap = embed(g)
        rep = build_rep(spec, 6)
        calls = 0
        matmul = Operator.__matmul__

        def counting(a, b):
            nonlocal calls
            calls += 1
            return matmul(a, b)

        monkeypatch.setattr(Operator, "__matmul__", counting)
        relation_residuals(rep, gmap)
        for loop_rep in spec.replacements:
            loop_spectrum(rep, loop_rep.loop, gmap)
        assert calls == 97

    def test_a_self_loop_closes_on_its_image(self, monkeypatch):
        """A 1-edge loop's ``LOOP:power`` closed side ``S[f_1] T S[f_1]*`` is
        its image, which the stage holds: 200 self-loops at depth 2 take 5
        products each, 2 for the image and 1 each for CK1, CK2 and CK3, and
        the spectrum none; forming the closed side again took 2 more each,
        and ``TAIL`` took 2 before it read ``T``'s phases.  The residual is the one the two products give."""
        n = 200
        g = Graph.build([f"v{i}" for i in range(n)], [(f"e{i}", f"v{i}", f"v{i}") for i in range(n)])
        spec, gmap = embed(g)
        rep = build_rep(spec, 2)
        calls = 0
        matmul = Operator.__matmul__

        def counting(a, b):
            nonlocal calls
            calls += 1
            return matmul(a, b)

        with monkeypatch.context() as patch:
            patch.setattr(Operator, "__matmul__", counting)
            report = relation_residuals(rep, gmap)
            for loop_rep in spec.replacements:
                loop_spectrum(rep, loop_rep.loop, gmap)
        assert calls == 5 * n
        power = dict(report.entries)
        for loop_rep in spec.replacements:
            f_1 = rep.S[loop_rep.f_edge_for(1)]
            closed = f_1 @ (rep.T[loop_rep.tail.namespace] @ f_1.adjoint())
            value = loop_product(rep, loop_rep.loop, gmap).frobenius(rep.interior, minus=closed)
            assert power[f"LOOP[{loop_rep.loop.edges[0]}]:power"].hex() == value.hex()

    def test_the_stage_forms_each_image_once(self, square, monkeypatch):
        """After ``relation_residuals`` the stage holds exactly the map's
        images, and ``loop_spectrum`` forms none of them again; a spectrum
        for another map on the same stage is the one a fresh stage gives,
        and in either call order the two share one operator per image."""
        spec, gmap = embed(square)
        phased = genmap_from_text(
            genmap_to_text(gmap, spec).replace("= s(T1.f2) t(T1) s*(T1.f1)", "= i (s(T1.f2) t(T1) s*(T1.f1))"), spec
        )
        loop = spec.replacements[0].loop
        rep = build_rep(spec, 4)
        relation_residuals(rep, gmap)
        assert set(rep.images) == set(gmap.edge_map.values())
        calls = 0
        op_of_monomial = numrep.op_of_monomial

        def counting(m, r):
            nonlocal calls
            calls += 1
            return op_of_monomial(m, r)

        with monkeypatch.context() as patch:
            patch.setattr(numrep, "op_of_monomial", counting)
            loop_spectrum(rep, loop, gmap)
        assert calls == 0
        assert vars(loop_spectrum(rep, loop, phased)) == vars(loop_spectrum(build_rep(spec, 4), loop, phased))
        rep = build_rep(spec, 4)
        loop_spectrum(rep, loop, gmap)
        kept = dict(rep.images)
        relation_residuals(rep, gmap)
        assert all(rep.images[term] is op for term, op in kept.items())


@st.composite
def phased_pieces(draw, dim=6, src=None, tgt=None):
    """A phased partial permutation on ``dim`` basis vectors, on the sorted
    sources ``src`` and the targets ``tgt`` where given; drawn targets are
    the sources (a diagonal), ascending, or in any order.  Its phases are
    all ones (None) or carry signed zeros."""
    if src is None:
        size = draw(st.integers(0, dim)) if tgt is None else len(tgt)
        src = sorted(draw(st.permutations(range(dim)))[:size])
    if tgt is None:
        tgt = draw(st.permutations(range(dim)))[: len(src)]
        tgt = draw(st.sampled_from([src, sorted(tgt), tgt]))
    phase = None if draw(st.booleans()) else tuple(complex(draw(_PART), draw(_PART)) for _ in src)
    return Piece(tuple(src), tuple(tgt), phase)


def _entries(p: Piece) -> str:
    """A piece's entries, as ``repr`` shows every bit of them, signed zeros included."""
    return repr((p.src, p.tgt, p.values()))


class TestAlignedIndices:
    """Where the indices line up, a product multiplies phases elementwise,
    an adjoint takes no sort, the interior is a slice and a residual
    subtracts; each gives the bits of the general join, sort, mask and
    product by -1 that ``tests/oracles.py`` keeps."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_product_equals_the_join(self, data):
        a = data.draw(phased_pieces())
        k = data.draw(st.integers(0, len(a.src)))
        block = a.src[k : data.draw(st.integers(k, len(a.src)))]
        # on a block of ``a``'s sources in order, or anywhere
        b = data.draw(phased_pieces(tgt=block) | phased_pieces())
        assert _entries(a.after(b)) == _entries(reference_after(a, b))
        assert _entries(a.adjoint().after(a)) == _entries(reference_after(reference_adjoint(a), a))

    @given(phased_pieces())
    @settings(max_examples=300, deadline=None)
    def test_adjoint_equals_the_sorted_one(self, p):
        assert repr(p.adjoint()) == repr(reference_adjoint(p))

    @given(phased_pieces(), st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=300, deadline=None)
    def test_range_compression_equals_the_mask(self, p, lo, hi):
        mask = tuple(lo <= i < hi for i in range(6))
        run = (p.src, p.tgt, p.values())
        assert repr(_compress(run, range(lo, hi))) == repr(reference_compress(run, mask))

    @given(st.data(), st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=300, deadline=None)
    def test_residual_equals_the_norm_of_the_difference(self, data, lo, hi):
        """On sums that repeat cells, and on a right side with the entries
        of the left, as where a relation holds."""
        lhs = data.draw(overlapping_operators())
        same = Operator(5, tuple(data.draw(phased_pieces(src=p.src, tgt=p.tgt)) for p in lhs.pieces))
        rhs = data.draw(st.just(same) | overlapping_operators() | st.just(Operator(5)))
        mask = tuple(lo <= i < hi for i in range(5))
        diff = reference_difference(lhs, rhs)
        for rows, m in ((range(lo, hi), mask), (None, None)):
            assert lhs.frobenius(rows, minus=rhs).hex() == reference_frobenius(diff, m).hex()
            assert rhs.frobenius(rows, minus=lhs).hex() == reference_frobenius(reference_difference(rhs, lhs), m).hex()
            assert lhs.frobenius(rows).hex() == reference_frobenius(lhs, m).hex()
        for j in range(5):
            assert lhs.column_norm(j, minus=rhs).hex() == reference_column_norm(diff, j).hex()

    @pytest.mark.parametrize("depth", [1, 2, 4])
    @pytest.mark.parametrize("name", ["square", "cycles_dag", "dag"])
    def test_the_interior_is_the_row_range_of_the_inner_paths(self, name, depth):
        """Paths of length ``1 .. depth-1``, also where a level is empty before ``depth``."""
        rep = build_rep(embed(load_graph((GOLDEN / f"{name}.txt").read_text()))[0], depth)
        inner = [i for i, p in enumerate(basis_paths(rep)) if 1 <= len(p.edges) <= depth - 1]
        assert list(rep.interior) == inner and interior_mask(rep) == tuple(i in inner for i in range(rep.dimension))

    def test_a_loop_builds_no_join_table_and_no_sort(self, monkeypatch):
        """C16 at depth 6: each of the 99 products lands on one block of its
        left factor's sources, in order, and each adjoint's targets ascend,
        so ``verify``'s numeric stage builds no join table and sorts
        nothing; a product of two distinct edges' isometries still joins,
        and an adjoint whose targets descend still sorts."""
        n = 16
        g = load_graph("".join(f"vertex u{i}\n" for i in range(n)) + "".join(f"edge e{i} u{i} u{(i + 1) % n}\n" for i in range(n)))
        spec, gmap = embed(g)
        rep = build_rep(spec, 6)
        built = {"_join_table": 0, "_argsort": 0}

        def counting(name):
            def call(keys):
                built[name] += 1
                return original(keys)

            original = getattr(sparse, name)
            return call

        for name in built:
            monkeypatch.setattr(sparse, name, counting(name))
        relation_residuals(rep, gmap)
        for loop_rep in spec.replacements:
            loop_spectrum(rep, loop_rep.loop, gmap)
        assert built == {"_join_table": 0, "_argsort": 0}
        f_edge = spec.replacements[0].f_edge_for
        assert not (rep.S[f_edge(1)].adjoint() @ rep.S[f_edge(2)]).pieces[0].src
        assert Piece((0, 1), (1, 0)).adjoint().src == (0, 1)
        assert built == {"_join_table": 1, "_argsort": 1}


@pytest.mark.parametrize("mult", ["2", "3,3;2"])
@pytest.mark.parametrize("depth", range(1, 7))
def test_tail_power_equals_the_n_fold_product(square, mult, depth):
    """``T^k`` with ``T``'s phases raised elementwise is the ``|k| - 1``
    operator products to the bit, and ``T`` itself at ``k = 1``."""
    spec, _ = embed(square, MultiplicitySeq.parse(mult))
    rep = build_rep(spec, depth)
    assert _tail_power(rep, "T1", 1) is rep.T["T1"]
    for k in (*range(-40, 0), *range(1, 41)):
        got, want = _tail_power(rep, "T1", k), reference_tail_power(rep, "T1", k)
        assert repr(got.pieces) == repr(want.pieces), k  # repr keeps signed zeros and every bit
