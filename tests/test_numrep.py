import math
import struct
from pathlib import Path as FsPath

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afembed import embedding, numrep
from afembed.cli import build_parser
from afembed.embedding import (
    MultiplicitySeq,
    StageTooLargeError,
    embed,
    genmap_from_text,
    genmap_to_text,
    materialize,
)
from afembed.graph import Graph, Path, load_graph
from afembed.loops import Verdict, classify
from afembed.numrep import (
    _basis_rows,
    _tail_phase,
    _tail_power,
    DenseSpectrumTooLargeError,
    Operator,
    PathBasis,
    Piece,
    RepresentationError,
    build_rep,
    loop_spectrum,
    op_of_term,
    relation_residuals,
    spectral_net_bound,
)
from afembed.terms import NormalMonomial, CKTerm, term_of_word

from .conftest import growth_ratio
from .oracles import reference_column_norm, reference_loop_entries, reference_tail_power, sorted_path_basis
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
        [1.0 if 1 <= len(p.edges) <= rep.depth - 1 else 0.0 for p in rep.basis.paths]
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
        t = rep.T["T1"].toarray()
        entries = [complex(t[i, i]) for i in level1]
        assert np.allclose(sorted(entries, key=lambda z: z.real), [-1.0, 1.0])

    def test_unitary_on_corner(self, square_rep):
        t = square_rep.T["T1"].toarray()
        p_v = square_rep.P["T1.v"].toarray()
        assert np.max(np.abs(t @ t.conj().T - p_v)) <= ALG_TOL
        assert np.max(np.abs(t.conj().T @ t - p_v)) <= ALG_TOL

    def test_t_supported_on_corner(self, square_rep):
        t = square_rep.T["T1"].toarray()
        p_v = square_rep.P["T1.v"].toarray()
        assert np.max(np.abs(p_v @ t - t)) == 0.0
        assert np.max(np.abs(t @ p_v - t)) == 0.0

    def test_generator_co_isometry_exact_below_boundary(self, square_rep):
        """S[e]* S[e] = P[source(e)] exactly on all paths shorter than the
        depth, vertex vectors included; only the boundary layer truncates."""
        mask = np.diag(
            [1.0 if len(p.edges) <= square_rep.depth - 1 else 0.0 for p in square_rep.basis.paths]
        ).astype(np.complex128)
        for e in square_rep.graph.edges:
            s = square_rep.S[e.name].toarray()
            diff = (s.conj().T @ s - square_rep.P[e.source].toarray()) @ mask
            assert np.max(np.abs(diff)) == 0.0

    def test_edge_isometry_action(self, square_rep):
        s = square_rep.S["T1.f1"].toarray()
        # moves each corner path of length < d to its f1-extension
        i = square_rep.basis.index[Path((), "T1.v", "T1.v")]
        out = s @ np.eye(square_rep.dimension)[:, i]
        target = Path(("T1.f1",), "T1.v", square_rep.graph.edge("T1.f1").range)
        assert out[square_rep.basis.index[target]] == 1.0
        assert np.sum(np.abs(out)) == 1.0


class TestOpOfTerm:
    def test_projection_trace_counts_paths(self, square_rep):
        p = op_of_term(CKTerm.of(NormalMonomial((), 0, (), "u1")), square_rep)
        ranging = [q for q in square_rep.basis.paths if q.range == "u1"]
        assert abs(p.toarray().trace() - len(ranging)) < 1e-14

    def test_mapped_edge_is_partial_isometry(self, square_embedding, square_rep):
        spec, gmap = square_embedding
        a = op_of_term(gmap.edge_map["e1"], square_rep).toarray()
        pi = _interior(square_rep)
        p_u1 = op_of_term(CKTerm.of(NormalMonomial((), 0, (), "u1")), square_rep).toarray()
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
        symbolic = op_of_term(term, rep).toarray()
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
        corner = rep.P["T1.v"].toarray()
        for k in (*range(-3 * period, 0), *range(1, 3 * period + 1)):
            op = op_of_term(CKTerm.of(NormalMonomial((), k, (), "T1.v")), rep)
            dense = _atom_matrix(rep, ("t", "T1", k))
            assert np.max(np.abs(op.toarray() - dense)) <= SPEC_TOL, k
            reduced = (abs(k) - 1) % period + 1
            same = op_of_term(CKTerm.of(NormalMonomial((), reduced if k > 0 else -reduced, (), "T1.v")), rep)
            assert repr(op) == repr(same), k  # to the bit, signed zeros included
            if k % period == 0:
                assert np.max(np.abs(dense - corner)) <= SPEC_TOL, k


def _atom_matrix(rep, atom):
    """Dense matrix of one word atom, built from the generators alone."""
    if atom[0] == "p":
        return rep.P[atom[1]].toarray()
    if atom[0] == "s":
        return rep.S[atom[1]].toarray()
    if atom[0] == "s*":
        return rep.S[atom[1]].toarray().conj().T
    ns, k = atom[1], atom[2]
    base = rep.T[ns].toarray() if k > 0 else rep.T[ns].toarray().conj().T
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
        t = square_rep.T["T1"].toarray()
        levels = square_rep.corner_levels["T1"]
        for k in range(len(levels) - 1):
            u_k = np.array([t[i, i] for i in levels[k]])
            u_next = np.array([t[i, i] for i in levels[k + 1]])
            refined = np.repeat(u_k, 2)  # u_k (x) 1 in the lexicographic order
            bound = 2 * math.sin(math.pi / len(u_next))
            assert np.max(np.abs(u_next - refined)) <= bound + 1e-12


class TestPathBasis:
    def test_closed_under_suffixes(self, square_rep):
        basis = square_rep.basis
        for p in basis.paths:
            for k in range(1, len(p.edges)):
                suffix = Path(p.edges[k:], p.source, square_rep.graph.edge(p.edges[k]).range)
                assert suffix in basis.index

    def test_contains_all_vertex_paths(self, square_rep):
        for v in square_rep.graph.vertices:
            assert Path((), v, v) in square_rep.basis.index

    @staticmethod
    def assert_matches_sorted_basis(g, depth):
        basis = PathBasis.build(g, depth)
        paths, suffix = sorted_path_basis(g, depth)
        assert len(basis) == len(paths)
        for i, (p, q, s, t) in enumerate(zip(basis.paths, paths, basis.suffix, suffix)):
            assert (p, s) == (q, t), f"row {i}"
        assert len(basis.index) == len(paths)
        assert all(basis.index[p] == i for i, p in enumerate(basis.paths))

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
        assert _same_multiset(spectrum, np.linalg.eigvals(op.toarray()), 1e-7)

    def test_genuine_sum_uses_dense_spectrum(self):
        a = Operator(3, (Piece((0, 1), (1, 0)),))
        b = Operator(3, (Piece((0,), (0,), (2.0 + 0j,)),))
        total = a + b
        assert _same_multiset(total.eigenvalues(), np.linalg.eigvals(total.toarray()[:2, :2]), 1e-12)

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

    @given(operators(), operators(), st.lists(st.booleans(), min_size=6, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_matches_dense(self, a, b, mask):
        da, db = a.toarray(), b.toarray()
        product = a @ b
        assert np.allclose(product.toarray(), da @ db, atol=1e-12)
        for p in product.pieces:
            assert np.all(np.diff(p.src) > 0) and len(set(list(p.tgt))) == len(p.tgt)
        assert np.allclose((a - b).toarray(), da - db, atol=1e-12)
        assert np.allclose(a.adjoint().toarray(), da.conj().T, atol=1e-12)
        m = np.diag(np.array(mask, dtype=float))
        assert a.frobenius(np.array(mask)) == pytest.approx(np.linalg.norm(m @ da @ m), abs=1e-12)
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


@st.composite
def overlapping_operators(draw, dim=5):
    """Sums of one to five phased partial permutations on few basis vectors,
    so that pieces repeat cells: a piece may be an earlier one negated, so
    that its cells cancel to zero, and values carry signed zeros; a piece
    with phase None is all ones."""
    part = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5]) | st.floats(-2, 2)
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

    @given(op=overlapping_operators())
    @settings(max_examples=300, deadline=None)
    def test_column_norm_equals_the_whole_operator_merge(self, op):
        for j in range(op.dim):  # columns no piece touches included
            assert op.column_norm(j).hex() == reference_column_norm(op, j).hex()

    def test_a_loop_is_multiplied_out_once(self, monkeypatch):
        """C16 at depth 6 takes 99 products: 32 for the images (two each),
        16 each for CK1, CK2 (the images end in distinct edges) and CK3, 15
        for the loop and 2 to close ``T^16`` in ``LOOP:power``, and 2 for
        ``TAIL``; the spectrum reads the loop's product that ``LOOP:power``
        formed, where it formed its 15 again, 114 in all.  ``T^16`` is
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
        assert calls == 99

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
