"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Random inputs are drawn from seeded generators so the
suite is deterministic.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from afembed.embedding import embed, materialize
from afembed.loops import Verdict, classify, cycle_vertices
from afembed.numrep import build_rep, loop_spectrum, op_of_term, relation_residuals
from afembed.terms import (
    CKTerm,
    GaussianRational,
    NormalMonomial,
    adjoint,
    multiply,
)
from afembed.witness import verify_witness

from .conftest import failed_rows
from .oracles import basis_paths, oracle_classify, term_of_word, toarray
from .strategies import (
    random_condition5_graph,
    random_entrance_graph,
    random_multigraph,
)

ALG_TOL = 1e-12
SPEC_TOL = 1e-10


def _report(name: str, ok: bool, started: float, budget: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.2f}s{', ' + detail if detail else ''})")
    assert ok, f"{name} failed: {detail}"
    assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_1_classifier_matches_oracle(square, square_embedding):
    """1,000 random multigraphs plus both worked figures: exact verdict
    agreement with the literal simple-cycle oracle."""
    started = time.perf_counter()
    rng = random.Random(0xAF01)
    graphs = [random_multigraph(rng) for _ in range(1000)]
    spec, _ = square_embedding
    graphs.append(square)
    graphs.append(materialize(spec, 4))  # the second figure: the replaced graph
    mismatches = sum(1 for g in graphs if classify(g).verdict is not oracle_classify(g))
    _report(
        "1 classifier-oracle equivalence",
        mismatches == 0,
        started,
        budget=10.0,
        detail=f"{len(graphs)} graphs",
    )


def test_criterion_2_displayed_identities(square):
    """The three displayed computations hold as exact normal-form equalities
    for the 4-cycle and for random entrance-free graphs."""
    started = time.perf_counter()
    rng = random.Random(0xAF02)
    graphs = [square] + [random_condition5_graph(rng) for _ in range(30)]
    checked = 0
    ok = True
    for g in graphs:
        spec, gmap = embed(g)
        for rep in spec.replacements:
            loop, tail = rep.loop, rep.tail
            n = loop.n
            for i in range(1, n + 1):
                img = gmap.edge_map[loop.edge_index(i)]
                p_ui = CKTerm.of(NormalMonomial((), 0, (), loop.vertices[i - 1]))
                p_next = CKTerm.of(NormalMonomial((), 0, (), loop.vertices[i % n]))
                ok &= multiply(adjoint(img), img, spec) == p_ui
                ok &= multiply(img, adjoint(img), spec) == p_next
                checked += 2
            product = gmap.edge_map[loop.edge_index(1)]
            for i in range(2, n + 1):
                product = multiply(gmap.edge_map[loop.edge_index(i)], product, spec)
            f1 = rep.f_edge_for(1)
            ok &= product == CKTerm.of(NormalMonomial((f1,), n, (f1,), tail.sink))
            checked += 1
    _report(
        "2 mechanical proof reproduction",
        ok,
        started,
        budget=float(checked),  # < 1 s per identity
        detail=f"{checked} identities over {len(graphs)} graphs",
    )


def test_criterion_3_replacement_is_loop_free(square):
    """Every embedded output materializes acyclically at depths 0..10 with
    the loop vertices keeping their unique tail receiver."""
    started = time.perf_counter()
    rng = random.Random(0xAF03)
    graphs = [square] + [random_condition5_graph(rng) for _ in range(8)]
    ok = True
    for g in graphs:
        spec, _ = embed(g)
        for d in range(11):
            fd = materialize(spec, d)
            ok &= cycle_vertices(fd) == frozenset()
            for rep in spec.replacements:
                for i, u in enumerate(rep.loop.vertices, start=1):
                    ok &= fd.receivers(u) == frozenset({rep.tail.f_edge(i)})
    _report("3 acyclicity of the replacement", ok, started, budget=5.0)


def test_criterion_4_numeric_residuals(square_embedding):
    """4-cycle at depth 6: all interior-compressed residuals at most 1e-12
    and the vertex-vector defect of the receiver-sum relation exactly 1."""
    started = time.perf_counter()
    spec, gmap = square_embedding
    rep = build_rep(spec, 6)
    report = relation_residuals(rep, gmap)
    ok = report.max_residual <= ALG_TOL
    ok &= len(report.boundary_defects) == 4
    ok &= all(abs(value - 1.0) < 1e-14 for _, value in report.boundary_defects)
    _report(
        "4 numeric relation residuals",
        ok,
        started,
        budget=10.0,
        detail=f"max residual {report.max_residual:.2e} over {len(report.entries)} instances",
    )


def test_criterion_5_spectral_convergence(square_embedding):
    """Nonzero loop spectrum converges to the circle: Hausdorff distance at
    most pi*gcd(4, 2^d)/2^d, monotone in d, all moduli within 1e-10."""
    started = time.perf_counter()
    spec, gmap = square_embedding
    loop = spec.replacements[0].loop
    distances = []
    ok = True
    for d in range(4, 10):
        rep = build_rep(spec, d)
        report = loop_spectrum(rep, loop, gmap)
        bound = math.pi * math.gcd(4, 2**d) / 2**d
        ok &= report.hausdorff_to_circle <= bound
        ok &= report.max_modulus_deviation <= SPEC_TOL
        ok &= report.conjugation_mismatch <= SPEC_TOL
        distances.append(report.hausdorff_to_circle)
    ok &= all(b <= a + 1e-15 for a, b in zip(distances, distances[1:]))
    _report(
        "5 spectral convergence",
        ok,
        started,
        budget=30.0,
        detail="d=4..9, distances " + ", ".join(f"{x:.4f}" for x in distances),
    )


def test_criterion_6_witness_soundness():
    """200 random graphs with an entered loop: the emitted witness pair
    proves its two co-isometry identities and orthogonality exactly."""
    started = time.perf_counter()
    rng = random.Random(0xAF06)
    ok = True
    for _ in range(200):
        g = random_entrance_graph(rng)
        assert classify(g).verdict is Verdict.NOT_FINITE
        w = classify(g).witness
        report = verify_witness(w, g)
        ok &= not failed_rows(report) and len(report.checks) == 3
    _report("6 witness soundness", ok, started, budget=5.0)


def test_criterion_7_cross_model_consistency(square, self_loop):
    """500 random terms: symbolic normal form and the truncated
    representation agree on the interior subspace within 1e-10."""
    started = time.perf_counter()
    rng = random.Random(0xAF07)
    contexts = []
    for g, depth in ((square, 3), (self_loop, 4)):
        spec, _ = embed(g, None)
        rep = build_rep(spec, depth)
        pool = []
        for v in sorted(rep.graph.vertices):
            pool.append(("p", v))
        for e in rep.graph.edges:
            pool.append(("s", e.name))
            pool.append(("s*", e.name))
        for r in spec.replacements:
            pool.append(("t", r.tail.namespace, 1))
            pool.append(("t", r.tail.namespace, -1))
        contexts.append((spec, rep, pool))

    def atom_matrix(rep, atom):
        # dense products of each generator's matrix, independent of the engine's own product
        if atom[0] == "p":
            return toarray(rep.P[atom[1]])
        if atom[0] == "s":
            return toarray(rep.S[atom[1]])
        if atom[0] == "s*":
            return toarray(rep.S[atom[1]]).conj().T
        base = toarray(rep.T[atom[1]]) if atom[2] > 0 else toarray(rep.T[atom[1]]).conj().T
        out = base
        for _ in range(abs(atom[2]) - 1):
            out = out @ base
        return out

    checked = 0
    worst = 0.0
    attempts = 0
    while checked < 500 and attempts < 5000:
        attempts += 1
        spec, rep, pool = contexts[rng.randrange(len(contexts))]
        n_summands = rng.randint(1, 3)
        term = CKTerm.zero()
        numeric = np.zeros((rep.dimension, rep.dimension), dtype=np.complex128)
        bad = False
        for _ in range(n_summands):
            word = tuple(pool[rng.randrange(len(pool))] for _ in range(rng.randint(1, 5)))
            coeff = GaussianRational(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2)))
            try:
                term = term + term_of_word(spec, word, coeff=coeff)
            except Exception:
                bad = True
                break
            factor = np.eye(rep.dimension, dtype=np.complex128)
            for atom in reversed(word):
                factor = atom_matrix(rep, atom) @ factor
            numeric = numeric + complex(coeff) * factor
        if bad:
            continue
        symbolic = toarray(op_of_term(term, rep))
        pi = np.diag([1.0 if 1 <= len(p.edges) <= rep.depth - 1 else 0.0 for p in basis_paths(rep)])
        diff = pi @ (symbolic - numeric) @ pi
        dev = float(np.max(np.abs(diff)))
        worst = max(worst, dev)
        if dev > SPEC_TOL:
            _report("7 cross-model consistency", False, started, 60.0, f"deviation {dev:.2e}")
        checked += 1
    _report(
        "7 cross-model consistency",
        checked == 500 and worst <= SPEC_TOL,
        started,
        budget=60.0,
        detail=f"{checked} terms, worst interior deviation {worst:.2e}",
    )
