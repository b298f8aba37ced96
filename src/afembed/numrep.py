"""Truncated path-space representations and spectral checks.

Stage ``d`` acts on the free span of all paths of length at most ``d`` in
the materialized graph.  Edge isometries concatenate at the range end and
truncate at length ``d``; the tail unitary is block diagonal over the
corner at each sink, acting on the ``N_k`` level-``k`` paths (lexicographic
order) as the diagonal of ``N_k``-th roots of unity.  This is a
Toeplitz-like model: the receiver-sum relation fails on vertex vectors and
at the depth boundary, so residuals are measured after compressing to the
interior span of paths of length ``1 .. d-1``, and the boundary defect is
reported separately.

Residuals are Frobenius norms, which upper-bound the operator norm, so a
reported residual below tolerance is conclusive.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .embedding import AugmentedGraphSpec, GeneratorMap, LoopReplacement, materialize
from .graph import Graph, Path
from .loops import SimpleLoop
from .terms import CKTerm, ContextMismatchError, NormalMonomial
from .verify import ck_instances


class RepresentationError(ValueError):
    pass


@dataclass(frozen=True)
class PathBasis:
    """All paths of length ``0 .. d`` in a finite graph, canonically ordered."""

    paths: tuple[Path, ...]
    index: dict

    @classmethod
    def build(cls, g: Graph, depth: int) -> "PathBasis":
        current = [g.vertex_path(v) for v in sorted(g.vertices)]
        all_paths = list(current)
        for _ in range(depth):
            nxt = []
            for p in current:
                for e in g.out_edges(p.range):
                    nxt.append(Path((e.name,) + p.edges, source=p.source, range=e.range))
            current = nxt
            all_paths.extend(current)
        all_paths.sort(key=lambda p: (len(p.edges), p.edges, p.source))
        return cls(tuple(all_paths), {p: i for i, p in enumerate(all_paths)})

    def __len__(self) -> int:
        return len(self.paths)


@dataclass(frozen=True)
class TruncatedRep:
    """Sparse generator matrices of one finite stage."""

    spec: AugmentedGraphSpec
    depth: int
    graph: Graph
    basis: PathBasis
    P: dict
    S: dict
    T: dict
    corner_levels: dict  # namespace -> list of per-level basis index lists

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def interior_indices(self) -> list[int]:
        return [
            i for i, p in enumerate(self.basis.paths) if 1 <= len(p.edges) <= self.depth - 1
        ]

    def interior_projector(self) -> sp.csr_matrix:
        n = self.dimension
        idx = self.interior_indices()
        return sp.csr_matrix(
            (np.ones(len(idx)), (idx, idx)), shape=(n, n), dtype=np.complex128
        )


def build_rep(spec: AugmentedGraphSpec, depth: int) -> TruncatedRep:
    """Assemble the stage-``depth`` representation of the augmented graph."""
    if depth < 1:
        raise RepresentationError("depth must be >= 1: depth 0 has no corner to act on")
    g = materialize(spec, depth)
    basis = PathBasis.build(g, depth)
    n = len(basis)

    P: dict[str, sp.csr_matrix] = {}
    by_range: dict[str, list[int]] = {v: [] for v in g.vertices}
    for i, p in enumerate(basis.paths):
        by_range[p.range].append(i)
    for v, idx in by_range.items():
        data = np.ones(len(idx))
        P[v] = sp.csr_matrix((data, (idx, idx)), shape=(n, n), dtype=np.complex128)

    S: dict[str, sp.csr_matrix] = {}
    for e in g.edges:
        rows, cols = [], []
        for i, p in enumerate(basis.paths):
            if p.range == e.source and len(p.edges) < depth:
                target = Path((e.name,) + p.edges, source=p.source, range=e.range)
                rows.append(basis.index[target])
                cols.append(i)
        S[e.name] = sp.csr_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(n, n), dtype=np.complex128
        )

    T: dict[str, sp.csr_matrix] = {}
    corner_levels: dict[str, list[list[int]]] = {}
    for rep in spec.replacements:
        sink = rep.tail.sink
        levels: list[list[int]] = [[] for _ in range(depth + 1)]
        for i in by_range[sink]:
            levels[len(basis.paths[i].edges)].append(i)  # already lexicographic
        rows, vals = [], []
        for k, idx in enumerate(levels):
            n_k = len(idx)
            expected = rep.tail.mult.level_sizes(k)[-1]
            if n_k != expected:
                raise RepresentationError(
                    f"level {k} of tail {rep.tail.namespace!r} has {n_k} paths, expected {expected}"
                )
            for j, i in enumerate(idx):
                rows.append(i)
                vals.append(np.exp(2j * np.pi * j / n_k))
        T[rep.tail.namespace] = sp.csr_matrix(
            (np.array(vals), (rows, rows)), shape=(n, n), dtype=np.complex128
        )
        corner_levels[rep.tail.namespace] = levels
    return TruncatedRep(
        spec=spec, depth=depth, graph=g, basis=basis, P=P, S=S, T=T, corner_levels=corner_levels
    )


def _tail_power(rep: TruncatedRep, namespace: str, k: int) -> sp.csr_matrix:
    if namespace not in rep.T:
        raise ContextMismatchError(f"unknown tail namespace {namespace!r}")
    base = rep.T[namespace] if k > 0 else rep.T[namespace].conjugate().T
    out = base
    for _ in range(abs(k) - 1):
        out = out @ base
    return out.tocsr()


def op_of_monomial(m: NormalMonomial, rep: TruncatedRep) -> sp.csr_matrix:
    if m.is_projection:
        try:
            return rep.P[m.source]
        except KeyError:
            raise ContextMismatchError(f"vertex {m.source!r} not in the materialized stage")
    n = rep.dimension
    out = sp.identity(n, dtype=np.complex128, format="csr")
    # S[beta]^* = S[beta_1]^* ... S[beta_p]^* with beta stored as (beta_p, ..., beta_1)
    for e in m.beta:
        if e not in rep.S:
            raise ContextMismatchError(f"edge {e!r} not in the materialized stage")
        out = rep.S[e].conjugate().T.tocsr() @ out
    if m.power:
        ns = rep.spec.sink_namespace(m.source)
        if ns is None:
            raise ContextMismatchError(f"monomial source {m.source!r} is not a tail sink")
        out = _tail_power(rep, ns, m.power) @ out
    for e in reversed(m.alpha):  # innermost factor S[alpha_1] first
        if e not in rep.S:
            raise ContextMismatchError(f"edge {e!r} not in the materialized stage")
        out = rep.S[e] @ out
    return out.tocsr()


def op_of_term(term: CKTerm, rep: TruncatedRep) -> sp.csr_matrix:
    """Evaluate ``s_alpha t^k s_beta* -> S[alpha] T^k S[beta]*`` linearly."""
    n = rep.dimension
    out = sp.csr_matrix((n, n), dtype=np.complex128)
    for m, c in term.items():
        out = out + complex(c) * op_of_monomial(m, rep)
    return out.tocsr()


def _frobenius(x: sp.spmatrix) -> float:
    data = x.tocoo().data
    if data.size == 0:
        return 0.0
    return float(np.sqrt(np.sum(np.abs(data) ** 2)))


@dataclass(frozen=True)
class ResidualEntry:
    name: str
    value: float


@dataclass(frozen=True)
class ResidualReport:
    """Interior-compressed residuals plus the known boundary defects."""

    entries: tuple[ResidualEntry, ...]
    boundary_defects: tuple[ResidualEntry, ...]

    @property
    def max_residual(self) -> float:
        return max((e.value for e in self.entries), default=0.0)

    def to_csv(self) -> str:
        lines = ["instance,residual"]
        lines += [f"{e.name},{e.value:.3e}" for e in self.entries]
        lines += [f"{e.name},{e.value:.3e}" for e in self.boundary_defects]
        return "\n".join(lines) + "\n"


def relation_residuals(rep: TruncatedRep, gmap: GeneratorMap) -> ResidualReport:
    """Numeric residuals of all relation instances for the mapped family.

    The CK1-CK3 identities come from the shared catalogue
    :func:`afembed.verify.ck_instances`, evaluated with this stage's matrix
    products, so the numeric side checks the same instances as the symbolic
    side by independent arithmetic.  The LOOP and TAIL checks live here
    only: they test the loop-to-tail construction and the truncated
    representation itself, whereas the rewrite system takes ``t t* = p`` as
    an axiom and so has nothing to prove about them.
    """
    spec = rep.spec
    n = rep.dimension
    pi = rep.interior_projector()

    def compressed(x: sp.spmatrix) -> float:
        return _frobenius(pi @ x @ pi)

    entries: list[ResidualEntry] = []
    defects: list[ResidualEntry] = []

    ops = {e: op_of_term(term, rep) for e, term in gmap.edge_map.items()}
    zero = sp.csr_matrix((n, n), dtype=np.complex128)
    for family, v, identities in ck_instances(
        spec.original_graph(),
        ops,
        rep.P.__getitem__,
        lambda x: x.conjugate().T,
        operator.matmul,
        zero,
    ):
        for name, lhs, rhs in identities:
            # most CK2 right-hand sides are zero: skip |E|^2 sparse subtractions
            diff = lhs if rhs is zero else lhs - rhs
            entries.append(ResidualEntry(name, compressed(diff)))
        if family == "CK3":
            # known truncation defect: the relation fails on the vertex vector itself
            unit = np.zeros(n, dtype=np.complex128)
            unit[rep.basis.index[rep.graph.vertex_path(v)]] = 1.0
            defects.append(ResidualEntry(f"CK3-vertex-defect[{v}]", float(np.linalg.norm(diff @ unit))))

    for loop_rep in spec.replacements:
        loop = loop_rep.loop
        name = " ".join(loop.edges)
        u_terms = [ops[loop.edge_index(i)] for i in range(1, loop.n + 1)]
        for i in range(1, loop.n + 1):
            a = u_terms[i - 1]
            p_ui = rep.P[loop.vertices[i - 1]]
            p_next = rep.P[loop.vertices[i % loop.n]]
            entries.append(ResidualEntry(f"LOOP[{name}]:co-iso[{i}]", compressed(a.conjugate().T @ a - p_ui)))
            entries.append(ResidualEntry(f"LOOP[{name}]:iso[{i}]", compressed(a @ a.conjugate().T - p_next)))
        product = u_terms[-1]
        for a in reversed(u_terms[:-1]):
            product = product @ a
        closed = op_of_term(
            CKTerm.of(
                NormalMonomial(
                    (loop_rep.f_edge_for(1),), loop.n, (loop_rep.f_edge_for(1),), loop_rep.tail.sink
                )
            ),
            rep,
        )
        entries.append(ResidualEntry(f"LOOP[{name}]:power", compressed(product - closed)))

    for ns, t in sorted(rep.T.items()):
        sink = rep.spec.sink_vertex(ns)
        p_v = rep.P[sink]
        entries.append(ResidualEntry(f"TAIL[{ns}]:unitary", _frobenius(t @ t.conjugate().T - p_v)))
        entries.append(ResidualEntry(f"TAIL[{ns}]:unitary*", _frobenius(t.conjugate().T @ t - p_v)))
    return ResidualReport(tuple(entries), tuple(defects))


@dataclass(frozen=True)
class SpectrumReport:
    """Finite-stage shadow of the full-circle spectrum of a loop image.

    ``eigenvalues`` is the spectrum of the corner unitary power over all
    levels ``0 .. d``; conjugating by the loop's entry isometry clips the
    deepest level, so the conjugated operator is diagonalized separately
    and compared on the shared levels (plus its kernel).
    """

    loop: SimpleLoop
    depth: int
    eigenvalues: tuple[complex, ...]
    conjugated_nonzero: tuple[complex, ...]
    max_modulus_deviation: float
    hausdorff_to_circle: float
    conjugation_mismatch: float


def _circle_hausdorff(values: np.ndarray) -> float:
    """Hausdorff distance between a finite set and the unit circle."""
    radial = float(np.max(np.abs(np.abs(values) - 1.0)))
    angles = np.sort(np.angle(values))
    gaps = np.diff(angles, append=angles[0] + 2 * np.pi)
    max_gap = float(np.max(gaps))
    return max(radial, 2.0 * math.sin(max_gap / 4.0))


def spectral_net_bound(loop_length: int, level_size: int) -> float:
    """A priori bound on the net distance from the level-``d`` roots alone."""
    return math.pi * math.gcd(loop_length, level_size) / level_size


def loop_spectrum(rep: TruncatedRep, loop: SimpleLoop, gmap: GeneratorMap) -> SpectrumReport:
    """Diagonalize the mapped loop at this stage and measure circle distance."""
    try:
        loop_rep: LoopReplacement = rep.spec.replacement_for(loop)
    except KeyError as exc:
        raise RepresentationError(str(exc)) from exc
    ns = loop_rep.tail.namespace
    n = loop.n

    corner = [i for level in rep.corner_levels[ns] for i in level]
    tn = _tail_power(rep, ns, n)
    tn_corner = tn[np.ix_(corner, corner)].toarray()
    evals = np.linalg.eigvals(tn_corner)

    product = op_of_term(gmap.edge_map[loop.edge_index(1)], rep)
    for i in range(2, n + 1):
        product = op_of_term(gmap.edge_map[loop.edge_index(i)], rep) @ product
    coo = product.tocoo()
    support = sorted(set(coo.row) | set(coo.col))
    if support:
        conj_evals = np.linalg.eigvals(product[np.ix_(support, support)].toarray())
    else:
        conj_evals = np.array([], dtype=np.complex128)
    conj_nonzero = conj_evals[np.abs(conj_evals) > 0.5]

    # the conjugated operator sees levels 0 .. d-1 of the corner unitary power
    shallow = [i for level in rep.corner_levels[ns][: rep.depth] for i in level]
    expected = np.linalg.eigvals(tn[np.ix_(shallow, shallow)].toarray())
    mismatch = _multiset_mismatch(conj_nonzero, expected)

    return SpectrumReport(
        loop=loop,
        depth=rep.depth,
        eigenvalues=tuple(evals),
        conjugated_nonzero=tuple(conj_nonzero),
        max_modulus_deviation=float(np.max(np.abs(np.abs(evals) - 1.0))),
        hausdorff_to_circle=_circle_hausdorff(evals),
        conjugation_mismatch=mismatch,
    )


def _multiset_mismatch(a: np.ndarray, b: np.ndarray) -> float:
    if len(a) != len(b):
        return float("inf")
    if len(a) == 0:
        return 0.0
    key = lambda arr: np.lexsort((np.abs(arr), np.round(np.angle(arr), 9)))
    return float(np.max(np.abs(a[key(a)] - b[key(b)])))
