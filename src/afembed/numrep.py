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

Every generator image is monomial: ``P_v`` is a 0/1 diagonal, ``S_e`` a
partial permutation and ``T`` a diagonal of roots of unity.  An
:class:`Operator` is therefore stored as a sum of :class:`Piece` objects,
each a phased partial permutation held on its support only (sorted source
indices, target indices, phases).  A product of two pieces is one
``searchsorted`` join and an adjoint swaps the index arrays and conjugates
the phases, so a relation instance costs time in proportion to its
support, not to the dimension.  Only a sum (a ``--map`` image with several
monomials, or a receiver sum) can put more than one piece on a matrix
entry; its entries are merged, in the order the sum was formed, before a
product or a norm reads them.  Complex products are formed as separate
real multiplies and adds, so no platform's fused multiply-add moves the
last bit of a near-zero residual.

Residuals are Frobenius norms, which upper-bound the operator norm, so a
reported residual below tolerance is conclusive.

Spectra need no eigensolver in the common case: ``T^n`` on the corner is
diagonal, and a phased partial permutation has the ``L``-th roots of ``w``
on each cycle of length ``L`` and phase product ``w``, and zeros on its
chains.  Only a loop image that is a genuine sum, with two entries in one
row or column, falls back to a dense ``eigvals`` on its support.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

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


def _mul(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    """Elementwise complex product as separate real multiplies and adds.

    This is the arithmetic of a sparse matrix product; numpy's own complex
    ``*`` may fuse a multiply-add and round differently.  None stands for
    all ones, and multiplying by one is exact either way.
    """
    if a is None:
        return b
    if b is None:
        return a
    out = np.empty(len(a), dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _take(phase: np.ndarray | None, idx: np.ndarray) -> np.ndarray | None:
    return None if phase is None else phase[idx]


@dataclass(frozen=True, eq=False)
class Piece:
    """A phased partial permutation: basis vector ``src[k]`` goes to
    ``phase[k]`` times basis vector ``tgt[k]``.

    ``src`` is sorted and neither index array repeats a value; ``phase``
    None means all ones (projections and edge isometries).
    """

    src: np.ndarray
    tgt: np.ndarray
    phase: np.ndarray | None = None

    def values(self) -> np.ndarray:
        return np.ones(len(self.src), dtype=np.complex128) if self.phase is None else self.phase

    def adjoint(self) -> "Piece":
        order = np.argsort(self.tgt)
        phase = None if self.phase is None else np.conj(self.phase[order])
        return Piece(self.tgt[order], self.src[order], phase)

    def after(self, b: "Piece") -> "Piece":
        """``self @ b``: follow ``b``, then ``self`` where ``b`` lands in its domain."""
        if not len(self.src) or not len(b.src):
            return _NO_PIECE
        pos = np.minimum(np.searchsorted(self.src, b.tgt), len(self.src) - 1)
        hit = self.src[pos] == b.tgt
        pos = pos[hit]
        return Piece(b.src[hit], self.tgt[pos], _mul(_take(self.phase, pos), _take(b.phase, hit)))


_NO_INDEX = np.zeros(0, dtype=np.int64)
_NO_PIECE = Piece(_NO_INDEX, _NO_INDEX)


def _merge(src: np.ndarray, tgt: np.ndarray, val: np.ndarray, order_key=None):
    """Sum repeated ``(src, tgt)`` entries; the result is sorted by ``(src, tgt)``.

    Each entry's values are added left to right, in array order or, when
    given, in increasing ``order_key`` (the middle index of a product), as
    a sparse matrix sum or product accumulates them.  Exact zeros are
    dropped.
    """
    keys = (tgt, src) if order_key is None else (order_key, tgt, src)
    order = np.lexsort(keys)  # stable: ties keep array order
    src, tgt, val = src[order], tgt[order], val[order]
    new = np.ones(len(src), dtype=bool)
    new[1:] = (src[1:] != src[:-1]) | (tgt[1:] != tgt[:-1])
    if not new.all():
        group = np.cumsum(new) - 1
        re = np.zeros(int(group[-1]) + 1)
        im = np.zeros_like(re)
        np.add.at(re, group, val.real)
        np.add.at(im, group, val.imag)
        src, tgt = src[new], tgt[new]
        val = np.empty(len(re), dtype=np.complex128)
        val.real, val.imag = re, im
    nonzero = val != 0
    return src[nonzero], tgt[nonzero], val[nonzero]


def _first_of_each(x: np.ndarray) -> np.ndarray:
    first = np.zeros(len(x), dtype=bool)
    first[np.unique(x, return_index=True)[1]] = True
    return first


def _split(src: np.ndarray, tgt: np.ndarray, val: np.ndarray) -> tuple[Piece, ...]:
    """Cut merged entries, sorted by source, into disjoint phased partial permutations."""
    pieces = []
    while len(src):
        take = _first_of_each(src) & _first_of_each(tgt)  # never empty: entry 0 is first of both
        pieces.append(Piece(src[take], tgt[take], val[take]))
        src, tgt, val = src[~take], tgt[~take], val[~take]
    return tuple(pieces)


def _cycle_spectrum(src: np.ndarray, tgt: np.ndarray, val: np.ndarray) -> np.ndarray:
    """Eigenvalues of a phased partial permutation on its support.

    A cycle of length ``L`` with phase product ``w`` contributes the
    ``L``-th roots of ``w``; every vertex on a chain contributes zero.
    Fixed points come first, in index order, with their phases unchanged.
    """
    fixed = src == tgt
    out = list(val[fixed])
    step = dict(zip(src[~fixed].tolist(), zip(tgt[~fixed].tolist(), val[~fixed].tolist())))
    seen: set[int] = set()
    for start in step:
        if start in seen:
            continue
        node, length, w = start, 0, 1 + 0j
        while node in step and node not in seen:
            seen.add(node)
            node, phase = step[node]
            length += 1
            w *= phase
        if node == start:
            r, theta = abs(w) ** (1.0 / length), cmath.phase(w)
            out += [cmath.rect(r, (theta + 2 * math.pi * k) / length) for k in range(length)]
    support = len(np.union1d(src, tgt))
    return np.array(out + [0j] * (support - len(out)), dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class Operator:
    """A sum of phased partial permutations on a ``dim``-dimensional space."""

    dim: int
    pieces: tuple[Piece, ...] = ()

    def __add__(self, other: "Operator") -> "Operator":
        # a sum's entries are merged before they are added, as with sparse matrices
        tail = other.pieces if len(other.pieces) <= 1 else _split(*other.entries())
        return Operator(self.dim, self.pieces + tail)

    def __sub__(self, other: "Operator") -> "Operator":
        return self + other.scale(-1)

    def scale(self, c: complex) -> "Operator":
        if c == 1:
            return self
        # numpy's scalar product, as a sparse matrix scales its data
        return Operator(self.dim, tuple(Piece(p.src, p.tgt, p.values() * complex(c)) for p in self.pieces))

    def adjoint(self) -> "Operator":
        return Operator(self.dim, tuple(p.adjoint() for p in self.pieces))

    def __matmul__(self, other: "Operator") -> "Operator":
        if not self.pieces or not other.pieces:
            return Operator(self.dim)
        if len(self.pieces) == 1 and len(other.pieces) == 1:
            return Operator(self.dim, (self.pieces[0].after(other.pieces[0]),))
        # a sum: merge both factors, join on the middle index, add in its order
        a_src, a_tgt, a_val = self.entries()
        b_src, b_tgt, b_val = other.entries()
        lo = np.searchsorted(a_src, b_tgt, side="left")
        counts = np.searchsorted(a_src, b_tgt, side="right") - lo
        b_idx = np.repeat(np.arange(len(b_src)), counts)
        starts = np.cumsum(counts) - counts
        a_idx = np.arange(int(counts.sum())) - np.repeat(starts - lo, counts)
        merged = _merge(b_src[b_idx], a_tgt[a_idx], _mul(a_val[a_idx], b_val[b_idx]), order_key=b_tgt[b_idx])
        return Operator(self.dim, _split(*merged))

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(src, tgt, value)`` of the nonzero matrix entries, sorted by source."""
        if len(self.pieces) == 1:
            p = self.pieces[0]
            return p.src, p.tgt, p.values()
        if not self.pieces:
            return _NO_INDEX, _NO_INDEX, np.zeros(0, dtype=np.complex128)
        return _merge(
            np.concatenate([p.src for p in self.pieces]),
            np.concatenate([p.tgt for p in self.pieces]),
            np.concatenate([p.values() for p in self.pieces]),
        )

    def frobenius(self, mask: np.ndarray | None = None) -> float:
        """Frobenius norm, of the compression to ``mask`` when given.

        Entries are summed in row-major order, as a sparse matrix stores them.
        """
        src, tgt, val = self.entries()
        if mask is not None:
            keep = mask[src] & mask[tgt]
            src, tgt, val = src[keep], tgt[keep], val[keep]
        if not len(val):
            return 0.0
        return float(np.sqrt(np.sum(np.abs(val[np.lexsort((src, tgt))]) ** 2)))

    def column_norm(self, j: int) -> float:
        src, tgt, val = self.entries()
        column = np.zeros(self.dim, dtype=np.complex128)
        column[tgt[src == j]] = val[src == j]
        return float(np.linalg.norm(column))

    def eigenvalues(self) -> np.ndarray:
        """Spectrum on the span of the basis vectors this operator touches."""
        src, tgt, val = self.entries()
        if len(np.unique(src)) == len(src) and len(np.unique(tgt)) == len(tgt):
            return _cycle_spectrum(src, tgt, val)
        support = np.union1d(src, tgt)
        dense = np.zeros((len(support), len(support)), dtype=np.complex128)
        dense[np.searchsorted(support, tgt), np.searchsorted(support, src)] = val
        return np.linalg.eigvals(dense)

    def toarray(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for p in self.pieces:
            np.add.at(out, (p.tgt, p.src), p.values())
        return out


@dataclass(frozen=True)
class TruncatedRep:
    """Generator operators of one finite stage."""

    spec: AugmentedGraphSpec
    depth: int
    graph: Graph
    basis: PathBasis
    P: dict
    S: dict
    T: dict
    corner_levels: dict  # namespace -> list of per-level basis index lists
    interior: np.ndarray  # True on paths of length 1 .. depth-1

    @property
    def dimension(self) -> int:
        return len(self.basis)


def build_rep(spec: AugmentedGraphSpec, depth: int) -> TruncatedRep:
    """Assemble the stage-``depth`` representation of the augmented graph."""
    if depth < 1:
        raise RepresentationError("depth must be >= 1: depth 0 has no corner to act on")
    g = materialize(spec, depth)
    basis = PathBasis.build(g, depth)
    n = len(basis)

    def operator_on(src, tgt=None, phase=None) -> Operator:
        src = np.asarray(src, dtype=np.int64)
        tgt = src if tgt is None else np.asarray(tgt, dtype=np.int64)
        return Operator(n, (Piece(src, tgt, phase),))

    # one pass over the basis: each path of length >= 1 is S[e] of its
    # suffix without the range-end edge e
    by_range: dict[str, list[int]] = {v: [] for v in g.vertices}
    extension: dict[str, tuple[list[int], list[int]]] = {e.name: ([], []) for e in g.edges}
    lengths = np.zeros(n, dtype=np.int64)
    for i, p in enumerate(basis.paths):
        by_range[p.range].append(i)
        lengths[i] = len(p.edges)
        if p.edges:
            e = p.edges[0]
            suffix = Path(p.edges[1:], source=p.source, range=g.edge(e).source)
            src, tgt = extension[e]
            src.append(basis.index[suffix])
            tgt.append(i)

    P = {v: operator_on(idx) for v, idx in by_range.items()}
    S = {}
    for e, (src, tgt) in extension.items():
        order = np.argsort(src)
        S[e] = operator_on(np.asarray(src, dtype=np.int64)[order], np.asarray(tgt, dtype=np.int64)[order])

    T: dict[str, Operator] = {}
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
        T[rep.tail.namespace] = operator_on(rows, phase=np.array(vals, dtype=np.complex128))
        corner_levels[rep.tail.namespace] = levels
    return TruncatedRep(
        spec=spec,
        depth=depth,
        graph=g,
        basis=basis,
        P=P,
        S=S,
        T=T,
        corner_levels=corner_levels,
        interior=(lengths >= 1) & (lengths <= depth - 1),
    )


def _tail_power(rep: TruncatedRep, namespace: str, k: int) -> Operator:
    if namespace not in rep.T:
        raise ContextMismatchError(f"unknown tail namespace {namespace!r}")
    base = rep.T[namespace] if k > 0 else rep.T[namespace].adjoint()
    out = base
    for _ in range(abs(k) - 1):
        out = out @ base
    return out


def op_of_monomial(m: NormalMonomial, rep: TruncatedRep) -> Operator:
    if m.is_projection:
        try:
            return rep.P[m.source]
        except KeyError:
            raise ContextMismatchError(f"vertex {m.source!r} not in the materialized stage")
    factors = []
    # S[beta]^* = S[beta_1]^* ... S[beta_p]^* with beta stored as (beta_p, ..., beta_1)
    for e in m.beta:
        if e not in rep.S:
            raise ContextMismatchError(f"edge {e!r} not in the materialized stage")
        factors.append(rep.S[e].adjoint())
    if m.power:
        ns = rep.spec.sink_namespace(m.source)
        if ns is None:
            raise ContextMismatchError(f"monomial source {m.source!r} is not a tail sink")
        factors.append(_tail_power(rep, ns, m.power))
    for e in reversed(m.alpha):  # innermost factor S[alpha_1] first
        if e not in rep.S:
            raise ContextMismatchError(f"edge {e!r} not in the materialized stage")
        factors.append(rep.S[e])
    out = factors[0]
    for f in factors[1:]:
        out = f @ out
    return out


def op_of_term(term: CKTerm, rep: TruncatedRep) -> Operator:
    """Evaluate ``s_alpha t^k s_beta* -> S[alpha] T^k S[beta]*`` linearly."""
    out = Operator(rep.dimension)
    for m, c in term.items():
        out = out + op_of_monomial(m, rep).scale(complex(c))
    return out


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
    :func:`afembed.verify.ck_instances`, evaluated with this stage's
    operator products, so the numeric side checks the same instances as the
    symbolic side by independent arithmetic.  The LOOP and TAIL checks live
    here only: they test the loop-to-tail construction and the truncated
    representation itself, whereas the rewrite system takes ``t t* = p`` as
    an axiom and so has nothing to prove about them.
    """
    spec = rep.spec
    interior = rep.interior
    entries: list[ResidualEntry] = []
    defects: list[ResidualEntry] = []

    ops = {e: op_of_term(term, rep) for e, term in gmap.edge_map.items()}
    zero = Operator(rep.dimension)
    for family, v, identities in ck_instances(
        spec.original_graph(),
        ops,
        rep.P.__getitem__,
        Operator.adjoint,
        operator.matmul,
        zero,
    ):
        for name, lhs, rhs in identities:
            # most CK2 right-hand sides are zero: skip |E|^2 subtractions
            diff = lhs if rhs is zero else lhs - rhs
            entries.append(ResidualEntry(name, diff.frobenius(interior)))
        if family == "CK3":
            # known truncation defect: the relation fails on the vertex vector itself
            vertex = rep.basis.index[rep.graph.vertex_path(v)]
            defects.append(ResidualEntry(f"CK3-vertex-defect[{v}]", diff.column_norm(vertex)))

    for loop_rep in spec.replacements:
        loop = loop_rep.loop
        name = " ".join(loop.edges)
        u_terms = [ops[loop.edge_index(i)] for i in range(1, loop.n + 1)]
        for i in range(1, loop.n + 1):
            a = u_terms[i - 1]
            p_ui = rep.P[loop.vertices[i - 1]]
            p_next = rep.P[loop.vertices[i % loop.n]]
            entries.append(ResidualEntry(f"LOOP[{name}]:co-iso[{i}]", (a.adjoint() @ a - p_ui).frobenius(interior)))
            entries.append(ResidualEntry(f"LOOP[{name}]:iso[{i}]", (a @ a.adjoint() - p_next).frobenius(interior)))
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
        entries.append(ResidualEntry(f"LOOP[{name}]:power", (product - closed).frobenius(interior)))

    for ns, t in sorted(rep.T.items()):
        p_v = rep.P[rep.spec.sink_vertex(ns)]
        entries.append(ResidualEntry(f"TAIL[{ns}]:unitary", (t @ t.adjoint() - p_v).frobenius()))
        entries.append(ResidualEntry(f"TAIL[{ns}]:unitary*", (t.adjoint() @ t - p_v).frobenius()))
    return ResidualReport(tuple(entries), tuple(defects))


@dataclass(frozen=True)
class SpectrumReport:
    """Finite-stage shadow of the full-circle spectrum of a loop image.

    ``eigenvalues`` is the spectrum of the corner unitary power over all
    levels ``0 .. d``; conjugating by the loop's entry isometry clips the
    deepest level, so the conjugated operator's spectrum is taken
    separately and compared on the shared levels (plus its kernel).
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
    """Spectrum of the mapped loop at this stage and its distance to the circle."""
    try:
        loop_rep: LoopReplacement = rep.spec.replacement_for(loop)
    except KeyError as exc:
        raise RepresentationError(str(exc)) from exc
    ns = loop_rep.tail.namespace
    n = loop.n

    # T^n is diagonal on the corner (all levels, in basis order): its eigenvalues are its phases
    evals = _tail_power(rep, ns, n).pieces[0].values()

    product = op_of_term(gmap.edge_map[loop.edge_index(1)], rep)
    for i in range(2, n + 1):
        product = op_of_term(gmap.edge_map[loop.edge_index(i)], rep) @ product
    conj_evals = product.eigenvalues()
    conj_nonzero = conj_evals[np.abs(conj_evals) > 0.5]

    # the conjugated operator sees levels 0 .. d-1 of the corner unitary power
    shallow = sum(len(level) for level in rep.corner_levels[ns][: rep.depth])
    mismatch = _multiset_mismatch(conj_nonzero, evals[:shallow])

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
