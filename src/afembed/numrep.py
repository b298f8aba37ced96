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
each a phased partial permutation held on its support only: tuples of
sorted source indices, target indices and phases.  A product of two pieces
is one dict join and an adjoint swaps the index tuples and conjugates the
phases, so a relation instance costs time in proportion to its support,
not to the dimension.  Only a sum (a ``--map`` image with several
monomials, or a receiver sum) can put more than one piece on a matrix
entry; its entries are merged, in the order the sum was formed, before a
product or a norm reads them.

The engine is plain Python, so no printed number depends on the CPU
kernels numpy picks: every product, coefficients included, is Python's
complex product, with separate real multiplies and adds and no fused
multiply-add; and every norm and modulus is CPython's own ``math.hypot``
over real and imaginary parts, not ``abs`` of a complex number, which
calls the platform's ``hypot``.  numpy is loaded only for a loop image
that is a genuine sum, whose spectrum needs a dense eigensolver.

Residuals are Frobenius norms, which upper-bound the operator norm, so a
reported residual below tolerance is conclusive.

No numeric product is formed twice.  No loop has an entrance, so ``u_{i+1}``
receives ``e_i`` alone, and a loop's ``iso[i]`` residual is the operator,
mask and subtraction of ``CK3[u_{i+1}]``; as ``u_i = source(e_i)``, its
``co-iso[i]`` is ``CK2[e_i,e_i]``: each row shows the outcome of that
instance, by its position in the report.
Each term's operator is formed once per stage and kept on the stage, and
so is each loop's product of images, so the loop's spectrum reads the
product ``LOOP:power`` formed; ``T^n`` on a finite stage is ``T``'s phases
raised to the ``n``-th power elementwise.

Spectra need no eigensolver in the common case: ``T^n`` on the corner is
diagonal, and a phased partial permutation has the ``L``-th roots of ``w``
on each cycle of length ``L`` and phase product ``w``, and zeros on its
chains.  Only a loop image that is a genuine sum, with two entries in one
row or column, falls back to numpy's dense ``eigvals`` on its support, and
a support above :data:`MAX_DENSE_SUPPORT` is refused before it is allocated.
"""

from __future__ import annotations

import cmath
import math
import operator
from bisect import bisect_left
from functools import cached_property, partial, reduce
from itertools import compress, repeat
from types import SimpleNamespace

from .embedding import MAX_STAGE_SIZE, AugmentedGraphSpec, GeneratorMap, LoopReplacement, StageTooLargeError, materialize
from .graph import Graph, Path
from .loops import SimpleLoop
from .terms import CKTerm, ContextMismatchError, NormalMonomial
from .verify import Catalogue, ck_instances


class RepresentationError(ValueError):
    pass


#: The most basis vectors the dense eigensolver takes.  ``eigvals`` holds
#: two complex matrices of that side, so with numpy 2.4 on x86-64 it peaks
#: at about 33 MB plus 32 bytes per entry: 164 MB at 2,047 vectors, 311 MB
#: at 3,000 and 550 MB at 4,095, so a spectrum at this ceiling stays within
#: the half gigabyte that :data:`MAX_STAGE_SIZE` allows a stage.
MAX_DENSE_SUPPORT = 3000


class DenseSpectrumTooLargeError(RepresentationError):
    """A dense spectrum above :data:`MAX_DENSE_SUPPORT`, refused before it is allocated."""


class PathBasis(SimpleNamespace):
    """All paths of length ``0 .. d`` in the finite ``graph``, canonically
    ordered: by length, then by edge tuple, then by source.

    Row ``i`` is held as three ids: ``edge[i]``, its range-end edge (-1 for
    a vertex), ``suffix[i]``, the row of the path without that edge (-1 for
    a vertex), and ``rng[i]``, its range vertex.  Rows of length ``k`` are
    ``starts[k] .. starts[k+1] - 1``.  No path is longer than an empty level,
    so ``starts`` ends after the first empty level and then has fewer than
    ``d + 2`` entries.  ``paths`` and ``index`` are name-level views, built
    on first use.
    """

    @classmethod
    def build(cls, g: Graph, depth: int) -> "PathBasis":
        """Ids number names in sorted order, so the canonical order needs no
        sort: the vertices in id order, then per level, each edge in id order
        extending the previous level's rows that end at its source, in row order."""
        n = len(g.vertex_names)
        edge, suffix, rng, starts = [-1] * n, [-1] * n, list(range(n)), [0, n]
        for _ in range(depth):
            ending: list[list[int]] = [[] for _ in range(n)]
            for i in range(starts[-2], starts[-1]):
                ending[rng[i]].append(i)
            for e, (s, r) in enumerate(zip(g.src, g.rng)):
                rows = ending[s]
                edge += [e] * len(rows)
                suffix += rows
                rng += [r] * len(rows)
            starts.append(len(rng))
            if starts[-1] == starts[-2]:
                break
        return cls(graph=g, edge=tuple(edge), suffix=tuple(suffix), rng=tuple(rng), starts=tuple(starts))

    @cached_property
    def paths(self) -> tuple[Path, ...]:
        vn, en = self.graph.vertex_names, self.graph.edge_names
        paths = [Path((), v, v) for v in vn]
        for e, i, r in zip(self.edge[len(vn) :], self.suffix[len(vn) :], self.rng[len(vn) :]):
            p = paths[i]
            paths.append(Path((en[e],) + p.edges, p.source, vn[r]))
        return tuple(paths)

    @cached_property
    def index(self) -> dict[Path, int]:
        return {p: i for i, p in enumerate(self.paths)}

    def __len__(self) -> int:
        return len(self.rng)


def _mul(a: tuple[complex, ...] | None, b: tuple[complex, ...] | None) -> tuple[complex, ...] | None:
    """Elementwise complex product; None stands for all ones.

    Python's ``complex * complex`` forms the real and imaginary parts with
    separate multiplies and adds, as a sparse matrix product does, so no
    fused multiply-add moves the last bit.  Multiplying by one is exact, so
    None is never expanded.
    """
    if a is None:
        return b
    if b is None:
        return a
    return tuple(map(operator.mul, a, b))


def _take(phase: tuple[complex, ...] | None, idx: list[int]) -> tuple[complex, ...] | None:
    return None if phase is None else tuple(map(phase.__getitem__, idx))


class Piece:
    """A phased partial permutation: basis vector ``src[k]`` goes to
    ``phase[k]`` times basis vector ``tgt[k]``.

    ``src`` is sorted and neither index tuple repeats a value; ``phase``
    None means all ones (projections and edge isometries).  ``position``,
    where each source index sits in ``src``, is the join key of
    :meth:`after`; it is None until the piece's first join builds it.
    """

    __slots__ = ("src", "tgt", "phase", "position")

    def __init__(self, src: tuple[int, ...], tgt: tuple[int, ...], phase: tuple[complex, ...] | None = None):
        self.src = src
        self.tgt = tgt
        self.phase = phase
        self.position = None

    def __repr__(self) -> str:
        return f"Piece(src={self.src!r}, tgt={self.tgt!r}, phase={self.phase!r})"

    def values(self) -> tuple[complex, ...]:
        return (1 + 0j,) * len(self.src) if self.phase is None else self.phase

    def adjoint(self) -> "Piece":
        if self.src == self.tgt:  # a diagonal: its indices stay
            return self if self.phase is None else Piece(self.src, self.tgt, tuple(map(complex.conjugate, self.phase)))
        order = sorted(range(len(self.tgt)), key=self.tgt.__getitem__)
        phase = None if self.phase is None else tuple(map(complex.conjugate, map(self.phase.__getitem__, order)))
        return Piece(tuple(map(self.tgt.__getitem__, order)), tuple(map(self.src.__getitem__, order)), phase)

    def after(self, b: "Piece") -> "Piece":
        """``self @ b``: follow ``b``, then ``self`` where ``b`` lands in its domain."""
        position = self.position
        if position is None:
            position = self.position = dict(zip(self.src, range(len(self.src))))
        if position.keys().isdisjoint(b.tgt):
            return _NO_PIECE
        at = list(map(position.get, b.tgt))
        if None in at:
            hit = [i for i, k in enumerate(at) if k is not None]
            src, at, b_phase = tuple(map(b.src.__getitem__, hit)), [at[i] for i in hit], _take(b.phase, hit)
        else:
            src, b_phase = b.src, b.phase
        return Piece(src, tuple(map(self.tgt.__getitem__, at)), _mul(_take(self.phase, at), b_phase))


_NO_PIECE = Piece((), ())


def _merge(dim: int, runs) -> dict[int, complex]:
    """Sum runs of ``(src, tgt, values)`` entries, none of which repeats an entry in one run.

    An entry's values are added in run order, as a sparse matrix sum (a run
    per summand) or product (a run per middle index, in increasing order)
    accumulates them; as there, once any entry repeats, every sum starts
    from ``0j``.  Returns the nonzero entries keyed by their row-major
    position ``tgt * dim + src``, in increasing order.
    """
    keyed = [(list(map(operator.add, map(operator.mul, tgt, repeat(dim)), src)), values) for src, tgt, values in runs]
    merged: dict[int, complex] = {}
    for cells, values in keyed:
        merged.update(zip(cells, values))
    if len(merged) < sum(len(cells) for cells, _ in keyed):
        merged = {}
        for cells, values in keyed:
            merged.update(list(zip(cells, map(operator.add, map(merged.get, cells, repeat(0j)), values))))
    cells = sorted(merged)
    values = list(map(merged.__getitem__, cells))
    return dict(compress(zip(cells, values), values))


def _by_source(dim: int, merged: dict[int, complex]) -> tuple[tuple[int, ...], tuple[int, ...], tuple[complex, ...]]:
    """Merged entries as ``(src, tgt, values)``, sorted by ``(src, tgt)``."""
    if not merged:
        return (), (), ()
    cells = sorted(merged, key=lambda c: (c % dim, c))
    return tuple(c % dim for c in cells), tuple(c // dim for c in cells), tuple(map(merged.__getitem__, cells))


def _compress(run, mask: tuple[bool, ...]):
    """The entries of a ``(src, tgt, values)`` run with both ends in ``mask``."""
    src, tgt, values = run
    keep = list(map(operator.and_, map(mask.__getitem__, src), map(mask.__getitem__, tgt)))
    return tuple(compress(src, keep)), tuple(compress(tgt, keep)), tuple(compress(values, keep))


def _same_entries(runs) -> bool:
    """Whether every run has the entries of the first, so that all repeat."""
    src, tgt, _ = runs[0]
    return all(r[0] == src and r[1] == tgt for r in runs[1:])


def _split(src, tgt, val) -> tuple[Piece, ...]:
    """Cut merged entries, sorted by source, into disjoint phased partial permutations."""
    pieces = []
    entries = list(zip(src, tgt, val))
    while entries:
        seen_src: set[int] = set()
        seen_tgt: set[int] = set()
        take, rest = [], []
        for entry in entries:
            s, t, _ = entry
            first = s not in seen_src and t not in seen_tgt  # entry 0 always is: never empty
            seen_src.add(s)
            seen_tgt.add(t)
            (take if first else rest).append(entry)
        s, t, v = zip(*take)
        pieces.append(Piece(s, t, v))
        entries = rest
    return tuple(pieces)


def _cycle_spectrum(src, tgt, val) -> list[complex]:
    """Eigenvalues of a phased partial permutation on its support.

    A cycle of length ``L`` with phase product ``w`` contributes the
    ``L``-th roots of ``w``; every vertex on a chain contributes zero.
    Fixed points come first, in index order, with their phases unchanged.
    """
    out = [v for s, t, v in zip(src, tgt, val) if s == t]
    step = {s: (t, v) for s, t, v in zip(src, tgt, val) if s != t}
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
            r, theta = math.hypot(w.real, w.imag) ** (1.0 / length), cmath.phase(w)
            out += [cmath.rect(r, (theta + 2 * math.pi * k) / length) for k in range(length)]
    support = len(set(src) | set(tgt))
    return out + [0j] * (support - len(out))


class Operator:
    """A sum of phased partial permutations on a ``dim``-dimensional space."""

    __slots__ = ("dim", "pieces")

    def __init__(self, dim: int, pieces: tuple[Piece, ...] = ()):
        self.dim = dim
        self.pieces = pieces

    def __repr__(self) -> str:
        return f"Operator(dim={self.dim!r}, pieces={self.pieces!r})"

    def __add__(self, other: "Operator") -> "Operator":
        return Operator(self.dim, self.pieces + other.pieces)

    def __sub__(self, other: "Operator") -> "Operator":
        return self + other.scale(-1)

    def scale(self, c: complex) -> "Operator":
        c = complex(c)
        if c == 1:
            return self
        return Operator(self.dim, tuple(Piece(p.src, p.tgt, tuple(map(operator.mul, p.values(), repeat(c)))) for p in self.pieces))

    def adjoint(self) -> "Operator":
        return Operator(self.dim, tuple(p.adjoint() for p in self.pieces))

    def __matmul__(self, other: "Operator") -> "Operator":
        if not self.pieces or not other.pieces:
            return Operator(self.dim)
        if len(self.pieces) == 1 and len(other.pieces) == 1:
            return Operator(self.dim, (self.pieces[0].after(other.pieces[0]),))
        # a sum: merge both factors, join on the middle index, add in its order
        by_source: dict[int, list[tuple[int, complex]]] = {}
        for s, t, v in zip(*self.entries()):
            by_source.setdefault(s, []).append((t, v))
        by_target: dict[int, list[tuple[int, complex]]] = {}
        for s, t, v in zip(*other.entries()):
            by_target.setdefault(t, []).append((s, v))
        runs = []
        for m in sorted(by_source.keys() & by_target.keys()):
            terms = [(s, t, u * v) for s, v in by_target[m] for t, u in by_source[m]]
            runs.append(tuple(zip(*terms)))
        return Operator(self.dim, _split(*_by_source(self.dim, _merge(self.dim, runs))))

    def _merged(self) -> dict[int, complex]:
        return _merge(self.dim, ((p.src, p.tgt, p.values()) for p in self.pieces))

    def entries(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[complex, ...]]:
        """``(src, tgt, value)`` of the nonzero matrix entries, sorted by source."""
        if len(self.pieces) == 1:
            p = self.pieces[0]
            return p.src, p.tgt, p.values()
        return _by_source(self.dim, self._merged())

    def frobenius(self, mask: tuple[bool, ...] | None = None) -> float:
        """Frobenius norm, of the compression to ``mask`` when given: one
        ``math.hypot`` over the real and imaginary parts of the entries."""
        runs = [(p.src, p.tgt, p.values()) for p in self.pieces]
        if not runs:
            return 0.0
        if len(runs) > 1 and mask is not None and not _same_entries(runs):
            # compressing each summand first leaves every kept entry's sum as it was
            runs = [_compress(run, mask) for run in runs]
        if len(runs) == 1:
            values = (runs[0] if mask is None else _compress(runs[0], mask))[2]
        elif _same_entries(runs):
            # as when a relation holds: add elementwise, then mask what is left
            src, tgt, _ = runs[0]
            values = tuple(reduce(partial(map, operator.add), (r[2] for r in runs)))
            values = [v for s, t, v in compress(zip(src, tgt, values), values) if mask is None or (mask[s] and mask[t])]
        else:
            values = _merge(self.dim, runs).values()
        return math.hypot(*(x for v in values for x in (v.real, v.imag)))

    def column_norm(self, j: int) -> float:
        """Euclidean norm of column ``j``.

        Each piece holds at most one entry of the column, found by bisecting
        its sorted ``src``; the entries are added in piece order and read in
        target order, as merging the whole operator adds and orders them.
        """
        column: dict[int, complex] = {}
        for p in self.pieces:
            k = bisect_left(p.src, j)
            if k < len(p.src) and p.src[k] == j:
                t, v = p.tgt[k], 1 + 0j if p.phase is None else p.phase[k]
                column[t] = column[t] + v if t in column else v
        return math.hypot(*(x for t in sorted(column) for x in (column[t].real, column[t].imag)))

    def eigenvalues(self) -> list[complex]:
        """Spectrum on the span of the basis vectors this operator touches."""
        src, tgt, val = self.entries()
        if len(set(src)) == len(src) and len(set(tgt)) == len(tgt):
            return _cycle_spectrum(src, tgt, val)
        # a genuine sum, two entries in one row or column: dense, on the support
        support = {v: k for k, v in enumerate(sorted(set(src) | set(tgt)))}
        if len(support) > MAX_DENSE_SUPPORT:
            raise DenseSpectrumTooLargeError(
                f"the spectrum needs a dense eigensolver on {len(support)} basis vectors, "
                f"more than the {MAX_DENSE_SUPPORT} it may take"
            )
        import numpy as np

        dense = np.zeros((len(support), len(support)), dtype=np.complex128)
        for s, t, v in zip(src, tgt, val):
            dense[support[t], support[s]] = v
        return [complex(z) for z in np.linalg.eigvals(dense)]

    def toarray(self):
        """The dense matrix, as a numpy array (for tests)."""
        import numpy as np

        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for p in self.pieces:
            np.add.at(out, (list(p.tgt), list(p.src)), p.values())
        return out


class TruncatedRep(SimpleNamespace):
    """Generator operators of one finite stage.

    ``graph`` is the stage ``F_d`` of the augmented graph ``spec`` at
    ``depth`` ``d``, and ``basis`` its :class:`PathBasis`; ``P``, ``S``
    and ``T`` map vertex, edge and tail namespace ids to their
    :class:`Operator`.  ``corner_levels`` maps a tail namespace to its
    per-level lists of basis indices; ``interior`` is True on the paths of
    length ``1 .. depth-1``.

    ``images`` maps each term :func:`op_of_term` has evaluated on this
    stage to its :class:`Operator`, and ``products`` each loop's images, as
    a tuple of terms ``(a_n, ..., a_1)``, to the product
    :func:`loop_product` formed of them, so that the residuals and the
    spectra of one map share its images and products; :func:`build_rep`
    sets both empty.
    """

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _tail_phase(j: int, n: int) -> complex:
    """``exp(2 pi i j / n)``; equal to numpy's ``np.exp`` of the same argument
    to the bit, as long as the division by ``n`` comes last."""
    return cmath.exp(2j * math.pi * j / n)


def _basis_rows(g: Graph, depth: int) -> int:
    """Rows of ``PathBasis.build(g, depth)``, from the number of paths of each
    length ending at each vertex; once past :data:`MAX_STAGE_SIZE` the
    count stops, so it is then a lower bound."""
    ending = [1] * len(g.vertex_names)
    rows = len(ending)
    for _ in range(depth):
        if rows > MAX_STAGE_SIZE or not any(ending):
            break
        longer = [0] * len(ending)
        for s, r in zip(g.src, g.rng):
            longer[r] += ending[s]
        ending = longer
        rows += sum(ending)
    return rows


def build_rep(spec: AugmentedGraphSpec, depth: int) -> TruncatedRep:
    """Assemble the stage-``depth`` representation of the augmented graph.

    A path basis of more than :data:`MAX_STAGE_SIZE` rows is refused
    before it is built.
    """
    if depth < 1:
        raise RepresentationError("depth must be >= 1: depth 0 has no corner to act on")
    g = materialize(spec, depth)
    rows = _basis_rows(g, depth)
    if rows > MAX_STAGE_SIZE:
        raise StageTooLargeError(
            f"the path basis of F_{depth} has at least {rows} rows, more than the {MAX_STAGE_SIZE} a stage may have"
        )
    basis = PathBasis.build(g, depth)
    n = len(basis)

    def operator_on(src, tgt=None, phase=None) -> Operator:
        src = tuple(src)
        return Operator(n, (Piece(src, src if tgt is None else tuple(tgt), phase),))

    # vertex rows come first, in id order; each later row is S[e] of its
    # suffix row, and the suffix rows of one edge ascend
    nv = len(g.vertex_names)
    by_range: list[list[int]] = [[] for _ in range(nv)]
    for i, v in enumerate(basis.rng):
        by_range[v].append(i)
    extension: list[tuple[list[int], list[int]]] = [([], []) for _ in g.edge_names]
    for i in range(nv, n):
        src, tgt = extension[basis.edge[i]]
        src.append(basis.suffix[i])
        tgt.append(i)

    P = {v: operator_on(idx) for v, idx in zip(g.vertex_names, by_range)}
    S = {e: operator_on(*ends) for e, ends in zip(g.edge_names, extension)}  # each edge is a path of length 1

    T: dict[str, Operator] = {}
    corner_levels: dict[str, list[list[int]]] = {}
    for rep in spec.replacements:
        rows = by_range[g.vertex_id(rep.tail.sink)]
        cuts = [bisect_left(rows, start) for start in basis.starts]
        levels = [rows[a:b] for a, b in zip(cuts, cuts[1:])]  # already lexicographic
        # level k holds N_k rows: a tail owns its namespace, so only its b-edges reach its sink
        phases = tuple(_tail_phase(j, len(idx)) for idx in levels for j in range(len(idx)))
        T[rep.tail.namespace] = operator_on(rows, phase=phases)
        corner_levels[rep.tail.namespace] = levels
    inner = basis.starts[-2] - nv  # the last level is level ``depth``, or empty
    return TruncatedRep(
        spec=spec,
        depth=depth,
        graph=g,
        basis=basis,
        P=P,
        S=S,
        T=T,
        corner_levels=corner_levels,
        interior=(False,) * nv + (True,) * inner + (False,) * (n - nv - inner),
        images={},
        products={},
    )


def _tail_power(rep: TruncatedRep, namespace: str, k: int) -> Operator:
    """``T^k`` for ``k != 0``: ``T`` itself at ``k = 1``, ``T*`` at ``k = -1``,
    else the phases of ``T`` or ``T*`` raised elementwise, multiplied in the
    order of the ``|k| - 1`` operator products ``(T T) T ...``, so to the same bits."""
    if namespace not in rep.T:
        raise ContextMismatchError(f"unknown tail namespace {namespace!r}")
    base = rep.T[namespace] if k > 0 else rep.T[namespace].adjoint()
    p = base.pieces[0]
    phase = reduce(_mul, repeat(p.phase, abs(k)))
    return base if phase is p.phase else Operator(base.dim, (Piece(p.src, p.tgt, phase),))


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
        # every level size divides N_d, the deepest, so T^(N_d) is the corner
        # projection: a --map exponent beyond N_d is reduced into 1 .. N_d
        # rather than spending |k| - 1 products
        period, k = len(rep.corner_levels[ns][-1]), abs(m.power)
        if k > period:
            k = (k - 1) % period + 1
        factors.append(_tail_power(rep, ns, k if m.power > 0 else -k))
    for e in reversed(m.alpha):  # innermost factor S[alpha_1] first
        if e not in rep.S:
            raise ContextMismatchError(f"edge {e!r} not in the materialized stage")
        factors.append(rep.S[e])
    out = factors[0]
    for f in factors[1:]:
        out = f @ out
    return out


def last_edges(rep: TruncatedRep, op: Operator) -> set[int]:
    """The last edge of each basis path ``op`` maps into (-1 for a vertex),
    zero-valued entries included: the numeric backend's ``support``.

    A product ``op* b`` is zero unless ``b`` maps into a row ``op`` maps
    into, and such a row has one last edge.  Keyed by rows, the catalogue's
    index would hold an entry for each of the thousands of rows of a deep
    corner; keyed by edges it holds a few, and it skips the same pairs for
    the constructed map, whose images end in distinct edges.
    """
    edge = rep.basis.edge
    return {edge[t] for p in op.pieces for t in p.tgt}


def op_of_term(term: CKTerm, rep: TruncatedRep) -> Operator:
    """Evaluate ``s_alpha t^k s_beta* -> S[alpha] T^k S[beta]*`` linearly,
    once per stage: the operator is kept in ``rep.images``."""
    out = rep.images.get(term)
    if out is None:
        monomials = (op_of_monomial(m, rep).scale(complex(c)) for m, c in term.items())
        out = rep.images[term] = sum(monomials, Operator(rep.dimension))
    return out


class ResidualReport(SimpleNamespace):
    """Interior-compressed residuals, ``entries``, a :class:`Catalogue`
    whose outcomes are residuals, ``0.0`` by default, and whose rows are
    viewed as ``(name, value)``; plus the known ``boundary_defects``, a
    tuple of ``(name, value)``."""

    @property
    def max_residual(self) -> float:
        return max([0.0, *self.entries.outcomes.values()])


def loop_product(rep: TruncatedRep, loop: SimpleLoop, gmap: GeneratorMap) -> Operator:
    """The images of the loop's edges multiplied out, ``(a_n a_{n-1}) ... a_1``,
    once per stage: kept in ``rep.products``."""
    terms = tuple(map(gmap.edge_map.__getitem__, loop.edges))
    out = rep.products.get(terms)
    if out is None:
        out = rep.products[terms] = reduce(operator.matmul, [op_of_term(term, rep) for term in terms])
    return out


def relation_residuals(rep: TruncatedRep, gmap: GeneratorMap) -> ResidualReport:
    """Numeric residuals of all relation instances for the mapped family.

    The CK1-CK3 identities come from the shared catalogue
    :func:`afembed.verify.ck_instances`, evaluated with this stage's
    operator products, so the numeric side checks the same instances as the
    symbolic side by independent arithmetic; a residual is held only where
    it is not exactly ``0.0``.  The LOOP and TAIL checks live here only:
    they test the loop-to-tail construction and the truncated
    representation itself, whereas the rewrite system takes ``t t* = p`` as
    an axiom and so has nothing to prove about them.

    Of a loop's checks only ``power`` forms products of its own.  Its
    ``co-iso[i]``, ``a* a = p(u_i)`` for ``a`` the image of ``e_i``, is
    ``CK2[e_i,e_i]``, as ``u_i = source(e_i)``; its ``iso[i]``,
    ``a a* = p(u_{i+1})``, is ``CK3[u_{i+1}]``, since no loop has an
    entrance (the spec refuses one), so ``e_i`` is the only edge
    ``u_{i+1}`` receives.  Each row shows the outcome of that instance, by
    its position; the loop's rows share one name prefix.
    """
    spec, interior = rep.spec, rep.interior
    ops = {e: op_of_term(term, rep) for e, term in gmap.edge_map.items()}
    entries = Catalogue(spec.graph, ("CK1", "CK1*"), 0.0)
    defects: list[tuple[str, float]] = []
    for kind, at, identities in ck_instances(
        entries.family,
        ops,
        rep.P.__getitem__,
        Operator.adjoint,
        operator.matmul,
        partial(last_edges, rep),
        Operator(rep.dimension),
    ):
        for p, (lhs, rhs) in enumerate(identities, entries.position(kind, at)):
            diff = lhs - rhs
            entries.put(p, diff.frobenius(interior))
        if kind == "CK3":
            # known truncation defect: the relation fails on the vertex vector itself
            vertex = rep.graph.vertex_id(at)  # the basis starts with the vertex paths, in id order
            defects.append((f"CK3-vertex-defect[{at}]", diff.column_norm(vertex)))

    for loop_rep in spec.replacements:
        loop = loop_rep.loop
        prefix = f"LOOP[{' '.join(loop.edges)}]"
        edges = [loop.edge_index(i) for i in range(1, loop.n + 1)]
        for i, e in enumerate(edges, 1):
            entries.append(prefix, f":co-iso[{i}]", entries.position("CK2", (e, e)))
            entries.append(prefix, f":iso[{i}]", entries.position("CK3", loop.vertices[i % loop.n]))
        # S[f_1] T^n S[f_1]* in op_of_monomial's factor order, but with T's
        # phases raised n times, as the loop side has them: op_of_monomial
        # reduces n modulo N_d, and the reduced power rounds its phases
        # otherwise, by more than TOL_ALG on a loop of about 920 edges at depth 6
        power = _tail_power(rep, loop_rep.tail.namespace, loop.n)
        f_1 = rep.S[loop_rep.f_edge_for(1)]
        closed = f_1 @ (power @ f_1.adjoint())
        entries.put(entries.append(prefix, ":power"), (loop_product(rep, loop, gmap) - closed).frobenius(interior))
        del power  # and with it its join table, before the TAIL checks

    for ns, t in sorted(rep.T.items()):
        p_v = rep.P[rep.spec.sink_vertex(ns)]
        entries.put(entries.append(f"TAIL[{ns}]", ":unitary"), (t @ t.adjoint() - p_v).frobenius())
        entries.put(entries.append(f"TAIL[{ns}]", ":unitary*"), (t.adjoint() @ t - p_v).frobenius())
    return ResidualReport(entries=entries, boundary_defects=tuple(defects))


class SpectrumReport(SimpleNamespace):
    """Finite-stage shadow of the full-circle spectrum of a ``loop``'s image
    at stage ``depth``.

    ``eigenvalues`` is the spectrum of the corner unitary power over all
    levels ``0 .. d``; conjugating by the loop's entry isometry clips the
    deepest level, so the conjugated operator's spectrum is taken
    separately and compared on the shared levels (plus its kernel): its
    eigenvalues of modulus above 1/2 are ``conjugated_nonzero``, and
    ``conjugation_mismatch`` is their distance, as a multiset, from those
    levels' ``eigenvalues``.
    ``max_modulus_deviation`` and ``hausdorff_to_circle`` measure how far
    ``eigenvalues`` lie from the unit circle.
    """


def _circle_hausdorff(values: tuple[complex, ...], radial: float) -> float:
    """Hausdorff distance between a finite set and the unit circle, given
    the set's largest distance ``radial`` of a modulus from 1."""
    angles = sorted(map(cmath.phase, values))
    gaps = [b - a for a, b in zip(angles, angles[1:])]
    gaps.append(angles[0] + 2 * math.pi - angles[-1])
    return max(radial, 2.0 * math.sin(max(gaps) / 4.0))


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
    # T^n is diagonal on the corner (all levels, in basis order): its eigenvalues are its phases
    evals = _tail_power(rep, ns, loop.n).pieces[0].values()
    moduli = [math.hypot(z.real, z.imag) for z in evals]
    radial = max(abs(m - 1.0) for m in moduli)

    conj = loop_product(rep, loop, gmap).eigenvalues()
    conj_nonzero = [(z, m) for z in conj if (m := math.hypot(z.real, z.imag)) > 0.5]

    # the conjugated operator sees levels 0 .. d-1 of the corner unitary power
    shallow = sum(len(level) for level in rep.corner_levels[ns][: rep.depth])
    mismatch = _multiset_mismatch(conj_nonzero, list(zip(evals[:shallow], moduli)))

    return SpectrumReport(
        loop=loop,
        depth=rep.depth,
        eigenvalues=tuple(evals),
        conjugated_nonzero=tuple(z for z, _ in conj_nonzero),
        max_modulus_deviation=radial,
        hausdorff_to_circle=_circle_hausdorff(evals, radial),
        conjugation_mismatch=mismatch,
    )


def _multiset_mismatch(a: list[tuple[complex, float]], b: list[tuple[complex, float]]) -> float:
    """Largest distance between two multisets of ``(value, modulus)`` pairs
    matched in order of angle, then modulus; infinite if their sizes differ."""
    if len(a) != len(b):
        return float("inf")
    if len(a) == 0:
        return 0.0

    def key(pair: tuple[complex, float]) -> tuple[float, float]:
        # the angle rounded to 9 decimals as numpy rounds it, then the modulus
        return round(cmath.phase(pair[0]) * 1e9) / 1e9, pair[1]

    return max(math.hypot(x.real - y.real, x.imag - y.imag) for (x, _), (y, _) in zip(sorted(a, key=key), sorted(b, key=key)))
