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

The engine is plain Python, and it rounds every number as the numpy
engine it replaced did, so reports keep their bytes: Python's complex
product uses separate real multiplies and adds, so no fused multiply-add
moves the last bit of a near-zero residual; norms add their squares in
numpy's pairwise order; and moduli are rounded as numpy's vectorised
complex absolute value rounds them.  numpy is loaded only by a ``--map``
that needs it: a coefficient other than 1 or -1 is applied with numpy's
scalar product, and a loop image that is a genuine sum needs a dense
eigensolver.

Residuals are Frobenius norms, which upper-bound the operator norm, so a
reported residual below tolerance is conclusive.

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
from .verify import ck_instances


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


def _numpy_sum(a: list[float]) -> float:
    """``np.sum`` of the floats ``a``, rounded exactly as numpy rounds it.

    numpy adds the pairwise sum of the array to the identity ``0.0``.  In
    that sum, fewer than 8 terms are added in order from ``-0.0``; up to 128
    terms go to 8 interleaved accumulators, combined as a balanced tree,
    and then the remainder; a longer run is split in two at a multiple of 8.
    """

    def pairwise(lo: int, n: int) -> float:
        if n < 8:
            return reduce(operator.add, a[lo : lo + n], -0.0)
        if n <= 128:
            end = lo + n - n % 8
            r = [reduce(operator.add, a[lo + j : end : 8]) for j in range(8)]
            res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
            return reduce(operator.add, a[end : lo + n], res)
        half = n // 2
        half -= half % 8
        return pairwise(lo, half) + pairwise(lo + half, n - half)

    return 0.0 + pairwise(0, len(a))


def _modulus(z: complex) -> float:
    """``|z|`` rounded as numpy's vectorised complex absolute value rounds it.

    That loop forms ``larger * sqrt(1 + ratio**2)`` with the square and the
    add fused into one rounding; Python's ``abs`` (``hypot``) differs from it
    in the last bit for about a fifth of all complex numbers, which moves
    printed deviations such as ``1.110e-16`` against ``2.220e-16``.  The fused
    ``1 + ratio**2`` is computed exactly on integers and rounded once.
    """
    big, small = abs(z.real), abs(z.imag)
    if big < small:
        big, small = small, big
    if not small:  # a real or an imaginary number: exact either way
        return big
    if not math.isfinite(big + small):
        return abs(z)
    mantissa, exponent = math.frexp(small / big)
    m = int(mantissa * 9007199254740992.0)  # ratio == m / 2**(53 - exponent)
    one = 1 << (106 - 2 * exponent)
    return math.sqrt((m * m + one) / one) * big


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
            r, theta = abs(w) ** (1.0 / length), cmath.phase(w)
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
        # a sum's entries are merged before they are added, as with sparse matrices
        tail = other.pieces if len(other.pieces) <= 1 else _split(*other.entries())
        return Operator(self.dim, self.pieces + tail)

    def __sub__(self, other: "Operator") -> "Operator":
        return self + other.scale(-1)

    def scale(self, c: complex) -> "Operator":
        c = complex(c)
        if c == 1:
            return self
        if c == -1:
            # both products are exact, so Python's product equals numpy's
            return Operator(self.dim, tuple(Piece(p.src, p.tgt, tuple(map(operator.mul, p.values(), repeat(c)))) for p in self.pieces))
        # numpy's scalar product, as a sparse matrix scales its data: it may
        # fuse a multiply-add, and a coefficient map's report depends on that
        import numpy as np

        return Operator(
            self.dim,
            tuple(Piece(p.src, p.tgt, tuple((np.array(p.values(), dtype=np.complex128) * c).tolist())) for p in self.pieces),
        )

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
        """Frobenius norm, of the compression to ``mask`` when given.

        Entries are summed in row-major order, as a sparse matrix stores them,
        and in numpy's pairwise order.
        """
        runs = [(p.src, p.tgt, p.values()) for p in self.pieces]
        if not runs:
            return 0.0
        if len(runs) == 1:
            # one piece holds one entry per row, and numpy kept its zeros
            src, tgt, values = runs[0] if mask is None else _compress(runs[0], mask)
            values = [v for _, v in sorted(zip(tgt, values))]
        else:
            if mask is not None and not _same_entries(runs):
                # compressing each summand first leaves every kept entry's sum
                # as it was; it may change the sign of a zero, which no square sees
                runs = [_compress(run, mask) for run in runs]
            if _same_entries(runs):
                # as when a relation holds: add elementwise, then mask what is left
                values = list(reduce(partial(map, operator.add), (r[2] for r in runs), repeat(0j)))
                cells = sorted(compress(zip(runs[0][1], runs[0][0], values), values))
                values = [v for t, s, v in cells if mask is None or (mask[s] and mask[t])]
            else:
                values = list(_merge(self.dim, runs).values())
        return math.sqrt(_numpy_sum([m * m for m in map(_modulus, values)]))

    def column_norm(self, j: int) -> float:
        """Euclidean norm of column ``j``: squared real parts, then imaginary ones, in row order."""
        column = sorted((t, v) for s, t, v in zip(*self.entries()) if s == j)
        re = reduce(operator.add, (v.real * v.real for _, v in column), 0.0)
        im = reduce(operator.add, (v.imag * v.imag for _, v in column), 0.0)
        return math.sqrt(re + im)

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
    """Evaluate ``s_alpha t^k s_beta* -> S[alpha] T^k S[beta]*`` linearly."""
    out = Operator(rep.dimension)
    for m, c in term.items():
        out = out + op_of_monomial(m, rep).scale(complex(c))
    return out


class ResidualEntry:
    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float):
        self.name = name
        self.value = value


class ResidualReport(SimpleNamespace):
    """Interior-compressed residuals, ``entries``, plus the known
    ``boundary_defects``: two tuples of :class:`ResidualEntry`."""

    @property
    def max_residual(self) -> float:
        return max((e.value for e in self.entries), default=0.0)


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
        partial(last_edges, rep),
        zero,
    ):
        for name, lhs, rhs in identities:
            # most CK2 right-hand sides are zero: skip |E|^2 subtractions
            diff = lhs if rhs is zero else lhs - rhs
            entries.append(ResidualEntry(name, diff.frobenius(interior)))
        if family == "CK3":
            # known truncation defect: the relation fails on the vertex vector itself
            vertex = rep.graph.vertex_id(v)  # the basis starts with the vertex paths, in id order
            defects.append(ResidualEntry(f"CK3-vertex-defect[{v}]", diff.column_norm(vertex)))

    for loop_rep in spec.replacements:
        loop = loop_rep.loop
        name = " ".join(loop.edges)
        u_terms = [ops[loop.edge_index(i)] for i in range(1, loop.n + 1)]
        for i in range(1, loop.n + 1):
            a = u_terms[i - 1]
            a_star = a.adjoint()
            p_ui = rep.P[loop.vertices[i - 1]]
            p_next = rep.P[loop.vertices[i % loop.n]]
            entries.append(ResidualEntry(f"LOOP[{name}]:co-iso[{i}]", (a_star @ a - p_ui).frobenius(interior)))
            entries.append(ResidualEntry(f"LOOP[{name}]:iso[{i}]", (a @ a_star - p_next).frobenius(interior)))
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
    return ResidualReport(entries=tuple(entries), boundary_defects=tuple(defects))


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
    n = loop.n

    # T^n is diagonal on the corner (all levels, in basis order): its eigenvalues are its phases
    evals = _tail_power(rep, ns, n).pieces[0].values()
    moduli = list(map(_modulus, evals))
    radial = max(abs(m - 1.0) for m in moduli)

    product = op_of_term(gmap.edge_map[loop.edge_index(1)], rep)
    for i in range(2, n + 1):
        product = op_of_term(gmap.edge_map[loop.edge_index(i)], rep) @ product
    conj = product.eigenvalues()
    conj_nonzero = [(z, m) for z, m in zip(conj, map(_modulus, conj)) if m > 0.5]

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

    return max(_modulus(x - y) for (x, _), (y, _) in zip(sorted(a, key=key), sorted(b, key=key)))
