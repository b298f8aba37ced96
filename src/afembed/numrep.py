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
sorted source indices, target indices and phases.  The path basis lines
the indices up: ``S_e`` sends the rows ending at ``s(e)`` of each level
onto one contiguous, ascending block of the next, and ``P_v``, ``T``,
``a* a`` and ``a a*`` are diagonals.  So a product of two pieces whose
right factor lands on one block of the left factor's sources, in order,
multiplies their phases elementwise, and an adjoint swaps the index
tuples and conjugates the phases.  A relation instance thus costs time in
proportion to its support, not to the dimension.  Only a sum (a ``--map``
image with several monomials, or a receiver sum) can put more than one
piece on a matrix entry; its entries are merged, in the order the sum was
formed, before a product or a norm reads them.

What a constructed map never runs lives in :mod:`afembed.sparse`, which
this module imports only where it is needed: the dict join of a product
whose indices do not line up (a ``--map`` sum, the isometries of two
distinct edges), the sort of an adjoint whose targets do not ascend, the
product and the entries of a sum, its dense spectrum, and the spectrum
match that sorts.  A residual's norm, which the receiver sums of every
map read, stays here.

Each row's index is one int object, made once when :meth:`PathBasis.build`
lays out its level and shared by the suffixes, the rows by range vertex,
the edge blocks, the corner levels and every operator's index tuples.

The engine is plain Python, so no printed number depends on the CPU
kernels numpy picks: every product, coefficients included, is Python's
complex product, with separate real multiplies and adds and no fused
multiply-add; and every norm and modulus is CPython's own ``math.hypot``
over real and imaginary parts, not ``abs`` of a complex number, which
calls the platform's ``hypot``.  numpy is loaded only by
:mod:`afembed.sparse`, for a loop image that is a genuine sum, whose
spectrum needs a dense eigensolver.

Residuals are Frobenius norms, which upper-bound the operator norm, so a
reported residual below tolerance is conclusive.  The interior is one row
range, so compressing to it slices the sorted sources, and a residual
subtracts its right side entry by entry rather than adding its product
by -1.

No numeric product is formed twice.  No loop has an entrance, so ``u_{i+1}``
receives ``e_i`` alone, and a loop's ``iso[i]`` residual is the operator,
compression and subtraction of ``CK3[u_{i+1}]``; as ``u_i = source(e_i)``, its
``co-iso[i]`` is ``CK2[e_i,e_i]``: each row shows the outcome of that
instance, by its position in the report.
Each term's operator is formed once per stage and kept on the stage, and
so is each loop's product of images and each tail power, so the loop's
spectrum reads the product and the ``T^n`` that ``LOOP:power`` formed;
``T^n`` on a finite stage is ``T``'s phases raised to the ``n``-th power
elementwise.  A 1-edge loop's ``LOOP:power`` closes on ``S[f_1] T S[f_1]*``,
the loop's image, which the stage already holds.  ``T``'s phases are formed
row by row on the deepest level and on each level whose next is not a
power of two times as large; every other level takes the next one's
phases at that stride, to the bit.

The constructed map's loop product has ``T^n``'s values on the shallow
levels as its eigenvalues, value for value in row order, so its spectrum
is matched with ``T^n``'s by comparing the values, then their angles, in
row order: no ``(value, modulus)`` pair is formed and nothing is sorted.
Only a conjugated side that differs is paired with its moduli and sorted.
Each value's angle is taken once, for the match and the distance to the
circle, whose gaps are read off the angles sorted in place.

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
from functools import partial, reduce
from itertools import chain, compress, islice, repeat
from types import SimpleNamespace
from typing import Iterable

from .embedding import MAX_STAGE_SIZE, AugmentedGraphSpec, GeneratorMap, LoopReplacement, StageTooLargeError, materialize
from .graph import Graph
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

    Row ``i`` is held as two ids: ``edge[i]``, its range-end edge (-1 for
    a vertex), and ``suffix[i]``, the row of the path without that edge
    (-1 for a vertex); the vertex rows come first, in id order.  Rows of
    length ``k`` are ``starts[k] .. starts[k+1] - 1``.  No path is longer
    than an empty level, so ``starts`` ends after the first empty level and
    then has fewer than ``d + 2`` entries.  ``ranging[v]`` holds the rows
    ending at vertex ``v``, and ``extension[e]`` is the pair ``(suffixes,
    rows)``: the rows ending in edge ``e``, one contiguous block per level,
    and their suffix rows; all are ascending tuples, which the stage's
    operators share.
    """

    @classmethod
    def build(cls, g: Graph, depth: int) -> "PathBasis":
        """Ids number names in sorted order, so the canonical order needs no
        sort: the vertices in id order, then per level, each edge in id order
        extending the previous level's rows that end at its source, in row
        order, onto one contiguous block of new rows."""
        n = len(g.vertex_names)
        edge, suffix, starts = [-1] * n, [-1] * n, [0, n]
        ending = [[v] for v in range(n)]  # the last level's rows, by range vertex
        ranging = [[v] for v in range(n)]
        extension: list[tuple[list[int], list[int]]] = [([], []) for _ in g.src]
        for _ in range(depth):
            longer: list[list[int]] = [[] for _ in range(n)]
            for e, (s, r) in enumerate(zip(g.src, g.rng)):
                rows, (src, tgt) = ending[s], extension[e]
                block = [*range(len(edge), len(edge) + len(rows))]  # each row's int, made once and shared
                edge += [e] * len(rows)
                suffix += rows
                src += rows
                tgt += block
                longer[r] += block
            starts.append(len(edge))
            for rows, new in zip(ranging, longer):
                rows += new
            ending = longer
            if starts[-1] == starts[-2]:
                break
        ranging, extension = tuple(map(tuple, ranging)), tuple((tuple(src), tuple(tgt)) for src, tgt in extension)
        return cls(graph=g, edge=tuple(edge), suffix=tuple(suffix), starts=tuple(starts), ranging=ranging, extension=extension)

    def __len__(self) -> int:
        return len(self.edge)


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


class Piece:
    """A phased partial permutation: basis vector ``src[k]`` goes to
    ``phase[k]`` times basis vector ``tgt[k]``.

    ``src`` is sorted and neither index tuple repeats a value; ``phase``
    None means all ones (projections and edge isometries).  A product
    whose right factor lands on one block of ``src``, in order, multiplies
    the phases elementwise, and an adjoint whose targets ascend swaps the
    index tuples; any other is :mod:`afembed.sparse`'s, whose join keeps
    its table of where each source index sits in ``src`` as ``position``,
    None until the piece's first join builds it.
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
        if any(map(operator.gt, self.tgt, self.tgt[1:])):  # a diagonal's or an edge isometry's targets already ascend
            from .sparse import sorted_adjoint

            return sorted_adjoint(self)
        return Piece(self.tgt, self.src, None if self.phase is None else tuple(map(complex.conjugate, self.phase)))

    def after(self, b: "Piece") -> "Piece":
        """``self @ b``: follow ``b``, then ``self`` where ``b`` lands in its domain."""
        k = bisect_left(self.src, b.tgt[0]) if b.tgt else 0
        end = k + len(b.tgt)
        if self.src[k:end] == b.tgt:  # onto one block of sources, in order: the phases multiply elementwise
            return Piece(b.src, self.tgt[k:end], _mul(None if self.phase is None else self.phase[k:end], b.phase))
        from .sparse import join

        return join(self, b)


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


def _compress(run, rows: range):
    """The entries of a ``(src, tgt, values)`` run with both ends in ``rows``:
    a slice of the sorted ``src``, then the targets outside dropped."""
    src, tgt, values = run
    a, b = bisect_left(src, rows.start), bisect_left(src, rows.stop)
    src, tgt, values = src[a:b], tgt[a:b], values[a:b]
    if tgt and rows.start <= min(tgt) and max(tgt) < rows.stop:
        return src, tgt, values
    keep = list(map(rows.__contains__, tgt))
    return tuple(compress(src, keep)), tuple(compress(tgt, keep)), tuple(compress(values, keep))


def _same_entries(runs) -> bool:
    """Whether every run has the entries of the first, so that all repeat."""
    src, tgt, _ = runs[0]
    return all(r[0] == src and r[1] == tgt for r in runs[1:])


def _cycle_spectrum(src, tgt, val) -> list[complex]:
    """Eigenvalues of a phased partial permutation on its support.

    A cycle of length ``L`` with phase product ``w`` contributes the
    ``L``-th roots of ``w``; every vertex on a chain contributes zero.
    Fixed points come first, in index order, with their phases unchanged.
    """
    out = [v for s, t, v in zip(src, tgt, val) if s == t]
    if len(out) == len(src):  # a diagonal: every vector of the support is fixed
        return out
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
    support = len(set(src).union(tgt))
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
        return self.plus((other,))

    def plus(self, others: Iterable["Operator"]) -> "Operator":
        """``self`` plus each of ``others`` in turn: their pieces, in that order."""
        return Operator(self.dim, self.pieces + tuple(chain.from_iterable(op.pieces for op in others)))

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
        from .sparse import sum_product

        return sum_product(self, other)

    def entries(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[complex, ...]]:
        """``(src, tgt, value)`` of the nonzero matrix entries, sorted by source."""
        if len(self.pieces) <= 1:
            p = self.pieces[0] if self.pieces else _NO_PIECE
            return p.src, p.tgt, p.values()
        from .sparse import entries

        return entries(self)

    def frobenius(self, rows: range | None = None, minus: "Operator | None" = None) -> float:
        """Frobenius norm of this operator, or of its difference from ``minus``,
        compressed to the span of ``rows`` when given: one ``math.hypot``
        over the real and imaginary parts of the entries.

        ``minus``'s entries are subtracted, never multiplied by -1 first; a
        negation differs from that product only in the sign of a zero, which
        neither the sum of nonzero entries nor the norm sees.
        """
        runs, subtracted = ([(p.src, p.tgt, p.values()) for p in op.pieces] for op in (self, minus or Operator(0)))
        both = runs + subtracted
        if len(both) > 1 and rows is not None and not _same_entries(both):
            # compressing each summand first leaves every kept entry's sum as it was
            runs, subtracted = ([_compress(run, rows) for run in part] for part in (runs, subtracted))
            both = runs + subtracted
        if len(both) <= 1:  # the sign of one run's values leaves its norm
            values = () if not both else (both[0] if rows is None else _compress(both[0], rows))[2]
        elif _same_entries(both):
            # as when a relation holds: add and subtract elementwise, then compress what is left
            src, tgt, _ = both[0]
            values = reduce(partial(map, operator.add), (r[2] for r in runs[1:]), runs[0][2]) if runs else repeat(0j)
            values = reduce(partial(map, operator.sub), (r[2] for r in subtracted), values)
            values = [v for s, t, v in zip(src, tgt, values) if v and (rows is None or (s in rows and t in rows))]
        else:
            negated = [(src, tgt, tuple(map(operator.neg, values))) for src, tgt, values in subtracted]
            values = _merge(self.dim, runs + negated).values()
        return math.hypot(*(x for v in values for x in (v.real, v.imag)))

    def column_norm(self, j: int, minus: "Operator | None" = None) -> float:
        """Euclidean norm of column ``j``, of the difference from ``minus`` when given.

        Each piece holds at most one entry of the column, found by bisecting
        its sorted ``src``; the entries are added in piece order and read in
        target order, as merging the whole operator adds and orders them.
        """
        column: dict[int, complex] = {}
        for i, p in enumerate(self.pieces + (minus or Operator(0)).pieces):
            k = bisect_left(p.src, j)
            if k < len(p.src) and p.src[k] == j:
                t, v = p.tgt[k], 1 + 0j if p.phase is None else p.phase[k]
                v = v if i < len(self.pieces) else -v
                column[t] = column[t] + v if t in column else v
        return math.hypot(*(x for t in sorted(column) for x in (column[t].real, column[t].imag)))

    def eigenvalues(self) -> list[complex]:
        """Spectrum on the span of the basis vectors this operator touches."""
        if len(self.pieces) > 1:
            from .sparse import sum_spectrum

            return sum_spectrum(self)
        return _cycle_spectrum(*self.entries())  # a phased partial permutation


class TruncatedRep(SimpleNamespace):
    """Generator operators of one finite stage.

    ``graph`` is the stage ``F_d`` of the augmented graph ``spec`` at
    ``depth`` ``d``, and ``basis`` its :class:`PathBasis`; ``P``, ``S``
    and ``T`` map vertex, edge and tail namespace ids to their
    :class:`Operator`.  ``corner_levels`` maps a tail namespace to its
    per-level tuples of basis indices; ``interior`` is the ``range`` of the
    rows of the paths of length ``1 .. depth-1``, which follow the vertex
    rows in one block.

    ``images`` maps each term :func:`op_of_term` has evaluated on this
    stage to its :class:`Operator`, ``products`` each loop's images, as
    a tuple of terms ``(a_n, ..., a_1)``, to the product
    :func:`loop_product` formed of them, and ``powers`` each ``(namespace,
    k)`` to the ``T^k`` :func:`_tail_power` formed, so that the residuals
    and the spectra of one map share its images, products and powers;
    :func:`build_rep` sets all three empty.
    """

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _tail_phase(j: int, n: int) -> complex:
    """``exp(2 pi i j / n)``; equal to numpy's ``np.exp`` of the same argument
    to the bit, as long as the division by ``n`` comes last."""
    return cmath.exp(2j * math.pi * j / n)


def _level_phases(sizes: list[int]) -> tuple[complex, ...]:
    """``T``'s phases on levels of ``sizes`` rows, level by level: row ``j``
    of a level of ``n`` rows has :func:`_tail_phase` ``(j, n)``.  A level
    whose next one is ``r`` times as large, ``r`` a power of two, takes the
    next one's phases at stride ``r``: ``2 pi j r`` and ``n r`` scale ``2 pi j``
    and ``n`` exactly, so the quotient, and the phase, keep their bits."""
    levels: list[tuple[complex, ...]] = []
    for n in reversed(sizes):
        r = len(levels[-1]) // n if levels else 0
        levels.append(levels[-1][::r] if r and not r & (r - 1) else tuple(_tail_phase(j, n) for j in range(n)))
    return tuple(chain.from_iterable(reversed(levels)))


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
        return Operator(n, (Piece(src, src if tgt is None else tgt, phase),))

    # each edge is a path of length 1, so every row ending in it is S[e] of its suffix row
    P = {v: operator_on(rows) for v, rows in zip(g.vertex_names, basis.ranging)}
    S = {e: operator_on(*ends) for e, ends in zip(g.edge_names, basis.extension)}

    T: dict[str, Operator] = {}
    corner_levels: dict[str, list[tuple[int, ...]]] = {}
    for rep in spec.replacements:
        rows = basis.ranging[g.vertex_id(rep.tail.sink)]
        cuts = [bisect_left(rows, start) for start in basis.starts]
        levels = [rows[a:b] for a, b in zip(cuts, cuts[1:])]  # already lexicographic
        # level k holds N_k rows: a tail owns its namespace, so only its b-edges reach its sink
        T[rep.tail.namespace] = operator_on(rows, phase=_level_phases(list(map(len, levels))))
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
        interior=range(len(g.vertex_names), basis.starts[-2]),  # the last level is level ``depth``, or empty
        images={},
        products={},
        powers={},
    )


def _tail_power(rep: TruncatedRep, namespace: str, k: int) -> Operator:
    """``T^k`` for ``k != 0``: ``T`` itself at ``k = 1``, ``T*`` at ``k = -1``,
    else the phases of ``T`` or ``T*`` raised elementwise, multiplied in the
    order of the ``|k| - 1`` operator products ``(T T) T ...``, so to the same
    bits; once per stage: the power is kept in ``rep.powers``."""
    out = rep.powers.get((namespace, k))
    if out is None:
        base = rep.T[namespace] if k > 0 else rep.T[namespace].adjoint()
        p = base.pieces[0]
        phase = reduce(_mul, repeat(p.phase, abs(k)))
        out = rep.powers[namespace, k] = base if phase is p.phase else Operator(base.dim, (Piece(p.src, p.tgt, phase),))
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

    Of a loop's checks only ``power`` forms products of its own, and a
    1-edge loop's does not: its closed side is the loop's image.  Its
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
            entries.put(p, lhs.frobenius(interior, minus=rhs))
        if kind == "CK3":
            # known truncation defect: the relation fails on the vertex vector itself
            vertex = rep.graph.vertex_id(at)  # the basis starts with the vertex paths, in id order
            defects.append((f"CK3-vertex-defect[{at}]", lhs.column_norm(vertex, minus=rhs)))

    for loop_rep in spec.replacements:
        loop = loop_rep.loop
        prefix = f"LOOP[{' '.join(loop.edges)}]"
        edges = [loop.edge_index(i) for i in range(1, loop.n + 1)]
        for i, e in enumerate(edges, 1):
            entries.append(prefix, f":co-iso[{i}]", entries.position("CK2", (e, e)))
            entries.append(prefix, f":iso[{i}]", entries.position("CK3", loop.vertices[i % loop.n]))
        # S[f_1] T^n S[f_1]* in op_of_monomial's factor order, but with T's
        # phases raised n times, as the loop side has them.  op_of_monomial
        # forms it so while n <= N_d, so a stage that holds it as an image (a
        # 1-edge loop's) gives it; above N_d it reduces n modulo N_d, which
        # rounds the phases otherwise, by more than TOL_ALG on a loop of about
        # 920 edges at depth 6
        ns, f_1 = loop_rep.tail.namespace, loop_rep.f_edge_for(1)
        term = CKTerm.of(NormalMonomial((f_1,), loop.n, (f_1,), loop_rep.tail.sink))
        closed = rep.images.get(term) if loop.n <= len(rep.corner_levels[ns][-1]) else None
        if closed is None:
            closed = rep.S[f_1] @ (_tail_power(rep, ns, loop.n) @ rep.S[f_1].adjoint())
        entries.put(entries.append(prefix, ":power"), loop_product(rep, loop, gmap).frobenius(interior, minus=closed))

    for ns, t in sorted(rep.T.items()):
        p_v = rep.P[rep.spec.sink_vertex(ns)]
        entries.put(entries.append(f"TAIL[{ns}]", ":unitary"), (t @ t.adjoint()).frobenius(minus=p_v))
        entries.put(entries.append(f"TAIL[{ns}]", ":unitary*"), (t.adjoint() @ t).frobenius(minus=p_v))
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


def _circle_hausdorff(angles: list[float], radial: float) -> float:
    """Hausdorff distance between a finite set and the unit circle, given
    its values' ``angles``, which it sorts in place, and their largest
    distance ``radial`` of a modulus from 1."""
    angles.sort()
    gaps = chain(map(operator.sub, islice(angles, 1, None), angles), (angles[0] + 2 * math.pi - angles[-1],))
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
    radial = max(abs(math.hypot(z.real, z.imag) - 1.0) for z in evals)
    angles = list(map(cmath.phase, evals))

    conj = tuple(z for z in loop_product(rep, loop, gmap).eigenvalues() if math.hypot(z.real, z.imag) > 0.5)

    # the conjugated operator sees levels 0 .. d-1 of the corner unitary power
    shallow = sum(len(level) for level in rep.corner_levels[ns][: rep.depth])
    if len(conj) != shallow:
        mismatch = float("inf")
    elif all(map(operator.eq, conj, evals)) and all(map(operator.eq, map(cmath.phase, conj), angles)):
        # the constructed map's: T^n's values in row order, angles included, each matched with itself
        mismatch = 0.0
    else:
        from .sparse import _multiset_mismatch

        a, b = ([(z, math.hypot(z.real, z.imag)) for z in side] for side in (conj, evals[:shallow]))
        mismatch = _multiset_mismatch(a, b, angles[:shallow])

    return SpectrumReport(
        loop=loop,
        depth=rep.depth,
        eigenvalues=tuple(evals),
        conjugated_nonzero=conj,
        max_modulus_deviation=radial,
        hausdorff_to_circle=_circle_hausdorff(angles, radial),
        conjugation_mismatch=mismatch,
    )
