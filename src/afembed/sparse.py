"""The numeric stage's general sparse algebra, which a constructed map never runs.

:mod:`afembed.numrep` holds each operator as phased partial permutations
along the path basis, so the constructed map's products line up block by
block, its adjoints' targets ascend, its loop images are single pieces and
its conjugated spectrum is ``T^n``'s, value for value.  A ``--map`` can
break each of these, and this module, imported only when one is broken,
handles it in general:

* :func:`join`, a product of two pieces whose indices do not line up, by a
  table of where each source index sits in the left factor's sources;
* :func:`sorted_adjoint`, an adjoint whose targets do not ascend;
* :func:`sum_product` and :func:`entries`, a product and the matrix
  entries of a sum of pieces, merged in the order the sum was formed;
* :func:`sum_spectrum`, the spectrum of a sum: by cycles where its entries
  still form a partial permutation, else numpy's dense ``eigvals`` on its
  support, refused above :data:`afembed.numrep.MAX_DENSE_SUPPORT` before
  the matrix is allocated;
* :func:`_multiset_mismatch`, the spectrum match that sorts both sides.
"""

from __future__ import annotations

import cmath
import math
import operator
from itertools import repeat

from . import numrep
from .numrep import _NO_PIECE, Operator, Piece, _cycle_spectrum, _merge, _mul


def _take(phase: tuple[complex, ...] | None, idx: list[int]) -> tuple[complex, ...] | None:
    return None if phase is None else tuple(map(phase.__getitem__, idx))


def _join_table(src: tuple[int, ...]) -> dict[int, int]:
    return dict(zip(src, range(len(src))))


def _argsort(keys: tuple[int, ...]) -> list[int]:
    return sorted(range(len(keys)), key=keys.__getitem__)


def join(a: Piece, b: Piece) -> Piece:
    """``a @ b`` by a table of where each source index sits in ``a.src``,
    built on ``a``'s first join and kept on it."""
    position = a.position
    if position is None:
        position = a.position = _join_table(a.src)
    if position.keys().isdisjoint(b.tgt):
        return _NO_PIECE
    at = list(map(position.get, b.tgt))
    if None in at:
        hit = [i for i, k in enumerate(at) if k is not None]
        src, at, b_phase = tuple(map(b.src.__getitem__, hit)), [at[i] for i in hit], _take(b.phase, hit)
    else:
        src, b_phase = b.src, b.phase
    return Piece(src, tuple(map(a.tgt.__getitem__, at)), _mul(_take(a.phase, at), b_phase))


def sorted_adjoint(p: Piece) -> Piece:
    """``p*`` with its entries sorted by ``p``'s targets, which become its sources."""
    order = _argsort(p.tgt)
    phase = _take(p.phase, order)
    phase = None if phase is None else tuple(map(complex.conjugate, phase))
    return Piece(tuple(map(p.tgt.__getitem__, order)), tuple(map(p.src.__getitem__, order)), phase)


def _by_source(dim: int, merged: dict[int, complex]) -> tuple[tuple[int, ...], tuple[int, ...], tuple[complex, ...]]:
    """Merged entries as ``(src, tgt, values)``, sorted by ``(src, tgt)``."""
    if not merged:
        return (), (), ()
    cells = sorted(merged, key=lambda c: (c % dim, c))
    return tuple(c % dim for c in cells), tuple(c // dim for c in cells), tuple(map(merged.__getitem__, cells))


def entries(op: Operator) -> tuple[tuple[int, ...], tuple[int, ...], tuple[complex, ...]]:
    """``(src, tgt, value)`` of the nonzero entries of a sum of pieces, sorted by source."""
    return _by_source(op.dim, _merge(op.dim, ((p.src, p.tgt, p.values()) for p in op.pieces)))


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


def sum_product(a: Operator, b: Operator) -> Operator:
    """``a @ b`` where either is a sum: merge both factors, join on the
    middle index, and add in its order."""
    by_source: dict[int, list[tuple[int, complex]]] = {}
    for s, t, v in zip(*a.entries()):
        by_source.setdefault(s, []).append((t, v))
    by_target: dict[int, list[tuple[int, complex]]] = {}
    for s, t, v in zip(*b.entries()):
        by_target.setdefault(t, []).append((s, v))
    runs = []
    for m in sorted(by_source.keys() & by_target.keys()):
        terms = [(s, t, u * v) for s, v in by_target[m] for t, u in by_source[m]]
        runs.append(tuple(zip(*terms)))
    return Operator(a.dim, _split(*_by_source(a.dim, _merge(a.dim, runs))))


def sum_spectrum(op: Operator) -> list[complex]:
    """Spectrum of a sum of pieces on the span of the basis vectors it touches."""
    src, tgt, val = entries(op)
    if len(set(src)) == len(src) and len(set(tgt)) == len(tgt):
        return _cycle_spectrum(src, tgt, val)
    # a genuine sum, two entries in one row or column: dense, on the support
    support = {v: k for k, v in enumerate(sorted(set(src) | set(tgt)))}
    if len(support) > numrep.MAX_DENSE_SUPPORT:
        raise numrep.DenseSpectrumTooLargeError(
            f"the spectrum needs a dense eigensolver on {len(support)} basis vectors, "
            f"more than the {numrep.MAX_DENSE_SUPPORT} it may take"
        )
    import numpy as np

    dense = np.zeros((len(support), len(support)), dtype=np.complex128)
    for s, t, v in zip(src, tgt, val):
        dense[support[t], support[s]] = v
    return [complex(z) for z in np.linalg.eigvals(dense)]


def _multiset_mismatch(a: list[tuple[complex, float]], b: list[tuple[complex, float]], b_angles: list[float]) -> float:
    """Largest distance between two multisets of ``(value, modulus)`` pairs
    matched in order of angle, then modulus; infinite if their sizes differ.

    ``b_angles`` are ``b``'s values' angles.  Each side's order is a stable
    sort of its positions by modulus, then by the angle rounded to 9
    decimals as numpy rounds it, held as the integer ``round(angle * 1e9)``:
    dividing that by ``1e9`` keeps both its order and its ties, so the
    order is that of a key ``(rounded angle, modulus)``, ties in place.
    """
    if len(a) != len(b):
        return float("inf")

    def values_in_order(pairs, angles) -> list[complex]:
        moduli = [m for _, m in pairs]
        keys = list(map(round, map(operator.mul, angles, repeat(1e9))))
        order = sorted(range(len(pairs)), key=moduli.__getitem__)
        order.sort(key=keys.__getitem__)
        return [pairs[i][0] for i in order]

    x = values_in_order(a, [cmath.phase(z) for z, _ in a])
    y = values_in_order(b, b_angles)
    return max((math.hypot(p.real - q.real, p.imag - q.imag) for p, q in zip(x, y)), default=0.0)
