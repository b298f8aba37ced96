"""Exact symbolic *-algebra of graph-family generators and tail unitaries.

Elements are finite Gaussian-rational combinations of normal monomials
``s_alpha t^k s_beta*`` where ``alpha`` and ``beta`` are paths with a common
source, and a nonzero power ``k`` of a tail unitary requires that source to
be the tail's sink.  ``p_w`` is the degenerate monomial with two empty paths
based at ``w``.

The normal form is defined by a local, length-reducing rewrite system over
words in the atoms ``p(w)``, ``s(e)``, ``s*(e)``, ``t(ns)^k``.  Each atom
sits between two boundary vertices, ``atom = p(u) atom p(w)``: ``(v, v)``
for ``p(v)``, ``(range(e), source(e))`` for ``s(e)``, ``(source(e),
range(e))`` for ``s*(e)`` and ``(sink, sink)`` for ``t``.  One rule
annihilates: adjacent atoms whose facing boundary vertices differ collapse
to zero (e.g. non-composable edges, or tail unitaries of different tails).
Five rules contract an adjacent pair whose facing vertices agree:

* ``p(v) x -> x`` and ``x p(v) -> x``
* ``s*(e) s(f) -> delta_{ef} p(source(e))``
* ``s(e) s*(e) -> p(range(e))`` when ``e`` is the unique receiver at its
  range (sound by the receiver-sum relation; sums over several receivers
  are never contracted)
* ``t(ns)^j t(ns)^k -> t(ns)^(j+k)``, or ``p(sink)`` when ``j + k = 0``

Every rule shortens the word, so rewriting terminates.  The rewriter is
not part of this module: ``tests/oracles.py`` holds it, and
``tests/test_terms.py`` exhausts every rewrite order on short words with
it, to exercise confluence, and checks :func:`multiply` against it.

:func:`multiply` never forms a word.  Its inputs are normal monomials,
and every term this package forms is normal (:func:`expand_ck3`'s literal
receiver sum is compared, never multiplied), so two monomials can only
rewrite where they meet.  :func:`_product` computes that meeting in closed
form, the Cuntz-Krieger product of ``s_mu* s_nu`` (Raeburn, *Graph
Algebras*, CBMS 103, 2005, Ch. 1): the facing ends must agree, the
``s*`` path of the left factor cancels against the ``s`` path of the
right, and whatever is left of either joins the other side.  Coefficients
are exact; no floating point enters this module.  Their parts are ints
until :mod:`afembed.notation`'s grammar reads a rational from a ``--map``,
so this module never imports :mod:`fractions`: the constructed map's
coefficients are all :data:`ONE`, and a sum of ints stays an int.  An int
and a ``Fraction`` of equal value are equal, hash alike and print alike.

The product reads the graph through one context, the replaced graph
:class:`~afembed.embedding.AugmentedGraphSpec`: edge ranges and unique
receivers.  The constructors :func:`projection`, :func:`isometry` and
:func:`tail_unitary` read it too, and refuse each unknown id with
:class:`ContextMismatchError`.  Its receivers answer for the *full* graph
the algebra lives over, tail levels included, since the unique-receiver
contraction is only sound against the full receiver set.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .graph import Frozen

if TYPE_CHECKING:  # the one context, whose module imports this one
    from fractions import Fraction

    from .embedding import AugmentedGraphSpec


class ContextMismatchError(ValueError):
    """A term mentions a vertex, edge, or tail unknown to the context."""


class UnrepresentableTermError(ValueError):
    """A product's irreducible word falls outside the s t^k s* monomial span.

    This can only happen when a path dives through a tail sink next to a
    nonzero unitary power; no verification required here produces such
    products, but a term read from text can.
    """


class CoefficientRangeError(ValueError):
    """An exact coefficient whose real or imaginary part no float can hold."""


class CK3ExpansionError(ValueError):
    """Receiver-sum expansion requested at a vertex with no receivers."""


class GaussianRational(Frozen):
    """Exact complex number with rational real and imaginary parts, each an
    ``int`` or a :class:`fractions.Fraction`."""

    __slots__ = ("real", "imag")

    def __init__(self, real: int | Fraction = 0, imag: int | Fraction = 0):
        self._set(real, imag)

    # hashed and compared throughout the term engine: literal tuples beat Frozen's field getter
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.real, self.imag) == (other.real, other.imag)

    def __hash__(self) -> int:
        return hash((self.real, self.imag))

    @classmethod
    def of(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, int):
            return ONE if value == 1 else cls(int(value))
        fractions = sys.modules.get("fractions")  # a Fraction exists only once its module is loaded
        if fractions is not None and isinstance(value, fractions.Fraction):
            return ONE if value == 1 else cls(fractions.Fraction(value))
        raise TypeError(f"cannot coerce {value!r} to a Gaussian rational")

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.real + other.real, self.imag + other.imag)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.real - other.real, self.imag - other.imag)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        if self is ONE or other is ONE:  # the shared unit: no arithmetic
            return other if self is ONE else self
        return GaussianRational(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.real, -self.imag)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.real, -self.imag) if self.imag else self

    @property
    def is_zero(self) -> bool:
        return self.real == 0 and self.imag == 0

    def __complex__(self) -> complex:
        try:
            return complex(float(self.real), float(self.imag))
        except OverflowError:
            text = str(self)
            raise CoefficientRangeError(
                f"coefficient {text[:24]}... of {len(text)} characters is beyond the float range"
            ) from None

    def __str__(self) -> str:
        if self.imag == 0:
            return str(self.real)
        sign = "+" if self.imag > 0 else "-"
        im = "i" if abs(self.imag) == 1 else f"{abs(self.imag)}i"
        if self.real == 0:
            return im if sign == "+" else f"-{im}"
        return f"({self.real}{sign}{im})"


#: The unit coefficient, shared: the constructed map's every coefficient, and its products'.
ONE = GaussianRational(1)


class NormalMonomial(Frozen):
    """``s_alpha t^power s_beta*`` with ``source = s(alpha) = s(beta)``.

    ``alpha == beta == ()`` with ``power == 0`` is the projection at
    ``source``; a nonzero power requires ``source`` to be a tail sink.
    """

    __slots__ = ("alpha", "power", "beta", "source")

    def __init__(self, alpha: tuple[str, ...], power: int, beta: tuple[str, ...], source: str):
        self._set(alpha, power, beta, source)

    # hashed and compared throughout the term engine: literal tuples beat Frozen's field getter
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.alpha, self.power, self.beta, self.source) == (other.alpha, other.power, other.beta, other.source)

    def __hash__(self) -> int:
        return hash((self.alpha, self.power, self.beta, self.source))

    @property
    def is_projection(self) -> bool:
        return not self.alpha and not self.beta and self.power == 0

    def adjoint(self) -> "NormalMonomial":
        return NormalMonomial(self.beta, -self.power, self.alpha, self.source)

    def sort_key(self):
        return (len(self.alpha), self.alpha, self.power, len(self.beta), self.beta, self.source)


class CKTerm:
    """Immutable finite combination of normal monomials.

    Zero coefficients are never stored; equality is exact coefficientwise
    equality on the stored monomials.  The hash is formed on first use and
    kept, from the monomials in no particular order.
    """

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, coeffs: Mapping[NormalMonomial, GaussianRational] | None = None):
        clean = {}
        for m, c in (coeffs or {}).items():
            c = GaussianRational.of(c)
            if c is ONE or not c.is_zero:
                clean[m] = c
        self._coeffs = clean
        self._hash = None

    @classmethod
    def zero(cls) -> "CKTerm":
        return cls()

    @classmethod
    def of(cls, monomial: NormalMonomial, coeff=1) -> "CKTerm":
        return cls({monomial: GaussianRational.of(coeff)})

    def items(self) -> Iterator[tuple[NormalMonomial, GaussianRational]]:
        return iter(sorted(self._coeffs.items(), key=lambda mc: mc[0].sort_key()))

    def monomials(self) -> list[NormalMonomial]:
        return sorted(self._coeffs, key=NormalMonomial.sort_key)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __add__(self, other: "CKTerm") -> "CKTerm":
        return self.plus((other,))

    def plus(self, others: Iterable["CKTerm"]) -> "CKTerm":
        """``self`` plus each of ``others`` in turn, in one pass: each
        coefficient is checked once, not once per sum it passes through."""
        out = dict(self._coeffs)
        for other in others:
            for m, c in other._coeffs.items():
                out[m] = out[m] + c if m in out else c
        return CKTerm(out)

    def __neg__(self) -> "CKTerm":
        return self.scale(-1)

    def __sub__(self, other: "CKTerm") -> "CKTerm":
        return self + -other

    def scale(self, factor) -> "CKTerm":
        factor = GaussianRational.of(factor)
        return CKTerm({m: c * factor for m, c in self._coeffs.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, CKTerm) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._coeffs.items()))
        return self._hash

    def __repr__(self) -> str:
        return f"CKTerm({dict(self._coeffs)!r})"


# ---------------------------------------------------------------------------
# term-level operations


def projection(ctx: AugmentedGraphSpec, v: str) -> CKTerm:
    return CKTerm.of(NormalMonomial((), 0, (), ctx.check_vertex(v)))


def isometry(ctx: AugmentedGraphSpec, e: str) -> CKTerm:
    return CKTerm.of(NormalMonomial((e,), 0, (), ctx.edge_source(e)))


def tail_unitary(ctx: AugmentedGraphSpec, namespace: str, power: int = 1) -> CKTerm:
    if power == 0:
        return projection(ctx, ctx.sink_vertex(namespace))
    return CKTerm.of(NormalMonomial((), power, (), ctx.sink_vertex(namespace)))


def _product(m: NormalMonomial, n: NormalMonomial, ctx: AugmentedGraphSpec) -> NormalMonomial | None:
    """The normal form of ``m n``, or None where it is zero.

    ``m = s_alpha t^j s_beta*`` at ``u`` meets ``n = s_gamma t^k s_delta*``
    at ``w`` where ``s_beta*`` faces ``s_gamma``: their ends must agree,
    and ``beta`` and ``gamma`` cancel edge by edge from there.  What is left
    of one joins the far side of the other, unless a nonzero power of the
    other stands in its way; where both are used up, the powers add, and
    at power zero ``s(e) s*(e)`` contracts outward at each unique receiver.
    """
    alpha, j, beta, u = m.alpha, m.power, m.beta, m.source
    gamma, k, delta, w = n.alpha, n.power, n.beta, n.source
    if (ctx.edge_range(beta[0]) if beta else u) != (ctx.edge_range(gamma[0]) if gamma else w):
        return None
    c = min(len(beta), len(gamma))
    if beta[:c] != gamma[:c]:
        return None
    beta, gamma = beta[c:], gamma[c:]
    if beta and k or gamma and j:  # s* t or t s: neither side below is a projection
        from .notation import monomial_to_str  # the grammar, loaded only to write the word

        word = f"{monomial_to_str(NormalMonomial(alpha, j, beta, u), ctx)} {monomial_to_str(NormalMonomial(gamma, k, delta, w), ctx)}"
        raise UnrepresentableTermError(f"irreducible word is not of the form s..s t^k s*..s*: {word}")
    if beta:
        return NormalMonomial(alpha, j, delta + beta, u)
    if gamma:
        return NormalMonomial(alpha + gamma, k, delta, w)
    power = j + k
    while not power and alpha and delta and alpha[-1] == delta[-1]:
        v = ctx.edge_range(alpha[-1])
        if ctx.unique_receiver(v) != alpha[-1]:
            break
        alpha, delta, u = alpha[:-1], delta[:-1], v
    return NormalMonomial(alpha, power, delta, u)


def multiply(a: CKTerm, b: CKTerm, ctx: AugmentedGraphSpec) -> CKTerm:
    """Product in normal form, monomial by monomial at their junction."""
    out: dict[NormalMonomial, GaussianRational] = {}
    right = list(b.items())
    for m1, c1 in a.items():
        for m2, c2 in right:
            m = _product(m1, m2, ctx)
            if m is not None:
                out[m] = out[m] + c1 * c2 if m in out else c1 * c2
    return CKTerm(out)


def adjoint(a: CKTerm) -> CKTerm:
    return CKTerm({m.adjoint(): c.conjugate() for m, c in a.items()})


def expand_ck3(term: CKTerm, v: str, ctx: AugmentedGraphSpec) -> CKTerm:
    """Rewrite each occurrence of ``p_v`` into its receiver sum.

    The substitution is literal: resulting ``s_e s_e*`` monomials are not
    re-contracted even at unique-receiver vertices, so the output exhibits
    the receiver-sum side of the relation as written.
    """
    ctx.check_vertex(v)
    rec = sorted(ctx.receivers(v))
    if not rec:
        raise CK3ExpansionError(f"vertex {v!r} has no receivers; the relation imposes nothing")
    target = NormalMonomial((), 0, (), v)
    expansion = CKTerm(
        {NormalMonomial((e,), 0, (e,), ctx.edge_source(e)): ONE for e in rec}
    )
    return CKTerm.zero().plus(expansion.scale(c) if m == target else CKTerm.of(m, c) for m, c in term.items())
