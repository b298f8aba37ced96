"""Exact symbolic *-algebra of graph-family generators and tail unitaries.

Elements are finite Gaussian-rational combinations of normal monomials
``s_alpha t^k s_beta*`` where ``alpha`` and ``beta`` are paths with a common
source, and a nonzero power ``k`` of a tail unitary requires that source to
be the tail's sink.  ``p_w`` is the degenerate monomial with two empty paths
based at ``w``.

Products are normalized by a local, length-reducing rewrite system over
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

Every rule shortens the word, so rewriting terminates; confluence is
exercised in the test suite by exhausting all rewrite orders on small
words.  Coefficients are exact; no floating point enters this module.

The rules read the graph through one context, the replaced graph
:class:`~afembed.embedding.AugmentedGraphSpec`: endpoints, sinks and
receivers, each unknown id refused with :class:`ContextMismatchError`.
Its receivers answer for the *full* graph the algebra lives over, tail
levels included, since the unique-receiver contraction is only sound
against the full receiver set.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .graph import Frozen

if TYPE_CHECKING:  # the one context, whose module imports this one
    from .embedding import AugmentedGraphSpec

Atom = tuple
Word = tuple  # tuple of atoms

#: sentinel distinct from any word: the zero element
ZERO = None
#: what a rewrite step returns when no rule applies to the pair
KEEP = "keep"


class ContextMismatchError(ValueError):
    """A term mentions a vertex, edge, or tail unknown to the context."""


class UnrepresentableTermError(ValueError):
    """An irreducible word falls outside the s t^k s* monomial span.

    This can only happen when a path dives through a tail sink next to a
    nonzero unitary power; no verification required here produces such
    words, but arbitrary word input can.
    """


class CoefficientRangeError(ValueError):
    """An exact coefficient whose real or imaginary part no float can hold."""


class CK3ExpansionError(ValueError):
    """Receiver-sum expansion requested at a vertex with no receivers."""


class GaussianRational(Frozen):
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("real", "imag")

    def __init__(self, real: Fraction = Fraction(0), imag: Fraction = Fraction(0)):
        _gaussian_real(self, real)
        _gaussian_imag(self, imag)

    # hashed and compared throughout the rewrite engine: literal tuples beat Frozen's field getter
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
        if isinstance(value, (int, Fraction)):
            return ONE if value == 1 else cls(Fraction(value))
        raise TypeError(f"cannot coerce {value!r} to a Gaussian rational")

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.real + other.real, self.imag + other.imag)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.real - other.real, self.imag - other.imag)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        if self is ONE or other is ONE:  # the shared unit: no Fraction arithmetic
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


_gaussian_real, _gaussian_imag = GaussianRational.real.__set__, GaussianRational.imag.__set__
#: The unit coefficient, shared: the constructed map's every coefficient, and its products'.
ONE = GaussianRational(Fraction(1))


class NormalMonomial(Frozen):
    """``s_alpha t^power s_beta*`` with ``source = s(alpha) = s(beta)``.

    ``alpha == beta == ()`` with ``power == 0`` is the projection at
    ``source``; a nonzero power requires ``source`` to be a tail sink.
    """

    __slots__ = ("alpha", "power", "beta", "source")

    def __init__(self, alpha: tuple[str, ...], power: int, beta: tuple[str, ...], source: str):
        _monomial_alpha(self, alpha)
        _monomial_power(self, power)
        _monomial_beta(self, beta)
        _monomial_source(self, source)

    # hashed and compared throughout the rewrite engine: literal tuples beat Frozen's field getter
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


_monomial_alpha, _monomial_power = NormalMonomial.alpha.__set__, NormalMonomial.power.__set__
_monomial_beta, _monomial_source = NormalMonomial.beta.__set__, NormalMonomial.source.__set__


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

    def coefficient(self, m: NormalMonomial) -> GaussianRational:
        return self._coeffs.get(m, GaussianRational())

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __add__(self, other: "CKTerm") -> "CKTerm":
        out = dict(self._coeffs)
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
# word-level rewriting


def _ends(ctx: AugmentedGraphSpec, atom: Atom) -> tuple[str, str]:
    """The boundary vertices ``(u, w)`` of an atom, ``atom = p(u) atom p(w)``.

    The only validator of atoms: an unknown tag, vertex, edge or tail raises.
    """
    tag, x = atom[0], atom[1]
    if tag == "s":
        source, range_ = ctx.endpoints(x)
        return range_, source
    if tag == "s*":
        return ctx.endpoints(x)
    if tag == "t":
        if atom[2] == 0:
            raise ValueError("tail unitary power must be nonzero")
        v = ctx.sink_vertex(x)
        return v, v
    if tag == "p":
        v = ctx.check_vertex(x)
        return v, v
    raise ValueError(f"unknown atom tag {tag!r}")


def _step(ctx: AugmentedGraphSpec, x: tuple, y: tuple):
    """One rewrite step on adjacent atoms carried with their ends.

    ``x = ((u, v), a)`` and ``y = ((v', w), b)`` hold ``a`` and ``b`` with
    their boundary vertices.  Returns the contraction ``((u, w), c)``, which
    inherits the outer ends of the pair, ``ZERO``, or ``KEEP``.
    """
    (u, v), a = x
    (v2, w), b = y
    if v != v2:
        return ZERO
    ta, tb = a[0], b[0]
    if ta == "p":
        c = b
    elif tb == "p":
        c = a
    elif ta == "s*" and tb == "s":
        if a[1] != b[1]:
            return ZERO
        c = ("p", u)
    elif ta == "s" and tb == "s*" and a[1] == b[1] and ctx.unique_receiver(u) == a[1]:
        c = ("p", u)
    elif ta == "t" and tb == "t":  # facing sinks agree, so one tail
        k = a[2] + b[2]
        c = ("t", a[1], k) if k else ("p", u)
    else:
        return KEEP
    return (u, w), c


def normalize_word(ctx: AugmentedGraphSpec, word: Iterable[Atom]):
    """Leftmost-first rewriting to an irreducible word, or ``ZERO``."""
    w = [(_ends(ctx, atom), atom) for atom in word]
    if not w:
        raise ValueError("empty word has no meaning in a non-unital algebra")
    i = 0
    while i < len(w) - 1:
        step = _step(ctx, w[i], w[i + 1])
        if step == KEEP:
            i += 1
            continue
        if step is ZERO:
            return ZERO
        w[i : i + 2] = [step]
        i = max(i - 1, 0)
    return tuple([atom for _, atom in w])


def word_of_monomial(ctx: AugmentedGraphSpec, m: NormalMonomial) -> Word:
    atoms: list[Atom] = [("s", e) for e in m.alpha]
    if m.power:
        ns = ctx.sink_namespace(m.source)
        if ns is None:
            raise ContextMismatchError(f"monomial source {m.source!r} is not a tail sink")
        atoms.append(("t", ns, m.power))
    atoms.extend(("s*", e) for e in reversed(m.beta))
    if not atoms:
        atoms.append(("p", m.source))
    return tuple(atoms)


def monomial_of_word(ctx: AugmentedGraphSpec, word: Word) -> NormalMonomial:
    """Parse an irreducible word back into a normal monomial."""
    if len(word) == 1 and word[0][0] == "p":
        return NormalMonomial((), 0, (), ctx.check_vertex(word[0][1]))
    i = 0
    alpha: list[str] = []
    while i < len(word) and word[i][0] == "s":
        alpha.append(word[i][1])
        i += 1
    power = 0
    sink: str | None = None
    if i < len(word) and word[i][0] == "t":
        power = word[i][2]
        sink = ctx.sink_vertex(word[i][1])
        i += 1
    beta_rev: list[str] = []
    while i < len(word) and word[i][0] == "s*":
        beta_rev.append(word[i][1])
        i += 1
    if i != len(word):
        raise UnrepresentableTermError(
            f"irreducible word is not of the form s..s t^k s*..s*: {word_to_str(word)}"
        )
    beta = tuple(reversed(beta_rev))
    if power:
        source = sink  # type: ignore[assignment]
    elif alpha:
        source = ctx.edge_source(alpha[-1])
    else:
        source = ctx.edge_source(beta[-1])
    return NormalMonomial(tuple(alpha), power, beta, source)


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


def multiply(a: CKTerm, b: CKTerm, ctx: AugmentedGraphSpec) -> CKTerm:
    """Product in normal form, by concatenating and rewriting monomial words."""
    out: dict[NormalMonomial, GaussianRational] = {}
    left = list(a.items())
    right = [(word_of_monomial(ctx, m2), c2) for m2, c2 in b.items()] if left else []
    for m1, c1 in left:
        w1 = word_of_monomial(ctx, m1)
        for w2, c2 in right:
            nf = normalize_word(ctx, w1 + w2)
            if nf is ZERO:
                continue
            m = monomial_of_word(ctx, nf)
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
    out = CKTerm.zero()
    for m, c in term.items():
        out = out + (expansion.scale(c) if m == target else CKTerm.of(m, c))
    return out


# ---------------------------------------------------------------------------
# words in the term grammar, for error messages; the grammar itself, its
# renderer and its parser, is :mod:`afembed.notation`


def _power_str(namespace: str, k: int) -> str:
    """``t(ns)^k``, or ``t*(ns)^-k`` for negative ``k``; a power of one without its exponent."""
    return f"{'t' if k > 0 else 't*'}({namespace})" + (f"^{abs(k)}" if abs(k) != 1 else "")


def word_to_str(word: Word) -> str:
    """A word in the term grammar, atom by atom."""
    return " ".join(_power_str(a[1], a[2]) if a[0] == "t" else f"{a[0]}({a[1]})" for a in word)
