"""The written forms of terms, generator maps and specs.

The term grammar renders a :class:`~afembed.terms.CKTerm` over a context
(:func:`term_to_str`) and reads one back (:func:`parse_term`); a generator
map is written a line per edge in it, and a spec as JSON.  ``embed`` loads
this module to write its artifacts, ``verify --map`` to read a map, and
``verify`` otherwise only to write the difference of a FAILED relation, so
a constructed-map ``verify`` that proves every relation never compiles it.
"""

from __future__ import annotations

import re

from .embedding import AugmentedGraphSpec, GeneratorMap
from .graph import named_edges
from .terms import ONE, CKTerm, GaussianRational, NormalMonomial, adjoint, isometry, multiply, projection, tail_unitary


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<atom>[pst]\*?)\((?P<id>[^()\s]+)\)(?:\^(?P<exp>-?\d+))?"
    r"|(?P<num>\d+(?:/\d+)?)(?P<numi>i)?"
    r"|(?P<i>i)"
    r"|(?P<op>[+\-()]))"
)


def _power_str(namespace: str, k: int) -> str:
    """``t(ns)^k``, or ``t*(ns)^-k`` for negative ``k``; a power of one without its exponent."""
    return f"{'t' if k > 0 else 't*'}({namespace})" + (f"^{abs(k)}" if abs(k) != 1 else "")


def monomial_to_str(m: NormalMonomial, ctx: AugmentedGraphSpec) -> str:
    if m.is_projection:
        return f"p({m.source})"
    parts = [f"s({e})" for e in m.alpha]
    if m.power:
        parts.append(_power_str(ctx.sink_namespace(m.source), m.power))
    parts.extend(f"s*({e})" for e in reversed(m.beta))
    return " ".join(parts)


def term_to_str(term: CKTerm, ctx: AugmentedGraphSpec) -> str:
    if term.is_zero:
        return "0"
    return " + ".join(monomial_to_str(m, ctx) if c == ONE else f"{c} {monomial_to_str(m, ctx)}" for m, c in term.items())


class TermParseError(ValueError):
    pass


class _TermParser:
    """Recursive-descent evaluator for the term grammar::

        sum     := ['-'] product (('+' | '-') product)*
        product := ['-'] factor+
        factor  := coefficient | atom | '(' sum ')'

    A coefficient is a rational with an optional trailing ``i``, or ``i``;
    juxtaposed factors multiply.  Only ``t`` and ``t*`` atoms take an
    integer exponent, and ``t(ns)^0`` is ``p`` at the sink.  Each sum and
    product evaluates to one value: a :class:`GaussianRational` while it
    holds no atom, so a parenthesized Gaussian rational such as ``(1+i)``
    is a coefficient, else a :class:`CKTerm`.  A whole text must be a term
    or the scalar ``0``; a sum that cancels is the zero term.  Parentheses
    nest at most ``MAX_NESTING`` deep, so the descent never exhausts the
    interpreter's stack.
    """

    MAX_NESTING = 100

    def __init__(self, ctx: AugmentedGraphSpec, text: str):
        self.ctx = ctx
        self.tokens = self._tokenize(text) + [None]  # None ends the text
        self.pos = 0

    @staticmethod
    def _tokenize(text: str) -> list[tuple[str, object]]:
        from fractions import Fraction  # and ``decimal``: only a map read here needs them, not ``embed``

        tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise TermParseError(f"unexpected input at position {pos}: {text[pos:pos+20]!r}")
                break
            pos = m.end()
            # a ValueError from int() or Fraction() means more digits than the interpreter reads
            if m.group("atom"):
                try:
                    exp = int(m.group("exp")) if m.group("exp") else 1
                except ValueError:
                    atom, digits = f"{m.group('atom')}({m.group('id')})", len(m.group("exp").lstrip("-"))
                    raise TermParseError(f"exponent of {atom} is too long: {digits} digits") from None
                tokens.append(("atom", (m.group("atom"), m.group("id"), exp)))
            elif m.group("num"):
                try:
                    frac = Fraction(m.group("num"))
                except ZeroDivisionError:
                    raise TermParseError(f"zero denominator in coefficient {m.group('num')!r}") from None
                except ValueError:
                    at, digits = m.start("num"), max(len(x) for x in m.group("num").split("/"))
                    raise TermParseError(f"coefficient at position {at} is too long: {digits} digits") from None
                tokens.append(("coeff", GaussianRational(Fraction(0), frac) if m.group("numi") else GaussianRational(frac)))
            elif m.group("i"):
                tokens.append(("coeff", GaussianRational(Fraction(0), Fraction(1))))
            else:
                tokens.append(("op", m.group("op")))
        return tokens

    def parse(self) -> CKTerm:
        value = self.parse_sum(0)
        if self.tokens[self.pos] is not None:
            raise TermParseError(f"trailing tokens at {self.pos}")
        if isinstance(value, CKTerm):
            return value
        if value.is_zero:
            return CKTerm.zero()
        raise TermParseError("a bare scalar is not a term in a non-unital algebra")

    def parse_sum(self, depth: int) -> GaussianRational | CKTerm:
        if self.tokens[self.pos] == ("op", "-"):
            self.pos += 1
            total = -self.parse_product(depth)
        else:
            total = self.parse_product(depth)
        while (tok := self.tokens[self.pos]) in (("op", "+"), ("op", "-")):
            self.pos += 1
            value = self.parse_product(depth)
            if isinstance(value, CKTerm) is not isinstance(total, CKTerm):
                raise TermParseError("cannot add a bare scalar to a term")
            total = total + value if tok == ("op", "+") else total - value
        return total

    def parse_product(self, depth: int) -> GaussianRational | CKTerm:
        # The coefficients multiply apart from the terms and scale their
        # product once, at the end: a zero coefficient must not stand in for
        # a product of terms that is not a term.
        start, scalar, term = self.pos, ONE, None
        if self.tokens[self.pos] == ("op", "-"):  # unary minus, e.g. the coefficient "-i"
            self.pos += 1
            scalar = -ONE
        while (tok := self.tokens[self.pos]) not in (None, ("op", "+"), ("op", "-"), ("op", ")")):
            self.pos += 1
            kind, factor = tok
            if kind == "atom":
                factor = self._atom_term(*factor)
            elif kind == "op":  # "(", the only operator that opens a factor
                if depth >= self.MAX_NESTING:
                    raise TermParseError(f"parentheses nested deeper than {self.MAX_NESTING}")
                factor = self.parse_sum(depth + 1)
                if self.tokens[self.pos] != ("op", ")"):
                    raise TermParseError("unbalanced parenthesis")
                self.pos += 1
            if isinstance(factor, CKTerm):
                term = factor if term is None else multiply(term, factor, self.ctx)
            else:
                scalar = scalar * factor
        if self.pos == start:
            raise TermParseError("empty product")
        return scalar if term is None else term.scale(scalar)

    def _atom_term(self, sym: str, name: str, exp: int) -> CKTerm:
        if sym in ("t", "t*"):
            return tail_unitary(self.ctx, name, exp if sym == "t" else -exp)
        if sym not in ("p", "s", "s*"):
            raise TermParseError(f"unknown atom {sym!r}")
        if exp != 1:
            raise TermParseError("exponents are only supported on t atoms")
        if sym == "p":
            return projection(self.ctx, name)
        return isometry(self.ctx, name) if sym == "s" else adjoint(isometry(self.ctx, name))


def parse_term(text: str, ctx: AugmentedGraphSpec) -> CKTerm:
    return _TermParser(ctx, text.strip()).parse()


def spec_to_dict(spec: AugmentedGraphSpec) -> dict:
    """The spec as JSON: under ``"base"``, E's vertices and its edges off the replaced loops, in id order."""
    g = spec.graph
    return {
        "base": {
            "vertices": list(g.vertex_names),
            "edges": [{"id": name, "src": s, "dst": r} for name, s, r in named_edges(g) if name in spec._finite_edges],
        },
        "replacements": [
            {
                "loop_edges": list(rep.loop.edges),
                "loop_vertices": list(rep.loop.vertices),
                "namespace": rep.tail.namespace,
                "sink": rep.tail.sink,
                "f_edges": list(rep.f_edges),
                "mult": {"prefix": list(rep.tail.mult.prefix), "tail": rep.tail.mult.tail},
            }
            for rep in spec.replacements
        ],
    }


def genmap_to_text(gmap: GeneratorMap, spec: AugmentedGraphSpec) -> str:
    """The map as text, a line per edge, which :func:`genmap_from_text` reads
    back; an edge id holding a parenthesis is refused, as the term grammar
    reads an atom's id up to the first one."""
    lines = ["# generator map: edge id = image term"]
    for e in sorted(gmap.edge_map):
        if "(" in e or ")" in e:
            raise ValueError(f"edge id {e!r} holds '(' or ')', which a generator map cannot name")
        lines.append(f"{e} = {term_to_str(gmap.edge_map[e], spec)}")
    return "\n".join(lines) + "\n"


def genmap_from_text(text: str, spec: AugmentedGraphSpec) -> GeneratorMap:
    edge_map: dict[str, CKTerm] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        # an edge id may hold '=', but no whitespace: the greedy first token
        # before an '=' is the id, so ``a=b = s(a=b)`` and ``e=s(e)`` both read
        m = re.fullmatch(r"(\S+)\s*=\s*(.*)", line)
        if m is None:
            raise ValueError(f"line {lineno}: expected '<edge-id> = <term>'")
        name, rhs = m.groups()
        if name in edge_map:
            raise ValueError(f"line {lineno}: duplicate image for edge {name!r}")
        try:
            edge_map[name] = parse_term(rhs, spec)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return GeneratorMap(edge_map=edge_map)
