from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afembed.embedding import AugmentedGraphSpec, MultiplicitySeq, embed, materialize
from afembed.graph import parse_graph
from afembed.terms import (
    KEEP,
    ZERO,
    CK3ExpansionError,
    CKTerm,
    ContextMismatchError,
    GaussianRational,
    NormalMonomial,
    TermParseError,
    UnrepresentableTermError,
    _TermParser,
    adjoint,
    expand_ck3,
    isometry,
    monomial_of_word,
    multiply,
    normalize_word,
    parse_term,
    projection,
    reduce_pair,
    tail_unitary,
    term_of_word,
    term_to_str,
)

from .oracles import (
    all_order_normal_forms,
    reference_normalize_word,
    reference_parse_term,
    reference_reduce_pair,
)


@pytest.fixture(scope="module")
def ctx(square_embedding):
    spec, _ = square_embedding
    return spec


@pytest.fixture(scope="module")
def gmap(square_embedding):
    return square_embedding[1]


def q(a, b=0):
    return GaussianRational(Fraction(a), Fraction(b))


class TestGaussianRational:
    def test_arithmetic(self):
        x, y = q(1, 2), q(3, -1)
        assert x * y == q(5, 5)
        assert x + y == q(4, 1)
        assert (x - x).is_zero

    def test_conjugate_is_involutive_and_multiplicative(self):
        x, y = q(Fraction(1, 2), 3), q(2, Fraction(-1, 4))
        assert x.conjugate().conjugate() == x
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()

    def test_rendering(self):
        assert str(q(Fraction(3, 2))) == "3/2"
        assert str(q(0, 1)) == "i"
        assert str(q(1, -1)) == "(1-i)"


class TestMultiply:
    def test_mapped_coisometry_gives_vertex_projection(self, ctx, gmap):
        img = gmap.edge_map["e1"]
        assert multiply(adjoint(img), img, ctx) == projection(ctx, "u1")

    def test_distinct_edges_annihilate(self, ctx):
        # relation (2) off the diagonal
        prod = multiply(adjoint(isometry(ctx, "T1.f1")), isometry(ctx, "T1.f2"), ctx)
        assert prod.is_zero

    def test_loop_product_telescopes(self, ctx, gmap):
        prod = gmap.edge_map["e4"]
        for e in ("e3", "e2", "e1"):
            prod = multiply(prod, gmap.edge_map[e], ctx)
        expected = CKTerm.of(NormalMonomial(("T1.f1",), 4, ("T1.f1",), "T1.v"))
        assert prod == expected

    def test_unique_receiver_contraction(self, ctx):
        f1 = isometry(ctx, "T1.f1")
        assert multiply(f1, adjoint(f1), ctx) == projection(ctx, "u1")

    def test_no_contraction_at_multi_receiver_vertex(self, ctx):
        b1 = isometry(ctx, "T1.b1.1")
        prod = multiply(b1, adjoint(b1), ctx)
        assert prod == CKTerm.of(NormalMonomial(("T1.b1.1",), 0, ("T1.b1.1",), "T1.L1.1"))

    def test_mixed_tails_annihilate(self):
        g = parse_graph("vertex a\nvertex b\nedge la a a\nedge lb b b\n")
        spec, _ = embed(g)
        t1 = tail_unitary(spec, "T1")
        t2 = tail_unitary(spec, "T2")
        assert multiply(t1, t2, spec).is_zero

    def test_unitary_powers_merge(self, ctx):
        t = tail_unitary(ctx, "T1")
        t2 = multiply(t, t, ctx)
        assert t2 == tail_unitary(ctx, "T1", 2)
        assert multiply(t2, tail_unitary(ctx, "T1", -2), ctx) == projection(ctx, "T1.v")

    def test_bilinearity(self, ctx):
        a = projection(ctx, "T1.v") + isometry(ctx, "T1.f1").scale(q(0, 1))
        b = adjoint(isometry(ctx, "T1.f1"))
        prod = multiply(a, b, ctx)
        # p(v) s*(f1) = s*(f1) since source(f1) = v; i s(f1) s*(f1) = i p(u1)
        expected = adjoint(isometry(ctx, "T1.f1")) + projection(ctx, "u1").scale(q(0, 1))
        assert prod == expected

    def test_context_mismatch(self, ctx):
        with pytest.raises(ContextMismatchError):
            multiply(isometry(ctx, "zzz"), projection(ctx, "u1"), ctx)


class TestAdjoint:
    def test_projection_self_adjoint(self, ctx):
        p = projection(ctx, "u1")
        assert adjoint(p) == p

    def test_generator_adjoint(self, ctx, gmap):
        img = gmap.edge_map["e1"]  # s(f2) t s*(f1)
        expected = CKTerm.of(NormalMonomial(("T1.f1",), -1, ("T1.f2",), "T1.v"))
        assert adjoint(img) == expected
        # x x* is a projection for a partial isometry image
        xx = multiply(img, adjoint(img), ctx)
        assert multiply(xx, xx, ctx) == xx
        assert adjoint(xx) == xx

    def test_involutive(self, ctx, gmap):
        for term in gmap.edge_map.values():
            assert adjoint(adjoint(term)) == term

    def test_conjugates_coefficients(self, ctx):
        x = projection(ctx, "u1").scale(q(1, 2))
        assert adjoint(x) == projection(ctx, "u1").scale(q(1, -2))


class TestExpandCK3:
    def test_two_receivers(self, two_self_loops):
        ctx = AugmentedGraphSpec(two_self_loops, ())
        out = expand_ck3(projection(ctx, "v"), "v", ctx)
        expected = CKTerm.of(NormalMonomial(("a",), 0, ("a",), "v")) + CKTerm.of(
            NormalMonomial(("b",), 0, ("b",), "v")
        )
        assert out == expected

    def test_unique_receiver_stays_literal(self, ctx):
        out = expand_ck3(projection(ctx, "u1"), "u1", ctx)
        assert out == CKTerm.of(NormalMonomial(("T1.f1",), 0, ("T1.f1",), "T1.v"))

    def test_no_receivers_is_an_error(self):
        g = parse_graph("vertex a\nvertex b\nedge e a b\n")
        ctx = AugmentedGraphSpec(g, ())
        with pytest.raises(CK3ExpansionError):
            expand_ck3(projection(ctx, "a"), "a", ctx)

    def test_untouched_monomials_pass_through(self, ctx):
        term = projection(ctx, "u1") + projection(ctx, "u2")
        out = expand_ck3(term, "u1", ctx)
        assert out.coefficient(NormalMonomial((), 0, (), "u2")) == q(1)


def _atom_pool(spec):
    atoms = []
    for v in ("u1", "u2", "T1.v", "T1.L1.1"):
        atoms.append(("p", v))
    for e in ("T1.f1", "T1.f2", "T1.b1.1", "T1.b1.2", "T1.b2.1"):
        atoms.append(("s", e))
        atoms.append(("s*", e))
    atoms.append(("t", "T1", 1))
    atoms.append(("t", "T1", -1))
    return atoms


class TestRewriteSystem:
    @given(st.data())
    @settings(max_examples=250, deadline=None)
    def test_all_rewrite_orders_agree(self, square_embedding, data):
        """Confluence: every reduction order of a random short word reaches
        the same normal form (or all reach zero)."""
        spec, _ = square_embedding
        pool = _atom_pool(spec)
        word = tuple(
            data.draw(st.sampled_from(pool))
            for _ in range(data.draw(st.integers(min_value=1, max_value=6)))
        )
        forms = all_order_normal_forms(spec, word)
        assert len(forms) == 1
        leftmost = normalize_word(spec, word)
        assert forms == {None if leftmost is ZERO else leftmost}

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_associativity_on_random_monomials(self, square_embedding, data):
        spec, _ = square_embedding
        pool = _atom_pool(spec)

        def rand_term():
            n = data.draw(st.integers(min_value=1, max_value=3))
            word = tuple(data.draw(st.sampled_from(pool)) for _ in range(n))
            try:
                return term_of_word(spec, word)
            except Exception:
                assume(False)

        a, b, c = rand_term(), rand_term(), rand_term()
        try:
            left = multiply(multiply(a, b, spec), c, spec)
            right = multiply(a, multiply(b, c, spec), spec)
        except Exception:
            assume(False)
            return
        assert left == right

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_adjoint_antimultiplicative(self, square_embedding, data):
        spec, _ = square_embedding
        pool = _atom_pool(spec)

        def rand_term():
            n = data.draw(st.integers(min_value=1, max_value=3))
            word = tuple(data.draw(st.sampled_from(pool)) for _ in range(n))
            try:
                return term_of_word(spec, word, coeff=q(data.draw(st.integers(-2, 2)), 1))
            except Exception:
                assume(False)

        a, b = rand_term(), rand_term()
        try:
            lhs = adjoint(multiply(a, b, spec))
            rhs = multiply(adjoint(b), adjoint(a), spec)
        except Exception:
            assume(False)
            return
        assert lhs == rhs


GOLDEN = Path(__file__).parent / "golden"
REFERENCE_CONTEXTS = ("square", "self_loop_mult", "two_tails", "two_receivers")


@pytest.fixture(scope="module")
def reference_contexts():
    """Contexts with every valid atom up to tail level 3, by name."""
    square = parse_graph((GOLDEN / "square.txt").read_text())
    self_loop = parse_graph((GOLDEN / "self_loop.txt").read_text())
    two_loops = parse_graph("vertex a\nvertex b\nedge la a a\nedge lb b b\n")
    # c receives x and y, so s(x) s*(x) stays; a and b have unique receivers
    forked = parse_graph(
        "vertex a\nvertex b\nvertex c\nedge x a c\nedge y b c\nedge z c a\nedge l b b\n"
    )
    specs = {
        "square": embed(square)[0],
        "self_loop_mult": embed(self_loop, MultiplicitySeq.parse("3,3;2"))[0],
        "two_tails": embed(two_loops)[0],
        "two_receivers": AugmentedGraphSpec(forked, ()),
    }
    out = {}
    for name, spec in specs.items():
        f3 = materialize(spec, 3)
        atoms = [("p", v) for v in sorted(f3.vertices)]
        atoms += [(tag, e.name) for e in f3.edges for tag in ("s", "s*")]
        atoms += [("t", rep.tail.namespace, k) for rep in spec.replacements for k in (-2, -1, 1, 2)]
        out[name] = spec, atoms
    return out


class TestReferenceRewriting:
    """The boundary rule stated once agrees with the sixteen-case pair table."""

    @pytest.mark.parametrize("name", REFERENCE_CONTEXTS)
    def test_reduce_pair_on_every_pair(self, reference_contexts, name):
        spec, atoms = reference_contexts[name]
        kinds = set()
        for a in atoms:
            for b in atoms:
                step = reduce_pair(spec, a, b)
                assert step == reference_reduce_pair(spec, a, b), (a, b)
                kinds.add(step if step is ZERO or step == KEEP else "atom")
        assert kinds == {ZERO, KEEP, "atom"}

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_normalize_word_matches_leftmost_reference(self, reference_contexts, data):
        spec, atoms = reference_contexts[data.draw(st.sampled_from(REFERENCE_CONTEXTS))]
        word = tuple(data.draw(st.lists(st.sampled_from(atoms), min_size=1, max_size=8)))
        assert normalize_word(spec, word) == reference_normalize_word(spec, word)

    @pytest.mark.parametrize(
        "atom, error",
        [
            (("p", "zzz"), ContextMismatchError),
            (("s", "zzz"), ContextMismatchError),
            (("s*", "T1.b1.3"), ContextMismatchError),  # level 1 has two edges
            (("t", "T9", 1), ContextMismatchError),
            (("t", "T1", 0), ValueError),
            (("q", "u1"), ValueError),
        ],
    )
    def test_reduce_pair_rejects_unknown_atoms(self, ctx, atom, error):
        with pytest.raises(error):
            reduce_pair(ctx, atom, ("p", "u1"))
        with pytest.raises(error):
            reduce_pair(ctx, ("p", "u1"), atom)


class TestNormalMonomialParsing:
    def test_projection_round_trip(self, ctx):
        word = (("p", "u1"),)
        m = monomial_of_word(ctx, normalize_word(ctx, word))
        assert m == NormalMonomial((), 0, (), "u1")


class TestTermGrammar:
    def test_generator_map_round_trip(self, ctx, gmap):
        for e, term in gmap.edge_map.items():
            assert parse_term(term_to_str(term, ctx), ctx) == term

    def test_sum_with_coefficients(self, ctx):
        text = "1/2 p(u1) + 3i s(T1.f1) - p(u2)"
        term = parse_term(text, ctx)
        assert term.coefficient(NormalMonomial((), 0, (), "u1")) == q(Fraction(1, 2))
        assert term.coefficient(NormalMonomial(("T1.f1",), 0, (), "T1.v")) == q(0, 3)
        assert term.coefficient(NormalMonomial((), 0, (), "u2")) == q(-1)

    def test_powers_of_t(self, ctx):
        term = parse_term("s(T1.f1) t(T1)^4 s*(T1.f1)", ctx)
        assert term == CKTerm.of(NormalMonomial(("T1.f1",), 4, ("T1.f1",), "T1.v"))
        assert parse_term("t*(T1)^2", ctx) == tail_unitary(ctx, "T1", -2)

    def test_products_normalize_during_parse(self, ctx):
        assert parse_term("s*(T1.f1) s(T1.f1)", ctx) == projection(ctx, "T1.v")

    def test_zero_round_trip(self, ctx):
        assert parse_term("0", ctx).is_zero
        assert term_to_str(CKTerm.zero(), ctx) == "0"

    def test_parenthesized_sums(self, ctx):
        term = parse_term("(p(u1) + p(u2)) s(T1.f1)", ctx)
        # only p(u1) has matching range for f1
        assert term == isometry(ctx, "T1.f1")

    def test_zero_denominator_is_a_parse_error(self, ctx):
        with pytest.raises(TermParseError, match="zero denominator in coefficient '1/0'"):
            parse_term("1/0 s(T1.f2) t(T1) s*(T1.f1)", ctx)

    def test_deep_nesting_is_a_parse_error(self, ctx):
        text = "(" * 2000 + "s(T1.f2)" + ")" * 2000 + " t(T1) s*(T1.f1)"
        with pytest.raises(TermParseError, match="nested deeper than 100"):
            parse_term(text, ctx)

    def test_nesting_up_to_the_limit_parses(self, ctx):
        n = _TermParser.MAX_NESTING
        text = "(" * n + "s(T1.f2)" + ")" * n + " t(T1) s*(T1.f1)"
        assert parse_term(text, ctx) == parse_term("s(T1.f2) t(T1) s*(T1.f1)", ctx)
        # sibling groups do not add up: the limit is on depth, not count
        assert parse_term(" ".join(["(p(u2))"] * (n + 1)), ctx) == projection(ctx, "u2")

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_term_round_trip(self, square_embedding, data):
        spec, _ = square_embedding
        pool = _atom_pool(spec)
        total = CKTerm.zero()
        for _ in range(data.draw(st.integers(1, 3))):
            n = data.draw(st.integers(1, 4))
            word = tuple(data.draw(st.sampled_from(pool)) for _ in range(n))
            coeff = q(
                Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3))),
                data.draw(st.integers(-2, 2)),
            )
            try:
                total = total + term_of_word(spec, word, coeff=coeff)
            except Exception:
                assume(False)
        assert parse_term(term_to_str(total, spec), spec) == total


class TestTermRejections:
    """Every message the term grammar rejects with, pinned to the text."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("s(T1.f1) )", "trailing tokens at 1"),
            ("2", "a bare scalar is not a term in a non-unital algebra"),
            ("- -", "a bare scalar is not a term in a non-unital algebra"),
            ("s(T1.f1) + 1", "cannot add a bare scalar to a term"),
            ("1 + s(T1.f1)", "cannot add a bare scalar to a term"),
            ("---s(T1.f1)", "cannot add a bare scalar to a term"),
            ("s(T1.f1) +", "empty product"),
            ("-", "empty product"),
            ("()", "empty product"),
            ("(s(T1.f1)", "unbalanced parenthesis"),
            ("s(T1.f1)^2", "exponents are only supported on t atoms"),
            ("s*(T1.f1)^-1", "exponents are only supported on t atoms"),
            ("p(u1)^0", "exponents are only supported on t atoms"),
            ("p*(u1)", "unknown atom 'p*'"),
            ("p*(u1)^2", "unknown atom 'p*'"),
            ("1e5 s(T1.f2)", "unexpected input at position 1: 'e5 s(T1.f2)'"),
            ("  1e5 s(T1.f2)", "unexpected input at position 1: 'e5 s(T1.f2)'"),
        ],
    )
    def test_parse_error_message(self, ctx, text, message):
        with pytest.raises(TermParseError) as exc:
            parse_term(text, ctx)
        assert str(exc.value) == message

    def test_zero_coefficient_does_not_hide_an_unrepresentable_product(self, ctx):
        """Coefficients scale a product once it is formed: ``t s(b)`` is
        outside the monomial span whatever scalar stands in front of it."""
        with pytest.raises(UnrepresentableTermError):
            parse_term("0 t(T1) s(T1.b1.1)", ctx)
        with pytest.raises(UnrepresentableTermError):
            parse_term("t(T1) 0 s(T1.b1.1)", ctx)

    @pytest.mark.parametrize(
        "text, word",
        [
            ("t(T1) s(T1.b1.1)", "t(T1) s(T1.b1.1)"),
            ("s(T1.f1) t*(T1)^2 s(T1.b1.1)", "s(T1.f1) t*(T1)^2 s(T1.b1.1)"),
            ("s*(T1.b1.2) t(T1)^-3", "s*(T1.b1.2) t*(T1)^3"),
        ],
    )
    def test_a_word_without_a_normal_form_is_named_in_the_term_grammar(self, ctx, text, word):
        with pytest.raises(UnrepresentableTermError) as exc:
            parse_term(text, ctx)
        assert str(exc.value) == f"irreducible word is not of the form s..s t^k s*..s*: {word}"

    @pytest.mark.parametrize(
        "text, normal_form",
        [
            ("0", "0"),
            ("  0 ", "0"),
            ("0 s(T1.f1)", "0"),
            ("(1+i) s(T1.f1) - (1+i) s(T1.f1)", "0"),
            ("--s(T1.f1)", "s(T1.f1)"),
            ("-i s(T1.f1)", "-i s(T1.f1)"),
            ("2 (1/2) 3i s(T1.f1)", "3i s(T1.f1)"),
            ("t(T1)^0", "p(T1.v)"),
            ("t*(T1)^-1", "t(T1)"),
        ],
    )
    def test_accepted_text(self, ctx, text, normal_form):
        assert term_to_str(parse_term(text, ctx), ctx) == normal_form

    @pytest.mark.parametrize(
        "coeff, text",
        [
            (q(0, -1), "-i"),
            (q(0, Fraction(-1, 2)), "-1/2i"),
            (q(1, -1), "(1-i)"),
            (q(Fraction(-3, 5), Fraction(4, 5)), "(-3/5+4/5i)"),
            (q(0, 3), "3i"),
            (q(2, 1), "(2+i)"),
        ],
    )
    def test_coefficient_round_trip(self, ctx, coeff, text):
        assert str(coeff) == text
        term = isometry(ctx, "T1.f1").scale(coeff)
        assert term_to_str(term, ctx) == f"{text} s(T1.f1)"
        assert parse_term(term_to_str(term, ctx), ctx) == term


@pytest.fixture(scope="module")
def mult_one_two():
    """The square with ``--mult 1;2``: level 1 has one edge, so ``s(b1.1) s*(b1.1)``
    reaches the unique-receiver contraction."""
    return embed(parse_graph((GOLDEN / "square.txt").read_text()), MultiplicitySeq.parse("1;2"))[0]


_TERM_TOKENS = (
    # valid atoms
    "p(u1)", "p(u2)", "p(T1.v)", "p(T1.L1.1)", "s(T1.f1)", "s(T1.f2)", "s*(T1.f1)",
    "s*(T1.f2)", "s(T1.b1.1)", "s*(T1.b1.1)", "s(T1.b2.1)", "s*(T1.b2.2)", "t(T1)", "t*(T1)",
    # unknown atoms: a removed loop edge, a missing tail edge, vertex and tail
    "s(e1)", "s(T1.b1.2)", "p(zz)", "t(T9)", "p*(u1)",
    # exponents, on t atoms and elsewhere
    "t(T1)^0", "t(T1)^-1", "t(T1)^2", "t*(T1)^-1", "t*(T1)^0", "s(T1.f1)^2", "p(u1)^0",
    # coefficients
    "0", "1", "2", "1/2", "3i", "i", "1/0",
    # operators and parentheses
    "+", "-", "-", "(", "(", ")", ")",
)


class TestReferenceParser:
    """The one-value evaluator agrees with the pair-threading parser it replaced."""

    @staticmethod
    def outcome(parse, text, spec):
        try:
            return term_to_str(parse(text, spec), spec)
        except Exception as exc:
            return type(exc), str(exc)

    @given(st.lists(st.sampled_from(_TERM_TOKENS), min_size=1, max_size=12))
    @settings(max_examples=1000, deadline=None)
    def test_random_token_strings(self, mult_one_two, tokens):
        text = " ".join(tokens)
        expected = self.outcome(reference_parse_term, text, mult_one_two)
        assert self.outcome(parse_term, text, mult_one_two) == expected

    @pytest.mark.parametrize(
        "text",
        ["s(T1.b1.1) s*(T1.b1.1)", "0 t(T1) s(T1.b1.1)", "(1/2 - i) s(T1.f2) t(T1)^-1 s*(T1.f1) + 2 p(u1)"],
    )
    def test_fixed_texts(self, mult_one_two, text):
        expected = self.outcome(reference_parse_term, text, mult_one_two)
        assert self.outcome(parse_term, text, mult_one_two) == expected
