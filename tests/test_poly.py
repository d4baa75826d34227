"""Polynomial arithmetic, the text grammar, and class-group grading."""

import random
import time
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import FoldingParser

from lgfrob import poly
from lgfrob.errors import (
    DegreeMismatch,
    NotHomogeneous,
    PolySyntaxError,
    UnknownVariable,
)
from lgfrob.fixtures import fixture_names, get_fixture
from lgfrob.poly import (
    MAX_EXPONENT,
    MAX_NESTING,
    GradedPolynomial,
    check_homogeneous,
    grlex_key,
    monomial_degree,
    parse_polynomial,
)

VARS = ("x", "y", "z")

coeffs = st.fractions(
    min_value=-20, max_value=20, max_denominator=7
).filter(lambda q: q != 0)
monomials = st.tuples(*[st.integers(0, 5)] * 3)
polynomials = st.dictionaries(monomials, coeffs, max_size=6).map(
    lambda terms: GradedPolynomial(VARS, terms)
)


class TestArithmetic:
    def test_zero_and_constant(self):
        zero = GradedPolynomial.zero(VARS)
        one = GradedPolynomial.constant(VARS, 1)
        assert zero.is_zero()
        assert (one - one).is_zero()

    @given(polynomials, polynomials)
    def test_addition_commutes(self, p, q):
        assert p + q == q + p

    @given(polynomials, polynomials, polynomials)
    @settings(max_examples=50)
    def test_multiplication_associates_and_distributes(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(polynomials, polynomials)
    def test_multiplication_commutes(self, p, q):
        assert p * q == q * p

    @given(polynomials)
    def test_additive_inverse(self, p):
        assert (p + (-p)).is_zero()

    @given(polynomials, polynomials)
    @settings(max_examples=50)
    def test_derivative_leibniz(self, p, q):
        for i in range(3):
            lhs = (p * q).partial_derivative(i)
            rhs = p.partial_derivative(i) * q + p * q.partial_derivative(i)
            assert lhs == rhs

    def test_mul_monomial_matches_full_product(self):
        p = parse_polynomial("x^2 + 3*y*z", VARS)
        shifted = p.mul_monomial((1, 0, 2))
        reference = p * GradedPolynomial.monomial(VARS, (1, 0, 2))
        assert shifted == reference

    def test_scaling_by_zero_stores_no_terms(self):
        p = parse_polynomial("x^2 + 3*y*z", VARS)
        assert p.scale(0).terms == {}

    def test_public_constructor_checks_every_term(self):
        """The public constructor drops zeros, wraps each coefficient in a
        Fraction and refuses a monomial of the wrong length or with an
        exponent outside 0..MAX_EXPONENT; arithmetic results skip this."""
        p = GradedPolynomial(VARS, {(1, 0, 0): 2, (0, 1, 0): 0})
        assert list(p.terms.items()) == [((1, 0, 0), Fraction(2))]
        assert type(p.terms[(1, 0, 0)]) is Fraction
        for mono in [(1, 0), (-1, 0, 0), (MAX_EXPONENT + 1, 0, 0)]:
            with pytest.raises(ValueError):
                GradedPolynomial(VARS, {mono: 1})

    def test_restrict_to_zero(self):
        p = parse_polynomial("x^2*y + z^3 + x*z", VARS)
        assert p.restrict_to_zero(["z"]) == parse_polynomial("x^2*y", VARS)
        with pytest.raises(UnknownVariable):
            p.restrict_to_zero(["w"])


# malformed texts with the error, the message and the offset of each, pinned
# so that a change to the tokenizer cannot move them
MALFORMED = [
    ('', PolySyntaxError, 'unexpected end of input (at offset 0)', 0),
    ('   ', PolySyntaxError, 'unexpected end of input (at offset 3)', 3),
    ('x^^2', PolySyntaxError, "expected exponent after '^' (at offset 2)", 2),
    ('x^', PolySyntaxError, "expected exponent after '^' (at offset 2)", 2),
    ('x^y', PolySyntaxError, "expected exponent after '^' (at offset 2)", 2),
    ('x^-1', PolySyntaxError, "expected exponent after '^' (at offset 2)", 2),
    ('x +', PolySyntaxError, 'unexpected end of input (at offset 3)', 3),
    ('x + y )', PolySyntaxError, "unexpected token ')' (at offset 6)", 6),
    (')', PolySyntaxError, "expected number, variable or '(' but found ')' (at offset 0)", 0),
    ('*x', PolySyntaxError, "expected number, variable or '(' but found '*' (at offset 0)", 0),
    ('x y', PolySyntaxError, "unexpected token 'y' (at offset 2)", 2),
    ('x + $', PolySyntaxError, "unexpected character '$' (at offset 4)", 4),
    ('x + + $', PolySyntaxError, "expected number, variable or '(' but found '+' (at offset 4)", 4),
    ('x$', PolySyntaxError, "unexpected character '$' (at offset 1)", 1),
    ('$', PolySyntaxError, "unexpected character '$' (at offset 0)", 0),
    ('  \t$', PolySyntaxError, "unexpected character '$' (at offset 3)", 3),
    ('x**2', PolySyntaxError, "expected number, variable or '(' but found '*' (at offset 2)", 2),
    ('1/', PolySyntaxError, "expected denominator after '/' (at offset 2)", 2),
    ('1/0', PolySyntaxError, 'zero denominator (at offset 2)', 2),
    ('1/ 0', PolySyntaxError, 'zero denominator (at offset 3)', 3),
    ('1/x', PolySyntaxError, "expected denominator after '/' (at offset 2)", 2),
    ('2/3/4', PolySyntaxError, "unexpected token '/' (at offset 3)", 3),
    ('(x', PolySyntaxError, "expected ')' (at offset 2)", 2),
    ('()', PolySyntaxError, "expected number, variable or '(' but found ')' (at offset 1)", 1),
    ('(x + y', PolySyntaxError, "expected ')' (at offset 6)", 6),
    ('x + (', PolySyntaxError, 'unexpected end of input (at offset 5)', 5),
    ('x^2^3', PolySyntaxError, "unexpected token '^' (at offset 3)", 3),
    ('x + w', UnknownVariable, "unknown variable 'w'", 4),
    ('x1 + y', UnknownVariable, "unknown variable 'x1'", 0),
    ('_a', UnknownVariable, "unknown variable '_a'", 0),
    ('x + y\xa0+ \xe9', UnknownVariable, "unknown variable 'é'", 8),
    ('x\u3000+ \xb2', PolySyntaxError, '1-digit literal is too long (at offset 4)', 4),
    ('3 x', PolySyntaxError, "unexpected token 'x' (at offset 2)", 2),
    ('x + 2*', PolySyntaxError, 'unexpected end of input (at offset 6)', 6),
    ('x*(y+)', PolySyntaxError, "expected number, variable or '(' but found ')' (at offset 5)", 5),
    ('x\n+\n\ny )  ', PolySyntaxError, "unexpected token ')' (at offset 7)", 7),
    ('((x)', PolySyntaxError, "expected ')' (at offset 4)", 4),
    ('x+y)*(z', PolySyntaxError, "unexpected token ')' (at offset 3)", 3),
    ('-', PolySyntaxError, 'unexpected end of input (at offset 1)', 1),
    ('+', PolySyntaxError, 'unexpected end of input (at offset 1)', 1),
    ('- -x', PolySyntaxError, "expected number, variable or '(' but found '-' (at offset 2)", 2),
    ('x^ 2 3', PolySyntaxError, "unexpected token '3' (at offset 5)", 5),
    ('x ^\t', PolySyntaxError, "expected exponent after '^' (at offset 4)", 4),
    ('1 / 2 / z', PolySyntaxError, "unexpected token '/' (at offset 6)", 6),
    ('x*y*', PolySyntaxError, 'unexpected end of input (at offset 4)', 4),
    ('(', PolySyntaxError, 'unexpected end of input (at offset 1)', 1),
    ('x^(2)', PolySyntaxError, "expected exponent after '^' (at offset 2)", 2),
    ('y + 1/z', PolySyntaxError, "expected denominator after '/' (at offset 6)", 6),
    ('x + y + 5/', PolySyntaxError, "expected denominator after '/' (at offset 10)", 10),
    ('7//2', PolySyntaxError, "expected denominator after '/' (at offset 2)", 2),
    ('x+y/2', PolySyntaxError, "unexpected token '/' (at offset 3)", 3),
    ('x^2 $ y', PolySyntaxError, "unexpected character '$' (at offset 4)", 4),
    ('x + 1/0 $', PolySyntaxError, 'zero denominator (at offset 6)', 6),
    ('x*$', PolySyntaxError, "unexpected character '$' (at offset 2)", 2),
    ('x * $', PolySyntaxError, "unexpected character '$' (at offset 4)", 4),
    ('x^$', PolySyntaxError, "unexpected character '$' (at offset 2)", 2),
    ('(x)^ $', PolySyntaxError, "unexpected character '$' (at offset 5)", 5),
    ('x*\t', PolySyntaxError, 'unexpected end of input (at offset 3)', 3),
    ('x* )', PolySyntaxError, "expected number, variable or '(' but found ')' (at offset 3)", 3),
]


class TestTextFormat:
    @given(polynomials)
    @settings(max_examples=200)
    def test_round_trip(self, p):
        assert parse_polynomial(p.to_text(), VARS) == p

    def test_canonical_order_is_graded_lex_descending(self):
        p = parse_polynomial("y + x^2 + 1", VARS)
        assert p.to_text() == "x^2 + y + 1"

    def test_rational_coefficients(self):
        p = parse_polynomial("-1/2*x + 3/4", VARS)
        assert p.terms[(1, 0, 0)] == Fraction(-1, 2)
        assert p.terms[(0, 0, 0)] == Fraction(3, 4)

    def test_parenthesized_products(self):
        p = parse_polynomial("(x + y)*(x - y)", VARS)
        assert p == parse_polynomial("x^2 - y^2", VARS)

    def test_power_binds_tighter_than_product(self):
        assert parse_polynomial("2*x^3", VARS) == parse_polynomial(
            "2*(x^3)", VARS
        )

    def test_syntax_error_carries_position(self):
        with pytest.raises(PolySyntaxError) as err:
            parse_polynomial("x^^2", VARS)
        assert err.value.position == 2

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable) as err:
            parse_polynomial("x + w", VARS)
        assert err.value.name == "w"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(PolySyntaxError):
            parse_polynomial("x + y )", VARS)

    def test_unexpected_end(self):
        with pytest.raises(PolySyntaxError):
            parse_polynomial("x +", VARS)

    @pytest.mark.parametrize("text, error, message, position", MALFORMED)
    def test_error_message_and_offset(self, text, error, message, position):
        with pytest.raises(error) as err:
            parse_polynomial(text, VARS)
        assert type(err.value) is error
        assert (str(err.value), err.value.position) == (message, position)


class TestParserLimits:
    """Powers are taken by repeated squaring, and an exponent, literal,
    product, power or nesting the parser cannot take is a syntax error at
    its offset."""

    def test_huge_power_of_a_zero_product_is_fast(self):
        start = time.perf_counter()
        assert parse_polynomial("0*x^200000000", VARS).is_zero()
        assert time.perf_counter() - start < 1.0

    def test_squaring_equals_repeated_multiplication(self):
        base = parse_polynomial("x - 2*y + 1/3*z", VARS)
        want = GradedPolynomial.constant(VARS, 1)
        for n in range(12):
            assert parse_polynomial(f"(x - 2*y + 1/3*z)^{n}", VARS) == want
            want = want * base

    def test_largest_exponent_accepted(self):
        p = parse_polynomial(f"x^{MAX_EXPONENT}", VARS)
        assert p.terms == {(MAX_EXPONENT, 0, 0): 1}

    def test_deepest_nesting_accepted(self):
        text = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        assert parse_polynomial(text, VARS).terms == {(1, 0, 0): 1}

    @pytest.mark.parametrize(
        "text, position",
        [
            (f"x^{MAX_EXPONENT + 1}", 2),
            ("x^3000000000", 2),
            ("1" * 5000 + "*x", 0),
            ("x^" + "1" * 5000, 2),
            ("y + 1/" + "7" * 5000, 6),
            ("x^2000000000*x^2000000000*y^0", 13),
            ("(x^2)^2000000000", 0),
            ("y + (x+y)^100000000", 4),
            ("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1), MAX_NESTING),
            ("(" * 10_000 + "x" + ")" * 10_000, MAX_NESTING),
        ],
        ids=[
            "max-plus-one",
            "3e9",
            "long-coefficient",
            "long-exponent",
            "long-denominator",
            "product-exponent",
            "power-exponent",
            "term-products",
            "nesting-max-plus-one",
            "nesting-10000",
        ],
    )
    def test_rejected_at_offset(self, text, position):
        start = time.perf_counter()
        with pytest.raises(PolySyntaxError) as err:
            parse_polynomial(text, VARS)
        assert err.value.position == position
        assert time.perf_counter() - start < 1.0


    def test_term_product_budget(self, monkeypatch):
        """With a budget of 4 term products, (x+y)*(x-y) takes all of them
        and a further factor z is refused at its offset, before the product
        that would pass the budget is formed."""
        monkeypatch.setattr(poly, "MAX_TERM_PRODUCTS", 4)
        formed = []
        mul = GradedPolynomial.__mul__

        def counting_mul(left, right):
            formed.append(len(left.terms) * len(right.terms))
            return mul(left, right)

        monkeypatch.setattr(GradedPolynomial, "__mul__", counting_mul)
        want = GradedPolynomial(VARS, {(2, 0, 0): 1, (0, 2, 0): -1})
        assert parse_polynomial("(x+y)*(x-y)", VARS) == want
        formed.clear()
        with pytest.raises(PolySyntaxError) as err:
            parse_polynomial("(x+y)*(x-y)*z", VARS)
        assert err.value.position == 12
        assert formed == [4]


def rescaled_text(name, seed):
    """The text of a fixture's f(lambda * z), lambda_i drawn from 1, 2, 3
    by the seed: the shape of the benchmark's workload documents."""
    fx = get_fixture(name)
    rng = random.Random(seed)
    scales = [rng.choice((1, 2, 3)) for _ in fx.variables]
    terms = {
        mono: coeff * prod(lam**e for lam, e in zip(scales, mono))
        for mono, coeff in fx.polynomial.terms.items()
    }
    return GradedPolynomial(fx.variables, terms).to_text()


PARSE_CASES = [
    (name, get_fixture(name).poly_text, get_fixture(name).variables)
    for name in fixture_names()
] + [
    (f"{name}-rescaled-{seed}", rescaled_text(name, seed), get_fixture(name).variables)
    for name in ("projective-4", "bundle-p2", "bundle-p6")
    for seed in (1, 2)
] + [
    (f"cancel-{k}", text, VARS)
    for k, text in enumerate([
        "x - x + y",
        "-(x + y)^2 + x^2 + 2*x*y",
        "x*y - y*x + 3/2*z - 1/2*z + x",
        "(x - y)*(x + y) - x^2 + y^2",
        "+x - 0*y - (z - z)^3 + 0",
    ])
]


class TestParsedTerms:
    @pytest.mark.parametrize(
        "text, variables", [case[1:] for case in PARSE_CASES],
        ids=[case[0] for case in PARSE_CASES],
    )
    def test_terms_equal_the_checked_fold(self, text, variables, monkeypatch):
        """Sums added into one dict, and arithmetic results that skip the
        constructor's checks, give the same terms in the same order, all
        Fractions, as folding every sum through the public operators with
        every result built by the checking constructor."""
        got = parse_polynomial(text, variables)
        monkeypatch.setattr(
            GradedPolynomial, "_unchecked", classmethod(lambda cls, v, t: cls(v, t))
        )
        want = FoldingParser(text, variables).parse()
        assert list(got.terms.items()) == list(want.terms.items())
        assert all(type(c) is Fraction for c in got.terms.values())
        assert got.variables == want.variables == tuple(variables)

    @given(polynomials, polynomials, polynomials)
    @settings(max_examples=50, deadline=None)
    def test_random_sums_equal_the_fold(self, p, q, r):
        """Sums with cancellation: the value of the arithmetic, and the term
        order of folding the sum through the public operators."""
        tp, tq, tr = (f"({s.to_text()})" for s in (p, q, r))
        text = f"{tp} - {tq}*{tr} + {tq} - {tp}"
        got = parse_polynomial(text, VARS)
        assert got == q - q * r
        assert all(type(c) is Fraction for c in got.terms.values())
        want = FoldingParser(text, VARS).parse()
        assert list(got.terms.items()) == list(want.terms.items())


class _FakeGrading:
    def __init__(self, degrees):
        self.degrees = tuple(tuple(d) for d in degrees)


class TestGrading:
    def test_monomial_degree_additivity(self):
        degrees = ((1, 0), (1, 0), (0, 1))
        a, b = (2, 1, 0), (0, 1, 3)
        combined = tuple(x + y for x, y in zip(a, b))
        da = monomial_degree(a, degrees)
        db = monomial_degree(b, degrees)
        assert monomial_degree(combined, degrees) == tuple(
            x + y for x, y in zip(da, db)
        )

    @given(monomials, monomials)
    def test_additivity_random(self, a, b):
        degrees = ((1, 2), (3, 0), (-1, 1))
        combined = tuple(x + y for x, y in zip(a, b))
        da = monomial_degree(a, degrees)
        db = monomial_degree(b, degrees)
        assert monomial_degree(combined, degrees) == tuple(
            x + y for x, y in zip(da, db)
        )

    def test_homogeneous_returns_degree(self):
        g = _FakeGrading([(1,), (1,), (1,)])
        p = parse_polynomial("x^3 + x*y*z", VARS)
        assert check_homogeneous(p, g) == (3,)
        assert check_homogeneous(p * p, g) == (6,)

    def test_inhomogeneous_witness(self):
        g = _FakeGrading([(1,), (1,), (1,)])
        p = parse_polynomial("x^2 + y^3", VARS)
        with pytest.raises(NotHomogeneous) as err:
            check_homogeneous(p, g)
        mono_a, deg_a, mono_b, deg_b = err.value.witness
        assert {deg_a, deg_b} == {(2,), (3,)}
        assert mono_a != mono_b

    def test_zero_polynomial_has_no_degree(self):
        g = _FakeGrading([(1,), (1,), (1,)])
        with pytest.raises(DegreeMismatch):
            check_homogeneous(GradedPolynomial.zero(VARS), g)


class TestGrlexOrder:
    def test_total_degree_dominates(self):
        assert grlex_key((0, 0, 2)) < grlex_key((3, 0, 0))

    def test_lex_breaks_ties(self):
        assert grlex_key((0, 1, 1)) < grlex_key((1, 0, 1))
