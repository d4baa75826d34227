"""Sparse multivariate polynomial arithmetic with class-group grading.

Monomials are exponent tuples of fixed length (one slot per declared
variable).  Coefficients are exact rationals; zero coefficients are never
stored.  The text format is the grammar

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := rational | variable | '(' expr ')'

where ``rational`` is an integer or ``a/b`` literal and ``nat`` is at most
``MAX_EXPONENT``.  The parser refuses, before multiplying, a product or
power that would give an exponent above ``MAX_EXPONENT`` or take the parse
past ``MAX_TERM_PRODUCTS`` term-by-term products, and parentheses nested
more than ``MAX_NESTING`` deep.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import (
    DegreeMismatch,
    NotHomogeneous,
    PolySyntaxError,
    UnknownVariable,
)

Monomial = tuple[int, ...]

MAX_EXPONENT = 2**31 - 1

# The most term-by-term products (one per pair of terms of the two
# factors) that one parse may form, counted over every product and every
# squaring of a power.  A potential written as a sum of monomials needs a
# few per term (the largest fixture, bundle-p2, needs 192).  The cap stops
# inputs like (x+y)^100000000 in well under a second, before the product
# that would pass it is formed.
MAX_TERM_PRODUCTS = 50_000

# The deepest nesting of parentheses a parse accepts; the parser recurses
# once per level, so the cap keeps it inside the recursion limit.
MAX_NESTING = 100


def grlex_key(mono: Monomial) -> tuple:
    """Graded-lexicographic sort key (total degree, then lex)."""
    return (sum(mono), mono)


def monomial_code(mono: Monomial, radix: int) -> int:
    """code(z) = sum_i z_i radix^i.  For exponents below ``radix`` the code
    determines the monomial, and when the exponents of z * w are also below
    ``radix``, code(z * w) = code(z) + code(w) with no carry between them."""
    code = 0
    for e in reversed(mono):
        code = code * radix + e
    return code


class GradedPolynomial:
    """Sparse exact-rational polynomial over a declared variable list.  It
    carries no degree: ``check_homogeneous`` computes the class-group degree
    from a grading.
    """

    __slots__ = ("variables", "terms")

    def __init__(
        self,
        variables: Sequence[str],
        terms: Mapping[Monomial, Fraction | int] | None = None,
    ):
        self.variables = tuple(variables)
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if len(mono) != len(self.variables):
                raise ValueError("monomial length does not match variable count")
            if any(e < 0 or e > MAX_EXPONENT for e in mono):
                raise ValueError(f"exponent out of range in {mono}")
            clean[tuple(mono)] = coeff
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def _unchecked(
        cls, variables: tuple[str, ...], terms: dict[Monomial, Fraction]
    ) -> "GradedPolynomial":
        """The polynomial with ``terms`` as given, which it then owns: exponent
        tuples of the right length and nonzero ``Fraction`` coefficients, as
        every arithmetic result of checked operands has.  Nothing is copied,
        rewrapped or checked again."""
        poly = object.__new__(cls)
        poly.variables, poly.terms = variables, terms
        return poly

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "GradedPolynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "GradedPolynomial":
        n = len(variables)
        return cls(variables, {(0,) * n: Fraction(value)})

    @classmethod
    def monomial(cls, variables: Sequence[str], mono: Monomial, coeff=1) -> "GradedPolynomial":
        return cls(variables, {tuple(mono): Fraction(coeff)})

    @classmethod
    def variable(cls, variables: Sequence[str], index: int) -> "GradedPolynomial":
        mono = tuple(1 if i == index else 0 for i in range(len(variables)))
        return cls(variables, {mono: Fraction(1)})

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedPolynomial)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"GradedPolynomial({self.to_text()!r})"

    def _check_compatible(self, other: "GradedPolynomial"):
        if self.variables != other.variables:
            raise ValueError("polynomials over different variable lists")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        self._check_compatible(other)
        terms = dict(self.terms)
        _add_into(terms, other.terms)
        return GradedPolynomial._unchecked(self.variables, terms)

    def __neg__(self) -> "GradedPolynomial":
        return GradedPolynomial._unchecked(
            self.variables, {m: -c for m, c in self.terms.items()}
        )

    def __sub__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return self + (-other)

    def scale(self, value) -> "GradedPolynomial":
        value = Fraction(value)
        if value == 0:
            return GradedPolynomial.zero(self.variables)
        return GradedPolynomial._unchecked(
            self.variables, {m: c * value for m, c in self.terms.items()}
        )

    def __mul__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        self._check_compatible(other)
        terms: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = tuple(x + y for x, y in zip(ma, mb))
                cur = terms.get(mono, Fraction(0)) + ca * cb
                if cur:
                    terms[mono] = cur
                elif mono in terms:
                    del terms[mono]
        return GradedPolynomial._unchecked(self.variables, terms)

    def mul_monomial(self, mono: Monomial) -> "GradedPolynomial":
        """self * z^mono, for an exponent tuple ``mono``."""
        return GradedPolynomial._unchecked(
            self.variables,
            {tuple(x + y for x, y in zip(m, mono)): c for m, c in self.terms.items()},
        )

    def partial_derivative(self, index: int) -> "GradedPolynomial":
        terms: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            e = mono[index]
            if e == 0:
                continue
            new = list(mono)
            new[index] = e - 1
            key = tuple(new)
            cur = terms.get(key, Fraction(0)) + coeff * e
            if cur:
                terms[key] = cur
            elif key in terms:
                del terms[key]
        return GradedPolynomial._unchecked(self.variables, terms)

    def restrict_to_zero(self, var_names: Iterable[str]) -> "GradedPolynomial":
        """Substitute 0 for each named variable."""
        indices = set()
        for name in var_names:
            if name not in self.variables:
                raise UnknownVariable(name)
            indices.add(self.variables.index(name))
        terms = {
            mono: coeff
            for mono, coeff in self.terms.items()
            if all(mono[i] == 0 for i in indices)
        }
        return GradedPolynomial._unchecked(self.variables, terms)

    # -- printing -----------------------------------------------------------

    def sorted_monomials(self) -> list[Monomial]:
        return sorted(self.terms, key=grlex_key, reverse=True)

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for mono in self.sorted_monomials():
            coeff = self.terms[mono]
            factors = []
            for name, e in zip(self.variables, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors or mag != 1:
                factors.insert(0, format_rational(mag))
            body = "*".join(factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)


def _add_into(
    terms: dict[Monomial, Fraction], other: Mapping[Monomial, Fraction], negate=False
) -> None:
    """terms += other (or -= other, when ``negate``) in place: a new monomial
    goes last, and one whose coefficient cancels is deleted."""
    for mono, coeff in other.items():
        cur = terms.get(mono, 0) + (-coeff if negate else coeff)
        if cur:
            terms[mono] = cur
        elif mono in terms:
            del terms[mono]


def format_rational(value: Fraction) -> str:
    """``n`` or ``n/d``, for a rational in lowest terms."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# grading


def monomial_degree(mono: Monomial, degrees: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    rank = len(degrees[0]) if degrees else 0
    out = [0] * rank
    for e, deg in zip(mono, degrees):
        if e:
            for k in range(rank):
                out[k] += e * deg[k]
    return tuple(out)


def check_homogeneous(poly: GradedPolynomial, grading) -> tuple[int, ...]:
    """Return the common class-group degree of all terms; raises
    NotHomogeneous with a two-monomial witness."""
    if not poly.terms:
        raise DegreeMismatch("the zero polynomial has no well-defined degree")
    degrees = grading.degrees
    if len(degrees) != len(poly.variables):
        raise DegreeMismatch("grading map does not cover all variables")
    first_mono = None
    first_deg = None
    for mono in poly.terms:
        deg = monomial_degree(mono, degrees)
        if first_deg is None:
            first_mono, first_deg = mono, deg
        elif deg != first_deg:
            raise NotHomogeneous(first_mono, first_deg, mono, deg)
    return first_deg


# ---------------------------------------------------------------------------
# parser


class _Tokenizer:
    """Scans each token once: ``peek`` reads the next token and keeps it
    until ``take`` consumes it, so the parser's peek before each take costs
    no second scan."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.token = None  # the next token, once peeked

    def _scan(self):
        text, start = self.text, self.pos
        while start < len(text) and text[start].isspace():
            start += 1
        if start >= len(text):
            return ("end", "", start)
        ch = text[start]
        end = start + 1
        if ch.isdigit():
            while end < len(text) and text[end].isdigit():
                end += 1
            return ("number", text[start:end], start)
        if ch.isalpha() or ch == "_":
            while end < len(text) and (text[end].isalnum() or text[end] == "_"):
                end += 1
            return ("name", text[start:end], start)
        if ch in "+-*^()/":
            return (ch, ch, start)
        raise PolySyntaxError(f"unexpected character {ch!r}", start)

    def peek(self):
        if self.token is None:
            self.token = self._scan()
        return self.token

    def offset(self) -> int:
        """Offset of the next token."""
        return self.peek()[2]

    def take(self):
        token = self.peek()
        self.token = None
        self.pos = token[2] + len(token[1])
        return token


def _literal(digits: str, pos: int) -> int:
    """A decimal literal's value; too long for ``int`` is a syntax error."""
    try:
        return int(digits)
    except ValueError:
        raise PolySyntaxError(f"{len(digits)}-digit literal is too long", pos) from None


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.tok = _Tokenizer(text)
        self.variables = tuple(variables)
        self.index = {name: i for i, name in enumerate(self.variables)}
        self.term_products = 0
        self.depth = 0  # of the parentheses open at the next token

    def multiply(
        self, left: GradedPolynomial, right: GradedPolynomial, pos: int
    ) -> GradedPolynomial:
        """left * right for the factor at offset ``pos``, refused before any
        work when an exponent of the product would pass ``MAX_EXPONENT``
        (the largest exponent of a variable in a product is the sum of its
        largest exponents in the factors) or the parse would pass
        ``MAX_TERM_PRODUCTS``."""
        top = map(add, map(max, zip(*left.terms)), map(max, zip(*right.terms)))
        if max(top, default=0) > MAX_EXPONENT:
            raise PolySyntaxError(f"product has an exponent above {MAX_EXPONENT}", pos)
        self.term_products += len(left.terms) * len(right.terms)
        if self.term_products > MAX_TERM_PRODUCTS:
            raise PolySyntaxError(
                f"more than {MAX_TERM_PRODUCTS} term products in one polynomial", pos
            )
        return left * right

    def parse(self) -> GradedPolynomial:
        poly = self.expr()
        kind, value, pos = self.tok.peek()
        if kind != "end":
            raise PolySyntaxError(f"unexpected token {value!r}", pos)
        return poly

    def expr(self) -> GradedPolynomial:
        """A signed sum of terms, added into one dict as they are read, with
        the term order and cancellations of adding them one by one."""
        kind, _, _ = self.tok.peek()
        if kind in ("+", "-"):
            self.tok.take()
        terms: dict[Monomial, Fraction] = {}
        while True:
            _add_into(terms, self.term().terms, negate=kind == "-")
            kind, _, _ = self.tok.peek()
            if kind not in ("+", "-"):
                return GradedPolynomial._unchecked(self.variables, terms)
            self.tok.take()

    def term(self) -> GradedPolynomial:
        poly = self.factor()
        while True:
            kind, _, _ = self.tok.peek()
            if kind != "*":
                return poly
            self.tok.take()
            pos = self.tok.offset()
            poly = self.multiply(poly, self.factor(), pos)

    def factor(self) -> GradedPolynomial:
        start = self.tok.offset()
        base = self.base()
        kind, _, _ = self.tok.peek()
        if kind != "^":
            return base
        self.tok.take()
        kind, value, pos = self.tok.peek()
        if kind != "number":
            raise PolySyntaxError("expected exponent after '^'", pos)
        self.tok.take()
        exponent = _literal(value, pos)
        if exponent > MAX_EXPONENT:
            raise PolySyntaxError(f"exponent above {MAX_EXPONENT}", pos)
        if exponent == 0:
            return GradedPolynomial.constant(self.variables, 1)
        # square-and-multiply over the binary digits after the leading one,
        # most significant first
        result = base
        for digit in f"{exponent:b}"[1:]:
            result = self.multiply(result, result, start)
            if digit == "1":
                result = self.multiply(result, base, start)
        return result

    def base(self) -> GradedPolynomial:
        kind, value, pos = self.tok.take()
        if kind == "number":
            numerator = _literal(value, pos)
            nxt, _, _ = self.tok.peek()
            if nxt == "/":
                self.tok.take()
                kind2, value2, pos2 = self.tok.peek()
                if kind2 != "number":
                    raise PolySyntaxError("expected denominator after '/'", pos2)
                self.tok.take()
                denominator = _literal(value2, pos2)
                if denominator == 0:
                    raise PolySyntaxError("zero denominator", pos2)
                return GradedPolynomial.constant(
                    self.variables, Fraction(numerator, denominator)
                )
            return GradedPolynomial.constant(self.variables, numerator)
        if kind == "name":
            if value not in self.index:
                raise UnknownVariable(value, pos)
            return GradedPolynomial.variable(self.variables, self.index[value])
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise PolySyntaxError(
                    f"parentheses nested more than {MAX_NESTING} deep", pos
                )
            poly = self.expr()
            kind2, _, pos2 = self.tok.peek()
            if kind2 != ")":
                raise PolySyntaxError("expected ')'", pos2)
            self.tok.take()
            self.depth -= 1
            return poly
        raise PolySyntaxError(
            f"expected number, variable or '(' but found {value!r}"
            if kind != "end"
            else "unexpected end of input",
            pos,
        )


def parse_polynomial(text: str, variables: Sequence[str]) -> GradedPolynomial:
    """Parse polynomial text over the declared (ordered) variable names."""
    return _Parser(text, variables).parse()
