"""The graded Frobenius algebra A(f) = sum_a R(f)_{a beta}: structure
constants, trace, pairing, twisted product, and axiom certification.

The trace is the toric residue times the formal unit (2 pi i)^(m-1), one
constant per algebra: ``trace``, ``trace_of_polynomial``, ``pairing_gram``
and every other reader return the rational part, a ``Fraction``, and the
report prints the exponent m-1 beside it.  J0(f) = (f, theta_1 f, ...,
theta_m f), so the toric residue of that system is a functional on
S_{m beta} that vanishes on J0(f)_{m beta}: a multiple of
the functional lambda that reads the one coordinate of the remainder modulo
J0(f) (``QuotientBasis.remainders`` of the one-dimensional R0(f)_{m beta}).
Cattani, Cox & Dickenstein (Compositio Math. 108, 1997) fix the multiple:
the residue of the toric Jacobian J^Delta (``toric_jacobian``) is
m!Vol(Delta).  With the sign -(-1)^(m(m-1)/2) of the pairing, lambda is
scaled so that lambda(J^Delta) = sign * m!Vol, on every fan and with no
choice of monomial, so the trace is continuous in f.  Along a Fermat
pencil sum_i z_i^d - d psi z_0...z_m it goes as the Yukawa coupling
1/(1 - psi^d) (Candelas, de la Ossa, Green & Parkes, Nucl. Phys. B 359,
1991).

Every trace is Tr(y) = lambda(z_1...z_r * y) on S_{(m-1) beta}, where
lambda(z) = sign * m!Vol / generator_coord times the coordinate of the
remainder of z, and generator_coord is the coordinate of J^Delta.  No
reader of the trace knows about z_1...z_r: ``build_algebra`` stores the
trace itself, in integer form and only where it is nonzero, as
``trace_functional = (den, radix, {code(y): den * Tr(y)})``, den the lcm of
the denominators, code(y) = sum_i y_i radix^i and radix = 1 + the largest
exponent in S_{(m-1) beta}.  Readers look codes up with default 0 and divide
by den once.  Codes never carry: every code a reader adds up is that of a
product lying in S_{(m-1) beta}, whose exponents are below radix, and no
factor has an exponent above the product's, as exponents are nonnegative.
A lone monomial is refused unless its class-group degree is (m-1) beta, and
then its code names it.  The structure constants come from the same kind of
table: the constant of basis[a][i] * basis[b][j] is the remainder of the
product monomial in R(f)_{(a+b) beta}, one lookup per pair.

Every product of A(f) goes through one sparse kernel.  The structure
constants are stored once, as integers over one denominator per product
pair: a nonzero index ``nonzero[(a, b)][i][j] = [(k, n), ...]`` (a <= b)
built straight from the remainder table of the target piece holds only the
pairs (j, k) with a nonzero constant c, k ascending, as the ``int``
n = c * denominators[(a, b)], where ``denominators[(a, b)]`` is the lcm of
the denominators of that pair's constants (1 on every Fermat potential).
``product_coords``, the Gram matrices and the axiom checks iterate that
index through ``products``, so their cost is the number of nonzero constants
reached, not dim_a * dim_b * dim_(a+b), and every multiply-add is an ``int``
one: a product clears the denominators of its two coordinate vectors once,
accumulates numerators and forms one ``Fraction`` per output coordinate.
A Gram entry G_a[i][j] is sum_k n_k tau_k / den over the index, where tau_k
is the trace of the k-th degree-(m-1) basis element, read once from the
trace table.

Every axiom check is exact and draws no random number.  The invariance
check keeps an independent direct path that never reads the structure
constants, on every basis triple of every algebra: the direct trace of
z^i z^j z^k is one lookup of den * Tr at the sum of three codes, and the
structure-constant side reads each product e_i e_j once against Gram
numerators.  There is no associativity check, nor a commutativity one:
once unit, invariance and nondegeneracy pass, every stored constant is
R(f)'s, whose product is commutative and associative (the lemma of
``_check_invariance``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, mul
from typing import Sequence

from . import jacobian, linalg
from .errors import DegreeMismatch, HypothesisFailed, ToricJacobianZero
from .jacobian import (
    IDEAL_J,
    IDEAL_J0,
    JacobianSystem,
    QuotientBasis,
    graded_piece,
    normal_form,
)
from .poly import GradedPolynomial, Monomial, monomial_code
from .toric import CheckResult, anticanonical_polytope, normalized_volume


# i -> {j: [(k, n), ...]} over the nonzero constants c of the products of
# two degrees (a, b), k ascending, each n = c * denominators[(a, b)] an int;
# a j with no nonzero c has no entry
Rows = list[dict[int, list[tuple[int, int]]]]
NonzeroIndex = dict[tuple[int, int], Rows]
# (den, radix, {code(y): den * Tr(y)}) over the monomials y of
# S_{(m-1) beta} with Tr(y) != 0; a code with no entry has trace 0
TraceFunctional = tuple[int, int, dict[int, int]]


@dataclass
class FrobeniusAlgebraData:
    """Bases, structure constants, socle data and Gram matrices of A(f)."""

    system: JacobianSystem
    m: int
    volume: int  # m! Vol of the anti-canonical polytope
    bases: list[QuotientBasis]  # index a = 0 .. m-1
    # (a, b) with a <= b and a+b <= m-1; see NonzeroIndex
    nonzero: NonzeroIndex
    # (a, b) -> the lcm of the denominators of that pair's constants
    denominators: dict[tuple[int, int], int]
    r0_piece: QuotientBasis  # R0(f)_{m beta}, one-dimensional
    generator_coord: Fraction  # coordinate of J^Delta in r0_piece
    zero_sums_checked: list[int]  # product degrees a+b >= m certified zero
    trace_functional: TraceFunctional  # the trace; see the module docstring

    @property
    def structure(self) -> dict[tuple[int, int], list[list[list[Fraction]]]]:
        """Dense view ``structure[(a, b)][i][j][k]`` of the nonzero index,
        rebuilt as ``Fraction`` tensors on every read.  It has no caller
        under ``src/``: the benchmark's tracer reads it to count entries,
        and the benchmark change of ROADMAP item 1 deletes it."""
        out = {}
        for (a, b), index in self.nonzero.items():
            den = self.denominators[(a, b)]
            zero = [Fraction(0)] * self.bases[a + b].dim
            tensor = [[list(zero) for _ in self.bases[b].basis] for _ in index]
            for i, row in enumerate(index):
                for j, constants in row.items():
                    for k, n in constants:
                        tensor[i][j][k] = Fraction(n, den)
            out[(a, b)] = tensor
        return out

    @property
    def generator_monomial(self) -> Monomial:
        """The basis monomial of R0(f)_{m beta}."""
        return self.r0_piece.basis[0]

    @property
    def sign(self) -> int:
        return -((-1) ** (self.m * (self.m - 1) // 2))

    def dims(self) -> list[int]:
        return [piece.dim for piece in self.bases]

    def products(self, a: int, b: int) -> tuple[Rows, int]:
        """(rows, den) for degrees with a+b < m: rows[i].get(j, []) is the
        list of nonzero (k, n) of basis[a][i] * basis[b][j], whose constants
        are n / den.  The rows are the (a, b) nonzero index itself when
        a <= b, and the (b, a) index transposed otherwise; the caller must
        not modify them."""
        if a <= b:
            return self.nonzero[(a, b)], self.denominators[(a, b)]
        rows: Rows = [{} for _ in self.bases[a].basis]
        for j, row in enumerate(self.nonzero[(b, a)]):
            for i, entries in row.items():
                rows[i][j] = entries
        return rows, self.denominators[(b, a)]

    def product_coords(
        self, a: int, u: Sequence[Fraction], b: int, v: Sequence[Fraction]
    ) -> list[Fraction]:
        """Coordinates of [u][v] in degree a+b; zero vector when a+b >= m."""
        if a + b >= self.m:
            return []
        if a > b:
            a, b, u, v = b, a, v, u
        index = self.nonzero[(a, b)]
        du, u = linalg.clear_denominators(dict(enumerate(u)))
        dv, v = linalg.clear_denominators(dict(enumerate(v)))
        out = [0] * self.bases[a + b].dim
        for i, ci in u.items():
            for j, entries in index[i].items():
                if cj := v.get(j):
                    w = ci * cj
                    for k, ck in entries:
                        out[k] += w * ck
        den = du * dv * self.denominators[(a, b)]
        return [Fraction(x, den) for x in out]


def toric_jacobian(system: JacobianSystem) -> GradedPolynomial:
    """J^Delta = det[theta_j theta_i f]_{i,j=0..m} / (z_1...z_r), the toric
    Jacobian of f, theta_1 f, ..., theta_m f (Cattani, Cox & Dickenstein,
    Compositio Math. 108, 1997), where theta_0 = 1 and theta_j = sum_rho
    <e_j, v_rho> z_rho d/dz_rho.  It lies in S_{m beta}.

    theta_j z^t = l_j(t) z^t with l_j(t) = sum_rho (v_rho)_j t_rho and
    l_0 = 1, so entry (i, j) is f with each coefficient c_t multiplied by
    l_i(t) l_j(t).  The determinant is expanded by Laplace along the rows,
    memoized on the set of unused columns, on integer code dicts once f's
    denominators are cleared, and divided by their lcm to the m+1 at the
    end.  Codes never carry: a product of at most m+1 terms of f has every
    exponent at most m+1 times the largest exponent of f, below radix.  A
    term that z_1...z_r does not divide keeps a negative exponent, which
    ``normal_form`` refuses with ``DegreeMismatch``."""
    m, rays = system.m, system.fan.rays
    den, numerators = linalg.clear_denominators(system.f.terms)
    radix = 1 + (m + 1) * max(map(max, system.f.terms))
    terms = [
        (monomial_code(t, radix), x, (1, *(sum(map(mul, col, t)) for col in zip(*rays))))
        for t, x in numerators.items()
    ]
    entries = [
        [
            {code: x * ell[i] * ell[j] for code, x, ell in terms if ell[i] * ell[j]}
            for j in range(m + 1)
        ]
        for i in range(m + 1)
    ]
    cache: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}

    def minor(cols: tuple[int, ...]) -> dict[int, int]:
        """det of the rows m+1-len(cols) .. m and the columns ``cols``."""
        got = cache.get(cols)
        if got is not None:
            return got
        row = entries[m + 1 - len(cols)]
        acc: dict[int, int] = {}
        for k, col in enumerate(cols):
            if not row[col]:
                continue
            rest = minor(cols[:k] + cols[k + 1 :])
            sign = -1 if k % 2 else 1
            for c1, x1 in row[col].items():
                x1 *= sign
                for c2, x2 in rest.items():
                    acc[c1 + c2] = acc.get(c1 + c2, 0) + x1 * x2
        cache[cols] = acc = {code: x for code, x in acc.items() if x}
        return acc

    scale = den ** (m + 1)
    out = {}
    for code, x in minor(tuple(range(m + 1))).items():
        mono = []
        for _ in system.variables:
            code, e = divmod(code, radix)
            mono.append(e - 1)
        out[tuple(mono)] = Fraction(x, scale)
    return GradedPolynomial._unchecked(system.variables, out)


def build_algebra(system: JacobianSystem) -> FrobeniusAlgebraData:
    """Assemble A(f).  Raises ``HypothesisFailed`` on the first failing
    check of ``jacobian.HYPOTHESES``.  R(f)_{m beta} = 0, decided by
    ``macaulay_dim`` from lambda and one relation row with no piece of J at
    m beta built, certifies R(f)_{p beta} = 0 for every product degree
    p = m .. 2m-2 (``zero_sums_checked``) with no piece above m beta
    built.  The trace is normalized by lambda(J^Delta) = sign * m!Vol (see
    the module docstring); ``ToricJacobianZero`` if J^Delta reduces to 0
    in R0(f)_{m beta}.

    The monomials of S_{p beta} are the z^(<u, v_rho> + p) over the lattice
    points u of p Delta, Delta the anti-canonical polytope, and products
    are sums of points.  A lattice polytope satisfies (c+1) Delta = c Delta
    + Delta on lattice points for c >= m-1 (Bruns, Gubeladze & Trung,
    J. reine angew. Math. 485, 1997): triangulate Delta into empty lattice
    simplices sigma, with vertices v_0..v_m, and let x in (c+1) sigma have
    barycentric weights lambda_i.  If every lambda_i < 1, then x lies in the
    fundamental parallelepiped of the cone over sigma at height c+1 >= m,
    and its reflection sum_i v_i - x, with weights 1 - lambda_i > 0 summing
    to m-c <= 1, is a lattice point of sigma that is not a vertex, which
    emptiness forbids.  So x - v_i lies in c sigma for some i, and by
    induction S_{p beta} = S_{m beta} S_{(p-m) beta}, inside J once
    S_{m beta} is.  The hypothesis that Delta has integral vertices is
    checked by ``anticanonical_polytope``, which raises otherwise."""
    m = system.m
    for name, _, check in jacobian.HYPOTHESES:
        record = check(system)
        if not record.ok:
            raise HypothesisFailed(name, record)
    volume = normalized_volume(anticanonical_polytope(system.fan))

    bases = [
        graded_piece(system, IDEAL_J, system.grading.scaled_beta(a))
        for a in range(m)
    ]
    r0_piece = graded_piece(system, IDEAL_J0, system.grading.scaled_beta(m))

    nonzero: NonzeroIndex = {}
    denominators: dict[tuple[int, int], int] = {}
    for a in range(m):
        for b in range(a, m - a):
            target = bases[a + b]
            index, table = target.column_index(), target.remainders()
            # the remainder of each nonzero product, then its numerators over
            # the lcm of the denominators of all of them
            rows, dens = [], set()
            for mono_i in bases[a].basis:
                row = {}
                for j, mono_j in enumerate(bases[b].basis):
                    rem = table[index[tuple(map(add, mono_i, mono_j))]]
                    if rem:
                        row[j] = rem
                        dens.update(c.denominator for c in rem.values())
                rows.append(row)
            den = lcm(*dens)
            for row in rows:
                for j, rem in row.items():
                    row[j] = [
                        (k, rem[k].numerator * (den // rem[k].denominator))
                        for k in sorted(rem)
                    ]
            nonzero[(a, b)] = rows
            denominators[(a, b)] = den

    generator_coord = normal_form(toric_jacobian(system), r0_piece)[0]
    if not generator_coord:
        raise ToricJacobianZero("the toric Jacobian reduces to 0 in R0(f)_{m beta}")

    algebra = FrobeniusAlgebraData(
        system=system,
        m=m,
        volume=volume,
        bases=bases,
        nonzero=nonzero,
        denominators=denominators,
        r0_piece=r0_piece,
        generator_coord=generator_coord,
        zero_sums_checked=list(range(m, 2 * m - 1)),
        trace_functional=(1, 1, {}),
    )
    # Tr(y) = lambda(z) for y = z / (z_1...z_r), over the z of S_{m beta}
    # with no zero exponent and a nonzero remainder
    scale = Fraction(algebra.sign * volume) / generator_coord
    radix = 1 + max(map(max, bases[m - 1].monomials))
    values = {
        monomial_code(tuple(e - 1 for e in z), radix): scale * remainder[0]
        for z, remainder in zip(r0_piece.monomials, r0_piece.remainders())
        if remainder and min(z)
    }
    den, table = linalg.clear_denominators(values)
    algebra.trace_functional = (den, radix, table)
    return algebra


def trace(U: Sequence[Fraction], D: FrobeniusAlgebraData) -> Fraction:
    """Trace of a socle class given by coordinates in the degree-(m-1) basis."""
    socle = D.bases[D.m - 1]
    if len(U) != socle.dim:
        raise DegreeMismatch(
            f"expected {socle.dim} socle coordinates, got {len(U)}"
        )
    return _evaluate_trace(zip(socle.basis, map(Fraction, U)), D)


def trace_of_polynomial(p: GradedPolynomial, D: FrobeniusAlgebraData) -> Fraction:
    """Trace of a degree-(m-1)beta polynomial read off the trace table at its
    monomials: an independent path that never touches the structure constants."""
    return _evaluate_trace(p.terms.items(), D)


def _evaluate_trace(terms, D: FrobeniusAlgebraData) -> Fraction:
    """sum of coeff * Tr(y) over (monomial y, coefficient) pairs, read from
    the trace table with default 0 once y is known to lie in S_{(m-1) beta}:
    a monomial of any other class-group degree is refused."""
    den, radix, table = D.trace_functional
    grading = D.system.grading
    degree = grading.scaled_beta(D.m - 1)
    total = 0
    for mono, coeff in terms:
        if grading.monomial_degree(mono) != degree:
            raise DegreeMismatch(f"monomial {mono} does not lie in the degree-{degree} piece")
        total += coeff * table.get(monomial_code(mono, radix), 0)
    return Fraction(total, den)


def pairing_gram(
    D: FrobeniusAlgebraData, a: int, numerators: tuple[list[list[int]], int] | None = None
) -> list[list[Fraction]]:
    """Gram matrix G_a: traces of products of degree-a and degree-(m-1-a)
    basis elements, sum_k n_k tau_k / den over the nonzero constants
    n_k / den of each product, where tau_k is the trace of the k-th
    degree-(m-1) basis element, read as the int t_den * tau_k from the
    trace table.  ``numerators``, ``gram_numerators(D, a)`` when the caller
    has built it, is read instead of being built again."""
    if not 0 <= a <= D.m - 1:
        raise DegreeMismatch(f"degree {a} outside 0..{D.m - 1}")
    numerators, den = numerators or gram_numerators(D, a)
    den *= D.trace_functional[0]
    return [[Fraction(x, den) for x in row] for row in numerators]


def gram_numerators(D: FrobeniusAlgebraData, a: int) -> tuple[list[list[int]], int]:
    """(G, d) with G_a = G / (d * t_den): G[i][j] is the int sum of
    n_k * t_den * tau_k over the nonzero constants n_k / d of
    basis[a][i] * basis[m-1-a][j], t_den the trace table's denominator."""
    _, radix, table = D.trace_functional
    tau = [table.get(monomial_code(mono, radix), 0) for mono in D.bases[D.m - 1].basis]
    rows, den = D.products(a, D.m - 1 - a)
    gram = [[0] * D.bases[D.m - 1 - a].dim for _ in rows]
    for g, row in zip(gram, rows):
        for j, entries in row.items():
            g[j] = sum(n * tau[k] for k, n in entries)
    return gram, den


def mul_twisted(
    a: int,
    u: Sequence[Fraction],
    b: int,
    v: Sequence[Fraction],
    D: FrobeniusAlgebraData,
) -> list[Fraction]:
    """(-1)^b times the product coordinates; defined for a + b = m - 1."""
    if a + b != D.m - 1:
        raise DegreeMismatch(f"degrees {a} + {b} != {D.m - 1}")
    sign = (-1) ** b
    return [sign * c for c in D.product_coords(a, u, b, v)]


AXIOMS = ("unit", "invariance", "nondegeneracy")


@dataclass
class AxiomReport:
    """The records of the axioms named in ``AXIOMS``, each ``checked``
    counting the cases it compared, and the rank of each Gram matrix G_a,
    a = 0..m-1, that the nondegeneracy record certifies."""

    unit: CheckResult
    invariance: CheckResult
    nondegeneracy: CheckResult
    gram_ranks: list[int]

    @property
    def all_pass(self) -> bool:
        return all(getattr(self, name).ok for name in AXIOMS)


def frobenius_axiom_check(D: FrobeniusAlgebraData, grams: list | None = None) -> AxiomReport:
    """Certify the Frobenius axioms on D, each exactly.

    Unit is exact over all stored structure constants.  Invariance compares
    the structure-constant trace <u*v, w> with a direct trace that never
    reads the structure constants on every basis triple with a+b+c = m-1.
    Nondegeneracy is exact full rank of every Gram matrix G_a, of shape
    dims[a] x dims[m-1-a], ranked on the numerators that invariance reads,
    built once per degree: a nonzero multiple of G_a.  ``grams``, the
    ``gram_numerators`` of every degree a = 0..m-1 when the caller has
    built them, is read instead of being built again.  Commutativity and
    associativity have no check: once these three pass, every stored
    constant is R(f)'s, so the product is commutative and associative, and
    <u*v, w> alone covers <u, v*w> (the lemma of ``_check_invariance``).
    """
    if grams is None:
        grams = [gram_numerators(D, a) for a in range(D.m)]
    ranks = [linalg.rank_rational(gram) for gram, _ in grams]
    unit, inv = _check_unit(D), _check_invariance(D, grams)
    return AxiomReport(unit, inv, _check_nondegeneracy(D.dims(), ranks), ranks)


def _check_unit(D: FrobeniusAlgebraData) -> CheckResult:
    """1 * basis[b][j] = basis[b][j]: its one nonzero numerator, over the
    pair's denominator den, is den at j; the witness prints numerators."""
    checked = 0
    for b in range(D.m):
        rows, den = D.products(0, b)
        for j in range(D.bases[b].dim):
            checked += 1
            got, want = rows[0].get(j, []), [(j, den)]
            if got != want:
                return CheckResult(
                    False, checked, f"1 * basis[{b}][{j}] = {got}, expected {want}"
                )
    return CheckResult(True, checked)


def _check_invariance(D: FrobeniusAlgebraData, grams: list) -> CheckResult:
    """<u*v, w> = <u, v*w> on every basis triple of every degree triple
    with a+b+c = m-1: the sides are trilinear forms, so agreeing on a basis
    they agree everywhere, and the check is exact and draws no random
    number.  <e_i e_j, e_k>, an int numerator over den times its product
    denominators, is compared with the direct trace of z^i z^j z^k, one
    lookup of den * Tr with default 0 that never reads the structure
    constants.  The (a+b, c) products are contracted with den * tau once,
    into the Gram numerators grams[a+b] of ``gram_numerators``, and per
    (i, j) e_i e_j is read once, so this side costs the nonzero products
    reached; ``checked`` counts every basis triple in i, j, k order up to
    the first failing one.

    Commutativity has no check of its own: it cannot fail once this check
    and nondegeneracy pass.  For a = b, the basis triples (i, j, k) and
    (j, i, k) compare <e_i e_j, e_k> and <e_j e_i, e_k> with the same direct
    trace, so e_i e_j - e_j e_i lies in the left kernel of the stored G_2a,
    which ``_check_nondegeneracy`` proves zero (2a <= m-1).  For a != b,
    ``products(b, a)`` is the (a, b) index transposed.  Nor does
    <e_i, e_j e_k> need a comparison: it reads e_i e_mid where
    <e_j e_k, e_i>, checked at the rotated triple (b, c, a), reads
    e_mid e_i, the same stored entry when a != b+c, and when a = b+c the
    transposed (a, a) entry, equal by the symmetry just proven.

    Nor has associativity a check: it cannot fail once unit, invariance
    and nondegeneracy pass, which is why none is made.  The trace
    T(y) = lambda(z_1...z_r * y) vanishes on J(f)_{(m-1) beta}, as
    z_1...z_r * J(f) lies in J0(f).  The basis spans R(f)_{a beta}, so
    z^i z^j = sum_mid c*_ij^mid z^mid modulo J(f), R(f)'s constants c*.
    At (d, 0, m-1-d), <e_i * 1, e_k> reads the unit's products, pinned by
    the unit check, so the stored G_d is R(f)'s Gram matrix T(z^i z^k).
    At every degree triple this check then gives (c - c*) G_(a+b) = 0 for
    the stored constants c, and G_(a+b) is nonsingular, so c = c*: every
    stored product is R(f)'s, which is commutative and associative."""
    m = D.m
    den, radix, table = D.trace_functional
    codes = [[monomial_code(mono, radix) for mono in p.basis] for p in D.bases]
    checked = 0
    for a, b, c in [(a, b, m - 1 - a - b) for a in range(m) for b in range(m - a)]:
        ab, d_ab = D.products(a, b)
        gram, d_ab_c = grams[a + b]
        lhs_den = d_ab * d_ab_c
        zero = [0] * len(codes[c])
        for i, code_i in enumerate(codes[a]):
            row = ab[i]
            for j, code_j in enumerate(codes[b]):
                lhs = zero
                for mid, x in row.get(j, ()):
                    lhs = [s + x * g for s, g in zip(lhs, gram[mid])]
                code = code_i + code_j
                # the direct traces, as numerators over the same denominator
                direct = [table.get(code + code_k, 0) * lhs_den for code_k in codes[c]]
                if lhs == direct:
                    checked += len(direct)
                    continue
                k = next(k for k, t in enumerate(direct) if lhs[k] != t)
                return CheckResult(
                    False,
                    checked + k + 1,
                    f"(a,i,b,j,c,k) = {(a, i, b, j, c, k)}: "
                    f"{Fraction(lhs[k], lhs_den * den)} vs direct "
                    f"{Fraction(direct[k], lhs_den * den)}",
                )
    return CheckResult(True, checked)


def _check_nondegeneracy(dims, ranks) -> CheckResult:
    """G_a, of shape dims[a] x dims[m-1-a], is square of full rank."""
    checked = 0
    for a, rank in enumerate(ranks):
        rows, cols = dims[a], dims[-1 - a]
        checked += 1
        if rows != cols:
            return CheckResult(
                False, checked, f"G_{a} is {rows}x{cols}, not square"
            )
        if rank != rows:
            return CheckResult(False, checked, f"G_{a} is singular")
    return CheckResult(True, checked)
