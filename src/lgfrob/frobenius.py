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
``product_coords`` and the associativity check iterate that index, so their
cost is the number of nonzero constants reached, not dim_a * dim_b *
dim_(a+b), and every multiply-add is an ``int`` one: a product clears the
denominators of its two coordinate vectors once, accumulates numerators and
forms one ``Fraction`` per output coordinate.  Associativity compares
cross-multiplied ``int`` sums.  A Gram entry G_a[i][j] is
sum_k n_k tau_k / den over the index, where tau_k is the trace of the k-th
degree-(m-1) basis element, read once from the trace table.

The invariance check keeps an independent direct path that never reads the
structure constants.  When the axiom check is exhaustive, the direct trace
of a basis triple z^i z^j z^k is one lookup of den * Tr at the sum of three
codes.  When it is sampled, the direct path multiplies the lifts of its
integer sample vectors as polynomials with Python ``int`` coefficients
(lifted basis monomials have coefficient 1) and dots the result with
den * Tr, so one ``Fraction`` is formed per trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from typing import Callable, Sequence

from . import linalg
from .errors import (
    DegreeMismatch, MacaulayNotVanishing, SocleNotOneDimensional, ToricJacobianZero
)
from .jacobian import (
    IDEAL_J,
    IDEAL_J0,
    JacobianSystem,
    QuotientBasis,
    graded_piece,
    macaulay_dim,
    normal_form,
    socle_certificates,
)
from .poly import GradedPolynomial, Monomial, monomial_code
from .toric import CheckResult, anticanonical_polytope, normalized_volume


def _cleared(coords: Sequence[int | Fraction]) -> tuple[Sequence[int], int]:
    """(numerators, den): den is the lcm of the denominators of ``coords``
    and numerators[i] = coords[i] * den, an int.  A list of ints is
    returned as it is."""
    for c in coords:
        if type(c) is not int:
            break
    else:
        return coords, 1
    numerators = [c.numerator for c in coords if c.denominator == 1]
    if len(numerators) == len(coords):
        return numerators, 1
    den = lcm(*{c.denominator for c in coords})
    return [c.numerator * (den // c.denominator) for c in coords], den


# (a, b) -> i -> {j: [(k, n), ...]} over the nonzero constants c, k
# ascending, each n = c * denominators[(a, b)] an int; a j with no nonzero
# c has no entry
NonzeroIndex = dict[tuple[int, int], list[dict[int, list[tuple[int, int]]]]]
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

    def products(
        self, a: int, b: int
    ) -> tuple[Callable[[int, int], list[tuple[int, int]]], int]:
        """(lookup, den) for degrees with a+b < m: lookup(i, j) is the list
        of nonzero (k, n) of basis[a][i] * basis[b][j], read from the nonzero
        index, whose constants are n / den; the caller must not modify it."""
        if a <= b:
            index = self.nonzero[(a, b)]
            return (lambda i, j: index[i].get(j, [])), self.denominators[(a, b)]
        index = self.nonzero[(b, a)]
        return (lambda i, j: index[j].get(i, [])), self.denominators[(b, a)]

    def product_coords(
        self, a: int, u: Sequence[Fraction], b: int, v: Sequence[Fraction]
    ) -> list[Fraction]:
        """Coordinates of [u][v] in degree a+b; zero vector when a+b >= m."""
        if a + b >= self.m:
            return []
        if a > b:
            a, b, u, v = b, a, v, u
        index = self.nonzero[(a, b)]
        u, du = _cleared(u)
        v, dv = _cleared(v)
        out = [0] * self.bases[a + b].dim
        for i, ci in enumerate(u):
            if not ci:
                continue
            for j, entries in index[i].items():
                cj = v[j]
                if not cj:
                    continue
                w = ci * cj
                for k, ck in entries:
                    out[k] += w * ck
        den = du * dv * self.denominators[(a, b)]
        if den == 1:
            return [Fraction(x) for x in out]
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
    den = lcm(*(c.denominator for c in system.f.terms.values()))
    radix = 1 + (m + 1) * max(map(max, system.f.terms))
    terms = [
        (
            monomial_code(t, radix),
            c.numerator * (den // c.denominator),
            (1, *(sum(v[j] * e for v, e in zip(rays, t)) for j in range(m))),
        )
        for t, c in system.f.terms.items()
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
    """Assemble A(f).  Requires both socle certificates to be 1-dimensional
    and R(f)_{m beta} = 0, decided by ``macaulay_dim`` from lambda and one
    relation row with no piece of J at m beta built; it certifies
    R(f)_{p beta} = 0 for every product degree p = m .. 2m-2
    (``zero_sums_checked``) with no piece above m beta built.  The trace
    is normalized by lambda(J^Delta) = sign * m!Vol (see the module
    docstring); ``ToricJacobianZero`` if J^Delta reduces to 0 in
    R0(f)_{m beta}.

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
    socle = socle_certificates(system)
    if not socle.record.ok:
        raise SocleNotOneDimensional(socle.dim_r, socle.dim_r0)
    volume = normalized_volume(anticanonical_polytope(system.fan))
    top_dim = macaulay_dim(system)
    if top_dim != 0:
        raise MacaulayNotVanishing(m, top_dim)

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
    den = lcm(*(x.denominator for x in values.values()))
    table = {code: x.numerator * (den // x.denominator) for code, x in values.items()}
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


def pairing_gram(D: FrobeniusAlgebraData, a: int) -> list[list[Fraction]]:
    """Gram matrix G_a: traces of products of degree-a and degree-(m-1-a)
    basis elements, sum_k n_k tau_k / den over the nonzero constants
    n_k / den of each product, where tau_k is the trace of the k-th
    degree-(m-1) basis element, read as the int t_den * tau_k from the
    trace table."""
    if not 0 <= a <= D.m - 1:
        raise DegreeMismatch(f"degree {a} outside 0..{D.m - 1}")
    b = D.m - 1 - a
    t_den, radix, table = D.trace_functional
    tau = [table.get(monomial_code(mono, radix), 0) for mono in D.bases[D.m - 1].basis]
    lookup, den = D.products(a, b)
    den *= t_den
    cols = range(D.bases[b].dim)
    return [
        [Fraction(sum(n * tau[k] for k, n in lookup(i, j)), den) for j in cols]
        for i in range(D.bases[a].dim)
    ]


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


AXIOMS = ("unit", "commutativity", "associativity", "invariance", "nondegeneracy")


@dataclass
class AxiomReport:
    """The records of the axioms named in ``AXIOMS``, each ``checked``
    counting the cases it compared."""

    unit: CheckResult
    commutativity: CheckResult
    associativity: CheckResult
    invariance: CheckResult
    nondegeneracy: CheckResult
    sampled: bool = False
    seed: int | None = None

    @property
    def all_pass(self) -> bool:
        return all(getattr(self, name).ok for name in AXIOMS)


EXHAUSTIVE_TRIPLE_LIMIT = 10_000


def frobenius_axiom_check(
    D: FrobeniusAlgebraData,
    sample_seed: int = 0,
    sample_count: int = 200,
    gram_ranks: Sequence[int] | None = None,
) -> AxiomReport:
    """Certify the Frobenius axioms on D.

    Unit and commutativity are exact over all stored structure constants.
    Associativity runs over every basis triple when the triple count is at
    most 10^4, otherwise over ``sample_count`` seeded basis triples.
    Invariance compares both structure-constant traces <u*v, w> and
    <u, v*w> with a direct trace that never reads the structure constants.
    When associativity is exhaustive, so is invariance: it runs over every
    basis triple with a+b+c = m-1, a subset of associativity's, draws no
    random number and is exact, and with commutativity <u*v, w> alone
    covers <u, v*w> (see ``_check_invariance_on_basis``).  Otherwise it
    draws ``sample_count`` seeded random triples (u, v, w) of integer
    coordinate vectors with entries in [-3, 3].  Nondegeneracy is exact full
    rank of every Gram matrix G_a, of shape dims[a] x dims[m-1-a];
    ``gram_ranks``, when given, must be the rank of ``pairing_gram(D, a)``
    for a = 0..m-1 and is used instead of being computed again.
    """
    m = D.m
    dims = D.dims()

    unit = _check_unit(D)
    comm = _check_commutativity(D)

    triples = [
        (a, b, c)
        for a in range(m)
        for b in range(m)
        for c in range(m)
        if a + b + c <= m - 1
    ]
    total = sum(dims[a] * dims[b] * dims[c] for a, b, c in triples)
    sampled = total > EXHAUSTIVE_TRIPLE_LIMIT
    rng = random.Random(sample_seed)

    assoc = _check_associativity(D, triples, sampled, rng, sample_count)
    inv = _check_invariance(D, sampled, rng, sample_count)
    if gram_ranks is None:
        gram_ranks = [linalg.rank_rational(pairing_gram(D, a)) for a in range(m)]
    nondeg = _check_nondegeneracy(dims, gram_ranks)

    return AxiomReport(unit, comm, assoc, inv, nondeg, sampled, sample_seed)


def _check_unit(D: FrobeniusAlgebraData) -> CheckResult:
    """1 * basis[b][j] = basis[b][j]: its one nonzero numerator, over the
    pair's denominator den, is den at j; the witness prints numerators."""
    checked = 0
    for b in range(D.m):
        lookup, den = D.products(0, b)
        for j in range(D.bases[b].dim):
            checked += 1
            got, want = lookup(0, j), [(j, den)]
            if got != want:
                return CheckResult(
                    False, checked, f"1 * basis[{b}][{j}] = {got}, expected {want}"
                )
    return CheckResult(True, checked)


def _check_commutativity(D: FrobeniusAlgebraData) -> CheckResult:
    checked = 0
    for a in range(D.m):
        # the nonzero index of the (a, a) products
        index = D.nonzero.get((a, a))
        if index is None:
            continue
        n = D.bases[a].dim
        for i in range(n):
            for j in range(i + 1, n):
                checked += 1
                if index[i].get(j) != index[j].get(i):
                    return CheckResult(
                        False,
                        checked,
                        f"degree {a}: basis[{i}]*basis[{j}] != basis[{j}]*basis[{i}]",
                    )
    return CheckResult(True, checked)


def _check_associativity(D, triples, sampled, rng, sample_count) -> CheckResult:
    dims = D.dims()

    def collect(pairs, scale) -> dict[int, int]:
        out: dict[int, int] = {}
        for n, y in pairs:
            out[n] = out.get(n, 0) + y
        return {n: y * scale for n, y in out.items() if y}

    def check(a, b, c):
        """(i, j, k) -> whether (e_i e_j) e_k = e_i (e_j e_k) for the basis
        elements of degrees a, b, c; a + b + c <= m - 1, so every partial
        product has degree below m."""
        ab, d_ab = D.products(a, b)
        ab_c, d_ab_c = D.products(a + b, c)
        bc, d_bc = D.products(b, c)
        a_bc, d_a_bc = D.products(a, b + c)
        # the sides have denominators d_ab d_ab_c and d_bc d_a_bc, so each
        # side's numerators are scaled by the other side's denominator
        lhs_scale, rhs_scale = d_bc * d_a_bc, d_ab * d_ab_c

        def one(i, j, k):
            lhs = collect(
                ((n, x * y) for mid, x in ab(i, j) for n, y in ab_c(mid, k)),
                lhs_scale,
            )
            rhs = collect(
                ((n, x * y) for mid, x in bc(j, k) for n, y in a_bc(i, mid)),
                rhs_scale,
            )
            return lhs == rhs

        return one

    checked = 0
    if not sampled:
        for a, b, c in triples:
            one = check(a, b, c)
            for i in range(dims[a]):
                for j in range(dims[b]):
                    for k in range(dims[c]):
                        checked += 1
                        if not one(i, j, k):
                            return CheckResult(
                                False, checked, f"(a,i,b,j,c,k) = {(a, i, b, j, c, k)}"
                            )
        return CheckResult(True, checked)

    usable = [t for t in triples if dims[t[0]] and dims[t[1]] and dims[t[2]]]
    checks = {t: check(*t) for t in usable}
    for _ in range(sample_count):
        a, b, c = usable[rng.randrange(len(usable))]
        i = rng.randrange(dims[a])
        j = rng.randrange(dims[b])
        k = rng.randrange(dims[c])
        checked += 1
        if not checks[(a, b, c)](i, j, k):
            return CheckResult(False, checked, f"(a,i,b,j,c,k) = {(a, i, b, j, c, k)}")
    return CheckResult(True, checked)


def _check_invariance(D, sampled, rng, sample_count) -> CheckResult:
    """<u*v, w> = <u, v*w>, recomputed against the direct trace of the
    triple product.  Unless ``sampled``, on every basis triple of every
    degree triple with a+b+c = m-1: the sides are trilinear forms, so
    agreeing on a basis they agree everywhere, and the check is exact.
    Otherwise on ``sample_count`` seeded random integer triples, the direct
    trace taken of the lifted triple-product polynomial."""
    m = D.m
    dims = D.dims()
    degree_triples = [
        (a, b, c)
        for a in range(m)
        for b in range(m)
        for c in range(m)
        if a + b + c == m - 1 and dims[a] and dims[b] and dims[c]
    ]
    if not degree_triples:
        return CheckResult(True, 0)
    if not sampled:
        return _check_invariance_on_basis(D, degree_triples)

    def random_vector(n):
        return [rng.randint(-3, 3) for _ in range(n)]

    checked = 0
    for _ in range(sample_count):
        a, b, c = degree_triples[rng.randrange(len(degree_triples))]
        u = random_vector(dims[a])
        v = random_vector(dims[b])
        w = random_vector(dims[c])
        lhs = trace(D.product_coords(a + b, D.product_coords(a, u, b, v), c, w), D)
        rhs = trace(D.product_coords(a, u, b + c, D.product_coords(b, v, c, w)), D)
        direct = direct_trace(D, ((a, u), (b, v), (c, w)))
        checked += 1
        if not (lhs == rhs == direct):
            return CheckResult(
                False, checked, f"degrees {(a, b, c)}: {lhs} vs {rhs} vs direct {direct}"
            )
    return CheckResult(True, checked)


def _check_invariance_on_basis(D, degree_triples) -> CheckResult:
    """<e_i e_j, e_k>, from the nonzero index and the traces tau_n of the
    degree-(m-1) basis, as an int numerator over den times its product
    denominators, against the direct trace of z^i z^j z^k, one lookup of
    den * Tr with default 0.  <e_i, e_j e_k> needs no comparison of its
    own: it reads the stored entries that <e_j e_k, e_i> reads at the
    rotated triple (b, c, a), also checked here, as ``products(x, y)`` with
    x > y reads the (y, x) index transposed; when a = b+c, those are the
    transposed (a, a) entries that ``_check_commutativity`` compares."""
    den, radix, table = D.trace_functional
    codes = [[monomial_code(mono, radix) for mono in p.basis] for p in D.bases]
    tau = [table.get(code, 0) for code in codes[D.m - 1]]  # den * tau_n
    checked = 0
    for a, b, c in degree_triples:
        ab, d_ab = D.products(a, b)
        ab_c, d_ab_c = D.products(a + b, c)
        lhs_den = d_ab * d_ab_c
        for i, code_i in enumerate(codes[a]):
            for j, code_j in enumerate(codes[b]):
                for k, code_k in enumerate(codes[c]):
                    checked += 1
                    lhs = sum(
                        x * y * tau[n] for mid, x in ab(i, j) for n, y in ab_c(mid, k)
                    )
                    direct = table.get(code_i + code_j + code_k, 0)
                    if lhs != direct * lhs_den:
                        return CheckResult(
                            False,
                            checked,
                            f"(a,i,b,j,c,k) = {(a, i, b, j, c, k)}: "
                            f"{Fraction(lhs, lhs_den * den)} vs direct "
                            f"{Fraction(direct, den)}",
                        )
    return CheckResult(True, checked)


def direct_trace(
    D: FrobeniusAlgebraData, factors: Sequence[tuple[int, Sequence[int]]]
) -> Fraction:
    """Trace of the product of the lifts of integer coordinate vectors
    ``factors`` = [(degree, coords), ...] whose degrees sum to m-1: int
    polynomial multiplication on codes from 0, the code of 1, then one lookup
    per product monomial.  Never reads the structure constants."""
    den, radix, table = D.trace_functional
    product = {0: 1}
    for degree, coords in factors:
        step: dict[int, int] = {}
        for mono, coeff in zip(D.bases[degree].basis, coords):
            if not coeff:
                continue
            code = monomial_code(mono, radix)
            for left, x in product.items():
                key = left + code
                step[key] = step.get(key, 0) + x * coeff
        product = step
    total = sum(x * table.get(key, 0) for key, x in product.items())
    return Fraction(total, den)


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
