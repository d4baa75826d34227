"""Algebra assembly, trace normalization, pairing and the axiom suite."""

import dataclasses
import functools
import math
import random
from fractions import Fraction
from operator import add, sub

import pytest
from reference import hessian_determinant, lift

from lgfrob import frobenius as frob
from lgfrob import jacobian as jac
from lgfrob.errors import (
    DegreeMismatch,
    MacaulayNotVanishing,
    NotReflexivePipeline,
    SocleNotOneDimensional,
)
from lgfrob.fixtures import fixture_names, get_fixture
from lgfrob.poly import GradedPolynomial, monomial_code, parse_polynomial
from lgfrob.report import parse_run_config, run_report
from lgfrob.toric import anticanonical_polytope, class_group, monomial_basis


def make_system(name):
    fx = get_fixture(name)
    grading = class_group(fx.fan)
    return jac.jacobian_system(fx.fan, grading, fx.polynomial)


@pytest.fixture(scope="module")
def cubic_algebra():
    return frob.build_algebra(make_system("projective-3"))


@pytest.fixture(scope="module")
def quartic_algebra():
    return frob.build_algebra(make_system("projective-4"))


@pytest.fixture(scope="module")
def bundle_algebra():
    return frob.build_algebra(make_system("bundle-p2"))


class TestBuild:
    def test_cubic_layout(self, cubic_algebra):
        D = cubic_algebra
        assert D.dims() == [1, 1]
        assert D.volume == 9
        assert D.bases[1].basis == [(1, 1, 1)]
        assert D.generator_monomial == (2, 2, 2)
        # the only product with a + b >= m was verified zero-dimensional
        assert D.zero_sums_checked == [2]

    def test_degenerate_rejected(self):
        with pytest.raises(SocleNotOneDimensional):
            frob.build_algebra(make_system("degenerate-cube"))

    def test_p1xp1_rejected(self):
        # socle dimension is forced to 2 on P^1 x P^1 (failed middle
        # cup-product hypothesis); the builder must refuse
        with pytest.raises(SocleNotOneDimensional):
            frob.build_algebra(make_system("p1xp1"))

    def test_remainder_tables_only_for_the_pieces_the_algebra_reads(self):
        """dims-only pieces never build a remainder table; the algebra
        builds one for each basis piece and for R0(f)_{m beta}, not for
        the pieces of degree a+b >= m it checks to vanish."""
        system = make_system("bundle-p2")
        m = system.m
        for a in range(m + 2):
            jac.dim_R(system, a)
        assert system._pieces
        assert all(p._remainders is None for p in system._pieces.values())
        frob.build_algebra(system)
        beta = system.grading.scaled_beta
        tabled = {k for k, p in system._pieces.items() if p._remainders is not None}
        assert tabled == {(jac.IDEAL_J, beta(a)) for a in range(m)} | {
            (jac.IDEAL_J0, beta(m))
        }
        assert len(system._pieces) > len(tabled)


class TestTrace:
    def test_cubic_generic_value(self, cubic_algebra):
        """On the Fermat cubic J^Delta = 3^6 (z_0 z_1 z_2)^2 (see
        ``TestToricJacobian``), so Tr(z_0 z_1 z_2) = sign * m!Vol / 729 =
        9/729."""
        assert frob.trace([Fraction(1)], cubic_algebra) == Fraction(1, 81)

    def test_linearity_and_zero(self, cubic_algebra):
        assert frob.trace([Fraction(0)], cubic_algebra) == 0
        assert frob.trace([Fraction(-2, 3)], cubic_algebra) == Fraction(-2, 243)

    def test_sign_convention(self, cubic_algebra, quartic_algebra, bundle_algebra):
        # -(-1)^(m(m-1)/2): +1 for m = 2 and 3, -1 for m = 4 and 5
        assert cubic_algebra.sign == 1
        assert quartic_algebra.sign == 1
        assert bundle_algebra.sign == 1
        for m, expected in ((2, 1), (3, 1), (4, -1), (5, -1), (7, 1)):
            assert -((-1) ** (m * (m - 1) // 2)) == expected

    # The Hessian normalization of the trace on P^m (Candelas, de la Ossa,
    # Green & Parkes) puts sign * m!Vol at z_1...z_r * Hess instead of at
    # J^Delta.  On the Fermat potentials J^Delta / (z_1...z_r * Hess) =
    # d^d / (d-1)^d (see ``TestToricJacobian``), so the trace is
    # (d-1)^d / d^d times the Hessian one on every class.

    def test_strategy_proportionality_cubic(self, cubic_algebra):
        """The toric Jacobian and the Hessian traces differ by the one
        factor (2/3)^3 on every class."""
        rng = random.Random(7)
        for _ in range(10):
            u = [Fraction(rng.randint(-5, 5))]
            assert frob.trace(u, cubic_algebra) == Fraction(8, 27) * hessian_trace(
                lift(cubic_algebra, 1, u), cubic_algebra
            )

    def test_strategy_proportionality_quintic_socle(self):
        D = pencil_algebra(5, Fraction(0))
        a = frob.trace([Fraction(1)], D)
        b = hessian_trace(lift(D, 3, [1]), D)
        assert a != 0 and b != 0
        assert a / b == Fraction(4**5, 5**5)

    def test_gram_proportionality_across_degrees(self, quartic_algebra):
        """The ratio (3/4)^4 is one global factor shared by every degree:
        each Gram entry against the Hessian trace of the lifted product."""
        D = quartic_algebra
        for a in range(D.m):
            gram = frob.pairing_gram(D, a)
            for i, mono_i in enumerate(D.bases[a].basis):
                for j, mono_j in enumerate(D.bases[D.m - 1 - a].basis):
                    product = GradedPolynomial.monomial(
                        D.system.variables, tuple(map(add, mono_i, mono_j))
                    )
                    assert gram[i][j] == Fraction(81, 256) * hessian_trace(product, D)

    def test_wrong_coordinate_count(self, cubic_algebra):
        with pytest.raises(DegreeMismatch):
            frob.trace([Fraction(1), Fraction(2)], cubic_algebra)


PENCIL_POINTS = [Fraction(0), Fraction(1, 2), Fraction(2), Fraction(1, 3), Fraction(3, 2)]


@functools.cache
def pencil_algebra(d: int, psi: Fraction):
    """A(f_psi) of the Fermat pencil f_psi = sum_i z_i^d - d psi z_0...z_m on
    the fan of P^m, m = d-1; psi = 0 is the projective-d fixture."""
    fx = get_fixture(f"projective-{d}")
    terms = {tuple(d * (j == i) for j in range(d)): 1 for i in range(d)}
    terms[(1,) * d] = -d * psi
    f = GradedPolynomial(fx.variables, terms)
    return frob.build_algebra(jac.jacobian_system(fx.fan, class_group(fx.fan), f))


class TestToricJacobian:
    @pytest.mark.parametrize("psi", PENCIL_POINTS, ids=str)
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_fermat_pencil_closed_form(self, d, psi):
        """Tr(P^(m-1)) = sign / (d^(d+1) (1 - psi^d)) for P = z_0...z_m.

        The terms of f_psi are t_i = d e_i, with l(t_i) = (1, d v_i), and P,
        with l(P) = (1, 0, ..., 0), since the rays of P^m sum to 0.  So the
        matrix of J^Delta is L^T diag(z_i^d) L - d psi P E_00, where L has
        the rows (1, d v_i) and det L = d^m det[1 | v] = +-d^m * d = +-d^d.
        Its determinant is det(L)^2 prod z_i^d - d psi P C, where C is the
        (0, 0) minor of L^T diag(z_i^d) L, which is d^(2m) sum_k
        prod_{i != k} z_i^d by Cauchy-Binet, as any m rays of P^m have
        determinant +-1.  Dividing by z_0...z_m = P,
        J^Delta = d^(2d) prod z_i^(d-1) - psi d^(2m+1) sum_k prod_{i != k} z_i^d,
        and at psi = 0 this is d^(2d) prod z_i^(d-1).  Modulo J0(f),
        z_k d f / d z_k = d z_k^d - d psi P gives z_k^d = psi P, so each
        prod_{i != k} z_i^d = psi^m P^m = psi^m prod z_i^(d-1), and with
        2m + 2 = 2d, J^Delta = d^(2d) (1 - psi^d) P^m.  The trace puts
        sign * m!Vol = sign * d^m at J^Delta, so Tr(P^(m-1)) = lambda(P^m) =
        sign d^m / (d^(2d) (1 - psi^d)).  The psi-dependence 1/(1 - psi^d)
        is the Yukawa coupling in the residue gauge (Candelas, de la Ossa,
        Green & Parkes, Nucl. Phys. B 359, 1991, for d = 5)."""
        D = pencil_algebra(d, psi)
        m = d - 1
        sign = -((-1) ** (m * (m - 1) // 2))
        p = GradedPolynomial.monomial(D.system.variables, (m - 1,) * d)
        want = Fraction(sign, d ** (d + 1)) / (1 - psi**d)
        assert frob.trace_of_polynomial(p, D) == want

    @pytest.mark.parametrize("psi", PENCIL_POINTS, ids=str)
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_hessian_coordinate_ratio(self, d, psi):
        """J^Delta / (z_0...z_m * Hess) = d^d / (d-1)^d in R0(f)_{m beta}.
        At psi = 0, Hess = prod_i d(d-1) z_i^(d-2), so z_0...z_m * Hess =
        d^d (d-1)^d prod z_i^(d-1), against J^Delta = d^(2d) prod z_i^(d-1);
        at every other point the ratio stays the same."""
        D = pencil_algebra(d, psi)
        hess = hessian_determinant(D.system).mul_monomial((1,) * d)
        ratio = D.generator_coord / jac.normal_form(hess, D.r0_piece)[0]
        assert ratio == Fraction(d**d, (d - 1) ** d)

    def test_vanishes_on_degenerate_cube(self):
        """f = x^3 has one term t, so the matrix is l(t) l(t)^T x^3, of rank
        1, and J^Delta is identically 0: a witness that f is degenerate that
        needs no piece of R0(f)."""
        assert frob.toric_jacobian(make_system("degenerate-cube")).is_zero()

    def test_term_outside_the_top_piece_refused(self, monkeypatch):
        """A term of the wrong degree, standing for one that z_1...z_r does
        not divide, is refused by ``normal_form``."""
        original = frob.toric_jacobian
        monkeypatch.setattr(
            frob, "toric_jacobian", lambda s: original(s).mul_monomial((1, 0, 0))
        )
        with pytest.raises(DegreeMismatch):
            frob.build_algebra(make_system("projective-3"))


class TestPairing:
    def test_cubic_gram(self, cubic_algebra):
        assert frob.pairing_gram(cubic_algebra, 0) == [[Fraction(1, 81)]]
        assert frob.pairing_gram(cubic_algebra, 1) == [[Fraction(1, 81)]]

    def test_transpose_symmetry(self, bundle_algebra):
        m = bundle_algebra.m
        for a in range(m):
            g = frob.pairing_gram(bundle_algebra, a)
            h = frob.pairing_gram(bundle_algebra, m - 1 - a)
            assert len(g) == len(h[0]) and len(g[0]) == len(h)
            for i in range(len(g)):
                for j in range(len(g[0])):
                    assert g[i][j] == h[j][i]

    def test_out_of_range(self, cubic_algebra):
        with pytest.raises(DegreeMismatch):
            frob.pairing_gram(cubic_algebra, 5)


class TestMulTwisted:
    def test_unit_times_socle(self, cubic_algebra):
        # m = 2: mul(1, v) = (-1)^1 v
        out = frob.mul_twisted(0, [Fraction(1)], 1, [Fraction(1)], cubic_algebra)
        assert out == [Fraction(-1)]

    def test_symmetry_law(self, bundle_algebra):
        """mul(u, v) = (-1)^(m-1) mul(v, u) on random socle-complementary
        pairs."""
        rng = random.Random(13)
        m = bundle_algebra.m
        dims = bundle_algebra.dims()
        for a in range(m):
            b = m - 1 - a
            for _ in range(5):
                u = [Fraction(rng.randint(-4, 4)) for _ in range(dims[a])]
                v = [Fraction(rng.randint(-4, 4)) for _ in range(dims[b])]
                lhs = frob.mul_twisted(a, u, b, v, bundle_algebra)
                rhs = frob.mul_twisted(b, v, a, u, bundle_algebra)
                sign = (-1) ** (m - 1)
                assert lhs == [sign * x for x in rhs]

    def test_degree_constraint(self, bundle_algebra):
        with pytest.raises(DegreeMismatch):
            frob.mul_twisted(0, [Fraction(1)], 0, [Fraction(1)], bundle_algebra)


class TestAxioms:
    @pytest.mark.parametrize("name", ["projective-3", "projective-4", "weighted-p112", "bundle-p2"])
    def test_all_axioms_pass(self, name):
        D = frob.build_algebra(make_system(name))
        report = frob.frobenius_axiom_check(D, sample_seed=0, sample_count=60)
        assert report.all_pass, report

    def test_exhaustive_mode_on_small_algebra(self, cubic_algebra):
        report = frob.frobenius_axiom_check(cubic_algebra, 0, 60)
        assert not report.sampled

    def test_seeded_reproducibility(self, bundle_algebra):
        r1 = frob.frobenius_axiom_check(bundle_algebra, 42, 40)
        r2 = frob.frobenius_axiom_check(bundle_algebra, 42, 40)
        assert r1 == r2

    def test_macaulay_consistency_products_vanish(self, bundle_algebra):
        """Every degree a+b >= m reachable from basis pairs was proved
        zero-dimensional during the build, so high products reduce to the
        zero vector rather than being skipped."""
        D = bundle_algebra
        m = D.m
        assert D.zero_sums_checked == sorted(
            {a + b for a in range(m) for b in range(m) if a + b >= m}
        )
        for a in range(m):
            for b in range(m):
                if a + b >= m:
                    piece = jac.graded_piece(
                        D.system, jac.IDEAL_J, D.system.grading.scaled_beta(a + b)
                    )
                    assert piece.dim == 0



def reduced_generator_coord(r0, row):
    """Generator coordinate of the sparse ``row`` of columns of R0(f)_{m beta}
    by ``EchelonBasis.reduce``, independently of the remainder table."""
    generator_col = r0.column_index()[r0.basis[0]]
    return r0.echelon.reduce(row).get(generator_col, Fraction(0))


def reduced_trace(p, D):
    """Trace of a degree-(m-1)beta polynomial by a full reduction of
    z_1...z_r * p in R0, as every trace was evaluated before the functional."""
    index = D.r0_piece.column_index()
    row = {index[tuple(e + 1 for e in mono)]: c for mono, c in p.terms.items()}
    c = reduced_generator_coord(D.r0_piece, row) / D.generator_coord
    return D.sign * c * D.volume


def hessian_trace(p, D):
    """Trace of a degree-(m-1)beta polynomial in the Hessian normalization,
    which puts sign * m!Vol at z_1...z_r * Hess (``reference``), by full
    reductions in R0."""
    index = D.r0_piece.column_index()
    hess = hessian_determinant(D.system).mul_monomial((1,) * len(D.system.variables))
    h = reduced_generator_coord(D.r0_piece, {index[mono]: c for mono, c in hess.terms.items()})
    return reduced_trace(p, D) * D.generator_coord / h


class TestTraceFunctional:
    CASES = [
        ("projective-3", "cubic_algebra"),
        ("projective-4", "quartic_algebra"),
        ("weighted-p112", None),
        ("bundle-p2", "bundle_algebra"),
    ]

    # the "-generic" suffix is kept so that the test ids stay stable
    @pytest.fixture(params=CASES, ids=[f"{n}-generic" for n, _ in CASES])
    def algebra(self, request):
        name, shared = request.param
        if shared is not None:
            return request.getfixturevalue(shared)
        return frob.build_algebra(make_system(name))

    def test_functional_equals_reduction(self, algebra):
        """den * Tr(y) is stored at code(y) for exactly the monomials y of
        S_{(m-1) beta} with a nonzero trace, and every other y reads 0."""
        D = algebra
        den, radix, table = D.trace_functional
        wants = {}
        for y in D.bases[D.m - 1].monomials:
            want = reduced_trace(GradedPolynomial.monomial(D.system.variables, y), D)
            assert Fraction(table.get(monomial_code(y, radix), 0), den) == want, y
            if want:
                wants[monomial_code(y, radix)] = want
        assert set(table) == set(wants)
        assert den == math.lcm(*(w.denominator for w in wants.values()))

    @pytest.mark.parametrize(
        "name, entries",
        [
            ("projective-3", 1),
            ("projective-4", 1),
            ("projective-5", 1),
            ("weighted-p112", 1),
            ("bundle-p2", 88),
        ],
    )
    def test_table_holds_only_nonzero_traces(self, name, entries):
        """S_{m beta} has 28, 455, 10,626, 25 and 399 monomials; the table
        keeps only the nonzero traces on S_{(m-1) beta}."""
        _, _, table = frob.build_algebra(make_system(name)).trace_functional
        assert len(table) == entries
        assert all(table.values())

    def test_trace_equals_lift_and_reduce(self, algebra):
        D = algebra
        m = D.m
        rng = random.Random(11)
        socle = D.bases[m - 1]
        for _ in range(5):
            U = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(socle.dim)]
            assert frob.trace(U, D) == reduced_trace(lift(D, m - 1, U), D)
            # every ambient monomial, pivots of the socle piece included
            p = GradedPolynomial(
                D.system.variables, {mono: rng.randint(-5, 5) for mono in socle.monomials}
            )
            assert frob.trace_of_polynomial(p, D) == reduced_trace(p, D)

    def test_monomial_outside_the_socle_degree_rejected(self, cubic_algebra):
        p = GradedPolynomial.monomial(cubic_algebra.system.variables, (1, 0, 0))
        with pytest.raises(DegreeMismatch):
            frob.trace_of_polynomial(p, cubic_algebra)

    def test_exponent_that_would_carry_rejected(self, cubic_algebra):
        """The one key is the code of y = z_1 z_2 z_3.  Moving a unit of its
        second digit into the first gives z_1^(radix+1) z_3, whose exponent
        reaches radix and carries onto that key.  The monomial lies outside
        S_beta, and the trace refuses it instead of reading Tr(y)."""
        D = cubic_algebra
        _, radix, table = D.trace_functional
        assert list(table) == [monomial_code((1, 1, 1), radix)]
        mono = (radix + 1, 0, 1)
        assert monomial_code(mono, radix) in table
        assert mono not in D.bases[D.m - 1].monomials
        p = GradedPolynomial.monomial(D.system.variables, mono)
        with pytest.raises(DegreeMismatch):
            frob.trace_of_polynomial(p, D)


def reference_structure(D):
    """Dense structure tensors {(a, b): [i][j][k]}, a <= b, independently of
    the remainder tables: each product monomial's column reduced through the
    target piece's echelon by ``EchelonBasis.reduce`` (no echelon means a
    zero remainder), its non-pivot columns mapped to basis indices."""
    out = {}
    for a in range(D.m):
        for b in range(a, D.m - a):
            target = D.bases[a + b]
            index = target.column_index()
            basis_index = {index[mono]: k for k, mono in enumerate(target.basis)}
            tensor = []
            for mono_i in D.bases[a].basis:
                row = []
                for mono_j in D.bases[b].basis:
                    coords = [Fraction(0)] * target.dim
                    if target.echelon is not None:
                        col = index[tuple(x + y for x, y in zip(mono_i, mono_j))]
                        for c, x in target.echelon.reduce({col: 1}).items():
                            coords[basis_index[c]] = x
                    row.append(coords)
                tensor.append(row)
            out[(a, b)] = tensor
    return out


def dense_product(tensors, D, a, u, b, v):
    """Reference product: the dense triple loop over ``reference_structure``."""
    if a + b >= D.m:
        return []
    if a <= b:
        tensor, x, y = tensors[(a, b)], u, v
    else:
        tensor, x, y = tensors[(b, a)], v, u
    out = [Fraction(0)] * D.bases[a + b].dim
    for i, ci in enumerate(x):
        for j, cj in enumerate(y):
            for k, ck in enumerate(tensor[i][j]):
                out[k] += ci * cj * ck
    return out


def basis_product(D, a, i, b, j):
    """Nonzero (k, c) of basis[a][i] * basis[b][j], read through
    ``D.products``: the numerators of the index over their denominator."""
    lookup, den = D.products(a, b)
    return [(k, Fraction(n, den)) for k, n in lookup(i, j)]


def with_constants(D, *changes):
    """D with a copy of its nonzero index in which the integer delta is added
    to the k-th constant of basis[a][i] * basis[b][j] for each ((a, b), i, j,
    k, delta), keeping k ascending and dropping constants that become zero.
    The index holds numerators over ``denominators[(a, b)]``, so delta enters
    it as delta * den."""
    nonzero = {
        key: [{j: list(entries) for j, entries in row.items()} for row in index]
        for key, index in D.nonzero.items()
    }
    for key, i, j, k, delta in changes:
        row = nonzero[key][i]
        constants = dict(row.pop(j, []))
        constants[k] = constants.get(k, 0) + delta * D.denominators[key]
        if any(constants.values()):
            row[j] = [(n, c) for n, c in sorted(constants.items()) if c]
    return dataclasses.replace(D, nonzero=nonzero)


class TestSparseKernel:
    """The nonzero-index kernel against dense references on seeded vectors."""

    NAMES = ["projective-3", "projective-4", "weighted-p112", "bundle-p2"]
    SHARED = {
        "projective-3": "cubic_algebra",
        "projective-4": "quartic_algebra",
        "bundle-p2": "bundle_algebra",
    }

    @pytest.fixture(params=NAMES)
    def algebra(self, request):
        shared = self.SHARED.get(request.param)
        if shared is not None:
            return request.getfixturevalue(shared)
        return frob.build_algebra(make_system(request.param))

    @pytest.fixture
    def reference(self, algebra):
        return reference_structure(algebra)

    @staticmethod
    def vectors(D, rng):
        """A rational and an integer vector in every degree."""
        return [
            (
                [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)],
                [rng.randint(-3, 3) for _ in range(n)],
            )
            for n in D.dims()
        ]

    def test_index_equals_reduced_product_columns(self, algebra, reference):
        """Every basis product, read from the index, against the reduction of
        its product column; a zero product has no entry in the index."""
        D = algebra
        dims = D.dims()
        for (a, b), tensor in reference.items():
            for i in range(dims[a]):
                for j in range(dims[b]):
                    want = [(k, c) for k, c in enumerate(tensor[i][j]) if c]
                    assert basis_product(D, a, i, b, j) == want, (a, i, b, j)
                    assert basis_product(D, b, j, a, i) == want
                    assert (j in D.nonzero[(a, b)][i]) == bool(want)

    def test_numerators_are_ints_over_the_least_denominator(self, algebra, request):
        """Every stored constant is an int numerator over its pair's
        denominator, and that denominator shares no factor with all of the
        pair's numerators; only bundle-p2 has a non-unit one."""
        D = algebra
        name = request.node.callspec.params["algebra"]
        assert D.denominators.keys() == D.nonzero.keys()
        for key, index in D.nonzero.items():
            den = D.denominators[key]
            numerators = [n for row in index for entries in row.values() for _, n in entries]
            assert all(type(n) is int for n in numerators)
            assert type(den) is int and den >= 1
            assert math.gcd(den, *numerators) == 1, key
        if name == "bundle-p2":
            assert D.denominators[(1, 1)] > 1
        else:
            assert set(D.denominators.values()) == {1}, name

    def test_same_constants_over_other_denominators(self, algebra):
        """The constants of each pair (a, b) rewritten over (2 + a + 2b) times
        its denominator: every reader divides by the pair's own denominator,
        so products, Gram matrices and the axioms are unchanged, and
        associativity, whose two sides then have different denominators,
        still passes."""
        D = algebra
        scale = {(a, b): 2 + a + 2 * b for a, b in D.nonzero}
        rewritten = dataclasses.replace(
            D,
            nonzero={
                key: [
                    {j: [(k, scale[key] * n) for k, n in entries] for j, entries in row.items()}
                    for row in index
                ]
                for key, index in D.nonzero.items()
            },
            denominators={key: scale[key] * den for key, den in D.denominators.items()},
        )
        assert rewritten.structure == D.structure
        for a in range(D.m):
            assert frob.pairing_gram(rewritten, a) == frob.pairing_gram(D, a)
        want = frob.frobenius_axiom_check(D, sample_seed=1, sample_count=20)
        got = frob.frobenius_axiom_check(rewritten, sample_seed=1, sample_count=20)
        assert got.all_pass
        assert got == want

    def test_structure_view_equals_reference(self, algebra, reference):
        """The dense view rebuilt from the index, which the benchmark tracer
        counts, equals the reference tensors entry for entry."""
        view = algebra.structure
        assert view == reference
        assert all(
            type(c) is Fraction
            for tensor in view.values()
            for row in tensor
            for coords in row
            for c in coords
        )

    def test_product_coords_equals_dense_loop(self, algebra, reference):
        D = algebra
        rng = random.Random(5)
        for _ in range(3):
            vecs = self.vectors(D, rng)
            for a in range(D.m):
                for b in range(D.m):
                    for u in vecs[a]:
                        for v in vecs[b]:
                            got = D.product_coords(a, u, b, v)
                            assert got == dense_product(reference, D, a, u, b, v)
                            assert all(type(x) is Fraction for x in got)
                            assert D.product_coords(b, v, a, u) == dense_product(
                                reference, D, b, v, a, u
                            )
                            if a + b >= D.m:
                                assert got == []

    def test_mul_twisted_keeps_its_sign(self, algebra, reference):
        D = algebra
        rng = random.Random(6)
        vecs = self.vectors(D, rng)
        for a in range(D.m):
            b = D.m - 1 - a
            u, v = vecs[a][0], vecs[b][0]
            want = [(-1) ** b * x for x in dense_product(reference, D, a, u, b, v)]
            assert frob.mul_twisted(a, u, b, v, D) == want

    def test_pairing_gram_equals_trace_of_each_product(self, algebra):
        D = algebra
        dims = D.dims()

        def unit(n, i):
            return [Fraction(int(k == i)) for k in range(n)]

        for a in range(D.m):
            b = D.m - 1 - a
            gram = frob.pairing_gram(D, a)
            assert len(gram) == dims[a]
            for i, row in enumerate(gram):
                assert len(row) == dims[b]
                for j, entry in enumerate(row):
                    want = frob.trace(
                        D.product_coords(a, unit(dims[a], i), b, unit(dims[b], j)), D
                    )
                    assert entry == want

    def test_direct_trace_equals_trace_of_lifted_product(self, algebra):
        D = algebra
        m, dims = D.m, D.dims()
        rng = random.Random(8)
        for a in range(m):
            for b in range(m - a):
                c = m - 1 - a - b
                for bound in (3, 50):
                    u, v, w = (
                        [rng.randint(-bound, bound) for _ in range(dims[d])]
                        for d in (a, b, c)
                    )
                    got = frob.direct_trace(D, ((a, u), (b, v), (c, w)))
                    want = frob.trace_of_polynomial(
                        lift(D, a, u) * lift(D, b, v) * lift(D, c, w), D
                    )
                    assert got == want

    def test_scaled_functional_keys_every_monomial_by_its_digits(self, algebra):
        """Each key is the base-radix number whose digits are the exponents
        of a monomial y of S_{(m-1) beta}, and maps to den * Tr(y), a nonzero
        integer."""
        D = algebra
        _, radix, table = D.trace_functional
        socle_monomials = set(D.bases[D.m - 1].monomials)
        assert table
        for key, value in table.items():
            code, digits = key, []
            for _ in D.system.variables:
                code, digit = divmod(code, radix)
                digits.append(digit)
            assert code == 0 and tuple(digits) in socle_monomials, key
            assert type(value) is int and value

    def test_direct_trace_never_reads_the_structure_constants(self, bundle_algebra):
        D = bundle_algebra
        scrambled = dataclasses.replace(
            D,
            nonzero={
                key: [
                    {j: [(k, c + 1) for k, c in entries] for j, entries in row.items()}
                    for row in index
                ]
                for key, index in D.nonzero.items()
            },
            denominators={key: 2 * den + 1 for key, den in D.denominators.items()},
        )
        rng = random.Random(9)
        dims = D.dims()
        factors = [(d, [rng.randint(-3, 3) for _ in range(dims[d])]) for d in (1, 1, 0)]
        assert frob.direct_trace(scrambled, factors) == frob.direct_trace(D, factors)


class TestInvarianceFaultInjection:
    """Corruptions that only the invariance check can see on bundle-p2 (dims
    1, 18, 1): each must make it fail with a witness."""

    def test_symmetric_structure_constant_corruption(self, bundle_algebra):
        D = bundle_algebra
        bad = with_constants(D, ((1, 1), 0, 1, 0, 1), ((1, 1), 1, 0, 0, 1))
        report = frob.frobenius_axiom_check(bad, sample_seed=0, sample_count=200)
        assert report.commutativity.ok
        assert not report.invariance.ok
        assert "vs direct" in report.invariance.witness

    def test_doubled_denominator(self, bundle_algebra):
        """Doubling the (1, 1) denominator halves every product of two
        degree-1 elements: that is still a commutative, associative product
        with the same unit, but its traces disagree with the direct path."""
        D = bundle_algebra
        denominators = dict(D.denominators)
        denominators[(1, 1)] *= 2
        bad = dataclasses.replace(D, denominators=denominators)
        report = frob.frobenius_axiom_check(bad, sample_seed=0, sample_count=200)
        assert report.unit.ok
        assert report.commutativity.ok
        assert report.associativity.ok
        assert not report.invariance.ok
        assert "vs direct" in report.invariance.witness

    def test_functional_corruption_off_the_structure_path(self, bundle_algebra):
        D = bundle_algebra
        r0 = D.r0_piece
        index = r0.column_index()
        shift = (1,) * len(D.system.variables)

        def column(mono):
            return index[tuple(x + y for x, y in zip(mono, shift))]

        # the structure path reads the trace only at the socle basis; y is a
        # product of two degree-1 basis monomials, so the direct path reaches
        # it, and z_1...z_r * y is a pivot column of R0(f)_{m beta}
        socle = D.bases[2].basis[0]
        products = (
            tuple(x + y for x, y in zip(u, v))
            for u in D.bases[1].basis
            for v in D.bases[1].basis
        )
        y = next(y for y in products if y != socle and column(y) in r0.echelon.rows)
        den, radix, table = D.trace_functional
        table = dict(table)
        code = monomial_code(y, radix)
        table[code] = table.get(code, 0) + den  # Tr(y) + 1
        bad = dataclasses.replace(D, trace_functional=(den, radix, table))
        assert frob.trace([Fraction(1)], bad) == frob.trace([Fraction(1)], D)
        report = frob.frobenius_axiom_check(bad, sample_seed=0, sample_count=200)
        assert not report.invariance.ok
        assert "vs direct" in report.invariance.witness

    def test_structure_constant_set_from_zero_reaches_the_index(self, bundle_algebra):
        """A constant that is zero at build time has no entry in the nonzero
        index; an entry of 1 added through dataclasses.replace must reach
        the structure path, and invariance must see it."""
        D = bundle_algebra
        index = D.nonzero[(1, 1)]
        i, j = next(
            (i, j)
            for i in range(len(index))
            for j in range(i + 1, len(index))
            if j not in index[i]
        )
        assert basis_product(D, 1, i, 1, j) == []
        bad = with_constants(D, ((1, 1), i, j, 0, 1), ((1, 1), j, i, 0, 1))
        assert basis_product(bad, 1, i, 1, j) == [(0, 1)]
        report = frob.frobenius_axiom_check(bad, sample_seed=0, sample_count=200)
        assert report.commutativity.ok
        assert not report.invariance.ok
        assert "vs direct" in report.invariance.witness

    def test_fractional_functional_corruption_seen_through_the_lcm(self, bundle_algebra):
        """+1/11 on the trace of one monomial that only the direct path
        reads.  In the integer form den becomes 11 den: every numerator is
        multiplied by 11 and den is added at one code, so the new
        denominator 11 enters the scaling."""
        D = bundle_algebra
        socle = D.bases[2].basis[0]
        y = next(
            y
            for y in (tuple(map(sum, zip(u, v))) for u in D.bases[1].basis for v in D.bases[1].basis)
            if y != socle
        )
        den, radix, table = D.trace_functional
        assert den % 11 != 0
        table = {code: 11 * n for code, n in table.items()}
        code = monomial_code(y, radix)
        table[code] = table.get(code, 0) + den
        bad = dataclasses.replace(D, trace_functional=(11 * den, radix, table))
        assert frob.trace([Fraction(1)], bad) == frob.trace([Fraction(1)], D)
        report = frob.frobenius_axiom_check(bad, sample_seed=0, sample_count=200)
        assert not report.invariance.ok
        assert "vs direct" in report.invariance.witness


class TestExhaustiveInvariance:
    """Below ``EXHAUSTIVE_TRIPLE_LIMIT`` invariance is checked on every basis
    triple, exactly and without the random generator."""

    @pytest.mark.parametrize(
        "shared", ["cubic_algebra", "quartic_algebra", "bundle_algebra"]
    )
    def test_checks_every_basis_triple(self, shared, request):
        D = request.getfixturevalue(shared)
        m, dims = D.m, D.dims()
        report = frob.frobenius_axiom_check(D, sample_seed=0, sample_count=200)
        assert not report.sampled
        assert report.invariance.ok
        assert report.invariance.checked == sum(
            dims[a] * dims[b] * dims[m - 1 - a - b]
            for a in range(m)
            for b in range(m - a)
        )

    def test_independent_of_seed_and_sample_count(self, bundle_algebra):
        def without_seed(seed, count):
            out = frob.frobenius_axiom_check(bundle_algebra, seed, count)
            return dataclasses.replace(out, seed=None)

        want = without_seed(0, 200)
        assert want.invariance.checked == 975
        for seed, count in ((1, 200), (0, 1), (1, 1)):
            assert without_seed(seed, count) == want

    def test_witness_names_a_failing_basis_triple(self, bundle_algebra):
        """The symmetric corruption of basis[1][0] * basis[1][1] first
        shows at <1 * e_0, e_1> in degrees (0, 1, 1); at the named triple
        the structure-constant trace differs from the direct one."""
        D = bundle_algebra
        bad = with_constants(D, ((1, 1), 0, 1, 0, 1), ((1, 1), 1, 0, 0, 1))
        report = frob.frobenius_axiom_check(bad, sample_seed=0, sample_count=200)
        witness = report.invariance.witness
        assert witness.startswith("(a,i,b,j,c,k) = (0, 0, 1, 0, 1, 1): ")
        assert "vs direct" in witness
        assert report.invariance.checked == 3
        dims = D.dims()

        def unit(d, n):
            return [int(x == n) for x in range(dims[d])]

        u, v, w = unit(0, 0), unit(1, 0), unit(1, 1)
        uv = bad.product_coords(0, u, 1, v)
        lhs = frob.trace(bad.product_coords(1, uv, 1, w), bad)
        direct = frob.direct_trace(bad, ((0, u), (1, v), (1, w)))
        assert lhs != direct
        assert f"vs direct {direct}" in witness

    def test_random_vector_branch_still_fails_on_corruption(
        self, bundle_algebra, monkeypatch
    ):
        """With the limit at 0 the same algebra takes the sampled branch,
        whose witness names degrees, not a basis triple."""
        monkeypatch.setattr(frob, "EXHAUSTIVE_TRIPLE_LIMIT", 0)
        denominators = dict(bundle_algebra.denominators)
        denominators[(1, 1)] *= 2
        bad = dataclasses.replace(bundle_algebra, denominators=denominators)
        report = frob.frobenius_axiom_check(bad, sample_seed=0, sample_count=200)
        assert report.sampled
        assert not report.invariance.ok
        assert report.invariance.witness.startswith("degrees ")
        assert "vs direct" in report.invariance.witness


def test_asymmetric_structure_constant_fails_commutativity(bundle_algebra):
    """Commutativity reads the nonzero index of each (a, a) tensor: one
    constant changed on one side of the diagonal must be reported."""
    D = bundle_algebra
    bad = with_constants(D, ((1, 1), 2, 5, 0, 1))
    report = frob.frobenius_axiom_check(bad, sample_seed=0, sample_count=20)
    assert not report.commutativity.ok
    assert report.commutativity.witness == "degree 1: basis[2]*basis[5] != basis[5]*basis[2]"


def test_unit_corruption_fails_unit_and_associativity(bundle_algebra):
    """1 * basis[1][j] corrupted to e_j + e_k: the unit check names
    basis[1][j], and exhaustive associativity fails at 1 * (1 * basis[1][j])."""
    D = bundle_algebra
    j, k = 2, 5
    coords = D.structure[(0, 1)][0][j]
    assert coords[j] == 1 and not any(c for i, c in enumerate(coords) if i != j)
    bad = with_constants(D, ((0, 1), 0, j, k, 1))
    report = frob.frobenius_axiom_check(bad, sample_seed=0, sample_count=20)
    assert not report.sampled
    assert not report.unit.ok
    assert report.unit.witness == (
        f"1 * basis[1][{j}] = [({j}, 1), ({k}, 1)], expected [({j}, 1)]"
    )
    assert not report.associativity.ok
    assert report.associativity.witness == f"(a,i,b,j,c,k) = (0, 0, 0, 0, 1, {j})"


class TestMacaulayFromOnePiece:
    """R(f)_{m beta} = 0 certifies R(f)_{p beta} = 0 for every p > m (see
    ``build_algebra``), and ``macaulay_dim`` decides it from R0(f)_{m beta},
    so a report builds no piece of J at or above m beta."""

    @staticmethod
    def report_system(monkeypatch, name):
        """(report, exit code, the JacobianSystem the report built)."""
        systems = []
        original = jac.jacobian_system

        def recording(*args):
            systems.append(original(*args))
            return systems[-1]

        monkeypatch.setattr(jac, "jacobian_system", recording)
        doc = get_fixture(name).to_input_document()
        out, code = run_report(parse_run_config(doc, {"json_only": True}))
        return out, code, systems[0]

    @pytest.mark.parametrize("name", ["projective-4", "bundle-p2"])
    def test_report_builds_no_piece_above_m(self, monkeypatch, name):
        out, code, system = self.report_system(monkeypatch, name)
        assert code == 0
        m, grading = system.m, system.grading
        want = {(jac.IDEAL_J, grading.scaled_beta(a)) for a in range(m)}
        want.add((jac.IDEAL_J0, grading.scaled_beta(m)))
        assert set(system._pieces) == want
        assert out["algebra"]["zero_sums_checked"] == list(range(m, 2 * m - 1))

    @staticmethod
    def uncovered(name, p):
        """The monomials of S_{p beta} that are no product of a monomial of
        S_{m beta} and one of S_{(p-m) beta}."""
        fx = get_fixture(name)
        grading, m = class_group(fx.fan), fx.fan.dim

        def basis(q):
            return monomial_basis(grading, fx.fan, grading.scaled_beta(q))

        top, low = set(basis(m)), basis(p - m)
        return [
            z for z in basis(p) if not any(tuple(map(sub, z, y)) in top for y in low)
        ]

    # bundle-p6 is left out for its size, hirzebruch-3 for its non-integral
    # vertex (see the next test)
    @pytest.mark.parametrize(
        "name",
        [n for n in fixture_names() if n not in ("bundle-p6", "hirzebruch-3")],
    )
    def test_normality_spot_check(self, name):
        """The identity build_algebra relies on, at every p with
        m < p <= max(m+1, 2m-2)."""
        m = get_fixture(name).fan.dim
        for p in range(m + 1, max(m + 1, 2 * m - 2) + 1):
            assert self.uncovered(name, p) == [], p

    def test_normality_needs_integral_vertices(self):
        """hirzebruch-3's Delta has a non-integral vertex.  There the
        identity fails, and the polytope that build_algebra computes, its
        guard of the hypothesis, is refused."""
        assert (0, 1, 0, 5) in self.uncovered("hirzebruch-3", 3)
        with pytest.raises(NotReflexivePipeline):
            anticanonical_polytope(get_fixture("hirzebruch-3").fan)

    def test_nonzero_top_piece_fails(self, monkeypatch):
        """Fault injection: the certificate reads the Euler generators z_i f_i
        in place of the partials f_i.  Their rows span J0(f)_{m beta} = ker
        lambda, so dim R(f)_{m beta} comes out 1, the report stops after the
        Macaulay and socle stages, with no algebra and no error, and
        build_algebra refuses with the degree and dimension."""
        original = jac.macaulay_dim

        def corrupted(system):
            system.partials = list(system.euler_gens)
            return original(system)

        monkeypatch.setattr(jac, "macaulay_dim", corrupted)
        out, code, system = self.report_system(monkeypatch, "projective-4")
        assert code == 4
        assert out["macaulay"] == {
            "pass": False,
            "checked": 1,
            "witness": "dim R(f)_3b = 1, expected 0",
        }
        assert out["failures"] == ["macaulay_vanishing"]
        assert "algebra" not in out and "error" not in out
        with pytest.raises(MacaulayNotVanishing, match=r"dim R\(f\)_3b = 1,"):
            frob.build_algebra(system)
