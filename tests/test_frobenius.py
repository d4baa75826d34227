"""Algebra assembly, trace normalization, pairing and the axiom suite."""

import ast
import dataclasses
import functools
import math
import random
from fractions import Fraction
from operator import add, sub

import pytest
from reference import (
    associativity_on_basis,
    hessian_determinant,
    invariance_on_basis,
    lift,
    toric_jacobian_by_cauchy_binet,
)

from lgfrob import frobenius as frob
from lgfrob import jacobian as jac
from lgfrob.errors import DegreeMismatch, HypothesisFailed, NotReflexivePipeline
from lgfrob.fixtures import fixture_names, get_fixture
from lgfrob.poly import GradedPolynomial, monomial_code, parse_polynomial
from lgfrob.report import parse_run_config, run_report
from lgfrob.toric import CheckResult, anticanonical_polytope, class_group, monomial_basis


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
        # both hypotheses fail; the first entry of jacobian.HYPOTHESES refuses
        with pytest.raises(HypothesisFailed, match="^macaulay_vanishing: "):
            frob.build_algebra(make_system("degenerate-cube"))

    def test_p1xp1_rejected(self):
        # socle dimension is forced to 2 on P^1 x P^1 (failed middle
        # cup-product hypothesis); the builder must refuse
        with pytest.raises(HypothesisFailed, match="^socle_certificates: "):
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

    @pytest.mark.parametrize(
        "name",
        [
            "projective-3",
            "projective-4",
            "projective-5",
            "weighted-p112",
            "bundle-p2",
            "p1xp1",
            "degenerate-cube",
        ],
    )
    def test_equals_cauchy_binet(self, name):
        system = make_system(name)
        assert frob.toric_jacobian(system).terms == toric_jacobian_by_cauchy_binet(system)

    @pytest.mark.parametrize("psi", PENCIL_POINTS, ids=str)
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_pencil_equals_cauchy_binet(self, d, psi):
        system = pencil_algebra(d, psi).system
        assert frob.toric_jacobian(system).terms == toric_jacobian_by_cauchy_binet(system)

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
        report = frob.frobenius_axiom_check(D)
        assert report.all_pass, report

    def test_exhaustive_mode_on_small_algebra(self, cubic_algebra):
        """Every check is exhaustive: on the cubic (dims [1, 1]) unit
        compares both products with the unit, invariance the three basis
        triples with a+b+c = 1, and nondegeneracy both Gram matrices."""
        report = frob.frobenius_axiom_check(cubic_algebra)
        assert report == frob.AxiomReport(
            CheckResult(True, 2), CheckResult(True, 3), CheckResult(True, 2)
        )

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
    rows, den = D.products(a, b)
    return [(k, Fraction(n, den)) for k, n in rows[i].get(j, [])]


def with_numerators(D, *changes):
    """D with a copy of its nonzero index in which the int delta is added to
    the numerator of the k-th constant of basis[a][i] * basis[b][j] for each
    ((a, b), i, j, k, delta), keeping k ascending and dropping constants that
    become zero."""
    nonzero = {
        key: [{j: list(entries) for j, entries in row.items()} for row in index]
        for key, index in D.nonzero.items()
    }
    for key, i, j, k, delta in changes:
        row = nonzero[key][i]
        constants = dict(row.pop(j, []))
        constants[k] = constants.get(k, 0) + delta
        if any(constants.values()):
            row[j] = [(n, c) for n, c in sorted(constants.items()) if c]
    return dataclasses.replace(D, nonzero=nonzero)


def with_constants(D, *changes):
    """``with_numerators`` with each integer delta added to the constant
    itself: the index holds numerators over ``denominators[(a, b)]``, so
    delta enters it as delta * den."""
    return with_numerators(
        D, *((key, i, j, k, delta * D.denominators[key]) for key, i, j, k, delta in changes)
    )


def triple_trace(D, a, i, b, j, c, k):
    """Tr(z^i z^j z^k) of basis[a][i], basis[b][j] and basis[c][k], read by
    ``trace_of_polynomial`` at the product monomial."""
    mono = tuple(map(sum, zip(D.bases[a].basis[i], D.bases[b].basis[j], D.bases[c].basis[k])))
    return frob.trace_of_polynomial(GradedPolynomial.monomial(D.system.variables, mono), D)


def witness_parts(witness):
    """((a, i, b, j, c, k), direct) of an invariance witness
    "(a,i,b,j,c,k) = (...): lhs vs direct value"."""
    triple, values = witness.removeprefix("(a,i,b,j,c,k) = ").split(": ")
    return ast.literal_eval(triple), Fraction(values.split(" vs direct ")[1])


def assert_invariance_witness(report, D, bad):
    """The invariance record of ``report``, the axiom check of ``bad``, a
    corruption of D's structure constants, fails with the reference's
    record, and the direct side of its witness is the trace of z^i z^j z^k
    on D.  Returns the witness's basis triple."""
    m = D.m
    record = report.invariance
    assert not record.ok
    on_socle = [(a, b, m - 1 - a - b) for a in range(m) for b in range(m - a)]
    assert record == invariance_on_basis(bad, on_socle)
    triple, direct = witness_parts(record.witness)
    assert direct == triple_trace(D, *triple)
    return triple


def degree_triples(D):
    """Every degree triple (a, b, c) with a+b+c <= m-1, the triples on
    which ``associativity_on_basis`` compares both sides."""
    m = D.m
    return [
        (a, b, c)
        for a in range(m)
        for b in range(m)
        for c in range(m)
        if a + b + c <= m - 1
    ]


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
        so products, Gram matrices and the axioms are unchanged."""
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
        want = frob.frobenius_axiom_check(D)
        got = frob.frobenius_axiom_check(rewritten)
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
        """Scrambled constants and denominators make the invariance check
        fail, and the direct side of its witness is still the trace of
        z^i z^j z^k on the unscrambled algebra."""
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
        record = frob.frobenius_axiom_check(scrambled, gram_ranks=D.dims()).invariance
        assert not record.ok
        triple, direct = witness_parts(record.witness)
        assert direct == triple_trace(D, *triple)


class TestInvarianceFaultInjection:
    """Corruptions that only the invariance check can see on bundle-p2 (dims
    1, 18, 1): each must make it fail with a witness."""

    def test_symmetric_structure_constant_corruption(self, bundle_algebra):
        D = bundle_algebra
        bad = with_constants(D, ((1, 1), 0, 1, 0, 1), ((1, 1), 1, 0, 0, 1))
        assert basis_product(bad, 1, 0, 1, 1) == basis_product(bad, 1, 1, 1, 0)
        report = frob.frobenius_axiom_check(bad)
        assert_invariance_witness(report, D, bad)

    def test_doubled_denominator(self, bundle_algebra):
        """Doubling the (1, 1) denominator halves every product of two
        degree-1 elements: that is still a commutative, associative product
        with the same unit, by the reference, but its traces disagree with
        the direct path."""
        D = bundle_algebra
        denominators = dict(D.denominators)
        denominators[(1, 1)] *= 2
        bad = dataclasses.replace(D, denominators=denominators)
        report = frob.frobenius_axiom_check(bad)
        assert report.unit.ok
        assert associativity_on_basis(bad, degree_triples(bad)).ok
        assert_invariance_witness(report, D, bad)

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
        report = frob.frobenius_axiom_check(bad)
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
        assert basis_product(bad, 1, i, 1, j) == basis_product(bad, 1, j, 1, i) == [(0, 1)]
        report = frob.frobenius_axiom_check(bad)
        assert_invariance_witness(report, D, bad)

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
        report = frob.frobenius_axiom_check(bad)
        assert not report.invariance.ok
        assert "vs direct" in report.invariance.witness


class TestExhaustiveInvariance:
    """Invariance is checked on every basis triple of every algebra, exactly,
    also on projective-5 and its pencil (dims [1, 101, 101, 1])."""

    @pytest.fixture(scope="class")
    def quintic_algebra(self):
        return pencil_algebra(5, Fraction(0))

    @pytest.fixture(scope="class")
    def quintic_pencil_algebra(self):
        return pencil_algebra(5, Fraction(1, 2))

    @pytest.mark.parametrize(
        "shared",
        [
            "cubic_algebra",
            "quartic_algebra",
            "bundle_algebra",
            "quintic_algebra",
            "quintic_pencil_algebra",
        ],
    )
    def test_checks_every_basis_triple(self, shared, request):
        D = request.getfixturevalue(shared)
        m, dims = D.m, D.dims()
        report = frob.frobenius_axiom_check(D, gram_ranks=dims)
        assert report.invariance.ok
        assert report.invariance.checked == sum(
            dims[a] * dims[b] * dims[m - 1 - a - b]
            for a in range(m)
            for b in range(m - a)
        )
        if m == 4:
            assert report.invariance.checked == 1_091_510

    def test_quintic_corruption_is_caught_exactly(self, quintic_algebra):
        """+1 on the first nonzero (1, 1) constant of projective-5 with
        i < j, and on its mirror, so the index stays symmetric: invariance
        fails with the reference's record, witness and ``checked``
        included."""
        D = quintic_algebra
        i, j, k = next(
            (i, j, k)
            for i, row in enumerate(D.nonzero[(1, 1)])
            for j, entries in row.items()
            if i < j
            for k, _ in entries
        )
        bad = with_constants(D, ((1, 1), i, j, k, 1), ((1, 1), j, i, k, 1))
        report = frob.frobenius_axiom_check(bad, gram_ranks=D.dims())
        assert report.invariance == CheckResult(
            False,
            33_029,
            "(a,i,b,j,c,k) = (1, 0, 1, 23, 1, 100): -2/15625 vs direct -1/15625",
        )
        assert_invariance_witness(report, D, bad)

    def test_doubled_denominator_on_the_quintic(self, quintic_algebra):
        """Doubling the (1, 1) denominator halves every product of two
        degree-1 elements, which the unit check cannot see; invariance
        fails at the first degree triple that reads those
        products, (1, 1, 1), as the reference does."""
        D = quintic_algebra
        bad = dataclasses.replace(
            D, denominators={**D.denominators, (1, 1): 2 * D.denominators[(1, 1)]}
        )
        report = frob.frobenius_axiom_check(bad, gram_ranks=D.dims())
        assert report.unit.ok
        assert assert_invariance_witness(report, D, bad)[::2] == (1, 1, 1)

    def test_witness_names_a_failing_basis_triple(self, bundle_algebra):
        """The symmetric corruption of basis[1][0] * basis[1][1] first
        shows at <1 * e_0, e_1> in degrees (0, 1, 1); at the named triple
        the structure-constant trace differs from the direct one."""
        D = bundle_algebra
        bad = with_constants(D, ((1, 1), 0, 1, 0, 1), ((1, 1), 1, 0, 0, 1))
        report = frob.frobenius_axiom_check(bad)
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
        direct = triple_trace(D, 0, 0, 1, 0, 1, 1)
        assert lhs != direct
        assert witness_parts(witness) == ((0, 0, 1, 0, 1, 1), direct)


def test_asymmetric_structure_constant_fails_invariance(bundle_algebra):
    """One (1, 1) constant changed on one side of the diagonal: invariance
    compares e_2 e_5 and e_5 e_2 with the same direct traces, so it fails
    (see ``frob._check_invariance``).  It sees the change first in G_1, at
    <1 * e_2, e_5> in degrees (0, 1, 1)."""
    D = bundle_algebra
    bad = with_constants(D, ((1, 1), 2, 5, 0, 1))
    assert basis_product(bad, 1, 2, 1, 5) != basis_product(bad, 1, 5, 1, 2)
    report = frob.frobenius_axiom_check(bad)
    assert report.unit.ok and report.nondegeneracy.ok
    assert assert_invariance_witness(report, D, bad) == (0, 0, 1, 2, 1, 5)
    assert report.invariance.checked == 43


class TestOneSidedSquareConstants:
    """Commutativity has no check of its own: a change of an (a, a)
    constant on one side of the diagonal, 2a <= m-1, must fail invariance,
    the Gram ranks computed from the changed algebra."""

    SHARED = {"projective-4": "quartic_algebra", "bundle-p2": "bundle_algebra"}
    PENCILS = {"pencil-4": (4, Fraction(1, 2)), "projective-5": (5, Fraction(0))}

    @pytest.fixture(params=["projective-4", "bundle-p2", "pencil-4", "projective-5"])
    def algebra(self, request):
        if request.param in self.SHARED:
            return request.getfixturevalue(self.SHARED[request.param])
        return pencil_algebra(*self.PENCILS[request.param])

    def test_fails_invariance(self, algebra):
        D = algebra
        m, dims = D.m, D.dims()
        squares = [a for a in range(1, m) if 2 * a <= m - 1 and dims[a] > 1]
        assert squares
        pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
        for a in squares:
            for i, j in pairs:
                k = (i + j) % dims[2 * a]
                for delta in (-1, 1):
                    bad = with_numerators(D, ((a, a), i, j, k, delta))
                    assert basis_product(bad, a, i, a, j) != basis_product(bad, a, j, a, i)
                    report = frob.frobenius_axiom_check(bad)
                    assert report.unit.ok
                    assert_invariance_witness(report, D, bad)


def test_unit_corruption_fails_unit(bundle_algebra):
    """1 * basis[1][j] corrupted to e_j + e_k, a product that the reference
    finds non-associative at 1 * (1 * basis[1][j]): the unit check, on which
    the lemma of ``frob._check_invariance`` rests, names basis[1][j]."""
    D = bundle_algebra
    j, k = 2, 5
    coords = D.structure[(0, 1)][0][j]
    assert coords[j] == 1 and not any(c for i, c in enumerate(coords) if i != j)
    bad = with_constants(D, ((0, 1), 0, j, k, 1))
    assert associativity_on_basis(bad, degree_triples(bad)).witness == (
        f"(a,i,b,j,c,k) = (0, 0, 0, 0, 1, {j})"
    )
    report = frob.frobenius_axiom_check(bad)
    assert not report.unit.ok
    assert report.unit.witness == (
        f"1 * basis[1][{j}] = [({j}, 1), ({k}, 1)], expected [({j}, 1)]"
    )


class TestSkewedProduct:
    """A commutative product with the unit intact that is not associative
    must fail invariance or nondegeneracy (the lemma of
    ``frob._check_invariance``)."""

    @staticmethod
    def skewed(D):
        """D with every (1, 1) product set to basis[2][0] and basis[1][i] *
        basis[2][0] to (i+1) basis[3][0]: commutative with the same unit,
        but (e_i e_j) e_k - e_i (e_j e_k) = (k - i) basis[3][0]."""
        n = D.dims()[1]
        nonzero = dict(D.nonzero)
        nonzero[(1, 1)] = [{j: [(0, 1)] for j in range(n)} for _ in range(n)]
        nonzero[(1, 2)] = [{0: [(0, i + 1)]} for i in range(n)]
        denominators = {**D.denominators, (1, 1): 1, (1, 2): 1}
        return dataclasses.replace(D, nonzero=nonzero, denominators=denominators)

    def test_skewed_product_fails_invariance_and_nondegeneracy(self):
        """On projective-5 (dims [1, 101, 101, 1]) the reference finds the
        skewed product non-associative at degrees (1, 1, 1); the Gram ranks
        are computed from the skewed algebra itself: G_1 traces the (1, 2)
        products, all multiples of basis[3][0], so it has rank 1, and
        invariance fails at the first triple that reads them."""
        D = pencil_algebra(5, Fraction(0))
        bad = self.skewed(D)
        n = D.dims()[1]
        assert all(
            basis_product(bad, 1, i, 1, j) == basis_product(bad, 1, j, 1, i)
            for i in range(n)
            for j in range(n)
        )
        assert associativity_on_basis(bad, [(1, 1, 1)]) == CheckResult(
            False, 2, "(a,i,b,j,c,k) = (1, 0, 1, 0, 1, 1)"
        )
        report = frob.frobenius_axiom_check(bad)
        assert report.unit.ok
        assert report.nondegeneracy == CheckResult(False, 2, "G_1 is singular")
        assert assert_invariance_witness(report, D, bad) == (0, 0, 1, 0, 2, 0)


class TestExhaustiveChecksEqualTheBasisLoops:
    """The invariance check contracts the nonzero index once per degree
    triple; ``invariance_on_basis`` of ``reference`` compares one basis
    triple at a time.  Their ``CheckResult``s, ``checked`` and witness
    included, must be equal on each algebra and on seeded corruptions of its
    index.  ``associativity_on_basis``, the reference associativity check,
    witnesses the lemma of ``frob._check_invariance`` on the same
    corruptions."""

    NAMES = ["projective-3", "projective-4", "weighted-p112", "bundle-p2", "pencil-4"]
    SHARED = {
        "projective-3": "cubic_algebra",
        "projective-4": "quartic_algebra",
        "bundle-p2": "bundle_algebra",
    }
    SEEDS = 200

    @pytest.fixture(params=NAMES)
    def algebra(self, request):
        shared = self.SHARED.get(request.param)
        if shared is not None:
            return request.getfixturevalue(shared)
        if request.param == "pencil-4":
            return pencil_algebra(4, Fraction(1, 2))
        return frob.build_algebra(make_system(request.param))

    @staticmethod
    def corrupt(D, rng):
        """(kind, D with one seeded corruption of its nonzero index, in
        numerators): ``changed``, one to three constants moved by a small
        multiple of 1 or of the pair's denominator; ``added``, a constant
        where the index has none; ``cancelled``, a stored constant set to
        zero; ``asymmetric``, one side only of an off-diagonal entry of an
        (a, a) index with a = b + c for some degree triple (a, b, c), so
        2a <= m-1.  A kind with no candidate falls back to ``changed``."""
        dims, m = D.dims(), D.m
        keys = sorted(D.nonzero)
        stored = [
            (key, i, j, k, n)
            for key in keys
            for i, row in enumerate(D.nonzero[key])
            for j, entries in row.items()
            for k, n in entries
        ]
        held = {entry[:4] for entry in stored}
        empty = [
            (key, i, j, k)
            for key in keys
            for i in range(dims[key[0]])
            for j in range(dims[key[1]])
            for k in range(dims[sum(key)])
            if (key, i, j, k) not in held
        ]
        square = [(a, a) for a in range(1, m) if 2 * a <= m - 1 and dims[a] > 1]
        kind = rng.choice(["changed", "added", "cancelled", "asymmetric"])
        if kind == "added" and empty:
            key, i, j, k = rng.choice(empty)
            return kind, with_numerators(D, (key, i, j, k, rng.choice([-1, 1, 2])))
        if kind == "cancelled":
            key, i, j, k, n = rng.choice(stored)
            return kind, with_numerators(D, (key, i, j, k, -n))
        if kind == "asymmetric" and square:
            key = rng.choice(square)
            i, j = rng.sample(range(dims[key[0]]), 2)
            k = rng.randrange(dims[2 * key[0]])
            return kind, with_numerators(D, (key, i, j, k, rng.choice([-1, 1])))
        changes = []
        for _ in range(rng.randint(1, 3)):
            key = rng.choice(keys)
            a, b = key
            cell = (rng.randrange(dims[a]), rng.randrange(dims[b]), rng.randrange(dims[a + b]))
            scale = rng.choice([1, D.denominators[key]])
            changes.append((key, *cell, rng.choice([-2, -1, 1, 2]) * scale))
        return "changed", with_numerators(D, *changes)

    @staticmethod
    def checks(D):
        """The axiom check of D, its Gram ranks computed from D itself; the
        reference's invariance record; and the reference's associativity
        record on every degree triple."""
        m, dims = D.m, D.dims()
        on_socle = [
            t for t in degree_triples(D) if sum(t) == m - 1 and all(dims[d] for d in t)
        ]
        return (
            frob.frobenius_axiom_check(D),
            invariance_on_basis(D, on_socle),
            associativity_on_basis(D, degree_triples(D)),
        )

    def test_uncorrupted_algebra(self, algebra):
        report, invariance, associativity = self.checks(algebra)
        assert report.invariance == invariance
        assert report.all_pass
        assert associativity.ok

    def test_seeded_corruptions(self, algebra):
        """Each corruption gets the reference's invariance record, and each
        one that changes a constant fails unit, invariance or
        nondegeneracy: once those pass, every stored constant is R(f)'s
        (the lemma of ``frob._check_invariance``).  So every corruption that
        the reference finds non-associative fails one of the three, and the
        reference does find one on some seed."""
        failed = dict.fromkeys(["associativity", "invariance"], 0)
        for seed in range(self.SEEDS):
            kind, bad = self.corrupt(algebra, random.Random(seed))
            report, invariance, associativity = self.checks(bad)
            assert report.invariance == invariance, (seed, kind)
            failed["associativity"] += not associativity.ok
            failed["invariance"] += not invariance.ok
            if not associativity.ok:
                assert not report.all_pass, (seed, kind)
            if bad.nonzero == algebra.nonzero:
                assert report.all_pass, (seed, kind)
            else:
                assert not report.all_pass, (seed, kind)
        # neither count is vacuous: each reference fails on some seed
        assert all(failed.values()), failed

    def test_asymmetric_square_entry_is_read_in_its_own_orientation(self, quartic_algebra):
        """On projective-4 (m = 3) every degree triple has a zero degree, so
        both sides of each associativity triple read the same stored entry,
        and a one-sided change of the (1, 1) entry at (0, 1) passes the
        reference associativity check, which reads basis[1][i] *
        basis[1][mid] from row i of the (1, 1) index, as ``products(1, 1)``
        does.  Invariance sees the change, first in G_1 at <1 * e_0, e_1>."""
        D = quartic_algebra
        bad = with_numerators(D, ((1, 1), 0, 1, 0, 1))
        assert associativity_on_basis(bad, degree_triples(bad)) == CheckResult(True, 1144)
        report = frob.frobenius_axiom_check(bad)
        assert assert_invariance_witness(report, D, bad) == (0, 0, 1, 0, 1, 1)


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
        with pytest.raises(HypothesisFailed, match=r"dim R\(f\)_3b = 1,"):
            frob.build_algebra(system)


class TestHypothesisTable:
    """The report and build_algebra read one table, ``jacobian.HYPOTHESES``:
    a failing record of any entry is printed under its key, named in the
    failures and stops the report before the algebra, and build_algebra
    refuses with the same entry."""

    @pytest.mark.parametrize(
        "index", range(len(jac.HYPOTHESES)), ids=[n for n, _, _ in jac.HYPOTHESES]
    )
    def test_failing_entry_stops_both_readers(self, monkeypatch, index):
        failing = CheckResult(False, 1, "injected")
        table = list(jac.HYPOTHESES)
        name, key, _ = table[index]
        table[index] = (name, key, lambda system: failing)
        monkeypatch.setattr(jac, "HYPOTHESES", tuple(table))

        doc = get_fixture("projective-3").to_input_document()
        out, code = run_report(parse_run_config(doc, {"json_only": True}))
        assert code == 4
        assert out[key] == failing.as_dict()
        assert all(out[k]["pass"] for _, k, _ in table if k != key)
        assert out["failures"] == [name]
        assert out["hypotheses"]["quasi_smoothness"] == "inconsistent"
        assert "algebra" not in out and "error" not in out

        with pytest.raises(HypothesisFailed) as err:
            frob.build_algebra(make_system("projective-3"))
        assert (err.value.name, err.value.record) == (name, failing)
        assert str(err.value) == f"{name}: injected"
