"""Exact linear algebra kernel, one test class per kernel: the rank over Q
(an ``EchelonBasis``), the Bareiss inverse and determinant, Smith and Hermite
forms, integer solving, sparse echelon bases, connected blocks and the
modular rank prefilter.  The dense Gauss-Jordan and cofactor determinant of
``reference`` are the independent oracles; ``TestRref`` checks that
Gauss-Jordan itself on known answers."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, prod

import pytest
from reference import det as reference_det
from reference import mat_mul_int, rows_from_factorization, rref

from lgfrob import linalg


def random_matrix(rng, rows, cols, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def dense(rows, ncols):
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


class TestRref:
    def test_identity(self):
        reduced, rank, pivots = rref([[1, 0], [0, 1]])
        assert rank == 2
        assert pivots == (0, 1)
        assert reduced == [[1, 0], [0, 1]]

    def test_dependent_rows(self):
        reduced, rank, pivots = rref([[1, 2], [2, 4]])
        assert rank == 1
        assert pivots == (0,)

    def test_pivot_set_is_lex_minimal(self):
        # columns 0 and 2 independent, column 1 = 2 * column 0
        _, rank, pivots = rref([[1, 2, 0], [0, 0, 1], [1, 2, 1]])
        assert rank == 2
        assert pivots == (0, 2)


class TestRankRational:
    """``rank_rational`` is the rank of an ``EchelonBasis``; the reference
    Gauss-Jordan must give the same rank."""

    def test_agrees_with_reference_gauss_jordan(self):
        rng = random.Random(7)
        for _ in range(50):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            matrix = random_matrix(rng, rows, cols)
            assert linalg.rank_rational(matrix) == rref(matrix)[1]

    def test_large_denominators(self):
        """Fraction entries with denominators of up to 200 bits, rank
        deficient by construction: every row is a combination of ``inner``
        random rows."""
        rng = random.Random(71)

        def entry():
            return Fraction(rng.randint(-(2**60), 2**60), rng.randint(1, 2**200))

        for _ in range(30):
            rows, cols, inner = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 4)
            basis = [[entry() for _ in range(cols)] for _ in range(inner)]
            matrix = [
                [sum(c * b[j] for c, b in zip(cs, basis)) for j in range(cols)]
                for cs in ([entry() for _ in basis] for _ in range(rows))
            ]
            assert linalg.rank_rational(matrix) == rref(matrix)[1]

    def test_zero_rows(self):
        rng = random.Random(73)
        for _ in range(30):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            matrix = random_matrix(rng, rows, cols)
            for i in rng.sample(range(rows), rng.randint(1, rows)):
                matrix[i] = [Fraction(0)] * cols
            assert linalg.rank_rational(matrix) == rref(matrix)[1]
        assert linalg.rank_rational([[0, 0, 0], [0, 0, 0]]) == 0

    def test_empty_matrices(self):
        assert linalg.rank_rational([]) == rref([])[1] == 0
        assert linalg.rank_rational([[], []]) == rref([[], []])[1] == 0

    def test_stops_at_full_column_rank(self, monkeypatch):
        """Rows after the column rank is full are never inserted."""
        calls = []
        add_row = linalg.EchelonBasis.add_row

        def counted(self, row):
            calls.append(row)
            return add_row(self, row)

        monkeypatch.setattr(linalg.EchelonBasis, "add_row", counted)
        assert linalg.rank_rational([[1, 0], [0, 1], [1, 1], [2, 3]]) == 2
        assert len(calls) == 2


class TestDeterminant:
    """The determinant is the ``det`` of ``inverse_int``, 0 when it reports
    a singular matrix."""

    @staticmethod
    def det(a):
        inverse = linalg.inverse_int(a)
        return 0 if inverse is None else inverse[0]

    def test_known_values(self):
        assert self.det([[2, 0], [0, 3]]) == 6
        assert self.det([[1, 2], [3, 4]]) == -2
        assert self.det([[0, 1], [1, 0]]) == -1

    def test_matches_rational_elimination(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 5)
            a = random_matrix(rng, n, n)
            det = self.det(a)
            # det == 0 iff rank deficient; sign and magnitude against the
            # cofactor expansion for small n
            if n <= 3:
                assert det == reference_det(a)
            assert (det == 0) == (linalg.rank_rational(a) < n)


def rref_inverse(a):
    """Reference: the right block of the RREF of [A | I], or None."""
    n = len(a)
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    reduced, _, pivots = rref(aug)
    if pivots[:n] != tuple(range(n)):
        return None
    return [row[n:] for row in reduced]


class TestInverseInt:
    def test_matches_rref_inverse(self):
        """Small entries, so zero pivots (row swaps) and singular matrices
        both occur."""
        rng = random.Random(13)
        singular = swapped = 0
        for _ in range(300):
            n = rng.randint(1, 5)
            a = random_matrix(rng, n, n, -2, 2)
            want = rref_inverse(a)
            got = linalg.inverse_int(a)
            if want is None:
                assert got is None
                singular += 1
                continue
            det, adj = got
            assert det == reference_det(a)
            assert [[Fraction(x, det) for x in row] for row in adj] == want
            swapped += a[0][0] == 0
        assert singular and swapped

    @pytest.mark.parametrize(
        "matrix", [[[0]], [[1, 2], [2, 4]], [[0, 1, 0], [0, 0, 1], [0, 1, 1]]]
    )
    def test_singular_matrix_is_reported(self, matrix):
        assert linalg.inverse_int(matrix) is None

    def test_row_swap_keeps_the_sign(self):
        assert linalg.inverse_int([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])


class TestSmithNormalForm:
    def check_certificate(self, a):
        u, d, v = linalg.smith_normal_form(a)
        rows, cols = len(a), len(a[0])
        assert abs(reference_det(u)) == 1
        assert abs(reference_det(v)) == 1
        product = mat_mul_int(mat_mul_int(u, a), v)
        assert product == d
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(len(diag)):
            assert d[i][i] >= 0
            for j in range(cols):
                if j != i:
                    assert d[i][j] == 0
        nonzero = [x for x in diag if x]
        for prev, cur in zip(nonzero, nonzero[1:]):
            assert cur % prev == 0

    def test_diagonal_example(self):
        _, d, _ = linalg.smith_normal_form([[2, 0], [0, 3]])
        assert [d[0][0], d[1][1]] == [1, 6]

    def test_randomized_certificates(self):
        rng = random.Random(3)
        for _ in range(150):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            self.check_certificate(random_matrix(rng, rows, cols))

    @staticmethod
    def determinantal_divisors(a):
        """gcd of the k x k minors of ``a`` for k = 1 .. min(rows, cols),
        each minor a cofactor determinant."""
        rows, cols = len(a), len(a[0])
        out = []
        for k in range(1, min(rows, cols) + 1):
            g = 0
            for rs in combinations(range(rows), k):
                for cs in combinations(range(cols), k):
                    g = gcd(g, reference_det([[a[i][j] for j in cs] for i in rs]))
            out.append(g)
        return out

    @staticmethod
    def oracle_matrix(rng):
        """A matrix of up to 6 x 6 with entries of at most 10^6: dense, small
        (so that invariant factors other than 1 are common), a product of
        rank at most min(rows, cols) - 1, or rows scaled by small factors;
        a third of them get a zero row or a zero column."""
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        kind = rng.choice(["dense", "small", "low-rank", "scaled"])
        if kind == "dense":
            a = random_matrix(rng, rows, cols, -(10**6), 10**6)
        elif kind == "small":
            a = random_matrix(rng, rows, cols, -3, 3)
        elif kind == "low-rank":
            r = rng.randint(0, min(rows, cols) - 1)
            b = random_matrix(rng, rows, r, -1000, 1000)
            c = random_matrix(rng, r, cols, -(1000 // max(r, 1)), 1000 // max(r, 1))
            a = mat_mul_int(b, c) if r else [[0] * cols for _ in range(rows)]
        else:
            a = [[rng.choice([1, 2, 3, 4, 6]) * x for x in row]
                 for row in random_matrix(rng, rows, cols, -300, 300)]
        if rng.random() < 1 / 6:
            a[rng.randrange(rows)] = [0] * cols
        elif rng.random() < 1 / 5:
            j = rng.randrange(cols)
            for row in a:
                row[j] = 0
        return a

    def test_determinantal_divisor_oracle(self, deadline):
        """d_1 ... d_k is the gcd of the k x k minors, on 1,200 seeded
        matrices; each Smith form must take under 0.5 s (a few ms here)."""
        rng = random.Random(2029)
        for _ in range(1200):
            a = self.oracle_matrix(rng)
            with deadline(0.5):
                u, d, v = linalg.smith_normal_form(a)
            assert mat_mul_int(mat_mul_int(u, a), v) == d
            assert abs(reference_det(u)) == abs(reference_det(v)) == 1
            diag = [d[i][i] for i in range(min(len(a), len(a[0])))]
            assert all(x == 0 for i, row in enumerate(d) for j, x in enumerate(row) if i != j)
            assert all(x >= 0 for x in diag)
            for prev, cur in zip(diag, diag[1:]):
                assert cur % prev == 0 if prev else cur == 0
            divisors = self.determinantal_divisors(a)
            assert [prod(diag[:k]) for k in range(1, len(diag) + 1)] == divisors

    def test_projective_ray_matrix_torsion_free(self):
        rays = [[1, 0], [0, 1], [-1, -1]]
        assert linalg.invariant_factors(rays) == [1, 1]

    def test_torsion_detected(self):
        # cokernel of [[2]] is Z/2
        assert linalg.invariant_factors([[2]]) == [2]


class TestHermiteRowCanonical:
    def test_pivots_positive_and_reduced(self):
        rng = random.Random(13)
        for _ in range(100):
            rows, cols = rng.randint(1, 4), rng.randint(1, 5)
            matrix = random_matrix(rng, rows, cols)
            h = linalg.hermite_row_canonical(matrix)
            rank = linalg.rank_rational(matrix)
            # dependent rows are eliminated to zero and sink to the bottom
            assert all(not any(row) for row in h[rank:])
            pivot_cols = []
            for row in h[:rank]:
                p = next(j for j, x in enumerate(row) if x)
                assert row[p] > 0
                pivot_cols.append(p)
            assert pivot_cols == sorted(pivot_cols)
            for i in range(rank):
                p = pivot_cols[i]
                for k in range(i):
                    assert 0 <= h[k][p] < h[i][p]

    def test_invariant_under_row_operations(self):
        rng = random.Random(17)
        for _ in range(60):
            base = random_matrix(rng, 2, 4)
            if linalg.rank_rational(base) < 2:
                continue
            mixed = [
                [base[0][j] + 3 * base[1][j] for j in range(4)],
                [-base[1][j] for j in range(4)],
            ]
            assert linalg.hermite_row_canonical(base) == linalg.hermite_row_canonical(mixed)


class TestEchelonBasis:
    def test_rank_and_reduce(self):
        basis = linalg.EchelonBasis(3)
        assert basis.add_row({0: 1, 1: 1})
        assert basis.add_row({1: 2})
        assert not basis.add_row({0: 2, 1: 4})  # dependent
        assert basis.rank == 2
        rem = basis.reduce({0: 1, 1: 5, 2: 7})
        assert rem == {2: Fraction(7)}

    def test_reduce_is_linear(self):
        rng = random.Random(23)
        for _ in range(30):
            cols = rng.randint(2, 6)
            basis = linalg.EchelonBasis(cols)
            for _ in range(rng.randint(1, 5)):
                basis.add_row(
                    {j: rng.randint(-4, 4) for j in range(cols) if rng.random() < 0.7}
                )
            u = {j: Fraction(rng.randint(-4, 4)) for j in range(cols)}
            v = {j: Fraction(rng.randint(-4, 4)) for j in range(cols)}
            s = Fraction(rng.randint(-3, 3))
            combo = {j: s * u.get(j, 0) + v.get(j, 0) for j in range(cols)}
            left = basis.reduce(combo)
            ru, rv = basis.reduce(u), basis.reduce(v)
            right = {}
            for j in set(ru) | set(rv):
                val = s * ru.get(j, Fraction(0)) + rv.get(j, Fraction(0))
                if val:
                    right[j] = val
            assert left == right

    def test_reduction_kills_row_space(self):
        rng = random.Random(29)
        for _ in range(30):
            cols = rng.randint(2, 6)
            rows = [
                {j: rng.randint(-4, 4) for j in range(cols) if rng.random() < 0.7}
                for _ in range(rng.randint(1, 5))
            ]
            basis = linalg.EchelonBasis(cols)
            for row in rows:
                basis.add_row(row)
            # random combination of rows must reduce to zero
            combo: dict[int, Fraction] = {}
            for row in rows:
                c = Fraction(rng.randint(-3, 3))
                for j, x in row.items():
                    combo[j] = combo.get(j, Fraction(0)) + c * x
            assert basis.reduce(combo) == {}


class TestClearDenominators:
    def test_numerators_over_one_lcm(self):
        """An int has denominator 1, a zero value is dropped, and every other
        value comes out as its numerator over the lcm of all denominators."""
        mapping = {"a": 3, "b": Fraction(1, 4), "c": 0, "d": Fraction(-5, 6), "e": Fraction(0)}
        assert linalg.clear_denominators(mapping) == (12, {"a": 36, "b": 3, "d": -10})
        assert linalg.clear_denominators({0: 2, 1: -7}) == (1, {0: 2, 1: -7})


class TestRankModP:
    def test_lower_bounds_exact_rank(self):
        rng = random.Random(31)
        for _ in range(60):
            rows_n, cols = rng.randint(1, 6), rng.randint(1, 6)
            dense = random_matrix(rng, rows_n, cols, -20, 20)
            sparse = [{j: x for j, x in enumerate(row) if x} for row in dense]
            exact = linalg.rank_rational(dense)
            modular = linalg.rank_mod_p(sparse, cols).rank
            assert modular <= exact
            # entries far below the prime: equality expected
            assert modular == exact

    def test_agrees_with_rank_rational(self):
        rng = random.Random(37)
        dense = random_matrix(rng, 10, 8, -50, 50)
        sparse = [{j: x for j, x in enumerate(row) if x} for row in dense]
        assert linalg.rank_mod_p(
            sparse, 8, linalg.PREFILTER_PRIME
        ).rank == linalg.rank_rational(dense)

    @pytest.mark.parametrize(
        "shape, inner",
        [
            ((12, 5), 5),  # tall, full column rank long before the last row
            ((12, 7), 3),  # tall, rank 3 reached before the last row
            ((4, 9), 4),  # wide
            ((6, 6), 2),  # square, rank deficient
            ((0, 4), 1),  # no rows at all
        ],
    )
    def test_modular_kernels_agree_with_exact_rank(self, shape, inner):
        """Seeded integer matrices of known shape and inner dimension: the
        modular kernel and the exact echelon give the same rank, also when
        entries are shifted by multiples of p (which vanish mod p), when a
        row is zero mod p but not over Q, when an empty row is added, and
        when each row lists its columns in descending order."""
        p = linalg.PREFILTER_PRIME
        rng = random.Random(41 + shape[0] * shape[1] + inner)
        rows_n, cols = shape
        for _ in range(10):
            left = random_matrix(rng, rows_n, inner, -4, 4)
            right = random_matrix(rng, inner, cols, -4, 4)
            product = mat_mul_int(left, right)
            if rows_n:
                zero = rng.randrange(rows_n)
                product[zero] = [0] * cols
            exact = linalg.rank_rational(product)
            shifted = [
                {j: x + p * rng.randint(-3, 3) for j, x in enumerate(row)}
                for row in product
            ]
            if rows_n:
                shifted[zero] = {j: p * rng.choice((-2, -1, 1, 2)) for j in range(cols)}
            shifted = [
                {j: row[j] for j in sorted(row, reverse=True) if row[j]}
                for row in shifted
            ]
            shifted.insert(rng.randint(0, len(shifted)), {})
            modular = linalg.rank_mod_p(shifted, cols, p).rank
            assert modular == exact <= min(rows_n, cols, inner)

    @pytest.mark.parametrize(
        "rows, ncols, want",
        [
            ([{0: 1}, {1: 1}, {0: 1, 1: 1}, {2: 1}], 3, [0, 1, 3]),
            # the third row ends left of the first missing pivot (2) but is
            # not in the span of the first two: pivots 0..top must be full
            ([{0: 1, 2: 1}, {1: 1}, {0: 1}], 3, [0, 1, 2]),
        ],
    )
    def test_row_basis_known_answers(self, rows, ncols, want):
        assert linalg.rank_mod_p(rows, ncols).rows == want

    def test_row_basis_is_independent_and_spans(self):
        """Random row orders with zero and duplicate rows: the returned rows
        are independent over Q, ascending, and as many as the rank of all
        the rows."""
        rng = random.Random(47)
        for _ in range(200):
            cols = rng.randint(1, 7)
            rows = [
                {j: x for j in range(cols) if (x := rng.randint(-3, 3)) and rng.random() < 0.4}
                for _ in range(rng.randint(1, 9))
            ]
            rows += [rng.choice(rows) for _ in range(rng.randint(0, 3))] + [{}]
            rng.shuffle(rows)
            basis = linalg.rank_mod_p(rows, cols).rows
            assert basis == sorted(set(basis))
            assert linalg.rank_rational(dense([rows[i] for i in basis], cols)) == len(basis)
            assert len(basis) == linalg.rank_rational(dense(rows, cols))

    @staticmethod
    def shifted_matrices(p):
        """100 seeded matrices of up to 9 rows and 7 columns, entries in
        [-3, 3] shifted by multiples of p."""
        rng = random.Random(67 + p % 7)
        for _ in range(100):
            cols = rng.randint(1, 7)
            rows = [
                {j: rng.randint(-3, 3) + p * rng.randint(-2, 2) for j in range(cols)
                 if rng.random() < 0.5}
                for _ in range(rng.randint(1, 9))
            ]
            yield rows, cols

    @pytest.mark.parametrize("p", [3, linalg.PREFILTER_PRIME, 2**31 - 1])
    def test_factorization_rebuilds_the_kept_rows(self, p):
        """Seeded matrices with entries shifted by multiples of p: the
        recorded step of each kept row rebuilds that row mod p, for the
        default prime and for 2^31 - 1, the largest prime accepted, and a
        prime above 2^31, outside the accepted range, is refused."""
        for rows, cols in self.shifted_matrices(p):
            basis = linalg.rank_mod_p(rows, cols, p)
            assert rows_from_factorization(basis, cols) == [
                [rows[k].get(c, 0) % p for c in range(cols)] for k in basis.rows
            ]
        with pytest.raises(ValueError):
            linalg.rank_mod_p([{0: 1}], 1, (1 << 31) + 11)

    @pytest.mark.parametrize("p", [3, linalg.PREFILTER_PRIME, 2**31 - 1])
    def test_factorization_pivots_on_the_highest_column(self, p):
        """The shape the lift's sweeps rely on: each tail lies strictly left
        of its pivot, each multiplier sits at the pivot of an earlier step,
        strictly right of its own pivot, and every recorded value is a
        nonzero residue mod p."""
        for rows, cols in self.shifted_matrices(p):
            earlier = set()
            for _, pivot, inverse, multipliers, tail in linalg.rank_mod_p(rows, cols, p).steps:
                assert all(c < pivot for c in tail[0])
                assert all(c > pivot and c in earlier for c in multipliers[0])
                assert all(0 < x < p for x in (inverse, *tail[1], *multipliers[1]))
                earlier.add(pivot)

    def test_prefilter_prime_is_the_largest_prime_below_2_30(self):
        """By trial division: the default prime is prime and below 2^30, so
        each residue is one 30-bit CPython digit, and no larger prime is."""

        def is_prime(n):
            return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))

        p = linalg.PREFILTER_PRIME
        assert p < 1 << 30 and is_prime(p)
        assert not any(is_prime(n) for n in range(p + 1, 1 << 30))


def sparse(matrix):
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


def null_space_rref(matrix, ncols):
    """RREF of the reference null space: for each non-pivot b of the RREF
    of ``matrix``, x_b = 1 and x at pivot i = -R[i][b]."""
    reduced, rank, pivots = rref(matrix)
    basis = []
    for b in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[b] = Fraction(1)
        for i, c in enumerate(pivots):
            x[c] = -reduced[i][b]
        basis.append(x)
    return rref(basis)[0] if basis else []


def assert_lifted_block(rows, ncols, p=linalg.PREFILTER_PRIME):
    """The lifted kernel spans the reference null space, and the rows that
    ``add_kernel_rows`` stores are the RREF rows of the matrix, each scaled
    to integers with content 1 and a positive pivot."""
    matrix = dense(rows, ncols)
    basis = linalg.rank_mod_p(rows, ncols, p)
    kernel = linalg.lift_kernel(rows, ncols, basis)
    assert kernel is not None and len(kernel) == ncols - basis.rank
    assert rref(kernel)[0] == null_space_rref(matrix, ncols)
    reduced, rank, pivots = rref(matrix)
    echelon = linalg.EchelonBasis(ncols)
    echelon.add_kernel_rows(range(ncols), kernel)
    assert echelon.pivots == pivots
    for i, c in enumerate(pivots):
        row = echelon.rows[c]
        assert row[c] > 0 and gcd(*row.values()) == 1
        assert {j: Fraction(x, row[c]) for j, x in row.items()} == {
            j: x for j, x in enumerate(reduced[i]) if x
        }
    return basis, kernel


class TestLiftKernel:
    @pytest.mark.parametrize("corank", [1, 2, 3])
    def test_large_kernels_match_reference(self, corank):
        """Seeded matrices of 36 columns and corank 1 to 3, with more rows
        than columns (a basis and random integer combinations of it):
        kernel entries run above 200 bits, and the lift reproduces the
        reference null space and the RREF exactly."""
        rng = random.Random(53 + corank)
        ncols = 36
        top = random_matrix(rng, ncols - corank, ncols, -99, 99)
        mix = random_matrix(rng, corank + 3, ncols - corank, -2, 2)
        rows = sparse(top + mat_mul_int(mix, top))
        _, kernel = assert_lifted_block(rows, ncols)
        assert max(abs(x).bit_length() for v in kernel for x in v) > 200

    def test_free_columns_mod_p_differ_from_canonical(self):
        """3 divides the pivot 3 of the first row, so mod 3 the free column
        is 0 while the canonical non-pivot is 2; the lift still gives the
        RREF [[1, 0, -1/3], [0, 1, 1]]."""
        rows = [{0: 3, 1: 1}, {1: 1, 2: 1}, {0: 3, 1: 2, 2: 1}]
        basis, kernel = assert_lifted_block(rows, 3, p=3)
        assert {0, 1, 2} - {step[1] for step in basis.steps} == {0}
        assert kernel == [[1, -3, 3]]

    def test_random_small_prime_pivots(self):
        """Seeded 4 to 7 column matrices at p = 5 whose rank mod 5 equals
        their rank over Q: whenever the free columns mod 5 differ from the
        canonical non-pivots, the lift still gives the reference RREF."""
        rng = random.Random(59)
        differ = 0
        for _ in range(120):
            ncols = rng.randint(4, 7)
            top = random_matrix(rng, rng.randint(1, ncols - 1), ncols, -6, 6)
            rows = sparse(top + mat_mul_int(random_matrix(rng, 3, len(top), -2, 2), top))
            exact = linalg.rank_rational(dense(rows, ncols))
            basis = linalg.rank_mod_p(rows, ncols, 5)
            if basis.rank != exact or exact == ncols:
                continue
            free = {c for c in range(ncols)} - {step[1] for step in basis.steps}
            differ += free != set(range(ncols)) - set(rref(dense(rows, ncols))[2])
            assert_lifted_block(rows, ncols, p=5)
        assert differ >= 10

    def test_rank_over_q_above_rank_mod_p_is_reported(self, monkeypatch):
        """Mod 3 the rows [10, 10] and [1, 4] agree, so rank mod 3 is 1 and
        the rank over Q 2.  The lift runs on the row basis [10, 10] alone,
        whose kernel vector (1, -1) is reconstructed at the first step and
        annihilates it exactly; [1, 4] does not, which proves the rank over
        Q higher, so the lift returns None after one reconstruction, not at
        its bound 3^6 > 2 * 200.  The same holds for [1, 1 + 3^5], which
        meets (1, -1) only in 3^5: a lift that carried its residual would
        see it divisible by 3 for five steps.  Seeded random matrices whose
        rank mod 3 falls short are reported as well."""
        rows = [{0: 10, 1: 10}, {0: 1, 1: 4}]
        basis = linalg.rank_mod_p(rows, 2, 3)
        assert basis.rank == 1
        original, calls = linalg.reconstruct_vector, []

        def counting(x, m):
            calls.append(m)
            return original(x, m)

        monkeypatch.setattr(linalg, "reconstruct_vector", counting)
        assert linalg.lift_kernel(rows, 2, basis) is None
        assert calls == [3]
        rows = [{0: 1, 1: 1}, {0: 1, 1: 1 + 3**5}]
        calls.clear()
        assert linalg.lift_kernel(rows, 2, linalg.rank_mod_p(rows, 2, 3)) is None
        assert calls == [3]
        rng = random.Random(61)
        missed = 0
        for _ in range(300):
            ncols = rng.randint(2, 6)
            rows = sparse(random_matrix(rng, ncols + 1, ncols, -4, 4))
            basis = linalg.rank_mod_p(rows, ncols, 3)
            if basis.rank < linalg.rank_rational(dense(rows, ncols)):
                missed += 1
                assert linalg.lift_kernel(rows, ncols, basis) is None
        assert missed >= 10

    def test_reconstruction(self):
        """Wang's reconstruction recovers n/d from n / d mod m when |n| and d
        are at most isqrt(m // 2); a vector is put over one common
        denominator, or refused when that denominator would exceed it."""
        m = 5**40
        for n, d in [(0, 1), (5, 1), (-7, 3), (123457, 789), (-1, 2**20)]:
            u = n * pow(d, -1, m) % m
            assert linalg.rational_reconstruction(u, m, isqrt(m // 2)) == (n, d)
        thirds = [pow(2, -1, m), pow(3, -1, m), 5 * pow(6, -1, m) % m]
        assert linalg.reconstruct_vector(thirds, m) == [3, 2, 5]
        # at m = 49 the bound is 4: 1/3 and 1/2 fit, their denominator 6 not
        assert linalg.reconstruct_vector([pow(3, -1, 49), pow(2, -1, 49)], 49) is None


class TestConnectedBlocks:
    def test_components_and_order(self):
        rows = [{3: 1, 5: 2}, {0: 1}, {5: 1, 6: -1}, {}, {1: 4, 0: 1}, {4: 2}]
        blocks = linalg.connected_blocks(rows, 8)
        assert blocks == [
            ([0, 1], [1, 4]),
            ([3, 5, 6], [0, 2]),
            ([4], [5]),
        ]  # column 2 and 7 lie in no row, the empty row in no block

    def test_partition_of_random_rows(self):
        rng = random.Random(43)
        ncols = 40
        rows = [
            {c: rng.randint(1, 9) for c in rng.sample(range(ncols), rng.randint(1, 3))}
            for _ in range(25)
        ]
        blocks = linalg.connected_blocks(rows, ncols)
        seen_rows = sorted(i for _, ids in blocks for i in ids)
        assert seen_rows == list(range(len(rows)))
        owner = {c: k for k, (cols, _) in enumerate(blocks) for c in cols}
        assert len(owner) == sum(len(cols) for cols, _ in blocks)
        assert set(owner) == {c for row in rows for c in row}
        for k, (cols, ids) in enumerate(blocks):
            assert cols == sorted(cols) and ids == sorted(ids)
            assert all(owner[c] == k for i in ids for c in rows[i])
        assert [cols[0] for cols, _ in blocks] == sorted(cols[0] for cols, _ in blocks)
        # the direct sum: ranks of the blocks add up to the rank
        total = sum(
            linalg.rank_rational(dense([rows[i] for i in ids], ncols))
            for _, ids in blocks
        )
        assert total == linalg.rank_rational(dense(rows, ncols))


def short_rows_then_rest(rows, ncols):
    """``add_short_rows`` on copies of ``rows``, then ``add_row`` on every
    row it leaves; returns the echelon, the counters and the rows left."""
    echelon, left = linalg.EchelonBasis(ncols), [dict(row) for row in rows]
    counters = echelon.add_short_rows(left)
    for row in left:
        echelon.add_row(row)
    return echelon, counters, left


def assert_same_row_space(echelon, rows, ncols):
    """Same pivots and the same canonical remainder of every column as the
    plain echelon of ``rows``; back substitution through the stored rows
    reads the same remainders."""
    plain = linalg.EchelonBasis(ncols)
    for row in rows:
        plain.add_row(row)
    assert echelon.pivots == plain.pivots
    free = [c for c in range(ncols) if c not in plain.rows]
    table = [{c: Fraction(1)} if c in free else {} for c in range(ncols)]
    echelon.back_substitute(table, range(ncols))
    for c in range(ncols):
        assert echelon.reduce({c: 1}) == plain.reduce({c: 1}) == table[c]


class TestShortRows:
    """Structural elimination of the rows with one or two entries."""

    def test_cascade(self):
        """The unit column 3 makes the class {2, 3} zero, which leaves the
        first row with two entries in the second sweep: e_0 = -3/2 e_1."""
        rows = [{0: 2, 1: 3, 2: 1}, {2: 5, 3: 1}, {3: 7}]
        echelon, counters, left = short_rows_then_rest(rows, 4)
        assert (counters, left) == ((2, 1), [])
        assert echelon.rows == {2: {2: 1}, 3: {3: 1}, 0: {0: 2, 1: 3}}
        assert_same_row_space(echelon, rows, 4)

    def test_two_term_row_becomes_one_term(self):
        """Once column 1 is a unit, the two-term row {0, 1} is e_0 alone,
        and then the three-term row is 5 e_2 + 6 e_3."""
        rows = [{1: 4}, {0: 3, 1: 5}, {0: 1, 2: 5, 3: 6}, {3: 1, 4: 1, 5: 1}]
        echelon, counters, left = short_rows_then_rest(rows, 6)
        assert counters == (2, 1)
        assert echelon.rows[2] == {2: 5, 3: 6}
        assert left == [{4: 1, 5: 1, 3: 1}]
        assert_same_row_space(echelon, rows, 6)

    def test_cycle_whose_ratios_agree(self):
        """e_0 = e_1 = 2 e_2 and e_0 = 2 e_2: the third row is redundant."""
        rows = [{0: 1, 1: -1}, {1: 1, 2: -2}, {0: 1, 2: -2}]
        echelon, counters, _ = short_rows_then_rest(rows, 3)
        assert counters == (0, 2)
        assert echelon.rows == {0: {0: 1, 2: -2}, 1: {1: 1, 2: -2}}
        assert_same_row_space(echelon, rows, 3)

    def test_cycle_whose_ratios_disagree(self):
        """e_0 = e_1 = 2 e_2 but e_0 = 3 e_2: e_2, and so the whole class,
        lies in the row space."""
        rows = [{0: 1, 1: -1}, {1: 1, 2: -2}, {0: 1, 2: -3}]
        echelon, counters, _ = short_rows_then_rest(rows, 3)
        assert counters == (3, 0)
        assert echelon.rows == {c: {c: 1} for c in range(3)}
        assert_same_row_space(echelon, rows, 3)

    def test_representative_is_the_highest_column(self):
        """The classes {0, 1} and {3, 4} meet through the row {1, 3}; every
        member is a pivot and 4, the highest, the one non-pivot."""
        rows = [{0: 1, 1: 1}, {3: 1, 4: 1}, {1: 1, 3: 1}]
        echelon, counters, _ = short_rows_then_rest(rows, 5)
        assert counters == (0, 3)
        assert echelon.pivots == (0, 1, 3)
        assert all(max(row) == 4 for row in echelon.rows.values())
        assert_same_row_space(echelon, rows, 5)

    def test_random_rows_match_the_plain_echelon(self):
        """Rows of one to four entries on few columns, so that classes,
        cycles and cascades are common."""
        rng = random.Random(30)
        for _ in range(300):
            ncols = rng.randint(2, 9)
            rows = [
                {c: rng.choice([-3, -2, -1, 1, 2, 3])
                 for c in rng.sample(range(ncols), rng.randint(1, min(4, ncols)))}
                for _ in range(rng.randint(1, 8))
            ]
            echelon, _, left = short_rows_then_rest(rows, ncols)
            assert all(len(row) > 2 for row in left)
            assert_same_row_space(echelon, rows, ncols)
