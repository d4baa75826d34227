"""Independent reference implementations the tests compare the program with.

None of these is used by the program.  Each one is the plain, slow way to
compute what a kernel of ``lgfrob`` computes the fast way: dense Fraction
Gauss-Jordan next to the sparse integer ``EchelonBasis``, cofactor expansion
next to Bareiss, the anti-canonical polytope cone by cone next to the fan
validation that builds it, the product of the recorded factors next to the
modular elimination, a bounding-box sweep over brute-force vertices next
to the Fourier-Motzkin monomial enumeration, polynomial lifts next to the
direct trace, sums folded through the public operators next to the
parser's one-dict sums, the Hessian normalization of the trace on
projective space next to the toric Jacobian one, the toric Jacobian by
Cauchy-Binet next to its Laplace expansion, and a loop over every basis
triple next to the exhaustive axiom checks' contractions of the nonzero
index.
"""

from fractions import Fraction
from itertools import combinations
from math import ceil, floor, prod
from operator import mul

from lgfrob.poly import GradedPolynomial, _Parser, monomial_code
from lgfrob.toric import AnticanPolytope, CheckResult


def rref(matrix):
    """Reduced row echelon form over the rationals.

    Returns ``(R, rank, pivots)`` where ``R`` is the (unique) RREF as a list
    of Fraction rows, and ``pivots`` is the tuple of pivot column indices in
    increasing order.  Pivot choice is lowest column index first, then lowest
    row index.
    """
    rows = [[Fraction(x) for x in row] for row in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, r, tuple(pivots)


def rows_from_factorization(echelon, ncols):
    """Each row that ``linalg.rank_mod_p`` kept, rebuilt mod p as dense lists
    from its recorded step alone: 1/inverse times e_pivot + tail, plus x
    times pivot row c for each multiplier x at column c, right of the
    pivot."""
    p = echelon.p
    pivot_rows, out = {}, []
    for _, pivot, inverse, multipliers, tail in echelon.steps:
        unit = [0] * ncols
        unit[pivot] = 1
        for c, v in zip(*tail):
            unit[c] = v
        pivot_rows[pivot] = unit
        row = [x * pow(inverse, -1, p) % p for x in unit]
        for c, x in zip(*multipliers):
            row = [(a + x * b) % p for a, b in zip(row, pivot_rows[c])]
        out.append(row)
    return out


def det(a):
    """Determinant by cofactor expansion along the first row."""
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if not a[0][j]:
            continue
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        term = a[0][j] * det(minor)
        total += term if j % 2 == 0 else -term
    return total


def reference_polytope(fan):
    """The anti-canonical polytope cone by cone, as the program once built
    it apart from fan validation: the cofactor inverse (det, adj) of each
    cone matrix, the vertex -adj . 1 / det, which must be integral and
    satisfy <u, rho> >= -1 for every ray, and each repeated vertex kept
    once."""
    vertices, inverses, seen = [], [], set()
    for cone in fan.max_cones:
        a = fan.cone_matrix(cone)
        n = len(a)
        d = det(a)
        adj = [
            [
                (-1) ** (i + j)
                * det([row[:i] + row[i + 1 :] for k, row in enumerate(a) if k != j])
                for j in range(n)
            ]
            for i in range(n)
        ]
        sums = [sum(row) for row in adj]
        assert d and all(x % d == 0 for x in sums)
        vertex = tuple(-x // d for x in sums)
        if vertex in seen:
            continue
        assert all(sum(map(mul, vertex, ray)) >= -1 for ray in fan.rays)
        seen.add(vertex)
        vertices.append(vertex)
        inverses.append((d, adj))
    return AnticanPolytope(fan.dim, tuple(vertices), tuple(inverses))


def mat_vec_int(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def mat_mul_int(a, b):
    nb = len(b)
    cols = len(b[0]) if nb else 0
    return [
        [sum(row[k] * b[k][j] for k in range(nb)) for j in range(cols)]
        for row in a
    ]


def polytope_vertices(fan):
    """The vertices of Delta = {u : <u, rho> >= -1 for every ray rho} by
    brute force, for any complete fan whether or not it passes the fan
    checks: the solution of <u, rho> = -1 on each m linearly independent
    rays, kept when it satisfies every inequality."""
    m = fan.dim
    vertices = set()
    for rays in combinations(fan.rays, m):
        reduced, _, pivots = rref([list(ray) + [-1] for ray in rays])
        if pivots != tuple(range(m)):
            continue
        u = tuple(row[m] for row in reduced)
        if all(sum(map(mul, u, ray)) >= -1 for ray in fan.rays):
            vertices.add(u)
    return sorted(vertices)


def dilated_points(fan, vertices, a: int):
    """The exponent vectors e_i = <x, rho_i> + a of the lattice points x of
    the a-fold dilation of the anti-canonical polytope of ``fan``, in lex
    order of x, by a bounding-box sweep: x runs over the box of ``vertices``
    scaled by a, and is kept when <x, rho> >= -a for every ray.  The
    pairings <x, rho> are carried through the sweep, each step of x_k
    adding ray coordinate k, and a branch is cut as soon as some pairing
    falls below -a by more than the rest of the box can make up."""
    m = fan.dim
    lows = [ceil(a * min(v[k] for v in vertices)) for k in range(m)]
    highs = [floor(a * max(v[k] for v in vertices)) for k in range(m)]
    columns = [[ray[k] for ray in fan.rays] for k in range(m)]
    # reach[k][i]: the largest <y, rho_i> over box points y with y_0..y_k = 0
    extremes = [[max(r * lo, r * hi) for r, lo, hi in zip(ray, lows, highs)] for ray in fan.rays]
    reach = [[sum(e[k + 1 :]) for e in extremes] for k in range(m)]
    points = []

    def sweep(level: int, pairings: list[int]):
        column = columns[level]
        pairings = [p + lows[level] * c for p, c in zip(pairings, column)]
        for _ in range(lows[level], highs[level] + 1):
            if all(p + r >= -a for p, r in zip(pairings, reach[level])):
                if level + 1 < m:
                    sweep(level + 1, pairings)
                else:
                    points.append(tuple(p + a for p in pairings))
            pairings = [p + c for p, c in zip(pairings, column)]

    sweep(0, [0] * len(fan.rays))
    return points


def count_lattice_points_dilated(fan, polytope, a: int) -> int:
    """Independent lattice-point count of the a-fold dilation of the
    anti-canonical polytope of ``fan``: the bounding-box sweep of
    ``dilated_points`` over the box of the polytope's vertices."""
    return len(dilated_points(fan, polytope.vertices, a))


def lift(algebra, a: int, coords) -> GradedPolynomial:
    """The polynomial sum_i coords[i] * basis[a][i] of the quotient basis
    monomials of degree a beta."""
    piece = algebra.bases[a]
    terms = {mono: Fraction(c) for mono, c in zip(piece.basis, coords) if c != 0}
    return GradedPolynomial(algebra.system.variables, terms)


def hessian_determinant(system) -> GradedPolynomial:
    """det of the matrix of second partials of f, by Laplace expansion with
    memoization on (row offset, unused column set), in ``GradedPolynomial``
    arithmetic."""
    r = len(system.variables)
    second = [
        [system.partials[i].partial_derivative(j) for j in range(r)]
        for i in range(r)
    ]
    zero = GradedPolynomial.zero(system.variables)
    cache: dict[tuple[int, ...], GradedPolynomial] = {}

    def minor(cols: tuple[int, ...]) -> GradedPolynomial:
        if not cols:
            return GradedPolynomial.constant(system.variables, 1)
        got = cache.get(cols)
        if got is not None:
            return got
        row = r - len(cols)
        acc = zero
        for k, col in enumerate(cols):
            entry = second[row][col]
            if entry.is_zero():
                continue
            rest = cols[:k] + cols[k + 1 :]
            term = entry * minor(rest)
            acc = acc + term if k % 2 == 0 else acc - term
        cache[cols] = acc
        return acc

    return minor(tuple(range(r)))


def toric_jacobian_by_cauchy_binet(system):
    """J^Delta of ``system`` as {exponents: coefficient}, by Cauchy-Binet
    rather than by the Laplace expansion of ``frobenius.toric_jacobian``.
    theta_j z^t = l_j(t) z^t, so the matrix [theta_i theta_j f] is
    L^T diag(c_t z^t) L, where L has one row l_t = (1, l_1(t), ..., l_m(t))
    per term c_t z^t of f.  Its determinant is the sum over the
    (m+1)-subsets T of the terms of det(L_T)^2 prod_{t in T} c_t z^t, and
    J^Delta is that divided by z_1...z_r: a term that z_1...z_r does not
    divide keeps an exponent -1."""
    m, rays, terms = system.m, system.fan.rays, system.f.terms
    ell = {t: (1, *(sum(v[j] * e for v, e in zip(rays, t)) for j in range(m))) for t in terms}
    out = {}
    for subset in combinations(terms, m + 1):
        d = det([ell[t] for t in subset])
        if d:
            mono = tuple(sum(column) - 1 for column in zip(*subset))
            out[mono] = out.get(mono, 0) + d * d * prod(terms[t] for t in subset)
    return {mono: c for mono, c in out.items() if c}


class FoldingParser(_Parser):
    """The polynomial parser with every sum formed by the public operators:
    one new polynomial per '+' or '-', each built from its operands'
    terms."""

    def expr(self):
        kind, _, _ = self.tok.peek()
        negate = False
        if kind in ("+", "-"):
            self.tok.take()
            negate = kind == "-"
        poly = self.term()
        if negate:
            poly = -poly
        while True:
            kind, _, _ = self.tok.peek()
            if kind not in ("+", "-"):
                return poly
            self.tok.take()
            rhs = self.term()
            poly = poly - rhs if kind == "-" else poly + rhs


def basis_products(D, a, b):
    """(lookup, den): lookup(i, j) is the list of nonzero (k, n) of
    basis[a][i] * basis[b][j], read from the (a, b) nonzero index, or for
    a > b from the (b, a) index at (j, i); the constants are n / den."""
    if a <= b:
        index = D.nonzero[(a, b)]
        return (lambda i, j: index[i].get(j, [])), D.denominators[(a, b)]
    index = D.nonzero[(b, a)]
    return (lambda i, j: index[j].get(i, [])), D.denominators[(b, a)]


def _collect(pairs, scale):
    out = {}
    for n, y in pairs:
        out[n] = out.get(n, 0) + y
    return {n: y * scale for n, y in out.items() if y}


def associativity_on_basis(D, triples):
    """The exhaustive associativity check one basis triple at a time:
    (e_i e_j) e_k against e_i (e_j e_k) for every (i, j, k) of every degree
    triple of ``triples``, in that order, each side's int sums scaled by the
    other side's denominators; stops at the first triple that differs."""
    dims = D.dims()
    checked = 0
    for a, b, c in triples:
        ab, d_ab = basis_products(D, a, b)
        ab_c, d_ab_c = basis_products(D, a + b, c)
        bc, d_bc = basis_products(D, b, c)
        a_bc, d_a_bc = basis_products(D, a, b + c)
        for i in range(dims[a]):
            for j in range(dims[b]):
                for k in range(dims[c]):
                    checked += 1
                    lhs = _collect(
                        ((n, x * y) for mid, x in ab(i, j) for n, y in ab_c(mid, k)),
                        d_bc * d_a_bc,
                    )
                    rhs = _collect(
                        ((n, x * y) for mid, x in bc(j, k) for n, y in a_bc(i, mid)),
                        d_ab * d_ab_c,
                    )
                    if lhs != rhs:
                        return CheckResult(
                            False, checked, f"(a,i,b,j,c,k) = {(a, i, b, j, c, k)}"
                        )
    return CheckResult(True, checked)


def invariance_on_basis(D, degree_triples):
    """The exhaustive invariance check one basis triple at a time:
    <e_i e_j, e_k> summed over the nonzero index against the direct trace of
    z^i z^j z^k, one lookup in the trace table."""
    den, radix, table = D.trace_functional
    codes = [[monomial_code(mono, radix) for mono in p.basis] for p in D.bases]
    tau = [table.get(code, 0) for code in codes[D.m - 1]]
    checked = 0
    for a, b, c in degree_triples:
        ab, d_ab = basis_products(D, a, b)
        ab_c, d_ab_c = basis_products(D, a + b, c)
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


def rank_mod_p_steps(rows, ncols, p):
    """The steps of ``linalg.rank_mod_p`` with no early exit: every row is
    reduced over every column, from the last down, so a dependent row is
    seen to reduce to zero rather than skipped."""
    pivots, steps = {}, []
    for k, row in enumerate(rows):
        dense = [0] * ncols
        for c, x in row.items():
            dense[c] = x
        mcols, mvals = [], []
        for c in range(ncols - 1, -1, -1):
            x = dense[c] % p
            if not x:
                continue
            tail = pivots.get(c)
            if tail is None:
                inv = pow(x, -1, p)
                left = [b for b in range(c) if dense[b] % p]
                pivots[c] = tail = (tuple(left), tuple(dense[b] * inv % p for b in left))
                steps.append((k, c, inv, (tuple(mcols), tuple(mvals)), tail))
                break
            mcols.append(c)
            mvals.append(x)
            for b, y in zip(*tail):
                dense[b] -= x * y
    return steps
