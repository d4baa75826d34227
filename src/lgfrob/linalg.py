"""Exact integer and rational linear algebra kernel.

One kernel per job:

  * ``EchelonBasis.add_short_rows`` is the one structural pass: exact over
    Q, it takes every row of one or two entries, and every row that comes
    down to that once taken columns drop out, before the block split;
  * ``rank_mod_p`` is the one modular kernel: its row basis certifies a
    block of full column rank, and the factorization it records on the way
    serves the lift;
  * ``lift_kernel`` is the one lift: the kernel of a block of lower rank mod
    p, lifted p-adically on the rows of the modular row basis alone,
    reconstructed and verified exactly against every row, or None when the
    rank over Q is higher than mod p;
    ``EchelonBasis.add_kernel_rows`` stores the block's reduced rows from it;
  * ``EchelonBasis`` does all other rational elimination: the blocks that
    are neither certified nor lifted, and ``rank_rational`` (e.g. of the
    Gram matrices).  Rows are integer sparse dicts (denominators cleared,
    content removed), so its inner loop is integer rather than Fraction
    arithmetic;
  * ``inverse_int`` is the one Bareiss routine: ``(det, adj)`` of a cone
    matrix, of a lifted kernel on its non-pivots, of the unimodular Hermite
    factor whose inverse holds the class-group section, and of the degrees
    that fix a stated-degree transform; and the determinant wherever one is
    needed;
  * ``hermite_row_canonical`` is the one integer elimination: the
    class-group grading reads its degree basis off one Hermite form, and
    ``smith_normal_form`` (with ``invariant_factors``) alternates Hermite
    forms of its rows and columns;
  * ``clear_denominators`` turns rationals into integers over one lcm;
  * ``connected_blocks`` splits a sparse matrix into independent blocks.

Conventions:
  * dense matrices are lists of lists, row major;
  * sparse rows are dicts mapping column index -> nonzero value;
  * the pivot of an echelon row is its lowest nonzero column, so the pivot
    column set of any row space is canonical (it equals the RREF pivot set).
    ``rank_mod_p`` alone pivots on the highest, because its callers take
    rows by highest column; its free columns need not be the canonical
    non-pivots, which ``add_kernel_rows`` derives from the kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import Iterable, Mapping, Sequence

# Prime of the modular full-rank certificate: the largest prime below 2^30.
# Every residue then fits one 30-bit CPython digit, so each ``% p`` of the
# modular kernel takes the single-digit-divisor path instead of general long
# division.
PREFILTER_PRIME = 1073741789


# ---------------------------------------------------------------------------
# integer helpers


def identity_int(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def inverse_int(matrix: Sequence[Sequence[int]]):
    """``(det, adj)`` with ``A @ adj == det * I`` for a nonsingular square
    integer matrix ``A``, so ``A^-1 = adj / det``; None when ``A`` is
    singular.

    Fraction-free Gauss-Jordan on ``[A | I]`` with Bareiss's exact division
    by the previous pivot: every entry stays an integer minor, and at the end
    the left block is ``d * I`` and the right block ``d * A^-1``, where
    ``d = det(A)`` up to the sign of the row swaps.
    """
    n = len(matrix)
    m = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(matrix)]
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return None
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot_row = m[k]
        pivot = pivot_row[k]
        for i in range(n):
            if i == k:
                continue
            row = m[i]
            factor = row[k]
            m[i] = [(pivot * x - factor * y) // prev for x, y in zip(row, pivot_row)]
        prev = pivot
    adj = [row[n:] for row in m]
    if sign < 0:
        return -prev, [[-x for x in row] for row in adj]
    return prev, adj


# ---------------------------------------------------------------------------
# Hermite normal form (row style), the one integer elimination, and what is
# computed on it: the Smith form and invariant factors


def hermite_row_canonical(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of an integer matrix.

    Pivots are positive, entries above a pivot are reduced into [0, pivot).
    Left multiplication by a unimodular matrix, so the row lattice is
    preserved; the output is the canonical basis of that lattice.
    """
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        # Euclidean elimination in column c below row r
        while True:
            nz = [i for i in range(r, nrows) if rows[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(rows[i][c]), i))
            rows[r], rows[i0] = rows[i0], rows[r]
            done = True
            for i in range(r + 1, nrows):
                if rows[i][c] != 0:
                    q = rows[i][c] // rows[r][c]
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                    if rows[i][c] != 0:
                        done = False
            if done:
                break
        if rows[r][c] == 0:
            continue
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return rows


def _hermite_beside(a: list[list[int]], t: list[list[int]]):
    """``(W a, W t)`` for the unimodular W that ``hermite_row_canonical``
    applies to ``[a | t]``."""
    n = len(a[0]) if a else 0
    h = hermite_row_canonical([x + y for x, y in zip(a, t)])
    return [row[:n] for row in h], [row[n:] for row in h]


def _transpose(a: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*a)]


def smith_normal_form(matrix: Sequence[Sequence[int]]):
    """Smith normal form ``U @ A @ V = D`` with unimodular ``U``, ``V``.

    ``D`` is diagonal with non-negative entries satisfying ``d1 | d2 | ...``.

    Hermite forms of ``[D | U]`` (row operations) and of ``[D^T | V^T]``
    (column operations) alternate until D is diagonal (Kannan and Bachem,
    SIAM J. Comput. 8, 1979); each keeps U A V = D.

    Termination.  Once the rows and columns before t hold only their
    diagonal entries, no form changes them.  From the first form that leaves
    d_t nonzero (the first or the second), each form sets d_t to the
    positive gcd of the line it eliminates, which holds d_t: a divisor of
    d_t, at most d_t / 2 unless equal.  If equal, line t stays the pivot
    (ties go to the lowest index) and the form clears the rest of it; the
    form before cleared the other line, so d_t is isolated.  Zero lines go
    last, so the nonzero d_i come first.  Then at the first i where d_i does
    not divide d_(i+1), column i+1 is added to column i and a row form
    follows: d_i becomes gcd(d_i, d_(i+1)) < d_i, and d_0 .. d_(i-1) stay.
    Every d_i divides the gcd of the minors of size rank A, so the tuple
    (d_0, d_1, ...) takes finitely many values, and each addition lowers it
    lexicographically.
    """
    d = [list(row) for row in matrix]
    u, v = identity_int(len(d)), identity_int(len(d[0]) if d else 0)
    rows_next = True
    while True:
        if rows_next:
            d, u = _hermite_beside(d, u)
        else:
            dt, vt = _hermite_beside(_transpose(d), _transpose(v))
            d, v = _transpose(dt), _transpose(vt)
        rows_next = not rows_next
        if any(x for i, row in enumerate(d) for j, x in enumerate(row) if i != j):
            continue
        for i in range(min(len(u), len(v)) - 1):
            if d[i][i] and d[i + 1][i + 1] % d[i][i]:
                for row in d + v:
                    row[i] += row[i + 1]
                rows_next = True
                break
        else:
            return u, d, v


def invariant_factors(matrix: Sequence[Sequence[int]]) -> list[int]:
    _, d, _ = smith_normal_form(matrix)
    return [x for i, row in enumerate(d) if i < len(row) and (x := row[i])]


# ---------------------------------------------------------------------------
# incremental sparse echelon basis over Q (integer-cleared rows)


def _divide_content(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for x in row.values():  # gcd(*row.values()) would copy the row to a tuple
        if (g := gcd(g, x)) == 1:
            return row
    return {c: x // g for c, x in row.items()}


def clear_denominators(mapping: Mapping) -> tuple[int, dict]:
    """``(den, {key: x * den})`` over the nonzero values x of ``mapping``,
    where den is the lcm of all their denominators (an int's is 1)."""
    den = lcm(*(x.denominator for x in mapping.values()))
    return den, {key: int(x * den) for key, x in mapping.items() if x}


class EchelonBasis:
    """Incrementally built echelon basis of a sparse rational row space.

    Each stored row is an integer sparse vector whose lowest nonzero column is
    its pivot; no other stored row has that pivot.  Rows are not inter-reduced
    (plain echelon, not RREF), which keeps fill-in down; reduction against the
    basis in increasing pivot order still yields the canonical normal form.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, dict[int, int]] = {}  # pivot column -> row

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self.rows))

    def is_full_column_rank(self) -> bool:
        return len(self.rows) == self.ncols

    def add_kernel_rows(self, cols: Sequence[int], kernel: Sequence[Sequence[int]]) -> None:
        """Insert the reduced rows of a block whose row space is exactly the
        annihilator of ``kernel``: d independent integer vectors K indexed
        like ``cols``; with d = 0, a block of full column rank, every row is
        the unit row e_c.  The non-pivots B are canonical: scanning from the
        highest column down, a column joins B when its row of K is
        independent of the rows above it (for d = 1, the highest column with
        K[c] != 0).  For c not in B, K[c] then lies in the span of the rows
        of B above c, so e_c - sum_b N[c, b] e_b, N = K K_B^-1 = K adj / det
        cleared to integers, has pivot c; back substitution reads the
        remainder of e_c straight off it."""
        d = len(kernel)
        scan = EchelonBasis(d)
        free = []
        for i in reversed(range(len(cols))):
            if scan.rank == d:
                break
            if scan.add_row({k: v[i] for k, v in enumerate(kernel) if v[i]}):
                free.append(i)
        free.reverse()
        det, adj = inverse_int([[v[b] for v in kernel] for b in free])
        skip = set(free)
        for i, c in enumerate(cols):
            if i in skip:
                continue
            row = {c: det}
            for j, b in enumerate(free):
                if x := sum(v[i] * adj[k][j] for k, v in enumerate(kernel)):
                    row[cols[b]] = -x
            g = gcd(*row.values()) * (1 if det > 0 else -1)
            self.rows[c] = {col: x // g for col, x in row.items()}

    def add_short_rows(self, rows: list[dict[int, int]]) -> tuple[int, int]:
        """Structural elimination, exact over Q: the singleton and weight-2
        steps of structured Gaussian elimination (LaMacchia & Odlyzko,
        CRYPTO '90; Cavallar, ANTS-IV 2000).  Columns fall into classes,
        each with a representative, its highest column, and e_c = r_c e_rep
        modulo the rows taken.  Each row is rewritten on representatives,
        merging and cancelling entries.  With no entry left it is
        redundant; with one, e_rep lies in the row space and the whole class
        becomes zero, which is how a cycle whose ratios disagree shows; with
        two, x e_c + y e_d with c < d merges the class of c into that of d
        with r_c = -y / x.  Sweeps repeat until one resolves no new column,
        each at a cost in proportion to the entries of the rows left, never
        to the column count; ``rows`` keeps the rows of three or more
        entries, rewritten in place.

        A zero class enters as unit rows, and every other member c of a class
        as the content-free row e_c - r_c e_rep with a positive pivot entry.
        The representative is the highest column of its class, so that row's
        lowest column, its pivot, is c itself: the stored rows have distinct
        pivots, the rows left touch only live representatives, and the
        non-pivot set stays the canonical one.  Returns the numbers of unit
        and merged columns."""
        link: dict[int, tuple[int, int, int]] = {}  # c -> (parent, n, d): d e_c = n e_parent
        zero: set[int] = set()  # representatives of the classes that are zero

        def find(c):  # (rep, n, d): d e_c = n e_rep, gcd(n, d) = 1 and d > 0
            if c not in link:
                return c, 1, 1
            path = []
            while c in link:
                path.append(c)
                c = link[c][0]
            n = d = 1
            for col in reversed(path):  # point the path at its representative
                _, a, b = link[col]
                g = gcd(n * a, d * b)
                n, d = n * a // g, d * b // g
                link[col] = (c, n, d)
            return c, n, d

        while True:
            taken, kept = len(link) + len(zero), 0
            for row in rows:
                if len(row) == 1:  # x e_c: the class of c is zero
                    zero.add(find(*row)[0])
                    continue
                if link or zero:
                    out, den = {}, 1  # the rewritten row times den
                    for c, x in row.items():
                        rep, n, d = find(c)
                        if rep in zero:
                            continue
                        if den % d:
                            k = d // gcd(den, d)
                            out = {col: v * k for col, v in out.items()}
                            den *= k
                        if v := out.get(rep, 0) + x * n * (den // d):
                            out[rep] = v
                        else:
                            del out[rep]
                    row = out
                if len(row) > 2:
                    rows[kept] = row
                    kept += 1
                elif len(row) == 2:
                    (c, x), (d, y) = sorted(row.items())
                    g = gcd(x, y) * (1 if x > 0 else -1)
                    link[c] = (d, -y // g, x // g)
                else:
                    zero.update(row)
            del rows[kept:]
            if len(link) + len(zero) == taken:
                break
        if link or zero:
            rows[:] = map(_divide_content, rows)
        self.rows.update((c, {c: 1}) for c in zero)
        merged = 0
        for c in link:
            rep, n, d = find(c)
            if rep in zero:
                self.rows[c] = {c: 1}
            else:
                self.rows[c] = {c: d, rep: -n}
                merged += 1
        return len(zero) + len(link) - merged, merged

    def add_row(self, row: Mapping[int, Fraction | int]) -> bool:
        """Insert a row; returns True if the rank grew."""
        work = clear_denominators(row)[1]
        while work:
            c = min(work)
            piv = self.rows.get(c)
            if piv is None:
                g = gcd(*work.values()) * (1 if work[c] > 0 else -1)
                # a fresh dict sized to the row; only stored rows get a sign
                self.rows[c] = {col: x // g for col, x in work.items()}
                return True
            a, b = work.pop(c), piv[c]
            g = gcd(a, b)
            ma, mb = b // g, a // g
            if ma != 1:
                work = {col: x * ma for col, x in work.items()}
            for col, y in piv.items():
                if col == c:
                    continue
                v = work.get(col, 0) - y * mb
                if v:
                    work[col] = v
                else:
                    work.pop(col, None)
            work = _divide_content(work)
        return False

    def back_substitute(self, table, cols: Iterable[int]) -> None:
        """Set ``table[c]`` to the canonical remainder of e_c, {key: nonzero
        coefficient}, for each pivot c in ``cols``, which must hold every
        pivot their rows touch; ``table`` holds the other columns they touch.
        A row with pivot c says e_c = -sum_{col > c} row[col] / row[c] * e_col,
        so decreasing pivot order agrees entry for entry with ``reduce``."""
        for c in sorted((c for c in cols if c in self.rows), reverse=True):
            row = self.rows[c]
            acc: dict[int, Fraction] = {}
            for col, y in row.items():
                if col != c:
                    for k, x in table[col].items():
                        acc[k] = acc.get(k, 0) + y * x
            table[c] = {k: -x / row[c] for k, x in acc.items() if x}

    def reduce(self, row: Mapping[int, Fraction | int]) -> dict[int, Fraction]:
        """Canonical remainder of ``row`` modulo the row space.

        Columns are consumed left to right; eliminating a pivot introduces
        fill-in strictly to its right, so one ascending sweep terminates.
        No pipeline caller: it is the tests' independent reference for the
        remainder table ``jacobian.QuotientBasis.remainders``.
        """
        work: dict[int, Fraction] = {
            c: Fraction(x) for c, x in row.items() if x != 0
        }
        out: dict[int, Fraction] = {}
        while work:
            c = min(work)
            val = work.pop(c)
            piv = self.rows.get(c)
            if piv is None:
                out[c] = val
                continue
            factor = val / piv[c]
            for col, y in piv.items():
                if col == c:
                    continue
                cur = work.get(col, Fraction(0)) - factor * y
                if cur:
                    work[col] = cur
                elif col in work:
                    del work[col]
        return out


def rank_rational(matrix: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank over Q of a dense matrix, each row inserted into an
    ``EchelonBasis`` until the column rank is full."""
    basis = EchelonBasis(len(matrix[0]) if matrix else 0)
    for row in matrix:
        if basis.is_full_column_rank():
            break
        basis.add_row({c: x for c, x in enumerate(row) if x})
    return basis.rank


# ---------------------------------------------------------------------------
# connected blocks of a sparse matrix


def connected_blocks(
    rows: Sequence[Mapping[int, int]], ncols: int
) -> list[tuple[list[int], list[int]]]:
    """Connected components of the row/column incidence graph of ``rows``.

    Each block is ``(columns, row indices)``, both ascending, and the blocks
    are ordered by their lowest column.  Every nonzero row lies in exactly
    one block, so the row space is the direct sum of the blocks' row spaces;
    a column that no row touches lies in no block, and only the touched
    columns are looked up.
    """
    parent = list(range(ncols))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for row in rows:
        cols = iter(row)
        first = next(cols, None)
        if first is None:
            continue
        root = find(first)
        for c in cols:
            other = find(c)
            if other != root:
                # the lower root survives, so a root is its block's lowest column
                if other < root:
                    root, other = other, root
                parent[other] = root
    block_rows: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        if row:
            block_rows.setdefault(find(min(row)), []).append(i)
    block_cols: dict[int, list[int]] = {}
    for c in sorted(set().union(*rows)):
        block_cols.setdefault(find(c), []).append(c)
    return [(block_cols[root], block_rows[root]) for root in sorted(block_rows)]


# ---------------------------------------------------------------------------
# modular rank prefilter and p-adic kernel lifting


class ModularEchelon:
    """The row basis mod ``p`` that ``rank_mod_p`` found, with the elimination
    that found it.  ``steps`` holds one ``(row, pivot, inverse, multipliers,
    tail)`` per row that raised the rank, in order.  The pivot is the
    highest column of the reduced row.  ``tail`` is the reduced row left of
    its pivot, scaled so that the pivot entry is 1, and ``multipliers`` the
    x by which the row was reduced at each earlier pivot c right of its
    own, both as parallel ``(columns, values)`` tuples.  With U_c = e_c +
    the tail of pivot c, the row is sum x U_c + U_pivot / ``inverse`` mod p:
    A_R = L U for the rows R, with L triangular in step order and U in
    pivot order.  Below 2^30 (``PREFILTER_PRIME``) every residue is a
    one-digit CPython int, and the lift's arithmetic mod p stays on
    single-digit divisions."""

    def __init__(self, p: int, steps: list[tuple[int, int, int, tuple, tuple]]):
        self.p, self.steps = p, steps

    @property
    def rows(self) -> list[int]:
        """Positions of the rows that raised the rank mod p, ascending; they
        are independent over Q too."""
        return [step[0] for step in self.steps]

    @property
    def rank(self) -> int:
        return len(self.steps)


def rank_mod_p(
    rows: Sequence[Mapping[int, int]],
    ncols: int,
    p: int = PREFILTER_PRIME,
) -> ModularEchelon:
    """Row basis mod ``p`` (a prime 2 <= p <= 2^31; the default
    ``PREFILTER_PRIME`` is below 2^30, so that every residue is one CPython
    digit and each ``% p`` is a single-digit division) of an integer sparse
    matrix, with its factorization.  Sparse incremental echelon until full
    column rank: each row, dense up to its highest column, is reduced mod p
    from that column down by the pivot rows so far, and the first column
    left nonzero becomes its pivot.  Rows taken by highest column mostly
    bring a new highest column, and so become a pivot with no reduction.
    Whatever the pivot rule, the rows that raise the rank are the greedy
    independent set.  A row ending at or before top, the highest column
    reduced so far, is skipped when the pivots (all <= top) number top + 1:
    they span e_0..e_top."""
    if not 2 <= p <= 1 << 31:
        raise ValueError(f"prime {p} out of range 2..2^31")
    pivots: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    steps = []
    top = -1
    for k, row in enumerate(rows):
        if not row:
            continue
        hi = max(row)
        if hi <= top and len(pivots) == top + 1:
            continue
        top = max(top, hi)
        dense = [0] * (hi + 1)
        for c, x in row.items():
            dense[c] = x
        mcols, mvals = [], []
        c, low = hi, min(row)  # dense is 0 below low, which each tail used lowers
        while c >= low:
            if x := dense[c] % p:
                tail = pivots.get(c)
                if tail is None:
                    inv = pow(x, -1, p)
                    left = [b for b in range(low, c) if dense[b] % p]
                    # from a list, not a generator, whose tuple() resizes as
                    # it grows and fragments the allocator's arenas
                    values = [dense[b] * inv % p for b in left]
                    pivots[c] = tail = (tuple(left), tuple(values))
                    steps.append((k, c, inv, (tuple(mcols), tuple(mvals)), tail))
                    break
                mcols.append(c)
                mvals.append(x)
                cols, values = tail
                if cols and cols[0] < low:
                    low = cols[0]
                for b, y in zip(cols, values):
                    dense[b] -= x * y
            c -= 1
        if len(pivots) == ncols:
            break
    return ModularEchelon(p, steps)


def rational_reconstruction(u: int, m: int, bound: int) -> tuple[int, int] | None:
    """``(n, d)`` with n = u * d mod m, |n| <= bound and 0 < d <= bound, by
    the extended Euclidean algorithm on (m, u) stopped at the first
    remainder <= bound (Wang); unique when 2 * bound^2 < m.  None when the
    cofactor d there exceeds the bound."""
    r0, r1, t0, t1 = m, u % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if not 0 < abs(t1) <= bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def reconstruct_vector(x: Sequence[int], m: int) -> list[int] | None:
    """Integers ``n`` with x_i = n_i / den mod m for one den > 0, where every
    |n_i| and den are at most isqrt(m // 2); None if there are none.  den is
    built up entry by entry: x_i * den mod m is reconstructed only when it is
    not already small, and its denominator joins den."""
    bound, half = isqrt(m // 2), m // 2
    den = 1
    for v in x:
        u = v * den % m
        if min(u, m - u) > bound:
            frac = rational_reconstruction(u, m, bound)
            if frac is None or (den := den * frac[1]) > bound:
                return None
    out = []
    for v in x:
        n = v * den % m
        if n > half:
            n -= m
        if abs(n) > bound:
            return None
        out.append(n)
    return out


def lift_kernel(
    rows: Sequence[Mapping[int, int]], ncols: int, echelon: ModularEchelon
) -> list[list[int]] | None:
    """A basis of the kernel {x : row . x = 0 for every row} over Q, one
    integer vector per column f left free by ``echelon`` (the
    ``rank_mod_p`` of ``rows``), each a positive multiple of e_f on the free
    columns; None when the rank over Q exceeds the rank mod p.

    Dixon's p-adic lifting (Numer. Math. 40, 1982) on the row basis R
    alone, each row held as parallel column/value tuples.  A_R has full row
    rank mod p, and its columns at the pivots form a matrix nonsingular mod
    p, so over Q there is exactly one v_f with A_R v_f = 0 that is e_f on
    the free columns, and its denominators are prime to p.  With x = e_f +
    sum_i y_i p^i and rho_0 = -A_R e_f, each step solves A_R y_i = rho_i mod
    p, 0 on the free columns, through the recorded factorization (forward
    through the multipliers in step order, back through the tails in
    ascending pivot order) and sets rho_{i+1} = (rho_i - A_R y_i) / p, an
    exact division; x converges p-adically to v_f.  After every step x is
    rationally reconstructed mod p^(i+1) as n = den * x, den > 0, and
    checked in exact integer arithmetic:
      * if a row of R does not annihilate n, n is spurious, reconstructed
        too early, and the lift goes on;
      * if every row of R does, n is den * v_f, being den * e_f on the free
        columns.  A row that does not annihilate it then proves the rank
        over Q higher than mod p, and the lift returns None at once: were
        the ranks equal, every row would lie in the Q-span of R, whose
        kernel holds v_f;
      * if every row annihilates n, it is accepted.

    Why an accepted result is exact: the |R| rows are independent mod p, so
    the rank over Q is at least ncols - d; the d accepted vectors are
    independent (multiples of the identity on the free columns), so it is
    exactly ncols - d and they span the kernel.  Termination: by Cramer and
    Hadamard, numerators and denominator of v_f are at most H, the product
    of the norms of the rows of R.  Once p^(i+1) >= 2 H^2, reconstruction
    finds den * v_f, which R annihilates, so the lift has ended by then;
    past that bound it returns None, which only a fault in the
    reconstruction reaches.
    """
    p, steps, kept = echelon.p, echelon.steps, echelon.rows
    basis = [(tuple(rows[k]), tuple(rows[k].values())) for k in kept]
    others = [rows[k] for k in set(range(len(rows))).difference(kept)]
    backward = sorted((c, tail) for _, c, _, _, tail in steps)
    pivots = [c for c, _ in backward]
    cap = 2 * prod(sum(map(mul, values, values)) for _, values in basis)
    kernel = []
    for f in sorted(set(range(ncols)).difference(pivots)):
        rho = [-rows[k].get(f, 0) for k in kept]
        x = [0] * ncols
        x[f] = scale = 1
        while True:
            y = [0] * ncols  # y[c] for pivot c holds U_c . y_i between the sweeps
            for (_, c, inv, (cols, values), _), r in zip(steps, rho):
                y[c] = (r - sum(map(mul, values, map(y.__getitem__, cols)))) * inv % p
            for c, (cols, values) in backward:
                y[c] = (y[c] - sum(map(mul, values, map(y.__getitem__, cols)))) % p
            rho = [
                (r - sum(map(mul, values, map(y.__getitem__, cols)))) // p
                for r, (cols, values) in zip(rho, basis)
            ]
            for c in pivots:
                x[c] += y[c] * scale
            scale *= p
            vector = reconstruct_vector(x, scale)
            if vector is not None and not any(
                sum(map(mul, values, map(vector.__getitem__, cols))) for cols, values in basis
            ):
                if any(sum(a * vector[c] for c, a in row.items()) for row in others):
                    return None
                kernel.append(vector)
                break
            if scale >= cap:
                return None
    return kernel
