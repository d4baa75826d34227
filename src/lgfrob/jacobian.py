"""Graded pieces of the Jacobian quotients R(f) = S/J(f) and R0(f) = S/J0(f).

J(f) is generated by the partials f_i, J0(f) by z_i f_i.  Each graded piece
is handled as a finite exact linear-algebra problem: rows are generator times
cofactor monomial, columns are the monomials of the ambient graded piece.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import add, ge, sub
from typing import Sequence

from . import linalg
from .errors import DegreeMismatch
from .poly import GradedPolynomial, Monomial, check_homogeneous, monomial_code
from .toric import CheckResult, FanData, GradingMap, Monomials, monomial_basis

IDEAL_J = "J"
IDEAL_J0 = "J0"


@dataclass
class JacobianSystem:
    """A homogeneous potential f of anti-canonical degree with its partial
    derivatives and Euler generators z_i f_i."""

    fan: FanData
    f: GradedPolynomial
    partials: list[GradedPolynomial]
    euler_gens: list[GradedPolynomial]
    _pieces: dict = field(default_factory=dict, repr=False)
    _monomials: dict = field(default_factory=dict, repr=False)

    @property
    def m(self) -> int:
        return self.fan.dim

    @property
    def grading(self) -> GradingMap:
        return self.fan.grading

    @property
    def variables(self) -> tuple[str, ...]:
        return self.f.variables

    @cached_property
    def j0_generators(self) -> list[GradedPolynomial]:
        """The Euler generators z_i f_i that J0(f) is built from: scanning
        i = 0, 1, ..., each one whose coefficient vector on supp f is
        independent of those kept before it.  The scan follows the variable
        order, so which ones are kept does not depend on hashing.

        sum_i e_i z_i f_i = sum_t <e, t> c_t z^t for f = sum_t c_t z^t, so a
        dropped generator is a constant combination of kept ones, and each of
        its rows g * u is the same combination of kept rows at the same
        cofactor u.  Every J0 piece therefore has the same row space, pivots,
        basis and remainders as with all r generators.  The coefficient
        vectors have the rank of the exponent matrix of supp f, at most
        m + 1, since J0(f) = (f, theta_1 f, ..., theta_m f)."""
        support = {mono: k for k, mono in enumerate(self.f.terms)}
        scan = linalg.EchelonBasis(len(support))
        return [
            g
            for g in self.euler_gens
            if scan.add_row({support[mono]: x for mono, x in g.terms.items()})
        ]

    def monomials(self, alpha: Sequence[int]) -> Monomials:
        """The graded-lex monomials of S_alpha with their codes, enumerated
        once per system and shared by every later caller, which must not
        modify them."""
        alpha = tuple(alpha)
        monos = self._monomials.get(alpha)
        if monos is None:
            monos = self._monomials[alpha] = monomial_basis(self.fan, alpha)
        return monos


def jacobian_system(fan: FanData, f: GradedPolynomial) -> JacobianSystem:
    """Validate deg f = beta under ``fan.grading``; assemble the generator lists."""
    grading = fan.grading
    degree = check_homogeneous(f, grading)
    if degree != grading.beta:
        raise DegreeMismatch(
            f"potential has degree {degree}, expected the anti-canonical class {grading.beta}"
        )
    r = len(f.variables)
    if r != fan.n_rays:
        raise DegreeMismatch(
            f"{r} variables declared but the fan has {fan.n_rays} rays"
        )
    partials = [f.partial_derivative(i) for i in range(r)]
    euler_gens = [
        partials[i].mul_monomial(tuple(1 if j == i else 0 for j in range(r)))
        for i in range(r)
    ]
    return JacobianSystem(fan, f, partials, euler_gens)


@dataclass
class QuotientBasis:
    """One graded piece of S/J or S/J0.

    ``monomials`` is the graded-lex basis of the ambient piece; ``basis`` the
    non-pivot monomials spanning the quotient.  ``skipped_rows`` relation
    rows were never assembled: the syzygy criterion of ``relation_rows``
    proves them redundant.  The structural pass (see
    ``graded_piece``) enters ``unit_columns`` columns in ``echelon`` as unit
    rows and ``merged_columns`` as rows e_c - r e_rep onto the representative
    of their class.  Of the ``blocks`` blocks of the relation rows left,
    ``certified_blocks`` enter as unit rows and ``lifted_blocks`` as the
    reduced rows of their lifted kernel.  ``eliminated_rows`` rows went
    through ``add_row``, and ``remainder_checked_rows`` were verified exactly
    against a kernel.
    """

    degree: tuple[int, ...]
    ideal: str
    monomials: list[Monomial]
    rank: int
    pivots: tuple[int, ...]
    basis: list[Monomial]
    echelon: linalg.EchelonBasis
    blocks: int = 0
    certified_blocks: int = 0
    lifted_blocks: int = 0
    eliminated_rows: int = 0
    remainder_checked_rows: int = 0
    unit_columns: int = 0
    merged_columns: int = 0
    skipped_rows: int = 0

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def column_index(self) -> dict[Monomial, int]:
        """Column of each ambient monomial, built on first use and shared by
        every later reader, which must not modify it."""
        return {mono: i for i, mono in enumerate(self.monomials)}

    @cached_property
    def remainders(self) -> list[dict[int, Fraction]]:
        """Canonical remainder of every column modulo the ideal, as {basis
        index: nonzero coefficient}; built on first use and shared by every
        later reader, which must not modify it.  A basis column is its own
        remainder; ``EchelonBasis.back_substitute`` gives the others."""
        table: list[dict[int, Fraction]] = [{} for _ in self.monomials]
        for k, mono in enumerate(self.basis):
            table[self.column_index[mono]] = {k: Fraction(1)}
        self.echelon.back_substitute(table, range(len(table)))
        return table


def _generators(system: JacobianSystem, ideal: str):
    """Ideal generators with their class-group degrees: the nonzero partials
    for J, ``JacobianSystem.j0_generators`` for J0."""
    beta = system.grading.beta
    out = []
    if ideal == IDEAL_J:
        for i, g in enumerate(system.partials):
            if g.is_zero():
                continue
            var_deg = system.grading.degrees[i]
            out.append((g, tuple(b - d for b, d in zip(beta, var_deg))))
    elif ideal == IDEAL_J0:
        out = [(g, beta) for g in system.j0_generators]
    else:
        raise ValueError(f"unknown ideal tag {ideal!r}")
    return out


def relation_rows(system: JacobianSystem, ideal: str, alpha: tuple[int, ...]):
    """Integer sparse rows of the relation space at degree alpha, in the
    deterministic order (generator index, cofactor graded-lex); returns the
    ambient monomials and the rows.

    Rows that a principal syzygy makes redundant are never assembled: the
    syzygy criterion of F5 (Faugere, ISSAC 2002).  Let lm(g) be the leading
    monomial of a generator under graded reverse lex (total degree first,
    then the smaller last exponent), a total monomial order.  The row of
    generator g_j at cofactor u is skipped when lm(g_i) divides u for an
    earlier generator i < j.  Writing u = lm(g_i) w, the relation
    g_j (g_i w) = g_i (g_j w) gives g_j u = g_i (g_j w) - sum_t c_t g_j (t w)
    over the other terms c_t t of g_i: rows of generator i, and rows of
    generator j at cofactors t w below u in the order.  By induction on
    (generator index, cofactor in that order) every skipped row lies in the
    span of the kept ones, so the row space, and with it the pivots, basis
    and normal forms of every piece, does not change.

    Columns are keyed by the grlex codes (``poly.monomial_code``) that
    ``monomial_basis`` hands over with S_alpha, at its radix, which exceeds
    every exponent of S_alpha, so distinct monomials of S_alpha have
    distinct codes.  Cofactors and generator terms are coded at the same
    radix.  The code is linear, so code(t) + code(c) is code(t * c) for a
    generator term t and a cofactor c, and t * c lies in S_alpha: a row
    entry is one integer add and one int-keyed lookup.  Each generator's
    denominators are cleared once per call, since all of its rows carry
    the same coefficients.
    """
    monos = system.monomials(alpha)
    radix = monos.radix
    index = dict(zip(monos.codes, range(len(monos))))
    rows: list[dict[int, int]] = []
    # cofactor degree -> (its (cofactor, code) pairs that no lead of
    # leads[:seen] divides, seen): each lead filters each list once
    cofactors: dict[tuple[int, ...], tuple[list[tuple[Monomial, int]], int]] = {}
    leads: list[Monomial] = []
    for g, g_deg in _generators(system, ideal):
        cof_degree = tuple(a - d for a, d in zip(alpha, g_deg))
        kept, seen = cofactors.get(cof_degree, (None, 0))
        if kept is None:
            kept = [(cof, monomial_code(cof, radix)) for cof in system.monomials(cof_degree)]
        for lead in leads[seen:]:
            kept = [pair for pair in kept if not all(map(ge, pair[0], lead))]
        cofactors[cof_degree] = kept, len(leads)
        terms = [
            (monomial_code(mono, radix), x)
            for mono, x in linalg.clear_denominators(g.terms)[1].items()
        ]
        for _, code in kept:
            rows.append({index[code + t]: x for t, x in terms})
        leads.append(max(g.terms, key=lambda mono: (sum(mono), [-e for e in reversed(mono)])))
    return monos, rows


def graded_piece(system: JacobianSystem, ideal: str, alpha: Sequence[int]) -> QuotientBasis:
    """The quotient at degree alpha.  ``relation_rows`` assembles only the
    rows that the F5 syzygy criterion (Faugere, ISSAC 2002) keeps: the row
    of generator g_j at cofactor u is skipped when the graded-reverse-lex
    leading monomial of an earlier generator g_i divides u, since
    g_j (g_i w) = g_i (g_j w) writes it through rows of a smaller
    (generator index, cofactor), and induction on that order keeps the row
    space.  ``EchelonBasis.add_short_rows`` then takes every relation row
    that has, or comes down to, at most two entries: a one-term row makes
    its column a unit row, and a two-term row merges its columns into a
    class whose representative is the highest column, so that every other
    member c is the pivot of its stored row e_c - r e_rep and the
    non-pivot set stays the canonical one.  Each
    connected block of the rows left then takes one of three paths; each
    stores rows spanning exactly the block's row space, so the canonical
    pivots, basis and normal forms do not depend on it:
      * certified, as unit rows (``add_kernel_rows`` with no kernel
        vector): rank mod p equal to the column count, which forces the
        rank over Q;
      * lifted (``linalg.lift_kernel``), when the rank mod p of a block with
        rows >= columns falls short: its kernel, lifted p-adically and
        verified against every row, gives the reduced rows;
      * exact on every row until full column rank: fewer rows than columns,
        or a lift that finds the rank over Q above the rank mod p.
    In a piece where the criterion skipped rows, a block one row short of
    its columns also takes the modular path.  The criterion can leave a
    block of corank 1 with exactly its rank in rows, as it does on
    R0(f)_{m beta} of p1xp1 and of the seeded generic cubic, p1xp1 and
    weighted-p112 potentials; the lift finds its one-dimensional kernel, as
    it did with every row assembled, where exact elimination would take
    every row.  No block has one column: its rows would have one entry
    each."""
    alpha = tuple(alpha)
    key = (ideal, alpha)
    cached = system._pieces.get(key)
    if cached is not None:
        return cached

    monos, rows = relation_rows(system, ideal, alpha)
    skipped = sum(
        len(system.monomials(tuple(map(sub, alpha, g_deg))))
        for _, g_deg in _generators(system, ideal)
    ) - len(rows)
    ncols = len(monos)
    echelon = linalg.EchelonBasis(ncols)
    units, merged = echelon.add_short_rows(rows)
    blocks = linalg.connected_blocks(rows, ncols)
    certified = lifted = eliminated = checked = 0
    for cols, row_ids in blocks:
        # rows taken by highest column keep fill-in and coefficient growth
        # down in every path; the row space does not depend on order
        block_rows = sorted((rows[i] for i in row_ids), key=max)
        kernel = None
        if len(block_rows) + bool(skipped) >= len(cols):
            for i in row_ids:  # so that re-keying block_rows frees each row
                rows[i] = None
            kernel = _block_kernel(block_rows, cols)
        if kernel is None:
            full = echelon.rank + len(cols)
            for row in block_rows:
                eliminated += 1
                if echelon.add_row(row) and echelon.rank == full:
                    break
        else:
            echelon.add_kernel_rows(cols, kernel)
            if kernel:
                lifted += 1
                checked += len(block_rows)
            else:
                certified += 1
    pivots = echelon.pivots
    pivot_set = set(pivots)
    basis = [mono for i, mono in enumerate(monos) if i not in pivot_set]
    piece = QuotientBasis(
        alpha, ideal, monos, len(pivots), pivots, basis, echelon,
        len(blocks), certified, lifted, eliminated, checked, units, merged,
        skipped,
    )
    system._pieces[key] = piece
    return piece


def _block_kernel(rows: list[dict[int, int]], cols) -> list[list[int]] | None:
    """The block's verified kernel over Q on its local columns, [] when its
    rank mod p is full, None when the rank over Q exceeds the rank mod p.
    ``rows`` are re-keyed to local columns in place, one at a time, and
    back on None; the factorization lives only for this call."""
    local = {c: i for i, c in enumerate(cols)}
    for k, row in enumerate(rows):
        rows[k] = {local[c]: x for c, x in row.items()}
    basis = linalg.rank_mod_p(rows, len(cols))
    if basis.rank == len(cols):
        return []
    kernel = linalg.lift_kernel(rows, len(cols), basis)
    if kernel is None:
        for k, row in enumerate(rows):
            rows[k] = {cols[c]: x for c, x in row.items()}
    return kernel


def dim_R(system: JacobianSystem, a: int) -> int:
    """Dimension of R(f)_{a*beta}."""
    return graded_piece(system, IDEAL_J, system.grading.scaled_beta(a)).dim


def macaulay_dim(system: JacobianSystem) -> int:
    """dim R(f)_{m beta}, built as a piece only when dim R0(f)_{m beta} != 1.

    Every J0 row z_i f_i * c is the J row f_i * (z_i c), so J0(f)_{m beta}
    lies in J(f)_{m beta}, which lies in S_{m beta}.  When R0(f)_{m beta}
    is one-dimensional, J0(f)_{m beta} is the kernel of the functional
    lambda that sends a monomial to the coefficient of the single basis
    monomial in its remainder modulo J0 (the table the trace is built
    from), so J(f)_{m beta} is ker lambda or all of S_{m beta}: the
    dimension is 0 as soon as one J row f_i * c has lambda(f_i * c) =
    sum_t x_t lambda(t * c) != 0, and 1 when every row lies in ker lambda.
    A row can have lambda != 0 only if one of its monomials t * c lies in
    supp lambda, so the only rows evaluated, each once, are those with
    c = z / t, for z in supp lambda and t a term of f_i that divides z; no
    cofactor basis is enumerated."""
    top = system.grading.scaled_beta(system.m)
    r0 = graded_piece(system, IDEAL_J0, top)
    if r0.dim != 1:
        return graded_piece(system, IDEAL_J, top).dim
    lam = {
        mono: rem[0]
        for mono, rem in zip(r0.monomials, r0.remainders)
        if rem
    }
    partials = [g.terms for g, _ in _generators(system, IDEAL_J)]
    evaluated = set()  # (generator, cofactor): a row reached from several z
    for z in lam:
        for i, terms in enumerate(partials):
            for t in terms:
                c = tuple(map(sub, z, t))
                if min(c) < 0 or (i, c) in evaluated:
                    continue
                evaluated.add((i, c))
                if sum(x * lam.get(tuple(map(add, u, c)), 0) for u, x in terms.items()):
                    return 0
    return 1


def normal_form(poly: GradedPolynomial, piece: QuotientBasis) -> list[Fraction]:
    """Coordinates of [poly] over the quotient basis of the piece: the sum of
    the remainders of its monomials."""
    index, table = piece.column_index, piece.remainders
    coords = [Fraction(0)] * piece.dim
    for mono, coeff in poly.terms.items():
        col = index.get(mono)
        if col is None:
            raise DegreeMismatch(
                f"monomial {mono} does not lie in the degree-{piece.degree} piece"
            )
        for k, x in table[col].items():
            coords[k] += coeff * x
    return coords


def macaulay_vanishing(system: JacobianSystem) -> CheckResult:
    """R(f)_{m beta} = 0, by ``macaulay_dim``; on a failure the witness
    gives the dimension."""
    dim = macaulay_dim(system)
    witness = f"dim R(f)_{system.m}b = {dim}, expected 0" if dim else None
    return CheckResult(dim == 0, 1, witness)


def socle_certificates(system: JacobianSystem) -> CheckResult:
    """R(f)_{(m-1)beta} and R0(f)_{m beta} both one-dimensional; on a
    failure the witness gives their dimensions.  In a report both pieces
    come from the system's cache: the dims stage builds the first and
    ``macaulay_dim`` the second."""
    beta = system.grading.scaled_beta
    dim_r = graded_piece(system, IDEAL_J, beta(system.m - 1)).dim
    dim_r0 = graded_piece(system, IDEAL_J0, beta(system.m)).dim
    if dim_r == 1 and dim_r0 == 1:
        return CheckResult(True, 2)
    return CheckResult(False, 2, f"dim R(f)_(m-1)b = {dim_r}, dim R0(f)_mb = {dim_r0}")


# (failure name, report key, check) of each hypothesis that build_algebra
# needs, in report order; the report and build_algebra both read it
HYPOTHESES = (
    ("macaulay_vanishing", "macaulay", macaulay_vanishing),
    ("socle_certificates", "socle", socle_certificates),
)


def crit_containment_check(
    system: JacobianSystem, zero_sets: Sequence[Sequence[str]]
) -> list[CheckResult]:
    """One record per variable subset V, in order: pass iff every partial
    vanishes after substituting 0 for the variables of V (so the
    complementary coordinate subspace lies in the critical locus of f).
    ``checked`` counts the partials restricted."""
    results = []
    for subset in map(tuple, zero_sets):
        result = CheckResult(True, len(system.partials))
        for i, g in enumerate(system.partials):
            restricted = g.restrict_to_zero(subset)
            if not restricted.is_zero():
                result = CheckResult(
                    False,
                    i + 1,
                    f"partial with respect to {system.variables[i]} restricts to "
                    f"{restricted.to_text()}",
                )
                break
        results.append(result)
    return results
