"""Graded pieces of the Jacobian quotients R(f) = S/J(f) and R0(f) = S/J0(f).

J(f) is generated by the partials f_i, J0(f) by z_i f_i.  Each graded piece
is handled as a finite exact linear-algebra problem: rows are generator times
cofactor monomial, columns are the monomials of the ambient graded piece.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import linalg
from .errors import DegreeMismatch, NoFunctional, SocleNotOneDimensional
from .poly import GradedPolynomial, Monomial, check_homogeneous
from .toric import FanData, GradingMap, monomial_basis

IDEAL_J = "J"
IDEAL_J0 = "J0"


@dataclass
class JacobianSystem:
    """A homogeneous potential f of anti-canonical degree with its partial
    derivatives and Euler generators z_i f_i."""

    fan: FanData
    grading: GradingMap
    f: GradedPolynomial
    partials: list[GradedPolynomial]
    euler_gens: list[GradedPolynomial]
    use_prefilter: bool = True  # modular full-column-rank shortcut
    _pieces: dict = field(default_factory=dict, repr=False)

    @property
    def m(self) -> int:
        return self.fan.dim

    @property
    def variables(self) -> tuple[str, ...]:
        return self.f.variables


def jacobian_system(fan: FanData, grading: GradingMap, f: GradedPolynomial) -> JacobianSystem:
    """Validate deg f = beta and assemble the generator lists."""
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
    return JacobianSystem(fan, grading, f, partials, euler_gens)


@dataclass
class QuotientBasis:
    """One graded piece of S/J or S/J0.

    ``monomials`` is the graded-lex basis of the ambient piece; ``basis`` the
    non-pivot monomials spanning the quotient.  ``echelon`` is None exactly
    when the piece was certified zero-dimensional by a modular full-column-
    rank certificate (rank mod p <= rank over Q <= #columns forces equality),
    in which case every reduction is the zero vector.
    """

    degree: tuple[int, ...]
    ideal: str
    monomials: list[Monomial]
    rank: int
    pivots: tuple[int, ...]
    basis: list[Monomial]
    echelon: linalg.EchelonBasis | None
    _index: dict[Monomial, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def dim(self) -> int:
        return len(self.basis)

    def column_index(self) -> dict[Monomial, int]:
        """Column of each ambient monomial, built on first use and shared by
        every later caller, which must not modify it."""
        if self._index is None:
            self._index = {mono: i for i, mono in enumerate(self.monomials)}
        return self._index


def _generators(system: JacobianSystem, ideal: str):
    """Ideal generators with their class-group degrees."""
    beta = system.grading.beta
    out = []
    if ideal == IDEAL_J:
        for i, g in enumerate(system.partials):
            if g.is_zero():
                continue
            var_deg = system.grading.degrees[i]
            out.append((g, tuple(b - d for b, d in zip(beta, var_deg))))
    elif ideal == IDEAL_J0:
        for g in system.euler_gens:
            if g.is_zero():
                continue
            out.append((g, beta))
    else:
        raise ValueError(f"unknown ideal tag {ideal!r}")
    return out


def relation_rows(system: JacobianSystem, ideal: str, alpha: tuple[int, ...]):
    """Integer sparse rows of the relation space at degree alpha, in the
    deterministic order (generator index, cofactor graded-lex)."""
    monos = monomial_basis(system.grading, system.fan, alpha)
    index = {mono: i for i, mono in enumerate(monos)}
    rows: list[dict[int, int]] = []
    for g, g_deg in _generators(system, ideal):
        cof_degree = tuple(a - d for a, d in zip(alpha, g_deg))
        for cof in monomial_basis(system.grading, system.fan, cof_degree):
            row = {
                index[tuple(x + y for x, y in zip(mono, cof))]: coeff
                for mono, coeff in g.terms.items()
            }
            rows.append(linalg.clear_denominators(row))
    return monos, rows


def graded_piece(system: JacobianSystem, ideal: str, alpha: Sequence[int]) -> QuotientBasis:
    alpha = tuple(alpha)
    key = (ideal, alpha)
    cached = system._pieces.get(key)
    if cached is not None:
        return cached

    monos, rows = relation_rows(system, ideal, alpha)
    ncols = len(monos)
    piece: QuotientBasis
    if ncols == 0:
        piece = QuotientBasis(alpha, ideal, [], 0, (), [], None)
    elif system.use_prefilter and rows and linalg.rank_mod_p(rows, ncols) == ncols:
        # modular certificate: quotient is zero-dimensional
        piece = QuotientBasis(alpha, ideal, monos, ncols, tuple(range(ncols)), [], None)
    else:
        echelon = linalg.EchelonBasis(ncols)
        for row in rows:
            echelon.add_row(row)
            if echelon.is_full_column_rank():
                break
        pivots = echelon.pivots
        pivot_set = set(pivots)
        basis = [mono for i, mono in enumerate(monos) if i not in pivot_set]
        piece = QuotientBasis(alpha, ideal, monos, echelon.rank, pivots, basis, echelon)
    system._pieces[key] = piece
    return piece


def dim_R(system: JacobianSystem, a: int) -> int:
    """Dimension of R(f)_{a*beta}."""
    return graded_piece(system, IDEAL_J, system.grading.scaled_beta(a)).dim


def dim_R0(system: JacobianSystem, a: int) -> int:
    """Dimension of R0(f)_{a*beta}."""
    return graded_piece(system, IDEAL_J0, system.grading.scaled_beta(a)).dim


def normal_form(poly: GradedPolynomial, piece: QuotientBasis) -> list[Fraction]:
    """Coordinates of [poly] over the quotient basis of the piece."""
    index = piece.column_index()
    row: dict[int, Fraction] = {}
    for mono, coeff in poly.terms.items():
        col = index.get(mono)
        if col is None:
            raise DegreeMismatch(
                f"monomial {mono} does not lie in the degree-{piece.degree} piece"
            )
        row[col] = coeff
    if piece.echelon is None:
        # zero-dimensional piece (or empty ambient): everything reduces to 0
        return []
    remainder = piece.echelon.reduce(row)
    coords = []
    for mono in piece.basis:
        coords.append(remainder.pop(index[mono], Fraction(0)))
    assert not remainder, "reduction left support on pivot columns"
    return coords


@dataclass
class MacaulayReport:
    m: int
    dims: dict[int, int]  # p -> dim R(f)_{p beta}

    @property
    def ok(self) -> bool:
        return all(d == 0 for d in self.dims.values())


def macaulay_vanishing_check(system: JacobianSystem) -> MacaulayReport:
    """dim R(f)_{p beta} for p = m, m+1; passes iff both vanish."""
    m = system.m
    return MacaulayReport(m, {p: dim_R(system, p) for p in (m, m + 1)})


@dataclass
class SocleReport:
    dim_r: int
    dim_r0: int
    generator_r: Monomial | None
    generator_r0: Monomial | None

    @property
    def ok(self) -> bool:
        return self.dim_r == 1 and self.dim_r0 == 1


def socle_certificates(system: JacobianSystem) -> SocleReport:
    """dim R(f)_{(m-1)beta} and dim R0(f)_{m beta} with quotient generators."""
    m = system.m
    piece_r = graded_piece(system, IDEAL_J, system.grading.scaled_beta(m - 1))
    piece_r0 = graded_piece(system, IDEAL_J0, system.grading.scaled_beta(m))
    return SocleReport(
        piece_r.dim,
        piece_r0.dim,
        piece_r.basis[0] if piece_r.dim >= 1 else None,
        piece_r0.basis[0] if piece_r0.dim >= 1 else None,
    )


@dataclass
class EulerReport:
    functional: tuple[int, ...]
    scale: int  # lambda(beta)
    ok: bool


def euler_membership_check(system: JacobianSystem) -> EulerReport:
    """Verify sum_i lambda(deg z_i) z_i f_i = lambda(beta) f exactly for an
    integer functional lambda with lambda(beta) != 0."""
    grading = system.grading
    beta = grading.beta
    k = next((i for i, b in enumerate(beta) if b != 0), None)
    if k is None:
        raise NoFunctional("anti-canonical class is zero; no functional with lambda(beta) != 0")
    functional = tuple(1 if i == k else 0 for i in range(grading.rank))
    lhs = GradedPolynomial.zero(system.variables)
    for i, gen in enumerate(system.euler_gens):
        weight = grading.degrees[i][k]
        if weight:
            lhs = lhs + gen.scale(weight)
    rhs = system.f.scale(beta[k])
    return EulerReport(functional, beta[k], lhs == rhs)


@dataclass
class ContainmentResult:
    zero_set: tuple[str, ...]
    ok: bool
    witness: str | None


def crit_containment_check(
    system: JacobianSystem, zero_sets: Sequence[Sequence[str]]
) -> list[ContainmentResult]:
    """For each variable subset V: pass iff every partial vanishes after
    substituting 0 for the variables of V (so the complementary coordinate
    subspace lies in the critical locus of f)."""
    results = []
    for subset in zero_sets:
        subset = tuple(subset)
        witness = None
        for i, g in enumerate(system.partials):
            restricted = g.restrict_to_zero(subset)
            if not restricted.is_zero():
                witness = (
                    f"partial with respect to {system.variables[i]} restricts to "
                    f"{restricted.to_text()}"
                )
                break
        results.append(ContainmentResult(subset, witness is None, witness))
    return results
