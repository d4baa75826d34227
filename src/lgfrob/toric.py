"""Fan validation, class-group grading, anti-canonical polytope, volumes,
Betti numbers, and graded monomial enumeration.

All computations are exact; fans are given by primitive ray generators and
maximal cones (index sets into the ray list).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations, repeat
from math import comb, gcd
from operator import add, mul
from typing import Iterable, Sequence

from . import linalg
from .errors import (
    DegeneratePolytope,
    DegreeMismatch,
    InvalidFan,
    NotReflexivePipeline,
    TorsionClassGroup,
)
from .poly import Monomial, monomial_code, monomial_degree


# ---------------------------------------------------------------------------
# data types


@dataclass(frozen=True)
class FanData:
    """Combinatorial fan: ambient dimension, primitive rays, maximal cones;
    its ``validation``, ``grading`` and ``sweep_plan`` are cached on it."""

    dim: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(tuple(r) for r in self.rays))
        object.__setattr__(
            self, "max_cones", tuple(tuple(sorted(c)) for c in self.max_cones)
        )
        if self.dim < 1:
            raise InvalidFan(f"dimension {self.dim} is not positive")
        for ray in self.rays:
            if len(ray) != self.dim:
                raise InvalidFan(f"ray {ray} does not have length {self.dim}")
            if gcd(*ray) != 1:
                raise InvalidFan(f"ray {ray} is not primitive")
        for cone in self.max_cones:
            if any(i < 0 or i >= len(self.rays) for i in cone):
                raise InvalidFan(f"cone {cone} references an unknown ray")
            if len(set(cone)) != len(cone):
                raise InvalidFan(f"cone {cone} repeats a ray")

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    def cone_matrix(self, cone: Sequence[int]) -> list[list[int]]:
        """Rows are the rays of the cone."""
        return [list(self.rays[i]) for i in cone]

    @cached_property
    def sweep_plan(self) -> tuple[list[int], list[int]]:
        """The ``_sweep_order`` of Delta = {u : <u, rho> >= -1}, in which
        ``monomial_basis`` sweeps every fiber, and its bound on
        |<u, rho>| over Delta for each ray rho: the fiber of S_{a beta} is
        a lattice translate of a Delta, whose widths are a times Delta's."""
        return _sweep_order([(ray, 1) for ray in self.rays], self.dim)

    @cached_property
    def validation(self) -> ValidationReport:
        """``validate_fan`` of this fan, run once per object and shared by
        every later reader, which must not modify it."""
        return validate_fan(self)

    @cached_property
    def grading(self) -> GradingMap:
        """``class_group`` of this fan, once per object; each read raises on torsion."""
        return class_group(self)


@dataclass(frozen=True)
class GradingMap:
    """Degree homomorphism from the exponent lattice onto the class group.

    ``degrees[i]`` is the class of the i-th variable in Z^(r-m), written in
    the Hermite-canonical basis; ``beta`` is the anti-canonical class, the sum
    of all variable degrees.  ``section`` is an r x (r-m) integer matrix with
    ``degree_rows() @ section = I``, so ``section @ alpha`` is an exponent
    vector, with entries of any sign, of degree alpha.
    """

    rank: int
    degrees: tuple[tuple[int, ...], ...]
    beta: tuple[int, ...]
    section: tuple[tuple[int, ...], ...]

    def monomial_degree(self, mono: Monomial) -> tuple[int, ...]:
        return monomial_degree(mono, self.degrees)

    def degree_rows(self) -> list[list[int]]:
        """The (r-m) x r matrix of degree functionals (transposed degrees)."""
        return [[deg[k] for deg in self.degrees] for k in range(self.rank)]

    def scaled_beta(self, a: int) -> tuple[int, ...]:
        return tuple(a * x for x in self.beta)


@dataclass
class CheckResult:
    """The record of one certificate, the one shape every check reports in:
    its verdict, how many objects it decided, and on a failure a witness
    naming what failed."""

    ok: bool
    checked: int
    witness: str | None = None

    def as_dict(self) -> dict:
        return {"pass": self.ok, "checked": self.checked, "witness": self.witness}


CHECKS = ("simplicial", "complete_criterion", "gorenstein", "ample", "torsion_free")


@dataclass
class ValidationReport:
    """The fan certificates named in ``CHECKS``, the anti-canonical polytope
    when all of them pass, and the Hermite form of ``_free_hermite_form``,
    which ``class_group`` reads, when the class group is free (else None)."""

    simplicial: CheckResult
    complete_criterion: CheckResult
    gorenstein: CheckResult
    ample: CheckResult
    torsion_free: CheckResult
    polytope: AnticanPolytope | None = None
    hermite: list[list[int]] | None = None

    @property
    def all_pass(self) -> bool:
        return all(getattr(self, name).ok for name in CHECKS)


@dataclass(frozen=True)
class AnticanPolytope:
    """Anti-canonical polytope Delta = {u : <u, rho_i> >= -1 for all rays
    rho_i} of a fan that passes every check of ``validate_fan``, which is its
    one constructor.

    One vertex per maximal cone, in cone order: ``cone_inverses[k]`` is the
    ``linalg.inverse_int`` ``(det, adj)`` of the matrix of the k-th cone
    sigma, and ``vertices[k]`` is u_sigma = -adj . 1 / det, the solution of
    <u, rho_i> = -1 on the rays of sigma.  Ampleness gives <u_sigma, rho>
    >= 0 for every ray outside sigma, so the inequalities tight at u_sigma
    are exactly the m independent ones of sigma's rays.  Hence distinct
    cones have distinct vertices, with no de-duplication needed, and every
    vertex lies on exactly m facets: Delta is simple, as the vertex formula
    of ``normalized_volume`` requires.
    """

    dim: int
    vertices: tuple[tuple[int, ...], ...]
    cone_inverses: tuple[tuple[int, list[list[int]]], ...]

    @cached_property
    def volume(self) -> int:
        """``normalized_volume`` of this polytope, computed once per object."""
        return normalized_volume(self)


def _dot(u: Sequence, v: Sequence):
    return sum(x * y for x, y in zip(u, v))


# ---------------------------------------------------------------------------
# validation


def validate_fan(fan: FanData) -> ValidationReport:
    """Run the five fan certificates of ``CHECKS``; failures carry concrete
    witnesses.  A check's ``checked`` counts the maximal cones it decided,
    1 for torsion-freeness, decided once on the ray matrix.  When all
    pass, the report carries the anti-canonical polytope, built from the
    cone inverses and vertices of this one pass over the maximal cones."""
    m, cones = fan.dim, len(fan.max_cones)

    # one inverse_int per max cone serves the simplicial and Gorenstein
    # checks and the polytope
    simplicial = CheckResult(True, cones)
    inverses = []
    for ci, cone in enumerate(fan.max_cones):
        if len(cone) != m:
            simplicial = CheckResult(
                False, ci + 1, f"max cone {ci} has {len(cone)} rays, expected {m}"
            )
            break
        inverse = linalg.inverse_int(fan.cone_matrix(cone))
        if inverse is None:
            simplicial = CheckResult(False, ci + 1, f"max cone {ci} has linearly dependent rays")
            break
        inverses.append(inverse)

    skipped = CheckResult(False, 0, "skipped: simplicial check failed")
    complete = gorenstein = ample = skipped
    vertices = []
    if simplicial.ok:
        complete = _complete_criterion(fan)
        gorenstein_witness = ample_witness = None
        ample_checked = 0
        for ci, (cone, (det, adj)) in enumerate(zip(fan.max_cones, inverses)):
            # <u, rho_i> = -1 on the cone's rays A: u = -A^-1 . 1 = -adj . 1 / det
            sums = [sum(row) for row in adj]
            if any(x % det for x in sums):
                gorenstein_witness = f"max cone {ci}: <u, rho_i> = -1 has no integral solution"
                continue
            vertex = tuple(-x // det for x in sums)
            vertices.append(vertex)
            if ample_witness is None:
                ample_checked += 1
                for rj in range(fan.n_rays):
                    if rj in cone:
                        continue
                    pairing = _dot(vertex, fan.rays[rj])
                    if pairing <= -1:
                        ample_witness = (
                            f"max cone {ci}: <{tuple(vertex)}, ray {rj} {fan.rays[rj]}> "
                            f"= {pairing} <= -1"
                        )
                        break
        gorenstein = CheckResult(gorenstein_witness is None, cones, gorenstein_witness)
        ample = CheckResult(ample_witness is None, ample_checked, ample_witness)

    torsion_free = CheckResult(True, 1)
    hermite = _free_hermite_form(fan)
    if hermite is None:  # the Smith form only words the failure
        factors = linalg.invariant_factors(fan.rays)
        witness = f"class group torsion: invariant factors {factors}"
        if len(factors) < m:
            witness = "rays do not span the ambient lattice over Q"
        torsion_free = CheckResult(False, 1, witness)

    report = ValidationReport(simplicial, complete, gorenstein, ample, torsion_free)
    report.hermite = hermite
    if report.all_pass:
        report.polytope = AnticanPolytope(m, tuple(vertices), tuple(inverses))
    return report


def _complete_criterion(fan: FanData) -> CheckResult:
    """Ridge pairing: every (m-1)-face of a max cone lies in exactly two max
    cones and the induced adjacency graph is connected.  Every max cone's
    ridges are paired before either is decided, so it checks them all."""
    cones = len(fan.max_cones)
    ridge_count: dict[tuple[int, ...], list[int]] = {}
    for ci, cone in enumerate(fan.max_cones):
        for ridge in combinations(cone, fan.dim - 1):
            ridge_count.setdefault(ridge, []).append(ci)
    for ridge, owners in ridge_count.items():
        if len(owners) != 2:
            return CheckResult(
                False,
                cones,
                f"ridge {ridge} lies in {len(owners)} max cone(s): {owners}",
            )
    # connectivity of the adjacency graph
    if not cones:
        return CheckResult(False, 0, "no maximal cones")
    adjacency: dict[int, set[int]] = {i: set() for i in range(cones)}
    for a, b in ridge_count.values():
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for nb in adjacency[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != cones:
        missing = sorted(set(range(cones)) - seen)
        return CheckResult(False, cones, f"cone adjacency graph disconnected; unreachable {missing}")
    return CheckResult(True, cones)


# ---------------------------------------------------------------------------
# class group and grading


def _free_hermite_form(fan: FanData) -> list[list[int]] | None:
    """The Hermite form W [R | I] = [H | W] of the r x m ray matrix R, or None
    when the class group Z^r / R Z^m is not free: when H's top block is not I_m."""
    m, identity = fan.dim, linalg.identity_int(fan.n_rays)
    h = linalg.hermite_row_canonical([list(ray) + e for ray, e in zip(fan.rays, identity)])
    return h if [row[:m] for row in h[:m]] == linalg.identity_int(m) else None


def class_group(fan: FanData) -> GradingMap:
    """Grading of the Cox ring by the class group, read off the Hermite form
    W [R | I] = [H | W] of ``_free_hermite_form`` that ``fan.validation``
    keeps.  The rows of W beside the zero rows of H are the canonical basis
    of the degree functionals {w : w R = 0}.  W is unimodular, so
    W^-1 = det * adj with det = +-1 (``inverse_int``), and W W^-1 = I makes
    the last r - m columns of W^-1 the section: degree_rows() @ section = I.
    ``FanData.grading`` computes it once per fan for every reader."""
    r, m = fan.n_rays, fan.dim
    h = fan.validation.hermite
    if h is None:
        factors = linalg.invariant_factors(fan.rays)
        # a zero factor means the rays are degenerate
        raise TorsionClassGroup(factors + [0] * (min(r, m) - len(factors)))
    rows = [row[m:] for row in h[m:]]  # the degree functionals
    det, adj = linalg.inverse_int([row[m:] for row in h])
    grading = GradingMap(
        rank=len(rows),
        degrees=tuple(tuple(row[i] for row in rows) for i in range(r)),
        beta=tuple(map(sum, rows)),
        section=tuple(tuple(det * x for x in row[m:]) for row in adj),
    )
    assert abs(det) == 1  # W is unimodular
    # Gale duality sanity: the degree functionals annihilate the ray matrix
    for row in grading.degree_rows():
        for j in range(m):
            assert sum(row[i] * fan.rays[i][j] for i in range(r)) == 0
    return grading


# ---------------------------------------------------------------------------
# anti-canonical polytope and its normalized volume


def anticanonical_polytope(fan: FanData) -> AnticanPolytope:
    """The polytope of ``fan.validation``; raises NotReflexivePipeline
    with the name and witness of the first failing check when there is
    none."""
    report = fan.validation
    if report.polytope is None:
        name = next(name for name in CHECKS if not getattr(report, name).ok)
        raise NotReflexivePipeline(f"{name}: {getattr(report, name).witness}")
    return report.polytope


def normalized_volume(polytope: AnticanPolytope) -> int:
    """m! times the Euclidean volume of the anti-canonical polytope.

    Uses the vertex-cone (Lawrence/Brion) formula for simple polytopes: at
    each vertex the edge directions are the columns of the inverse of the
    active-constraint matrix, and

        Vol = sum_v (c.v)^m |det E_v| / (m! prod_j (-c.e_j))

    for any linear functional c avoiding the edge hyperplanes.  Exact in
    rational arithmetic; the m!-scaled result is asserted integral.
    """
    m = polytope.dim
    if not polytope.vertices:
        raise DegeneratePolytope("no vertices")
    data = []
    for vertex, (det, adj) in zip(polytope.vertices, polytope.cone_inverses):
        edges = [[adj[i][j] for i in range(m)] for j in range(m)]  # det * columns of A^-1
        data.append((vertex, edges, det))

    t = 2
    while True:
        c = [t**k for k in range(m)]
        if all(
            _dot(c, edge) != 0 for _, edges, _ in data for edge in edges
        ):
            break
        t += 1

    # the sum below is already m! Vol: each vertex contributes
    # (c.v)^m |det E_v| / prod_j(-c.e_j) and the 1/m! of the classical
    # formula cancels against the requested m! normalization.  The edges
    # e_j are the columns of adj / det, so |det E_v| = 1 / |det| and
    # prod_j(-c.e_j) = prod_j(-c.adj_j) / det^m.
    scaled = Fraction(0)
    for vertex, edges, det in data:
        denominator = abs(det)
        for edge in edges:
            denominator *= -_dot(c, edge)
        scaled += Fraction(_dot(c, vertex) ** m * det**m, denominator)
    if scaled.denominator != 1:
        raise DegeneratePolytope(f"non-integral normalized volume {scaled}")
    value = int(scaled)
    if value <= 0:
        raise DegeneratePolytope(f"normalized volume {value} is not positive")
    return value


# ---------------------------------------------------------------------------
# Betti numbers and the cup-product necessary condition


def all_cones(fan: FanData) -> set[tuple[int, ...]]:
    """Every face of every maximal cone (simplicial fans: all ray subsets)."""
    cones: set[tuple[int, ...]] = {()}
    for cone in fan.max_cones:
        for k in range(1, len(cone) + 1):
            cones.update(combinations(cone, k))
    return cones


def betti_numbers(fan: FanData) -> list[int]:
    """Even Betti numbers from sum over cones of (t-1)^(m - dim sigma); the
    returned list is b_0 .. b_{2m} with zero odd entries."""
    m = fan.dim
    poly = [0] * (m + 1)  # coefficients of t^k
    for cone in all_cones(fan):
        e = m - len(cone)
        for k in range(e + 1):
            poly[k] += comb(e, k) * (-1) ** (e - k)
    return [poly[k // 2] if k % 2 == 0 else 0 for k in range(2 * m + 1)]


def extraisom_necessary_check(betti: Sequence[int]) -> str:
    """Necessary-condition status for the middle cup-product hypothesis,
    from the Betti numbers b_0 .. b_{2m} of ``betti_numbers``.

    Returns "TriviallyHolds" for odd ambient dimension (both cohomology
    groups sit in odd degree and vanish), otherwise compares the Betti
    numbers b_{m-2} and b_m as a dimension-equality necessary condition.
    """
    m = (len(betti) - 1) // 2
    if m % 2 == 1:
        return "TriviallyHolds"
    if betti[m - 2] == betti[m]:
        return "NecessaryConditionOK"
    return "NecessaryConditionFails"


# ---------------------------------------------------------------------------
# lattice point enumeration (Fourier-Motzkin) and graded monomial bases


def _normalize_ineq(coeffs: Sequence[int], const: int):
    g = gcd(*coeffs, const)
    if g > 1:
        coeffs = tuple(x // g for x in coeffs)
        const = const // g
    return tuple(coeffs), const


def _projection_bounds(ineqs: Iterable[tuple[tuple[int, ...], int]], dim: int) -> list:
    """Fourier-Motzkin projection: for each coordinate k, the pair (lower,
    upper) of the inequalities on x_0..x_k that bound x_k from below and
    from above, each as (coeffs on x_0..x_{k-1}, const, |a|)."""
    system = {_normalize_ineq(c, k) for c, k in ineqs}
    bounds: list = [None] * dim
    for level in range(dim - 1, -1, -1):
        # rest = const + coeffs . x[:level]; a * x_level + rest >= 0 gives
        # x_level >= ceil(-rest / a) for a > 0, x_level <= floor(rest / -a)
        # for a < 0, and each (lower, upper) pair an inequality on x[:level]
        nxt: set[tuple[tuple[int, ...], int]] = set()
        lower, upper = [], []
        for coeffs, const in sorted(system):
            a = coeffs[level]
            if a == 0:  # dropping a zero coefficient keeps the gcd
                nxt.add((coeffs[:level], const))
            elif a > 0:
                lower.append((coeffs[:level], const, a))
            else:
                upper.append((coeffs[:level], const, -a))
        for pc, pk, ap in lower:
            for nc, nk, an in upper:
                combo = tuple(an * x + ap * y for x, y in zip(pc, nc))
                nxt.add(_normalize_ineq(combo, an * pk + ap * nk))
        bounds[level] = (lower, upper)
        system = nxt
    return bounds


def _affine_lattice_images(
    ineqs: list[tuple[tuple[int, ...], int]],
    start: Sequence[int],
    cols: Sequence[Sequence[int]],
    radix: int,
) -> dict[int, tuple[int, ...]]:
    """{code: image} over the integer points x with coeffs . x + const >= 0
    for every inequality, in lex order of x: the image is ``start + sum_k
    x_k cols[k]`` and its code the ``monomial_code`` at ``radix``.  Points
    whose images share a code keep one entry.

    ``_projection_bounds`` gives, for each coordinate k, the inequalities
    on x_0..x_k that bound x_k; ``_sweep`` then runs over x_0, x_1, ...
    within those bounds and carries the image and its code, adding cols[k]
    and its code for each step of x_k: the code is linear, so a point costs
    one vector add and one int add.  The set of images does not depend on
    the order of the coordinates, only their order in the dict does: a
    caller that sorts the images may permute the coordinates (the
    inequalities and ``cols`` alike) to make the sweep cheaper.
    """
    # no level bounds an inequality with no coefficient, so check it here
    if any(const < 0 and not any(coeffs) for coeffs, const in ineqs):
        return {}
    dim = len(cols)
    code = monomial_code(start, radix)
    if dim == 0:
        return {code: tuple(start)}
    steps = [(col, monomial_code(col, radix)) for col in cols]
    out: dict[int, tuple[int, ...]] = {}
    _sweep(0, _projection_bounds(ineqs, dim), steps, [0] * dim, tuple(start), code, out)
    return out


def _sweep(level, bounds, steps, prefix, image, code, out) -> None:
    """Enter in ``out`` the image of every point whose first ``level``
    coordinates are ``prefix[:level]``, keyed by its code; ``image`` and
    ``code`` are those of that prefix with the later coordinates zero, and
    ``steps[k]`` is (cols[k], its code).  A module-level function rather
    than a closure, so no reference cycle keeps ``out`` alive.

    A level bounded by one inequality on a side, as most are, evaluates it
    directly rather than through a list and ``max`` or ``min``."""
    lower, upper = bounds[level]
    if not lower or not upper:
        raise DegeneratePolytope(
            f"unbounded direction at coordinate {level}; fan not complete?"
        )
    if len(lower) == 1:
        coeffs, const, a = lower[0]
        lo = -((const + sum(map(mul, coeffs, prefix))) // a)
    else:
        lo = max([-((const + sum(map(mul, coeffs, prefix))) // a) for coeffs, const, a in lower])
    if len(upper) == 1:
        coeffs, const, a = upper[0]
        hi = (const + sum(map(mul, coeffs, prefix))) // a
    else:
        hi = min([(const + sum(map(mul, coeffs, prefix))) // a for coeffs, const, a in upper])
    if lo > hi:
        return
    col, step = steps[level]
    image = tuple(map(add, image, map(mul, col, repeat(lo))))
    code += step * lo
    if level == len(steps) - 1:
        out[code] = image
        for _ in range(hi - lo):
            image = tuple(map(add, image, col))
            code += step
            out[code] = image
        return
    for value in range(lo, hi + 1):
        prefix[level] = value
        _sweep(level + 1, bounds, steps, prefix, image, code, out)
        image = tuple(map(add, image, col))
        code += step


def _sweep_order(
    ineqs: list[tuple[tuple[int, ...], int]], dim: int
) -> tuple[list[int], list[int]]:
    """(order, reach) of the bounded polytope P = {x : coeffs . x + const
    >= 0}.  ``order`` lists the coordinates by increasing width of P along
    them, ties by index: the narrowest outermost makes fewer ``_sweep``
    calls.  ``reach[i]`` = sum_k |coeffs_i[k]| e_k bounds |coeffs_i . x|
    over P, where e_k, the largest |x_k| over P rounded up, is read off the
    same projection onto x_k alone as the width, one Fourier-Motzkin pass
    with x_k first: its inequalities a x_k + c >= 0 (a > 0) and
    -a x_k + c >= 0 give -x_k <= c / a and x_k <= c / a, exactly.  Raises
    ``DegeneratePolytope`` when P is unbounded along a coordinate."""
    widths, extents = [], []
    for k in range(dim):
        perm = [k] + [j for j in range(dim) if j != k]
        lower, upper = _projection_bounds(
            [(tuple(c[j] for j in perm), const) for c, const in ineqs], dim
        )[0]
        if not lower or not upper:
            raise DegeneratePolytope(
                f"unbounded direction at coordinate {k}; fan not complete?"
            )
        lo = max(-(const // a) for _, const, a in lower)
        hi = min(const // a for _, const, a in upper)
        widths.append((hi - lo, k))
        extents.append(
            max(min(-(-const // a) for _, const, a in side) for side in (lower, upper))
        )
    reach = [sum(abs(x) * e for x, e in zip(c, extents)) for c, _ in ineqs]
    return [k for _, k in sorted(widths)], reach


class Monomials(list):
    """The graded-lex monomials of one S_alpha, with their grlex codes:
    ``codes[i]`` is ``monomial_code(self[i], radix)``, and ``radix``
    exceeds every exponent, so the codes strictly increase."""

    __slots__ = ("codes", "radix")

    def __init__(self, monos: Iterable[Monomial], codes: list[int], radix: int):
        super().__init__(monos)
        self.codes = codes
        self.radix = radix


def monomial_basis(fan: FanData, alpha: Sequence[int]) -> Monomials:
    """All exponent vectors of class-group degree alpha, graded-lex sorted,
    with their codes, under ``fan.grading``; ``DegreeMismatch`` unless
    alpha has one entry per rank of the class group.

    Starts at the exponent vector u0 = section . alpha of degree alpha,
    whose entries may be negative, then enumerates the fiber
    u0 + (ray matrix) x over the lattice points x of the polytope
    u0_rho + <x, rho> >= 0, carrying the exponent vector and its code
    through the sweep (column k of the ray matrix is added for each step
    of x_k).  The fiber lies in t Delta for t = max(0, max u0), as
    <x, rho> >= -u0_rho >= -t, so the exponent u0_rho + <x, rho> is at
    most u0_rho + t reach_rho, with ``FanData.sweep_plan``'s bound
    reach_rho on |<u, rho>| over Delta: the radix, 1 + the largest of
    these, is fixed before the sweep and exceeds every exponent.

    The coordinates are swept in the fan's sweep order, Delta's, fixed
    once per fan.  The order changes which monomial comes out when, never
    which monomials come out, and one sort of the codes fixes the list:
    below the radix, the order of the codes is graded-lex order, that of
    ``poly.grlex_key``.
    """
    grading = fan.grading
    if len(alpha) != grading.rank:
        raise DegreeMismatch(f"degree {tuple(alpha)} is not of the class group's rank {grading.rank}")
    u0 = [sum(map(mul, row, alpha)) for row in grading.section]
    order, reach = fan.sweep_plan
    t = max([0, *u0])
    radix = 1 + max([0, *(u + t * s for u, s in zip(u0, reach))])
    ineqs = [(tuple(ray[k] for k in order), const) for ray, const in zip(fan.rays, u0)]
    cols = [tuple(ray[k] for ray in fan.rays) for k in order]
    images = _affine_lattice_images(ineqs, u0, cols, radix)
    codes = sorted(images)
    return Monomials(map(images.__getitem__, codes), codes, radix)
