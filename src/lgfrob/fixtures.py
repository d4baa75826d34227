"""Built-in fans and potentials used for examples, golden data and tests.

Projective-bundle ray layouts are derived from the required degree relations:
the degree columns must annihilate the ray matrix.  For P(O + O(1)) over P^2
the x-rays e1, e2, -e1-e2-e3 and y-rays e3, -e3 satisfy
sum(rho_x) = -e3 = rho_{y2}; every relation below is re-verified when the
class group is computed.  Bundle coefficients are fixed literals so every
derived number is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .errors import InputSchemaError
from .poly import GradedPolynomial, parse_polynomial
from .toric import FanData

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Fixture:
    name: str
    fan: FanData
    variables: tuple[str, ...]
    poly_text: str
    # degrees as the literature states them; compared to the computed grading
    # up to a unimodular change of class-group basis
    stated_degrees: tuple[tuple[int, ...], ...] | None = None
    stated_beta: tuple[int, ...] | None = None
    zero_sets: tuple[tuple[str, ...], ...] = ()
    expected_fail: str | None = None  # validation flag expected to fail
    options: dict = field(default_factory=dict)

    @property
    def polynomial(self) -> GradedPolynomial:
        return parse_polynomial(self.poly_text, self.variables)

    def to_input_document(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "fan": {
                "dim": self.fan.dim,
                "rays": [list(r) for r in self.fan.rays],
                "max_cones": [list(c) for c in self.fan.max_cones],
            },
            "variables": list(self.variables),
            "polynomial": self.poly_text,
        }
        if self.zero_sets:
            doc["zero_sets"] = [list(s) for s in self.zero_sets]
        if self.options:
            doc["options"] = dict(self.options)
        if self.stated_degrees is not None:
            doc["stated_degrees"] = [list(d) for d in self.stated_degrees]
        if self.stated_beta is not None:
            doc["stated_beta"] = list(self.stated_beta)
        if self.expected_fail:
            doc["expected_fail"] = self.expected_fail
        return doc


def fixture_projective(r: int) -> Fixture:
    """P^(r-1) with the Fermat potential sum z_i^r; requires r >= 3."""
    if r < 3:
        raise InputSchemaError(f"projective fixture needs r >= 3, got {r}")
    m = r - 1
    rays = [tuple(1 if j == i else 0 for j in range(m)) for i in range(m)]
    rays.append((-1,) * m)
    cones = [tuple(j for j in range(r) if j != i) for i in range(r)]
    variables = tuple(f"z{i}" for i in range(r))
    poly = " + ".join(f"z{i}^{r}" for i in range(r))
    return Fixture(
        name=f"projective-{r}",
        fan=FanData(m, rays, cones),
        variables=variables,
        poly_text=poly,
        stated_degrees=tuple((1,) for _ in range(r)),
        stated_beta=(r,),
    )


def fixture_product_p1p1() -> Fixture:
    return Fixture(
        name="p1xp1",
        fan=FanData(
            2,
            [(1, 0), (-1, 0), (0, 1), (0, -1)],
            [(0, 2), (0, 3), (1, 2), (1, 3)],
        ),
        variables=("x0", "x1", "y0", "y1"),
        poly_text=(
            "x0^2*y0^2 + x1^2*y1^2 + x0^2*y1^2 + x1^2*y0^2 + x0*x1*y0*y1"
        ),
        stated_degrees=((1, 0), (1, 0), (0, 1), (0, 1)),
        stated_beta=(2, 2),
    )


_BUNDLE_P2_POLY = (
    "5*x0^4*y2^2 + 7*x0^3*x1*y2^2 + 4*x0^3*x2*y2^2 + 8*x0^2*x1^2*y2^2"
    " + 6*x0^2*x1*x2*y2^2 + x0^2*x2^2*y2^2 + 6*x0*x1^3*y2^2"
    " + 2*x0*x1^2*x2*y2^2 + 3*x0*x1*x2^2*y2^2 + 4*x0*x2^3*y2^2"
    " + 8*x1^4*y2^2 + 6*x1^3*x2*y2^2 + 2*x1^2*x2^2*y2^2 + 8*x1*x2^3*y2^2"
    " + 4*x2^4*y2^2 + 8*x0^2*y1^2 + x0*x1*y1^2 + 7*x0*x2*y1^2"
    " + 8*x1^2*y1^2 + x1*x2*y1^2 + 5*x2^2*y1^2"
)


def fixture_bundle_p2() -> Fixture:
    """P(O + O(1)) over P^2 (m = 3) with f = y1^2 u(x) + y2^2 v(x):
    u a full quadric, v a full quartic, coefficients fixed above."""
    rays = [(1, 0, 0), (0, 1, 0), (-1, -1, -1), (0, 0, 1), (0, 0, -1)]
    cones = [
        tuple(sorted(set([0, 1, 2]) - {i})) + (y,)
        for i in range(3)
        for y in (3, 4)
    ]
    return Fixture(
        name="bundle-p2",
        fan=FanData(3, rays, cones),
        variables=("x0", "x1", "x2", "y1", "y2"),
        poly_text=_BUNDLE_P2_POLY,
        stated_degrees=((1, 0), (1, 0), (1, 0), (0, 1), (-1, 1)),
        stated_beta=(2, 2),
        zero_sets=(("y1", "y2"), ("x0", "x1", "x2")),
    )


def fixture_bundle_p6() -> Fixture:
    """P(O(2) + O(3)) over P^6 (m = 7) with f = y1^2 u(x) + y2^2 v(x),
    u = sum x_i^6, v = sum x_i^8.

    Ray derivation: with deg x_i = (1, 0), deg y1 = (-2, 1), deg y2 = (-3, 1)
    the relations sum(rho_x) = 2 rho_{y1} + 3 rho_{y2} and
    rho_{y1} + rho_{y2} = 0 must hold; taking rho_{x_i} = e_i for i < 6,
    rho_{y1} = e_7, rho_{y2} = -e_7 forces rho_{x_6} = -e_1 - ... - e_7.
    The middle graded pieces at m = 7 are far beyond desk scale, so reports
    cap dimension computations at a <= 1 by default.
    """
    xr = [tuple(1 if j == i else 0 for j in range(7)) for i in range(6)]
    rays = xr + [(-1,) * 7, (0, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0, -1)]
    cones = [
        tuple(sorted(set(range(7)) - {i})) + (y,)
        for i in range(7)
        for y in (7, 8)
    ]
    u = "+".join(f"x{i}^6" for i in range(7))
    v = "+".join(f"x{i}^8" for i in range(7))
    return Fixture(
        name="bundle-p6",
        fan=FanData(7, rays, cones),
        variables=tuple(f"x{i}" for i in range(7)) + ("y1", "y2"),
        poly_text=f"y1^2*({u}) + y2^2*({v})",
        stated_degrees=tuple([(1, 0)] * 7 + [(-2, 1), (-3, 1)]),
        stated_beta=(2, 2),
        zero_sets=(("y1", "y2"), tuple(f"x{i}" for i in range(7))),
        options={"max_degree_a": 1},
    )


def fixture_weighted_p112() -> Fixture:
    """Weighted projective plane P(1,1,2) (simplicial Gorenstein orbifold).

    Rays ordered so the variable degrees come out (1, 1, 2): the relation
    1*(1,0) + 1*(-1,-2) + 2*(0,1) = 0 pins the weights to the variables of
    f = x^4 + y^4 + z^2.
    """
    return Fixture(
        name="weighted-p112",
        fan=FanData(2, [(1, 0), (-1, -2), (0, 1)], [(0, 1), (1, 2), (0, 2)]),
        variables=("x", "y", "z"),
        poly_text="x^4 + y^4 + z^2",
        stated_degrees=((1,), (1,), (2,)),
        stated_beta=(4,),
    )


def fixture_hirzebruch3() -> Fixture:
    """Hirzebruch surface F_3: Gorenstein but not Fano (ample fails);
    negative control for validation."""
    return Fixture(
        name="hirzebruch-3",
        fan=FanData(
            2,
            [(1, 0), (0, 1), (-1, 3), (0, -1)],
            [(0, 1), (1, 2), (2, 3), (3, 0)],
        ),
        variables=("a", "b", "c", "d"),
        poly_text="a*b*c*d",
        expected_fail="ample",
    )


def fixture_degenerate_cube() -> Fixture:
    """f = x^3 on P^2: homogeneous of anti-canonical degree but with
    degenerate Jacobian quotients; negative control for socle certificates."""
    base = fixture_projective(3)
    return Fixture(
        name="degenerate-cube",
        fan=base.fan,
        variables=("x", "y", "z"),
        poly_text="x^3",
    )


def unimodular_transform(
    computed: tuple[tuple[int, ...], ...], stated: tuple[tuple[int, ...], ...]
):
    """Integer matrix T with |det T| = 1 mapping the computed variable
    degrees onto the stated ones (T . computed_i = stated_i for all i), or
    None when no such change of class-group basis exists.  The computed
    degrees must span Q^rank, so T is unique when it exists.  With B the
    first rank independent computed degrees and S their stated ones,
    T B^T = S^T gives T = S^T adj(B)^T / det B: one ``inverse_int``."""
    if not computed or len(computed) != len(stated):
        return None
    rank = len(computed[0])
    if any(len(d) != rank for d in computed) or any(len(d) != rank for d in stated):
        return None
    scan = linalg.EchelonBasis(rank)
    chosen = [
        i for i, d in enumerate(computed) if scan.rank < rank and scan.add_row(dict(enumerate(d)))
    ]
    if len(chosen) < rank:
        return None
    det, adj = linalg.inverse_int([computed[i] for i in chosen])
    s = [stated[i] for i in chosen]
    t = [[sum(s[n][k] * adj[j][n] for n in range(rank)) for j in range(rank)] for k in range(rank)]
    if any(x % det for row in t for x in row):  # T is not integral
        return None
    t = [[x // det for x in row] for row in t]
    inverse = linalg.inverse_int(t)
    if inverse is None or abs(inverse[0]) != 1:
        return None
    for comp, want in zip(computed, stated):
        got = tuple(sum(t[i][k] * comp[k] for k in range(rank)) for i in range(rank))
        if got != tuple(want):
            return None
    return t


_BUILDERS = {
    "projective-3": lambda: fixture_projective(3),
    "projective-4": lambda: fixture_projective(4),
    "projective-5": lambda: fixture_projective(5),
    "p1xp1": fixture_product_p1p1,
    "bundle-p2": fixture_bundle_p2,
    "bundle-p6": fixture_bundle_p6,
    "weighted-p112": fixture_weighted_p112,
    "hirzebruch-3": fixture_hirzebruch3,
    "degenerate-cube": fixture_degenerate_cube,
}


def fixture_names() -> list[str]:
    return sorted(_BUILDERS)


def get_fixture(name: str) -> Fixture:
    builder = _BUILDERS.get(name)
    if builder is None:
        raise InputSchemaError(
            f"unknown fixture {name!r}; available: {', '.join(fixture_names())}"
        )
    return builder()
