"""Fan validation, class-group grading, polytope volume, Betti numbers and
graded monomial enumeration.

The volume oracle is Ehrhart counting: for an m-dimensional lattice polytope
the number of lattice points in the a-fold dilation is a degree-m polynomial
in a whose m-th finite difference equals m! times the Euclidean volume.
"""

import gc
import random
from fractions import Fraction
from itertools import product
from math import comb
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    count_lattice_points_dilated,
    det,
    dilated_points,
    mat_mul_int,
    mat_vec_int,
    polytope_vertices,
    reference_polytope,
    rref,
)

from lgfrob import linalg
from lgfrob.errors import InvalidFan, NotReflexivePipeline, TorsionClassGroup
from lgfrob.fixtures import fixture_names, get_fixture
from lgfrob.poly import grlex_key
from lgfrob.toric import (
    FanData,
    _affine_lattice_images,
    anticanonical_polytope,
    betti_numbers,
    class_group,
    extraisom_necessary_check,
    monomial_basis,
    normalized_volume,
    validate_fan,
)


def lattice_points(ineqs, dim):
    identity = [tuple(1 if i == k else 0 for i in range(dim)) for k in range(dim)]
    return _affine_lattice_images(ineqs, (0,) * dim, identity)


def projective_plane():
    return FanData(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def product_p1p1():
    return FanData(
        2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 2), (0, 3), (1, 2), (1, 3)]
    )


SMALL_FIXTURES = ["projective-3", "projective-4", "p1xp1", "weighted-p112", "bundle-p2"]


class TestFanData:
    def test_rejects_non_primitive_ray(self):
        with pytest.raises(InvalidFan):
            FanData(2, [(2, 0), (0, 1), (-1, -1)], [(0, 1)])

    def test_rejects_wrong_ray_length(self):
        with pytest.raises(InvalidFan):
            FanData(2, [(1, 0, 0)], [(0,)])

    def test_rejects_unknown_ray_index(self):
        with pytest.raises(InvalidFan):
            FanData(2, [(1, 0), (0, 1)], [(0, 5)])


class TestValidation:
    @pytest.mark.parametrize("name", SMALL_FIXTURES + ["bundle-p6"])
    def test_positive_fixtures_all_pass(self, name):
        report = validate_fan(get_fixture(name).fan)
        assert report.all_pass, report

    def test_hirzebruch_ample_witness(self):
        report = validate_fan(get_fixture("hirzebruch-3").fan)
        assert report.simplicial.ok
        assert report.complete_criterion.ok
        assert report.gorenstein.ok
        assert not report.ample.ok
        assert "-2" in report.ample.witness

    def test_incomplete_fan_detected(self):
        fan = FanData(2, [(1, 0), (0, 1)], [(0, 1)])
        report = validate_fan(fan)
        assert not report.complete_criterion.ok
        assert "ridge" in report.complete_criterion.witness

    def test_non_simplicial_cone_detected(self):
        fan = FanData(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1, 2)])
        report = validate_fan(fan)
        assert not report.simplicial.ok

    @pytest.mark.parametrize("name", fixture_names())
    def test_one_elimination_per_cone(self, name, monkeypatch):
        """Simpliciality and the Gorenstein vertex share one inverse_int
        per maximal cone; no separate determinant is taken."""
        fan = get_fixture(name).fan
        calls = {"inverse_int": 0}

        def counted(fn):
            def wrapper(*args):
                calls[fn.__name__] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(linalg, "inverse_int", counted(linalg.inverse_int))
        report = validate_fan(fan)
        assert report.simplicial.ok
        assert calls == {"inverse_int": len(fan.max_cones)}

    def test_dependent_rays_detected(self):
        fan = FanData(2, [(1, 0), (-1, 0), (0, 1)], [(0, 1), (1, 2), (0, 2)])
        report = validate_fan(fan)
        assert report.simplicial.witness == "max cone 0 has linearly dependent rays"
        assert report.gorenstein.witness == "skipped: simplicial check failed"

    @pytest.mark.parametrize(
        "rays, cones, witness",
        [
            # the rays span the index-2 lattice of points with x + y even
            (
                [(1, 1), (-1, 1), (-1, -1), (1, -1)],
                [(0, 1), (1, 2), (2, 3), (0, 3)],
                "class group torsion: invariant factors [1, 2]",
            ),
            ([(1, 0), (-1, 0)], [(0,), (1,)], "rays do not span the ambient lattice over Q"),
        ],
        ids=["index-2", "rank-1"],
    )
    def test_torsion_witness(self, rays, cones, witness):
        report = validate_fan(FanData(2, rays, cones))
        assert not report.torsion_free.ok
        assert report.torsion_free.witness == witness

    def test_non_gorenstein_detected(self):
        # P(1,1,3): the cone over (1,0) and (-1,-3) needs u = (-1, 2/3)
        fan = FanData(2, [(1, 0), (0, 1), (-1, -3)], [(0, 1), (1, 2), (0, 2)])
        report = validate_fan(fan)
        assert not report.gorenstein.ok
        assert "integral" in report.gorenstein.witness


class TestClassGroup:
    def test_projective_plane(self):
        g = class_group(projective_plane())
        assert g.rank == 1
        assert g.degrees == ((1,), (1,), (1,))
        assert g.beta == (3,)

    def test_product_rank_two(self):
        g = class_group(product_p1p1())
        assert g.rank == 2
        assert g.beta == (2, 2)

    def test_weighted_p112(self):
        g = class_group(get_fixture("weighted-p112").fan)
        assert g.degrees == ((1,), (1,), (2,))
        assert g.beta == (4,)

    def test_degree_functionals_annihilate_rays(self):
        for name in SMALL_FIXTURES + ["bundle-p6"]:
            fan = get_fixture(name).fan
            g = class_group(fan)
            for row in g.degree_rows():
                for j in range(fan.dim):
                    assert sum(row[i] * fan.rays[i][j] for i in range(fan.n_rays)) == 0

    @pytest.mark.parametrize("name", fixture_names())
    def test_canonical_degree_rows_and_section(self, name):
        """The degree rows are their own Hermite form, annihilate the rays,
        and the section is a right inverse of them."""
        fan = get_fixture(name).fan
        g = class_group(fan)
        rows = g.degree_rows()
        assert linalg.hermite_row_canonical(rows) == rows
        assert mat_mul_int(rows, [list(ray) for ray in fan.rays]) == [[0] * fan.dim] * g.rank
        assert mat_mul_int(rows, [list(x) for x in g.section]) == linalg.identity_int(g.rank)

    def test_torsion_rejected(self):
        # rays (1,2), (1,-2) span an index-4 sublattice of Z^2
        fan = FanData(2, [(1, 2), (1, -2), (-1, 0)], [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(TorsionClassGroup):
            class_group(fan)


class TestPolytopeAndVolume:
    def test_projective_plane_vertices(self):
        fan = projective_plane()
        polytope = anticanonical_polytope(fan)
        assert set(polytope.vertices) == {(-1, -1), (2, -1), (-1, 2)}

    def test_gorenstein_vertices_weighted(self):
        polytope = anticanonical_polytope(get_fixture("weighted-p112").fan)
        assert set(polytope.vertices) == {(-1, -1), (-1, 1), (3, -1)}

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("projective-3", 9),
            ("projective-4", 64),
            ("projective-5", 625),
            ("p1xp1", 8),
            ("weighted-p112", 8),
        ],
    )
    def test_known_volumes(self, name, expected):
        fan = get_fixture(name).fan
        assert normalized_volume(anticanonical_polytope(fan)) == expected

    @pytest.mark.parametrize("name", ["projective-3", "p1xp1", "weighted-p112", "bundle-p2"])
    def test_ehrhart_finite_difference_oracle(self, name):
        fan = get_fixture(name).fan
        polytope = anticanonical_polytope(fan)
        m = fan.dim
        counts = [count_lattice_points_dilated(fan, polytope, a) for a in range(m + 1)]
        oracle = sum((-1) ** (m - k) * comb(m, k) * counts[k] for k in range(m + 1))
        assert normalized_volume(polytope) == oracle

    def test_unimodular_invariance(self):
        rng = random.Random(41)
        base = projective_plane()
        expected = normalized_volume(anticanonical_polytope(base))
        for _ in range(20):
            # random unimodular matrix from shear generators
            u = [[1, 0], [0, 1]]
            for _ in range(rng.randint(1, 6)):
                s = rng.randint(-3, 3)
                if rng.random() < 0.5:
                    u = mat_mul_int(u, [[1, s], [0, 1]])
                else:
                    u = mat_mul_int(u, [[1, 0], [s, 1]])
            rays = [
                tuple(mat_vec_int(u, list(ray))) for ray in base.rays
            ]
            fan = FanData(2, rays, base.max_cones)
            assert normalized_volume(anticanonical_polytope(fan)) == expected

    def test_non_reflexive_rejected(self):
        # Gorenstein fails for this fan; the polytope pipeline refuses it
        fan = FanData(2, [(1, 0), (0, 1), (-1, -3)], [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(NotReflexivePipeline):
            anticanonical_polytope(fan)


class TestPolytopeFromValidation:
    @pytest.mark.parametrize(
        "name", [n for n in fixture_names() if n != "hirzebruch-3"]
    )
    def test_equals_reference(self, name):
        """validate_fan's polytope has the reference's vertices in cone
        order and the same (det, adj) per cone, and no two cones share a
        vertex, so the reference's de-duplication removed nothing."""
        fan = get_fixture(name).fan
        polytope = validate_fan(fan).polytope
        assert polytope == reference_polytope(fan)
        assert len(set(polytope.vertices)) == len(fan.max_cones)

    @pytest.mark.parametrize(
        "fan, check",
        [
            (get_fixture("hirzebruch-3").fan, "ample"),
            # P(1,1,3), as in test_non_reflexive_rejected
            (FanData(2, [(1, 0), (0, 1), (-1, -3)], [(0, 1), (1, 2), (0, 2)]), "gorenstein"),
        ],
    )
    def test_none_when_a_check_fails(self, fan, check):
        assert validate_fan(fan).polytope is None
        with pytest.raises(NotReflexivePipeline, match=f"^{check}: max cone"):
            anticanonical_polytope(fan)

    def test_nef_but_not_ample_refused(self):
        """On the Hirzebruch surface F_2 the cones (0, 1) and (1, 2) share
        the vertex (-1, -1), where three facets meet, so Delta is not simple
        and the vertex formula of normalized_volume does not apply (it gave
        41/4, not (-K)^2 = 8).  Ampleness refuses the fan."""
        fan = FanData(
            2, [(1, 0), (0, 1), (-1, 2), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)]
        )
        assert len(reference_polytope(fan).vertices) == 3
        witness = r"^ample: max cone 0: <\(-1, -1\), ray 2"
        with pytest.raises(NotReflexivePipeline, match=witness):
            anticanonical_polytope(fan)


class TestIntegerInverse:
    @pytest.mark.parametrize("name", fixture_names())
    def test_equals_rref_inverse_on_every_maximal_cone(self, name):
        """inverse_int gives (det, adj) with adj / det equal, entry for
        entry, to the inverse the rational RREF of [A | I] gives."""
        fan = get_fixture(name).fan
        for cone in fan.max_cones:
            a = fan.cone_matrix(cone)
            n = len(a)
            aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
            reduced, rank, pivots = rref(aug)
            assert pivots[:n] == tuple(range(n))
            d, adj = linalg.inverse_int(a)
            assert d == det(a)
            assert [[Fraction(x, d) for x in row] for row in adj] == [
                row[n:] for row in reduced
            ]


@st.composite
def bounded_systems(draw):
    """(box, inequalities, start, cols): coeffs . x + const >= 0 in 1 to 4
    dimensions, bounded by lo_k <= x_k <= hi_k (empty when some hi_k <
    lo_k), which alone puts one inequality on each side of every level, and
    cut by up to three more, which may have no coefficient; with a start
    vector and the image columns of the coordinates."""
    dim = draw(st.integers(1, 4))
    lows = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
    box = [(lo, lo + draw(st.integers(-1, 4))) for lo in lows]
    ineqs = []
    for k, (lo, hi) in enumerate(box):
        unit = [int(i == k) for i in range(dim)]
        ineqs += [(tuple(unit), -lo), (tuple(-x for x in unit), hi)]
    coeffs = st.tuples(*[st.integers(-3, 3)] * dim)
    ineqs += draw(st.lists(st.tuples(coeffs, st.integers(-6, 6)), max_size=3))
    width = draw(st.integers(1, 3))
    start = draw(st.tuples(*[st.integers(-5, 5)] * width))
    cols = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * width), min_size=dim, max_size=dim))
    return box, ineqs, start, cols


class TestCarriedEnumeration:
    @pytest.mark.parametrize("name", fixture_names())
    def test_monomial_basis_equals_per_point_formula(self, name):
        """At every a beta and a beta - deg z_i with a <= m + 1 (a <= 1 on
        bundle-p6), including degrees with no monomials, against the
        reference box sweep: the monomials of degree a beta are the
        exponent vectors <x, rho> + a of the lattice points x of a Delta,
        and those of degree a beta - deg z_i are z^e / z_i for the ones
        with e_i > 0.  The box of a Delta's vertices covers both."""
        fan = get_fixture(name).fan
        g = class_group(fan)
        vertices = polytope_vertices(fan)
        top = 1 if name == "bundle-p6" else fan.dim + 1
        empty = 0
        for a in range(top + 1):
            points = dilated_points(fan, vertices, a)
            alpha = g.scaled_beta(a)
            assert monomial_basis(g, fan, alpha) == sorted(points, key=grlex_key), a
            for i, deg in enumerate(g.degrees):
                degree = tuple(x - d for x, d in zip(alpha, deg))
                cofactors = [e[:i] + (e[i] - 1,) + e[i + 1 :] for e in points if e[i]]
                monos = monomial_basis(g, fan, degree)
                assert monos == sorted(cofactors, key=grlex_key), degree
                empty += not monos
        assert empty

    def test_lattice_points_of_a_box_in_lex_order(self):
        ineqs = [((1, 0), 1), ((-1, 0), 2), ((0, 1), 0), ((0, -1), 1)]
        assert lattice_points(ineqs, 2) == [
            (x, y) for x in range(-1, 3) for y in range(0, 2)
        ]

    @given(bounded_systems())
    @settings(max_examples=50, deadline=None)
    def test_sweep_equals_box_enumeration(self, system):
        """``_affine_lattice_images`` lists the image of every point of the
        box that satisfies every inequality, in lex order of the point."""
        box, ineqs, start, cols = system
        want = [
            tuple(s + sum(map(mul, col, x)) for s, col in zip(start, zip(*cols)))
            for x in product(*(range(lo, hi + 1) for lo, hi in box))
            if all(sum(map(mul, coeffs, x)) + const >= 0 for coeffs, const in ineqs)
        ]
        assert _affine_lattice_images(ineqs, start, cols) == want

    def test_inequality_without_coefficients(self):
        box = [((1,), 0), ((-1,), 2)]
        assert lattice_points(box + [((0,), 0)], 1) == [(0,), (1,), (2,)]
        assert lattice_points(box + [((0,), -1)], 1) == []

    @pytest.mark.parametrize("name", ["projective-4", "bundle-p2"])
    def test_no_cyclic_garbage(self, name):
        """The sweep holds its output in no reference cycle, so the list
        is freed when the caller drops it, not by the cycle collector."""
        fan = get_fixture(name).fan
        g = class_group(fan)
        gc.collect()
        gc.disable()
        try:
            assert monomial_basis(g, fan, g.scaled_beta(2))
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestBetti:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("projective-3", [1, 0, 1, 0, 1]),
            ("projective-5", [1, 0, 1, 0, 1, 0, 1, 0, 1]),
            ("p1xp1", [1, 0, 2, 0, 1]),
        ],
    )
    def test_known_betti(self, name, expected):
        assert betti_numbers(get_fixture(name).fan) == expected

    def test_bundle_p6_poincare_polynomial(self):
        # (1 + t + ... + t^6)(1 + t): even Betti numbers 1,2,2,2,2,2,2,1
        betti = betti_numbers(get_fixture("bundle-p6").fan)
        assert betti[0::2] == [1, 2, 2, 2, 2, 2, 2, 1]
        assert all(b == 0 for b in betti[1::2])

    @pytest.mark.parametrize("name", SMALL_FIXTURES)
    def test_poincare_duality_and_euler_characteristic(self, name):
        fan = get_fixture(name).fan
        betti = betti_numbers(fan)
        assert betti == betti[::-1]
        assert betti[0] == 1
        # Euler characteristic of a complete simplicial toric variety equals
        # the number of maximal cones
        assert sum(betti) == len(fan.max_cones)

    def test_extraisom_statuses(self):
        def status(fan):
            return extraisom_necessary_check(betti_numbers(fan))

        assert status(get_fixture("bundle-p6").fan) == "TriviallyHolds"
        assert status(get_fixture("bundle-p2").fan) == "TriviallyHolds"
        assert status(projective_plane()) == "NecessaryConditionOK"
        assert status(product_p1p1()) == "NecessaryConditionFails"


class TestMonomialBasis:
    def test_projective_plane_cubics(self):
        fan = projective_plane()
        g = class_group(fan)
        monos = monomial_basis(g, fan, (3,))
        assert len(monos) == 10
        assert monos == sorted(monos, key=lambda m: (sum(m), m))
        assert all(g.monomial_degree(m) == (3,) for m in monos)

    def test_no_integer_solve_per_degree(self, monkeypatch):
        """Every enumeration starts at section . alpha and eliminates
        nothing."""
        fan = get_fixture("bundle-p2").fan
        g = class_group(fan)
        polytope = anticanonical_polytope(fan)

        def refuse(*args):
            raise AssertionError("monomial_basis eliminated")

        for name in ("hermite_row_canonical", "smith_normal_form", "inverse_int"):
            monkeypatch.setattr(linalg, name, refuse)
        monos = monomial_basis(g, fan, g.scaled_beta(2))
        assert len(monos) == count_lattice_points_dilated(fan, polytope, 2)

    def test_empty_for_unreachable_degree(self):
        fan = product_p1p1()
        g = class_group(fan)
        assert monomial_basis(g, fan, (1, -1)) == []

    @pytest.mark.parametrize("name", SMALL_FIXTURES)
    @pytest.mark.parametrize("a", [0, 1, 2])
    def test_two_method_count_agreement(self, name, a):
        """Monomials of degree a*beta are in bijection with lattice points of
        the a-fold dilated anti-canonical polytope; the counter on the right
        is an independent bounding-box sweep."""
        fan = get_fixture(name).fan
        g = class_group(fan)
        polytope = anticanonical_polytope(fan)
        monos = monomial_basis(g, fan, g.scaled_beta(a))
        assert len(monos) == count_lattice_points_dilated(fan, polytope, a)

    def test_bundle_p6_beta_count(self):
        fx = get_fixture("bundle-p6")
        g = class_group(fx.fan)
        # u-part 210 + y1 y2 cross part 1716 + v-part 3003 monomials... the
        # committed value is pinned by the dilation counter
        monos = monomial_basis(g, fx.fan, g.beta)
        polytope = anticanonical_polytope(fx.fan)
        assert len(monos) == count_lattice_points_dilated(fx.fan, polytope, 1) == 5643

    def test_lattice_points_unbounded_raises(self):
        from lgfrob.errors import DegeneratePolytope

        with pytest.raises(DegeneratePolytope):
            lattice_points([((1, 0), 0), ((0, 1), 0)], 2)  # first quadrant
