"""Built-in fixtures: construction invariants, stated-degree matching and
the full certificate gauntlet on the small positive cases."""

import random

import pytest

from lgfrob import frobenius as frob
from lgfrob import jacobian as jac
from lgfrob import linalg
from lgfrob.errors import InputSchemaError
from lgfrob.fixtures import (
    Fixture,
    fixture_names,
    fixture_projective,
    get_fixture,
    unimodular_transform,
)
from lgfrob.poly import check_homogeneous
from lgfrob.toric import class_group, validate_fan

POSITIVE = [
    "projective-3",
    "projective-4",
    "projective-5",
    "p1xp1",
    "bundle-p2",
    "bundle-p6",
    "weighted-p112",
]

# fixtures satisfying every hypothesis of the construction, cheap enough to
# run the complete pipeline in tests
GAUNTLET = ["projective-3", "projective-4", "weighted-p112", "bundle-p2"]


class TestRegistry:
    def test_names_are_stable(self):
        assert "projective-5" in fixture_names()
        assert "bundle-p6" in fixture_names()

    def test_unknown_name_rejected(self):
        with pytest.raises(InputSchemaError):
            get_fixture("nonexistent")

    def test_projective_requires_three_variables(self):
        with pytest.raises(InputSchemaError):
            fixture_projective(2)

    def test_input_documents_round_trip(self):
        import json

        for name in fixture_names():
            doc = get_fixture(name).to_input_document()
            assert json.loads(json.dumps(doc)) == doc
            assert doc["schema_version"] == 1


class TestConstruction:
    @pytest.mark.parametrize("name", POSITIVE)
    def test_validation_passes(self, name):
        assert validate_fan(get_fixture(name).fan).all_pass

    def test_negative_fixture_tagged(self):
        fx = get_fixture("hirzebruch-3")
        assert fx.expected_fail == "ample"
        report = validate_fan(fx.fan)
        assert not report.ample.ok

    @pytest.mark.parametrize("name", POSITIVE)
    def test_polynomial_has_anticanonical_degree(self, name):
        fx = get_fixture(name)
        grading = class_group(fx.fan)
        assert check_homogeneous(fx.polynomial, grading) == grading.beta

    @pytest.mark.parametrize("name", POSITIVE)
    def test_stated_degrees_match_up_to_unimodular_transform(self, name):
        fx = get_fixture(name)
        grading = class_group(fx.fan)
        t = unimodular_transform(grading.degrees, fx.stated_degrees)
        assert t is not None
        rank = grading.rank
        beta_t = tuple(
            sum(t[i][k] * grading.beta[k] for k in range(rank)) for i in range(rank)
        )
        assert beta_t == fx.stated_beta

    def test_bundle_p6_stated_relations(self):
        """The stated degree columns annihilate the ray matrix: with
        deg x_i = (1,0), deg y1 = (-2,1), deg y2 = (-3,1) both relations
        sum(rho_x) = 2 rho_y1 + 3 rho_y2 and rho_y1 + rho_y2 = 0 hold."""
        fx = get_fixture("bundle-p6")
        rays = fx.fan.rays
        for k in range(2):
            weights = [d[k] for d in fx.stated_degrees]
            for j in range(7):
                assert sum(w * rays[i][j] for i, w in enumerate(weights)) == 0

    def test_unimodular_transform_rejects_mismatch(self):
        assert unimodular_transform(((1,), (1,)), ((1,), (2,))) is None
        # scaling by 2 is not unimodular
        assert unimodular_transform(((1,), (1,)), ((2,), (2,))) is None

    @pytest.mark.parametrize(
        "computed, stated, want",
        [
            # B = [[2]] has det 2, yet T = [[2 / 2]] is integral
            (((2,), (3,)), ((2,), (3,)), [[1]]),
            # T = [[1/2]] exists over Q only
            (((2,), (4,)), ((1,), (2,)), None),
            # the first two degrees are dependent: the scan skips (2, 4) and
            # fixes T on (1, 2) and (0, 1)
            (((1, 2), (2, 4), (0, 1)), ((3, 2), (6, 4), (1, 1)), [[1, 1], [0, 1]]),
        ],
        ids=["det-2-integral", "rational-only", "dependent-skipped"],
    )
    def test_unimodular_transform_through_one_square(self, computed, stated, want):
        assert unimodular_transform(computed, stated) == want


class TestGauntlet:
    @pytest.mark.parametrize("name", GAUNTLET)
    def test_full_certificate_suite(self, name):
        fx = get_fixture(name)
        grading = class_group(fx.fan)
        system = jac.jacobian_system(fx.fan, grading, fx.polynomial)
        m = system.m

        assert [jac.dim_R(system, p) for p in (m, m + 1)] == [0, 0]
        assert jac.socle_certificates(system).ok
        r0 = jac.graded_piece(system, jac.IDEAL_J0, grading.scaled_beta(m))
        assert (jac.dim_R(system, m - 1), r0.dim) == (1, 1)
        dims = [jac.dim_R(system, a) for a in range(m)]
        assert dims == dims[::-1]
        if fx.zero_sets:
            assert all(
                r.ok for r in jac.crit_containment_check(system, fx.zero_sets)
            )
        D = frob.build_algebra(system)
        report = frob.frobenius_axiom_check(D)
        assert report.all_pass, report


def _random_unimodular(rng, rank):
    """Identity changed by random swaps, sign flips and row additions."""
    t = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(3 * rank):
        i, j = rng.randrange(rank), rng.randrange(rank)
        move = rng.randrange(3)
        if move == 0:
            t[i], t[j] = t[j], t[i]
        elif move == 1:
            t[i] = [-x for x in t[i]]
        elif i != j:
            q = rng.randint(-3, 3)
            t[i] = [x + q * y for x, y in zip(t[i], t[j])]
    return t


def _apply(t, degrees):
    return tuple(
        tuple(sum(x * d for x, d in zip(row, deg)) for row in t) for deg in degrees
    )


def _spanning_degrees(rng, rank):
    """Between rank and rank + 3 integer degree vectors spanning Q^rank."""
    while True:
        degrees = tuple(
            tuple(rng.randint(-4, 4) for _ in range(rank))
            for _ in range(rank + rng.randint(0, 3))
        )
        if linalg.rank_rational(degrees) == rank:
            return degrees


class TestUnimodularTransformRandomized:
    """Seeded random cases of ``unimodular_transform``: when the computed
    degrees span Q^rank, the transform is unique, so it is recovered exactly
    or shown not to exist."""

    def test_random_unimodular_is_recovered(self):
        rng = random.Random(53)
        for _ in range(150):
            rank = rng.randint(1, 3)
            computed = _spanning_degrees(rng, rank)
            t = _random_unimodular(rng, rank)
            assert unimodular_transform(computed, _apply(t, computed)) == t

    def test_non_unimodular_gives_none(self):
        rng = random.Random(59)
        for _ in range(150):
            rank = rng.randint(1, 3)
            computed = _spanning_degrees(rng, rank)
            t = _random_unimodular(rng, rank)
            k = rng.randrange(rank)
            t[k] = [rng.choice((-3, -2, 2, 3)) * x for x in t[k]]  # |det| >= 2
            assert unimodular_transform(computed, _apply(t, computed)) is None

    def test_rank_deficient_computed_gives_none(self):
        rng = random.Random(61)
        for _ in range(100):
            rank = rng.randint(2, 3)
            # every degree is a combination of rank - 1 generators
            gens = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank - 1)]
            coefficients = [
                [rng.randint(-2, 2) for _ in gens]
                for _ in range(rank + rng.randint(0, 3))
            ]
            computed = tuple(
                tuple(sum(c * g[k] for c, g in zip(cs, gens)) for k in range(rank))
                for cs in coefficients
            )
            t = _random_unimodular(rng, rank)
            assert unimodular_transform(computed, _apply(t, computed)) is None

    def test_mismatched_lengths_give_none(self):
        rng = random.Random(67)
        for _ in range(50):
            rank = rng.randint(1, 3)
            computed = _spanning_degrees(rng, rank)
            stated = _apply(_random_unimodular(rng, rank), computed)
            assert unimodular_transform(computed, stated[:-1]) is None
            assert unimodular_transform(computed[:-1], stated) is None
            longer = stated[:1] + (stated[0] + (1,),) + stated[2:]
            assert unimodular_transform(computed, longer) is None
        assert unimodular_transform((), ()) is None
