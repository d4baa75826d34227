"""Graded Jacobian quotients: dimensions against Hilbert-series oracles,
normal forms, Macaulay vanishing, socle and membership certificates."""

import gc
import random
import sys
from fractions import Fraction
from functools import cmp_to_key
from operator import le, sub

import pytest
from reference import rows_from_factorization
from test_verdicts import generic_document

from lgfrob import jacobian as jac
from lgfrob import linalg
from lgfrob.cli import main
from lgfrob.errors import DegreeMismatch
from lgfrob.fixtures import fixture_names, get_fixture
from lgfrob.poly import GradedPolynomial, monomial_code, parse_polynomial
from lgfrob.report import parse_run_config, run_report
from lgfrob.toric import class_group, monomial_basis


def make_system(name):
    """The system of a fixture; ``pencil-d`` is the Fermat pencil
    sum_i z_i^d - d psi z_0...z_m at psi = 1/2 on the fan of projective-d,
    whose partials have two terms."""
    if name.startswith("pencil-"):
        d = int(name.removeprefix("pencil-"))
        fx = get_fixture(f"projective-{d}")
        terms = {tuple(d * (j == i) for j in range(d)): 1 for i in range(d)}
        terms[(1,) * d] = Fraction(-d, 2)
        f = GradedPolynomial(fx.variables, terms)
        return jac.jacobian_system(fx.fan, class_group(fx.fan), f)
    fx = get_fixture(name)
    grading = class_group(fx.fan)
    return jac.jacobian_system(fx.fan, grading, fx.polynomial)


@pytest.fixture(scope="module")
def cubic():
    return make_system("projective-3")


@pytest.fixture(scope="module")
def quintic():
    return make_system("projective-5")


@pytest.fixture(scope="module")
def bundle_p2():
    return make_system("bundle-p2")


def fermat_quotient_dims(r):
    """Hilbert series oracle for the Fermat hypersurface of degree r in r
    variables: S/J with J = (z_i^(r-1)) has series ((1-t^(r-1))/(1-t))^r =
    (1 + t + ... + t^(r-2))^r; returns dim R(f)_{a*r} for a = 0..r-2."""
    poly = [1]
    block = [1] * (r - 1)
    for _ in range(r):
        out = [0] * (len(poly) + len(block) - 1)
        for i, x in enumerate(poly):
            for j, y in enumerate(block):
                out[i + j] += x * y
        poly = out
    return [poly[a * r] if a * r < len(poly) else 0 for a in range(r - 1)]


class TestGradedPieces:
    def test_cubic_socle_pieces(self, cubic):
        piece = jac.graded_piece(cubic, jac.IDEAL_J, (3,))
        assert piece.basis == [(1, 1, 1)]
        piece0 = jac.graded_piece(cubic, jac.IDEAL_J0, (6,))
        assert piece0.basis == [(2, 2, 2)]

    def test_dimension_accounting(self, cubic, bundle_p2):
        """dim S_alpha = rank + dim for every computed piece."""
        for system in (cubic, bundle_p2):
            m = system.m
            for a in range(m + 2):
                alpha = system.grading.scaled_beta(a)
                for ideal in (jac.IDEAL_J, jac.IDEAL_J0):
                    piece = jac.graded_piece(system, ideal, alpha)
                    ambient = len(
                        monomial_basis(system.grading, system.fan, alpha)
                    )
                    assert ambient == piece.rank + piece.dim

    def test_quintic_dims_match_hilbert_series(self, quintic):
        oracle = fermat_quotient_dims(5)
        assert oracle == [1, 101, 101, 1]
        assert [jac.dim_R(quintic, a) for a in range(4)] == oracle

    def test_cubic_dims_match_hilbert_series(self, cubic):
        assert [jac.dim_R(cubic, a) for a in range(2)] == fermat_quotient_dims(3)

    def test_quartic_surface_dims(self):
        system = make_system("projective-4")
        oracle = fermat_quotient_dims(4)
        assert [jac.dim_R(system, a) for a in range(3)] == oracle

    @pytest.mark.parametrize("name", ["projective-3", "projective-4", "weighted-p112", "bundle-p2"])
    def test_hodge_symmetry(self, name):
        system = make_system(name)
        m = system.m
        dims = [jac.dim_R(system, a) for a in range(m)]
        assert dims == dims[::-1]

    def test_weighted_p112_dims(self):
        system = make_system("weighted-p112")
        assert [jac.dim_R(system, a) for a in range(2)] == [1, 1]

    def test_p1xp1_socle_obstruction(self):
        """On P^1 x P^1 the two Euler relations are a forced dependency
        among the eight relation rows at degree beta, so dim R(f)_beta >= 2
        for every potential; the socle certificate must fail."""
        system = make_system("p1xp1")
        assert jac.dim_R(system, 1) == 2
        assert not jac.socle_certificates(system).ok

    def test_prefilter_agrees_with_exact(self, cubic, monkeypatch):
        """The modular shortcut never changes a committed dimension."""
        want = [jac.dim_R(cubic, a) for a in range(4)]
        fx = get_fixture("projective-3")
        grading = class_group(fx.fan)
        exact = jac.jacobian_system(fx.fan, grading, fx.polynomial)
        monkeypatch.setattr(jac, "_block_kernel", lambda rows, cols: None)
        assert [jac.dim_R(exact, a) for a in range(4)] == want


class TestNormalForm:
    def test_ideal_elements_vanish(self, cubic):
        piece = jac.graded_piece(cubic, jac.IDEAL_J, (3,))
        z3 = parse_polynomial("z0^3", cubic.variables)
        assert jac.normal_form(z3, piece) == [Fraction(0)]

    def test_basis_element_is_unit_vector(self, cubic):
        piece = jac.graded_piece(cubic, jac.IDEAL_J, (3,))
        xyz = parse_polynomial("z0*z1*z2", cubic.variables)
        assert jac.normal_form(xyz, piece) == [Fraction(1)]
        piece0 = jac.graded_piece(cubic, jac.IDEAL_J0, (6,))
        gen = parse_polynomial("z0^2*z1^2*z2^2", cubic.variables)
        assert jac.normal_form(gen, piece0) == [Fraction(1)]

    def test_degree_mismatch_rejected(self, cubic):
        piece = jac.graded_piece(cubic, jac.IDEAL_J, (3,))
        with pytest.raises(DegreeMismatch):
            jac.normal_form(parse_polynomial("z0^2", cubic.variables), piece)

    @pytest.mark.parametrize("name", ["projective-3", "bundle-p2"])
    def test_linearity_on_random_samples(self, name):
        system = make_system(name)
        m = system.m
        alpha = system.grading.scaled_beta(m - 1)
        piece = jac.graded_piece(system, jac.IDEAL_J, alpha)
        monos = monomial_basis(system.grading, system.fan, alpha)
        rng = random.Random(97)
        for _ in range(20):
            p = GradedPolynomial(
                system.variables,
                {mo: rng.randint(-5, 5) for mo in rng.sample(monos, min(4, len(monos)))},
            )
            q = GradedPolynomial(
                system.variables,
                {mo: rng.randint(-5, 5) for mo in rng.sample(monos, min(4, len(monos)))},
            )
            s = Fraction(rng.randint(-3, 3))
            lhs = jac.normal_form(p.scale(s) + q, piece)
            nf_p = jac.normal_form(p, piece)
            nf_q = jac.normal_form(q, piece)
            rhs = [s * a + b for a, b in zip(nf_p, nf_q)]
            assert lhs == rhs

    @pytest.mark.parametrize("name", ["projective-3", "p1xp1", "bundle-p2"])
    def test_socle_shift_lands_in_euler_ideal(self, name):
        """z_1...z_r times anything in J(f) at degree (m-1)beta reduces to 0
        in R0(f)_{m beta}."""
        system = make_system(name)
        m = system.m
        alpha = system.grading.scaled_beta(m - 1)
        monos, rows = jac.relation_rows(system, jac.IDEAL_J, alpha)
        piece0 = jac.graded_piece(
            system, jac.IDEAL_J0, system.grading.scaled_beta(m)
        )
        rng = random.Random(101)
        shift = (1,) * len(system.variables)
        for _ in range(10):
            # random element of the relation span
            combo: dict[int, Fraction] = {}
            for row in rng.sample(rows, min(5, len(rows))):
                c = Fraction(rng.randint(-3, 3))
                for j, x in row.items():
                    combo[j] = combo.get(j, Fraction(0)) + c * x
            u = GradedPolynomial(
                system.variables,
                {monos[j]: c for j, c in combo.items() if c},
            )
            if u.is_zero():
                continue
            shifted = u.mul_monomial(shift)
            assert all(c == 0 for c in jac.normal_form(shifted, piece0))


def every_generator(system, ideal):
    """Every nonzero generator of the ideal with its degree, from the
    system's own lists: each partial f_i for J, each z_i f_i for J0, with
    none of the Euler generators left out."""
    beta = system.grading.beta
    if ideal == jac.IDEAL_J:
        gens = [
            (g, tuple(map(sub, beta, deg)))
            for g, deg in zip(system.partials, system.grading.degrees)
        ]
    else:
        gens = [(g, beta) for g in system.euler_gens]
    return [(g, deg) for g, deg in gens if not g.is_zero()]


def plain_piece(system, ideal, alpha):
    """Reference: the rows of every nonzero generator of the ideal
    (``every_generator``) through one EchelonBasis, with no blocks and no
    modular certificate.  The row space does not depend on the order of the
    rows; taking them by highest column keeps the coefficients small.
    Returns the ambient monomials, the pivots and ``EchelonBasis.reduce`` of
    every ambient column."""
    monos, rows = tuple_keyed_rows(system, every_generator(system, ideal), alpha)
    echelon = linalg.EchelonBasis(len(monos))
    for row in sorted(rows, key=max):
        echelon.add_row(row)
        if echelon.is_full_column_rank():
            # every column is a pivot, so every remainder is 0
            return monos, echelon.pivots, [{} for _ in monos]
    return monos, echelon.pivots, [echelon.reduce({c: 1}) for c in range(len(monos))]


@pytest.fixture(scope="module")
def plain_pieces():
    """``plain_piece`` of a fixture's system, built once per module and keyed
    by (fixture, ideal, alpha).  The relation rows, and so the reference, do
    not depend on the prefilter or on its prime."""
    cache = {}

    def get(name, ideal, alpha):
        key = (name, ideal, alpha)
        if key not in cache:
            cache[key] = plain_piece(make_system(name), ideal, alpha)
        return cache[key]

    return get


def assert_same_piece(piece, monos, pivots, reduced):
    """Same pivots, basis and remainder of every ambient column as the
    reference of ``plain_piece``, the remainders by ``EchelonBasis.reduce``
    rather than by the piece's table."""
    assert piece.monomials == monos
    assert piece.pivots == pivots
    pivot_set = set(pivots)
    assert piece.basis == [mo for i, mo in enumerate(monos) if i not in pivot_set]
    basis_cols = (c for c in range(len(monos)) if c not in pivot_set)
    basis_index = {c: k for k, c in enumerate(basis_cols)}
    table = piece.remainders()
    for c in range(len(monos)):
        want = {basis_index[j]: x for j, x in reduced[c].items()}
        assert table[c] == want, monos[c]


class TestBlocks:
    """Each piece is built block by block (connected components of the
    relation rows), with full-rank blocks certified instead of eliminated."""

    @pytest.mark.parametrize(
        "name",
        [
            "projective-3", "projective-4", "weighted-p112", "p1xp1", "bundle-p2",
            "degenerate-cube", "pencil-3", "pencil-4",
        ],
    )
    def test_blocked_pieces_equal_plain_echelon(self, name, plain_pieces):
        system = make_system(name)
        merged = 0
        for a in range(system.m + 2):
            alpha = system.grading.scaled_beta(a)
            for ideal in (jac.IDEAL_J, jac.IDEAL_J0):
                piece = jac.graded_piece(system, ideal, alpha)
                assert_same_piece(piece, *plain_pieces(name, ideal, alpha))
                merged += piece.merged_columns
        # the pencils' two-term rows merge columns; no fixture's rows do
        assert bool(merged) == name.startswith("pencil-")

    def test_quintic_pencil_report_pieces_equal_plain_echelon(self, plain_pieces):
        """The pieces a report on the quintic pencil builds: R(f) at
        a = 0 .. 3 and R0(f) at a = 4."""
        system = make_system("pencil-5")
        for ideal, a in [(jac.IDEAL_J, a) for a in range(4)] + [(jac.IDEAL_J0, 4)]:
            alpha = system.grading.scaled_beta(a)
            piece = jac.graded_piece(system, ideal, alpha)
            assert_same_piece(piece, *plain_pieces("pencil-5", ideal, alpha))

    def test_simulated_modular_miss_falls_back_to_exact(self, monkeypatch, plain_pieces):
        """A block whose rank mod p falls short of its rank over Q (as when p
        divides a minor) is eliminated exactly: the piece equals the one
        built without the modular certificate.  R(f)_{2 beta} of bundle-p2
        has one block that is certified mod p and one (88 columns, rank 87)
        that is lifted.  Dropping the last step of the certified block's
        factorization leaves its last basis row out of the row basis; the
        lift reports the miss because of that row: over the other basis
        rows alone it succeeds, and with the dropped row added it fails."""
        ideal, alpha = jac.IDEAL_J, (4, 4)
        certified = jac.graded_piece(make_system("bundle-p2"), ideal, alpha)
        with monkeypatch.context() as without_prefilter:
            without_prefilter.setattr(jac, "_block_kernel", lambda rows, cols: None)
            reference = jac.graded_piece(make_system("bundle-p2"), ideal, alpha)
        assert reference.certified_blocks == 0  # neither block is one column

        original, lift = linalg.rank_mod_p, linalg.lift_kernel
        missed, lifts = [], []

        def miss_once(rows, ncols, p=linalg.PREFILTER_PRIME):
            basis = original(rows, ncols, p)
            if basis.rank == ncols and not missed:
                missed.append((basis, linalg.ModularEchelon(p, basis.steps[:-1])))
                return missed[0][1]
            return basis

        def recording_lift(rows, ncols, basis):
            kernel = lift(rows, ncols, basis)
            lifts.append((list(rows), basis, kernel))  # re-keyed back on None
            return kernel

        monkeypatch.setattr(linalg, "rank_mod_p", miss_once)
        monkeypatch.setattr(linalg, "lift_kernel", recording_lift)
        piece = jac.graded_piece(make_system("bundle-p2"), ideal, alpha)
        assert missed, "no block was certified mod p"
        full, short = missed[0]
        rows, kernel = next((rows, k) for rows, b, k in lifts if b is short)
        assert kernel is None
        ncols, dropped = full.rank, full.rows[-1]
        kept = set(short.rows)
        others = [row if k in kept else {} for k, row in enumerate(rows)]
        assert len(lift(others, ncols, short)) == 1
        others[dropped] = rows[dropped]
        assert lift(others, ncols, short) is None

        assert piece.echelon is not None
        assert piece.blocks == reference.blocks
        assert piece.certified_blocks == certified.certified_blocks - 1
        assert piece.lifted_blocks == certified.lifted_blocks == 1
        # the fallback block is eliminated row by row up to its full rank
        assert certified.eliminated_rows == 0
        assert piece.eliminated_rows >= ncols
        plain = plain_pieces("bundle-p2", ideal, alpha)
        assert_same_piece(piece, *plain)
        assert_same_piece(reference, *plain)

    @pytest.mark.parametrize("name", ["bundle-p2", "p1xp1"])
    def test_small_prime_misses_fall_back_to_exact(self, name, monkeypatch, plain_pieces):
        """With the prefilter at p = 3, where rank mod p falls short of the
        rank over Q, every piece still equals the plain echelon: the lift
        reports each miss and the block is eliminated row by row, whatever
        p is."""
        original, lift = linalg.rank_mod_p, linalg.lift_kernel
        fallbacks = []

        def mod_3(rows, ncols, p=linalg.PREFILTER_PRIME):
            return original(rows, ncols, 3)

        def counting(rows, ncols, basis):
            kernel = lift(rows, ncols, basis)
            fallbacks.append(kernel is None)
            return kernel

        monkeypatch.setattr(linalg, "lift_kernel", counting)
        monkeypatch.setattr(linalg, "rank_mod_p", mod_3)
        system = make_system(name)
        for a in range(system.m + 2):
            alpha = system.grading.scaled_beta(a)
            for ideal in (jac.IDEAL_J, jac.IDEAL_J0):
                piece = jac.graded_piece(system, ideal, alpha)
                assert_same_piece(piece, *plain_pieces(name, ideal, alpha))
        assert sum(fallbacks) > 0, "no lift found the rank over Q above mod 3"

    def test_lift_uses_the_modular_factorization(self, monkeypatch):
        """One modular elimination per block: the lift of every block that
        rank_mod_p does not certify receives the factorization rank_mod_p
        returned, every row it keeps is in it, once and independent over
        Q, the factorization reproduces each of those rows mod p, and the
        lifted kernel annihilates every row of the block."""
        returned, lifted = [], []
        rank_mod_p, lift = linalg.rank_mod_p, linalg.lift_kernel

        def recording_rank(rows, ncols, p=linalg.PREFILTER_PRIME):
            basis = rank_mod_p(rows, ncols, p)
            if basis.rank < ncols:
                returned.append(basis)
            return basis

        def recording_lift(rows, ncols, basis):
            kernel = lift(rows, ncols, basis)
            lifted.append((list(rows), ncols, basis, kernel))
            return kernel

        monkeypatch.setattr(linalg, "rank_mod_p", recording_rank)
        monkeypatch.setattr(linalg, "lift_kernel", recording_lift)
        system = make_system("bundle-p2")
        for a in range(system.m + 2):
            for ideal in (jac.IDEAL_J, jac.IDEAL_J0):
                jac.graded_piece(system, ideal, system.grading.scaled_beta(a))
        assert len(lifted) >= 2
        assert [basis for _, _, basis, _ in lifted] == returned
        for (rows, ncols, basis, kernel), want in zip(lifted, returned):
            assert basis is want
            kept = basis.rows
            assert kept == sorted(set(kept))
            assert len({step[1] for step in basis.steps}) == len(kept)
            assert linalg.rank_rational([
                [rows[k].get(c, 0) for c in range(ncols)] for k in kept
            ]) == len(kept)
            assert rows_from_factorization(basis, ncols) == [
                [rows[k].get(c, 0) % basis.p for c in range(ncols)] for k in kept
            ]
            assert len(kernel) == ncols - len(kept)
            for vector in kernel:
                assert all(
                    sum(x * vector[c] for c, x in row.items()) == 0 for row in rows
                )

    def test_row_counters(self, bundle_p2):
        """No row of a lifted block is eliminated; every one is verified
        against its kernel.  Each piece below has one certified block and
        one of corank 1.  The lifted blocks have 116 and 189 rows, where
        all generator x cofactor rows would give 135 and 228: the rows the
        syzygy criterion skips are never checked."""
        piece = jac.graded_piece(bundle_p2, jac.IDEAL_J, (4, 4))
        assert (piece.eliminated_rows, piece.remainder_checked_rows) == (0, 116)
        piece0 = jac.graded_piece(bundle_p2, jac.IDEAL_J0, (6, 6))
        assert (piece0.eliminated_rows, piece0.remainder_checked_rows) == (0, 189)

    @pytest.mark.parametrize("always", [False, True])
    def test_perturbed_kernel_entry_is_rejected(self, always, monkeypatch, plain_pieces):
        """Fault injection: one entry of a reconstructed kernel vector is
        off by one, in the first reconstruction or in every one.  The exact
        check against every row rejects it: once, and a later step is
        accepted; always, and the lift reports a miss at its bound, so the
        block is eliminated row by row.  Either way the piece equals the
        plain echelon."""
        original = linalg.reconstruct_vector
        perturbed = []

        def perturb(x, m):
            vector = original(x, m)
            if vector is not None and (always or not perturbed):
                i = max(c for c, v in enumerate(vector) if v)
                vector[i] += 1
                perturbed.append(i)
            return vector

        monkeypatch.setattr(linalg, "reconstruct_vector", perturb)
        system = make_system("bundle-p2")
        ideal, alpha = jac.IDEAL_J, (4, 4)
        piece = jac.graded_piece(system, ideal, alpha)
        assert perturbed
        assert (piece.blocks, piece.certified_blocks) == (2, 1)
        assert piece.lifted_blocks == (0 if always else 1)
        assert (piece.eliminated_rows > 0) == always
        assert_same_piece(piece, *plain_pieces("bundle-p2", ideal, alpha))

    def test_block_with_fewer_rows_than_columns_skips_modular_rank(self, monkeypatch):
        calls = []
        original = linalg.rank_mod_p

        def recording(rows, ncols, p=linalg.PREFILTER_PRIME):
            calls.append((len(rows), ncols))
            return original(rows, ncols, p)

        monkeypatch.setattr(linalg, "rank_mod_p", recording)
        system = make_system("bundle-p2")
        alpha = system.grading.scaled_beta(1)
        for ideal in (jac.IDEAL_J, jac.IDEAL_J0):
            monos, rows = jac.relation_rows(system, ideal, alpha)
            blocks = linalg.connected_blocks(rows, len(monos))
            assert blocks and all(len(r) < len(c) for c, r in blocks)
            piece = jac.graded_piece(system, ideal, alpha)
            assert piece.certified_blocks == 0
        assert calls == []
        # every block that does reach the modular rank has rows >= columns
        jac.graded_piece(system, jac.IDEAL_J, system.grading.scaled_beta(3))
        assert calls and all(rows >= cols for rows, cols in calls)

    def test_block_counters(self, bundle_p2):
        piece = jac.graded_piece(bundle_p2, jac.IDEAL_J, (8, 8))
        assert (piece.blocks, piece.certified_blocks) == (2, 2)
        assert piece.rank == len(piece.monomials) and piece.dim == 0
        piece = jac.graded_piece(bundle_p2, jac.IDEAL_J, (4, 4))
        assert (piece.blocks, piece.certified_blocks, piece.lifted_blocks) == (2, 1, 1)
        piece0 = jac.graded_piece(bundle_p2, jac.IDEAL_J0, (6, 6))
        assert (piece0.blocks, piece0.certified_blocks, piece0.lifted_blocks) == (2, 1, 1)
        assert piece0.dim == 1
        quartic = make_system("projective-4")
        piece = jac.graded_piece(quartic, jac.IDEAL_J, (16,))
        # every Fermat row has one term: the structural pass takes them all
        assert (piece.unit_columns, piece.merged_columns, piece.blocks) == (969, 0, 0)
        assert len(piece.monomials) == 969

    def test_certifier_runs_without_numpy(self, monkeypatch):
        """The modular certificate needs no numeric package: with numpy
        unimportable, R(f)_{2 beta} of bundle-p2 still certifies one of its
        two blocks mod p."""
        monkeypatch.setitem(sys.modules, "numpy", None)
        piece = jac.graded_piece(make_system("bundle-p2"), jac.IDEAL_J, (4, 4))
        assert (piece.blocks, piece.certified_blocks) == (2, 1)

    @pytest.mark.parametrize("name", ["projective-4", "bundle-p2"])
    def test_one_cofactor_enumeration_per_degree(self, name, monkeypatch):
        """relation_rows enumerates the ambient piece once and each distinct
        cofactor degree once, however many generators share it.  The
        system's enumeration cache is emptied before each call, so that
        every call enumerates what it needs."""
        calls = []
        original = jac.monomial_basis

        def counting(grading, fan, alpha):
            calls.append(tuple(alpha))
            return original(grading, fan, alpha)

        monkeypatch.setattr(jac, "monomial_basis", counting)
        system = make_system(name)
        for a in (1, 2):
            alpha = system.grading.scaled_beta(a)
            for ideal in (jac.IDEAL_J, jac.IDEAL_J0):
                gens = jac._generators(system, ideal)
                cofactor_degrees = {
                    tuple(x - d for x, d in zip(alpha, g_deg)) for _, g_deg in gens
                }
                assert len(cofactor_degrees) < len(gens)
                calls.clear()
                system._monomials.clear()
                jac.relation_rows(system, ideal, alpha)
                assert calls[0] == alpha
                assert sorted(calls[1:]) == sorted(cofactor_degrees)

    @pytest.mark.parametrize("name, count", [("projective-4", 7), ("bundle-p2", 13)])
    def test_each_degree_enumerated_once_per_report(self, name, count, monkeypatch):
        """A report enumerates each degree once: S_{(m-1) beta} is the
        ambient of R(f)_{(m-1) beta} and the cofactor basis of J0 at
        m beta, and the second use reads the system's cache."""
        calls = []
        original = jac.monomial_basis

        def counting(grading, fan, alpha):
            calls.append(tuple(alpha))
            return original(grading, fan, alpha)

        monkeypatch.setattr(jac, "monomial_basis", counting)
        doc = get_fixture(name).to_input_document()
        _, code = run_report(parse_run_config(doc, {"json_only": True}))
        assert code == 0
        assert len(calls) == len(set(calls)) == count


def grevlex(u, v):
    """Graded reverse lex as a comparison: the larger total degree wins,
    then the smaller exponent at the last variable where u and v differ."""
    if sum(u) != sum(v):
        return sum(u) - sum(v)
    last = next((x, y) for x, y in zip(reversed(u), reversed(v)) if x != y)
    return last[1] - last[0]


def tuple_keyed_rows(system, generators, alpha, criterion=False):
    """Reference assembly: columns keyed by exponent tuples, each row one of
    ``generators`` (pairs of polynomial and degree) times one cofactor, with
    its denominators cleared.  With ``criterion``, a cofactor of the j-th
    generator is left out when the graded-reverse-lex leading monomial of
    an earlier generator divides it."""
    monos = monomial_basis(system.grading, system.fan, alpha)
    index = {mono: i for i, mono in enumerate(monos)}
    rows = []
    leads = []
    for g, g_deg in generators:
        cof_degree = tuple(a - d for a, d in zip(alpha, g_deg))
        for cof in monomial_basis(system.grading, system.fan, cof_degree):
            if criterion and any(all(map(le, lead, cof)) for lead in leads):
                continue
            row = {
                index[tuple(x + y for x, y in zip(mono, cof))]: coeff
                for mono, coeff in g.terms.items()
            }
            rows.append(linalg.clear_denominators(row)[1])
        leads.append(max(g.terms, key=cmp_to_key(grevlex)))
    return monos, rows


class TestEulerGenerators:
    @pytest.mark.parametrize("name", fixture_names())
    def test_kept_generators_match_the_exponent_rank(self, name):
        """z_i f_i has coefficient vector (t_i c_t)_t on supp f, so the
        generators J0 keeps are as many as the rank of the exponent matrix
        of supp f, which is at most m + 1.  They are Euler generators taken
        in variable order, and J0's rows come from them alone."""
        system = make_system(name)
        kept = system.j0_generators
        exponents = [list(t) for t in system.f.terms]
        assert len(kept) == linalg.rank_rational(exponents) <= system.m + 1
        positions = [
            next(i for i, g in enumerate(system.euler_gens) if g is k) for k in kept
        ]
        assert positions == sorted(positions)
        assert [g for g, _ in jac._generators(system, jac.IDEAL_J0)] == kept

    @pytest.mark.parametrize(
        "name, kept, nonzero",
        [
            ("bundle-p2", 4, 5),
            ("p1xp1", 3, 4),
            ("bundle-p6", 8, 9),
            ("projective-3", 3, 3),
            ("projective-4", 4, 4),
            ("projective-5", 5, 5),
            ("weighted-p112", 3, 3),
        ],
    )
    def test_kept_generator_counts(self, name, kept, nonzero):
        system = make_system(name)
        assert len(system.j0_generators) == kept
        assert len(every_generator(system, jac.IDEAL_J0)) == nonzero


class TestCodeKeyedRows:
    @pytest.mark.parametrize(
        "name", ["projective-3", "projective-4", "weighted-p112", "bundle-p2"]
    )
    def test_rows_equal_tuple_keyed_assembly(self, name, capsys, monkeypatch):
        """Every piece the report builds has the rows of the tuple-keyed
        assembly, in the same order and with the same key order."""
        original = jac.relation_rows
        seen = []

        def checked(system, ideal, alpha):
            monos, rows = original(system, ideal, alpha)
            want_monos, want_rows = tuple_keyed_rows(
                system, jac._generators(system, ideal), alpha, criterion=True
            )
            assert monos == want_monos
            assert [list(r.items()) for r in rows] == [
                list(r.items()) for r in want_rows
            ], (ideal, alpha)
            seen.append((ideal, alpha))
            return monos, rows

        monkeypatch.setattr(jac, "relation_rows", checked)
        assert main(["report", "--fixture", name, "--json-only"]) == 0
        capsys.readouterr()
        # R(f)_{a beta} for a < m and R0(f)_{m beta}, each assembled once
        fan = get_fixture(name).fan
        beta = class_group(fan).scaled_beta
        want = [(jac.IDEAL_J, beta(a)) for a in range(fan.dim)]
        want.append((jac.IDEAL_J0, beta(fan.dim)))
        assert sorted(seen) == sorted(want)

    @pytest.mark.parametrize("ideal", [jac.IDEAL_J, jac.IDEAL_J0])
    def test_rows_where_the_radix_is_tight(self, ideal):
        """weighted-p112 (degrees 1, 1, 2) at every degree d <= 8.  At d = 2
        the largest exponent of S_2 is 2, and with radix 2 the codes of
        z1^2 and z2 would both be 4: only radix = 1 + the largest exponent
        keeps the codes of a piece distinct."""
        system = make_system("weighted-p112")
        assert system.grading.degrees == ((1,), (1,), (2,))
        for d in range(9):
            monos, rows = jac.relation_rows(system, ideal, (d,))
            want_monos, want_rows = tuple_keyed_rows(
                system, jac._generators(system, ideal), (d,), criterion=True
            )
            assert monos == want_monos
            assert [list(r.items()) for r in rows] == [
                list(r.items()) for r in want_rows
            ], d
        tight = monomial_basis(system.grading, system.fan, (2,))
        assert len({monomial_code(mono, 2) for mono in tight}) < len(tight)

    def test_no_cyclic_garbage(self, bundle_p2):
        gc.collect()
        gc.disable()
        try:
            monos, rows = jac.relation_rows(bundle_p2, jac.IDEAL_J, (4, 4))
            assert rows
            assert gc.collect() == 0
        finally:
            gc.enable()


def pencil_document(d):
    """projective-d's document with f replaced by the Fermat pencil of
    ``make_system``: sum_i z_i^d - d/2 z_0...z_(d-1)."""
    doc = get_fixture(f"projective-{d}").to_input_document()
    doc["polynomial"] += f" - {d}/2*" + "*".join(f"z{i}" for i in range(d))
    return doc


# every document whose report builds pieces: the fixtures (hirzebruch-3
# fails validation first), the Fermat pencils, and the seeded generic
# potentials of test_verdicts, smooth and singular
REPORT_DOCUMENTS = {
    **{
        name: lambda name=name: get_fixture(name).to_input_document()
        for name in fixture_names()
        if name != "hirzebruch-3"
    },
    **{f"pencil-{d}": lambda d=d: pencil_document(d) for d in (3, 4, 5)},
    **{
        f"generic-{name}": lambda name=name: generic_document(name)
        for name in ("projective-3", "projective-4", "weighted-p112", "p1xp1", "bundle-p2")
    },
    **{
        f"generic-{name}-singular": lambda name=name, point=point: generic_document(name, point)
        for name, point in [
            ("projective-3", (1, 2)),
            ("projective-4", (1, 2, 3)),
            ("weighted-p112", (0, 2)),
            ("bundle-p2", (1, 2, 3)),
        ]
    },
}


def report_system(name, monkeypatch):
    """The system a report of ``REPORT_DOCUMENTS[name]`` builds, with the
    pieces it built."""
    systems = []
    original = jac.jacobian_system

    def recording(*args):
        systems.append(original(*args))
        return systems[-1]

    monkeypatch.setattr(jac, "jacobian_system", recording)
    run_report(parse_run_config(REPORT_DOCUMENTS[name]()))
    (system,) = systems
    return system


class TestSyzygyCriterion:
    """``relation_rows`` skips the row of generator g_j at cofactor u when
    the leading monomial of an earlier generator divides u."""

    @pytest.mark.parametrize("name", sorted(REPORT_DOCUMENTS))
    def test_kept_rows_have_the_rank_of_all_rows(self, name, monkeypatch):
        """Every row of every generator, the Euler generators J0 leaves out
        included, has remainder 0 in each piece the report builds, so the
        kept rows span all rows; and the kept and skipped rows together are
        the generator x cofactor rows."""
        system = report_system(name, monkeypatch)
        assert system._pieces
        for piece in system._pieces.values():
            ideal, alpha = piece.ideal, piece.degree
            monos, rows = tuple_keyed_rows(system, every_generator(system, ideal), alpha)
            assert piece.monomials == monos
            table = piece.remainders()
            for row in rows:
                remainder = [0] * piece.dim
                for c, x in row.items():
                    for k, y in table[c].items():
                        remainder[k] += x * y
                assert not any(remainder), (ideal, alpha)
            kept = jac.relation_rows(system, ideal, alpha)[1]
            every = tuple_keyed_rows(system, jac._generators(system, ideal), alpha)[1]
            assert len(kept) + piece.skipped_rows == len(every)

    @pytest.mark.parametrize(
        "name, ideal, a, kept, every",
        [
            ("bundle-p2", jac.IDEAL_J, 2, 196, 224),
            ("bundle-p2", jac.IDEAL_J0, 3, 460, 580),
            ("projective-4", jac.IDEAL_J, 4, 969, 2240),
            ("pencil-5", jac.IDEAL_J0, 4, 10625, 19380),
        ],
    )
    def test_row_counts(self, name, ideal, a, kept, every):
        """The Fermat pieces and the pencil keep exactly their rank in rows:
        projective-4's R(f)_{4 beta} has full column rank 969."""
        system = make_system(name)
        alpha = system.grading.scaled_beta(a)
        assert len(jac.relation_rows(system, ideal, alpha)[1]) == kept
        piece = jac.graded_piece(system, ideal, alpha)
        assert piece.skipped_rows == every - kept
        if name != "bundle-p2":
            assert piece.rank == kept

    @pytest.mark.parametrize(
        "name, rows",
        [("p1xp1", 12), ("generic-p1xp1", 24), ("generic-projective-3", 27), ("generic-weighted-p112", 24)],
    )
    def test_corank_one_block_stays_lifted(self, name, rows, monkeypatch):
        """R0(f)_{m beta} has a block of corank 1 that keeps exactly its rank
        in rows, one short of its columns (13, 25, 28 and 25).  The piece
        skipped rows, so the block is still lifted, as with all rows
        assembled, and no row goes to exact elimination."""
        system = report_system(name, monkeypatch)
        piece = system._pieces[jac.IDEAL_J0, system.grading.scaled_beta(system.m)]
        assert piece.skipped_rows
        assert (piece.lifted_blocks, piece.eliminated_rows) == (1, 0)
        assert piece.remainder_checked_rows == rows

    def test_bundle_p2_block_rows(self, bundle_p2):
        """The blocks of bundle-p2's R(f)_{2 beta} and R0(f)_{3 beta} keep
        their paths with fewer rows: 135/89 -> 116/80 and 352/228 ->
        271/189, lifted/certified and certified/lifted."""
        got = []
        for ideal, alpha in [(jac.IDEAL_J, (4, 4)), (jac.IDEAL_J0, (6, 6))]:
            monos, rows = jac.relation_rows(bundle_p2, ideal, alpha)
            linalg.EchelonBasis(len(monos)).add_short_rows(rows)
            blocks = linalg.connected_blocks(rows, len(monos))
            got.append(sorted(len(row_ids) for _, row_ids in blocks))
        assert got == [[80, 116], [189, 271]]


def rescaled_system(name, scales):
    """The fixture's system with f replaced by f(scales * z)."""
    fx = get_fixture(name)
    terms = {}
    for mono, coeff in fx.polynomial.terms.items():
        for lam, e in zip(scales, mono):
            coeff *= lam**e
        terms[mono] = coeff
    f = GradedPolynomial(fx.variables, terms)
    return jac.jacobian_system(fx.fan, class_group(fx.fan), f)


# the fixtures whose report reaches the Macaulay stage
MACAULAY_FIXTURES = [
    "projective-3", "weighted-p112", "p1xp1", "projective-4", "bundle-p2",
    "projective-5", "degenerate-cube",
]


class TestMacaulayDim:
    @pytest.mark.parametrize(
        "name, scales",
        [(name, None) for name in MACAULAY_FIXTURES]
        + [("projective-4", (2, 3, 1, 2)), ("bundle-p2", (3, 1, 2, 2, 1))],
        ids=MACAULAY_FIXTURES + ["projective-4-rescaled", "bundle-p2-rescaled"],
    )
    def test_equals_the_built_piece(self, name, scales):
        """macaulay_dim is dim R(f)_{m beta}, also after a torus rescaling,
        and it builds that piece only when dim R0(f)_{m beta} != 1
        (degenerate-cube, 18)."""
        if scales is None:
            system = make_system(name)
        else:
            system = rescaled_system(name, scales)
        top = system.grading.scaled_beta(system.m)
        got = jac.macaulay_dim(system)
        r0 = jac.graded_piece(system, jac.IDEAL_J0, top)
        assert ((jac.IDEAL_J, top) in system._pieces) == (r0.dim != 1)
        assert got == jac.graded_piece(system, jac.IDEAL_J, top).dim

    @pytest.mark.parametrize("name", ["p1xp1", "bundle-p2"])
    def test_rows_inside_ker_lambda_give_one(self, name):
        """With the partials replaced by the Euler generators z_i f_i, every
        row lies in J0(f)_{m beta} = ker lambda.  On these fixtures some
        monomial of supp lambda is divisible by a term of some z_i f_i, so
        rows are evaluated, and each evaluates to 0: the dimension is 1."""
        system = make_system(name)
        top = system.grading.scaled_beta(system.m)
        r0 = jac.graded_piece(system, jac.IDEAL_J0, top)
        supp = [z for z, rem in zip(r0.monomials, r0.remainders()) if rem]
        assert any(
            min(map(sub, z, t)) >= 0
            for z in supp
            for g in system.euler_gens
            for t in g.terms
        )
        system.partials = list(system.euler_gens)
        assert jac.macaulay_dim(system) == 1
        assert (jac.IDEAL_J, top) not in system._pieces


class TestCertificates:
    def test_macaulay_on_fixtures(self, cubic, quintic, bundle_p2):
        for system in (cubic, quintic, bundle_p2):
            m = system.m
            assert [jac.dim_R(system, p) for p in (m, m + 1)] == [0, 0]

    def test_macaulay_fails_for_degenerate(self):
        system = make_system("degenerate-cube")
        m = system.m
        assert all(jac.dim_R(system, p) > 0 for p in (m, m + 1))

    def test_socle_certificates(self, cubic, quintic):
        for system in (cubic, quintic):
            m = system.m
            r0 = jac.graded_piece(system, jac.IDEAL_J0, system.grading.scaled_beta(m))
            assert jac.socle_certificates(system).ok
            assert (jac.dim_R(system, m - 1), r0.dim) == (1, 1)
        beta = cubic.grading.scaled_beta
        assert jac.graded_piece(cubic, jac.IDEAL_J, beta(1)).basis[0] == (1, 1, 1)
        assert jac.graded_piece(cubic, jac.IDEAL_J0, beta(2)).basis[0] == (2, 2, 2)

    def test_socle_fails_for_degenerate(self):
        rep = jac.socle_certificates(make_system("degenerate-cube"))
        assert not rep.ok
        assert rep.witness == "dim R(f)_(m-1)b = 7, dim R0(f)_mb = 18"

    def test_crit_containment_bundles(self, bundle_p2):
        results = jac.crit_containment_check(
            bundle_p2, [("y1", "y2"), ("x0", "x1", "x2")]
        )
        assert all(r.ok for r in results)

    def test_crit_containment_bundle_p6(self):
        system = make_system("bundle-p6")
        fx = get_fixture("bundle-p6")
        results = jac.crit_containment_check(system, fx.zero_sets)
        assert all(r.ok for r in results)

    def test_crit_containment_failure_witness(self, cubic):
        results = jac.crit_containment_check(cubic, [("z1", "z2")])
        assert not results[0].ok
        assert "z0" in results[0].witness
        assert results[0].checked == 1  # the first partial already fails

    def test_inhomogeneous_rejected(self):
        fx = get_fixture("projective-3")
        grading = class_group(fx.fan)
        bad = parse_polynomial("x^3 + x", ("x", "y", "z"))
        from lgfrob.errors import NotHomogeneous

        with pytest.raises(NotHomogeneous):
            jac.jacobian_system(fx.fan, grading, bad)

    def test_wrong_degree_rejected(self):
        fx = get_fixture("projective-3")
        grading = class_group(fx.fan)
        quadric = parse_polynomial("x^2 + y*z", ("x", "y", "z"))
        with pytest.raises(DegreeMismatch):
            jac.jacobian_system(fx.fan, grading, quadric)
