"""End-to-end acceptance suite.

Every numbered criterion below prints one machine-greppable line of the
form "PASS criterion N: ..." or "FAIL criterion N: ..." before asserting.
Criterion 3 is expected to fail and is marked as a strict xfail: for ANY
degree-(2,2) potential on P^1 x P^1 the two Euler relations are linearly
dependent at degree beta (both weighted row-sums equal 2f), so at most 7 of
the 8 Jacobian relation rows are independent in the 9-dimensional ambient
space and dim R(f)_beta >= 2 always; a (1,1) middle dimension is therefore
mathematically unreachable, which is exactly the failed middle cup-product
hypothesis (b_0 = 1 != 2 = b_2) predicts.
"""

import json
import random
import time
from fractions import Fraction

import pytest
from reference import count_lattice_points_dilated, det, hessian_determinant, lift

from lgfrob import frobenius as frob
from lgfrob import jacobian as jac
from lgfrob import linalg, toric
from lgfrob.cli import main as cli_main
from lgfrob.fixtures import get_fixture, unimodular_transform
from lgfrob.poly import parse_polynomial
from lgfrob.toric import class_group, monomial_basis, validate_fan


def make_system(name):
    fx = get_fixture(name)
    grading = class_group(fx.fan)
    return jac.jacobian_system(fx.fan, grading, fx.polynomial)


def report_line(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")


@pytest.fixture(scope="module")
def quintic_algebra():
    start = time.perf_counter()
    algebra = frob.build_algebra(make_system("projective-5"))
    return algebra, time.perf_counter() - start


def test_criterion_1_fermat_cubic(capsys):
    """The trace puts sign * m!Vol = 9 at the toric Jacobian J^Delta, which on
    the Fermat cubic is 3^6 (z0 z1 z2)^2: entry (i, j) of its matrix is
    sum_k l_i(3 e_k) l_j(3 e_k) z_k^3, so the matrix is L^T diag(z_k^3) L
    for L with rows (1, 3 v_k), det L = 3^2 det[1 | v] = +-27, and J^Delta =
    27^2 (z0 z1 z2)^3 / (z0 z1 z2).  So the class y with z0 z1 z2 * y =
    J^Delta, y = 729 z0 z1 z2, has trace 9, and z0 z1 z2 has trace 9/729."""
    start = time.perf_counter()
    system = make_system("projective-3")
    dims = [jac.dim_R(system, a) for a in range(2)]
    socle = jac.socle_certificates(system)
    socle_dims = (
        jac.dim_R(system, 1),
        jac.graded_piece(system, jac.IDEAL_J0, system.grading.scaled_beta(2)).dim,
    )
    generators = [
        jac.graded_piece(system, ideal, system.grading.scaled_beta(a)).basis[0]
        for ideal, a in ((jac.IDEAL_J, 1), (jac.IDEAL_J0, 2))
    ]
    volume = toric.normalized_volume(toric.anticanonical_polytope(system.fan))
    algebra = frob.build_algebra(system)
    jacobian = frob.toric_jacobian(system)
    t_jacobian = frob.trace([Fraction(729)], algebra)
    t = frob.trace([Fraction(1)], algebra)
    gram_ok = all(
        linalg.rank_rational(frob.pairing_gram(algebra, a)) == len(frob.pairing_gram(algebra, a))
        for a in range(2)
    )
    axioms = frob.frobenius_axiom_check(algebra, 0, 200)
    elapsed = time.perf_counter() - start
    ok = (
        dims == [1, 1]
        and socle.ok
        and socle_dims == (1, 1)
        and generators == [(1, 1, 1), (2, 2, 2)]
        and volume == 9
        and jacobian.terms == {(2, 2, 2): 729}
        and t_jacobian == 9
        and t == Fraction(9, 729) == Fraction(1, 81)
        and gram_ok
        and axioms.all_pass
        and elapsed < 1.0
    )
    report_line(
        capsys,
        1,
        ok,
        f"cubic surface dims {dims}, m!Vol {volume}, trace(z0z1z2) 1/81*(2*pi*i)^1, "
        f"axioms exact, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_2_fermat_quintic(quintic_algebra, capsys):
    algebra, build_time = quintic_algebra
    start = time.perf_counter()
    system = algebra.system
    dims = [jac.dim_R(system, a) for a in range(4)]
    macaulay = {p: jac.dim_R(system, p) for p in (4, 5)}
    g1 = frob.pairing_gram(algebra, 1)
    g1_rank = linalg.rank_rational(g1)
    axioms = frob.frobenius_axiom_check(algebra, 0, 200)
    elapsed = build_time + (time.perf_counter() - start)
    ok = (
        dims == [1, 101, 101, 1]
        and macaulay == {4: 0, 5: 0}
        and len(g1) == 101
        and g1_rank == 101
        and axioms.sampled
        and axioms.associativity.ok
        and axioms.associativity.checked == 200
        and axioms.invariance.ok
        and axioms.invariance.checked == 1_091_510
        and elapsed < 600.0
    )
    report_line(
        capsys,
        2,
        ok,
        f"quintic threefold dims {dims}, G_1 rank {g1_rank}/101, associativity "
        f"on 200 seeded basis triples, invariance on all "
        f"{axioms.invariance.checked:,} basis triples, {elapsed:.1f}s",
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unsatisfiable as stated: on P^1 x P^1 the two Euler relations "
        "coincide at degree beta (each weighted row-sum equals 2f), forcing "
        "dim R(f)_beta >= 2 for every degree-(2,2) potential; the requested "
        "middle dimension 1 cannot occur, consistent with the failed "
        "necessary condition b_0 = 1 != 2 = b_2"
    ),
)
def test_criterion_3_p1xp1_middle_dimension(capsys):
    start = time.perf_counter()
    system = make_system("p1xp1")
    dims = [jac.dim_R(system, a) for a in range(2)]
    elapsed = time.perf_counter() - start
    ok = dims == [1, 1] and elapsed < 1.0
    report_line(
        capsys,
        3,
        ok,
        f"P1xP1 dims {dims} (requested [1, 1] is mathematically unreachable; "
        "see module docstring), recorded as an expected failure",
    )
    assert ok


def test_criterion_4_weighted_orbifold(capsys):
    start = time.perf_counter()
    fx = get_fixture("weighted-p112")
    validation = validate_fan(fx.fan)
    system = make_system("weighted-p112")
    dims = [jac.dim_R(system, a) for a in range(2)]
    algebra = frob.build_algebra(system)
    axioms = frob.frobenius_axiom_check(algebra, 0, 200)
    elapsed = time.perf_counter() - start
    ok = (
        validation.all_pass
        and validation.gorenstein.ok
        and dims == [1, 1]
        and axioms.all_pass
        and elapsed < 1.0
    )
    report_line(
        capsys,
        4,
        ok,
        f"P(1,1,2) orbifold validation all-pass, dims {dims}, axioms exact, "
        f"{elapsed:.2f}s",
    )
    assert ok


def test_criterion_5_surface_bundle(capsys):
    start = time.perf_counter()
    fx = get_fixture("bundle-p2")
    system = make_system("bundle-p2")
    crit = jac.crit_containment_check(system, fx.zero_sets)
    dims = [jac.dim_R(system, a) for a in range(3)]
    macaulay = {p: jac.dim_R(system, p) for p in (3, 4)}
    socle = jac.socle_certificates(system)
    socle_dims = (
        jac.dim_R(system, 2),
        jac.graded_piece(system, jac.IDEAL_J0, system.grading.scaled_beta(3)).dim,
    )
    algebra = frob.build_algebra(system)
    grams = [frob.pairing_gram(algebra, a) for a in range(3)]
    gram_ok = all(
        len(g) == len(g[0])
        and linalg.rank_rational(g) == len(g)
        for g in grams
    )
    axioms = frob.frobenius_axiom_check(algebra, 0, 200)
    elapsed = time.perf_counter() - start
    ok = (
        len(crit) == 2
        and all(r.ok for r in crit)
        and dims[0] == 1
        and dims[2] == 1
        and macaulay == {3: 0, 4: 0}
        and socle.ok
        and socle_dims == (1, 1)
        and gram_ok
        and axioms.all_pass
        and elapsed < 60.0
    )
    report_line(
        capsys,
        5,
        ok,
        f"projective bundle over P^2: crit containment 2/2, dims {dims}, "
        f"axioms exact, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_6_sevenfold_bundle(capsys):
    start = time.perf_counter()
    fx = get_fixture("bundle-p6")
    validation = validate_fan(fx.fan)
    grading = class_group(fx.fan)
    t = unimodular_transform(grading.degrees, fx.stated_degrees)
    beta_t = (
        tuple(
            sum(t[i][k] * grading.beta[k] for k in range(2)) for i in range(2)
        )
        if t is not None
        else None
    )
    betti = toric.betti_numbers(fx.fan)
    evens = betti[0::2]
    extraisom = toric.extraisom_necessary_check(betti)
    system = make_system("bundle-p6")
    crit = jac.crit_containment_check(system, fx.zero_sets)
    dims = [jac.dim_R(system, a) for a in range(2)]  # default cap a <= 1
    elapsed = time.perf_counter() - start
    ok = (
        validation.all_pass
        and grading.rank == 2
        and t is not None
        and beta_t == (2, 2)
        # (1 + t + ... + t^6)(1 + t) has coefficients 1,2,2,2,2,2,2,1
        and evens == [1, 2, 2, 2, 2, 2, 2, 1]
        and extraisom == "TriviallyHolds"
        and all(r.ok for r in crit)
        and dims[0] == 1
        and len(dims) == 2
        and elapsed < 600.0
    )
    report_line(
        capsys,
        6,
        ok,
        f"sevenfold bundle: rank-2 grading matches stated degrees, evens "
        f"{evens}, extraisom {extraisom}, capped dims {dims}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_7_negative_controls(capsys, tmp_path):
    hirzebruch = validate_fan(get_fixture("hirzebruch-3").fan)
    ample_witness = hirzebruch.ample.witness or ""
    degenerate = jac.socle_certificates(make_system("degenerate-cube"))

    codes = {
        "ok": cli_main(["dims", "--fixture", "projective-3", "--json-only"]),
        "input": cli_main(["fixture", "nonexistent"]),
        "validation": cli_main(["validate", "--fixture", "hirzebruch-3", "--json-only"]),
        "certificate": cli_main(["report", "--fixture", "degenerate-cube", "--json-only"]),
    }
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    codes["malformed"] = cli_main(["validate", "--input", str(bad), "--json-only"])
    capsys.readouterr()  # drop CLI output from the capture buffer

    ok = (
        not hirzebruch.ample.ok
        and "-2" in ample_witness
        and not degenerate.ok
        and codes == {
            "ok": 0,
            "input": 2,
            "validation": 3,
            "certificate": 4,
            "malformed": 2,
        }
    )
    report_line(
        capsys,
        7,
        ok,
        f"negative controls: ample witness {ample_witness!r}, degenerate "
        f"socle fails, exit codes {codes}",
    )
    assert ok


def test_criterion_8_property_suites(capsys):
    rng = random.Random(2024)
    checks = {}

    # parser round-trip on random sparse polynomials
    variables = ("x", "y", "z")
    for _ in range(25):
        terms = " + ".join(
            f"{rng.randint(1, 9)}*x^{rng.randint(0, 4)}*y^{rng.randint(0, 4)}"
            f"*z^{rng.randint(0, 4)}"
            for _ in range(rng.randint(1, 5))
        )
        p = parse_polynomial(terms, variables)
        if parse_polynomial(p.to_text(), variables) != p:
            break
    else:
        checks["parser_round_trip"] = True

    # Smith normal form certificates on random integer matrices
    snf_ok = True
    for _ in range(15):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        u, d, v = linalg.smith_normal_form(a)
        uav = [
            [
                sum(u[i][k] * sum(a[k][l] * v[l][j] for l in range(cols)) for k in range(rows))
                for j in range(cols)
            ]
            for i in range(rows)
        ]
        snf_ok &= uav == d
        snf_ok &= abs(det(u)) == 1 and abs(det(v)) == 1
    checks["snf_certificates"] = snf_ok

    # two-method lattice-point / monomial-count agreement
    fx = get_fixture("projective-4")
    grading = class_group(fx.fan)
    polytope = toric.anticanonical_polytope(fx.fan)
    checks["count_agreement"] = all(
        len(monomial_basis(grading, fx.fan, grading.scaled_beta(a)))
        == count_lattice_points_dilated(fx.fan, polytope, a)
        for a in range(3)
    )

    # grading additivity: deg(p*q) = deg(p) + deg(q)
    fx3 = get_fixture("projective-3")
    g3 = class_group(fx3.fan)
    from lgfrob.poly import check_homogeneous, monomial_degree

    add_ok = True
    for _ in range(20):
        mono1 = tuple(rng.randint(0, 3) for _ in range(3))
        mono2 = tuple(rng.randint(0, 3) for _ in range(3))
        d1 = monomial_degree(mono1, g3.degrees)
        d2 = monomial_degree(mono2, g3.degrees)
        d12 = monomial_degree(
            tuple(x + y for x, y in zip(mono1, mono2)), g3.degrees
        )
        add_ok &= d12 == tuple(a + b for a, b in zip(d1, d2))
    checks["grading_additivity"] = add_ok

    # the trace is (2/3)^3 times the Hessian-normalized one on the cubic,
    # which puts sign * m!Vol at z0 z1 z2 * Hess (J^Delta / (z0 z1 z2 Hess)
    # = 3^3 / 2^3 on the Fermat cubic)
    system = make_system("projective-3")
    algebra = frob.build_algebra(system)
    r0 = algebra.r0_piece
    hess = jac.normal_form(hessian_determinant(system).mul_monomial((1, 1, 1)), r0)[0]
    prop_ok = True
    for _ in range(10):
        u = [Fraction(rng.randint(-9, 9))]
        y = jac.normal_form(lift(algebra, 1, u).mul_monomial((1, 1, 1)), r0)[0]
        prop_ok &= frob.trace(u, algebra) == Fraction(8, 27) * (
            algebra.sign * algebra.volume * y / hess
        )
    checks["trace_proportionality"] = prop_ok

    # mul_twisted symmetry sign (-1)^(m-1)
    bundle = frob.build_algebra(make_system("bundle-p2"))
    m = bundle.m
    dims = bundle.dims()
    sign_ok = True
    for a in range(m):
        b = m - 1 - a
        u = [Fraction(rng.randint(-5, 5)) for _ in range(dims[a])]
        v = [Fraction(rng.randint(-5, 5)) for _ in range(dims[b])]
        lhs = frob.mul_twisted(a, u, b, v, bundle)
        rhs = frob.mul_twisted(b, v, a, u, bundle)
        sign_ok &= lhs == [((-1) ** (m - 1)) * x for x in rhs]
    checks["mul_twisted_sign"] = sign_ok

    # determinism across runs: byte-identical reports
    outputs = []
    for _ in range(2):
        code = cli_main(["report", "--fixture", "weighted-p112", "--seed", "5", "--json-only"])
        captured = capsys.readouterr()
        outputs.append((code, captured.out))
    checks["run_determinism"] = (
        outputs[0] == outputs[1]
        and outputs[0][0] == 0
        and json.loads(outputs[0][1])["certificates_pass"] is True
    )

    ok = len(checks) == 7 and all(checks.values())
    report_line(capsys, 8, ok, f"property suites {checks}")
    assert ok
