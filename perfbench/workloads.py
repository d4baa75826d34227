"""Seeded input documents for the benchmark and the outcomes they must meet.

Every document is a built-in fixture whose potential f is replaced by
f(lambda_1 z_1, ..., lambda_r z_r) for small positive integers lambda_i drawn
from the seed, with a seeded ``sample_seed``.  A torus rescaling is an
automorphism of the toric variety that maps J(f), J0(f) and the critical
locus onto those of the rescaled potential, so every graded dimension,
volume, Betti number and certificate verdict below is known before the run.
A seeded *generic* potential has no such guarantee.

The expected values are derived by hand, never copied from a run of lgfrob;
each entry of ``EXPECTED`` cites its source.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from lgfrob.fixtures import get_fixture
from lgfrob.poly import GradedPolynomial, parse_polynomial

SCALES = (1, 2, 3)


@dataclass(frozen=True)
class Expected:
    """Outcome every document of one fixture must reach (exit 0, all
    certificates pass, plus the facts below)."""

    dims: tuple[int, ...]
    volume: int | None = None  # m! Vol of the anti-canonical polytope
    capped: bool = False
    crit_sets: int = 0  # zero sets, each of which must pass containment
    evens: tuple[int, ...] | None = None  # b_0, b_2, ..., b_2m
    stated_degrees: bool = False  # literature degrees must match the grading


# dim R(f)_beta below follows from the polynomial-deformation count
# dim R(f)_beta = l(Delta) - 1 - dim Aut(X) (Batyrev 1994, "Dual polyhedra and
# mirror symmetry for Calabi-Yau hypersurfaces in toric varieties"; Cox-Katz
# 1999, "Mirror symmetry and algebraic geometry", ch. 6), where l(Delta) =
# dim S_beta counts monomials of degree beta; the other pieces of R(f) are
# 1-dimensional by Macaulay duality.
# m! Vol(Delta) = (-K_X)^m (Fulton 1993, "Introduction to toric varieties",
# Sec. 5.3).
EXPECTED = {
    # Fermat cubic curve in P^2: l = 10, dim PGL_3 = 8; (-K)^2 = 3^2.
    "projective-3": Expected(dims=(1, 1), volume=9),
    # Fermat quartic K3 surface in P^3: l = 35, dim PGL_4 = 15, so 19 =
    # h^{1,1} - 1; (-K)^3 = 4^3.
    "projective-4": Expected(dims=(1, 19, 1), volume=64),
    # Fermat quintic threefold in P^4: l = 126, dim PGL_5 = 24, so h^{2,1} =
    # 101 (Candelas-de la Ossa-Green-Parkes 1991); (-K)^4 = 5^4.
    "projective-5": Expected(dims=(1, 101, 101, 1), volume=625),
    # P(O + O(1)) over P^2 is the blow-up of P^3 at a point (the extra ray
    # -e3 is the sum of the rays of the cone it subdivides): l = 35 - 4 = 31,
    # dim Aut = 15 - 3 = 12, so 18 = h^{1,1}(K3) - b_2(X) = 20 - 2;
    # (-K)^3 = (4H - 2E)^3 = 64 - 8 = 56 (Mori-Mukai no. 2-35).  Both zero
    # sets are coordinate subspaces on which every partial vanishes, since
    # each term of f has y1^2 or y2^2 (acceptance criterion 5).
    "bundle-p2": Expected(dims=(1, 18, 1), volume=56, crit_sets=2),
    # P(O(2) + O(3)) over P^6, capped at a <= 1: l = C(12,6) + C(13,6) +
    # C(14,6) = 5643 and dim Aut = dim PGL_7 + (1 + 1 + 7) - 1 = 56, so
    # 5586; the Poincare polynomial of a P^1-bundle over P^6 is
    # (1 + t)(1 + t + ... + t^6) by Leray-Hirsch, and the stated degrees
    # x_i -> (1, 0), y1 -> (-2, 1), y2 -> (-3, 1) are those of the bundle
    # (acceptance criterion 6).
    "bundle-p6": Expected(
        dims=(1, 5586),
        capped=True,
        crit_sets=2,
        evens=(1, 2, 2, 2, 2, 2, 2, 1),
        stated_degrees=True,
    ),
}


# workload -> fixture; README.md says why each was chosen
WORKLOADS = {
    "quartic": "projective-4",
    "bundle-p2": "bundle-p2",
    "sevenfold-capped": "bundle-p6",
    # by hand only: one document takes over two minutes
    "quintic": "projective-5",
}

# workload -> documents per run, all timed equally often.  One pass over them
# takes about 9, 28 and 3 s on a 2-vCPU virtual machine, so a 20 s run makes
# about 3, 1 and 6 passes, and each document's median over its passes
# (run.per_document) shrugs off a slow spell of the machine.
DOCS_PER_RUN = {"quartic": 8, "bundle-p2": 2, "sevenfold-capped": 16, "quintic": 1}


def rescaled_document(fixture: str, scales, sample_seed: int) -> dict:
    """Input document of ``fixture`` with f replaced by f(scales * z)."""
    fx = get_fixture(fixture)
    f = parse_polynomial(fx.poly_text, fx.variables)
    terms = {}
    for mono, coeff in f.terms.items():
        for lam, e in zip(scales, mono):
            coeff *= lam**e
        terms[mono] = coeff
    doc = fx.to_input_document()
    doc["polynomial"] = GradedPolynomial(fx.variables, terms).to_text()
    doc["options"] = {**doc.get("options", {}), "sample_seed": sample_seed}
    if fx.stated_degrees is not None:
        doc["stated_degrees"] = [list(d) for d in fx.stated_degrees]
    return doc


def random_document(fixture: str, rng: random.Random) -> dict:
    n = len(get_fixture(fixture).variables)
    scales = [rng.choice(SCALES) for _ in range(n)]
    return rescaled_document(fixture, scales, rng.randrange(2**31))


def generate(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The run's documents as (id, document); equal seeds give equal lists."""
    rng = random.Random(f"{workload}/{seed}")
    fixture = WORKLOADS[workload]
    return [
        (f"{workload}/{seed}/{k}", random_document(fixture, rng))
        for k in range(DOCS_PER_RUN[workload])
    ]


def check(fixture: str, report: dict, exit_code: int) -> list[str]:
    """Every way ``report`` misses the expected outcome; empty when it meets it."""
    want = EXPECTED[fixture]
    problems = []

    def expect(what, got, wanted):
        if got != wanted:
            problems.append(f"{what}: got {got!r}, expected {wanted!r}")

    expect("exit code", exit_code, 0)
    expect("certificates_pass", report.get("certificates_pass"), True)
    expect("failures", report.get("failures"), [])
    expect("dims", report.get("dims"), list(want.dims))
    expect("capped", report.get("capped"), want.capped)
    if want.volume is not None:
        expect(
            "normalized volume",
            report.get("polytope", {}).get("normalized_volume"),
            want.volume,
        )
    crit = report.get("crit_containment", [])
    expect("passing zero sets", sum(bool(c.get("pass")) for c in crit), want.crit_sets)
    expect("zero sets", len(crit), want.crit_sets)
    if want.evens is not None:
        expect("even Betti numbers", report.get("betti", [])[0::2], list(want.evens))
    if want.stated_degrees:
        expect("stated degrees match", report.get("stated_degrees", {}).get("match"), True)
    if not want.capped:
        grams = report.get("gram", {})
        expect("Gram matrices", sorted(grams), [str(a) for a in range(len(want.dims))])
        for a, g in sorted(grams.items()):
            expect(f"G_{a} square of full rank", g.get("nondegenerate"), True)
    return problems
