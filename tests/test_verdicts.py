"""The verdicts of every built-in fixture under every command, written down
by hand as literals rather than read from ``tests/golden/``, so that a
change of report shape, and the regeneration of the goldens that comes with
it, cannot change a verdict unnoticed.

A verdict is the exit code, ``failures``, ``certificates_pass``,
``hypotheses`` and the witness of every certificate record.  Beside them
this pins the data that is printed next to no record: the two socle
generators, read from ``algebra``, and the verdicts of seeded generic
potentials: a cubic curve and a quartic K3, each smooth and made singular,
and one on each of the weighted-p112, p1xp1 and bundle-p2 fans.
"""

import json
import random

import pytest

from reference import dilated_points, polytope_vertices

from lgfrob.cli import main
from lgfrob.fixtures import get_fixture
from lgfrob.poly import GradedPolynomial

FAN = {
    "validation.simplicial": None,
    "validation.complete_criterion": None,
    "validation.gorenstein": None,
    "validation.ample": None,
    "validation.torsion_free": None,
}
AXIOMS = {
    "axioms.unit": None,
    "axioms.invariance": None,
    "axioms.nondegeneracy": None,
}
QUASI_SMOOTH = {"macaulay": None, "socle": None}
CONSISTENT = {"quasi_smoothness": "consistent", "non_degeneracy": "asserted"}
INCONSISTENT = {"quasi_smoothness": "inconsistent", "non_degeneracy": "asserted"}
CAPPED = {"quasi_smoothness": "not-evaluated (capped run)", "non_degeneracy": "asserted"}

# name -> (exit code of validate, dims, gram and report; the report's
# failures and hypotheses; the witness of every record the report prints)
VERDICTS = {
    "bundle-p2": (
        (0, 0, 0, 0),
        [],
        CONSISTENT,
        {
            **FAN,
            "crit_containment.0": None,
            "crit_containment.1": None,
            **QUASI_SMOOTH,
            **AXIOMS,
        },
    ),
    "bundle-p6": (
        (0, 0, 0, 0),
        [],
        CAPPED,
        {**FAN, "crit_containment.0": None, "crit_containment.1": None},
    ),
    "degenerate-cube": (
        (0, 0, 4, 4),
        ["macaulay_vanishing", "socle_certificates"],
        INCONSISTENT,
        {
            **FAN,
            "macaulay": "dim R(f)_2b = 13, expected 0",
            "socle": "dim R(f)_(m-1)b = 7, dim R0(f)_mb = 18",
        },
    ),
    "hirzebruch-3": (
        (3, 3, 3, 3),
        None,
        None,
        {**FAN, "validation.ample": "max cone 0: <(-1, -1), ray 2 (-1, 3)> = -2 <= -1"},
    ),
    "p1xp1": (
        (0, 0, 4, 4),
        ["socle_certificates"],
        INCONSISTENT,
        {**FAN, "macaulay": None, "socle": "dim R(f)_(m-1)b = 2, dim R0(f)_mb = 1"},
    ),
    "projective-3": ((0, 0, 0, 0), [], CONSISTENT, {**FAN, **QUASI_SMOOTH, **AXIOMS}),
    "projective-4": ((0, 0, 0, 0), [], CONSISTENT, {**FAN, **QUASI_SMOOTH, **AXIOMS}),
    "projective-5": ((0, 0, 0, 0), [], CONSISTENT, {**FAN, **QUASI_SMOOTH, **AXIOMS}),
    "weighted-p112": ((0, 0, 0, 0), [], CONSISTENT, {**FAN, **QUASI_SMOOTH, **AXIOMS}),
}

# name -> (the first basis monomial of R(f)_{(m-1) beta}, whose trace is
# socle_generator_trace; the basis monomial of R0(f)_{m beta}, printed as
# generator_monomial)
GENERATORS = {
    "bundle-p2": ([8, 0, 0, 0, 4], [11, 0, 0, 1, 5]),
    "projective-3": ([1, 1, 1], [2, 2, 2]),
    "projective-4": ([2, 2, 2, 2], [3, 3, 3, 3]),
    "projective-5": ([3, 3, 3, 3, 3], [4, 4, 4, 4, 4]),
    "weighted-p112": ([2, 2, 0], [3, 3, 1]),
}

COMMANDS = ("validate", "dims", "gram", "report")


def records(doc: dict) -> dict:
    """Every certificate record of a printed report, by path."""
    out = {f"validation.{k}": v for k, v in doc.get("validation", {}).items()}
    for i, entry in enumerate(doc.get("crit_containment", [])):
        out[f"crit_containment.{i}"] = entry
    for key in ("macaulay", "socle"):
        if key in doc:
            out[key] = doc[key]
    for k, v in doc.get("axioms", {}).items():
        if isinstance(v, dict):
            out[f"axioms.{k}"] = v
    return out


@pytest.mark.parametrize("name", sorted(VERDICTS))
@pytest.mark.parametrize("command", COMMANDS)
def test_verdicts_are_pinned(capsys, command, name):
    codes, failures, hypotheses, witnesses = VERDICTS[name]
    code = main([command, "--fixture", name, "--json-only"])
    doc = json.loads(capsys.readouterr().out)
    assert code == codes[COMMANDS.index(command)]

    # what each command prints: validate and dims stop before the
    # certificates and print no verdict of their own, gram prints only
    # certificates_pass unless it exits nonzero, and a fan that fails
    # validation stops every command there
    full = code != 0 or command == "report"
    if command in ("validate", "dims") or code == 3:
        want = {k: v for k, v in witnesses.items() if k.startswith("validation.")}
        assert "certificates_pass" not in doc
    elif full:
        want = witnesses
        assert doc["failures"] == failures
        assert doc["certificates_pass"] is (failures == [])
        assert doc["hypotheses"] == hypotheses
    else:
        want = {}
        assert doc["certificates_pass"] is True
        assert "failures" not in doc and "hypotheses" not in doc
    got = records(doc)
    assert {path: record["witness"] for path, record in got.items()} == want
    for record in got.values():
        assert set(record) >= {"pass", "checked", "witness"}
        assert record["pass"] is (record["witness"] is None)

    if name in GENERATORS and command in ("gram", "report"):
        socle_generator, generator_monomial = GENERATORS[name]
        assert doc["algebra"]["socle_generator"] == socle_generator
        assert doc["algebra"]["generator_monomial"] == generator_monomial


def generic_document(name: str, point: tuple[int, ...] | None = None) -> dict:
    """The fixture ``name`` with a seeded generic potential and no zero
    sets: every monomial of S_beta, the exponent vectors of the lattice
    points of Delta, in descending lex order, each with a coefficient drawn
    from [-5, 5] without 0.  ``point``, the variables of a maximal cone,
    keeps only the terms that vanish to order >= 2 at the cone's
    torus-fixed point, where those variables vanish, so that f is singular
    there."""
    fx = get_fixture(name)
    rng = random.Random(0)
    monos = sorted(dilated_points(fx.fan, polytope_vertices(fx.fan), 1), reverse=True)
    terms = {mono: rng.choice([c for c in range(-5, 6) if c]) for mono in monos}
    if point is not None:
        terms = {mono: c for mono, c in terms.items() if sum(mono[i] for i in point) >= 2}
    doc = fx.to_input_document()
    doc.pop("zero_sets", None)
    doc["polynomial"] = GradedPolynomial(fx.variables, terms).to_text()
    return doc


def run_document(capsys, tmp_path, doc: dict) -> tuple[int, dict]:
    path = tmp_path / "generic.json"
    path.write_text(json.dumps(doc))
    code = main(["report", "--input", str(path), "--json-only"])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("singular", [False, True], ids=["smooth", "singular"])
@pytest.mark.parametrize(
    "r, dims", [(3, [1, 1]), (4, [1, 19, 1])], ids=["cubic-curve", "quartic-k3"]
)
def test_generic_hypersurface(capsys, tmp_path, r, dims, singular):
    """A smooth degree-r hypersurface in P^(r-1) has partials that form a
    regular sequence, so dim R(f)_{ra} is the coefficient of t^{ra} in
    ((1 - t^(r-1)) / (1 - t))^r = (1 + t + ... + t^(r-2))^r (Macaulay;
    Griffiths, Ann. of Math. 90, 1969): [1, 1] for the cubic curve, whose
    series is (1 + t)^3, and [1, 19, 1] for the quartic K3.  The quartic's
    report certifies it through blocks of several hundred columns whose
    kernels, with entries of up to 808 bits, are lifted p-adically; no
    fixture reaches such a block.  Each made singular at [1:0:...:0], by
    dropping z0^r and every z0^(r-1) z_j, is the negative control: it exits
    4."""
    point = tuple(range(1, r)) if singular else None
    code, doc = run_document(capsys, tmp_path, generic_document(f"projective-{r}", point))
    if singular:
        assert code == 4 and doc["certificates_pass"] is False
        assert doc["failures"] == ["macaulay_vanishing", "socle_certificates"]
        return
    series = [1]
    for _ in range(r):
        series = [sum(series[max(0, i - r + 2) : i + 1]) for i in range(len(series) + r - 2)]
    assert code == 0 and doc["certificates_pass"] is True
    assert doc["dims"] == series[::r] == dims


# name -> (the variables of a maximal cone whose torus-fixed point the
# negative control is singular at, or None; exit code; failures; dims).
# dims[1] is Batyrev's count l(Delta) - m - 1 - sum over the facets Theta
# of l*(Theta) (J. Algebraic Geom. 3, 1994, section 4): 1, 2 and 18.
# dims[0] = 1, and so is bundle-p2's dims[2], the socle.  On p1xp1 the
# socle degree is 1, whose two dimensions against the one of R0(f)_{m beta}
# fail the socle certificate, as on the fixture.
GENERIC = {
    "weighted-p112": ((0, 2), 0, [], [1, 1]),
    "p1xp1": (None, 4, ["socle_certificates"], [1, 2]),
    "bundle-p2": ((1, 2, 3), 0, [], [1, 18, 1]),
}


@pytest.mark.parametrize("name", sorted(GENERIC))
def test_generic_document(capsys, tmp_path, name):
    """A seeded generic potential on each fan that is not projective and
    builds an algebra or fails only the socle certificate, against dims
    that no run supplied; on weighted-p112 and bundle-p2 the same potential
    made singular at a torus-fixed point, x = z = 0 and x1 = x2 = y1 = 0,
    is the negative control: it exits 4."""
    point, want_code, failures, dims = GENERIC[name]
    code, doc = run_document(capsys, tmp_path, generic_document(name))
    assert code == want_code and doc["failures"] == failures
    assert doc["dims"] == dims
    if point is not None:
        code, doc = run_document(capsys, tmp_path, generic_document(name, point))
        assert code == 4 and doc["certificates_pass"] is False
        assert doc["failures"] == ["macaulay_vanishing", "socle_certificates"]
