"""In-process fuzzing of mutated fixture documents through
``parse_run_config`` and ``run_report``.

Each mutation keeps every ray entry within its old absolute value: a sign
flip, a dropped or permuted cone, a dropped term, one exponent changed by
+-1 (which makes f inhomogeneous, refused before any piece is built), or an
unknown key.  So no document asks for a large computation, and each one
must end, within a second, in a report with exit 0, 3 or 4 or in an
``LgfrobError``: ``InputSchemaError`` (exit 2) or a certificate error
(exit 4).  Any other exception, or a hang, is a defect.
"""

import copy
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lgfrob.errors import LgfrobError
from lgfrob.fixtures import get_fixture
from lgfrob.poly import GradedPolynomial, parse_polynomial
from lgfrob.report import parse_run_config, run_report

FIXTURES = ("projective-3", "weighted-p112", "p1xp1", "degenerate-cube", "hirzebruch-3")
MUTATIONS = ("flip", "drop_cone", "permute_cones", "drop_term", "exponent", "unknown_key")


def mutate(doc: dict, kind: str, draw) -> None:
    fan = doc["fan"]
    if kind == "flip":
        ray = draw(st.sampled_from(fan["rays"]))
        k = draw(st.integers(0, len(ray) - 1))
        ray[k] = -ray[k]
    elif kind == "drop_cone" and fan["max_cones"]:
        del fan["max_cones"][draw(st.integers(0, len(fan["max_cones"]) - 1))]
    elif kind == "permute_cones":
        fan["max_cones"] = draw(st.permutations(fan["max_cones"]))
    elif kind in ("drop_term", "exponent"):
        f = parse_polynomial(doc["polynomial"], doc["variables"])
        terms = dict(f.terms)
        if not terms:
            return
        mono = draw(st.sampled_from(sorted(terms)))
        coeff = terms.pop(mono)
        if kind == "exponent":
            i = draw(st.integers(0, len(mono) - 1))
            step = draw(st.sampled_from((-1, 1) if mono[i] else (1,)))
            changed = mono[:i] + (mono[i] + step,) + mono[i + 1 :]
            terms[changed] = terms.get(changed, 0) + coeff
        doc["polynomial"] = GradedPolynomial(f.variables, terms).to_text()
    elif kind == "unknown_key":
        where = draw(st.sampled_from(("document", "fan", "options")))
        target = {"document": doc, "fan": fan}.get(where) or doc.setdefault("options", {})
        target["unexpected"] = 1


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    name=st.sampled_from(FIXTURES),
    kinds=st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3),
    data=st.data(),
)
def test_mutated_documents_end_in_a_contract_exit(deadline, name, kinds, data):
    doc = copy.deepcopy(get_fixture(name).to_input_document())
    for kind in kinds:
        mutate(doc, kind, data.draw)
    try:
        with deadline(1.0):
            config = parse_run_config(doc, {"json_only": True})
            report, code = run_report(config)
    except LgfrobError:
        return
    assert code in (0, 3, 4)
    json.dumps(report)
    if code == 4:
        assert report["failures"]
        assert report["certificates_pass"] is False
    elif code == 0:
        assert report["failures"] == []
        assert report["certificates_pass"] is True
