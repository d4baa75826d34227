"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench``."""

import json
import random
import time

import pytest

import gauge
import run

run.use_checkout_source()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from lgfrob import frobenius, jacobian, report  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_documents(workload):
    first = json.dumps(workloads.generate(workload, 5))
    assert json.dumps(workloads.generate(workload, 5)) == first
    assert json.dumps(workloads.generate(workload, 6)) != first


@pytest.mark.parametrize(
    "fixture, scales", [("projective-3", (1, 2, 3)), ("projective-4", (1, 2, 3, 2))]
)
def test_rescaled_fermat_documents_meet_expected_outcomes(fixture, scales):
    r = len(scales)
    doc = workloads.rescaled_document(fixture, scales, 7)
    assert f"{2**r}*z1^{r}" in doc["polynomial"]
    result, code, _ = run.run_document(doc)
    assert workloads.check(fixture, result, code) == []

    result["dims"][0] += 1
    assert workloads.check(fixture, result, code) == [
        f"dims: got {result['dims']!r}, expected {list(workloads.EXPECTED[fixture].dims)!r}"
    ]


def test_self_time_of_nested_calls():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: 1)
    mid = tracer.wrap("mid", lambda: leaf() + leaf())
    top = tracer.wrap("top", lambda: mid() + leaf())

    tracer.begin_doc("warm")
    top()
    # top 0-9 holds mid 1-6 (leaves 2-3, 4-5) and leaf 7-8
    assert tracing.self_times(tracer.spans) == {"top": 3, "mid": 3, "leaf": 3}

    tracer.begin_doc("second")
    first = len(tracer.spans)
    mid()
    assert tracing.self_times(tracer.spans[first:], first) == {"mid": 3, "leaf": 2}


def test_traced_report_is_byte_identical_to_untraced():
    doc = workloads.random_document("projective-3", random.Random(1))
    _, _, plain = run.run_document(doc)

    tracer = tracing.Tracer()
    tracer.begin_doc("d")
    with tracer.installed():
        for rebound in (
            frobenius.graded_piece,
            frobenius.normal_form,
            jacobian.monomial_basis,
            report.parse_polynomial,
        ):
            assert hasattr(rebound, "__wrapped__")
        with tracer.span(tracing.ROOT):
            _, _, traced = run.run_document(doc, tracer)
    assert traced == plain
    assert not hasattr(frobenius.graded_piece, "__wrapped__")

    layers = tracer.doc_metrics()
    assert layers["toric.class_group.calls"] == 2
    assert layers["jacobian.pieces_built"] == len(tracer.pieces) > 0
    root = tracer.spans[0]
    total = root.end - root.start
    assert root.name == tracing.ROOT
    assert sum(tracing.self_times(tracer.spans).values()) == pytest.approx(total)


def test_speed_gauge_excludes_its_own_sampling():
    def busy():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass

    with gauge.SpeedGauge() as speed:
        start = time.perf_counter()
        _, seconds, factor = speed.measure(busy)
        wall = time.perf_counter() - start
    assert len(speed.samples) >= 3
    assert seconds == pytest.approx(wall - speed.spent, abs=1e-3)
    assert factor > 0


def test_closed_loop_times_whole_passes():
    class Warmups:
        runs = 0

        def run(self, doc_id, doc, measure):
            self.runs += 1

    docs = [("a", {}), ("b", {}), ("c", {})]
    checker = Warmups()
    assert [d for d, _ in run.closed_loop(docs, checker, 0)] == ["a", "b", "c"]
    assert checker.runs == 1

    yielded = []
    for doc_id, _ in run.closed_loop(docs, checker, 0.05):
        yielded.append(doc_id)
        time.sleep(0.01)
    assert len(yielded) % 3 == 0 and len(yielded) >= 6
    assert yielded[:3] == ["a", "b", "c"]


def test_document_times_are_medians_over_passes():
    timings = [("a", 1.0, 2.0), ("b", 3.0, 4.0), ("a", 5.0, 6.0), ("a", 9.0, 30.0)]
    assert run.per_document(timings, 2) == [6.0, 4.0]
    assert run.per_document(timings, 1) == [5.0, 3.0]
