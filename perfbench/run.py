"""Time-to-verdict benchmark for ``lgfrob report``.

From the root of a checkout:

    python3 perfbench/run.py --workload bundle-p2 --seed 1 --seconds 20 --trace 0

One client in a closed loop on one thread: the documents generated from the
seed run one after another through ``parse_run_config``, ``run_report`` and
``json.dumps`` in this process, with ``threads`` left at 1.  The first
document runs once as a warm-up before the clock starts, and the loop starts
new documents until ``--seconds`` have passed.  Every report is checked
against ``workloads.EXPECTED`` and byte for byte against the first report of
the same document.

``--trace 0`` prints the end-to-end metrics, measured untraced, with times
in reference seconds (see ``gauge``).  ``--trace 1`` runs each document
untraced and then traced, and prints the per-layer metrics of the traced
runs in wall seconds (medians over documents) with the tracing overhead.
The last line of standard output is one JSON object; metadata, per-piece
records and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gauge import SpeedGauge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9

END_TO_END_UNITS = {
    "report_s": "s",
    "report_s_p90": "s",
    "docs_per_min": "1/min",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def use_checkout_source():
    """Import lgfrob from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "lgfrob" / "__init__.py").is_file():
        sys.exit(f"error: no lgfrob sources under {SRC}")
    sys.path.insert(0, str(SRC))


def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import lgfrob, generate the run's documents and report on a
    small warm-up document (which performs numpy's lazy import)."""
    start = time.perf_counter()
    use_checkout_source()
    import random

    import workloads

    workloads.generate(workload, seed)
    warm = workloads.random_document("projective-3", random.Random(seed))
    run_document(warm)
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int, measure) -> list[float]:
    """Reference seconds of set-up in ``SETUP_PROBES`` fresh interpreters,
    one at a time."""
    samples = []
    for _ in range(SETUP_PROBES):
        done, _, factor = measure(lambda: subprocess.run(
            [sys.executable, __file__, "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        ))
        samples.append(float(done.stdout.split()[-1]) * factor)
    return samples


def timed(fn):
    """(result, seconds, 1.0) of ``fn()``: ``SpeedGauge.measure`` without
    rescaling, for runs that report wall seconds."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start, 1.0


def run_document(doc: dict, tracer=None):
    """(report, exit code, report text) of one input document."""
    from lgfrob import report as report_module
    from lgfrob.errors import InputSchemaError, LgfrobError

    try:  # attributes are looked up per call, so tracing applies
        config = report_module.parse_run_config(doc, {"json_only": True})
        report, code = report_module.run_report(config)
    except LgfrobError as exc:  # exit 2 or 4, as the command line gives
        report = {"error": f"{type(exc).__name__}: {exc}"}
        code = 2 if isinstance(exc, InputSchemaError) else 4
    if tracer is None:
        return report, code, json.dumps(report, indent=2)
    with tracer.span("report.json_dump"):
        return report, code, json.dumps(report, indent=2)


class Checker:
    """Runs documents, times them and checks every report."""

    def __init__(self, fixture: str):
        self.fixture = fixture
        self.first_text: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, doc_id: str, doc: dict, tracer=None, measure=timed):
        """(seconds, factor) from input document to serialized verdict, as
        ``measure`` gives them."""
        import workloads

        if tracer is None:
            result, seconds, factor = measure(lambda: run_document(doc))
        else:
            import tracer as tracing

            with tracer.span(tracing.ROOT):
                result, seconds, factor = measure(lambda: run_document(doc, tracer))
        report, code, text = result

        problems = workloads.check(self.fixture, report, code)
        if text != self.first_text.setdefault(doc_id, text):
            problems.append("report differs from the first report of this document")
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += [f"{doc_id}: {p}" for p in problems]
        return seconds, factor


def metadata() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=30, cwd=ROOT,
        ).stdout.strip() or commit
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(
            len(path.read_text().splitlines()) for path in SRC.rglob("*.py")
        ),
    }


def p90(samples: list[float]) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def per_document(timings: list[tuple[str, float, float]], column: int) -> list[float]:
    """Each document's median over its passes of ``timings[column]``."""
    passes: dict[str, list[float]] = {}
    for row in timings:
        passes.setdefault(row[0], []).append(row[column])
    return [statistics.median(times) for times in passes.values()]


def end_to_end(timings: list[tuple[str, float, float]], setup: list[float]):
    """(metrics, notes) of an untraced run, in reference seconds.

    Times are taken per document as the median over the run's passes, so a
    slow spell of the machine that covers less than half of a document's
    passes does not move them."""
    reference = per_document(timings, 2)
    values = {
        "report_s": statistics.median(reference),
        "report_s_p90": p90(reference),
        "docs_per_min": 60 * len(reference) / sum(reference),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = sum(t > values["report_s_p90"] for t in reference)
    notes = {
        "report_s": f"median of {len(reference)} documents, "
        f"{len(timings) // len(reference)} passes each",
        "report_s_p90": f"{beyond} of {len(reference)} beyond",
        "setup_s": f"median of {len(setup)} set-ups",
    }
    return {
        name: {"value": value, "unit": END_TO_END_UNITS[name]}
        for name, value in values.items()
    }, notes


def per_layer(units: dict, layers: list[dict], untraced: list[float], traced: list[float]):
    """(metrics, notes) of a traced run: per-document medians."""
    metrics = {
        name: {"value": statistics.median(doc[name] for doc in layers), "unit": unit}
        for name, unit in units.items()
    }
    metrics["trace.overhead_s"] = {
        "value": statistics.median(t - u for u, t in zip(untraced, traced)),
        "unit": "s",
    }
    notes = {
        "trace.overhead_s": f"median over {len(traced)} documents of traced "
        "minus untraced wall seconds"
    }
    return metrics, notes


def slowest_pieces(pieces: list[dict]) -> list[str]:
    """The three slowest graded pieces of the first traced document."""
    first = [p for p in pieces if p["doc"] == pieces[0]["doc"]] if pieces else []
    return ["  slowest graded pieces of the first traced document:"] + [
        f"    {p['ideal']:2} {str(tuple(p['degree'])):10} {p['seconds']:.4f} s "
        f"{p['rows']}x{p['cols']} rank {p['rank']} dim {p['dim']} {p['path']}"
        f"{' (prefilter missed)' if p['prefilter_missed'] else ''} "
        f"nnz {p['echelon_nnz']} bits {p['max_bits']}"
        for p in sorted(first, key=lambda p: -p["seconds"])[:3]
    ]


def closed_loop(docs, checker, seconds: float, measure=timed):
    """Yield the documents in whole passes, at least one, until ``seconds``
    have passed, after running the first once as a warm-up (its timed
    repeat must give the same report).  Every document is timed equally
    often: the speed of the code sets the number of passes, not the inputs."""
    checker.run(*docs[0], measure=measure)
    start = time.perf_counter()
    while True:
        yield from docs
        if time.perf_counter() - start >= seconds:
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0

    use_checkout_source()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload; choose from {', '.join(workloads.WORKLOADS)}")
    fixture = workloads.WORKLOADS[args.workload]
    docs = workloads.generate(args.workload, args.seed)
    checker = Checker(fixture)
    ungated, timings = {}, []
    if args.trace:
        tracer = tracing.Tracer()
        untraced, traced, layers = [], [], []
        for doc_id, doc in closed_loop(docs, checker, args.seconds):
            untraced.append(checker.run(doc_id, doc)[0])
            tracer.begin_doc(f"{doc_id}#{len(traced)}")
            with tracer.installed():
                traced.append(checker.run(doc_id, doc, tracer)[0])
            layers.append(tracer.doc_metrics())
        metrics, notes = per_layer(tracing.UNITS, layers, untraced, traced)
    else:
        tracer = None
        with SpeedGauge() as gauge:
            setup = measure_setup(args.workload, args.seed, gauge.measure)
            for doc_id, doc in closed_loop(docs, checker, args.seconds, gauge.measure):
                seconds, factor = checker.run(doc_id, doc, measure=gauge.measure)
                timings.append((doc_id, seconds, seconds * factor))
        metrics, notes = end_to_end(timings, setup)
        wall = per_document(timings, 1)
        ungated = {
            "wall.report_s": statistics.median(wall),
            "wall.report_s_p90": p90(wall),
            "gauge.kernel_s": statistics.harmonic_mean(gauge.samples),
        }

    lines = [
        f"workload {args.workload} (fixture {fixture}), seed {args.seed}: "
        f"{checker.attempted} documents incl. warm-up, {checker.failed} failed"
    ]
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"  {name:36} {metric['value']:.6g} {metric['unit']}{note}")
    for name, value in ungated.items():
        lines.append(f"  {name:36} {value:.6g} s  (not gated)")
    lines.append(
        f"  {'error_rate':36} {checker.failed / checker.attempted:.6g} ratio"
        f"  ({checker.failed} of {checker.attempted})"
    )
    if tracer is not None:
        lines += slowest_pieces(tracer.pieces)
    meta = metadata()
    lines.append("  " + ", ".join(f"{key} {value}" for key, value in meta.items()))
    lines += [f"  FAILED {p}" for p in checker.problems[:20]]
    print("\n".join(lines))

    OUT.mkdir(exist_ok=True)
    record = {
        "meta": meta,
        "workload": args.workload,
        "seed": args.seed,
        "metrics": metrics,
        "ungated": ungated,
        "timings": timings,  # [doc id, wall s, reference s] per timed report
        "problems": checker.problems,
        "pieces": tracer.pieces if tracer else [],
        "spans": [list(span) for span in tracer.spans] if tracer else [],
    }
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))

    print(json.dumps({
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
