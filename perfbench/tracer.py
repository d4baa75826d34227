"""Outside-in tracer: spans around lgfrob's public layer functions.

``Tracer.installed()`` wraps the functions named in ``LAYERS`` and rebinds
every module attribute of ``lgfrob`` that refers to one of them, so that
by-name imports (``from .jacobian import graded_piece``) are traced as well;
leaving the block restores the originals.  Spans are kept in memory; a
document's per-layer figures are computed from its spans when it ends.

Self time of a span is its duration minus the durations of its direct
children.  The program is single-threaded, so child spans never overlap and
the self times of a document's spans add up to the document's wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import NamedTuple

from lgfrob import frobenius, jacobian, linalg, poly, report, toric

ROOT = "doc"  # the benchmark's own span around one document
OBSERVE = "perfbench.observe"  # the tracer's own bookkeeping


class Span(NamedTuple):
    name: str
    doc: str
    parent: int  # index of the enclosing span in Tracer.spans, -1 at a root
    start: float
    end: float


# -- observers: count what a layer returned, outside its span ---------------


def _count_monomials(tracer, sid, parent, args, result):
    tracer.counts["toric.monomials"] += len(result)


def _note_relation_rows(tracer, sid, parent, args, result):
    monos, rows = result
    tracer.counts["jacobian.rows"] += len(rows)
    tracer.counts["jacobian.cols"] += len(monos)
    tracer.notes[parent]["rows"] = len(rows)


def _note_rank_mod_p(tracer, sid, parent, args, result):
    rows, ncols = args[0], args[1]
    tracer.counts["linalg.rank_mod_p.cells"] += len(rows) * ncols
    tracer.notes[parent]["prefilter"] = True


def _count_useful_row(tracer, sid, parent, args, result):
    tracer.counts["linalg.add_row.useful"] += bool(result)


def _record_piece(tracer, sid, parent, args, piece):
    note = tracer.notes.pop(sid, {})
    if "rows" not in note:  # served from the system's piece cache
        return
    nnz = bits = 0
    if piece.echelon is None:
        path = "modp-certified" if piece.monomials else "empty"
    else:
        path = "exact"
        for row in piece.echelon.rows.values():
            nnz += len(row)
            bits = max(bits, max(abs(x).bit_length() for x in row.values()))
    span = tracer.spans[sid]
    tracer.pieces.append(
        {
            "doc": span.doc,
            "ideal": piece.ideal,
            "degree": list(piece.degree),
            "rows": note["rows"],
            "cols": len(piece.monomials),
            "rank": piece.rank,
            "dim": piece.dim,
            "path": path,
            "prefilter_missed": path == "exact" and note.get("prefilter", False),
            "echelon_nnz": nnz,
            "max_bits": bits,
            "seconds": span.end - span.start,
        }
    )


def _count_structure(tracer, sid, parent, args, algebra):
    for tensor in algebra.structure.values():
        for row in tensor:
            for coords in row:
                tracer.counts["frobenius.structure_entries"] += len(coords)
                tracer.counts["frobenius.structure_nonzero"] += sum(
                    1 for c in coords if c
                )


# (owner, attribute, span name, observer).  anticanonical_polytope and
# normalized_volume share one layer name, toric.polytope.
LAYERS = (
    (report, "parse_run_config", "report.parse_run_config", None),
    (report, "run_report", "report.run_report", None),
    (poly, "parse_polynomial", "poly.parse_polynomial", None),
    (toric, "validate_fan", "toric.validate_fan", None),
    (toric, "class_group", "toric.class_group", None),
    (toric, "anticanonical_polytope", "toric.polytope", None),
    (toric, "normalized_volume", "toric.polytope", None),
    (toric, "betti_numbers", "toric.betti_numbers", None),
    (toric, "monomial_basis", "toric.monomial_basis", _count_monomials),
    (jacobian, "relation_rows", "jacobian.relation_rows", _note_relation_rows),
    (jacobian, "graded_piece", "jacobian.graded_piece", _record_piece),
    (jacobian, "normal_form", "jacobian.normal_form", None),
    (linalg, "rank_mod_p", "linalg.rank_mod_p", _note_rank_mod_p),
    (linalg.EchelonBasis, "add_row", "linalg.add_row", _count_useful_row),
    (linalg.EchelonBasis, "reduce", "linalg.reduce", None),
    (linalg, "rank_rational", "linalg.rank_rational", None),
    (frobenius, "build_algebra", "frobenius.build_algebra", _count_structure),
    (frobenius, "trace", "frobenius.trace", None),
    (frobenius, "trace_of_polynomial", "frobenius.trace_of_polynomial", None),
    (frobenius, "pairing_gram", "frobenius.pairing_gram", None),
    (frobenius.FrobeniusAlgebraData, "product_coords", "frobenius.product_coords", None),
    (frobenius, "frobenius_axiom_check", "frobenius.axiom_check", None),
)

# Per-layer metrics of one document, grouped by how they are computed.
SECONDS = (  # self time of the span name before the last dot
    "report.parse_run_config.s",
    "report.run_report.self_s",
    "report.json_dump.s",
    "poly.parse_polynomial.s",
    "toric.validate_fan.s",
    "toric.class_group.s",
    "toric.polytope.s",
    "toric.betti_numbers.s",
    "toric.monomial_basis.s",
    "jacobian.relation_rows.self_s",
    "jacobian.normal_form.self_s",
    "linalg.rank_mod_p.s",
    "linalg.add_row.s",
    "linalg.reduce.s",
    "linalg.rank_rational.s",
    "frobenius.build_algebra.self_s",
    "frobenius.trace.s",
    "frobenius.pairing_gram.self_s",
    "frobenius.product_coords.s",
    "frobenius.axiom_check.self_s",
)
CALLS = (  # number of spans of the name before ".calls"
    "poly.parse_polynomial.calls",
    "toric.class_group.calls",
    "toric.polytope.calls",
    "toric.monomial_basis.calls",
    "jacobian.graded_piece.calls",
    "jacobian.normal_form.calls",
    "linalg.rank_mod_p.calls",
    "linalg.add_row.calls",
    "linalg.reduce.calls",
    "linalg.rank_rational.calls",
    "frobenius.trace.calls",
    "frobenius.trace_of_polynomial.calls",
    "frobenius.pairing_gram.calls",
    "frobenius.product_coords.calls",
)
COUNTS = (  # observer counters
    "toric.monomials",
    "jacobian.rows",
    "jacobian.cols",
    "linalg.rank_mod_p.cells",
    "frobenius.structure_entries",
    "frobenius.structure_nonzero",
)
PIECES = (  # from the per-piece records
    "jacobian.pieces_built",
    "jacobian.pieces_empty",
    "jacobian.pieces_modp",
    "jacobian.pieces_exact",
    "jacobian.pieces_prefilter_missed",
    "linalg.echelon_nnz",
)
UNITS = {
    **{name: "s" for name in SECONDS},
    **{name: "count" for name in CALLS + COUNTS + PIECES},
    "jacobian.prefilter_hit_ratio": "ratio",
    "linalg.add_row.useful_ratio": "ratio",
    "linalg.echelon_max_bits": "bits",
    "untraced_s": "s",
}


def self_times(spans, offset: int = 0) -> dict[str, float]:
    """Total self time per span name; ``spans`` are ``Tracer.spans[offset:]``
    (parents index the whole list)."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= offset:
            covered[span.parent - offset] += span.end - span.start
    out: dict[str, float] = defaultdict(float)
    for span, child in zip(spans, covered):
        out[span.name] += span.end - span.start - child
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    """Spans of wrapped calls, kept in memory for the whole run, with the
    counts and per-piece records their observers take."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._stack: list[int] = []
        self.doc = ""
        self.counts: Counter = Counter()  # of the current document
        self.notes: dict[int, dict] = defaultdict(dict)  # by open span
        self.pieces: list[dict] = []

    # -- spans -------------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent

    def _close(self, name, sid, parent, start):
        end = self.clock()
        self._stack.pop()
        self.spans[sid] = Span(name, self.doc, parent, start, end)

    def wrap(self, name, fn, observe=None):
        """``fn`` recording a span per call; ``observe`` sees its result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, sid, parent, start)
            if observe is not None:
                with self.span(OBSERVE):
                    observe(self, sid, parent, args, result)
            return result

        return traced

    @contextmanager
    def span(self, name):
        sid, parent = self._open()
        start = self.clock()
        try:
            yield
        finally:
            self._close(name, sid, parent, start)

    @contextmanager
    def installed(self):
        """Trace every layer of ``LAYERS`` inside the block."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == "lgfrob" or name.startswith("lgfrob.")
        ]
        restore = []
        try:
            for owner, attr, name, observe in LAYERS:
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original, observe)
                targets = [(owner, attr)] if isinstance(owner, type) else [
                    (m, key)
                    for m in modules
                    for key, value in list(vars(m).items())
                    if value is original
                ]
                for target, key in targets:
                    restore.append((target, key, original))
                    setattr(target, key, wrapper)
            yield self
        finally:
            for target, key, original in reversed(restore):
                setattr(target, key, original)

    # -- per-document figures ----------------------------------------------

    def begin_doc(self, doc_id: str):
        """Start attributing spans, counts and pieces to ``doc_id``."""
        self.doc = doc_id
        self.counts = Counter()
        self._first_span = len(self.spans)
        self._first_piece = len(self.pieces)

    def doc_metrics(self) -> dict[str, float]:
        """Per-layer figures of the document begun last."""
        first = self._first_span
        spans = self.spans[first:]
        selfs = self_times(spans, first)
        calls = Counter(span.name for span in spans)
        pieces = self.pieces[self._first_piece :]
        paths = Counter(p["path"] for p in pieces)
        out = {name: selfs.get(name.rsplit(".", 1)[0], 0.0) for name in SECONDS}
        out.update({name: calls[name.rsplit(".", 1)[0]] for name in CALLS})
        out.update({name: self.counts[name] for name in COUNTS})
        out.update(
            {
                "jacobian.pieces_built": len(pieces),
                "jacobian.pieces_empty": paths["empty"],
                "jacobian.pieces_modp": paths["modp-certified"],
                "jacobian.pieces_exact": paths["exact"],
                "jacobian.pieces_prefilter_missed": sum(
                    p["prefilter_missed"] for p in pieces
                ),
                "jacobian.prefilter_hit_ratio": _ratio(
                    paths["modp-certified"], calls["linalg.rank_mod_p"]
                ),
                "linalg.add_row.useful_ratio": _ratio(
                    self.counts["linalg.add_row.useful"], calls["linalg.add_row"]
                ),
                "linalg.echelon_nnz": sum(p["echelon_nnz"] for p in pieces),
                "linalg.echelon_max_bits": max(
                    (p["max_bits"] for p in pieces), default=0
                ),
                "untraced_s": selfs.get(ROOT, 0.0),
            }
        )
        return out
