"""Command-line front end.

Subcommands: validate, report, dims, gram (JSON report on stdout, human
summary on stderr) and fixture (emit a built-in input document).  Exit codes:
0 success, 2 input/schema error, 3 fan validation failure, 4 mathematical
certificate failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .errors import InputSchemaError, LgfrobError
from .fixtures import fixture_names, get_fixture
from .report import RunConfig, parse_run_config, run_report

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CERTIFICATE = 4


def _add_run_flags(parser: argparse.ArgumentParser):
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="PATH", help="input JSON document ('-' for stdin)")
    source.add_argument("--fixture", metavar="NAME", help="use a built-in fixture as input")
    parser.add_argument(
        "--max-degree-a", type=int, help="cap graded dimension computations at this a"
    )
    parser.add_argument(
        "--full", action="store_true", help="remove any max-degree cap from the input"
    )
    parser.add_argument(
        "--json-only",
        action="store_true",
        help="suppress the human summary and the non-reproducible timing block",
    )


def _load_document(args) -> dict:
    if args.fixture:
        return get_fixture(args.fixture).to_input_document()
    # bytes, decoded here: a text stdin would decode them by the locale,
    # which under C or POSIX turns bytes that are not UTF-8 into surrogates
    try:
        if args.input == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(args.input, "rb") as handle:
                data = handle.read()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputSchemaError(f"cannot read {args.input}: {exc}") from exc
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputSchemaError(f"malformed JSON: {exc}") from exc
    # the one other ValueError: an integer past the interpreter's digit
    # limit, whose own text advises a call that a document cannot make
    except ValueError as exc:
        raise InputSchemaError(
            "malformed JSON: an integer is longer than the interpreter's "
            "digit limit (4,300 digits by default)"
        ) from exc


def _build_config(args) -> RunConfig:
    doc = _load_document(args)
    overrides = {}
    if args.max_degree_a is not None:
        overrides["max_degree_a"] = args.max_degree_a
    if args.full:
        overrides["max_degree_a"] = None
    if args.json_only:
        overrides["json_only"] = True
    return parse_run_config(doc, overrides)


# ---------------------------------------------------------------------------
# human-readable summary (stderr)


def _human_summary(report: dict, stream):
    def line(text=""):
        print(text, file=stream)

    def record(label, check):
        status = "pass" if check["pass"] else "FAIL"
        suffix = f"  [{check['witness']}]" if check["witness"] else ""
        line(f"  {label:20s} {status}{suffix}")

    line(f"== {report.get('name', '?')} ({report.get('command', '?')}) ==")
    for name, check in report.get("validation", {}).items():
        record(name, check)
    grading = report.get("grading")
    if grading:
        line(f"  class group rank {grading['rank']}, beta = {tuple(grading['beta'])}")
    polytope = report.get("polytope")
    if polytope:
        line(f"  normalized volume m!Vol = {polytope['normalized_volume']}")
    if "betti" in report:
        line(f"  betti = {report['betti']}  extraisom: {report.get('extraisom')}")
    if "dims" in report:
        capped = " (capped)" if report.get("capped") else ""
        line(f"  dims = {report['dims']}{capped}")
    for entry in report.get("crit_containment", []):
        record(f"crit {','.join(entry['zero_set'])}", entry)
    for key in ("macaulay", "socle"):
        if key in report:
            record(key, report[key])
    algebra = report.get("algebra")
    if algebra:
        tr = algebra["socle_generator_trace"]
        line(f"  trace(socle gen) = {tr['rational']} * (2*pi*i)^{tr['unit_exponent']}")
    gram = report.get("gram")
    if gram:
        shapes = ", ".join(
            f"G_{a}: {tuple(entry['shape'])} rank {entry['rank']}"
            for a, entry in gram.items()
        )
        line(f"  gram: {shapes}")
    axioms = report.get("axioms")
    if axioms:
        summary = ", ".join(
            f"{k}: {'pass' if v['pass'] else 'FAIL'}" for k, v in axioms.items()
        )
        line(f"  axioms: {summary}")
    error = report.get("error")
    if error:
        line(f"  error: {error['type']}: {error['message']}")
    if "certificates_pass" in report:
        failed = ", ".join(report.get("failures", []))
        line(f"  certificates: {'all pass' if report['certificates_pass'] else 'FAILED: ' + failed}")
    timings = report.get("timings")
    if timings:
        line("  timings: " + ", ".join(f"{k} {v:.3f}s" for k, v in timings.items()))


def _emit(report: dict, exit_code: int, json_only: bool) -> int:
    """Print a document; return ``exit_code``, also once stdout is closed."""
    try:
        print(json.dumps(report, indent=2), flush=True)
    except BrokenPipeError:
        # the flush at exit goes to devnull instead of raising again; a
        # stream with no descriptor has nothing left to flush
        with contextlib.suppress(OSError, ValueError):
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
    if not json_only:
        _human_summary(report, sys.stderr)
    return exit_code


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lgfrob",
        description=(
            "Exact construction and certification of the graded Frobenius "
            "algebra of a Calabi-Yau hypersurface in a toric Fano variety."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, helptext in (
        ("validate", "fan validation, grading, polytope and Betti numbers"),
        ("report", "full certificate report"),
        ("dims", "graded dimensions only"),
        ("gram", "Gram matrices of the trace pairing"),
    ):
        p = sub.add_parser(name, help=helptext)
        _add_run_flags(p)

    p_fix = sub.add_parser("fixture", help="emit a built-in input document")
    p_fix.add_argument("name", nargs="?", help="fixture name (omit to list)")

    args = parser.parse_args(argv)

    if args.command == "fixture":
        if not args.name:
            print("\n".join(fixture_names()))
            return EXIT_OK
        try:
            doc = get_fixture(args.name).to_input_document()
        except InputSchemaError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        return _emit(doc, EXIT_OK, json_only=True)

    try:
        config = _build_config(args)
    except InputSchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        report, code = run_report(config, args.command)
    except InputSchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LgfrobError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    return _emit(report, code, config.json_only)


if __name__ == "__main__":
    sys.exit(main())
