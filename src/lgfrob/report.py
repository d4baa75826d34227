"""Run configuration, orchestration and the consolidated certificate report.

Input and report documents are JSON; rationals are serialized as strings
"p/q" so nothing is ever rounded.  Reports are deterministic for a fixed
input: per-stage timings are the only non-reproducible field, and they are
omitted in json-only mode.
"""

from __future__ import annotations

import reprlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from . import frobenius, jacobian, toric
from .errors import InputSchemaError, LgfrobError
from .fixtures import SCHEMA_VERSION, unimodular_transform
from .poly import format_rational, parse_polynomial
from .toric import FanData


@dataclass
class RunConfig:
    fan: FanData
    variables: tuple[str, ...]
    poly_text: str
    name: str = "custom"
    zero_sets: tuple[tuple[str, ...], ...] = ()
    max_degree_a: int | None = None
    json_only: bool = False
    # stated degree data to compare against, when the input carries it
    stated_degrees: tuple[tuple[int, ...], ...] | None = None
    stated_beta: tuple[int, ...] | None = None


def _expect(doc: dict, key: str, kind, context: str):
    if key not in doc:
        raise InputSchemaError(f"{context}: missing field {key!r}")
    value = doc[key]
    # JSON true/false parse to bool, which Python counts as an int
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise InputSchemaError(
            f"{context}: field {key!r} must be {kind.__name__}"
        )
    return value


class _Echo(reprlib.Repr):
    """``reprlib.repr``, which cuts a long value short, except that an int
    that ``str()`` refuses (past the interpreter's digit limit) is named by
    its bit length instead of raising ``ValueError``."""

    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:
            return f"<int of {x.bit_length()} bits>"


_echo = _Echo().repr


def _is_integer(value) -> bool:
    """A JSON integer: not a bool, a float or a string."""
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(value, what: str, minimum: int | None, maximum: int | None) -> int:
    if not _is_integer(value):
        raise InputSchemaError(f"{what} must be an integer, got {_echo(value)}")
    if minimum is not None and value < minimum:
        raise InputSchemaError(f"{what} must be >= {minimum}, got {_echo(value)}")
    if maximum is not None and value > maximum:
        raise InputSchemaError(f"{what} must be <= {maximum}, got {_echo(value)}")
    return value


def _integer_list(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(map(_is_integer, value)):
        raise InputSchemaError(f"{what} {_echo(value)} must be a list of integers")
    return tuple(value)


def _integer_lists(value, what: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(value, list):
        raise InputSchemaError(f"{what} must be a list of lists of integers")
    return tuple(_integer_list(row, f"{what} entry") for row in value)


# integer options and their bounds: the cap is a signed 64-bit integer, so
# the report that prints it stays printable.  sample_seed seeded a removed
# associativity check, but the benchmark's documents still set it: it is
# validated against the same bound and then discarded, until the benchmark
# drops it and it becomes an unknown option
INTEGER_OPTIONS = {
    "sample_seed": (-(2**63), 2**63 - 1),
    "max_degree_a": (0, 2**63 - 1),
}


# the keys an input document and its fan may carry; expected_fail labels a
# negative-control fixture and is read only to check that it is a string
DOCUMENT_KEYS = {
    "schema_version", "name", "fan", "variables", "polynomial", "zero_sets",
    "options", "stated_degrees", "stated_beta", "expected_fail",
}
FAN_KEYS = {"dim", "rays", "max_cones"}


def _known_keys(doc: dict, known: set[str], context: str):
    unknown = sorted(set(doc) - known)
    if unknown:
        raise InputSchemaError(f"{context}: unknown field {_echo(unknown[0])}")


def parse_run_config(doc, overrides: dict | None = None) -> RunConfig:
    """Validate an input document (parsed JSON) into a RunConfig."""
    if not isinstance(doc, dict):
        raise InputSchemaError("input document must be a JSON object")
    _known_keys(doc, DOCUMENT_KEYS, "input")
    version = _integer(doc.get("schema_version", SCHEMA_VERSION), "schema_version", None, None)
    if version != SCHEMA_VERSION:
        raise InputSchemaError(f"unsupported schema_version {_echo(version)}")
    if "expected_fail" in doc:
        _expect(doc, "expected_fail", str, "input")
    fan_doc = _expect(doc, "fan", dict, "input")
    _known_keys(fan_doc, FAN_KEYS, "fan")
    dim = _expect(fan_doc, "dim", int, "fan")
    rays = _integer_lists(_expect(fan_doc, "rays", list, "fan"), "fan: rays")
    cones = _integer_lists(
        _expect(fan_doc, "max_cones", list, "fan"), "fan: max_cones"
    )
    try:
        fan = FanData(dim, rays, cones)
    except LgfrobError as exc:
        raise InputSchemaError(f"fan: {exc}") from exc
    variables = _expect(doc, "variables", list, "input")
    if not all(isinstance(v, str) for v in variables):
        raise InputSchemaError("variables must be strings")
    if len(set(variables)) != len(variables):
        raise InputSchemaError("variable names must be distinct")
    if len(variables) != fan.n_rays:
        raise InputSchemaError(
            f"{len(variables)} variables for {fan.n_rays} rays"
        )
    poly_text = _expect(doc, "polynomial", str, "input")

    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise InputSchemaError("options must be an object")
    config = RunConfig(
        fan=fan,
        variables=tuple(variables),
        poly_text=poly_text,
        name=_expect(doc, "name", str, "input") if "name" in doc else "custom",
        zero_sets=_zero_sets(doc.get("zero_sets", []), variables),
    )
    # the document's options are checked even where an override replaces them
    for key, value in [*options.items(), *(overrides or {}).items()]:
        if key in INTEGER_OPTIONS:
            # max_degree_a may be null: no cap
            if not (key == "max_degree_a" and value is None):
                value = _integer(value, f"option {key!r}", *INTEGER_OPTIONS[key])
            if key == "max_degree_a":
                config.max_degree_a = value
        elif key == "json_only":
            if not isinstance(value, bool):
                raise InputSchemaError(f"option {key!r} must be true or false")
            config.json_only = value
        else:
            raise InputSchemaError(f"unknown option {_echo(key)}")

    stated = doc.get("stated_degrees")
    if stated is not None:
        config.stated_degrees = _integer_lists(stated, "stated_degrees")
    beta = doc.get("stated_beta")
    if beta is not None:
        # beta can only be compared through the transform of stated_degrees
        if stated is None:
            raise InputSchemaError("stated_beta needs stated_degrees")
        config.stated_beta = _integer_list(beta, "stated_beta")
    return config


def _zero_sets(value, variables: list[str]) -> tuple[tuple[str, ...], ...]:
    if not isinstance(value, list) or not all(isinstance(s, list) for s in value):
        raise InputSchemaError("zero_sets must be a list of lists of variable names")
    for s in value:
        for v in s:
            if not isinstance(v, str) or v not in variables:
                raise InputSchemaError(f"zero_sets: {_echo(v)} is not a declared variable")
    return tuple(tuple(s) for s in value)


# ---------------------------------------------------------------------------
# orchestration


@contextmanager
def _timed(timings: dict[str, float], stage: str):
    """Record the wall time of a stage, also when the stage raises."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[stage] = round(time.perf_counter() - start, 6)


GRAM_ENTRY_LIMIT = 12

# the keys dims and gram print; validate and report print every key
PRINTED_KEYS = {
    "dims": {
        "schema_version",
        "command",
        "name",
        "timings",
        "validation",
        "validation_pass",
        "grading",
        "stated_degrees",
        "polytope",
        "betti",
        "extraisom",
        "dims",
        "capped",
        "error",
        "failures",
        "certificates_pass",
    },
    "gram": {
        "schema_version",
        "command",
        "name",
        "validation_pass",
        "grading",
        "dims",
        "gram",
        "gram_unit_exponent",
        "algebra",
        "certificates_pass",
        "timings",
    },
}


def run_report(config: RunConfig, command: str = "report") -> tuple[dict, int]:
    """The pipeline of every command; returns (report, exit_code) with the
    documented contract: 0 ok, 3 validation failure, 4 mathematical
    certificate failure.  Schema errors raise before this point (exit 2).

    ``command`` names the last stage: validate stops after topology, dims
    after dims, gram and report run every certificate.  dims and gram print
    only their keys, except that gram prints the whole report when it exits
    nonzero.
    """
    report, code = _run_stages(config, command)
    keep = PRINTED_KEYS.get(command)
    if keep is None or (command == "gram" and code != 0):
        return report, code
    return {k: v for k, v in report.items() if k in keep}, code


def _run_stages(config: RunConfig, command: str) -> tuple[dict, int]:
    timings: dict[str, float] = {}
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "name": config.name,
    }
    if not config.json_only:
        # the dict the stages fill in, so every stage's time lands in it
        report["timings"] = timings
    with _timed(timings, "validate"):
        vrep = toric.validate_fan(config.fan)
    report["validation"] = {
        name: getattr(vrep, name).as_dict() for name in toric.CHECKS
    }
    report["validation_pass"] = vrep.all_pass
    if not vrep.all_pass:
        return report, 3

    with _timed(timings, "grading"):
        grading = toric.class_group(config.fan, vrep.hermite)
    report["grading"] = {
        "rank": grading.rank,
        "degrees": [list(d) for d in grading.degrees],
        "beta": list(grading.beta),
    }
    if config.stated_degrees is not None:
        t = unimodular_transform(grading.degrees, config.stated_degrees)
        match = t is not None
        if match and config.stated_beta is not None:
            beta_t = tuple(sum(x * b for x, b in zip(row, grading.beta)) for row in t)
            match = beta_t == config.stated_beta
        report["stated_degrees"] = {
            "degrees": [list(d) for d in config.stated_degrees],
            "unimodular_transform": t,
            "match": match,
        }
    with _timed(timings, "polytope"):
        volume = toric.normalized_volume(vrep.polytope)
    report["polytope"] = {
        "vertices": [list(v) for v in vrep.polytope.vertices],
        "normalized_volume": volume,
    }
    with _timed(timings, "topology"):
        betti = report["betti"] = toric.betti_numbers(config.fan)
        report["extraisom"] = toric.extraisom_necessary_check(betti)
    if command == "validate":
        return report, 0

    m = config.fan.dim
    # (failure name, record) of every certificate from here on, in order;
    # _verdicts derives the run's verdicts from them
    records: list[tuple[str, toric.CheckResult]] = []

    try:
        with _timed(timings, "potential"):
            f = parse_polynomial(config.poly_text, config.variables)
            system = jacobian.jacobian_system(config.fan, grading, f)
    except LgfrobError as exc:
        return report, _verdicts(report, records, ("potential", exc))
    # jacobian_system checked that f is homogeneous of degree beta
    report["potential"] = {"text": config.poly_text, "degree": list(grading.beta)}

    cap = config.max_degree_a if config.max_degree_a is not None else m - 1
    capped = cap < m - 1
    with _timed(timings, "dims"):
        dims = [jacobian.dim_R(system, a) for a in range(min(cap, m - 1) + 1)]
    report["dims"] = dims
    report["capped"] = capped
    report["max_degree_a"] = cap
    if command == "dims":
        return report, 0

    if config.zero_sets:
        with _timed(timings, "crit_containment"):
            crit = jacobian.crit_containment_check(system, config.zero_sets)
        report["crit_containment"] = [
            {"zero_set": list(zero_set), **record.as_dict()}
            for zero_set, record in zip(config.zero_sets, crit)
        ]
        records += [
            (f"crit_containment:{','.join(zero_set)}", record)
            for zero_set, record in zip(config.zero_sets, crit)
        ]

    if capped:
        # middle graded pieces out of scope for this run: no socle, algebra
        # or axiom certificates
        return report, _verdicts(report, records)

    # one stage per hypothesis of build_algebra, each timed under its key;
    # the Macaulay stage builds R0(f)_{m beta}, which the socle stage reuses
    hypotheses = []
    for name, key, check in jacobian.HYPOTHESES:
        with _timed(timings, key):
            record = check(system)
        report[key] = record.as_dict()
        hypotheses.append((name, record))
    records += hypotheses
    if not all(record.ok for _, record in hypotheses):
        return report, _verdicts(report, records)

    try:
        with _timed(timings, "algebra"):
            algebra = frobenius.build_algebra(system)
    except LgfrobError as exc:
        return report, _verdicts(report, records, ("algebra", exc))

    socle_trace = frobenius.trace(
        [Fraction(1)] + [Fraction(0)] * (algebra.bases[m - 1].dim - 1), algebra
    )
    report["algebra"] = {
        "volume": algebra.volume,
        "sign_convention": algebra.sign,
        "generator_monomial": list(algebra.generator_monomial),
        "generator_coord": format_rational(algebra.generator_coord),
        # the first basis monomial of R(f)_{(m-1) beta}, whose trace follows
        "socle_generator": list(algebra.bases[m - 1].basis[0]),
        "socle_generator_trace": {
            "rational": format_rational(socle_trace),
            "unit_exponent": m - 1,
        },
        "zero_sums_checked": algebra.zero_sums_checked,
    }

    dims = algebra.dims()
    with _timed(timings, "gram"):
        # the numerators of every G_a, built once: the axiom check ranks them
        # all, and only the G_a whose entries are printed become matrices
        numerators = [frobenius.gram_numerators(algebra, a) for a in range(m)]
        grams = {
            a: frobenius.pairing_gram(algebra, a, numerators[a])
            for a in range(m)
            if dims[a] * dims[m - 1 - a] and max(dims[a], dims[m - 1 - a]) <= GRAM_ENTRY_LIMIT
        }
    with _timed(timings, "axioms"):
        axioms = frobenius.frobenius_axiom_check(algebra, numerators)
    gram_section = report["gram"] = {}
    for a, rank in enumerate(axioms.gram_ranks):
        rows, cols = dims[a], dims[m - 1 - a]
        entry = {"shape": [rows, cols], "rank": rank, "nondegenerate": rows == cols == rank}
        if a in grams:
            entry["entries"] = [[format_rational(e) for e in row] for row in grams[a]]
        gram_section[str(a)] = entry
    report["gram_unit_exponent"] = m - 1
    report["axioms"] = {
        name: getattr(axioms, name).as_dict() for name in frobenius.AXIOMS
    }
    records += [("frobenius_axioms", getattr(axioms, name)) for name in frobenius.AXIOMS]
    return report, _verdicts(report, records)


def _verdicts(
    report: dict,
    records: list[tuple[str, toric.CheckResult]],
    error: tuple[str, LgfrobError] | None = None,
) -> int:
    """The one derivation of a run's verdicts, through which every exit
    from the potential stage on goes; returns the exit code.

    ``failures`` names each failing record once, in stage order, then the
    stage that raised ``error``, if any, whose ``error`` entry it prints.
    ``certificates_pass`` is whether ``failures`` is empty, and the exit
    code is 0 if it is, 4 otherwise.  ``hypotheses`` is printed once
    quasi-smoothness has been decided, by the records of
    ``jacobian.HYPOTHESES``, or left out of scope by a capped run;
    non-degeneracy is asserted."""
    failures = list(dict.fromkeys(name for name, record in records if not record.ok))
    if error is not None:
        stage, exc = error
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        failures.append(stage)
    hypotheses = {name for name, _, _ in jacobian.HYPOTHESES}
    decided = [record.ok for name, record in records if name in hypotheses]
    if report.get("capped"):
        quasi_smoothness = "not-evaluated (capped run)"
    elif decided:
        quasi_smoothness = "consistent" if all(decided) else "inconsistent"
    else:
        quasi_smoothness = None
    if quasi_smoothness is not None:
        report["hypotheses"] = {
            "quasi_smoothness": quasi_smoothness,
            "non_degeneracy": "asserted",
        }
    report["certificates_pass"] = not failures
    report["failures"] = failures
    return 4 if failures else 0
