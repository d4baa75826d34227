"""Command-line interface: exit codes, JSON schemas, determinism and
fixture round-trips."""

import dataclasses
import functools
import io
import json
import sys
import time

import pytest

from lgfrob import frobenius, linalg, report, toric
from lgfrob.cli import main
from lgfrob.errors import InputSchemaError
from lgfrob.fixtures import get_fixture
from lgfrob.poly import GradedPolynomial


# a cubic fan with a potential that is not homogeneous for its grading
INHOMOGENEOUS = {
    "schema_version": 1,
    "fan": {
        "dim": 2,
        "rays": [[1, 0], [0, 1], [-1, -1]],
        "max_cones": [[0, 1], [1, 2], [0, 2]],
    },
    "variables": ["x", "y", "z"],
    "polynomial": "x^3 + y^2",
}

VALIDATE_KEYS = [
    "schema_version",
    "command",
    "name",
    "validation",
    "validation_pass",
    "grading",
    "polytope",
    "betti",
    "extraisom",
]


def stdin_of(data: bytes):
    """A stdin that reads ``data``, decoding it as Python does under the C
    locale, where bytes that are not UTF-8 become surrogates."""
    return io.TextIOWrapper(io.BytesIO(data), "utf-8", "surrogateescape")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


def corrupt_g1(monkeypatch):
    """Fault injection: a repeated row makes the numerators of G_1, and so
    G_1 itself, singular wherever they are built."""
    original = frobenius.gram_numerators

    def corrupted(algebra, a):
        gram, den = original(algebra, a)
        if a == 1:
            gram[1] = list(gram[0])
        return gram, den

    monkeypatch.setattr(frobenius, "gram_numerators", corrupted)


class TestFixtureCommand:
    def test_lists_names(self, capsys):
        code, out, _ = run_cli(capsys, "fixture")
        assert code == 0
        assert "projective-5" in out.split()

    def test_emits_document(self, capsys):
        code, out, _ = run_cli(capsys, "fixture", "projective-3")
        assert code == 0
        doc = json.loads(out)
        assert doc["fan"]["dim"] == 2
        assert len(doc["variables"]) == 3

    def test_unknown_name_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "fixture", "nope")
        assert code == 2
        assert "unknown fixture" in err


class TestValidateCommand:
    def test_all_pass_exit_0(self, capsys):
        code, doc, _ = run_json(capsys, "validate", "--fixture", "projective-3", "--json-only")
        assert code == 0
        assert doc["validation_pass"] is True
        assert doc["grading"]["beta"] == [3]
        assert doc["polytope"]["normalized_volume"] == 9

    def test_hirzebruch_exit_3_with_witness(self, capsys):
        code, doc, _ = run_json(capsys, "validate", "--fixture", "hirzebruch-3", "--json-only")
        assert code == 3
        assert doc["validation"]["ample"]["pass"] is False
        assert "-2" in doc["validation"]["ample"]["witness"]

    def test_six_ray_document_ends_at_once(self, deadline):
        """Six 4-dimensional rays with two-digit coordinates on three cones:
        the fan is not complete (exit 3) but its class group is torsion-free.
        A Smith form that eliminates entry by entry lets the entries of this
        ray matrix grow without bound; the one on Hermite forms takes
        milliseconds."""
        rays = [
            [99, 72, -31, -14], [-78, -21, -15, -97], [-37, 80, -75, -98],
            [-85, 19, 24, -55], [74, 43, -52, 14], [30, -52, 87, 96],
        ]
        doc = {
            "fan": {
                "dim": 4,
                "rays": rays,
                "max_cones": [[0, 1, 2, 3], [0, 1, 2, 4], [2, 3, 4, 5]],
            },
            "variables": ["a", "b", "c", "d", "e", "f"],
            "polynomial": "a*b*c*d*e*f",
        }
        with deadline(1.0):
            doc_report, code = report.run_report(report.parse_run_config(doc), "validate")
        assert code == 3
        assert doc_report["validation"]["torsion_free"] == {
            "pass": True,
            "checked": 1,
            "witness": None,
        }
        assert doc_report["validation"]["complete_criterion"]["pass"] is False

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        code, _, err = run_cli(capsys, "validate", "--input", str(path), "--json-only")
        assert code == 2
        assert "malformed JSON" in err

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize(
        "data, message",
        [
            (b"\xff\xfe{", "cannot read"),
            (b"[" * 100_000 + b"]" * 100_000, "malformed JSON"),
            (
                b'{"fan": {"dim": ' + b"1" * 5000 + b"}}",
                "malformed JSON: an integer is longer than the interpreter's digit limit",
            ),
        ],
        ids=["not-utf8", "nested-100000", "5000-digit-integer"],
    )
    def test_unreadable_document_exit_2(
        self, capsys, monkeypatch, tmp_path, source, data, message
    ):
        """Bytes that are not UTF-8, JSON nested deeper than the recursion
        limit and an integer longer than the interpreter's digit limit are
        input errors, from a file and from stdin alike, whatever the locale."""
        if source == "file":
            path = tmp_path / "doc.json"
            path.write_bytes(data)
            argument = str(path)
        else:
            monkeypatch.setattr("sys.stdin", stdin_of(data))
            argument = "-"
        code, out, err = run_cli(capsys, "validate", "--input", argument, "--json-only")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")
        assert "set_int_max_str_digits" not in err

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "validate", "--input", "/nonexistent.json", "--json-only")
        assert code == 2

    @pytest.mark.parametrize("dim", [0, -1])
    @pytest.mark.parametrize("command", ["validate", "report"])
    def test_fan_dimension_below_1_exit_2(self, capsys, monkeypatch, command, dim):
        """A fan of dimension 0 has no ridges to pair, and one of negative
        dimension no cone of the right size: both are refused with a message
        that names the fan, before any stage runs."""
        doc = {
            "fan": {"dim": dim, "rays": [], "max_cones": [[]]},
            "variables": [],
            "polynomial": "1",
        }
        monkeypatch.setattr("sys.stdin", stdin_of(json.dumps(doc).encode()))
        code, out, err = run_cli(capsys, command, "--input", "-", "--json-only")
        assert (code, out) == (2, "")
        assert err == f"error: fan: dimension {dim} is not positive\n"

    def test_schema_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps({"fan": {"dim": 2}}))
        code, _, err = run_cli(capsys, "validate", "--input", str(path), "--json-only")
        assert code == 2
        assert "missing field" in err


class TestReportCommand:
    def test_cubic_full_report(self, capsys):
        code, doc, _ = run_json(capsys, "report", "--fixture", "projective-3", "--json-only")
        assert code == 0
        assert doc["dims"] == [1, 1]
        assert doc["socle"]["pass"] is True
        assert doc["algebra"]["socle_generator_trace"] == {
            "rational": "1/81",
            "unit_exponent": 1,
        }
        assert doc["gram"]["0"]["entries"] == [["1/81"]]
        assert list(doc["axioms"]) == ["unit", "invariance", "nondegeneracy"]
        assert all(record["pass"] is True for record in doc["axioms"].values())
        assert doc["hypotheses"]["quasi_smoothness"] == "consistent"
        assert doc["certificates_pass"] is True
        assert "timings" not in doc

    @pytest.mark.parametrize(
        "poly, error",
        [
            ("0*x^200000000", "DegreeMismatch"),
            ("x^3000000000", "PolySyntaxError"),
            ("1" * 5000 + "*x^3", "PolySyntaxError"),
            ("x^2000000000*x^2000000000*y^0", "PolySyntaxError"),
            ("(x^2)^2000000000", "PolySyntaxError"),
            ("(x+y)^100000000", "PolySyntaxError"),
            ("(" * 10_000 + "x" + ")" * 10_000, "PolySyntaxError"),
        ],
        ids=[
            "zero-power",
            "huge-exponent",
            "long-literal",
            "product-exponent",
            "power-exponent",
            "term-products",
            "deep-nesting",
        ],
    )
    def test_huge_power_or_long_literal_exit_4(self, capsys, tmp_path, poly, error):
        """Within a second, each ends in exit 4 with an error entry: the
        zero product through squaring, the others at the parser."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(dict(INHOMOGENEOUS, polynomial=poly)))
        start = time.perf_counter()
        code, doc, err = run_json(capsys, "report", "--input", str(path), "--json-only")
        assert time.perf_counter() - start < 1.0
        assert code == 4
        assert doc["error"]["type"] == error
        assert doc["certificates_pass"] is False
        assert "Traceback" not in err

    def test_degenerate_exit_4(self, capsys):
        code, doc, _ = run_json(capsys, "report", "--fixture", "degenerate-cube", "--json-only")
        assert code == 4
        assert doc["socle"]["pass"] is False
        assert "socle_certificates" in doc["failures"]
        assert doc["hypotheses"]["quasi_smoothness"] == "inconsistent"

    def test_p1xp1_socle_obstruction_exit_4(self, capsys):
        code, doc, _ = run_json(capsys, "report", "--fixture", "p1xp1", "--json-only")
        assert code == 4
        assert doc["dims"] == [1, 2]
        assert doc["socle"]["witness"] == "dim R(f)_(m-1)b = 2, dim R0(f)_mb = 1"

    def test_bundle_p6_capped_run(self, capsys):
        code, doc, _ = run_json(capsys, "report", "--fixture", "bundle-p6", "--json-only")
        assert code == 0
        assert doc["capped"] is True
        assert doc["max_degree_a"] == 1
        assert doc["dims"][0] == 1
        assert len(doc["dims"]) == 2
        assert "socle" not in doc
        assert all(c["pass"] for c in doc["crit_containment"])
        assert doc["stated_degrees"]["match"] is True

    def test_inhomogeneous_input_exit_4(self, capsys, tmp_path):
        path = tmp_path / "inhom.json"
        path.write_text(json.dumps(INHOMOGENEOUS))
        code, report, _ = run_json(capsys, "report", "--input", str(path), "--json-only")
        assert code == 4
        assert report["error"]["type"] == "NotHomogeneous"
        # the derivation names the stage that raised
        assert report["failures"] == ["potential"]
        assert report["certificates_pass"] is False
        assert "hypotheses" not in report

    @pytest.mark.parametrize("command", ["report", "gram"])
    def test_algebra_error_names_its_stage(self, capsys, monkeypatch, command):
        """A toric Jacobian that reduces to 0 is refused only in the algebra
        stage, after the Macaulay and socle records have passed."""
        monkeypatch.setattr(
            frobenius, "toric_jacobian", lambda system: GradedPolynomial.zero(system.variables)
        )
        code, doc, _ = run_json(capsys, command, "--fixture", "weighted-p112", "--json-only")
        assert code == 4
        assert doc["error"]["type"] == "ToricJacobianZero"
        assert doc["failures"] == ["algebra"]
        assert doc["certificates_pass"] is False
        assert doc["hypotheses"]["quasi_smoothness"] == "consistent"
        assert "algebra" not in doc and "axioms" not in doc

    @pytest.mark.parametrize(
        "name, capped, partial",
        [("bundle-p2", False, "x0"), ("bundle-p6", True, "x1")],
    )
    def test_crit_containment_failure_exit_4(self, name, capped, partial):
        """A zero set on which a partial does not restrict to 0 fails through
        the report, on a full run and on a capped one."""
        fx = get_fixture(name)
        doc = dict(fx.to_input_document(), zero_sets=[["x0"]])
        out, code = report.run_report(report.parse_run_config(doc, {"json_only": True}))
        assert code == 4
        assert out["failures"] == ["crit_containment:x0"]
        assert out["certificates_pass"] is False
        restricted = fx.polynomial.partial_derivative(fx.variables.index(partial))
        (entry,) = out["crit_containment"]
        assert entry["zero_set"] == ["x0"] and entry["pass"] is False
        assert entry["witness"] == (
            f"partial with respect to {partial} restricts to "
            f"{restricted.restrict_to_zero(('x0',)).to_text()}"
        )
        quasi_smoothness = "not-evaluated (capped run)" if capped else "consistent"
        assert out["capped"] is capped
        assert out["hypotheses"]["quasi_smoothness"] == quasi_smoothness

    def test_human_summary_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "report", "--fixture", "projective-3")
        assert code == 0
        assert "trace(socle gen) = 1/81 * (2*pi*i)^1\n" in err
        json.loads(out)  # stdout stays parseable

    def test_timings_list_every_stage(self, capsys):
        code, doc, _ = run_json(capsys, "report", "--fixture", "projective-3")
        assert code == 0
        assert list(doc["timings"]) == [
            "validate",
            "grading",
            "polytope",
            "topology",
            "potential",
            "dims",
            "macaulay",
            "socle",
            "algebra",
            "gram",
            "axioms",
        ]

    def test_class_group_computed_once_per_run(self, monkeypatch):
        """The grading is computed once per fan object: the first command
        on a config computes it, and every later one reads ``fan.grading``."""
        calls = []
        original = toric.class_group

        def counting(fan):
            calls.append(fan)
            return original(fan)

        monkeypatch.setattr(toric, "class_group", counting)
        doc = get_fixture("projective-3").to_input_document()
        config = report.parse_run_config(doc, {"json_only": True})
        for command in ("validate", "dims", "gram", "report"):
            assert report.run_report(config, command)[1] == 0
            assert calls == [config.fan], command

    def test_hermite_form_computed_once_per_report(self, monkeypatch):
        """validate_fan's form serves class_group.  build_algebra's guard,
        library API that cannot assume a validated fan, reads the same
        validation, kept on the fan object."""
        calls = []
        original = toric._free_hermite_form

        def counting(fan):
            calls.append(fan)
            return original(fan)

        monkeypatch.setattr(toric, "_free_hermite_form", counting)
        doc = get_fixture("projective-3").to_input_document()
        config = report.parse_run_config(doc, {"json_only": True})
        assert report.run_report(config, "report")[1] == 0
        assert len(calls) == 1

    def test_passing_report_takes_no_smith_form(self, monkeypatch):
        """Torsion is decided by the Hermite form; the Smith form only words
        a failure, so a passing report never calls it."""

        def refuse(matrix):
            raise AssertionError("invariant_factors called on a passing fan")

        monkeypatch.setattr(linalg, "invariant_factors", refuse)
        doc = get_fixture("bundle-p2").to_input_document()
        config = report.parse_run_config(doc, {"json_only": True})
        assert report.run_report(config, "report")[1] == 0

    def test_strategy_flag(self, capsys):
        """The trace has one normalization: the old --strategy flag exits 2
        and names itself."""
        with pytest.raises(SystemExit) as exc:
            main(["report", "--fixture", "projective-3", "--strategy", "projective-hessian"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--strategy" in captured.err

    def test_threads_flag(self, capsys):
        """No stage ever read a worker count: the old --threads flag exits 2
        and names itself."""
        with pytest.raises(SystemExit) as exc:
            main(["report", "--fixture", "projective-3", "--threads", "4"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--threads" in captured.err

    def test_cap_and_full_exclude_each_other(self, capsys, monkeypatch):
        """--full once overrode --max-degree-a silently and started the
        uncapped run; the pair now exits 2 before any stage runs."""

        def no_stage(*args):
            raise AssertionError("a stage ran")

        monkeypatch.setattr("lgfrob.cli.run_report", no_stage)
        monkeypatch.setattr("lgfrob.cli.parse_run_config", no_stage)
        with pytest.raises(SystemExit) as exc:
            main(["dims", "--fixture", "bundle-p6", "--max-degree-a", "1", "--full"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err

    @pytest.mark.parametrize("flag", ["--seed", "--sample-count"])
    def test_removed_sampling_flags_exit_2(self, capsys, flag):
        """Every axiom check is exact: the flags of the removed sampled
        associativity check exit 2 and name themselves."""
        with pytest.raises(SystemExit) as exc:
            main(["report", "--fixture", "projective-3", flag, "5"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err
        assert "Traceback" not in captured.err

    # besides wat, six keys an older document may still set: each is
    # refused like any unknown option, not silently dropped
    @pytest.mark.parametrize(
        "key, value",
        [
            ("wat", 1),
            ("modular_prefilter", False),
            ("macaulay_max_extra", 1),
            ("trace_strategy", "generic"),
            ("strategy", "projective-hessian"),
            ("threads", 1),
            ("sample_count", 200),
        ],
        ids=[
            "wat",
            "modular_prefilter",
            "macaulay_max_extra",
            "trace_strategy",
            "strategy",
            "threads",
            "sample_count",
        ],
    )
    def test_unknown_option_exit_2(self, capsys, tmp_path, key, value):
        doc = {
            "schema_version": 1,
            "fan": {
                "dim": 2,
                "rays": [[1, 0], [0, 1], [-1, -1]],
                "max_cones": [[0, 1], [1, 2], [0, 2]],
            },
            "variables": ["x", "y", "z"],
            "polynomial": "x^3+y^3+z^3",
            "options": {key: value},
        }
        path = tmp_path / "opt.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "report", "--input", str(path), "--json-only")
        assert code == 2
        assert out == ""
        assert f"unknown option {key!r}" in err

    @pytest.mark.parametrize("key", ["json_only"])
    @pytest.mark.parametrize("value", ["false", 0])
    def test_flag_options_must_be_booleans(self, capsys, tmp_path, key, value):
        doc = get_fixture("projective-3").to_input_document()
        doc["options"] = {key: value}
        path = tmp_path / "flag.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "report", "--input", str(path), "--json-only")
        assert code == 2
        assert out == ""
        assert f"option '{key}' must be true or false" in err



class TestConeInverses:
    @pytest.mark.parametrize("name, calls", [("projective-4", 4), ("bundle-p6", 14)])
    def test_each_cone_inverted_once_per_polytope(self, name, calls, capsys, monkeypatch):
        """validate_fan inverts every maximal cone once and builds the
        polytope that the polytope stage reads; normalized_volume reads its
        stored inverses.  build_algebra's anticanonical_polytope call, the
        guard of its normality lemma, reads the validation the fan object
        keeps, so the full projective-4 report inverts each cone once, as
        the capped bundle-p6 report, which builds no algebra, does.  Three
        other calls remain: the grading inverts the r x r
        unimodular Hermite factor W, whose inverse holds the section, and
        the stated degrees' transform T inverts the rank x rank square B of
        computed degrees that fixes T, then T itself for its |det T| = 1
        check."""
        counted = []
        original = linalg.inverse_int

        def counting(matrix):
            counted.append(len(matrix))
            return original(matrix)

        monkeypatch.setattr(linalg, "inverse_int", counting)
        code, doc, _ = run_json(capsys, "report", "--fixture", name, "--json-only")
        assert code == 0 and doc["stated_degrees"]["match"]
        fan = get_fixture(name).fan
        assert counted.count(fan.dim) == calls
        assert len(counted) == calls + 3
        rank = fan.n_rays - fan.dim
        assert [n for n in counted if n != fan.dim] == [fan.n_rays, rank, rank]


class TestGramRanks:
    def test_each_gram_rank_computed_once(self, monkeypatch):
        calls = []
        original = linalg.rank_rational

        def counting(matrix):
            calls.append(len(matrix))
            return original(matrix)

        monkeypatch.setattr(linalg, "rank_rational", counting)
        doc = get_fixture("projective-4").to_input_document()
        doc_report, code = report.run_report(report.parse_run_config(doc))
        assert code == 0
        # G_0, G_1, G_2 of the quartic: 1x1, 19x19, 1x1; the stated-degrees
        # comparison picks its independent degrees by an EchelonBasis scan
        assert calls == [1, 19, 1]
        assert [doc_report["gram"][str(a)]["rank"] for a in range(3)] == [1, 19, 1]

    def test_axiom_check_builds_each_gram_once(self, monkeypatch):
        """On the quartic (dims [1, 19, 1]) the gram stage builds only G_0
        and G_2, the two it prints, each through ``pairing_gram`` from its
        own numerators, and the axiom check builds the numerators of
        degrees 0, 1 and 2 once each."""
        events = []

        def logged(name, fn):
            def wrapper(*args):
                # the degree a, where the call has one
                events.append((name, *(x for x in args[1:] if isinstance(x, int))))
                return fn(*args)

            monkeypatch.setattr(frobenius, name, wrapper)

        for name in ("pairing_gram", "gram_numerators", "frobenius_axiom_check"):
            logged(name, getattr(frobenius, name))
        doc = get_fixture("projective-4").to_input_document()
        assert report.run_report(report.parse_run_config(doc))[1] == 0
        assert events == [
            ("pairing_gram", 0),
            ("gram_numerators", 0),
            ("pairing_gram", 2),
            ("gram_numerators", 2),
            ("frobenius_axiom_check",),
            ("gram_numerators", 0),
            ("gram_numerators", 1),
            ("gram_numerators", 2),
        ]

    def test_singular_gram_fails_nondegeneracy(self, monkeypatch):
        """Fault injection: a repeated row makes G_1 singular; the gram
        section and the nondegeneracy axiom must both say so."""
        corrupt_g1(monkeypatch)
        doc = get_fixture("projective-4").to_input_document()
        doc_report, code = report.run_report(report.parse_run_config(doc))
        assert code == 4
        assert doc_report["gram"]["1"]["rank"] == 18
        assert doc_report["gram"]["1"]["nondegenerate"] is False
        nondeg = doc_report["axioms"]["nondegeneracy"]
        assert nondeg["pass"] is False
        assert nondeg["witness"] == "G_1 is singular"
        assert "frobenius_axioms" in doc_report["failures"]

    def test_non_square_gram_fails_nondegeneracy(self, monkeypatch):
        """Fault injection: the cubic's one degree-1 basis monomial listed
        twice gives dims [1, 2], so G_0 is 1x2; the gram section and the
        nondegeneracy axiom must both say so."""
        original = frobenius.build_algebra

        def corrupted(system):
            algebra = original(system)
            top = algebra.bases[-1]
            algebra.bases[-1] = dataclasses.replace(top, basis=top.basis * 2)
            return algebra

        monkeypatch.setattr(frobenius, "build_algebra", corrupted)
        doc = get_fixture("projective-3").to_input_document()
        doc_report, code = report.run_report(report.parse_run_config(doc))
        assert code == 4
        assert doc_report["gram"]["0"]["shape"] == [1, 2]
        assert doc_report["gram"]["0"]["nondegenerate"] is False
        nondeg = doc_report["axioms"]["nondegeneracy"]
        assert nondeg["pass"] is False
        assert nondeg["witness"] == "G_0 is 1x2, not square"
        assert "frobenius_axioms" in doc_report["failures"]


class TestDeterminism:
    def test_repeat_runs_identical(self, capsys):
        a = run_cli(capsys, "report", "--fixture", "weighted-p112", "--json-only")
        b = run_cli(capsys, "report", "--fixture", "weighted-p112", "--json-only")
        assert a == b

    def test_sample_seed_does_not_change_the_report(self, capsys, tmp_path):
        """sample_seed is validated and then discarded: two documents that
        differ only in it give byte-identical reports."""
        outputs = []
        for seed in (-(2**63), 2**63 - 1):
            path = tmp_path / f"seed{seed}.json"
            path.write_text(json.dumps(_mutated("projective-4", _set_option("sample_seed", seed))))
            outputs.append(run_cli(capsys, "report", "--input", str(path), "--json-only"))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0


class TestRoundTrip:
    def test_fixture_document_feeds_report(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "fixture", "weighted-p112")
        assert code == 0
        path = tmp_path / "fx.json"
        path.write_text(out)
        code, doc, _ = run_json(capsys, "report", "--input", str(path), "--json-only")
        assert code == 0
        assert doc["dims"] == [1, 1]
        assert doc["certificates_pass"] is True


class TestDimsAndGram:
    def test_dims_subcommand(self, capsys):
        code, doc, _ = run_json(capsys, "dims", "--fixture", "projective-4", "--json-only")
        assert code == 0
        assert doc["dims"] == [1, 19, 1]

    def test_gram_subcommand(self, capsys):
        code, doc, _ = run_json(capsys, "gram", "--fixture", "projective-3", "--json-only")
        assert code == 0
        assert doc["gram"]["0"]["nondegenerate"] is True
        assert "axioms" not in doc

    def test_dims_timings_list_its_stages(self, capsys):
        code, doc, _ = run_json(capsys, "dims", "--fixture", "projective-3")
        assert code == 0
        assert list(doc["timings"]) == [
            "validate",
            "grading",
            "polytope",
            "topology",
            "potential",
            "dims",
        ]

    def test_dims_validation_failure_exit_3(self, capsys):
        code, _, _ = run_json(capsys, "dims", "--fixture", "hirzebruch-3", "--json-only")
        assert code == 3

    @pytest.mark.parametrize(
        "command, keys",
        [
            ("dims", [*VALIDATE_KEYS, "error", "certificates_pass", "failures"]),
            ("gram", [*VALIDATE_KEYS, "error", "certificates_pass", "failures"]),
        ],
    )
    def test_inhomogeneous_input_exit_4(self, capsys, tmp_path, command, keys):
        path = tmp_path / "inhom.json"
        path.write_text(json.dumps(INHOMOGENEOUS))
        code, doc, _ = run_json(capsys, command, "--input", str(path), "--json-only")
        assert code == 4
        assert doc["error"]["type"] == "NotHomogeneous"
        assert list(doc) == keys

    def test_gram_fails_on_singular_gram(self, capsys, monkeypatch):
        """The singular-G_1 fault injection of TestGramRanks, through gram:
        the command still runs the axioms and exits 4."""
        corrupt_g1(monkeypatch)
        code, doc, _ = run_json(capsys, "gram", "--fixture", "projective-4", "--json-only")
        assert code == 4
        assert doc["gram"]["1"]["nondegenerate"] is False
        assert "frobenius_axioms" in doc["failures"]


def _mutated(name, mutate):
    doc = get_fixture(name).to_input_document()
    mutate(doc)
    return doc


def _set_option(key, value):
    return lambda doc: doc.setdefault("options", {}).__setitem__(key, value)


class TestStrictSchema:
    """Every malformed field exits 2 with a message; none is coerced."""

    # sample_count is not an option: each of its cases exits 2 as unknown
    CASES = [
        ("sample_count-string", "projective-3", _set_option("sample_count", "abc")),
        ("sample_seed-string", "projective-3", _set_option("sample_seed", "x")),
        ("sample_count-bool", "projective-3", _set_option("sample_count", True)),
        ("sample_count-float", "projective-3", _set_option("sample_count", 2.0)),
        ("sample_count-zero", "projective-3", _set_option("sample_count", 0)),
        ("sample_count-above-limit", "projective-3", _set_option("sample_count", 10_001)),
        ("max_degree_a-negative", "projective-3", _set_option("max_degree_a", -3)),
        ("max_degree_a-float", "projective-3", _set_option("max_degree_a", 1.0)),
        ("zero_sets-number", "bundle-p2", lambda d: d.__setitem__("zero_sets", 5)),
        ("zero_sets-flat", "bundle-p2", lambda d: d.__setitem__("zero_sets", ["y1"])),
        ("zero_sets-unknown", "bundle-p2", lambda d: d.__setitem__("zero_sets", [["nope"]])),
        ("zero_sets-number-name", "bundle-p2", lambda d: d.__setitem__("zero_sets", [[1]])),
        ("stated_degrees-string", "projective-3", lambda d: d.__setitem__("stated_degrees", [["a"]])),
        ("stated_degrees-flat", "projective-3", lambda d: d.__setitem__("stated_degrees", [1, 1, 1])),
        ("stated_beta-string", "projective-3", lambda d: d.__setitem__("stated_beta", ["a"])),
        ("stated_beta-float", "projective-3", lambda d: d.__setitem__("stated_beta", [3.0])),
        # stated_beta is compared only through the transform of stated_degrees
        ("stated_beta-alone", "projective-3", lambda d: d.pop("stated_degrees")),
        ("ray-float", "projective-3", lambda d: d["fan"]["rays"].__setitem__(0, [1.5, 0])),
        ("ray-bool", "projective-3", lambda d: d["fan"]["rays"].__setitem__(0, [True, 0])),
        ("ray-number", "projective-3", lambda d: d["fan"]["rays"].__setitem__(0, 1)),
        ("cone-string", "projective-3", lambda d: d["fan"]["max_cones"].__setitem__(0, ["0", 1])),
        ("dim-bool", "projective-3", lambda d: d["fan"].__setitem__("dim", True)),
        ("name-list", "projective-3", lambda d: d.__setitem__("name", ["a", 1])),
        ("name-number", "projective-3", lambda d: d.__setitem__("name", 5)),
        ("expected_fail-bool", "hirzebruch-3", lambda d: d.__setitem__("expected_fail", True)),
        ("schema_version-bool", "projective-3", lambda d: d.__setitem__("schema_version", True)),
        ("schema_version-float", "projective-3", lambda d: d.__setitem__("schema_version", 1.0)),
        # a misspelt key would otherwise drop what it sets without a word
        ("zero_set-typo", "bundle-p2", lambda d: d.__setitem__("zero_set", d.pop("zero_sets"))),
        ("option-typo", "projective-3", lambda d: d.__setitem__("option", {"sample_count": 9})),
        ("fan-typo", "projective-3", lambda d: d["fan"].__setitem__("max_cone", [[0, 1]])),
    ]

    @pytest.mark.parametrize("name, fixture, mutate", CASES, ids=[c[0] for c in CASES])
    def test_malformed_field_exits_2(self, capsys, tmp_path, name, fixture, mutate):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_mutated(fixture, mutate)))
        code, out, err = run_cli(capsys, "report", "--input", str(path), "--json-only")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert name.split("-")[0] in err  # the message names the field

    @pytest.mark.parametrize(
        "entry",
        [
            [0.5] * 20_000,
            functools.reduce(lambda x, _: [x], range(980), []),
            [10**5000, 0.5],
        ],
        ids=["20000-floats", "nested-980", "5000-digits"],
    )
    def test_echo_of_a_bad_value_is_short(self, entry):
        """The message names the field and cuts the value it echoes (the
        CLI prints it after "error: "); the full repr of these entries runs
        to about 100,000 and 2,000 characters, or, for an int past the
        interpreter's digit limit, raises ``ValueError``."""
        doc = _mutated("projective-3", lambda d: d["fan"]["rays"].__setitem__(0, entry))
        with pytest.raises(InputSchemaError) as caught:
            report.parse_run_config(doc)
        message = str(caught.value)
        assert message.startswith("fan: rays entry [")
        assert message.endswith(" must be a list of integers")
        assert len(message) < 100

    def test_integer_options_are_kept(self):
        doc = _mutated(
            "projective-3",
            lambda d: d.__setitem__(
                "options",
                {
                    "sample_seed": -4,
                    "max_degree_a": 0,
                },
            ),
        )
        config = report.parse_run_config(doc)
        assert config.max_degree_a == 0
        assert not hasattr(config, "sample_seed")

    @pytest.mark.parametrize("value", [10**5000, 2**63], ids=["5000-digits", "2**63"])
    @pytest.mark.parametrize(
        "key, bound",
        [
            ("sample_seed", 2**63 - 1),
            ("max_degree_a", 2**63 - 1),
        ],
        ids=["sample_seed", "max_degree_a"],
    )
    def test_integer_option_past_its_bound(self, key, bound, value):
        """In-process, where no JSON parser stops an integer past the
        interpreter's digit limit, the refusal names the option and its
        bound; a value that ``str()`` cannot print is named by its bit
        length."""
        doc = _mutated("projective-3", _set_option(key, value))
        with pytest.raises(InputSchemaError) as caught:
            report.parse_run_config(doc)
        message = str(caught.value)
        assert message.startswith(f"option {key!r} must be <= {bound}, got ")
        shown = "<int of 16610 bits>" if value > 2**63 else str(value)
        assert message.endswith(f"got {shown}")

    def test_seed_below_its_bound(self):
        doc = _mutated("projective-3", _set_option("sample_seed", -(2**63) - 1))
        with pytest.raises(InputSchemaError, match=f"must be >= {-(2**63)}, got "):
            report.parse_run_config(doc)

    def test_unprintable_schema_version(self):
        doc = _mutated("projective-3", lambda d: d.__setitem__("schema_version", 10**5000))
        with pytest.raises(InputSchemaError, match="^unsupported schema_version <int of 16610 bits>$"):
            report.parse_run_config(doc)

    def test_seed_past_64_bits_exits_2(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_mutated("projective-3", _set_option("sample_seed", 2**63))))
        code, out, err = run_cli(capsys, "report", "--input", str(path), "--json-only")
        assert (code, out) == (2, "")
        assert err == (
            f"error: option 'sample_seed' must be <= {2**63 - 1}, got {2**63}\n"
        )

    def test_null_max_degree_a_means_no_cap(self):
        doc = _mutated("bundle-p6", _set_option("max_degree_a", None))
        assert report.parse_run_config(doc).max_degree_a is None

    def test_declared_zero_sets_and_stated_degrees_are_kept(self):
        fx = get_fixture("bundle-p2")
        doc = fx.to_input_document()
        doc["stated_degrees"] = [list(d) for d in fx.stated_degrees]
        doc["stated_beta"] = list(fx.stated_beta)
        config = report.parse_run_config(doc)
        assert config.zero_sets == (("y1", "y2"), ("x0", "x1", "x2"))
        assert config.stated_degrees == fx.stated_degrees
        assert config.stated_beta == (2, 2)

    @pytest.mark.parametrize(
        "beta, match", [((2, 2), True), ((2, 3), False)], ids=["stated", "off-by-one"]
    )
    def test_stated_beta_must_be_the_image_of_beta(
        self, capsys, tmp_path, beta, match
    ):
        """The stated degrees of bundle-p2 match through a unimodular T; a
        stated beta off by one from T . beta makes the match fail."""
        fx = get_fixture("bundle-p2")
        doc = fx.to_input_document()
        doc["stated_degrees"] = [list(d) for d in fx.stated_degrees]
        doc["stated_beta"] = list(beta)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_json(capsys, "validate", "--input", str(path), "--json-only")
        assert code == 0
        assert out["stated_degrees"]["unimodular_transform"] is not None
        assert out["stated_degrees"]["match"] is match

    def test_negative_cli_degree_cap_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "dims", "--fixture", "projective-3", "--max-degree-a", "-3", "--json-only"
        )
        assert code == 2
        assert "max_degree_a" in err


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone: every write raises."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    """``lgfrob report ... | head`` closes stdout before the report is
    written; the command must still end with the report's exit code."""

    @pytest.mark.parametrize(
        "name, want", [("projective-3", 0), ("degenerate-cube", 4)]
    )
    def test_returns_the_exit_code(self, monkeypatch, capsys, name, want):
        monkeypatch.setattr(sys, "stdout", _ClosedStdout())
        assert main(["report", "--fixture", name, "--json-only"]) == want

    def test_fixture_document(self, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _ClosedStdout())
        assert main(["fixture", "bundle-p6"]) == 0

    def test_summary_still_reaches_stderr(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdout", _ClosedStdout())
        assert main(["report", "--fixture", "projective-3"]) == 0
        assert "certificates: all pass" in capsys.readouterr().err
