"""Golden reports: ``lgfrob report --fixture X --json-only`` must stay byte
identical for every built-in fixture, and so must ``validate``, ``dims`` and
``gram`` (``tests/golden/<command>/X.json``).  README.md (Testing) gives the
command that regenerates ``tests/golden/``."""

import io
from pathlib import Path

import pytest

from lgfrob import jacobian
from lgfrob.cli import main
from lgfrob.fixtures import fixture_names

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = ("validate", "dims", "gram")


def test_every_fixture_has_a_golden_report():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(fixture_names())


@pytest.mark.parametrize("command", COMMANDS)
def test_every_fixture_has_a_golden_per_command(command):
    got = sorted(p.stem for p in (GOLDEN / command).glob("*.json"))
    assert got == sorted(fixture_names())


@pytest.mark.parametrize("name", fixture_names())
def test_report_matches_golden(capsys, name):
    main(["report", "--fixture", name, "--json-only"])
    want = (GOLDEN / f"{name}.json").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == want


@pytest.mark.parametrize("name", fixture_names())
@pytest.mark.parametrize("command", COMMANDS)
def test_command_matches_golden(capsys, command, name):
    main([command, "--fixture", name, "--json-only"])
    want = (GOLDEN / command / f"{name}.json").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == want


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_document_through_stdin_matches_golden(capsys, monkeypatch, name):
    """``lgfrob fixture X | lgfrob report --input - --json-only`` prints the
    golden report: the document carries everything --fixture reads."""
    main(["fixture", name])
    document = capsys.readouterr().out.encode()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(document)))
    main(["report", "--input", "-", "--json-only"])
    want = (GOLDEN / f"{name}.json").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == want


def _without_prefilter(monkeypatch):
    """No block is certified or lifted mod p: each one of more than one
    column is eliminated exactly on every row."""
    monkeypatch.setattr(jacobian, "_block_kernel", lambda rows, cols: None)


# The structural pass takes every relation row of the quintic's pieces, so no
# block is left and its report never reaches the modular certificate; it is
# left out here for its running time.
@pytest.mark.parametrize(
    "name", [n for n in fixture_names() if n != "projective-5"]
)
def test_report_without_modular_certificate_matches_golden(capsys, monkeypatch, name):
    """The mod-p block certificate only saves work: with it switched off
    every block is eliminated exactly and the report is the same."""
    _without_prefilter(monkeypatch)
    main(["report", "--fixture", name, "--json-only"])
    want = (GOLDEN / f"{name}.json").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == want


# validate runs no Jacobian work, so only dims and gram can see the prefilter
@pytest.mark.parametrize(
    "name", [n for n in fixture_names() if n != "projective-5"]
)
@pytest.mark.parametrize("command", ["dims", "gram"])
def test_command_without_modular_certificate_matches_golden(
    capsys, monkeypatch, command, name
):
    _without_prefilter(monkeypatch)
    main([command, "--fixture", name, "--json-only"])
    want = (GOLDEN / command / f"{name}.json").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == want


# Outside the per-command globs above: one capped run beyond the fixtures'
# default degree range: dims [1, 5586, 134995].
def test_capped_bundle_p6_dims_matches_golden(capsys):
    main(["dims", "--fixture", "bundle-p6", "--max-degree-a", "2", "--json-only"])
    want = (GOLDEN / "capped" / "dims-bundle-p6-a2.json").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == want
