"""Golden reports: ``lgfrob report --fixture X --json-only`` must stay byte
identical for every built-in fixture.  README.md (Testing) gives the command
that regenerates ``tests/golden/``."""

from pathlib import Path

import pytest

from lgfrob.cli import main
from lgfrob.fixtures import fixture_names

GOLDEN = Path(__file__).parent / "golden"


def test_every_fixture_has_a_golden_report():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(fixture_names())


@pytest.mark.parametrize("name", fixture_names())
def test_report_matches_golden(capsys, name):
    main(["report", "--fixture", name, "--json-only"])
    want = (GOLDEN / f"{name}.json").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == want
