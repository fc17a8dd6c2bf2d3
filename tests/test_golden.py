"""Golden-file tests pinning the CLI JSON schema and the worked example.

Comparison is structural: identical keys and exact values, except floats,
which match within a relative 1e-6 or an absolute 1e-11, whichever is
looser. The printed values are already rounded to 9 significant digits. The
relative part absorbs last-digit drift in ordinary values; the absolute part
absorbs the drift of a margin of a few 1e-8, such as eq6's, which is the
difference of two nearby figures. A margin that is lost or doubled still
fails.
"""

import json
from pathlib import Path

import pytest

from loopspec.cli import main

GOLDEN = Path(__file__).parent / "golden"
WORKED = "2 2\n1 1\n1 2\n"


def assert_same_shape(got, want, path="$"):
    if isinstance(want, float) and isinstance(got, (int, float)):
        assert got == pytest.approx(want, rel=1e-6, abs=1e-11), path
        return
    assert type(got) is type(want), f"{path}: {type(got)} != {type(want)}"
    if isinstance(want, dict):
        assert set(got) == set(want), f"{path}: keys {set(got)} != {set(want)}"
        for key in want:
            assert_same_shape(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_shape(g, w, f"{path}[{i}]")
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


def load_golden(name):
    return json.loads((GOLDEN / name).read_text())


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.el"
    path.write_text(WORKED)
    return str(path)


def cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_analyze_schema(worked_file, capsys):
    code, doc = cli_json(capsys, "analyze", worked_file, "--format", "json")
    assert code == 0
    assert_same_shape(doc, load_golden("analyze_worked.json"))


def test_verify_schema(worked_file, capsys):
    code, doc = cli_json(capsys, "verify", worked_file)
    assert code == 0
    assert_same_shape(doc, load_golden("verify_worked.json"))


def test_lift_schema_and_edge_list(worked_file, tmp_path, capsys):
    out_path = tmp_path / "lifted.el"
    code, doc = cli_json(capsys, "lift", worked_file, str(out_path))
    assert code == 0
    doc.pop("out")  # the output path is not stable across runs
    assert_same_shape(doc, load_golden("lift_worked.json"))
    assert out_path.read_text() == (GOLDEN / "lift_worked.el").read_text()


def test_sweep_schema(capsys):
    code, doc = cli_json(capsys, "sweep", "--mode", "exhaustive", "--n-max", "2")
    assert code == 0
    assert_same_shape(doc, load_golden("sweep_exhaustive_n2.json"))


@pytest.mark.parametrize("raw", ["banana", "1e-300"])
def test_the_environment_does_not_steer_verify_or_sweep(worked_file, capsys, monkeypatch, raw):
    # MATCH_TOL is a constant: neither a junk value nor a tiny one may change a report
    monkeypatch.setenv("LOOPSPEC_TOL", raw)
    code, doc = cli_json(capsys, "verify", worked_file)
    assert code == 0
    assert_same_shape(doc, load_golden("verify_worked.json"))
    code, doc = cli_json(capsys, "sweep", "--mode", "exhaustive", "--n-max", "2")
    assert code == 0
    assert_same_shape(doc, load_golden("sweep_exhaustive_n2.json"))
