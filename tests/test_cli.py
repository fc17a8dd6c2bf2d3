import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopspec import (
    GeneratorConfig,
    cli,
    enumerate_graphs,
    random_graph,
    read_edge_list,
    verify_all,
)
import loopspec.spectral as spectral
from loopspec.cli import main, run_sweep
from loopspec.oracle import MAX_ENUM_VERTICES
from builders import (
    SWEEP_SEED,
    misrouted_spoke,
    reference_campaign_configs,
    reference_round9,
)

WORKED = "2 2\n1 1\n1 2\n"


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.el"
    path.write_text(WORKED)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text(worked_file, capsys):
    code, out, _ = run_cli(capsys, "analyze", worked_file)
    assert code == 0
    assert "n: 2" in out
    assert "loops: 1" in out
    assert "pseudo-connected: yes" in out
    assert "eigenvalues: 0.381966011 2.61803399" in out
    assert "eq8: 2.61803399 <= 3" in out


def test_analyze_json(worked_file, capsys):
    code, out, _ = run_cli(capsys, "analyze", worked_file, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2
    assert doc["q"] == 1
    assert doc["laplacian"] == [[2, -1], [-1, 1]]
    assert doc["eigenvalues"] == pytest.approx([0.381966011, 2.618033989], abs=1e-8)
    assert doc["algebraic_connectivity"] is None
    assert [b["id"] for b in doc["bounds"]] == ["eq8"]


def test_analyze_loopless_has_connectivity_and_eq2(tmp_path, capsys):
    path = tmp_path / "p3.el"
    path.write_text("3 2\n1 2\n2 3\n")
    code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["algebraic_connectivity"] == pytest.approx(1.0)
    assert [b["id"] for b in doc["bounds"]] == ["eq2", "eq3"]


def test_analyze_edgeless_two_vertices(tmp_path, capsys):
    path = tmp_path / "e2.el"
    path.write_text("2 0\n")
    code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["eigenvalues"] == [0.0, 0.0]


def test_analyze_malformed_line_names_it(tmp_path, capsys):
    path = tmp_path / "bad.el"
    path.write_text("2 1\n1 x\n")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("command", ["verify", "analyze"])
def test_undecodable_file_is_exit_2_and_named(tmp_path, capsys, command):
    # a byte that is not UTF-8 leaves the numpy route, and the line loop's
    # decoding error names the file, as a grammar error does
    path = tmp_path / "latin1.el"
    path.write_bytes(b"# caf\xe9\n2 2\n1 1\n1 2\n")
    try:
        path.read_text()
    except UnicodeDecodeError as exc:
        expected = f"error: {path}: {exc}\n"
    else:
        pytest.skip("the locale encoding decodes every byte")
    assert run_cli(capsys, command, str(path)) == (2, "", expected)


def test_missing_file_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "/nonexistent/g.el")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("command", ["verify", "analyze"])
def test_unallocatable_order_is_exit_2(tmp_path, capsys, command):
    # A dense order-1e9 matrix needs 6.94 EiB, which no allocator grants.
    path = tmp_path / "huge.el"
    path.write_text("1000000000 0\n")
    code, _, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert err.startswith("error:")


class _Reached(MemoryError):
    """Raised by a stand-in for the first dense step past the order guard."""


def _reached(*args, **kwargs):
    raise _Reached("reached the dense step")


@pytest.mark.parametrize(
    "command, n, refused",
    [
        ("analyze", cli.MAX_DENSE_ORDER, False),
        ("analyze", cli.MAX_DENSE_ORDER + 1, True),
        # verify builds the lifted order 2n + 1
        ("verify", (cli.MAX_DENSE_ORDER - 1) // 2, False),
        ("verify", (cli.MAX_DENSE_ORDER - 1) // 2 + 1, True),
    ],
)
def test_dense_order_cap_is_checked_before_allocation(
    tmp_path, capsys, monkeypatch, command, n, refused
):
    # The dense steps are stand-ins, so neither side of the cap allocates.
    monkeypatch.setattr(spectral, "laplacian_of", _reached)
    path = tmp_path / "header.el"
    path.write_text(f"{n} 0\n")
    code, _, err = run_cli(capsys, command, str(path))
    assert code == 2
    order = n if command == "analyze" else 2 * n + 1
    if refused:
        assert f"dense order {order} exceeds MAX_DENSE_ORDER" in err
    else:
        assert order <= cli.MAX_DENSE_ORDER
        assert "reached the dense step" in err


@pytest.mark.parametrize(
    "n_max, refused",
    [((cli.MAX_DENSE_ORDER - 1) // 2, False), ((cli.MAX_DENSE_ORDER - 1) // 2 + 1, True)],
)
def test_sweep_refuses_an_n_max_above_the_dense_order_cap(capsys, n_max, refused):
    code, _, err = run_cli(capsys, "sweep", "--n-max", str(n_max), "--samples", "0")
    if refused:
        assert code == 2
        assert f"dense order {2 * n_max + 1} exceeds MAX_DENSE_ORDER" in err
    else:
        assert code == 0


def test_lift_writes_five_path(worked_file, tmp_path, capsys):
    out_path = tmp_path / "lifted.el"
    code, out, _ = run_cli(capsys, "lift", worked_file, str(out_path))
    assert code == 0
    assert out_path.read_text() == "5 4\n1 2\n1 3\n3 4\n4 5\n"
    doc = json.loads(out)
    assert doc["lifted_n"] == 5
    assert doc["middle"] == 3
    assert doc["lifted_edges"] == 4
    assert "note" not in doc


def test_lift_loopless_notes_isolated_middle(tmp_path, capsys):
    path = tmp_path / "p2.el"
    path.write_text("2 1\n1 2\n")
    out_path = tmp_path / "lifted.el"
    code, out, _ = run_cli(capsys, "lift", str(path), str(out_path))
    assert code == 0
    assert "isolated" in json.loads(out)["note"]


def test_verify_worked_example(worked_file, capsys):
    code, out, _ = run_cli(capsys, "verify", worked_file)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"graph", "checks", "tolerances"}
    assert [c["id"] for c in doc["checks"]] == [
        "eq8",
        "lemma1",
        "eq6",
        "eq7",
        "lift-eigvec",
    ]
    assert all(c["pass"] for c in doc["checks"])


def test_verify_matches_library_report(worked_file, capsys):
    """The CLI is a thin adapter: same report as calling the library."""
    code, out, _ = run_cli(capsys, "verify", worked_file)
    assert code == 0
    cli_doc = json.loads(out)
    lib_doc = verify_all(read_edge_list(worked_file)).to_json_dict()
    assert [c["id"] for c in cli_doc["checks"]] == [c["id"] for c in lib_doc["checks"]]
    for got, want in zip(cli_doc["checks"], lib_doc["checks"]):
        assert got["pass"] == want["pass"]
        assert got["margin"] == pytest.approx(want["margin"], abs=1e-8)


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_verify_prints_a_failed_certificate_as_null_margins(worked_file, capsys, monkeypatch):
    # Without the mirror certificate the lifted margins are -inf, which
    # strict JSON carries as null.
    monkeypatch.setattr(spectral, "lift", misrouted_spoke)
    code, out, _ = run_cli(capsys, "verify", worked_file)
    assert code == 1
    checks = {c["id"]: c for c in json.loads(out, parse_constant=_reject_constant)["checks"]}
    for cid in ("eq6", "eq7", "lift-eigvec"):
        assert checks[cid] == {"id": cid, "pass": False, "margin": None}
    for cid in ("eq8", "lemma1"):
        assert checks[cid]["pass"], checks[cid]


def test_tiny_match_tol_verify_failure_path(worked_file, capsys, monkeypatch):
    monkeypatch.setattr(spectral, "MATCH_TOL", 1e-300)
    code, out, _ = run_cli(capsys, "verify", worked_file)
    assert code == 1
    doc = json.loads(out, parse_constant=_reject_constant)
    failed = [c["id"] for c in doc["checks"] if not c["pass"]]
    assert "eq6" in failed
    # eq7 is decided from the lifted spectrum on its own: the lifted
    # eigenvalue nearest the smallest base eigenvalue is still positive
    (eq7,) = [c for c in doc["checks"] if c["id"] == "eq7"]
    assert eq7["pass"] and eq7["margin"] > 0


def test_generate_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.el"
    b = tmp_path / "b.el"
    for out in (a, b):
        code, _, _ = run_cli(
            capsys,
            "generate",
            "--n", "6",
            "--p-edge", "0.5",
            "--p-loop", "0.4",
            "--seed", "42",
            "--out", str(out),
        )
        assert code == 0
    assert a.read_text() == b.read_text()


def test_generate_respects_constraint(tmp_path, capsys):
    out = tmp_path / "g.el"
    code, stdout, _ = run_cli(
        capsys,
        "generate",
        "--n", "5",
        "--p-edge", "0.3",
        "--p-loop", "0.3",
        "--seed", "7",
        "--require", "pseudo_connected",
        "--out", str(out),
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["config"]["require"] == "pseudo_connected"
    g = read_edge_list(out)
    assert g.loop_count >= 1


def test_generate_unsatisfiable_is_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "generate",
        "--n", "2",
        "--p-edge", "0",
        "--p-loop", "0",
        "--seed", "1",
        "--require", "pseudo_connected",
        "--out", str(tmp_path / "never.el"),
    )
    assert code == 2
    assert "pseudo_connected" in err


def test_generate_bad_probability_is_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "generate",
        "--n", "2",
        "--p-edge", "1.5",
        "--p-loop", "0",
        "--seed", "1",
        "--out", str(tmp_path / "never.el"),
    )
    assert code == 2
    assert "p_edge" in err


def test_sweep_exhaustive_small(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--mode", "exhaustive", "--n-max", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 74
    assert doc["passed"] == 74
    assert doc["failures"] == []


def test_sweep_exhaustive_cap(capsys):
    code, _, err = run_cli(capsys, "sweep", "--mode", "exhaustive", "--n-max", "6")
    assert code == 2
    assert "capped" in err


def test_run_sweep_checks_exhaustive_cap_before_verifying(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("verified a graph before checking the cap")

    monkeypatch.setattr(cli, "verify_all", fail)
    with pytest.raises(ValueError, match="capped"):
        run_sweep("exhaustive", n_max=MAX_ENUM_VERTICES + 1)


@pytest.mark.parametrize("mode", ["Exhaustive", "", "exhastive"])
def test_run_sweep_refuses_an_unknown_mode(monkeypatch, mode):
    def fail(*args, **kwargs):
        raise AssertionError("drew a graph before checking the mode")

    monkeypatch.setattr(cli, "enumerate_graphs", fail)
    monkeypatch.setattr(cli, "random_graph", fail)
    with pytest.raises(ValueError, match="mode must be 'exhaustive' or 'random'"):
        run_sweep(mode, n_max=3, samples=5)


def test_passing_random_sweep_builds_no_witness(monkeypatch):
    calls = []
    to_json_dict = GeneratorConfig.to_json_dict

    def counted(cfg):
        calls.append(cfg)
        return to_json_dict(cfg)

    monkeypatch.setattr(GeneratorConfig, "to_json_dict", counted)
    result = run_sweep("random", n_max=6, samples=50, seed=1)
    assert (result.total, result.passed, result.failures) == (50, 50, ())
    assert calls == []


@pytest.mark.parametrize(
    "seed, samples, n_min, n_max, p_edge, p_loop",
    [(SWEEP_SEED, 1000, 2, 12, 0.4, 0.3), (7, 60, 5, 9, 0.2, 0.6)],
)
def test_random_campaign_draws_child_seeds_then_sizes(seed, samples, n_min, n_max, p_edge, p_loop):
    # criterion 3's graphs, and the graph each documented --seed names,
    # follow from this order of draws
    campaign = cli._campaign("random", n_max, samples, seed, n_min, p_edge, p_loop)
    witnesses = [witness() for _, witness in campaign]
    configs = reference_campaign_configs(seed, samples, n_min, n_max, p_edge, p_loop)
    assert witnesses == [{"sample": i, "config": c.to_json_dict()} for i, c in enumerate(configs)]


def _expected_failure(witness: dict, g) -> dict:
    failed = verify_all(g).failed_checks()
    return {
        **witness,
        "failed_checks": [c.id for c in failed],
        "margins": {c.id: c.margin for c in failed},
    }


def test_failing_sweep_records_keep_their_content_and_key_order(monkeypatch):
    # a MATCH_TOL of 1e-300 fails every check whose residual is not exactly 0
    monkeypatch.setattr(spectral, "MATCH_TOL", 1e-300)
    sampled = run_sweep("random", n_max=5, samples=12, seed=2)
    assert sampled.failures and sampled.passed
    for f in sampled.failures:
        cfg = GeneratorConfig(**f["config"])
        witness = {"sample": f["sample"], "config": asdict(cfg)}
        want = _expected_failure(witness, random_graph(cfg))
        assert list(f.items()) == list(want.items())
    exhaustive = run_sweep("exhaustive", n_max=2)
    assert exhaustive.failures and exhaustive.passed
    graphs = {(n, i): g for n in (1, 2) for i, g in enumerate(enumerate_graphs(n))}
    for f in exhaustive.failures:
        witness = {"n": f["n"], "index": f["index"]}
        want = _expected_failure(witness, graphs[f["n"], f["index"]])
        assert list(f.items()) == list(want.items())


def test_sweep_zero_samples(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--mode", "random", "--n-max", "4", "--samples", "0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 0 and doc["passed"] == 0


def test_sweep_random_small(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--mode", "random",
        "--n-max", "6",
        "--n-min", "2",
        "--samples", "20",
        "--seed", "11",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 20
    assert doc["passed"] + len(doc["failures"]) == doc["total"]


def test_sweep_bad_range(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("verified a graph before checking the range")

    monkeypatch.setattr(cli, "verify_all", fail)
    for args, named in [
        (("--mode", "random", "--n-max", "3", "--n-min", "9"), "n-min"),
        (("--mode", "random", "--n-max", "3", "--n-min", "-2", "--samples", "5"), "n-min"),
        (("--mode", "random", "--n-max", "3", "--n-min", "0", "--samples", "50"), "n-min"),
        (("--mode", "random", "--n-max", "3", "--samples", "-3"), "samples"),
        (("--mode", "random", "--n-max", "3", "--samples", "0", "--p-edge", "7"), "p_edge"),
        (("--mode", "random", "--n-max", "3", "--samples", "5", "--p-loop", "-0.5"), "p_loop"),
        (("--mode", "exhaustive", "--n-max", "0"), "n-max"),
        (("--mode", "exhaustive", "--n-max", "-5"), "n-max"),
    ]:
        code, _, err = run_cli(capsys, "sweep", *args)
        assert code == 2, args
        assert named in err, (args, err)


def test_exhaustive_sweep_ignores_n_min(capsys):
    # --n-min is a random-mode option; its default 2 must not reject n-max 1
    code, out, _ = run_cli(capsys, "sweep", "--mode", "exhaustive", "--n-max", "1")
    assert code == 0
    assert json.loads(out)["total"] == 2


def test_sweep_records_solver_errors_and_goes_on(monkeypatch):
    # An eigh that fails on any matrix with a nonzero off-diagonal entry lets
    # through only graphs whose Laplacian is diagonal: those without a
    # non-loop edge.
    eigh = np.linalg.eigh

    def failing_off_diagonal(m):
        if np.any(m[~np.eye(len(m), dtype=bool)]):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", failing_off_diagonal)

    def has_nonloop_edge(g):
        return any(i != j for i, j in g.edges)

    exhaustive = run_sweep("exhaustive", n_max=2)
    assert (exhaustive.total, exhaustive.passed) == (2 + 8, 6)
    errored = {(f["n"], f["index"]) for f in exhaustive.failures}
    assert errored == {
        (n, i) for n in (1, 2) for i, g in enumerate(enumerate_graphs(n)) if has_nonloop_edge(g)
    }
    for f in exhaustive.failures:
        assert "did not converge" in f["error"] and "failed_checks" not in f

    sampled = run_sweep("random", n_max=4, samples=8, seed=5)
    assert sampled.total == 8 and sampled.failures
    assert sampled.passed + len(sampled.failures) == sampled.total
    for f in sampled.failures:
        assert has_nonloop_edge(random_graph(GeneratorConfig(**f["config"])))
        assert "did not converge" in f["error"]
    json.dumps(sampled.to_json_dict(), allow_nan=False)


def test_sweep_records_errors_of_the_lifted_block_solve_and_goes_on(monkeypatch):
    # With no step allowed, the secular equation for lambda_max(S) fails
    # whenever S has a nonzero border, that is on every graph with a loop,
    # and it must fail those graphs only.
    monkeypatch.setattr(spectral, "_SECULAR_STEPS", 0)
    result = run_sweep("exhaustive", n_max=3)
    graphs = [(n, i, g) for n in (1, 2, 3) for i, g in enumerate(enumerate_graphs(n))]
    looped = {(n, i) for n, i, g in graphs if g.loop_count}
    assert result.total == len(graphs) and 0 < len(looped) < len(graphs)
    assert {(f["n"], f["index"]) for f in result.failures} == looped
    for f in result.failures:
        assert "did not converge" in f["error"] and "failed_checks" not in f
    assert result.passed == len(graphs) - len(looped)
    assert result.passed + len(result.failures) == result.total


def test_run_sweep_is_deterministic():
    a = run_sweep(mode="random", n_max=5, samples=15, seed=3)
    b = run_sweep(mode="random", n_max=5, samples=15, seed=3)
    assert a == b


def run_module(*argv):
    """``python -m loopspec.cli`` in a child process that imports the same
    loopspec as this one, installed or not."""
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "loopspec.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_script_round_trip(tmp_path):
    """End-to-end through the real process boundary."""
    path = tmp_path / "worked.el"
    path.write_text(WORKED)
    proc = run_module("verify", str(path))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert all(c["pass"] for c in doc["checks"])


def test_usage_error_exits_2():
    assert run_module("frobnicate").returncode == 2


def test_parser_is_built_once_and_reused(worked_file, capsys):
    # main reuses one parser per process; a usage error in between must not
    # leave state behind that changes a later command's output or exit code
    assert cli._build_parser() is cli._build_parser()
    first = run_cli(capsys, "verify", worked_file)
    with pytest.raises(SystemExit) as usage:
        main(["verify"])
    assert usage.value.code == 2
    assert "path" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "analyze", "--format", "json", worked_file)
    assert code == 0 and json.loads(out)["n"] == 2
    second = run_cli(capsys, "verify", worked_file)
    assert first == second
    assert first[0] == 0 and json.loads(first[1])["graph"]["q"] == 1


@st.composite
def edge_list_texts(draw):
    """A header for at most 8 vertices, then distinct edges in either
    orientation mixed with duplicate, out-of-range, comment, blank and junk
    lines; the declared edge count is right or arbitrary."""
    n = draw(st.integers(min_value=1, max_value=8))
    pair = st.tuples(st.integers(1, n), st.integers(1, n))
    lines = [f"{i} {j}" for i, j in draw(st.lists(pair, max_size=12, unique_by=frozenset))]
    noise = st.one_of(
        st.sampled_from(lines or ["1 1"]),
        st.tuples(st.integers(-2, 10), st.integers(-2, 10)).map(lambda p: f"{p[0]} {p[1]}"),
        st.sampled_from(["# comment", "", "   ", "1", "1 2 3", "x y"]),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
    )
    declared = len(lines) if draw(st.booleans()) else draw(st.integers(0, 12))
    lines += draw(st.lists(noise, max_size=2))
    return "\n".join([f"{n} {declared}", *draw(st.permutations(lines))]) + "\n"


@settings(max_examples=60, deadline=None)
@given(edge_list_texts(), st.sampled_from([1e-8, 1e-20, 1e-300]))
def test_arbitrary_input_exits_cleanly_with_strict_json(text, tol):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(spectral, "MATCH_TOL", tol):
        path = Path(tmp) / "g.el"
        path.write_text(text, encoding="utf-8")
        for argv in (["verify", str(path)], ["analyze", str(path), "--format", "json"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2), (argv, code)
            if code != 2:
                json.loads(out.getvalue(), parse_constant=_reject_constant)


# Floats near the cut the writer makes (9 significant digits) and near the
# one repr makes (exponent form from 1e16 on), with every special value.
_EDGE_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
    1e16, -1e16, 9999999999999998.0, 1e16 + 2.0, 1e20, 1234567890.0, 999999999.5,
    123456789.0, 0.1, 1 / 3, 0.30000000000000004, 1.7976931348623157e308,
]


def _digits(k: int) -> st.SearchStrategy:
    """Floats with ``k`` significant digits at decimal exponents -30..30."""
    mantissa = st.integers(10 ** (k - 1), 10**k - 1)
    return st.builds(lambda m, e, s: s * float(f"{m}e{e}"), mantissa, st.integers(-30, 30),
                     st.sampled_from([1, -1]))


json_leaves = st.one_of(
    st.floats(),
    st.sampled_from(_EDGE_FLOATS),
    _digits(9),
    _digits(17),
    st.floats(min_value=9.9e15, max_value=1.01e16),
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.booleans(),
    st.none(),
    st.text(),
    st.text(st.characters(max_codepoint=0x1F)),
)
json_payloads = st.recursive(
    json_leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), kids, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(json_payloads)
def test_json_text_equals_json_dumps_of_the_frozen_rounding(payload):
    want = json.dumps(reference_round9(payload), indent=2, allow_nan=False)
    assert cli._json_text(payload) == want


_UNWRITABLE = {
    "set": {1, 2},
    "frozenset": frozenset(),
    "numpy-int64": np.int64(3),
    "numpy-float32": np.float32(0.5),
    "numpy-bool": np.bool_(True),
    "complex": 1j,
    "bytes": b"x",
    "object-in-a-list": [object()],
    "int-key": {1: "a"},
    "none-key": {None: "a"},
    "float-key": {1.5: "a"},
    "bool-key": {True: "a"},
    "tuple-key": {("a",): "a"},
    "bytes-key": {b"a": "a"},
}


@pytest.mark.parametrize("bad", _UNWRITABLE.values(), ids=_UNWRITABLE.keys())
def test_json_text_refuses_what_strict_json_cannot_carry(bad):
    # json.dumps would write int, float, bool and None keys as strings; no
    # payload has one, so the writer refuses them with every other type
    with pytest.raises(TypeError):
        cli._json_text({"payload": bad})


def _assert_json_dumps_layout(out: str) -> None:
    """``out`` is strict JSON, laid out as ``json.dumps(..., indent=2)`` and
    ``print`` lay out what it parses to."""
    assert out == json.dumps(json.loads(out, parse_constant=_reject_constant), indent=2) + "\n"


def test_every_json_command_prints_the_layout_of_json_dumps(
    worked_file, tmp_path, capsys, monkeypatch
):
    """The printed layout, pinned apart from the writer that makes it."""
    generated = str(tmp_path / "g.el")
    passing = [
        ["analyze", worked_file, "--format", "json"],
        ["lift", worked_file, str(tmp_path / "lifted.el")],
        ["verify", worked_file],
        ["generate", "--n", "12", "--p-edge", "0.3", "--p-loop", "0.3", "--seed", "4",
         "--out", generated],
        ["analyze", generated, "--format", "json"],
        ["lift", generated, str(tmp_path / "lifted_g.el")],
        ["sweep", "--mode", "exhaustive", "--n-max", "2"],
        ["sweep", "--n-max", "6", "--samples", "10", "--seed", "3"],
    ]
    for argv in passing:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        _assert_json_dumps_layout(out)
    # a failed certificate prints its -inf margins as null
    with monkeypatch.context() as m:
        m.setattr(spectral, "lift", misrouted_spoke)
        code, out, _ = run_cli(capsys, "verify", worked_file)
    assert code == 1 and '"margin": null' in out
    _assert_json_dumps_layout(out)
    # failing checks, and failing sweeps with their records, in both modes
    monkeypatch.setattr(spectral, "MATCH_TOL", 1e-300)
    for argv in (
        ["verify", worked_file],
        ["sweep", "--mode", "exhaustive", "--n-max", "2"],
        ["sweep", "--n-max", "6", "--samples", "10", "--seed", "3"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1, argv
        _assert_json_dumps_layout(out)
