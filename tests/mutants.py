"""Mutation runner: each row of ``MUTANTS`` plants one fault in a fresh
temporary copy of the repository and names the test that must kill it.

Run it from any directory as ``python tests/mutants.py``; pytest does not
collect this file. It first runs the whole suite on an unmutated copy,
since a failing suite would kill every mutant, and then every named test
there, since a name pytest cannot find would fail every run. For each row
it runs ``pytest -x -q <named test>`` on the mutated copy: the row is
killed when that test fails. When the named test passes, it runs the whole
suite on the copy, and the row fails the table either way: as a ``stale
killer`` when the suite fails (another test kills the mutant, so the row
names the wrong one) or as ``survived`` when the suite passes. A run that
takes five times as long as the unmutated suite (two minutes at least)
has hung, and counts as failing. It exits 1 unless every row is killed by
its named test, or when a row's old text does not occur exactly once in
its file. It copies the working tree as it stands, so leave the tree
alone while it runs. Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPECTRAL = "src/loopspec/spectral.py"
GRAPHS = "src/loopspec/graphs.py"
CLI = "src/loopspec/cli.py"
LAPLACIAN = "src/loopspec/laplacian.py"
ORACLE = "src/loopspec/oracle.py"
LIFTING = "src/loopspec/lifting.py"

# (name, id of the test that must kill it, file, exact old text, new text)
MUTANTS = [
    (
        "certificate-without-its-order-check",
        "tests/test_spectral.py::test_mirror_certificate_refuses_every_other_order_without_raising",
        SPECTRAL,
        "    if lap_lift.shape != (2 * n + 1, 2 * n + 1):\n        return False\n",
        "",
    ),
    (
        "certificate-without-the-second-a",
        "tests/test_spectral.py::test_mirror_certificate_equals_the_reference_on_block_matrices",
        SPECTRAL,
        "(lap_lift[n + 1 :, n + 1 :] == lap_lift[:n, :n]).all()\n        and ",
        "",
    ),
    (
        "certificate-without-the-second-b",
        "tests/test_spectral.py::test_mirror_certificate_equals_the_reference_on_block_matrices",
        SPECTRAL,
        "        and (lap_lift[n + 1 :, :n] == lap_lift[:n, n + 1 :]).all()\n",
        "",
    ),
    (
        "certificate-without-the-middle-column",
        "tests/test_spectral.py::test_mirror_certificate_equals_the_reference_on_block_matrices",
        SPECTRAL,
        "        and (lap_lift[n + 1 :, n] == lap_lift[:n, n]).all()\n",
        "",
    ),
    (
        "certificate-without-the-middle-row",
        "tests/test_spectral.py::test_mirror_certificate_equals_the_reference_on_block_matrices",
        SPECTRAL,
        "        and (lap_lift[n, n + 1 :] == lap_lift[n, :n]).all()\n",
        "",
    ),
    (
        "certificate-without-a-minus-b",
        "tests/test_spectral.py::test_mirror_certificate_equals_the_reference_on_block_matrices",
        SPECTRAL,
        "        and (lap_lift[:n, :n] - lap_lift[:n, n + 1 :] == lap).all()\n",
        "",
    ),
    (
        "kahan-gap-without-its-divisor",
        "tests/test_spectral.py::test_lifted_margins_stay_near_the_mirror_basis_residual",
        SPECTRAL,
        "_frobenius(res) / math.sqrt(1.0 - eta) if",
        "_frobenius(res) if",
    ),
    (
        "lift-eigvec-reads-the-mean-column",
        "tests/test_spectral.py::test_lifted_margins_stay_near_the_mirror_basis_residual",
        SPECTRAL,
        "worst_res = float(np.sqrt((res * res).sum(axis=0)).max())",
        "worst_res = float(np.sqrt((res * res).sum(axis=0)).mean())",
    ),
    (
        "eq6-interval-plus-2",
        "tests/test_spectral.py::test_an_injected_fault_fails_its_checks",
        SPECTRAL,
        "interval = bound + 1.0 if loopless else bound",
        "interval = bound + 2.0 if loopless else bound + 1.0",
    ),
    (
        # a looped graph's interval gets the loopless + 1: 2 d(G°) + 2
        "eq6-interval-plus-1-when-looped",
        "tests/test_spectral.py::test_an_injected_fault_fails_its_checks[nonloop-degree-minus-1]",
        SPECTRAL,
        "interval = bound + 1.0 if loopless else bound",
        "interval = bound + 1.0",
    ),
    (
        # a loopless graph's interval loses its + 1: 2 d(G°)
        "eq6-interval-without-the-loopless-plus-1",
        "tests/test_spectral.py::test_an_injected_fault_fails_its_checks[nonloop-degree-minus-1]",
        SPECTRAL,
        "interval = bound + 1.0 if loopless else bound",
        "interval = bound",
    ),
    (
        "degree-bound-plus-1-without-loops",
        "tests/test_acceptance.py::test_criterion_5_bound_tightness_witnesses",
        SPECTRAL,
        "2.0 * census.max_nonloop_degree + (1.0 if census.loops else 0.0)",
        "2.0 * census.max_nonloop_degree + 1.0",
    ),
    (
        "fiedler-bound-over-n-plus-1",
        "tests/test_acceptance.py::test_criterion_5_bound_tightness_witnesses",
        SPECTRAL,
        "math.cos(math.pi / n)",
        "math.cos(math.pi / (n + 1))",
    ),
    (
        "eq2-applies-from-n-3",
        "tests/test_spectral.py::test_report_ids_follow_the_oracles_on_the_campaigns",
        SPECTRAL,
        "loopless and g.n >= 2:",
        "loopless and g.n >= 3:",
    ),
    (
        "lemma1-passes-a-zero-margin",
        "tests/test_spectral.py::test_lemma1_and_eq7_fail_at_a_zero_margin",
        SPECTRAL,
        '{"id": "lemma1", "margin": margin, "pass": margin > 0.0}',
        '{"id": "lemma1", "margin": margin, "pass": margin >= 0.0}',
    ),
    (
        "eq7-passes-a-zero-margin",
        "tests/test_spectral.py::test_lemma1_and_eq7_fail_at_a_zero_margin",
        SPECTRAL,
        '{"id": "eq7", "margin": margin, "pass": margin > 0.0}',
        '{"id": "eq7", "margin": margin, "pass": margin >= 0.0}',
    ),
    (
        "closed-form-rows-owe-the-match-tolerance",
        "tests/test_spectral.py::test_loopless_connected_report_uses_eq2_and_eq3",
        SPECTRAL,
        'row["pass"] = row["margin"] >= -tol_base',
        'row["pass"] = row["margin"] >= tol_base',
    ),
    (
        "match-tol-admits-infinity",
        "tests/test_spectral.py::test_subset_match_tolerance_edges",
        SPECTRAL,
        "if not 0.0 < match_tol < math.inf:",
        "if not 0.0 < match_tol:",
    ),
    (
        "gram-without-its-diagonal",
        "tests/test_spectral.py::test_worked_example_report",
        SPECTRAL,
        "    gram.flat[:: g.n + 1] -= 1.0\n",
        "",
    ),
    (
        "residual-formed-out-of-place",
        "tests/test_spectral.py::test_verify_all_holds_few_float_matrices_of_the_base_order",
        SPECTRAL,
        "    res -= vectors * spec.eigenvalues\n",
        "    res = res - vectors * spec.eigenvalues\n",
    ),
    (
        "verify-all-keeps-its-gram-matrix",
        "tests/test_spectral.py::test_verify_all_holds_few_float_matrices_of_the_base_order",
        SPECTRAL,
        "    del gram  # N^2 floats that nothing reads past eta\n",
        "",
    ),
    (
        # z = sqrt2 V^T c, so each weight z_i^2 carries a factor 2
        "lifted-top-weights-without-the-factor-2",
        "tests/test_spectral.py::test_lifted_tolerance_of_the_worked_example_is_the_closed_form",
        SPECTRAL,
        "(w := 2.0 * y * y)",
        "(w := y * y)",
    ),
    (
        # a K_5 beside a looped path: the root lies below lambda_N = 5
        "lifted-top-without-the-lambda-n-clamp",
        "tests/test_spectral.py::test_lifted_top_is_the_largest_eigenvalue_of_s",
        SPECTRAL,
        "return max(lams[-1], pole + max(t, step))",
        "return pole + max(t, step)",
    ),
    (
        # eigh rounds some copies of a multiple top eigenvalue a few ulps
        # apart; left unmerged, such a pole takes dozens of steps to leave
        "lifted-top-merges-only-bit-equal-poles",
        "tests/test_spectral.py::test_lifted_top_takes_a_handful_of_steps",
        SPECTRAL,
        "if lam >= pole - tol:",
        "if lam >= pole:",
    ),
    (
        "spectral-radius-reads-the-top-end-alone",
        "tests/test_spectral.py::test_spectral_radius_is_the_largest_magnitude_bitwise",
        SPECTRAL,
        "max(abs(float(ev[0])), abs(float(ev[-1])))",
        "abs(float(ev[-1]))",
    ),
    (
        # a loop's vertex would keep both of its endpoint counts
        "laplacian-diagonal-counts-loops-twice",
        "tests/test_laplacian.py::test_worked_example_laplacian",
        LAPLACIAN,
        "np.bincount(e, minlength=n) + lap.diagonal()",
        "np.bincount(e, minlength=n)",
    ),
    (
        "laplacian-dtype-admits-its-maximum",
        "tests/test_laplacian.py::test_the_dtype_rule_at_every_switch",
        LAPLACIAN,
        "if top > n:",
        "if top >= n:",
    ),
    (
        # order 128..32767 would skip int32 and take int64
        "laplacian-ladder-without-int32",
        "tests/test_laplacian.py::test_the_dtype_rule_at_every_switch",
        LAPLACIAN,
        "(np.int8, np.int16, np.int32, np.int64)",
        "(np.int8, np.int16, np.int64)",
    ),
    (
        "laplacian-always-int8",
        "tests/test_laplacian.py::test_the_largest_entry_fits_at_the_int8_boundary",
        LAPLACIAN,
        "dtype=_entry_dtype(n))",
        "dtype=np.int8)",
    ),
    (
        "plain-pattern-reads-19-digit-tokens",
        "tests/test_graphs.py::test_parse_plain_declines_what_the_loop_must_judge",
        GRAPHS,
        '_DIGITS = rb"[0-9]{1,18}+"',
        '_DIGITS = rb"[0-9]{1,19}+"',
    ),
    (
        # a pair could split over two lines
        "plain-pattern-separates-fields-by-newlines",
        "tests/test_graphs.py::test_parse_plain_declines_what_the_loop_must_judge",
        GRAPHS,
        '_DIGITS + rb"[ ]++" + _DIGITS',
        '_DIGITS + rb"[ \\n]++" + _DIGITS',
    ),
    (
        # a line could hold a third token
        "plain-pattern-pads-pairs-with-digits",
        "tests/test_graphs.py::test_parse_plain_declines_what_the_loop_must_judge",
        GRAPHS,
        '_DIGITS + rb"[ ]*+"',
        '_DIGITS + rb"[ 0-9]*+"',
    ),
    (
        "plain-pattern-without-the-header-pair",
        "tests/test_graphs.py::test_parse_plain_declines_what_the_loop_must_judge",
        GRAPHS,
        '[ ]*+" + _PAIR + rb"(?:\\n',
        '[ ]*+(?:" + _PAIR + rb")?+(?:\\n',
    ),
    (
        "plain-kernel-admits-n-0",
        "tests/test_graphs.py::test_parse_plain_declines_what_the_loop_must_judge",
        GRAPHS,
        "if n < 1 or lo.size",
        "if lo.size",
    ),
    (
        "plain-kernel-admits-endpoint-0",
        "tests/test_graphs.py::test_parse_plain_declines_what_the_loop_must_judge",
        GRAPHS,
        " or np.count_nonzero(lo < 1) or",
        " or",
    ),
    (
        "plain-kernel-admits-endpoints-above-n",
        "tests/test_graphs.py::test_parse_plain_declines_what_the_loop_must_judge",
        GRAPHS,
        " or np.count_nonzero(hi > n):",
        ":",
    ),
    (
        "plain-kernel-without-the-token-count",
        "tests/test_graphs.py::test_parse_plain_declines_what_the_loop_must_judge",
        GRAPHS,
        " or lo.size != declared or",
        " or",
    ),
    (
        "plain-kernel-without-the-edge-count",
        "tests/test_graphs.py::test_parse_plain_declines_what_the_loop_must_judge",
        GRAPHS,
        "    if len(edges) != declared:\n        return None\n",
        "",
    ),
    (
        # a file that does not decode would be refused without its name
        "load-names-no-file-on-a-decode-error",
        "tests/test_cli.py::test_undecodable_file_is_exit_2_and_named",
        CLI,
        '    except UnicodeDecodeError as exc:\n        raise ValueError(f"{path}: {exc}") from exc\n',
        "",
    ),
    (
        # a UTF-8 file with a byte that does not decode would be read
        "read-edge-list-decodes-as-latin-1",
        "tests/test_graphs.py::test_read_edge_list_equals_parse_of_read_text",
        GRAPHS,
        "io.TextIOWrapper(io.BytesIO(data))",
        'io.TextIOWrapper(io.BytesIO(data), encoding="latin-1")',
    ),
    (
        # a form feed that pads a line would be stripped, not refused
        "line-loop-strips-all-whitespace",
        "tests/test_graphs.py::test_parse_rejects_separators_outside_the_grammar",
        GRAPHS,
        'line = raw.strip(" \\t")',
        "line = raw.strip()",
    ),
    (
        # U+001C, U+2028 and their kind would end a line
        "line-loop-splits-at-every-line-boundary",
        "tests/test_graphs.py::test_parse_rejects_separators_outside_the_grammar",
        GRAPHS,
        '.replace("\\r", "\\n").split("\\n")',
        '.replace("\\r", "\\n").splitlines()',
    ),
    (
        # a lone \r would no longer end a line
        "line-loop-without-the-cr-line-end",
        "tests/test_graphs.py::test_parse_equals_frozen_line_loop[cr]",
        GRAPHS,
        '.replace("\\r", "\\n")',
        "",
    ),
    (
        # a run of spaces and tabs between two fields would be refused
        "line-loop-keeps-empty-fields",
        "tests/test_graphs.py::test_parse_equals_frozen_line_loop[runs of tabs and spaces]",
        GRAPHS,
        "[f for f in fields if f]",
        "[f for f in fields]",
    ),
    (
        # each BFS would label its start vertex alone
        "components-bfs-without-reach",
        "tests/test_graphs.py::test_components_worked_cases",
        GRAPHS,
        "                    queue.append(w)\n",
        "",
    ),
    (
        # the labels would be numbered by last visit
        "components-numbered-from-the-last-vertex",
        "tests/test_graphs.py::test_components_worked_cases",
        GRAPHS,
        "range(1, g.n + 1)",
        "range(g.n, 0, -1)",
    ),
    (
        # a loop's vertex lists itself as a neighbour, so d(G°) counts loops
        "census-counts-loops-into-the-degree",
        "tests/test_graphs.py::test_census_equals_the_frozen_helpers",
        GRAPHS,
        "            looped.append(i)\n",
        "            looped.append(i)\n            adj[i].append(i)\n",
    ),
    (
        "census-lets-one-loopless-component-through",
        "tests/test_graphs.py::test_census_equals_the_frozen_helpers",
        GRAPHS,
        "len({labels[v] for v in looped}) == count",
        "len({labels[v] for v in looped}) >= count - 1",
    ),
    (
        "census-loop-count-off-by-one",
        "tests/test_graphs.py::test_census_equals_the_frozen_helpers",
        GRAPHS,
        "len(looped))",
        "len(looped) + 1)",
    ),
    (
        "random-graph-appends-reversed-pairs",
        "tests/test_oracle.py::test_random_graph_equals_frozen_reference_on_criterion_3_configs",
        ORACLE,
        "edges.append((i, k - starts[i - 1] + i + 1))",
        "edges.append((k - starts[i - 1] + i + 1, i))",
    ),
    (
        "charpoly-shifts-m-in-place",
        "tests/test_oracle.py::test_charpoly_equals_frozen_nested_sum_reference_on_criterion_6",
        ORACLE,
        "    work = a.copy()\n",
        "    work = a\n",
    ),
    (
        "count-sign-loop-without-its-flip",
        "tests/test_oracle.py::test_count_equals_frozen_reference_at_both_scales",
        ORACLE,
        "            negative = not negative\n",
        "",
    ),
    (
        # an escaped seed also makes _refine raise OracleError
        "seed-without-its-bracket-check",
        "tests/test_oracle.py::test_seed_is_the_float_root_or_else_the_midpoint",
        ORACLE,
        "    return round(x) if lo + 1 <= x <= hi - 1 else mid\n",
        "    return round(x)\n",
    ),
    (
        "refine-without-its-first-point-check",
        "tests/test_oracle.py::test_refinement_refuses_a_first_point_outside_the_open_bracket",
        ORACLE,
        "    if not lo < x < hi:\n        raise OracleError(",
        "    if False:\n        raise OracleError(",
    ),
    (
        "lift-drops-vertex-1s-second-spoke",
        "tests/test_acceptance.py::test_criterion_1_worked_example",
        LIFTING,
        "edges += [(i, middle), (middle, i + middle)]",
        "edges += [(i, middle)] if i == 1 else [(i, middle), (middle, i + middle)]",
    ),
    (
        "run-sweep-admits-any-mode",
        "tests/test_cli.py::test_run_sweep_refuses_an_unknown_mode",
        CLI,
        "    if mode not in (\"exhaustive\", \"random\"):\n"
        "        raise ValueError(f\"mode must be 'exhaustive' or 'random', got {mode!r}\")\n",
        "",
    ),
    (
        # a random campaign's graphs, and every record's config, would change
        "campaign-draws-sizes-before-child-seeds",
        "tests/test_cli.py::test_random_campaign_draws_child_seeds_then_sizes",
        CLI,
        "    child_seeds = root.integers(0, 2**63, size=samples, dtype=np.uint64)\n"
        "    sizes = root.integers(n_min, n_max + 1, size=samples)\n",
        "    sizes = root.integers(n_min, n_max + 1, size=samples)\n"
        "    child_seeds = root.integers(0, 2**63, size=samples, dtype=np.uint64)\n",
    ),
    (
        # the same record, but every passing graph serialises its config
        "campaign-builds-every-witness",
        "tests/test_cli.py::test_passing_random_sweep_builds_no_witness",
        CLI,
        'lambda i=i, cfg=cfg: {"sample": i, "config": cfg.to_json_dict()}',
        'functools.partial(dict, sample=i, config=cfg.to_json_dict())',
    ),
    (
        "sweep-error-record-without-its-witness",
        "tests/test_cli.py::test_sweep_records_solver_errors_and_goes_on",
        CLI,
        'failures.append({**witness(), "error": str(exc)})',
        'failures.append({"error": str(exc)})',
    ),
    (
        # int's test before the bools': true and false print as 1 and 0
        "json-writer-tests-int-before-bool",
        "tests/test_cli.py::test_json_text_equals_json_dumps_of_the_frozen_rounding",
        CLI,
        "    if obj is None or obj is True or obj is False:\n",
        "    if isinstance(obj, int):\n"
        "        return int.__repr__(obj)\n"
        "    if obj is None or obj is True or obj is False:\n",
    ),
    (
        # -inf prints as -inf, which no JSON parser reads
        "json-writer-prints-non-finite-floats-by-repr",
        "tests/test_cli.py::test_verify_prints_a_failed_certificate_as_null_margins",
        CLI,
        'repr(float(format(obj, ".9g"))) if math.isfinite(obj) else "null"',
        'repr(float(format(obj, ".9g")))',
    ),
    (
        "json-writer-skips-the-9-digit-rounding",
        "tests/test_cli.py::test_json_text_equals_json_dumps_of_the_frozen_rounding",
        CLI,
        'repr(float(format(obj, ".9g")))',
        "repr(float(obj))",
    ),
    (
        "json-writer-closes-a-list-at-the-inner-indent",
        "tests/test_cli.py::test_json_text_equals_json_dumps_of_the_frozen_rounding",
        CLI,
        '+ indent + "]"',
        '+ inner + "]"',
    ),
    (
        "eigen-sym-without-its-square-guard",
        "tests/test_spectral.py::test_input_validation",
        SPECTRAL,
        "    if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:\n"
        '        raise ValueError(f"expected a square matrix, got shape {raw.shape}")\n',
        "",
    ),
    (
        "eigen-sym-without-its-complex-guard",
        "tests/test_spectral.py::test_input_validation",
        SPECTRAL,
        "    if np.iscomplexobj(raw):",
        "    if False:",
    ),
    (
        "eigen-sym-without-its-non-finite-guard",
        "tests/test_spectral.py::test_input_validation",
        SPECTRAL,
        "    if not math.isfinite(fro):",
        "    if False:",
    ),
    (
        "eigen-sym-without-its-symmetry-guard",
        "tests/test_spectral.py::test_input_validation",
        SPECTRAL,
        "    if not (raw == raw.T).all():",
        "    if False:",
    ),
    (
        # 10**400 as an object entry escapes as OverflowError, not ValueError
        "eigen-sym-lets-an-overflowing-cast-escape",
        "tests/test_spectral.py::test_input_validation",
        SPECTRAL,
        "    except (OverflowError, TypeError) as exc:",
        "    except TypeError as exc:",
    ),
    (
        "run-sweep-without-its-n-min-guard",
        "tests/test_cli.py::test_sweep_bad_range",
        CLI,
        "        if not 1 <= n_min <= n_max:\n"
        '            raise ValueError(f"n-min must lie in 1..n-max {n_max}, got {n_min}")\n',
        "",
    ),
    (
        "run-sweep-without-its-samples-guard",
        "tests/test_cli.py::test_sweep_bad_range",
        CLI,
        "        if samples < 0:\n"
        '            raise ValueError(f"samples must not be negative, got {samples}")\n',
        "",
    ),
    (
        # a zero-sample sweep would then accept any probability
        "run-sweep-without-its-probability-guard",
        "tests/test_cli.py::test_sweep_bad_range",
        CLI,
        "        GeneratorConfig(n=n_max, p_edge=p_edge, p_loop=p_loop, seed=0)\n",
        "",
    ),
    (
        # an exhaustive n-max of 0 or below would sweep no graph and pass
        "run-sweep-admits-an-empty-exhaustive-range",
        "tests/test_cli.py::test_sweep_bad_range",
        CLI,
        'mode == "exhaustive" and not 1 <= n_max <= MAX_ENUM_VERTICES',
        'mode == "exhaustive" and not n_max <= MAX_ENUM_VERTICES',
    ),
]

# A run on a mutant, of its named test or of the suite, may take this many
# times the unmutated suite before it counts as hung, and so as failing.
_SLOWDOWN_LIMIT = 5

_IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", ".perfbench-*"
)


def _copy(tmp: str, path: str = "", old: str = "", new: str = "") -> Path:
    """Copy the repository into ``tmp`` and replace ``old`` by ``new`` in
    ``path`` there (nothing when ``path`` is empty)."""
    copy = Path(tmp) / "repo"
    shutil.copytree(ROOT, copy, ignore=_IGNORED)
    if path:
        target = copy / path
        target.write_text(target.read_text().replace(old, new))
    return copy


def _passes(copy: Path, test_ids: list[str], timeout: float | None = None) -> bool:
    """Run ``pytest -x -q`` on ``test_ids`` (the whole suite when empty) in
    ``copy``. A run past ``timeout`` seconds counts as failing: the mutant
    hung it."""
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *test_ids],
            cwd=copy,
            env=dict(os.environ, PYTHONPATH=str(copy / "src")),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return False
    return result.returncode == 0


def _verdict(row: tuple[str, str, str, str, str], timeout: float) -> str:
    """``killed`` when the row's named test fails on its mutant; otherwise
    ``stale killer`` when the suite still fails, ``survived`` when it passes."""
    _, killer, path, old, new = row
    with tempfile.TemporaryDirectory(prefix="loopspec-mutant-") as tmp:
        copy = _copy(tmp, path, old, new)
        if not _passes(copy, [killer], timeout):
            return "killed"
        return "stale killer" if not _passes(copy, [], timeout) else "survived"


def main() -> int:
    start = time.monotonic()
    stale = [row[0] for row in MUTANTS if (ROOT / row[2]).read_text().count(row[3]) != 1]
    if stale:
        print(f"old text does not occur exactly once: {stale}")
        return 1
    with tempfile.TemporaryDirectory(prefix="loopspec-mutant-") as tmp:
        copy = _copy(tmp)
        suite_start = time.monotonic()
        if not _passes(copy, []):
            print("the unmutated suite fails, so no mutant can be judged")
            return 1
        timeout = max(120.0, _SLOWDOWN_LIMIT * (time.monotonic() - suite_start))
        # a named test that pytest cannot find would fail every run
        if not _passes(copy, sorted({row[1] for row in MUTANTS})):
            print("a named killer fails or does not exist on the unmutated copy")
            return 1
    killed = 0
    for row in MUTANTS:
        verdict = _verdict(row, timeout)
        print(f"{verdict:<13}{row[0]}", flush=True)
        killed += verdict == "killed"
    print(
        f"{killed} killed by their named test, {len(MUTANTS) - killed} not, of {len(MUTANTS)}"
        f" in {time.monotonic() - start:.0f} s"
    )
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
