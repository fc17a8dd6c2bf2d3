"""Mutation runner: each row of ``MUTANTS`` plants one fault in a fresh
temporary copy of the repository, and ``pytest -x -q`` runs there. The
mutant is killed when the suite fails, and survives when it passes.

Run it from any directory as ``python tests/mutants.py``. Each row costs
up to one full suite run (about 30 s on 2 vCPUs), so the runner stays out
of the suite: pytest does not collect this file. It first runs the suite on
an unmutated copy, since a failing suite would kill every mutant. A mutant
whose run takes five times as long as that one (two minutes at least) has
hung the suite, and counts as killed. It exits 1 when a mutant survives,
the unmutated copy fails, or a row's old text does not occur exactly once
in its file. It copies the working tree as it stands, so leave the tree
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

# (name, file, exact old text, new text)
MUTANTS = [
    (
        "certificate-without-its-order-check",
        SPECTRAL,
        "    if lap_lift.shape != (2 * n + 1, 2 * n + 1):\n        return False\n",
        "",
    ),
    (
        "certificate-without-the-second-a",
        SPECTRAL,
        "(lap_lift[n + 1 :, n + 1 :] == lap_lift[:n, :n]).all()\n        and ",
        "",
    ),
    (
        "certificate-without-the-second-b",
        SPECTRAL,
        "        and (lap_lift[n + 1 :, :n] == lap_lift[:n, n + 1 :]).all()\n",
        "",
    ),
    (
        "certificate-without-the-middle-column",
        SPECTRAL,
        "        and (lap_lift[n + 1 :, n] == lap_lift[:n, n]).all()\n",
        "",
    ),
    (
        "certificate-without-the-middle-row",
        SPECTRAL,
        "        and (lap_lift[n, n + 1 :] == lap_lift[n, :n]).all()\n",
        "",
    ),
    (
        "certificate-without-a-minus-b",
        SPECTRAL,
        "        and (lap_lift[:n, :n] - lap_lift[:n, n + 1 :] == lap).all()\n",
        "",
    ),
    (
        "kahan-gap-without-its-divisor",
        SPECTRAL,
        "_frobenius(res) / math.sqrt(1.0 - eta) if",
        "_frobenius(res) if",
    ),
    (
        "lift-eigvec-reads-the-mean-column",
        SPECTRAL,
        "worst_res = float(np.sqrt((res * res).sum(axis=0)).max())",
        "worst_res = float(np.sqrt((res * res).sum(axis=0)).mean())",
    ),
    (
        "eq6-interval-plus-2",
        SPECTRAL,
        "interval = bound + 1.0 if loopless else bound",
        "interval = bound + 2.0 if loopless else bound + 1.0",
    ),
    (
        "lemma1-passes-a-zero-margin",
        SPECTRAL,
        '{"id": "lemma1", "margin": margin, "pass": margin > 0.0}',
        '{"id": "lemma1", "margin": margin, "pass": margin >= 0.0}',
    ),
    (
        "eq7-passes-a-zero-margin",
        SPECTRAL,
        '{"id": "eq7", "margin": margin, "pass": margin > 0.0}',
        '{"id": "eq7", "margin": margin, "pass": margin >= 0.0}',
    ),
    (
        "closed-form-rows-owe-the-match-tolerance",
        SPECTRAL,
        'row["pass"] = row["margin"] >= -tol_base',
        'row["pass"] = row["margin"] >= tol_base',
    ),
    (
        "match-tol-admits-infinity",
        SPECTRAL,
        "if not 0.0 < match_tol < math.inf:",
        "if not 0.0 < match_tol:",
    ),
    (
        "gram-without-its-diagonal",
        SPECTRAL,
        "    gram.flat[:: g.n + 1] -= 1.0\n",
        "",
    ),
    (
        "residual-formed-out-of-place",
        SPECTRAL,
        "    res -= vectors * spec.eigenvalues\n",
        "    res = res - vectors * spec.eigenvalues\n",
    ),
    (
        "verify-all-keeps-its-gram-matrix",
        SPECTRAL,
        "    del gram  # N^2 floats that nothing reads past eta\n",
        "",
    ),
    (
        # killed by test_lifted_top_equals_the_frozen_block_construction_bitwise:
        # eigvalsh reads the lower triangle, so it would see c unscaled
        "lifted-top-without-the-column-to-row-copy",
        SPECTRAL,
        "    s[n, :n] = s[:n, n]\n",
        "",
    ),
    (
        # killed by test_spectral_radius_is_the_largest_magnitude_bitwise
        "spectral-radius-reads-the-top-end-alone",
        SPECTRAL,
        "max(abs(float(ev[0])), abs(float(ev[-1])))",
        "abs(float(ev[-1]))",
    ),
    (
        # killed by test_worked_example_laplacian: a loop's vertex would
        # keep both of its endpoint counts
        "laplacian-diagonal-counts-loops-twice",
        LAPLACIAN,
        "np.bincount(e, minlength=n) + lap.diagonal()",
        "np.bincount(e, minlength=n)",
    ),
    (
        "laplacian-dtype-admits-its-maximum",
        LAPLACIAN,
        "if top > n:",
        "if top >= n:",
    ),
    (
        "laplacian-always-int8",
        LAPLACIAN,
        "dtype=_entry_dtype(n))",
        "dtype=np.int8)",
    ),
    (
        "plain-kernel-reads-19-digit-tokens",
        GRAPHS,
        "_MAX_PLAIN_DIGITS = 18",
        "_MAX_PLAIN_DIGITS = 19",
    ),
    (
        "plain-kernel-without-pairs-on-one-line",
        GRAPHS,
        "np.any(line[0::2] != line[1::2]) or ",
        "",
    ),
    (
        "plain-kernel-without-one-pair-per-line",
        GRAPHS,
        " or np.any(line[2::2] == line[1:-1:2])",
        "",
    ),
    (
        "plain-kernel-admits-n-0",
        GRAPHS,
        "if n < 1 or lo.size",
        "if lo.size",
    ),
    (
        "plain-kernel-admits-endpoint-0",
        GRAPHS,
        " or np.any(lo < 1) or",
        " or",
    ),
    (
        "plain-kernel-admits-endpoints-above-n",
        GRAPHS,
        " or np.any(hi > n):",
        ":",
    ),
    (
        "plain-kernel-without-the-token-count",
        GRAPHS,
        " or lo.size != declared or",
        " or",
    ),
    (
        "plain-kernel-without-the-edge-count",
        GRAPHS,
        "    if len(edges) != declared:\n        return None\n",
        "",
    ),
    (
        "random-graph-appends-reversed-pairs",
        ORACLE,
        "edges.append((i, k - starts[i - 1] + i + 1))",
        "edges.append((k - starts[i - 1] + i + 1, i))",
    ),
    (
        # killed by test_charpoly_equals_frozen_nested_sum_reference_on_criterion_6
        "charpoly-shifts-m-in-place",
        ORACLE,
        "    work = a.copy()\n",
        "    work = a\n",
    ),
    (
        # killed by test_count_equals_frozen_reference_at_both_scales
        "count-sign-loop-without-its-flip",
        ORACLE,
        "            negative = not negative\n",
        "",
    ),
    (
        # killed by test_seed_is_the_float_root_or_else_the_midpoint; an
        # escaped seed also makes _refine raise OracleError
        "seed-without-its-bracket-check",
        ORACLE,
        "    return round(x) if lo + 1 <= x <= hi - 1 else mid\n",
        "    return round(x)\n",
    ),
    (
        # killed by test_refinement_refuses_a_first_point_outside_the_open_bracket
        "refine-without-its-first-point-check",
        ORACLE,
        "    if not lo < x < hi:\n        raise OracleError(",
        "    if False:\n        raise OracleError(",
    ),
    (
        "run-sweep-admits-any-mode",
        CLI,
        "    if mode not in (\"exhaustive\", \"random\"):\n"
        "        raise ValueError(f\"mode must be 'exhaustive' or 'random', got {mode!r}\")\n",
        "",
    ),
]

# A mutant's suite run may take this many times the unmutated run before it
# counts as hung, and so as killed.
_SLOWDOWN_LIMIT = 5

_IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", ".perfbench-*"
)


def _suite_passes(
    old: str = "", new: str = "", path: str = "", timeout: float | None = None
) -> bool:
    """Copy the repository, replace ``old`` by ``new`` in ``path`` (nothing
    when ``path`` is empty) and run the suite there. A run past ``timeout``
    seconds counts as a failing suite: the mutant hung it."""
    with tempfile.TemporaryDirectory(prefix="loopspec-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORED)
        if path:
            target = copy / path
            target.write_text(target.read_text().replace(old, new))
        try:
            result = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                cwd=copy,
                env=dict(os.environ, PYTHONPATH=str(copy / "src")),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return False
        return result.returncode == 0


def main() -> int:
    stale = [name for name, path, old, _ in MUTANTS if (ROOT / path).read_text().count(old) != 1]
    if stale:
        print(f"old text does not occur exactly once: {stale}")
        return 1
    start = time.monotonic()
    if not _suite_passes():
        print("the unmutated suite fails, so no mutant can be judged")
        return 1
    timeout = max(120.0, _SLOWDOWN_LIMIT * (time.monotonic() - start))
    survivors = []
    for name, path, old, new in MUTANTS:
        killed = not _suite_passes(old, new, path, timeout)
        print(f"{'killed' if killed else 'survived':<9}{name}", flush=True)
        if not killed:
            survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} killed, {len(survivors)} survived of {len(MUTANTS)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
