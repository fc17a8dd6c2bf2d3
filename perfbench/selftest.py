"""Self-test of the benchmark's validators: each must accept one good output
and reject one deliberately corrupted copy of it.

Run on its own with ``python3 perfbench/selftest.py``. ``run.py`` also runs
it at the end of every run whose ops all passed (the good outputs come from
the program, so a broken program would confound it) and prints no result if
it fails.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def problems(golden: Path) -> list[str]:
    """Empty when every validator accepts its good output and rejects the
    corrupted one; otherwise one line per validator that misjudged."""
    from loopspec import graph_from_edges
    from loopspec.cli import SweepResult
    from workloads import LargeVerify, LiftAssemble, OracleCrosscheck, RandomSweep, run_cli, same_shape

    found: list[str] = []

    def judge(label: str, check, case, good, bad) -> None:
        if check(case, good):
            found.append(f"{label}: rejected a good output: {check(case, good)}")
        if not check(case, bad):
            found.append(f"{label}: accepted a corrupted output")

    worked = graph_from_edges(2, [(1, 1), (1, 2)])
    oracle = OracleCrosscheck()
    solver, exact = oracle.run(worked)
    judge("oracle-crosscheck", oracle.check, worked, (solver, exact), (solver + [0.0, 1e-6], exact))

    sweep = RandomSweep()
    ok = SweepResult("random", 1, 1, ())
    bad = SweepResult("random", 1, 0, ({"sample": 0, "failed_checks": ["eq6"]},))
    judge("random-sweep", sweep.check, [(2, 0), (3, 1)], [ok, ok], [ok, bad])

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=HERE.parent) as tmp:
        tmpdir = Path(tmp)
        verify = LargeVerify()
        verify.sizes = (6,)
        verify.pool = 1
        cases, worked_path = verify.setup(7, tmpdir)
        good = verify.run(cases[0])
        doc = json.loads(good[1])
        doc["checks"][1]["margin"] += 1e-3  # lemma1 margin no longer matches the spectrum
        judge("large-verify", verify.check, cases[0], good, (good[0], json.dumps(doc), good[2]))

        rejected = verify.check_worked(worked_path, golden)
        if rejected:
            found.append(f"worked example: rejected a good output: {rejected}")
        doc = json.loads(run_cli(["verify", worked_path])[1])
        doc["checks"][0]["margin"] += 1e-6
        if not same_shape(doc, json.loads(golden.read_text())):
            found.append("worked example: accepted a corrupted output")

        lifting = LiftAssemble()
        lifting.sizes = (50,)
        lifting.pool = 1
        cases = lifting.setup(7, tmpdir)
        good = lifting.run(cases[0])
        g, pseudo, lap, lifted, lap_lift = good
        corrupt = lap_lift.copy()
        corrupt[50, 50] += 1  # middle diagonal of the lift, 2q no longer
        judge("lift-assemble", lifting.check, cases[0], good, (g, pseudo, lap, lifted, corrupt))
        out_path = Path(cases[0][1])
        lines = out_path.read_text().splitlines()
        n_lifted = lines[0].split()[0]
        out_path.write_text(f"{n_lifted} {len(lines) - 2}\n" + "\n".join(lines[1:-1]) + "\n")
        if not lifting.check(cases[0], good):
            found.append("lift-assemble: accepted a lifted edge list with an edge missing")
    return found


def main() -> int:
    root = HERE.parent
    sys.path.insert(0, str(root / "src"))
    found = problems(root / "tests" / "golden" / "verify_worked.json")
    for line in found:
        print(f"selftest: {line}", file=sys.stderr)
    print("selftest: ok" if not found else f"selftest: {len(found)} problem(s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
