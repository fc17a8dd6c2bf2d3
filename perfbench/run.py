"""loopspec benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py`` or ``all``, which runs every
workload in this one process. Run it from anywhere; it uses the ``src/`` tree
next to this directory and refuses to run without one.

``--trace 0`` measures end to end: it sets up the inputs ``SETUP_REPEATS``
times, runs a warm-up (the first ``WARMUP_OPS`` ops of one round), then
runs whole rounds of ops until their summed time reaches ``--seconds``.
Every op's output is validated between ops, outside the timed interval.
``--trace 1`` runs a fixed number of rounds twice, untraced and then with
spans around loopspec's public functions, and reports per-layer totals of
the traced pass plus the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; lines before it record the environment and the
tail percentile. The exit code is 0 when every output was correct, 1 when
an op failed or was rejected, 2 when the sources are missing or the
validator self-test (run after the ops, when they all passed) failed.
"""

from __future__ import annotations

import os

# One BLAS thread: the program is single-threaded Python around small matrix
# products, and a fixed thread count keeps timings comparable across runs.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import importlib
import math
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from speed import NOMINAL_S, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "verify_worked.json"
SETUP_REPEATS = 15
TAIL_BEYOND = 10
WARMUP_OPS = 100
PROBE_EVERY_S = 0.05  # op time between two runs of the reference kernel
RAW_CAP = 2.0  # stop at this multiple of --seconds in wall-clock op time
# Never used while the benchmark was tuned; confirm a claimed gain on it.
HELD_OUT_SEED = 906_113


def refuse(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    """Import loopspec from this checkout's src/, refusing any other copy."""
    if not (SRC / "loopspec" / "__init__.py").is_file() or not GOLDEN.is_file():
        refuse(f"no loopspec sources at {SRC} or no golden report at {GOLDEN}")
    sys.path.insert(0, str(SRC))
    import loopspec

    if Path(loopspec.__file__).resolve().parent != SRC / "loopspec":
        refuse(f"imported loopspec from {loopspec.__file__}, not from {SRC}")


class Pass:
    """One sequence of ops, with the reference-kernel probes taken between
    them: ``before[i]`` is the index of the last probe before op ``i``, and a
    probe always follows the last op."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.before: list[int] = []
        self.ok: list[bool] = []
        self.probes: list[float] = []
        self.rounds = 0
        self.problems: list[str] = []
        self.extra_attempted = 0  # checks outside the timed ops
        self.extra_failed = 0

    @property
    def attempted(self) -> int:
        return len(self.ok) + self.extra_attempted

    @property
    def failed(self) -> int:
        return self.ok.count(False) + self.extra_failed

    @property
    def elapsed(self) -> float:
        return sum(self.seconds)

    def scaled(self) -> list[float]:
        """Op times at nominal machine speed (see speed.py)."""
        return [
            t * NOMINAL_S / math.sqrt(self.probes[b] * self.probes[b + 1])
            for t, b in zip(self.seconds, self.before)
        ]

    def absorb(self, other: "Pass") -> None:
        """Count another pass's attempts and failures (not its times)."""
        self.extra_attempted += other.attempted
        self.extra_failed += other.failed
        self.problems += other.problems


def run_rounds(wl, rounds, result: Pass, seconds: float, tracer=None) -> None:
    """Run whole rounds until ``seconds`` of op time at nominal speed or
    ``RAW_CAP`` times that in wall-clock op time."""
    from loopspec import GenerationError, JacobiConvergenceError, OracleError

    program_errors = (JacobiConvergenceError, GenerationError, OracleError)
    since_probe = math.inf
    scaled = raw = 0.0
    for cases in rounds:
        for case in cases:
            if since_probe >= PROBE_EVERY_S:
                result.probes.append(reference_seconds())
                since_probe = 0.0
            if tracer is not None:
                tracer.active = True
                tracer.lifted_order = None
                span = tracer.begin("bench.op")
            t0 = perf_counter()
            try:
                output = wl.run(case)
            except program_errors as exc:
                problems = [f"{type(exc).__name__}: {exc}"]
                output = None
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.end(span)
                tracer.active = False
            if output is not None:
                problems = wl.check(case, output)
            del output
            result.seconds.append(dt)
            result.before.append(len(result.probes) - 1)
            result.ok.append(not problems)
            result.problems += problems
            since_probe += dt
            raw += dt
            scaled += dt * NOMINAL_S / result.probes[-1]
        result.rounds += 1
        if scaled >= seconds or raw >= RAW_CAP * seconds:
            break
    result.probes.append(reference_seconds())


def warm_up(wl, rounds) -> Pass:
    """Run at most ``WARMUP_OPS`` ops of the next round, untimed."""
    warm = Pass()
    run_rounds(wl, [next(rounds)[:WARMUP_OPS]], warm, 0.0)
    return warm


def import_again() -> None:
    """Execute loopspec's modules afresh (numpy stays loaded), then put the
    original modules back so the functions and exception classes in use
    stay the same objects."""
    saved = {k: v for k, v in sys.modules.items() if k == "loopspec" or k.startswith("loopspec.")}
    for name in saved:
        del sys.modules[name]
    try:
        importlib.import_module("loopspec.cli")
    finally:
        for name in [k for k in sys.modules if k == "loopspec" or k.startswith("loopspec.")]:
            del sys.modules[name]
        sys.modules.update(saved)


def setup_once(wl, seed: int, workdir: Path, with_import: bool):
    """Make the inputs in an empty ``workdir``; with ``with_import`` the
    timed set-up also re-executes loopspec's import. Returns the inputs,
    the wall-clock seconds and the seconds at nominal speed."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir()
    before = reference_seconds()
    t0 = perf_counter()
    if with_import:
        import_again()
    inputs = wl.setup(seed, workdir)
    dt = perf_counter() - t0
    return inputs, dt, dt * NOMINAL_S / math.sqrt(before * reference_seconds())


def tail(values: list[float]) -> tuple[float, int]:
    """The value with TAIL_BEYOND samples above it (the maximum when there
    are too few samples), and the number of samples above it."""
    ordered = sorted(values)
    beyond = TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0
    return ordered[-1 - beyond], beyond


def end_to_end(wl, seed: int, seconds: float, workdir: Path) -> tuple[Pass, dict]:
    setups = [setup_once(wl, seed, workdir, with_import=True) for _ in range(SETUP_REPEATS)]
    inputs = setups[-1][0]
    result = Pass()
    if wl.name == "large-verify":
        problems = wl.check_worked(inputs[1], GOLDEN)
        result.extra_attempted += 1
        result.extra_failed += bool(problems)
        result.problems += problems
    rounds = wl.rounds(inputs)
    result.absorb(warm_up(wl, rounds))
    run_rounds(wl, rounds, result, seconds)

    scaled = result.scaled()
    lat = [t for t, ok in zip(scaled, result.ok) if ok]
    raw = [t for t, ok in zip(result.seconds, result.ok) if ok]
    if not lat:
        return result, {"info": {"workload": wl.name, "ops": 0}, "metrics": {}}
    tail_s, beyond = tail(lat)
    info = {
        "workload": wl.name,
        "rounds": result.rounds,
        "op_ms_tail": {"percentile": 100.0 * (len(lat) - beyond) / len(lat), "samples": len(lat), "beyond": beyond},
        "machine_speed": NOMINAL_S / statistics.median(result.probes),
        "wall_clock": {
            "setup_s": statistics.median(s[1] for s in setups),
            "ops_per_s": len(raw) / result.elapsed,
            "op_ms_p50": 1e3 * statistics.median(raw),
            "op_ms_tail": 1e3 * tail(raw)[0],
        },
    }
    metrics = {
        "setup_s": (statistics.median(s[2] for s in setups), "s"),
        "ops_per_s": (len(lat) / sum(scaled), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(lat), "ms"),
        "op_ms_tail": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return result, {"info": info, "metrics": metrics}


def traced(wl, seed: int, seconds: float, workdir: Path) -> tuple[Pass, dict]:
    from tracing import Tracer, metrics as layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            inputs = setup_once(wl, seed, workdir, with_import=False)[0]
    finally:
        tracer.uninstall()
    tracer.active = False

    rounds = wl.rounds(inputs)
    warm = warm_up(wl, rounds)
    # Each op runs untraced and then traced, so drift in machine speed falls
    # on both sides of trace.overhead_frac alike. The time cap only bites if
    # the program got much slower; trace.ops shows it.
    plain, result = Pass(), Pass()
    for done, cases in enumerate(rounds, start=1):
        for case in cases:
            run_rounds(wl, [[case]], plain, math.inf)
            tracer.install()
            try:
                run_rounds(wl, [[case]], result, math.inf, tracer=tracer)
            finally:
                tracer.uninstall()
        if done >= wl.trace_rounds or plain.elapsed >= seconds / 2:
            break
    result.absorb(warm)
    result.absorb(plain)

    values = layer_metrics(tracer.spans)
    values["trace.ops"] = len(result.seconds)
    values["trace.ops_s"] = result.elapsed
    values["trace.overhead_frac"] = (result.elapsed - plain.elapsed) / plain.elapsed
    info = {"workload": wl.name, "rounds": done, "untraced_s": plain.elapsed, "traced_s": result.elapsed}
    return result, {"info": info, "metrics": {k: (v, unit_of(k)) for k, v in values.items()}}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_computed"):
        return "B"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_mean"):
        return "calls/order"
    return "count"


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from selftest import problems as selftest_problems
    from workloads import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'")

    print(json.dumps({"env": environment(args.seed)}))

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            wl = WORKLOADS[name]
            if args.trace:
                result, out = traced(wl, args.seed, args.seconds, workdir / "inputs")
            else:
                result, out = end_to_end(wl, args.seed, args.seconds, workdir / "inputs")
            for line in result.problems[:20]:
                print(f"perfbench: {name}: {line}", file=sys.stderr)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()}
            failed_frac = result.failed / max(result.attempted, 1)
            print(json.dumps({**out["info"], "failed": result.failed, "failed_frac": failed_frac, "metrics": metrics}))
            total["correct"] = total["correct"] and result.failed == 0
            total["attempted"] += result.attempted
            total["failed"] += result.failed
            prefix = f"{name}." if len(names) > 1 else ""
            total["metrics"].update({prefix + k: m for k, m in metrics.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # The self-test needs a correct program to make its good outputs, so it
    # runs only after every op passed.
    found = selftest_problems(GOLDEN) if total["correct"] else []
    if found:
        refuse("validator self-test failed:\n  " + "\n  ".join(found))
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
