"""Command-line front end.

Subcommands: analyze (report one graph), lift (write the lifted graph),
verify (run all spectral checks), generate (seeded random graph), sweep
(verification campaigns, exhaustive or randomized).

Exit codes: 0 success, 1 at least one verification check failed, 2 usage,
I/O, allocation or computation error, or a dense order above
MAX_DENSE_ORDER. JSON output comes from one writer, _json_text: strict JSON
indented by two spaces, every float rounded to 9 significant digits so
output is stable across platforms, and null for a non-finite float.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import EdgeListError, Graph, read_edge_list, write_edge_list
from .laplacian import format_matrix
from .lifting import lift
from .oracle import (
    MAX_ENUM_VERTICES,
    GenerationError,
    GeneratorConfig,
    enumerate_graphs,
    random_graph,
)
from .spectral import JacobiConvergenceError, _claims, _solve_base, verify_all

__all__ = ["MAX_DENSE_ORDER", "SweepResult", "main", "run_sweep"]

# Largest dense matrix order analyze (order n), verify (order 2n+1) and sweep
# (order 2 n-max + 1) build. At this order the int16 Laplacian takes 32 MiB
# and the float64 copy that the solver reads 128 MiB.
MAX_DENSE_ORDER = 4096

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_ERROR = 2


@dataclass(frozen=True)
class SweepResult:
    """Outcome of a verification campaign.

    ``failures`` holds one record per failing graph with enough detail to
    reproduce it (enumeration index or generator seed) plus either the failed
    check ids and their margins or, when the solver did not converge, the
    ``error`` message. ``passed + len(failures) == total`` always.
    """

    mode: str
    total: int
    passed: int
    failures: tuple[dict, ...]

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "total": self.total,
            "passed": self.passed,
            "failures": [dict(f) for f in self.failures],
        }


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


_quote = json.encoder.encode_basestring_ascii  # json.dumps's own string escaper


def _json_text(obj, indent: str = "\n") -> str:
    """What ``json.dumps(obj, indent=2)`` writes once floats are rounded to 9
    significant digits and non-finite ones made None, nested at ``indent`` (a
    newline and spaces). Other types and non-str keys raise ``TypeError``."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, float):
        # _fmt inlined: a printed report spends most of its time here
        return repr(float(format(obj, ".9g"))) if math.isfinite(obj) else "null"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [f"{_quote(k)}: {_json_text(v, inner)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [_json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _print_json(payload: dict) -> None:
    print(_json_text(payload))


def _load(path: str) -> Graph:
    """``read_edge_list(path)``, whose grammar and decoding errors name the
    file."""
    try:
        return read_edge_list(path)
    except EdgeListError as exc:
        raise EdgeListError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _check_dense_order(source: str, order: int) -> None:
    """Refuse, before anything dense is allocated, an input whose dense
    matrices would have an order above ``MAX_DENSE_ORDER``; ``source`` names
    the input in the message."""
    if order > MAX_DENSE_ORDER:
        raise ValueError(
            f"{source}: dense order {order} exceeds MAX_DENSE_ORDER {MAX_DENSE_ORDER}"
        )


def cmd_analyze(args: argparse.Namespace) -> int:
    g = _load(args.path)
    _check_dense_order(args.path, g.n)
    lap, spectrum, census = _solve_base(g)
    bounds = _claims(g, spectrum.eigenvalues, census)
    algebraic = float(spectrum.eigenvalues[1]) if census.loops == 0 and g.n >= 2 else None

    if args.format == "json":
        _print_json(
            {
                "n": g.n,
                "q": census.loops,
                "components": census.count,
                "pseudo_connected": census.pseudo_connected,
                "laplacian": lap.tolist(),
                "eigenvalues": [float(v) for v in spectrum.eigenvalues],
                "algebraic_connectivity": algebraic,
                "bounds": bounds,
            }
        )
        return _EXIT_OK

    print(f"n: {g.n}")
    print(f"loops: {census.loops}")
    print(f"components: {census.count}")
    print(f"pseudo-connected: {'yes' if census.pseudo_connected else 'no'}")
    print("laplacian:")
    print(format_matrix(lap))
    print("eigenvalues:", " ".join(_fmt(v) for v in spectrum.eigenvalues))
    if algebraic is not None:
        print(f"algebraic connectivity: {_fmt(algebraic)}")
    for row in bounds:
        rel = ">=" if row["kind"] == "lower" else "<="
        print(
            f"{row['id']}: {_fmt(row['value'])} {rel} {_fmt(row['bound'])} "
            f"(margin {_fmt(row['margin'])})"
        )
    return _EXIT_OK


def cmd_lift(args: argparse.Namespace) -> int:
    g = _load(args.path)
    lifted = lift(g)
    write_edge_list(lifted.lifted, args.out)
    summary = {
        "n": g.n,
        "q": g.loop_count,
        "lifted_n": lifted.lifted.n,
        "lifted_edges": len(lifted.lifted.edges),
        "middle": lifted.middle,
        "out": args.out,
    }
    if g.loop_count == 0:
        summary["note"] = "no self-loops, middle vertex is isolated"
    _print_json(summary)
    return _EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    g = _load(args.path)
    _check_dense_order(args.path, 2 * g.n + 1)
    report = verify_all(g)
    _print_json(report.to_json_dict())
    return _EXIT_OK if report.passed else _EXIT_CHECK_FAILED


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = GeneratorConfig(
        n=args.n,
        p_edge=args.p_edge,
        p_loop=args.p_loop,
        seed=args.seed,
        require=args.require,
    )
    g = random_graph(cfg)
    write_edge_list(g, args.out)
    _print_json(
        {
            "config": cfg.to_json_dict(),
            "n": g.n,
            "edges": len(g.edges),
            "loops": g.loop_count,
            "out": args.out,
        }
    )
    return _EXIT_OK


def _campaign(mode, n_max, samples, seed, n_min, p_edge, p_loop):
    """Yield ``(graph, witness)`` for every graph of a sweep, in sweep order.

    ``witness`` is a zero-argument callable that returns the fields which
    reproduce the graph: ``{"n", "index"}`` or ``{"sample", "config"}``. It
    is called for a failing graph only, so a passing one never serialises
    its config. Random mode draws every child seed, then every size, from
    ``default_rng(seed)`` before the first graph."""
    if mode == "exhaustive":
        for n in range(1, n_max + 1):
            for index, g in enumerate(enumerate_graphs(n)):
                yield g, lambda n=n, index=index: {"n": n, "index": index}
        return
    root = np.random.default_rng(seed)
    child_seeds = root.integers(0, 2**63, size=samples, dtype=np.uint64)
    sizes = root.integers(n_min, n_max + 1, size=samples)
    for i in range(samples):
        cfg = GeneratorConfig(
            n=int(sizes[i]), p_edge=p_edge, p_loop=p_loop, seed=int(child_seeds[i])
        )
        yield random_graph(cfg), lambda i=i, cfg=cfg: {"sample": i, "config": cfg.to_json_dict()}


def run_sweep(
    mode: str,
    n_max: int,
    samples: int = 0,
    seed: int = 0,
    n_min: int = 2,
    p_edge: float = 0.4,
    p_loop: float = 0.3,
) -> SweepResult:
    """Verify a campaign of graphs and collect failures.

    Exhaustive mode checks every graph on 1..n_max vertices. Random mode
    draws ``samples`` graphs with n uniform in [n_min, n_max]; per-sample
    seeds are derived from ``seed`` up front, so any failure is reproducible
    from its record alone without replaying the whole sweep. :func:`_campaign`
    yields the graphs and their witnesses in this order.

    A graph whose eigensolve does not converge is recorded as a failure with
    an ``error`` message instead of aborting the sweep. Raises ``ValueError``
    before verifying anything when ``mode`` is neither ``"exhaustive"`` nor
    ``"random"``, when an exhaustive sweep asks for an ``n_max`` outside
    ``1..MAX_ENUM_VERTICES``, or a random one for an ``n_min`` outside
    ``1..n_max``, a negative ``samples`` or a ``p_edge`` or ``p_loop``
    outside [0, 1].
    """
    if mode not in ("exhaustive", "random"):
        raise ValueError(f"mode must be 'exhaustive' or 'random', got {mode!r}")
    if mode == "exhaustive" and not 1 <= n_max <= MAX_ENUM_VERTICES:
        raise ValueError(
            f"exhaustive sweeps need n-max >= 1 and are capped at n-max "
            f"{MAX_ENUM_VERTICES}, got {n_max}"
        )
    if mode != "exhaustive":
        if not 1 <= n_min <= n_max:
            raise ValueError(f"n-min must lie in 1..n-max {n_max}, got {n_min}")
        if samples < 0:
            raise ValueError(f"samples must not be negative, got {samples}")
        # GeneratorConfig's own probability checks, before anything is drawn
        GeneratorConfig(n=n_max, p_edge=p_edge, p_loop=p_loop, seed=0)
    total, failures = 0, []
    for g, witness in _campaign(mode, n_max, samples, seed, n_min, p_edge, p_loop):
        total += 1
        try:
            report = verify_all(g)
        except JacobiConvergenceError as exc:  # fails this graph only
            failures.append({**witness(), "error": str(exc)})
            continue
        if not report.passed:
            failed = report.failed_checks()
            ids, margins = [c.id for c in failed], {c.id: c.margin for c in failed}
            failures.append({**witness(), "failed_checks": ids, "margins": margins})
    return SweepResult(mode, total, total - len(failures), tuple(failures))


def cmd_sweep(args: argparse.Namespace) -> int:
    _check_dense_order("--n-max", 2 * args.n_max + 1)
    result = run_sweep(
        mode=args.mode,
        n_max=args.n_max,
        samples=args.samples,
        seed=args.seed,
        n_min=args.n_min,
        p_edge=args.p_edge,
        p_loop=args.p_loop,
    )
    _print_json(result.to_json_dict())
    return _EXIT_OK if not result.failures else _EXIT_CHECK_FAILED


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopspec",
        description="Laplacian spectra of graphs with self-loops: analysis, lifting, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="report structure, Laplacian, spectrum, and bounds")
    p.add_argument("path", help="edge-list file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("lift", help="write the loopless lifted graph")
    p.add_argument("path", help="edge-list file")
    p.add_argument("out", help="output edge-list file for the lifted graph")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("verify", help="run all spectral checks, exit 1 on failure")
    p.add_argument("path", help="edge-list file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="write a seeded random graph")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--p-edge", type=float, required=True, help="per-pair edge probability")
    p.add_argument("--p-loop", type=float, required=True, help="per-vertex loop probability")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--require",
        choices=("none", "connected", "pseudo_connected"),
        default="none",
        help="resample until the graph satisfies this predicate",
    )
    p.add_argument("--out", required=True, help="output edge-list file")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sweep", help="verify a campaign of graphs")
    p.add_argument("--mode", choices=("random", "exhaustive"), default="random")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--n-min", type=int, default=2, help="random mode only")
    p.add_argument("--samples", type=int, default=1000, help="random mode only")
    p.add_argument("--seed", type=int, default=0, help="random mode only")
    p.add_argument("--p-edge", type=float, default=0.4, help="random mode only")
    p.add_argument("--p-loop", type=float, default=0.3, help="random mode only")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EdgeListError, OSError, ValueError, MemoryError,
            GenerationError, JacobiConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
