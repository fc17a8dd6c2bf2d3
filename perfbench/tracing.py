"""Spans around calls into loopspec's public functions, for the traced run.

The modules of ``loopspec`` import each other's functions with
``from .x import y`` and look them up in their own namespace, so a wrapper
has to be installed under every module attribute that holds the original
function object, not only in the defining module. ``Tracer.install`` does
that and ``Tracer.uninstall`` puts the originals back; the untraced run never
calls either.

A span is ``[name, start, end, parent, order, error]``: ``parent`` is the
index of the enclosing span (``None`` for a root), ``order`` the matrix order
for assembly and eigensolver calls, ``error`` the exception class name when
the call raised. Spans stay in memory until ``metrics`` reads them.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

# defining module -> {function name: span name}
TRACED = {
    "graphs": {
        "parse_edge_list": "graphs.parse",
        "read_edge_list": "graphs.parse",
        "format_edge_list": "graphs.write",
        "write_edge_list": "graphs.write",
        "connected_components": "graphs.components",
        "is_pseudo_connected": "graphs.components",
    },
    "laplacian": {"laplacian_of": "laplacian.assemble"},
    "lifting": {"lift": "lifting.lift"},
    "spectral": {
        "eigen_sym": "spectral.eigen",
        "verify_all": "spectral.verify",
        "spectrum_subset": "spectral.subset",
    },
    "oracle": {
        "random_graph": "oracle.generate",
        "enumerate_graphs": "oracle.enumerate",
        "charpoly_eigenvalues": "oracle.charpoly",
    },
    "cli": {"main": "cli.main", "run_sweep": "cli.run_sweep"},
}


class Tracer:
    """Span recorder. ``active`` is cleared while the benchmark validates
    outputs, so the program calls a validator makes are not counted."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = True
        # order of the graph most recently returned by lift() in this op or
        # this verify_all call; an eigen_sym call on a matrix of that order
        # is the lifted solve
        self.lifted_order: int | None = None
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str, order: int | None = None) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, order, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int, error: str | None = None) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        span[5] = error
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def _wrap(self, fn, name: str):
        tracer = self

        if name == "oracle.enumerate":

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    if not tracer.active:
                        yield from items
                        return
                    index = tracer.begin(name)
                    try:
                        item = next(items)
                    except StopIteration:
                        tracer.end(index)
                        return
                    except BaseException as exc:
                        tracer.end(index, type(exc).__name__)
                        raise
                    tracer.end(index)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_name, order = name, None
            if name == "spectral.verify":
                # verify_all solves the base matrix before it lifts; a base
                # of order 2m+1 must not inherit the previous call's lift
                tracer.lifted_order = None
            elif name == "spectral.eigen":
                order = len(args[0])
                lifted = order == tracer.lifted_order
                span_name = "spectral.eigen_lift" if lifted else "spectral.eigen_base"
            elif name == "laplacian.assemble":
                order = args[0].n
            index = tracer.begin(span_name, order)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end(index, type(exc).__name__)
                raise
            tracer.end(index)
            if name == "lifting.lift":
                tracer.lifted_order = result.lifted.n
            return result

        return wrapper

    def install(self) -> None:
        originals = {}
        for module, names in TRACED.items():
            mod = importlib.import_module(f"loopspec.{module}")
            for attr, span_name in names.items():
                fn = getattr(mod, attr)
                originals[id(fn)] = self._wrap(fn, span_name)
        for modname, mod in list(sys.modules.items()):
            if modname != "loopspec" and not modname.startswith("loopspec."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()


def _outermost_time(spans: list[list], names: set[str]) -> float:
    """Summed duration of spans named in ``names`` that have no ancestor
    named in ``names`` (so nested calls of one layer count once)."""
    total = 0.0
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[3]
        while parent is not None and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent is None:
            total += span[2] - span[1]
    return total


def _self_time(spans: list[list], names: set[str]) -> float:
    """Duration of spans named in ``names`` minus that of their direct
    children. Calls are sequential, so children never overlap."""
    total = 0.0
    for span in spans:
        if span[0] in names:
            total += span[2] - span[1]
        parent = span[3]
        if parent is not None and spans[parent][0] in names:
            total -= span[2] - span[1]
    return total


def metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals over every recorded span.

    Times are inclusive (a layer's outermost spans) except the two ``self``
    figures, which subtract the layer's direct child spans.
    """

    def count(name: str, error: str | None = None) -> int:
        return sum(1 for s in spans if s[0] == name and (error is None or s[5] == error))

    eigen = [s for s in spans if s[0] in ("spectral.eigen_base", "spectral.eigen_lift")]
    orders = {s[4] for s in eigen}
    assembled = [s[4] for s in spans if s[0] == "laplacian.assemble"]
    return {
        "spectral.eigen_base_s": _outermost_time(spans, {"spectral.eigen_base"}),
        "spectral.eigen_lift_s": _outermost_time(spans, {"spectral.eigen_lift"}),
        "spectral.eigen_calls": len(eigen),
        "spectral.same_order_calls_mean": len(eigen) / len(orders) if orders else 0.0,
        "spectral.verify_self_s": _self_time(spans, {"spectral.verify"}),
        "spectral.subset_s": _outermost_time(spans, {"spectral.subset"}),
        "spectral.jacobi_errors": count("spectral.eigen_base", "JacobiConvergenceError")
        + count("spectral.eigen_lift", "JacobiConvergenceError"),
        "oracle.charpoly_s": _outermost_time(spans, {"oracle.charpoly"}),
        "oracle.charpoly_calls": count("oracle.charpoly"),
        "oracle.generate_s": _outermost_time(spans, {"oracle.generate"}),
        "oracle.enumerate_s": _outermost_time(spans, {"oracle.enumerate"}),
        "oracle.generation_errors": count("oracle.generate", "GenerationError"),
        "oracle.oracle_errors": count("oracle.charpoly", "OracleError"),
        "graphs.parse_s": _outermost_time(spans, {"graphs.parse"}),
        "graphs.write_s": _outermost_time(spans, {"graphs.write"}),
        "graphs.components_s": _outermost_time(spans, {"graphs.components"}),
        "laplacian.assemble_s": _outermost_time(spans, {"laplacian.assemble"}),
        "laplacian.assemble_bytes_computed": sum(8 * n * n for n in assembled),
        "lifting.lift_s": _outermost_time(spans, {"lifting.lift"}),
        "cli.self_s": _self_time(spans, {"cli.main", "cli.run_sweep"}),
    }
