"""The four benchmark workloads and their output validators.

Each workload makes its inputs from the seed in ``setup`` (generation plus
writing the input files), hands out its ops in fixed-composition ``rounds``
so that a run stopped after any whole round has the same input mix, runs one
op in ``run`` (the timed call into loopspec) and judges that op's output in
``check``, outside the timed interval. ``check`` returns a list of problems;
an empty list accepts the output.

Import this module only after ``src/`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from pathlib import Path

import numpy as np

import loopspec
from loopspec import GeneratorConfig, MATCH_TOL, cli

# Program functions are called as loopspec.<name> attributes, never bound to
# names here, so the traced run's wrappers in the package namespace see them.

P_EDGE = 0.4  # acceptance criterion 3's distribution
P_LOOP = 0.3
WORKED_EDGE_LIST = "2 2\n1 1\n1 2\n"


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**63, size=count, dtype=np.uint64)]


def _edge_array(edges) -> np.ndarray:
    """Edges as a sorted (m, 2) int array of canonical 1-based pairs."""
    return np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)


def _cycled_rounds(cases: list, size: int):
    """Consecutive groups of ``size`` cases, repeated from the start forever."""
    return itertools.cycle([cases[r : r + size] for r in range(0, len(cases), size)])


def _laplacian_problems(lap: np.ndarray, n: int, edges: np.ndarray, label: str) -> list[str]:
    """Compare an assembled Laplacian with the one ``edges`` define: -1 at
    every non-loop pair, degree (+1 per loop) on the diagonal, 0 elsewhere."""
    if lap.shape != (n, n):
        return [f"{label}: shape {lap.shape}, expected {(n, n)}"]
    loops = edges[edges[:, 0] == edges[:, 1], 0] - 1
    pairs = edges[edges[:, 0] != edges[:, 1]] - 1
    degree = np.bincount(pairs.ravel(), minlength=n) + np.bincount(loops, minlength=n)
    problems = []
    if not np.array_equal(np.diagonal(lap), degree):
        problems.append(f"{label}: diagonal differs from the degrees")
    if not (np.all(lap[pairs[:, 0], pairs[:, 1]] == -1) and np.all(lap[pairs[:, 1], pairs[:, 0]] == -1)):
        problems.append(f"{label}: an edge entry is not -1")
    if np.count_nonzero(lap) != np.count_nonzero(degree) + 2 * len(pairs):
        problems.append(f"{label}: nonzero entries off the edge pattern")
    return problems


def _reference_laplacian(n: int, edges: np.ndarray) -> np.ndarray:
    lap = np.zeros((n, n))
    loops = edges[edges[:, 0] == edges[:, 1], 0] - 1
    pairs = edges[edges[:, 0] != edges[:, 1]] - 1
    np.add.at(lap, (loops, loops), 1.0)
    for a, b in ((0, 1), (1, 0)):
        np.add.at(lap, (pairs[:, a], pairs[:, a]), 1.0)
        np.add.at(lap, (pairs[:, a], pairs[:, b]), -1.0)
    return lap


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def same_shape(got, want, path: str = "$") -> list[str]:
    """Structural comparison: same keys and values, floats within 1e-8."""
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return [] if abs(got - want) <= 1e-8 else [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{path}: {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [p for k in want for p in same_shape(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in same_shape(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class RandomSweep:
    name = "random-sweep"
    trace_rounds = 8
    pool = 200  # campaign slices; reused cyclically

    # One op is a campaign slice: one graph of every order 2..12, in seeded
    # order, each through run_sweep. The latency of a single graph from this
    # mix is thinly spread around its median, so a per-graph median moves by
    # about 10% between seeds; the slice's does not.

    def setup(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        slices = []
        for _ in range(self.pool):
            sizes = rng.permutation(np.arange(2, 13)).tolist()
            slices.append(list(zip(sizes, _seeds(rng, len(sizes)))))
        return slices

    def rounds(self, inputs):
        return _cycled_rounds(inputs, 1)

    def run(self, case):
        return [
            cli.run_sweep("random", n_max=n, n_min=n, samples=1, seed=seed, p_edge=P_EDGE, p_loop=P_LOOP)
            for n, seed in case
        ]

    def check(self, case, results) -> list[str]:
        return [
            f"sweep n={n} seed={seed}: {json.dumps(result.to_json_dict())}"
            for (n, seed), result in zip(case, results)
            if not (result.total == 1 and result.passed == 1 and not result.failures)
        ]


class OracleCrosscheck:
    name = "oracle-crosscheck"
    trace_rounds = 1
    # A round is acceptance criterion 6 as the test runs it, all 1098 graphs
    # with n <= 4 in enumeration order, followed by `larger` seeded random
    # graphs of each order 5 and 6 (the oracle's cap). No existing campaign
    # runs orders 5 and 6; they are there so a change that scales worse with
    # the order shows. Order-6 ops fall in two cost clusters about 25% apart;
    # 32 of each order per round put the ten ops beyond op_ms_tail well
    # inside the slower cluster while taking about 12% of op time, so
    # ops_per_s and op_ms_p50 stay criterion 6's.
    larger = 32
    pool = 4  # rounds of distinct order-5 and order-6 graphs; reused cyclically

    def setup(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        small = [g for n in range(1, 5) for g in loopspec.enumerate_graphs(n)]
        larger = {
            n: [loopspec.random_graph(GeneratorConfig(n, P_EDGE, P_LOOP, s)) for s in _seeds(rng, self.pool * self.larger)]
            for n in (5, 6)
        }
        return small, larger

    def rounds(self, inputs):
        small, larger = inputs
        for r in itertools.cycle(range(self.pool)):
            part = slice(r * self.larger, (r + 1) * self.larger)
            yield small + larger[5][part] + larger[6][part]

    def run(self, g):
        lap = loopspec.laplacian_of(g)
        return loopspec.eigen_sym(lap).eigenvalues, loopspec.charpoly_eigenvalues(lap)

    def check(self, g, output) -> list[str]:
        solver, oracle = output
        if len(solver) != g.n or len(oracle) != g.n:
            return [f"n={g.n}: {len(solver)} solver and {len(oracle)} oracle eigenvalues"]
        gap = float(np.max(np.abs(np.asarray(solver) - np.asarray(oracle))))
        if not gap <= MATCH_TOL:
            return [f"n={g.n} edges={sorted(g.edges)}: solver and oracle differ by {gap:.3e}"]
        return []


def _report_problems(path: str, n: int, edges: np.ndarray, doc: dict) -> list[str]:
    """Problems in one `loopspec verify` report on a pseudo-connected graph."""
    q = int(np.sum(edges[:, 0] == edges[:, 1]))
    graph = doc["graph"]
    if (graph["n"], graph["q"], graph["pseudo_connected"]) != (n, q, True):
        return [f"{path}: graph summary {doc['graph']} does not match n={n} q={q}"]
    checks = {c["id"]: c for c in doc["checks"]}
    problems = [f"{path}: check {i} failed" for i, c in checks.items() if not c["pass"]]
    if set(checks) != {"eq8", "lemma1", "eq6", "eq7", "lift-eigvec"}:
        problems.append(f"{path}: checks {sorted(checks)}")
        return problems
    # the two margins that are plain eigenvalue arithmetic, against LAPACK
    ref = np.linalg.eigvalsh(_reference_laplacian(n, edges))
    pairs = edges[edges[:, 0] != edges[:, 1]]
    stripped_degree = np.bincount(pairs.ravel(), minlength=n + 1).max()
    want = {
        "lemma1": ref[0] - doc["tolerances"]["positivity_threshold_base"],
        "eq8": 2.0 * stripped_degree + 1.0 - ref[-1],
    }
    for cid, value in want.items():
        if not abs(checks[cid]["margin"] - value) <= 1e-6 * max(1.0, abs(ref[-1])):
            problems.append(f"{path}: {cid} margin {checks[cid]['margin']} != reference {value:.9g}")
    return problems


class LargeVerify:
    name = "large-verify"
    trace_rounds = 3
    # One graph of every order 22..30 per round. A single order gives a
    # latency distribution with one peak per Jacobi sweep count, and its
    # median jumps between peaks; neighbouring orders fill the gaps.
    sizes = tuple(range(22, 31))
    pool = 10  # rounds of distinct files; reused cyclically

    def setup(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        cases = []
        for r in range(self.pool):
            for n, s in zip(self.sizes, _seeds(rng, len(self.sizes))):
                g = loopspec.random_graph(GeneratorConfig(n, P_EDGE, P_LOOP, s, require="pseudo_connected"))
                path = workdir / f"verify-{r}-{n}.el"
                loopspec.write_edge_list(g, path)
                cases.append((str(path), n, _edge_array(g.edges)))
        worked = workdir / "worked.el"
        worked.write_text(WORKED_EDGE_LIST)
        return cases, str(worked)

    def rounds(self, inputs):
        return _cycled_rounds(inputs[0], len(self.sizes))

    def run(self, case):
        return run_cli(["verify", case[0]])

    def check(self, case, output) -> list[str]:
        path, n, edges = case
        code, out, err = output
        if code != 0:
            return [f"{path}: exit {code}: {err.strip()}"]
        try:
            doc = _strict_json(out)
        except ValueError as exc:
            return [f"{path}: output is not strict JSON: {exc}"]
        try:
            return _report_problems(path, n, edges, doc)
        except (KeyError, TypeError) as exc:
            return [f"{path}: malformed report: {exc!r}"]

    def check_worked(self, worked_path: str, golden_path: Path) -> list[str]:
        """The worked example through the CLI against the golden report."""
        code, out, err = run_cli(["verify", worked_path])
        if code != 0:
            return [f"worked example: exit {code}: {err.strip()}"]
        try:
            doc = _strict_json(out)
        except ValueError as exc:
            return [f"worked example: output is not strict JSON: {exc}"]
        return [f"worked example: {p}" for p in same_shape(doc, json.loads(golden_path.read_text()))]


def sparse_pseudo_connected(rng: np.random.Generator, n: int, mean_degree: float) -> np.ndarray:
    """Edges of a seeded sparse graph that is pseudo-connected by
    construction: a random recursive tree, extra uniform pairs up to the mean
    degree, and self-loops with probability P_LOOP (at least one)."""
    child = np.arange(2, n + 1)
    parent = (rng.random(n - 1) * (child - 1)).astype(np.int64) + 1
    codes = np.minimum(parent, child) * (n + 1) + np.maximum(parent, child)
    target = int(n * mean_degree / 2)
    while codes.size < target:
        a, b = rng.integers(1, n + 1, size=(2, 2 * (target - codes.size)))
        extra = (np.minimum(a, b) * (n + 1) + np.maximum(a, b))[a != b]
        fresh = extra[~np.isin(extra, codes)]
        _, first = np.unique(fresh, return_index=True)
        codes = np.concatenate([codes, fresh[np.sort(first)][: target - codes.size]])
    looped = np.flatnonzero(rng.random(n) < P_LOOP) + 1
    if looped.size == 0:
        looped = np.array([1])
    edges = np.concatenate([np.stack([codes // (n + 1), codes % (n + 1)], axis=1), np.stack([looped, looped], axis=1)])
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def lifted_edges(n: int, edges: np.ndarray) -> np.ndarray:
    """The lift's edges, built independently of loopspec.lifting."""
    mid = n + 1
    pairs = edges[edges[:, 0] != edges[:, 1]]
    loops = edges[edges[:, 0] == edges[:, 1], 0]
    spokes = np.concatenate([np.stack([loops, np.full_like(loops, mid)], axis=1),
                             np.stack([np.full_like(loops, mid), loops + mid], axis=1)])
    out = np.concatenate([pairs, pairs + mid, spokes])
    return out[np.lexsort((out[:, 1], out[:, 0]))]


class LiftAssemble:
    name = "lift-assemble"
    trace_rounds = 10
    sizes = (1000, 1500, 2000)
    mean_degree = 10.0
    pool = 4  # rounds of distinct files; reused cyclically

    def setup(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        cases = []
        for r in range(self.pool):
            for n in self.sizes:
                edges = sparse_pseudo_connected(rng, n, self.mean_degree)
                path = workdir / f"lift-{r}-{n}.el"
                path.write_text(f"{n} {len(edges)}\n" + "".join(f"{i} {j}\n" for i, j in edges.tolist()))
                cases.append((str(path), str(workdir / f"lifted-{n}.el"), n, edges))
        return cases

    def rounds(self, inputs):
        return _cycled_rounds(inputs, len(self.sizes))

    def run(self, case):
        path, out_path = case[0], case[1]
        g = loopspec.read_edge_list(path)
        pseudo = loopspec.is_pseudo_connected(g)
        lap = loopspec.laplacian_of(g)
        lifted = loopspec.lift(g)
        lap_lift = loopspec.laplacian_of(lifted.lifted)
        loopspec.write_edge_list(lifted.lifted, out_path)
        return g, pseudo, lap, lifted, lap_lift

    def check(self, case, output) -> list[str]:
        _, out_path, n, edges = case
        g, pseudo, lap, lifted, lap_lift = output
        problems = []
        if g.n != n or not np.array_equal(_edge_array(g.edges), edges):
            problems.append(f"n={n}: parsed graph differs from the written input")
        if pseudo is not True:
            problems.append(f"n={n}: is_pseudo_connected said {pseudo!r} on a pseudo-connected graph")
        up = lifted_edges(n, edges)
        if lifted.middle != n + 1 or lifted.lifted.n != 2 * n + 1:
            problems.append(f"n={n}: lifted order {lifted.lifted.n}, middle {lifted.middle}")
        elif not np.array_equal(_edge_array(lifted.lifted.edges), up):
            problems.append(f"n={n}: lifted edges differ from the mirrored construction")
        problems += _laplacian_problems(lap, n, edges, f"n={n} base Laplacian")
        problems += _laplacian_problems(lap_lift, 2 * n + 1, up, f"n={n} lifted Laplacian")
        q = int(np.sum(edges[:, 0] == edges[:, 1]))
        if lap_lift.shape == (2 * n + 1, 2 * n + 1) and lap_lift[n, n] != 2 * q:
            problems.append(f"n={n}: lifted middle diagonal {lap_lift[n, n]} != 2q = {2 * q}")
        written = loopspec.read_edge_list(out_path)
        if written != lifted.lifted:
            problems.append(f"n={n}: written lifted edge list does not re-parse to lift(g).lifted")
        return problems


WORKLOADS = {w.name: w for w in (RandomSweep(), OracleCrosscheck(), LargeVerify(), LiftAssemble())}
