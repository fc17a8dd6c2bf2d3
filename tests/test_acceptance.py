"""Acceptance suite: seven end-to-end criteria, one test and one printed
PASS/FAIL line each (two for criterion 5). Tolerances are fixed here on
purpose; loosening them is a contract change, not a test fix.

Criteria:
1. the two-vertex worked example reproduces exactly, in under a second
2. exhaustive verification of every graph on up to 4 vertices, zero failures
3. a seeded 1000-graph randomized campaign, zero failures
4. quadratic-form positivity along the mean/fluctuation decomposition
5. the closed-form bounds are attained by their witness families, and the
   lift's own eq2 bound is attained by end-looped paths
6. the LAPACK solver agrees with the exact charpoly oracle everywhere small
7. structural identities: Gram assembly, lifted size, middle degree, and
   the exact mirror split of the lifted Laplacian
"""

import math
import time

import numpy as np

import loopspec.cli as cli
import loopspec.spectral as spectral
from loopspec import (
    GeneratorConfig,
    charpoly_eigenvalues,
    degree_upper_bound,
    eigen_sym,
    enumerate_graphs,
    fiedler_lower_bound,
    graph_from_edges,
    is_pseudo_connected,
    laplacian_of,
    lift,
    random_graph,
    spectrum_subset,
    verify_all,
)
from loopspec.cli import run_sweep
from builders import (
    SWEEP_SEED,
    cycle_graph,
    degree,
    degree_adjacency,
    incidence_matrix,
    path_graph,
    residual,
)

MATCH_TOL = 1e-8
FORM_FLOOR = -1e-10
RESIDUAL_TOL = 1e-10

WORKED_EDGES = [(1, 1), (1, 2)]
WORKED_SPECTRUM = [0.381966011, 2.618033989]
WORKED_LIFTED_SPECTRUM = [0.0, 0.381966011, 1.381966011, 2.618033989, 3.618033989]


def _line(ok: bool, label: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    return ok


def test_criterion_1_worked_example():
    t0 = time.monotonic()
    g = graph_from_edges(2, WORKED_EDGES)
    lap = laplacian_of(g)
    spec = eigen_sym(lap)
    lifted = lift(g)
    spec_lift = eigen_sym(laplacian_of(lifted.lifted))
    match = spectrum_subset(spec, spec_lift, MATCH_TOL)
    elapsed = time.monotonic() - t0

    lap_ok = lap.tolist() == [[2, -1], [-1, 1]]
    spec_ok = (
        max(abs(a - b) for a, b in zip(spec.eigenvalues, WORKED_SPECTRUM)) <= MATCH_TOL
    )
    path_ok = lifted.lifted.n == 5 and lifted.lifted.edges == {
        (1, 2),
        (1, 3),
        (3, 4),
        (4, 5),
    }
    lift_spec_ok = (
        max(abs(a - b) for a, b in zip(spec_lift.eigenvalues, WORKED_LIFTED_SPECTRUM))
        <= MATCH_TOL
    )
    bound = degree_upper_bound(g)
    bound_ok = bound == 3.0 and float(spec.eigenvalues[-1]) <= bound
    ok = all(
        [
            lap_ok,
            spec_ok,
            path_ok,
            lift_spec_ok,
            match.ok,
            match.worst_gap <= MATCH_TOL,
            bound_ok,
            elapsed < 1.0,
        ]
    )
    assert _line(ok, f"criterion 1: worked example, {elapsed:.3f}s"), (
        lap_ok,
        spec_ok,
        path_ok,
        lift_spec_ok,
        match,
        bound_ok,
        elapsed,
    )


def test_criterion_2_exhaustive_small_graphs():
    t0 = time.monotonic()
    total = 0
    failures: dict[str, int] = {}
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            total += 1
            for check in verify_all(g).checks:
                if not check.passed:
                    failures[check.id] = failures.get(check.id, 0) + 1
    elapsed = time.monotonic() - t0

    expected_total = sum(2 ** (n * (n + 1) // 2) for n in range(1, 5))
    ok = total == expected_total == 1098 and not failures and elapsed < 30.0
    assert _line(
        ok,
        f"criterion 2: exhaustive n<=4, {total} graphs, "
        f"{sum(failures.values())} check failures, {elapsed:.1f}s",
    ), (total, failures, elapsed)


def test_criterion_3_randomized_sweep():
    t0 = time.monotonic()
    result = run_sweep(
        mode="random",
        n_max=12,
        n_min=2,
        samples=1000,
        seed=SWEEP_SEED,
        p_edge=0.4,
        p_loop=0.3,
    )
    elapsed = time.monotonic() - t0

    reproducible = all(
        "config" in f and "seed" in f["config"] for f in result.failures
    )
    ok = (
        result.total == 1000
        and result.passed == 1000
        and not result.failures
        and reproducible
        and elapsed < 60.0
    )
    assert _line(
        ok,
        f"criterion 3: random sweep seed {SWEEP_SEED}, "
        f"{result.passed}/{result.total} passed, {elapsed:.1f}s",
    ), (result.total, result.passed, result.failures[:3], elapsed)


def test_criterion_4_quadratic_form_positivity():
    rng = np.random.default_rng(SWEEP_SEED + 1)
    graph_seeds = rng.integers(0, 2**63, size=100, dtype=np.uint64)
    sizes = rng.integers(2, 11, size=100)
    worst_form = math.inf
    worst_unit = math.inf
    worst_mean_residual = 0.0
    for gseed, n in zip(graph_seeds, sizes):
        g = random_graph(
            GeneratorConfig(
                n=int(n),
                p_edge=0.4,
                p_loop=0.3,
                seed=int(gseed),
                require="pseudo_connected",
            )
        )
        lap = laplacian_of(g).astype(float)
        vectors = rng.normal(size=(100, g.n))
        ones = np.ones(g.n)
        zeta = vectors @ ones / g.n
        fluct = vectors - np.outer(zeta, ones)
        worst_mean_residual = max(worst_mean_residual, float(np.abs(fluct @ ones).max()))
        forms = np.einsum("ki,ij,kj->k", vectors, lap, vectors)
        worst_form = min(worst_form, float(forms.min()))
        norms = np.linalg.norm(vectors, axis=1)
        unit_forms = forms / norms**2
        worst_unit = min(worst_unit, float(unit_forms.min()))

    ok = (
        worst_mean_residual <= 1e-9
        and worst_form >= FORM_FLOOR
        and worst_unit > 0.0
    )
    assert _line(
        ok,
        "criterion 4: 10000 quadratic forms on pseudo-connected graphs, "
        f"min form {worst_form:.3e}, min unit form {worst_unit:.3e}",
    ), (worst_mean_residual, worst_form, worst_unit)


def test_criterion_5_bound_tightness_witnesses():
    path_gaps = []
    for n in range(2, 13):
        a = float(eigen_sym(laplacian_of(path_graph(n))).eigenvalues[1])
        path_gaps.append(abs(a - fiedler_lower_bound(n)))
    path_ok = max(path_gaps) <= MATCH_TOL

    c4 = cycle_graph(4)
    top = float(eigen_sym(laplacian_of(c4)).eigenvalues[-1])
    cycle_ok = abs(top - degree_upper_bound(c4)) <= MATCH_TOL and degree_upper_bound(c4) == 4.0

    k1 = graph_from_edges(1, [(1, 1)])
    k1_top = float(eigen_sym(laplacian_of(k1)).eigenvalues[-1])
    k1_ok = k1_top == 1.0 and degree_upper_bound(k1) == 1.0

    ok = path_ok and cycle_ok and k1_ok
    assert _line(
        ok,
        f"criterion 5: tightness witnesses, worst path gap {max(path_gaps):.2e}, "
        f"C4 top {top:.9g}, looped K1 top {k1_top:g}",
    ), (path_gaps, top, k1_top)


def test_criterion_5_lift_witnesses(monkeypatch):
    """A corollary of the paper's lift, not a result the paper states: a
    pseudo-connected G lifts to a connected loopless graph on 2N+1 vertices
    whose zero eigenvalue (the constant vector) lies in the lift's symmetric
    block, so eq2 applied to the lift gives
    lambda_min(L(G)) >= 2(1 - cos(pi/(2N+1))). A path with a loop at one end
    lifts to the path on 2N+1 vertices and attains it, so lemma1's and eq7's
    reported margins plus their thresholds must land on the bound."""
    path_gaps, eq7_gaps = [], []
    for n in range(1, 41):
        g = graph_from_edges(n, [(1, 1)] + [(i, i + 1) for i in range(1, n)])
        report = verify_all(g)
        margins = {c.id: c.margin for c in report.checks}
        bound = fiedler_lower_bound(2 * n + 1)
        tols = report.tolerances
        path_gaps.append(margins["lemma1"] + tols["positivity_threshold_base"] - bound)
        eq7_gaps.append(margins["eq7"] + tols["positivity_threshold_lifted"] - bound)
    path_ok = max(abs(d) for d in path_gaps) <= 1e-12
    eq7_ok = -1e-10 <= min(eq7_gaps) and max(eq7_gaps) <= 1e-12

    # The same graphs as criteria 2 and 3: run_sweep draws them, and the
    # pseudo-connected ones are verified here.
    drawn = []
    monkeypatch.setattr(cli, "_verify_one", lambda g: drawn.append(g))
    run_sweep(mode="exhaustive", n_max=4)
    run_sweep(
        mode="random", n_max=12, n_min=2, samples=1000, seed=SWEEP_SEED, p_edge=0.4, p_loop=0.3
    )
    slack = math.inf
    pseudo = [g for g in drawn if is_pseudo_connected(g)]
    for g in pseudo:
        report = verify_all(g)
        lemma1 = next(c for c in report.checks if c.id == "lemma1")
        lam_min = lemma1.margin + report.tolerances["positivity_threshold_base"]
        slack = min(slack, lam_min - fiedler_lower_bound(2 * g.n + 1))
    campaign_ok = len(drawn) == 1098 + 1000 and slack >= -1e-13

    ok = path_ok and eq7_ok and campaign_ok
    assert _line(
        ok,
        f"criterion 5: lifted eq2 bound, end-looped paths N=1..40 worst lemma1 gap "
        f"{max(abs(d) for d in path_gaps):.1e}, eq7 gap {min(eq7_gaps):.1e}; "
        f"min slack {slack:.1e} on {len(pseudo)} pseudo-connected graphs",
    ), (path_gaps, eq7_gaps, len(drawn), slack)


def test_criterion_6_solver_against_oracle():
    worst_gap = 0.0
    worst_residual_ratio = 0.0
    total = 0
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            total += 1
            lap = laplacian_of(g)
            spec = eigen_sym(lap)
            oracle = charpoly_eigenvalues(lap)
            worst_gap = max(
                worst_gap,
                max(abs(a - b) for a, b in zip(spec.eigenvalues, oracle)),
            )
            scale = max(1.0, spec.spectral_radius)
            worst_residual_ratio = max(worst_residual_ratio, residual(lap, spec) / scale)

    ok = total == 1098 and worst_gap <= MATCH_TOL and worst_residual_ratio <= RESIDUAL_TOL
    assert _line(
        ok,
        f"criterion 6: solver vs oracle on {total} graphs, worst gap "
        f"{worst_gap:.2e}, worst residual ratio {worst_residual_ratio:.2e}",
    ), (total, worst_gap, worst_residual_ratio)


def test_criterion_7_structural_identities():
    def structural_ok(g) -> bool:
        e = incidence_matrix(g)
        lap = laplacian_of(g)
        d, a = degree_adjacency(g)
        if not (np.array_equal(e.T @ e, lap) and np.array_equal(d - a, lap)):
            return False
        lifted = lift(g)
        return (
            lifted.lifted.n == 2 * g.n + 1
            and degree(lifted.lifted, lifted.middle) == 2 * g.loop_count
            and spectral._mirror_certificate(laplacian_of(lifted.lifted), lap)
        )

    total = 0
    bad = 0
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            total += 1
            bad += not structural_ok(g)
    rng = np.random.default_rng(SWEEP_SEED + 2)
    for seed, n in zip(
        rng.integers(0, 2**63, size=200, dtype=np.uint64),
        rng.integers(2, 13, size=200),
    ):
        g = random_graph(GeneratorConfig(n=int(n), p_edge=0.4, p_loop=0.3, seed=int(seed)))
        total += 1
        bad += not structural_ok(g)

    ok = bad == 0 and total == 1098 + 200
    assert _line(
        ok, f"criterion 7: structural identities on {total} graphs, {bad} violations"
    ), (total, bad)
