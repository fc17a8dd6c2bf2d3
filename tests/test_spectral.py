import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import loopspec.lifting as lifting
import loopspec.spectral as spectral
from loopspec import (
    GeneratorConfig,
    Graph,
    JacobiConvergenceError,
    LiftedGraph,
    MATCH_TOL,
    SOLVER_TOL,
    Spectrum,
    degree_upper_bound,
    eigen_sym,
    enumerate_graphs,
    fiedler_lower_bound,
    graph_from_edges,
    laplacian_of,
    lift,
    random_graph,
    spectrum_subset,
    verify_all,
)
from loopspec.graphs import _census
from loopspec.spectral import _degree_bound
from builders import (
    campaign_graphs,
    complete_graph,
    cycle_graph,
    graphs,
    incidence_matrix,
    looped_hub,
    misrouted_spoke,
    path_graph,
    reference_connected_components,
    reference_jacobi,
    reference_lifted_residual,
    reference_lifted_top,
    reference_max_nonloop_degree,
    reference_mirror_certificate,
    residual,
    symmetric_block,
    with_all_loops,
)

GOLDEN_RATIO_PAIR = ((3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2)


# --- eigen_sym ---


def test_worked_example_spectrum():
    g = graph_from_edges(2, [(1, 1), (1, 2)])
    lap = laplacian_of(g)
    spec = eigen_sym(lap)
    assert spec.eigenvalues == pytest.approx(GOLDEN_RATIO_PAIR, abs=1e-10)


def test_diagonal_matrix_is_returned_sorted():
    m = np.diag([5.0, -1.0, 2.0])
    spec = eigen_sym(m)
    assert spec.eigenvalues.tolist() == [-1.0, 2.0, 5.0]
    assert residual(m, spec) == 0.0


def test_one_rotation_diagonalizes_a_two_by_two():
    spec = eigen_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert spec.eigenvalues.tolist() == [1.0, 3.0]


def test_three_path_spectrum():
    spec = eigen_sym(laplacian_of(path_graph(3)))
    assert spec.eigenvalues == pytest.approx([0.0, 1.0, 3.0], abs=1e-10)


def test_zero_and_identity():
    assert eigen_sym(np.zeros((3, 3))).eigenvalues.tolist() == [0.0, 0.0, 0.0]
    assert eigen_sym(np.eye(4)).eigenvalues.tolist() == [1.0] * 4


def test_one_by_one():
    spec = eigen_sym(np.array([[7.0]]))
    assert spec.eigenvalues.tolist() == [7.0]
    assert spec.eigenvectors.tolist() == [[1.0]]


def test_input_validation():
    with pytest.raises(ValueError, match="square"):
        eigen_sym(np.ones((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        eigen_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))
    # inf and NaN entries, and finite entries whose Frobenius norm overflows
    for bad in ([[np.inf, 1.0], [1.0, 0.0]], [[np.nan]], [[1e300, 1e300], [1e300, 0.0]]):
        with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore"):
            eigen_sym(np.array(bad))
    # an object entry that float64 cannot hold
    with pytest.raises(ValueError, match="float64"):
        eigen_sym(np.array([[10**400]], dtype=object))
    # complex input, whose imaginary part a float64 cast would drop: this
    # matrix has eigenvalues 1 +- i, not 1 and 1
    with pytest.raises(ValueError, match="complex"):
        eigen_sym(np.array([[1, 1j], [1j, 1]]))


def test_input_matrix_is_not_mutated():
    m = laplacian_of(path_graph(4)).astype(float)
    before = m.copy()
    eigen_sym(m)
    assert np.array_equal(m, before)


def test_sweep_cap_is_enforced(monkeypatch):
    # LAPACK's failure to converge surfaces as the error the CLI and the
    # campaigns catch
    def failing(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(JacobiConvergenceError, match="did not converge"):
        eigen_sym(laplacian_of(path_graph(3)))


def _assert_close_to_reference(m):
    """``eigen_sym`` against the frozen Jacobi kernel, the second float
    route: eigenvalues within SOLVER_TOL * ||M||_F of it, and a residual and
    a loss of orthogonality within 16 n eps of LAPACK's backward error."""
    m = np.asarray(m, dtype=np.float64)
    spec = eigen_sym(m)
    values, _ = reference_jacobi(m)
    n, fro, eps = len(m), float(np.linalg.norm(m)), float(np.finfo(np.float64).eps)
    lam, v = spec.eigenvalues, spec.eigenvectors
    assert np.abs(lam - values).max(initial=0.0) <= SOLVER_TOL * fro
    assert np.linalg.norm(m @ v - v * lam) <= 16 * n * eps * fro
    assert np.linalg.norm(v.T @ v - np.eye(n)) <= 16 * n * eps


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_close_to_reference_kernel_on_all_small_graphs(n):
    # every graph with n <= 4 (1098 in all) and its lift
    for g in enumerate_graphs(n):
        _assert_close_to_reference(laplacian_of(g))
        _assert_close_to_reference(laplacian_of(lift(g).lifted))


@pytest.mark.parametrize("n", range(2, 13))
def test_close_to_reference_kernel_on_random_graphs(n):
    # criterion 3's orders; the lifts reach order 25
    for seed in range(3):
        g = random_graph(GeneratorConfig(n, 0.4, 0.3, 1000 * n + seed))
        _assert_close_to_reference(laplacian_of(g))
        _assert_close_to_reference(laplacian_of(lift(g).lifted))


@pytest.mark.parametrize("sizes", [range(2, 13), (22, 26, 30)])
def test_close_to_reference_kernel_on_what_verify_all_solves(monkeypatch, sizes):
    # verify_all solves L(G) alone; the lift's block S, whose border carries
    # sqrt(2) entries, is held to the reference too as a float input
    solved, blocks = [], []

    def recording(matrix):
        solved.append(np.array(matrix))
        return eigen_sym(matrix)

    monkeypatch.setattr(spectral, "eigen_sym", recording)
    for n in sizes:
        g = random_graph(GeneratorConfig(n, 0.4, 0.3, 2000 * n))
        verify_all(g)
        blocks.append(symmetric_block(laplacian_of(lift(g).lifted)))
    assert [len(m) for m in solved] == list(sizes)
    assert not all(np.array_equal(m, np.round(m)) for m in blocks)
    for m in solved + blocks:
        _assert_close_to_reference(m)


@st.composite
def float_symmetric(draw):
    """Symmetric float64 matrices of order 1..31 mixing non-integers, exact
    zeros and -0.0, with some rows and columns all zero. The entries come
    from a drawn seed, since drawing up to 961 floats one by one would
    dominate the test's time."""
    n = draw(st.integers(min_value=1, max_value=31))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    u = rng.uniform(-100.0, 100.0, (n, n))
    zeros = rng.random((n, n)) < draw(st.sampled_from([0.0, 0.3, 0.7, 0.95]))
    u[zeros] = np.copysign(0.0, rng.uniform(-1.0, 1.0, zeros.sum()))
    i, j = np.tril_indices(n, -1)
    u[i, j] = u[j, i]
    zero = sorted(draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n // 2 + 1)))
    u[zero, :] = u[:, zero] = 0.0
    return u


@settings(deadline=None, max_examples=40)
@given(float_symmetric())
def test_close_to_reference_kernel_on_float_matrices(m):
    _assert_close_to_reference(m)


# Orders up to 25, the largest lifted order criterion 3 solves (N = 12).
@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=25).flatmap(
        lambda n: arrays(np.int64, (n, n), elements=st.integers(min_value=-9, max_value=9))
    )
)
def test_matches_numpy_on_random_symmetric_matrices(raw):
    m = raw + raw.T
    spec = eigen_sym(m)
    reference = np.linalg.eigvalsh(m.astype(float))
    scale = max(1.0, float(np.abs(reference).max()))
    assert np.abs(spec.eigenvalues - reference).max() <= 1e-10 * scale


@settings(deadline=None)
@given(graphs(max_n=6))
def test_eigenvectors_are_orthonormal_with_small_residual(g):
    lap = laplacian_of(g)
    spec = eigen_sym(lap)
    v = spec.eigenvectors
    assert np.abs(v.T @ v - np.eye(g.n)).max() < 1e-12
    scale = max(1.0, spec.spectral_radius)
    assert residual(lap, spec) <= 1e-10 * scale


# --- closed-form bounds ---


def test_fiedler_lower_bound_values():
    assert fiedler_lower_bound(2) == pytest.approx(2.0)
    assert fiedler_lower_bound(4) == pytest.approx(2.0 - math.sqrt(2.0))
    assert fiedler_lower_bound(5) == pytest.approx(0.381966011, abs=1e-9)
    with pytest.raises(ValueError):
        fiedler_lower_bound(1)


def algebraic_connectivity(g):
    return float(eigen_sym(laplacian_of(g)).eigenvalues[1])


def test_algebraic_connectivity_small_cases():
    assert algebraic_connectivity(path_graph(2)) == pytest.approx(2.0)
    assert algebraic_connectivity(path_graph(3)) == pytest.approx(1.0)
    # disconnected: second eigenvalue is another zero
    split = graph_from_edges(4, [(1, 2), (3, 4)])
    assert algebraic_connectivity(split) == pytest.approx(0.0, abs=1e-12)


@given(st.integers(min_value=2, max_value=12))
def test_paths_attain_the_fiedler_bound(n):
    a = algebraic_connectivity(path_graph(n))
    assert a == pytest.approx(fiedler_lower_bound(n), abs=1e-8)


def test_degree_upper_bound_loopless_and_looped():
    assert degree_upper_bound(cycle_graph(4)) == 4.0
    g = graph_from_edges(2, [(1, 1), (1, 2)])
    # stripped max degree 1, so 2*1 + 1
    assert degree_upper_bound(g) == 3.0
    assert degree_upper_bound(graph_from_edges(1, [(1, 1)])) == 1.0


@given(graphs())
def test_degree_upper_bound_reads_the_stripped_degree_off_the_laplacian(g):
    # the off-diagonal entries of row v count v's non-loop edges, so this
    # reaches d(G°) without the graph's own degree helper
    lap = laplacian_of(g)
    stripped_degree = int(max(np.diagonal(lap) - lap.sum(axis=1)))
    assert degree_upper_bound(g) == 2 * stripped_degree + (g.loop_count > 0)


def test_even_cycle_attains_degree_bound():
    spec = eigen_sym(laplacian_of(cycle_graph(4)))
    assert spec.eigenvalues == pytest.approx([0.0, 2.0, 2.0, 4.0], abs=1e-10)


@given(graphs())
def test_bound_rows_are_the_bound_checks_of_the_report(g):
    # the rows analyze prints: the claims without the lifted inputs
    eigenvalues = eigen_sym(laplacian_of(g)).eigenvalues
    rows = spectral._claims(g, eigenvalues, _census(g))
    checks = [c for c in verify_all(g).checks if c.id in ("eq2", "eq3", "eq8")]
    assert [(r["id"], r["margin"]) for r in rows] == [(c.id, c.margin) for c in checks]
    for r in rows:
        assert list(r) == ["id", "kind", "bound", "value", "margin"]
        gap = r["value"] - r["bound"] if r["kind"] == "lower" else r["bound"] - r["value"]
        assert r["margin"] == gap


# --- spectrum matching ---


def test_subset_match_basic():
    m = spectrum_subset([1.0, 2.0], [1.0, 1.5, 2.0], 1e-9)
    assert m.ok
    assert m.pairs == ((0, 0), (1, 2))
    assert m.worst_gap == 0.0


def test_subset_match_respects_multiplicity():
    assert spectrum_subset([1.0, 1.0], [1.0, 1.0, 2.0], 1e-9).ok
    m = spectrum_subset([1.0, 1.0], [1.0, 2.0], 1e-9)
    assert not m.ok
    assert m.unmatched_index == 1
    assert m.unmatched_gap == pytest.approx(1.0)


def test_subset_match_tolerance_edges():
    assert spectrum_subset([1.0], [1.0 + 5e-9], 1e-8).ok
    assert not spectrum_subset([1.0], [1.0 + 5e-8], 1e-8).ok
    for tol in (math.nan, math.inf, 0.0, -1e-8):
        with pytest.raises(ValueError, match="match_tol"):
            spectrum_subset([1.0], [1.0], tol)


def test_subset_match_empty_candidate_always_ok():
    m = spectrum_subset([], [1.0, 2.0], 1e-9)
    assert m.ok and m.pairs == ()


def test_subset_match_runs_out_of_targets():
    m = spectrum_subset([1.0, 2.0, 3.0], [1.0, 2.0], 1e-9)
    assert not m.ok
    assert m.unmatched_index == 2
    assert m.unmatched_gap == math.inf


# --- verify_all ---


def test_worked_example_report():
    g = graph_from_edges(2, [(1, 1), (1, 2)])
    report = verify_all(g)
    assert report.passed
    assert [c.id for c in report.checks] == ["eq8", "lemma1", "eq6", "eq7", "lift-eigvec"]
    assert report.pseudo_connected
    assert report.loop_count == 1


def test_loopless_connected_report_uses_eq2_and_eq3():
    report = verify_all(path_graph(4))
    assert [c.id for c in report.checks] == ["eq2", "eq3", "eq6", "lift-eigvec"]
    assert report.passed
    assert not report.pseudo_connected


def test_disconnected_loopless_report_skips_eq2():
    g = graph_from_edges(4, [(1, 2), (3, 4)])
    report = verify_all(g)
    assert [c.id for c in report.checks] == ["eq3", "eq6", "lift-eigvec"]
    assert report.passed


def test_single_vertex_report():
    report = verify_all(Graph(1))
    assert [c.id for c in report.checks] == ["eq3", "eq6", "lift-eigvec"]
    assert report.passed


def _oracle_ids(g):
    """The report's check ids in order, from the frozen component BFS and the
    loop set alone."""
    parts = reference_connected_components(g)
    loops = {i for i, j in g.edges if i == j}
    pseudo = {parts.labels[v - 1] for v in loops} == set(range(1, parts.count + 1))
    ids = ["eq2"] if parts.count == 1 and not loops and g.n >= 2 else []
    ids.append("eq8" if loops else "eq3")
    ids += ["lemma1", "eq6", "eq7"] if pseudo else ["eq6"]
    return ids + ["lift-eigvec"]


def test_report_ids_follow_the_oracles_on_the_campaigns():
    # criteria 2 and 3: which claims apply, and their order, on 2098 graphs
    for g in campaign_graphs():
        assert [c.id for c in verify_all(g).checks] == _oracle_ids(g), g


def test_lemma1_and_eq7_fail_at_a_zero_margin(monkeypatch):
    # A single looped vertex has lambda_min = lambda_max = 1 and an exact
    # eigenpair, so a positivity threshold of 1 puts both margins at 0, and
    # "strictly positive" must refuse them.
    monkeypatch.setattr(spectral, "POSITIVITY_TOL", 1.0)
    g = graph_from_edges(1, [(1, 1)])
    checks = {c.id: c for c in verify_all(g).checks}
    assert checks["lemma1"].margin == 0.0 and not checks["lemma1"].passed
    monkeypatch.setattr(spectral, "_lifted_top", lambda lap_lift, lap: 1.0)
    checks = {c.id: c for c in verify_all(g).checks}
    assert checks["eq7"].margin == 0.0 and not checks["eq7"].passed


def test_report_json_shape():
    d = verify_all(graph_from_edges(2, [(1, 1), (1, 2)])).to_json_dict()
    assert set(d) == {"graph", "checks", "tolerances"}
    assert set(d["graph"]) == {"n", "q", "components", "pseudo_connected"}
    assert all(set(c) == {"id", "pass", "margin"} for c in d["checks"])
    assert d["graph"]["q"] == 1


def test_tiny_tolerance_fails_the_match_checks(monkeypatch):
    monkeypatch.setattr(spectral, "MATCH_TOL", 1e-300)
    g = graph_from_edges(2, [(1, 1), (1, 2)])
    report = verify_all(g)
    failed = {c.id for c in report.failed_checks()}
    assert "eq6" in failed
    assert not report.passed


@settings(deadline=None, max_examples=60)
@given(graphs(max_n=5))
def test_every_small_graph_verifies(g):
    assert verify_all(g).passed


@settings(deadline=None, max_examples=40)
@given(graphs(max_n=5))
def test_fully_looped_graphs_are_positive_definite(g):
    report = verify_all(with_all_loops(g))
    ids = {c.id for c in report.checks}
    assert {"lemma1", "eq7"} <= ids
    assert report.passed


def test_spectral_radius_of_empty_spectrum_is_zero():
    spec = eigen_sym(np.zeros((0, 0)))
    assert spec.eigenvalues.shape == (0,)
    assert spec.eigenvectors.shape == (0, 0)
    assert spec.spectral_radius == 0.0


def test_spectral_radius_is_the_largest_magnitude_bitwise():
    # spectral_radius reads the two ends of the ascending eigenvalues; it
    # must equal the largest magnitude over all of them, bit for bit, on
    # indefinite, negative-definite and positive semidefinite matrices, on
    # +-0 alone and on Laplacians
    rng = np.random.default_rng(29)
    matrices = [np.zeros((1, 1)), np.full((1, 1), -0.0), -np.eye(3), np.diag([-5.0, 0.0, 5.0])]
    for n in range(1, 9):
        a = rng.standard_normal((n, n))
        matrices += [a + a.T, -(a @ a.T) - np.eye(n), a @ a.T]
    matrices += [laplacian_of(g) for g in campaign_graphs()[1098::50]]
    bottom_larger = 0
    for m in matrices:
        spec = eigen_sym(m)
        ev = spec.eigenvalues
        expected = float(np.max(np.abs(ev)))
        assert spec.spectral_radius.hex() == expected.hex(), (m, ev)
        bottom_larger += abs(ev[-1]) < expected
    assert bottom_larger >= 8


# --- the mirror split of the lift ---


# Criterion 7 checks the exact mirror certificate on all 1098 graphs with
# n <= 4 and 200 seeded random ones.


def _lifted_top_cases():
    yield from _loopless_lifted_top_cases()
    yield graph_from_edges(1, [(1, 1)])
    # a loopless K_5 beside the path 6-7-8 looped at 8: L(G)'s top eigenvalue 5
    # has eigenvectors on K_5, orthogonal to the loop indicator, so its z_i are
    # 0 while the path's are not, and lambda_max(S) = lambda_N = 5
    yield graph_from_edges(
        8, [(i, j) for i in range(1, 6) for j in range(i + 1, 6)] + [(6, 7), (7, 8), (8, 8)]
    )
    # every loop on K_n: L(G) = (n+1) I - J has a top eigenvalue of
    # multiplicity n-1, and lambda_max(S) = 2n+1 lies above it
    yield from (with_all_loops(complete_graph(n)) for n in range(2, 7))
    for n in range(2, 13):
        yield random_graph(GeneratorConfig(n, 0.4, 0.3, 3000 * n))
    for n in range(22, 31):
        yield random_graph(GeneratorConfig(n, 0.4, 0.3, 3000 * n, require="pseudo_connected"))


def _loopless_lifted_top_cases():
    yield Graph(1)
    yield from (path_graph(5), cycle_graph(6), graph_from_edges(4, [(1, 2), (3, 4)]))


def _lifted_top_tol(n, top):
    """Rounding allowed in lambda_max(S) of order n + 1, the form of the
    16 n eps residual bounds on eigen_sym."""
    return 16 * (n + 1) * np.finfo(float).eps * max(1.0, top)


def test_lifted_top_is_the_largest_eigenvalue_of_s():
    for g in _lifted_top_cases():
        lap_lift = laplacian_of(lift(g).lifted)
        top = spectral._lifted_top(lap_lift, laplacian_of(g))
        reference = float(eigen_sym(symmetric_block(lap_lift)).eigenvalues[-1])
        assert abs(top - reference) <= 1e-12 * reference, (g, top, reference)


def test_lifted_top_of_a_loopless_graph_is_lambda_n():
    # S is L(G) beside a zero border and d = 0, so lambda_max(S) = lambda_N,
    # up to rounding by the two LAPACK routes
    for g in _loopless_lifted_top_cases():
        lap = laplacian_of(g)
        top = spectral._lifted_top(laplacian_of(lift(g).lifted), lap)
        lam_n = eigen_sym(lap).eigenvalues[-1]
        assert abs(top - lam_n) <= _lifted_top_tol(g.n, lam_n), (g, top, lam_n)


def test_lifted_top_equals_the_frozen_block_construction_bitwise(monkeypatch):
    # criteria 2 and 3's graphs and one of each order 22..30: the S that
    # _lifted_top hands to eigvalsh is symmetric_block's, built as S once
    # was, byte for byte, its lower triangle included, and so is
    # lambda_max(S)
    eigvalsh, passed = np.linalg.eigvalsh, []

    def recording(s):
        passed.append(s.copy())
        return eigvalsh(s)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    large = [random_graph(GeneratorConfig(n, 0.4, 0.3, 3000 * n)) for n in range(22, 31)]
    for g in campaign_graphs() + tuple(large):
        lap_lift, lap = laplacian_of(lift(g).lifted), laplacian_of(g)
        top = spectral._lifted_top(lap_lift, lap)
        s, frozen = passed.pop(), symmetric_block(lap_lift)
        assert s.dtype == frozen.dtype and s.tobytes() == frozen.tobytes(), g
        assert top.hex() == float(eigvalsh(frozen)[-1]).hex(), g


def test_lifted_top_stays_near_the_secular_bisection():
    # the bisection on S's secular equation, on L(G)'s eigenpairs, is an
    # independent route to lambda_max(S); criterion 2's graphs and the
    # first 200 of criterion 3's
    for g in campaign_graphs()[: 1098 + 200]:
        lap_lift, lap = laplacian_of(lift(g).lifted), laplacian_of(g)
        top = spectral._lifted_top(lap_lift, lap)
        reference = reference_lifted_top(lap_lift, eigen_sym(lap))
        assert abs(top - reference) <= _lifted_top_tol(g.n, reference), (g, top, reference)


def _assert_lifted_margins_match_the_mirror_basis(g):
    lap_lift, spec = laplacian_of(lift(g).lifted), spectral.eigen_sym(laplacian_of(g))
    gap, worst_res = reference_lifted_residual(lap_lift, spec)
    report = verify_all(g)
    tol = report.tolerances["match_tol_scaled_lifted"]
    lam_min, lam_max = spec.eigenvalues[0], spec.eigenvalues[-1]
    interval = 2.0 * reference_max_nonloop_degree(g) + 1.0 + tol - lam_max
    expected = {
        "eq6": min(tol - gap, interval),
        "eq7": lam_min - gap - report.tolerances["positivity_threshold_lifted"],
        "lift-eigvec": tol - worst_res,
    }
    bound = 16 * (2 * g.n + 1) * np.finfo(float).eps * max(1.0, lam_max)
    lifted = [c for c in report.checks if c.id in expected]
    assert len(lifted) == (3 if report.pseudo_connected else 2)
    for c in lifted:
        assert abs(c.margin - expected[c.id]) <= bound, (g, c, expected[c.id])


def test_lifted_margins_stay_near_the_mirror_basis_residual(monkeypatch):
    # LL times the (2N+1) x N mirror basis is an independent route to the
    # gap and the lifted residuals that verify_all reads off L(G)'s residual
    large = tuple(
        random_graph(GeneratorConfig(n, 0.4, 0.3, 3000 * n, require="pseudo_connected"))
        for n in range(22, 31)
    )
    for g in campaign_graphs() + large:
        _assert_lifted_margins_match_the_mirror_basis(g)

    # One visibly skewed eigenvector among good ones: eta ~ 1e-3 shows
    # Kahan's sqrt(1 - eta) divisor, and one bad column the worst residual.
    def skewed(matrix):
        spec = eigen_sym(matrix)
        vectors = spec.eigenvectors.copy()
        vectors[:, 0] += 1e-3 * vectors[:, 1]
        return Spectrum(spec.eigenvalues, vectors)

    monkeypatch.setattr(spectral, "eigen_sym", skewed)
    _assert_lifted_margins_match_the_mirror_basis(_pseudo_connected_8())


def test_lifted_tolerance_of_the_worked_example_is_the_closed_form():
    # lambda_max(S) of the worked example is (5 + sqrt5)/2, the top of the
    # path on 5 vertices; the 2 ulps allow for the platform LAPACK's
    # rounding in eigvalsh on S, of order 3
    report = verify_all(graph_from_edges(2, [(1, 1), (1, 2)]))
    scaled = report.tolerances["match_tol_scaled_lifted"] / MATCH_TOL
    closed = (5 + math.sqrt(5)) / 2
    assert abs(scaled - closed) <= 2 * math.ulp(closed), (scaled, closed)


class _NoProduct(np.ndarray):
    """An integer matrix that refuses to enter a matrix product."""

    def __matmul__(self, other):
        raise AssertionError("a matrix product with the lifted Laplacian")

    __rmatmul__ = __matmul__


def test_verify_all_solves_no_matrix_of_the_lifted_order(monkeypatch):
    orders, value_orders = [], []
    eigvalsh = np.linalg.eigvalsh

    def recording(matrix):
        orders.append(len(matrix))
        return eigen_sym(matrix)

    def recording_values(matrix):
        value_orders.append(len(matrix))
        return eigvalsh(matrix)

    g = random_graph(GeneratorConfig(9, 0.4, 0.3, seed=3))

    def lifted_without_products(h):
        lap = laplacian_of(h)
        return lap.view(_NoProduct) if h.n == 2 * g.n + 1 else lap

    monkeypatch.setattr(spectral, "eigen_sym", recording)
    monkeypatch.setattr(np.linalg, "eigvalsh", recording_values)
    monkeypatch.setattr(spectral, "laplacian_of", lifted_without_products)
    assert verify_all(g).passed
    assert (orders, value_orders) == ([9], [10])


def _dropped_copy_edge(g):
    """A lift that leaves one non-loop edge out of the second copy."""
    good = lifting.lift(g)
    mid, (i, j) = good.middle, sorted(e for e in g.edges if e[0] != e[1])[0]
    return LiftedGraph(Graph(good.lifted.n, good.lifted.edges - {(i + mid, j + mid)}), mid)


def _dropped_mirrored_pair(g):
    """A lift that leaves one non-loop edge out of both copies: the copy swap
    still maps it onto itself, so only A - B == L(G) rejects it."""
    good = lifting.lift(g)
    mid, (i, j) = good.middle, sorted(e for e in g.edges if e[0] != e[1])[0]
    return LiftedGraph(Graph(good.lifted.n, good.lifted.edges - {(i, j), (i + mid, j + mid)}), mid)


@pytest.mark.parametrize(
    "bad_lift, swap_symmetric",
    [(misrouted_spoke, False), (_dropped_copy_edge, False), (_dropped_mirrored_pair, True)],
    ids=["_misrouted_spoke", "_dropped_copy_edge", "_dropped_mirrored_pair"],
)
def test_a_miswired_lift_fails_the_lifted_claims(monkeypatch, bad_lift, swap_symmetric):
    g = random_graph(GeneratorConfig(8, 0.4, 0.3, seed=11, require="pseudo_connected"))
    lap_lift = laplacian_of(bad_lift(g).lifted)
    perm = np.r_[g.n + 1 : 2 * g.n + 1, g.n, : g.n]
    assert np.array_equal(lap_lift[perm][:, perm], lap_lift) == swap_symmetric
    assert not spectral._mirror_certificate(lap_lift, laplacian_of(g))
    monkeypatch.setattr(spectral, "lift", bad_lift)
    checks = {c.id: c for c in verify_all(g).checks}
    for cid in ("eq6", "lift-eigvec", "eq7"):
        assert not checks[cid].passed and checks[cid].margin == -math.inf, checks[cid]
    for cid in ("eq8", "lemma1"):
        assert checks[cid].passed, checks[cid]


def test_mirror_certificate_equals_the_reference_on_the_campaigns():
    # criteria 2 and 3's graphs, drawn by run_sweep, each with its lift and
    # every miswired lift that applies to it
    for g in campaign_graphs():
        lap = laplacian_of(g)
        builders = [lift]
        if 0 < g.loop_count < g.n:
            builders.append(misrouted_spoke)
        if len(g.edges) > g.loop_count:
            builders += [_dropped_copy_edge, _dropped_mirrored_pair]
        for build in builders:
            lap_lift = laplacian_of(build(g).lifted)
            verdict = spectral._mirror_certificate(lap_lift, lap)
            assert verdict == reference_mirror_certificate(lap_lift, lap), (g, build)
            assert verdict == (build is lift), (g, build)


@pytest.mark.parametrize("part", [None, "A", "B", "column", "row", "lap"])
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_mirror_certificate_equals_the_reference_on_block_matrices(part, data):
    # LL in the mirror block form [[A, c, B], [r, d, r], [B, c, A]] from
    # random integer blocks, neither symmetric nor a Laplacian, with L(G) =
    # A - B. One entry of the second copy's A or B, of its middle column or
    # row, or of L(G) is then perturbed, so each conjunct is the only one
    # that rejects some case. On graph Laplacians the B and middle-row
    # conjuncts follow from the others, so only these matrices reach them.
    n = data.draw(st.integers(min_value=1, max_value=5))
    entries = st.integers(min_value=-9, max_value=9)
    a, b = (data.draw(arrays(np.int64, (n, n), elements=entries)) for _ in range(2))
    c, r = (data.draw(arrays(np.int64, (n, 1), elements=entries)) for _ in range(2))
    d = np.full((1, 1), data.draw(entries))
    lap_lift = np.block([[a, c, b], [r.T, d, r.T], [b, c, a]])
    lap = a - b
    if part is not None:
        view = {
            "A": lap_lift[n + 1 :, n + 1 :],
            "B": lap_lift[n + 1 :, :n],
            "column": lap_lift[n + 1 :, n],
            "row": lap_lift[n, n + 1 :],
            "lap": lap,
        }[part]
        at = np.unravel_index(data.draw(st.integers(0, view.size - 1)), view.shape)
        view[at] += data.draw(entries.filter(bool))
    verdict = spectral._mirror_certificate(lap_lift, lap)
    assert verdict == reference_mirror_certificate(lap_lift, lap)
    assert verdict == (part is None)


def test_mirror_certificate_refuses_every_other_order_without_raising():
    # The frozen certificate returns False there or raises IndexError.
    rng = np.random.default_rng(5)
    for n in range(6):
        for order in set(range(14)) - {2 * n + 1}:
            for fill in (np.zeros, lambda shape: rng.integers(-2, 3, size=shape)):
                lap_lift, lap = fill((order, order)), fill((n, n))
                assert spectral._mirror_certificate(lap_lift, lap) is False, (n, order)
                try:
                    assert not reference_mirror_certificate(lap_lift, lap), (n, order)
                except IndexError:
                    pass


@pytest.mark.parametrize("n, dtype", [(62, np.int8), (63, np.int16), (64, np.int16)])
def test_lifts_across_lifted_order_127_keep_their_entries_and_certificate(n, dtype):
    # Lifted orders 125, 127 and 129: the lift switches from int8 to int16
    # at 127, where the certificate's A - B could reach +-128.
    g = looped_hub(n)
    lap = laplacian_of(g)
    for build in (lift, _dropped_mirrored_pair):
        lifted = build(g).lifted
        lap_lift = laplacian_of(lifted)
        assert lap_lift.dtype == dtype
        e = incidence_matrix(lifted)
        assert np.array_equal(e.T @ e, lap_lift)
        verdict = spectral._mirror_certificate(lap_lift, lap)
        assert verdict == reference_mirror_certificate(lap_lift, lap) == (build is lift)


def test_mirror_certificate_copies_nothing_of_the_lifted_order():
    g = random_graph(GeneratorConfig(400, 0.01, 0.3, seed=1))
    lap, lap_lift = laplacian_of(g), laplacian_of(lift(g).lifted)
    tracemalloc.start()
    try:
        assert spectral._mirror_certificate(lap_lift, lap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < lap_lift.nbytes / 2, (peak, lap_lift.nbytes)


def test_verify_all_holds_few_float_matrices_of_the_base_order():
    # Measured at N = 400 (2 vCPUs, numpy 2.4): a peak of 4.31 N^2 float64s,
    # against 6.52 when LL was int32 and the residual and V^T V - I were
    # formed out of place. It is V, R and one float temporary of order N
    # (3 N^2), L(G) and LL in int16 (1.25 N^2) and O(N + m) besides.
    g = random_graph(GeneratorConfig(400, 0.01, 0.3, seed=1))
    verify_all(g)
    tracemalloc.start()
    try:
        verify_all(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 8 * g.n**2, peak / (8 * g.n**2)


def test_a_perturbed_base_eigenvector_fails_the_lifted_claims(monkeypatch):
    # The lift is certified from L(G)'s own eigenpairs, so an eigenvector
    # that is off by 1e-6 must show in the lifted residual.
    def perturbed(matrix):
        spec = eigen_sym(matrix)
        vectors = spec.eigenvectors.copy()
        vectors[0, 0] += 1e-6
        return Spectrum(spec.eigenvalues, vectors)

    monkeypatch.setattr(spectral, "eigen_sym", perturbed)
    checks = {c.id: c for c in verify_all(_pseudo_connected_8()).checks}
    for cid in ("eq6", "lift-eigvec"):
        assert not checks[cid].passed and checks[cid].margin < 0.0, checks[cid]
    for cid in ("eq8", "lemma1"):
        assert checks[cid].passed, checks[cid]


# --- injected faults ---


def _laplacian_dropping_loops(g):
    return laplacian_of(Graph(g.n, frozenset(e for e in g.edges if e[0] != e[1])))


def _pseudo_connected_8():
    return random_graph(GeneratorConfig(8, 0.4, 0.3, seed=11, require="pseudo_connected"))


def _nonloop_degree_minus_1(g):
    census = _census(g)
    return census._replace(max_nonloop_degree=census.max_nonloop_degree - 1)


# lambda_max of the looped cherry {(1, 1), (1, 2), (1, 3)} is 2 + sqrt3; with
# d(G°) one short, eq8's bound and eq6's looped interval are both 3
_CHERRY_MISS = 3.0 - (2.0 + math.sqrt(3.0))


@pytest.mark.parametrize(
    "name, fault, cases",
    [
        (
            "fiedler_lower_bound",
            lambda n: fiedler_lower_bound(n - 1),
            lambda: [(path_graph(n), {"eq2": "fail"}) for n in (3, 5, 12)],
        ),
        (
            "_degree_bound",
            lambda census: _degree_bound(census) - 1,
            lambda: [
                (cycle_graph(4), {"eq3": "fail"}),
                (graph_from_edges(1, [(1, 1)]), {"eq8": "fail"}),
            ],
        ),
        (
            "laplacian_of",
            _laplacian_dropping_loops,
            lambda: [(_pseudo_connected_8(), {"lemma1": "fail", "eq7": "fail"})],
        ),
        (
            "_census",
            _nonloop_degree_minus_1,
            lambda: [
                # eq6's interval 2 d(G°) + 1 then sits 1 below lambda_max = 4
                (cycle_graph(4), {"eq3": "fail", "eq6": "fail"}),
                # the loopless interval 2 d(G°) + 1 = 3 still holds lambda_max = 3
                (graph_from_edges(3, [(1, 2), (1, 3)]), {"eq3": "fail", "eq6": "pass"}),
                # the looped interval is eq8's bound, with no + 1
                (
                    graph_from_edges(3, [(1, 1), (1, 2), (1, 3)]),
                    {"eq8": _CHERRY_MISS, "eq6": _CHERRY_MISS},
                ),
            ],
        ),
    ],
    ids=[
        "fiedler-bound-of-n-minus-1",
        "degree-bound-minus-1",
        "laplacian-drops-loops",
        "nonloop-degree-minus-1",
    ],
)
def test_an_injected_fault_fails_its_checks(monkeypatch, name, fault, cases):
    # Each case is the tightness witness that kills one plausible bug. It
    # maps check ids to "pass", "fail" (a negative margin) or the margin of
    # a pinned failure; the bound checks it leaves out must still pass.
    monkeypatch.setattr(spectral, name, fault)
    for g, expected in cases():
        checks = {c.id: c for c in verify_all(g).checks}
        assert expected.keys() <= checks.keys(), (g, sorted(checks))
        for cid, outcome in expected.items():
            check = checks[cid]
            if outcome == "pass":
                assert check.passed, (g, check)
                continue
            assert not check.passed and check.margin < 0.0, (g, check)
            if outcome != "fail":
                assert check.margin == pytest.approx(outcome, abs=1e-6), (g, check)
        for cid in {"eq2", "eq3", "eq8"} & checks.keys() - expected.keys():
            assert checks[cid].passed, (g, checks[cid])
