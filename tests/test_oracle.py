import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopspec import (
    MATCH_TOL,
    GenerationError,
    GeneratorConfig,
    OracleError,
    charpoly_eigenvalues,
    cli,
    eigen_sym,
    enumerate_graphs,
    graph_from_edges,
    is_pseudo_connected,
    laplacian_of,
    oracle,
    random_graph,
)
from loopspec.graphs import connected_components
from loopspec.oracle import RETRY_CAP, _meets
import builders
from builders import (
    SWEEP_SEED,
    campaign_graphs,
    complete_graph,
    cycle_graph,
    reference_charpoly,
    reference_charpoly_eigenvalues,
    reference_count,
    reference_enumerate_graphs,
    reference_random_graph,
    with_all_loops,
)


# --- generator config ---


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 0},
        {"p_edge": -0.1},
        {"p_edge": 1.5},
        {"p_loop": 2.0},
        {"seed": -1},
        {"seed": 2**64},
        {"require": "acyclic"},
    ],
)
def test_config_validation(kwargs):
    base = {"n": 3, "p_edge": 0.5, "p_loop": 0.5, "seed": 7}
    base.update(kwargs)
    with pytest.raises(ValueError):
        GeneratorConfig(**base)


def test_config_json_round_trip():
    cfg = GeneratorConfig(n=4, p_edge=0.25, p_loop=0.75, seed=99, require="connected")
    assert GeneratorConfig(**cfg.to_json_dict()) == cfg


# --- random_graph ---


def test_same_seed_same_graph():
    cfg = GeneratorConfig(n=8, p_edge=0.4, p_loop=0.3, seed=1234)
    assert random_graph(cfg) == random_graph(cfg)


def test_different_seeds_usually_differ():
    a = random_graph(GeneratorConfig(n=8, p_edge=0.5, p_loop=0.5, seed=1))
    b = random_graph(GeneratorConfig(n=8, p_edge=0.5, p_loop=0.5, seed=2))
    assert a != b


def test_probability_one_gives_complete_with_all_loops():
    g = random_graph(GeneratorConfig(n=4, p_edge=1.0, p_loop=1.0, seed=5))
    assert len(g.edges) == 4 * 5 // 2
    assert g.loop_count == 4


def test_probability_zero_gives_edgeless():
    g = random_graph(GeneratorConfig(n=4, p_edge=0.0, p_loop=0.0, seed=5))
    assert g.edges == frozenset()


def list_random_graph(cfg):
    """The generator as first written, on a Python list of vertex pairs;
    returns the graph and the number of draws it took."""
    rng = np.random.default_rng(cfg.seed)
    pairs = [(i, j) for i in range(1, cfg.n + 1) for j in range(i + 1, cfg.n + 1)]
    for attempt in range(1, RETRY_CAP + 1):
        pair_draws = rng.random(len(pairs))
        loop_draws = rng.random(cfg.n)
        edges = [pair for pair, u in zip(pairs, pair_draws) if u < cfg.p_edge]
        edges.extend((v, v) for v in range(1, cfg.n + 1) if loop_draws[v - 1] < cfg.p_loop)
        g = graph_from_edges(cfg.n, edges)
        if _meets(g, cfg.require):
            return g, attempt
    raise AssertionError("retry cap reached")


def test_seeded_graphs_match_the_list_based_generator():
    attempts = []
    for cfg in [
        GeneratorConfig(n=1, p_edge=0.5, p_loop=0.5, seed=0),
        GeneratorConfig(n=8, p_edge=0.4, p_loop=0.3, seed=1234),
        GeneratorConfig(n=60, p_edge=0.05, p_loop=0.1, seed=2**64 - 1),
        GeneratorConfig(n=300, p_edge=0.01, p_loop=0.0, seed=99),
        GeneratorConfig(n=6, p_edge=0.3, p_loop=0.2, seed=8, require="connected"),
        *(
            GeneratorConfig(n=12, p_edge=0.1, p_loop=0.1, seed=s, require="pseudo_connected")
            for s in range(5)
        ),
    ]:
        expected, tries = list_random_graph(cfg)
        assert random_graph(cfg) == expected
        attempts.append(tries)
    assert max(attempts) > 1  # the rejection retries draw the same stream


def test_random_graph_equals_frozen_reference_on_criterion_3_configs():
    drawn = list(
        cli._campaign(
            "random", n_max=12, samples=1000, seed=SWEEP_SEED, n_min=2, p_edge=0.4, p_loop=0.3
        )
    )
    assert len(drawn) == 1000
    for g, witness in drawn:
        cfg = GeneratorConfig(**witness()["config"])
        assert g == reference_random_graph(cfg), cfg


def test_random_graph_equals_frozen_reference_on_pseudo_connected_large_orders():
    # the sparse draws are rejected and redrawn up to a few hundred times
    seeds = iter(np.random.default_rng(SWEEP_SEED + 3).integers(0, 2**63, size=54, dtype=np.uint64).tolist())
    for n in range(22, 31):
        for p_edge, p_loop in ((0.4, 0.3), (0.08, 0.05)):
            for seed in itertools.islice(seeds, 3):
                cfg = GeneratorConfig(n, p_edge, p_loop, seed, require="pseudo_connected")
                assert random_graph(cfg) == reference_random_graph(cfg), cfg


def test_unsatisfiable_constraint_raises_with_seed_in_message():
    cfg = GeneratorConfig(
        n=2, p_edge=0.0, p_loop=0.0, seed=31337, require="pseudo_connected"
    )
    with pytest.raises(GenerationError, match="31337"):
        random_graph(cfg)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_constraints_hold_when_satisfiable(seed):
    g = random_graph(
        GeneratorConfig(n=5, p_edge=0.3, p_loop=0.3, seed=seed, require="pseudo_connected")
    )
    assert is_pseudo_connected(g)
    h = random_graph(
        GeneratorConfig(n=5, p_edge=0.3, p_loop=0.3, seed=seed, require="connected")
    )
    assert connected_components(h).count == 1


# --- enumerate_graphs ---


@pytest.mark.parametrize("n,count", [(1, 2), (2, 8), (3, 64)])
def test_enumeration_counts(n, count):
    assert sum(1 for _ in enumerate_graphs(n)) == count


def test_enumeration_has_no_duplicates():
    seen = {g.edges for g in enumerate_graphs(3)}
    assert len(seen) == 64


def test_enumeration_order_is_fixed():
    first, second = list(enumerate_graphs(1))
    assert first.edges == frozenset()
    assert second.edges == {(1, 1)}
    last = list(enumerate_graphs(2))[-1]
    assert last.edges == {(1, 1), (1, 2), (2, 2)}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumeration_equals_frozen_reference(n):
    assert list(enumerate_graphs(n)) == list(reference_enumerate_graphs(n))


def test_enumerated_graphs_share_their_pair_tuples():
    holders = [g for g in enumerate_graphs(3) if (1, 2) in g.edges]
    first, second = (next(e for e in g.edges if e == (1, 2)) for g in holders[:2])
    assert len(holders) == 32 and first is second


def test_enumeration_caps():
    with pytest.raises(ValueError, match="capped"):
        next(enumerate_graphs(6))
    with pytest.raises(ValueError):
        next(enumerate_graphs(0))


# --- charpoly_eigenvalues ---


def test_oracle_worked_example():
    roots = charpoly_eigenvalues(np.array([[2, -1], [-1, 1]]))
    exact = [(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2]
    assert roots == pytest.approx(exact, abs=1e-11)


def test_oracle_integer_roots_are_exact():
    lap = laplacian_of(graph_from_edges(3, [(1, 2), (2, 3)]))
    assert charpoly_eigenvalues(lap) == [0.0, 1.0, 3.0]


def test_oracle_zero_matrix():
    assert charpoly_eigenvalues(np.zeros((3, 3), dtype=int)) == [0.0, 0.0, 0.0]


def test_oracle_repeated_integer_eigenvalues():
    assert charpoly_eigenvalues(np.diag([2, 2, 5])) == [2.0, 2.0, 5.0]
    assert charpoly_eigenvalues(laplacian_of(cycle_graph(4))) == [0.0, 2.0, 2.0, 4.0]


def test_oracle_repeated_irrational_eigenvalues():
    block = np.array([[2, -1], [-1, 1]])
    m = np.zeros((4, 4), dtype=int)
    m[:2, :2] = block
    m[2:, 2:] = block
    roots = charpoly_eigenvalues(m)
    lo = (3 - math.sqrt(5)) / 2
    hi = (3 + math.sqrt(5)) / 2
    assert roots == pytest.approx([lo, lo, hi, hi], abs=1e-11)


def test_oracle_input_validation():
    with pytest.raises(ValueError, match="order"):
        charpoly_eigenvalues(np.eye(31, dtype=int))
    with pytest.raises(ValueError, match="symmetric"):
        charpoly_eigenvalues(np.array([[1, 2], [0, 1]]))
    for bad in ([[0.5]], [[np.inf]], [[-np.inf, 1], [1, 0]], [[np.nan]]):
        with pytest.raises(ValueError, match="integer"):
            charpoly_eigenvalues(np.array(bad))
    # object arrays: a big int beside inf, and NaN, which fails == itself
    for bad in ([[10**30, math.inf], [math.inf, 0]], [[math.nan]]):
        with pytest.raises(ValueError, match="integer"):
            charpoly_eigenvalues(np.array(bad, dtype=object))


def test_oracle_detects_roots_outside_bracket():
    with pytest.raises(OracleError):
        charpoly_eigenvalues(np.array([[-5]]))
    with pytest.raises(OracleError):
        charpoly_eigenvalues(np.array([[100]]))


@pytest.mark.parametrize(
    "m,expected",
    [([[-1]], [-1.0]), ([[4]], [4.0]), ([[0, 1], [1, 0]], [-1.0, 1.0])],
)
def test_oracle_accepts_eigenvalues_at_the_bracket_ends(m, expected):
    # the bracket [-1, 2n+2] is closed, and its ends are returned exactly
    assert charpoly_eigenvalues(np.array(m)) == expected


@st.composite
def symmetric_integer_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    upper = draw(
        st.lists(
            st.integers(min_value=-3, max_value=4),
            min_size=n * (n + 1) // 2,
            max_size=n * (n + 1) // 2,
        )
    )
    m = np.zeros((n, n), dtype=int)
    m[np.triu_indices(n)] = upper
    return m + np.triu(m, 1).T


@given(symmetric_integer_matrices())
@settings(max_examples=150, deadline=None)
def test_oracle_matches_lapack_or_rejects_out_of_bracket(m):
    n = len(m)
    ref = np.linalg.eigvalsh(m)
    try:
        roots = charpoly_eigenvalues(m)
    except OracleError:
        # only a spectrum reaching past [-1, 2n+2] may be rejected; LAPACK
        # cannot tell an eigenvalue on a bracket end from one just past it
        assert ref[0] < -1 + 1e-9 or ref[-1] > 2 * n + 2 - 1e-9
        return
    assert roots == pytest.approx(ref.tolist(), abs=1e-9)


def _outcome(f, m):
    try:
        return f(m)
    except (ValueError, OracleError) as e:
        return type(e), str(e)


@given(symmetric_integer_matrices())
@settings(max_examples=150, deadline=None)
def test_oracle_equals_frozen_reference_on_symmetric_matrices(m):
    # equal lists, or the same error with the same message
    assert _outcome(charpoly_eigenvalues, m) == _outcome(reference_charpoly_eigenvalues, m)


def _seeded_graphs():
    for n in (5, 6):
        for i, p_edge in enumerate([0.2, 0.4, 0.6, 0.8, 1.0] * 8):
            yield laplacian_of(random_graph(GeneratorConfig(n, p_edge, 0.3, 100 * n + i)))
    # a repeated irrational root of multiplicity 3: three copies of [[2,-1],[-1,1]]
    yield np.kron(np.eye(3, dtype=int), np.array([[2, -1], [-1, 1]]))


def test_oracle_equals_frozen_reference_on_seeded_graphs():
    for m in _seeded_graphs():
        assert charpoly_eigenvalues(m) == reference_charpoly_eigenvalues(m)


def test_oracle_equals_frozen_reference_on_criterion_6_with_fewer_counts(monkeypatch):
    """All 1098 graphs with n <= 4 give lists equal to the count-only
    reference, with at least 5x fewer Descartes counts: a return to counting
    at every bisection point fails here."""
    calls = {"oracle": 0, "reference": 0}

    def counted(side, count):
        def wrapped(*args):
            calls[side] += 1
            return count(*args)

        return wrapped

    monkeypatch.setattr(oracle, "_count", counted("oracle", oracle._count))
    monkeypatch.setattr(builders, "reference_count", counted("reference", reference_count))
    laps = [laplacian_of(g) for n in range(1, 5) for g in enumerate_graphs(n)]
    assert len(laps) == 1098
    got = [charpoly_eigenvalues(lap) for lap in laps]
    assert calls["reference"] == 0
    assert got == [reference_charpoly_eigenvalues(lap) for lap in laps]
    assert 0 < 5 * calls["oracle"] <= calls["reference"]


@given(symmetric_integer_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_count_equals_frozen_reference_at_both_scales(m, data):
    # the bracket counts pass p itself (scale 0), the bisection the list
    # charpoly_eigenvalues scales once by 2^(_SCALE (n - i))
    poly = reference_charpoly(oracle._as_integer_matrix(m))
    n = len(poly) - 1
    for scale in (0, oracle._SCALE):
        num = data.draw(st.integers(-(2 * n + 3) << scale, (2 * n + 3) << scale))
        scaled = [c << (scale * (n - i)) for i, c in enumerate(poly)]
        assert oracle._count(scaled, num) == reference_count(poly, num, scale)


@given(symmetric_integer_matrices())
@settings(max_examples=150, deadline=None)
def test_charpoly_equals_frozen_nested_sum_reference(m):
    entries = oracle._as_integer_matrix(m)
    assert oracle._charpoly(entries) == reference_charpoly(entries)


def test_charpoly_equals_frozen_nested_sum_reference_on_criterion_6():
    laps = [laplacian_of(g) for n in range(1, 5) for g in enumerate_graphs(n)]
    assert len(laps) == 1098
    for lap in laps:
        entries = oracle._as_integer_matrix(lap)
        assert oracle._charpoly(entries) == reference_charpoly(entries)
    # K30 with every loop has coefficients far past 2^63: the object-array
    # products must stay exact where int64 would wrap
    entries = oracle._as_integer_matrix(laplacian_of(with_all_loops(complete_graph(30))))
    poly = oracle._charpoly(entries)
    assert poly == reference_charpoly(entries)
    assert max(map(abs, poly)) > 2**63


@pytest.fixture
def horner_points(monkeypatch):
    """Every point at which ``oracle._horner`` evaluates, one per pass."""
    points = []
    horner = oracle._horner

    def recorded(scaled, x):
        points.append(x)
        return horner(scaled, x)

    monkeypatch.setattr(oracle, "_horner", recorded)
    return points


def test_refinement_takes_at_most_an_eighth_of_the_passes_of_bisection(
    monkeypatch, horner_points
):
    """Every root handed to ``_refine`` on criterion 6's graphs and the seeded
    order-5/6 graphs takes at most 2 log2(step) Horner passes, and all of
    them together at most an eighth of what bisecting each one down to the
    2^-40 grid takes (about an eighteenth when measured): a return to
    bisection, a Newton step that stalls on one side of the root, or a lost
    float seed fails here."""
    per_root = []
    refine = oracle._refine

    def recorded(scaled, lo, hi, sign_lo, x):
        before = len(horner_points)
        floor, exact = refine(scaled, lo, hi, sign_lo, x)
        per_root.append((hi - lo, floor - lo, exact, len(horner_points) - before))
        return floor, exact

    monkeypatch.setattr(oracle, "_refine", recorded)
    laps = [laplacian_of(g) for n in range(1, 5) for g in enumerate_graphs(n)]
    for m in laps + list(_seeded_graphs()):
        charpoly_eigenvalues(m)
    used = bisected = 0
    for step, offset, exact, passes in per_root:
        log2_step = step.bit_length() - 1
        assert step == 1 << log2_step
        assert passes <= 2 * log2_step
        used += passes
        # bisection stops at the pass whose midpoint is the root: the one
        # with the root's lowest set bit above the bracket's low end
        bisected += log2_step - (offset & -offset).bit_length() + 1 if exact else log2_step
    assert len(per_root) > 2000
    assert 8 * used <= bisected


def test_refinement_bisects_where_the_derivative_vanishes(horner_points):
    # q(x) = (x - 8)^3 - 5 has one simple root, 8 + 5^(1/3) = 9.71, in
    # (0, 16), and q'(8) = 0 at the first point, the midpoint: the next
    # point must be the midpoint 12 of (8, 16), not a division by zero
    assert oracle._refine([-517, 192, -24, 1], 0, 16, -1, 8) == (9, False)
    assert horner_points[:2] == [8, 12]


def test_refinement_costs_at_most_twice_bisection_where_newton_crawls(horner_points):
    # q(x) = (x - c)^5 + (x - c) - 1 has one simple root in (c, c + 1), but
    # from afar Newton closes only a fifth of the distance to it per pass:
    # about 120 passes across (0, 2^41) unless the budget hands the rest
    # of the bracket to bisection within 2 * 41
    c = 3 * 2**39 + 12345
    q = [math.comb(5, i) * (-c) ** (5 - i) for i in range(6)]
    q[0] -= c + 1
    q[1] += 1
    assert oracle._refine(q, 0, 2**41, -1, 2**40) == (c, False)
    assert len(horner_points) <= 2 * 41


@pytest.mark.parametrize("x", [0, 16, -1, 17])
def test_refinement_refuses_a_first_point_outside_the_open_bracket(horner_points, x):
    # q(x) = (x - 8)^3 - 5 on (0, 16), as above: a first point on or past a
    # bracket end would move that end onto or past the other, and the
    # midpoints of an inverted bracket never end the loop
    with pytest.raises(OracleError, match=r"outside the bracket \(0, 16\)"):
        oracle._refine([-517, 192, -24, 1], 0, 16, -1, x)
    assert horner_points == []


def _refinements(m):
    """The (scaled, lo, hi, sign_lo, x) of every ``_refine`` call that
    ``charpoly_eigenvalues(m)`` makes."""
    calls = []
    refine = oracle._refine

    def recorded(*args):
        calls.append(args)
        return refine(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_refine", recorded)
        try:
            charpoly_eigenvalues(m)
        except OracleError:
            pass
    return calls


@given(symmetric_integer_matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_refinement_returns_the_same_cell_from_every_start(m, data):
    # the float seed only picks the first exact pass: any start strictly
    # inside the bracket, the ends' neighbours included, gives the same answer
    for scaled, lo, hi, sign_lo, x in _refinements(m):
        assert lo < x < hi
        expected = oracle._refine(scaled, lo, hi, sign_lo, (lo + hi) >> 1)
        for start in (lo + 1, hi - 1, data.draw(st.integers(lo + 1, hi - 1))):
            assert oracle._refine(scaled, lo, hi, sign_lo, start) == expected


def test_seed_is_the_float_root_or_else_the_midpoint():
    one = 1 << oracle._SCALE
    # x^2 - 2 on (1, 2): float Newton from 3/2 lands on sqrt(2)'s grid point
    assert abs(oracle._seed([1.0, 0.0, -2.0], one, 2 * one) - math.sqrt(2) * one) <= 1
    # x^3 - x on (1/16, 17/16): p' is nearly 0 at the midpoint 9/16, so the
    # first step throws the iterate below the bracket, toward the root -1
    lo, hi = one >> 4, one + (one >> 4)
    assert oracle._seed([1.0, 0.0, -1.0, 0.0], lo, hi) == (lo + hi) >> 1
    # x^2 - 1e308 on (1, 2): the iterate overflows to inf, then NaN
    assert oracle._seed([1.0, 0.0, -1e308], one, 2 * one) == 3 * one >> 1


def test_oracle_agrees_with_solver_on_all_tiny_graphs():
    """Full cross-check at n <= 3; the n <= 4 version is an acceptance test."""
    for n in range(1, 4):
        for g in enumerate_graphs(n):
            lap = laplacian_of(g)
            solved = eigen_sym(lap).eigenvalues
            oracle = charpoly_eigenvalues(lap)
            assert max(abs(a - b) for a, b in zip(solved, oracle)) <= 1e-8


def test_oracle_agrees_with_solver_at_every_order_a_campaign_verifies():
    """Criterion 3's 1000 graphs (n = 2..12), as run_sweep draws them, and
    one graph of each order 22..30, the orders of the large-verify
    benchmark: the exact oracle shares no code with eigen_sym, so every
    graph a campaign verifies is also decided by a second route."""
    drawn = list(campaign_graphs()[1098:])
    drawn += [random_graph(GeneratorConfig(n, 0.4, 0.3, SWEEP_SEED + n)) for n in range(22, 31)]
    for g in drawn:
        lap = laplacian_of(g)
        solved, exact = eigen_sym(lap).eigenvalues, charpoly_eigenvalues(lap)
        gap = max(abs(a - b) for a, b in zip(solved, exact))
        assert gap <= MATCH_TOL, (g, gap)
