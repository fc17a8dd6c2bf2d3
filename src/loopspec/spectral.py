"""Dense symmetric eigensolver and the spectral claim verifiers.

The solver is LAPACK's symmetric driver through ``np.linalg.eigh``; the
cyclic Jacobi kernel it replaced survives in the tests as a second float
route, and the exact charpoly oracle (:mod:`loopspec.oracle`) as a third.
On top of it sit the closed-form bounds, the positivity test for
pseudo-connected Laplacians, the lifted-spectrum inclusion check, and
``verify_all``, which runs every claim applicable to a graph and returns a
structured report.

The lifted Laplacian LL is never solved whole and enters no matrix product:
its mirror split (see :mod:`loopspec.lifting`) gives spec(LL) = spec(L(G)) U
spec(S), S of order N + 1. ``verify_all`` checks that split exactly in
integers, and the certificate carries L(G)'s residual to the lift. It solves
L(G) and takes lambda_max(S), which scales the lifted tolerances, from
LAPACK's ``eigvalsh`` on S.

Check identifiers used in reports (fixed wire format): ``eq2``, ``eq3``,
``eq8``, ``lemma1``, ``eq6``, ``eq7`` and ``lift-eigvec``. :func:`_claims`
defines each one's statement, applicability, margin and pass rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph, _Census, _census
from .laplacian import laplacian_of
from .lifting import lift

__all__ = [
    "SOLVER_TOL",
    "MATCH_TOL",
    "POSITIVITY_TOL",
    "JacobiConvergenceError",
    "Spectrum",
    "SubsetMatch",
    "CheckResult",
    "VerificationReport",
    "eigen_sym",
    "fiedler_lower_bound",
    "degree_upper_bound",
    "spectrum_subset",
    "verify_all",
]

SOLVER_TOL = 1e-12      # eigenvalue accuracy eigen_sym is tested to, relative to ||M||_F
MATCH_TOL = 1e-8        # absolute eigenvalue match tolerance, scaled by max(1, rho)
POSITIVITY_TOL = 1e-8   # positive-definiteness threshold, scaled by max(1, rho)


class JacobiConvergenceError(RuntimeError):
    """The eigensolver did not converge. The name dates from the Jacobi
    solver and is kept for the callers that catch it: ``cli.main``,
    ``cli._verify_one`` and ``perfbench/run.py``, which counts it as a
    program error."""


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition of a symmetric matrix: ``eigenvalues``
    ascending, and column j of the orthonormal ``eigenvectors`` paired with
    eigenvalue j."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def spectral_radius(self) -> float:
        """The larger magnitude of the two ends of the ascending eigenvalues,
        ``np.max(np.abs(ev))`` bit for bit without its array passes."""
        ev = self.eigenvalues
        return max(abs(float(ev[0])), abs(float(ev[-1]))) if ev.size else 0.0


def _frobenius(m: np.ndarray) -> float:
    """||m||_F by ``np.linalg.norm``'s own route for a real matrix, one dot
    of the elements in memory order with themselves, without its wrapper."""
    flat = m.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def eigen_sym(matrix: np.ndarray) -> Spectrum:
    """Eigendecomposition of a real symmetric matrix by LAPACK's symmetric
    driver, ``np.linalg.eigh`` (Anderson et al., *LAPACK Users' Guide*).

    ``eigh`` reads one triangle only, so the input must be exactly symmetric;
    any other matrix would be solved as a different one. Nothing downstream
    depends on how the eigenpairs were found: ``verify_all`` certifies the
    lift from their actual residual.

    Raises ``ValueError`` for non-square, complex or (exactly) non-symmetric
    input, and for input with an infinite or NaN entry, an entry with no
    float64 value, or a Frobenius norm that overflows to infinity. A LAPACK
    failure to converge raises :class:`JacobiConvergenceError`.
    """
    raw = np.asarray(matrix)
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {raw.shape}")
    if np.iscomplexobj(raw):  # astype would drop the imaginary part
        raise ValueError(f"expected a real matrix, got complex dtype {raw.dtype}")
    try:
        m = raw.astype(np.float64)
    except (OverflowError, TypeError) as exc:  # object entries: 10**400, None, 1j
        raise ValueError(f"matrix has an entry with no finite float64 value ({exc})") from exc
    fro = _frobenius(m)
    if not math.isfinite(fro):  # before the symmetry test, which NaN fails
        raise ValueError(f"matrix has a non-finite entry or Frobenius norm ({fro})")
    if not (raw == raw.T).all():  # np.array_equal's test, the shapes being equal
        raise ValueError("matrix is not symmetric")
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise JacobiConvergenceError(f"eigh did not converge ({exc})") from exc
    return Spectrum(values, vectors)


def fiedler_lower_bound(n: int) -> float:
    """Lower bound 2(1 - cos(pi/n)) on the algebraic connectivity of a
    connected loopless graph with n vertices; attained by path graphs."""
    if n < 2:
        raise ValueError(f"bound needs n >= 2, got {n}")
    return 2.0 * (1.0 - math.cos(math.pi / n))


def degree_upper_bound(g: Graph) -> float:
    """Upper bound on the largest Laplacian eigenvalue.

    2 d(G°) for a loopless graph and 2 d(G°) + 1 with loops, where d(G°) is
    the maximum degree of the loop-stripped graph (for a loopless graph, its
    own maximum degree).
    """
    return _degree_bound(_census(g))


def _degree_bound(census: _Census) -> float:
    """:func:`degree_upper_bound` from the graph's census."""
    return 2.0 * census.max_nonloop_degree + (1.0 if census.loops else 0.0)


def _claims(
    g: Graph, eigenvalues: np.ndarray, census: _Census, lifted: tuple | None = None
) -> list[dict]:
    """Every claim that applies to ``g``, one row each in report order.

    * ``eq2`` -- connected loopless graphs with >= 2 vertices: the algebraic
      connectivity is at least :func:`fiedler_lower_bound`.
    * ``eq3`` -- loopless graphs: lambda_max is at most
      :func:`degree_upper_bound`. ``eq8`` replaces it when loops are present.
    * ``lemma1`` -- pseudo-connected graphs: lambda_min exceeds the base
      positivity threshold, so L(G) is positive definite.
    * ``eq6`` -- every graph (a loopless lift just has an isolated middle
      vertex): the certified gap is within the lifted tolerance, so the base
      spectrum embeds in the lifted one, and lambda_max is at most eq8's
      bound (eq3's plus 1 without loops), within the same tolerance.
    * ``eq7`` -- pseudo-connected graphs: lambda_min minus the gap exceeds
      the lifted positivity threshold, so the lifted eigenvalues nearest the
      base ones are strictly positive.
    * ``lift-eigvec`` -- every graph: mirroring each base eigenvector v as
      [v; 0; -v] leaves a lifted residual within the lifted tolerance.

    ``eigenvalues`` are L(G)'s, ascending, and ``census``, ``g``'s
    :func:`~loopspec.graphs._census`, gives the components, loops and d(G°)
    that decide applicability and the degree bound. A row holds id, margin
    (positive = slack) and ``pass``; the closed-form rows (eq2, eq3/eq8) also
    kind ("lower"/"upper"), bound and value, and pass within the base match
    tolerance. Without ``lifted``, ``verify_all``'s (tol_base, pos_base,
    tol_lift, pos_lift, gap, worst_res), they alone are returned, with no
    ``pass``.
    """
    rows: list[dict] = []
    loopless, pseudo = census.loops == 0, census.pseudo_connected
    lam_min, lam_max = float(eigenvalues[0]), float(eigenvalues[-1])
    if census.count == 1 and loopless and g.n >= 2:
        bound, value = fiedler_lower_bound(g.n), float(eigenvalues[1])
        rows.append(
            {"id": "eq2", "kind": "lower", "bound": bound, "value": value, "margin": value - bound}
        )
    bound, upper = _degree_bound(census), "eq3" if loopless else "eq8"
    rows.append(
        {"id": upper, "kind": "upper", "bound": bound, "value": lam_max, "margin": bound - lam_max}
    )
    if lifted is None:
        return rows
    tol_base, pos_base, tol_lift, pos_lift, gap, worst_res = lifted
    for row in rows:
        row["pass"] = row["margin"] >= -tol_base
    if pseudo:
        margin = lam_min - pos_base
        rows.append({"id": "lemma1", "margin": margin, "pass": margin > 0.0})
    interval = bound + 1.0 if loopless else bound
    margin = min(tol_lift - gap, interval + tol_lift - lam_max)
    rows.append({"id": "eq6", "margin": margin, "pass": margin >= 0.0})
    if pseudo:
        margin = lam_min - gap - pos_lift
        rows.append({"id": "eq7", "margin": margin, "pass": margin > 0.0})
    margin = tol_lift - worst_res
    rows.append({"id": "lift-eigvec", "margin": margin, "pass": margin >= 0.0})
    return rows


@dataclass(frozen=True)
class SubsetMatch:
    """Witness for a one-sided spectrum inclusion test.

    ``pairs`` maps indices of the candidate spectrum to the distinct indices
    of the containing spectrum they matched (injective). On failure
    ``unmatched_index`` is the first candidate eigenvalue left unmatched and
    ``unmatched_gap`` its distance to the nearest remaining target
    (``inf`` when the targets ran out).
    """

    ok: bool
    pairs: tuple[tuple[int, int], ...]
    worst_gap: float
    unmatched_index: int | None = None
    unmatched_gap: float = 0.0


def _eigenvalue_array(spectrum: Spectrum | Sequence[float]) -> np.ndarray:
    if isinstance(spectrum, Spectrum):
        return spectrum.eigenvalues
    return np.sort(np.asarray(spectrum, dtype=np.float64))


def spectrum_subset(
    a: Spectrum | Sequence[float],
    b: Spectrum | Sequence[float],
    match_tol: float,
) -> SubsetMatch:
    """Test whether every eigenvalue of ``a`` matches a distinct eigenvalue of
    ``b`` within ``match_tol``.

    Greedy two-pointer over the sorted lists: each value of ``a`` takes the
    smallest still-available value of ``b`` within tolerance, which is optimal
    for interval matching on sorted sequences. Repeated eigenvalues therefore
    need matching multiplicity in ``b``. Raises ``ValueError`` unless
    0 < ``match_tol`` < inf (NaN included, which would pass or fail every
    match whatever the gap).
    """
    if not 0.0 < match_tol < math.inf:
        raise ValueError(f"match_tol must be a positive finite number, got {match_tol}")
    av = _eigenvalue_array(a)
    bv = _eigenvalue_array(b)
    pairs: list[tuple[int, int]] = []
    worst = 0.0
    j = 0
    for i, x in enumerate(av):
        while j < bv.size and bv[j] < x - match_tol:
            j += 1
        if j < bv.size and abs(bv[j] - x) <= match_tol:
            worst = max(worst, abs(float(bv[j]) - float(x)))
            pairs.append((i, j))
            j += 1
        else:
            gap = float(np.min(np.abs(bv[j:] - x))) if j < bv.size else math.inf
            return SubsetMatch(False, tuple(pairs), worst, i, gap)
    return SubsetMatch(True, tuple(pairs), worst)


@dataclass(frozen=True)
class CheckResult:
    """One verified claim: its id, outcome, and signed margin (positive =
    satisfied with slack)."""

    id: str
    passed: bool
    margin: float


@dataclass(frozen=True)
class VerificationReport:
    """All claims applicable to one graph, with the tolerances that were used."""

    n: int
    loop_count: int
    components: int
    pseudo_connected: bool
    checks: tuple[CheckResult, ...]
    tolerances: dict[str, float]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_checks(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_json_dict(self) -> dict:
        return {
            "graph": {
                "n": self.n,
                "q": self.loop_count,
                "components": self.components,
                "pseudo_connected": self.pseudo_connected,
            },
            "checks": [
                {"id": c.id, "pass": c.passed, "margin": c.margin} for c in self.checks
            ],
            "tolerances": dict(self.tolerances),
        }


def _mirror_certificate(lap_lift: np.ndarray, lap: np.ndarray) -> bool:
    """Exact integer test of the mirror split of a lifted Laplacian.

    ``lap_lift`` must have order 2N + 1, N the order of ``lap``, and the
    block form of :mod:`loopspec.lifting`: the second copy's blocks, middle
    column and middle row repeat the first copy's, which is to say the copy
    swap leaves it unchanged. Its antisymmetric block, the top-left block
    minus the top-right one, must be the base Laplacian ``lap``. The blocks
    are compared as views of equal shape, once the order is right, so
    nothing of the lifted order is copied.
    """
    n = lap.shape[0]
    if lap_lift.shape != (2 * n + 1, 2 * n + 1):
        return False
    return bool(
        (lap_lift[n + 1 :, n + 1 :] == lap_lift[:n, :n]).all()
        and (lap_lift[n + 1 :, :n] == lap_lift[:n, n + 1 :]).all()
        and (lap_lift[n + 1 :, n] == lap_lift[:n, n]).all()
        and (lap_lift[n, n + 1 :] == lap_lift[n, :n]).all()
        and (lap_lift[:n, :n] - lap_lift[:n, n + 1 :] == lap).all()
    )


def _lifted_top(lap_lift: np.ndarray, lap: np.ndarray) -> float:
    """lambda_max of the lift's block S = [[L(G), sqrt2 c], [sqrt2 c^T, d]],
    c = LL[:n, n] and d = LL[n, n]: by the mirror split, lambda_max(LL). The
    lift's own leading block of S is L(G) + 2B, B cross-copy; zero row sums
    of a loopless lift and the exact certificate force B = 0, and where the
    certificate fails, eq6 fails anyway. S is float64, finite and exactly
    symmetric by construction, so it goes to LAPACK without ``eigen_sym``'s
    input checks.
    """
    n = lap.shape[0]
    # One float64 copy of LL's leading block, made before any scaling, so
    # numpy 1.x never multiplies an int8 (int16) array by a Python float in
    # float16 (float32). eigvalsh reads the lower triangle: the scaled
    # column is copied into the row.
    s = lap_lift[: n + 1, : n + 1].astype(np.float64)
    s[:n, :n] = lap
    s[:n, n] *= math.sqrt(2.0)
    s[n, :n] = s[:n, n]
    try:
        return float(np.linalg.eigvalsh(s)[-1])
    except np.linalg.LinAlgError as exc:
        raise JacobiConvergenceError(f"eigvalsh did not converge ({exc})") from exc


def _solve_base(g: Graph) -> tuple[np.ndarray, Spectrum, _Census]:
    """The stage ``analyze`` and ``verify_all`` share, of order N only: L(G),
    its spectrum and the census."""
    lap = laplacian_of(g)
    return lap, eigen_sym(lap), _census(g)


def verify_all(g: Graph) -> VerificationReport:
    """Run every spectral check applicable to ``g`` (see :func:`_claims`)
    and report margins.

    L(G) is solved, and the eigenvalues of the lift's block S (order N + 1)
    are computed; LL itself never is. The exact mirror certificate carries
    L(G)'s residual R = L(G) V - V Lambda to the lift, and by Kahan's theorem
    n distinct lifted eigenvalues lie within ``gap = ||R||_F / sqrt(1 - eta)``
    of Lambda, eta = ||V^T V - I||_F; without the certificate, gap and the
    lifted residuals are infinite.

    Absolute tolerances are :data:`MATCH_TOL` and :data:`POSITIVITY_TOL`,
    read when it runs, scaled by max(1, spectral radius) of the matrix each
    check concerns; for the lift, lambda_max of its block S
    (:func:`_lifted_top`). Solver non-convergence, of either solve,
    propagates as :class:`JacobiConvergenceError`.
    """
    lap, spec, census = _solve_base(g)
    lap_lift = laplacian_of(lift(g).lifted)
    vectors = spec.eigenvectors
    res = lap @ vectors
    res -= vectors * spec.eigenvalues
    gram = vectors.T @ vectors
    gram.flat[:: g.n + 1] -= 1.0
    eta = _frobenius(gram)
    del gram  # N^2 floats that nothing reads past eta
    gap = worst_res = math.inf
    if _mirror_certificate(lap_lift, lap):  # res's column norms are then the lift's
        worst_res = float(np.sqrt((res * res).sum(axis=0)).max())
        gap = _frobenius(res) / math.sqrt(1.0 - eta) if eta < 1.0 else math.inf

    rho_lift = _lifted_top(lap_lift, lap)
    rho_base = spec.spectral_radius
    tol_base = MATCH_TOL * max(1.0, rho_base)
    tol_lift = MATCH_TOL * max(1.0, rho_lift)
    pos_base = POSITIVITY_TOL * max(1.0, rho_base)
    pos_lift = POSITIVITY_TOL * max(1.0, rho_lift)
    lifted = (tol_base, pos_base, tol_lift, pos_lift, gap, worst_res)
    rows = _claims(g, spec.eigenvalues, census, lifted)

    return VerificationReport(
        n=g.n,
        loop_count=census.loops,
        components=census.count,
        pseudo_connected=census.pseudo_connected,
        checks=tuple(CheckResult(r["id"], r["pass"], r["margin"]) for r in rows),
        tolerances={
            "solver_tol": SOLVER_TOL,
            "match_tol": MATCH_TOL,
            "match_tol_scaled_base": tol_base,
            "match_tol_scaled_lifted": tol_lift,
            "positivity_threshold_base": pos_base,
            "positivity_threshold_lifted": pos_lift,
        },
    )
