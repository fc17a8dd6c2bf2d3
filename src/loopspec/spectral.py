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
LAPACK's ``eigvalsh`` on S. eq6's margin is the lifted tolerance minus the
certified gap (or the interval slack).

Check identifiers used in reports (fixed wire format):

* ``eq2``        -- algebraic connectivity of a connected loopless graph is
                    at least 2(1 - cos(pi/N))
* ``eq3``        -- for a loopless graph, max eigenvalue <= 2 * max degree
* ``eq8``        -- with loops present, max eigenvalue <= 2 * max degree of
                    the loop-stripped graph + 1
* ``lemma1``     -- pseudo-connected graphs have positive definite Laplacians
* ``eq6``        -- the base spectrum embeds in the lifted spectrum and stays
                    inside [0, 2 d(stripped) + 1]
* ``eq7``        -- for pseudo-connected graphs the lifted eigenvalues nearest
                    the base eigenvalues are strictly positive
* ``lift-eigvec`` -- mirroring a base eigenvector as [v; 0; -v] gives a lifted
                    eigenvector with the same eigenvalue
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph, _max_nonloop_degree, _pseudo_connected, connected_components
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
    "bound_rows",
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
        return float(np.max(np.abs(self.eigenvalues))) if self.eigenvalues.size else 0.0


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
    fro = float(np.linalg.norm(m))
    if not math.isfinite(fro):  # before the symmetry test, which NaN fails
        raise ValueError(f"matrix has a non-finite entry or Frobenius norm ({fro})")
    if not np.array_equal(raw, raw.T):
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
    return 2.0 * _max_nonloop_degree(g) + (1.0 if g.loop_count else 0.0)


def bound_rows(g: Graph, eigenvalues: np.ndarray, connected: bool) -> list[dict]:
    """The closed-form eigenvalue bounds that apply to ``g``, one row each.

    ``eq2`` (lower bound on the algebraic connectivity) applies to connected
    loopless graphs with >= 2 vertices; the degree upper bound on the largest
    eigenvalue applies always, as ``eq3`` without loops and ``eq8`` with.
    ``eigenvalues`` are ascending; ``connected`` says whether ``g`` has one
    component. A row holds id, kind ("lower"/"upper"), bound, value, and
    margin (positive = slack).
    """
    rows: list[dict] = []
    loopless = g.loop_count == 0
    if connected and loopless and g.n >= 2:
        bound, value = fiedler_lower_bound(g.n), float(eigenvalues[1])
        rows.append(
            {"id": "eq2", "kind": "lower", "bound": bound, "value": value, "margin": value - bound}
        )
    bound, value = degree_upper_bound(g), float(eigenvalues[-1])
    upper = "eq3" if loopless else "eq8"
    rows.append(
        {"id": upper, "kind": "upper", "bound": bound, "value": value, "margin": bound - value}
    )
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
    need matching multiplicity in ``b``.
    """
    if match_tol <= 0:
        raise ValueError(f"match_tol must be positive, got {match_tol}")
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

    Swapping the two vertex copies (and fixing the middle vertex) must leave
    ``lap_lift`` unchanged, and its antisymmetric block, the top-left block
    minus the top-right one, must be the base Laplacian ``lap``.
    """
    n = lap.shape[0]
    perm = np.r_[n + 1 : 2 * n + 1, n, :n]
    return bool(
        np.array_equal(lap_lift.take(perm, 0).take(perm, 1), lap_lift)
        and np.array_equal(lap_lift[:n, :n] - lap_lift[:n, n + 1 :], lap)
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
    s = np.empty((n + 1, n + 1))
    s[:n, :n] = lap
    s[:n, n] = s[n, :n] = math.sqrt(2.0) * lap_lift[:n, n]
    s[n, n] = lap_lift[n, n]
    try:
        return float(np.linalg.eigvalsh(s)[-1])
    except np.linalg.LinAlgError as exc:
        raise JacobiConvergenceError(f"eigvalsh did not converge ({exc})") from exc


def _solve_base(g: Graph) -> tuple[np.ndarray, Spectrum, int, bool, list[dict]]:
    """The stage ``analyze`` and ``verify_all`` share, of order N only:
    L(G), its spectrum, the number of components, whether ``g`` is
    pseudo-connected, and the closed-form bound rows."""
    lap = laplacian_of(g)
    spec = eigen_sym(lap)
    parts = connected_components(g)
    rows = bound_rows(g, spec.eigenvalues, parts.count == 1)
    return lap, spec, parts.count, _pseudo_connected(g, parts), rows


def verify_all(g: Graph, match_tol: float = MATCH_TOL) -> VerificationReport:
    """Run every spectral check applicable to ``g`` and report margins.

    Checks and applicability:

    * ``eq2``   connected loopless graphs with >= 2 vertices
    * ``eq3``   loopless graphs; ``eq8`` replaces it when loops are present
    * ``lemma1`` pseudo-connected graphs only
    * ``eq6``   every graph (a loopless lift just has an isolated middle vertex)
    * ``eq7``   pseudo-connected graphs only
    * ``lift-eigvec`` every graph

    L(G) is solved, and the eigenvalues of the lift's block S (order N + 1)
    are computed; LL itself never is. The exact mirror certificate carries
    L(G)'s residual R = L(G) V - V Lambda to the lift, and by Kahan's theorem
    n distinct lifted eigenvalues lie within ``gap = ||R||_F / sqrt(1 - eta)``
    of Lambda, eta = ||V^T V - I||_F; without the certificate, gap and the
    lifted residuals are infinite. eq6 needs gap <= the lifted tolerance; eq7
    needs lambda_min - gap above the lifted positivity threshold.

    Absolute tolerances are ``match_tol`` scaled by max(1, spectral radius)
    of the matrix each check concerns; for the lift, lambda_max of its block
    S (:func:`_lifted_top`). Solver non-convergence, of either solve,
    propagates as :class:`JacobiConvergenceError`.
    """
    lap, spec, components, pseudo, rows = _solve_base(g)
    lap_lift = laplacian_of(lift(g).lifted)
    vectors = spec.eigenvectors
    res = lap @ vectors - vectors * spec.eigenvalues
    eta = float(np.linalg.norm(vectors.T @ vectors - np.eye(g.n)))
    gap = worst_res = math.inf
    if _mirror_certificate(lap_lift, lap):  # res's column norms are then the lift's
        worst_res = float(np.sqrt((res * res).sum(axis=0)).max())
        gap = float(np.linalg.norm(res)) / math.sqrt(1.0 - eta) if eta < 1.0 else math.inf

    rho_lift = _lifted_top(lap_lift, lap)
    tol_base = match_tol * max(1.0, spec.spectral_radius)
    tol_lift = match_tol * max(1.0, rho_lift)
    pos_base = POSITIVITY_TOL * max(1.0, spec.spectral_radius)
    pos_lift = POSITIVITY_TOL * max(1.0, rho_lift)

    lam_min, lam_max = float(spec.eigenvalues[0]), float(spec.eigenvalues[-1])

    checks = [CheckResult(r["id"], r["margin"] >= -tol_base, r["margin"]) for r in rows]

    if pseudo:
        margin = lam_min - pos_base
        checks.append(CheckResult("lemma1", margin > 0.0, margin))

    interval_bound = 2.0 * _max_nonloop_degree(g) + 1.0
    margin6 = min(tol_lift - gap, interval_bound + tol_lift - lam_max)
    checks.append(CheckResult("eq6", margin6 >= 0.0, margin6))

    if pseudo:
        margin = lam_min - gap - pos_lift
        checks.append(CheckResult("eq7", margin > 0.0, margin))

    checks.append(CheckResult("lift-eigvec", worst_res <= tol_lift, tol_lift - worst_res))

    return VerificationReport(
        n=g.n,
        loop_count=g.loop_count,
        components=components,
        pseudo_connected=pseudo,
        checks=tuple(checks),
        tolerances={
            "solver_tol": SOLVER_TOL,
            "match_tol": match_tol,
            "match_tol_scaled_base": tol_base,
            "match_tol_scaled_lifted": tol_lift,
            "positivity_threshold_base": pos_base,
            "positivity_threshold_lifted": pos_lift,
        },
    )
