"""Dense symmetric eigensolver and the spectral claim verifiers.

The solver is a cyclic Jacobi iteration: deterministic, self-contained, and
easy to account for numerically, which is all that desk-scale Laplacians
(order <= a few hundred) need. On top of it sit the closed-form bounds, the
positivity test for pseudo-connected Laplacians, the lifted-spectrum
inclusion check, and ``verify_all``, which runs every claim applicable to a
graph and returns a structured report.

The lifted Laplacian LL is never solved whole: its mirror split (see
:mod:`loopspec.lifting`) gives spec(LL) = spec(L(G)) U spec(S). ``verify_all``
checks that split exactly in integers and solves L(G) alone. By Kahan's
theorem for the full-rank (2N+1) x N mirror basis X = [V; 0; -V]/sqrt2, N
distinct eigenvalues of LL lie within ||LL X - X Lambda||_2 / sigma_min(X)
of the base ones, and sigma_min(X)^2 >= 1 - ||X^T X - I||_F. eq6's margin is
the lifted tolerance minus that certified gap (or the interval slack).

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

import itertools
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
    "JACOBI_MAX_SWEEPS",
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

SOLVER_TOL = 1e-12      # relative off-diagonal stopping threshold
MATCH_TOL = 1e-8        # absolute eigenvalue match tolerance, scaled by max(1, rho)
POSITIVITY_TOL = 1e-8   # positive-definiteness threshold, scaled by max(1, rho)
JACOBI_MAX_SWEEPS = 50


class JacobiConvergenceError(RuntimeError):
    """The Jacobi sweep cap was reached before the off-diagonal norm converged."""


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition of a symmetric matrix.

    ``eigenvalues`` are ascending; column j of ``eigenvectors`` pairs with
    eigenvalue j. ``sweeps`` and ``rotations`` count the Jacobi sweeps run and the
    rotations applied (skipped pairs do not count); ``off_norm`` is the
    off-diagonal Frobenius norm the solver stopped at.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sweeps: int
    rotations: int
    off_norm: float

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.eigenvalues))) if self.eigenvalues.size else 0.0


def eigen_sym(matrix: np.ndarray) -> Spectrum:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps rotate every off-diagonal pair (p, q) in a fixed row-major order,
    so the result is deterministic for a given input. Iteration stops once
    the off-diagonal Frobenius norm drops to ``SOLVER_TOL`` times the
    Frobenius norm of the input. Failure to converge within the sweep cap
    raises :class:`JacobiConvergenceError` rather than returning a partial
    answer.

    The working matrix ``a`` and the transposed eigenvector accumulator
    ``v^T`` share one n x 2n array ``w = [a | v^T]``, so one elementwise
    update of rows p and q of ``w`` rotates the rows of ``a`` and the columns
    of ``v`` together. A rotation allocates nothing: c and s are passed as
    0-d arrays and its four products go into rows preallocated per solve,
    so it stays bitwise equal to the plain elementwise rule. Rows p and q of
    ``a`` are then mirrored into its columns p and q and the 2x2 block is
    set in closed form, so ``a`` stays exactly symmetric and the
    off-diagonal norm is read from its upper triangle.

    Raises ``ValueError`` for non-square or (exactly) non-symmetric input,
    and for input with an infinite or NaN entry, an entry with no float64
    value, or a Frobenius norm that overflows to infinity, where the stopping
    threshold would be meaningless.
    """
    raw = np.asarray(matrix)
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {raw.shape}")
    try:
        m = raw.astype(np.float64)
    except (OverflowError, TypeError) as exc:  # object entries: 10**400, None
        raise ValueError(f"matrix has an entry with no finite float64 value ({exc})") from exc
    fro = float(np.linalg.norm(m))
    if not math.isfinite(fro):  # before the symmetry test, which NaN fails
        raise ValueError(f"matrix has a non-finite entry or Frobenius norm ({fro})")
    if not np.array_equal(raw, raw.T):
        raise ValueError("matrix is not symmetric")
    n = m.shape[0]
    w = np.concatenate((m, np.eye(n)), axis=1)  # [a | v^T]; its diagonal is a's
    sweeps, rotations, off = 0, 0, 0.0
    if fro > 0.0 and n > 1:
        threshold = SOLVER_TOL * fro
        # Pairs below `skip` contribute at most threshold^2/8 to the squared
        # off-norm in total, so skipping them cannot stall the stopping test.
        skip = threshold / (2.0 * n)
        a, upper = w[:, :n], ~np.tri(n, dtype=bool)  # upper: a's strict upper triangle
        rows, heads, cols = list(w), list(a), [w[:, j] for j in range(n)]
        c_, s_ = np.empty(()), np.empty(())
        cp, sq, sp, cq = np.empty((4, 2 * n))
        while (off := math.sqrt(2.0) * float(np.linalg.norm(a[upper]))) > threshold:
            if sweeps >= JACOBI_MAX_SWEEPS:
                raise JacobiConvergenceError(
                    f"no convergence after {JACOBI_MAX_SWEEPS} sweeps "
                    f"(off-diagonal norm {off:.3e}, threshold {threshold:.3e})"
                )
            for p, q in itertools.combinations(range(n), 2):
                wp, wq = rows[p], rows[q]
                apq = wp.item(q)
                if abs(apq) <= skip:
                    continue
                app, aqq = wp.item(p), wq.item(q)
                theta = (aqq - app) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                c_[()], s_[()] = c, t * c
                # All four products are formed before either row is written.
                np.multiply(wp, c_, cp)
                np.multiply(wq, s_, sq)
                np.multiply(wp, s_, sp)
                np.multiply(wq, c_, cq)
                np.subtract(cp, sq, wp)
                np.add(sp, cq, wq)
                cols[p][:], cols[q][:] = heads[p], heads[q]
                wp[p], wq[q] = app - t * apq, aqq + t * apq
                wp[q] = wq[p] = 0.0
                rotations += 1
            sweeps += 1
    order = np.argsort(np.diagonal(w), kind="stable")
    values = np.diagonal(w)[order].copy()
    return Spectrum(values, w[order, n:].T, sweeps, rotations, off)


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
    rows.append(
        {
            "id": "eq3" if loopless else "eq8",
            "kind": "upper",
            "bound": bound,
            "value": value,
            "margin": bound - value,
        }
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


def _lifted_top(lap_lift: np.ndarray, spec: Spectrum) -> float:
    """lambda_max of the lift's block S, without solving S. With c = LL[:n, n]
    and d = LL[n, n], S is the arrowhead [[Lambda, z], [z^T, d]] in the basis
    diag(V, 1), z = sqrt2 V^T c. f(mu) = mu - d - sum z_i^2 / (mu - lambda_i)
    increases above lambda_N, where its roots are S's eigenvalues (the secular
    equation, Golub 1973): lambda_max(S) is that root, or lambda_N if none, and
    f >= 0 at the bracket's top, max(lambda_N, d) + ||z||. S's leading block is
    L(G) + B, B cross-copy: zero row sums of a loopless lift and the exact
    certificate force B = 0, and where the certificate fails, eq6 fails anyway.
    f is evaluated on Python floats, cheaper at these orders than numpy
    calls, and summed by ``math.fsum``, which rounds correctly and so gives
    the same float on every Python. mid > lambda_N, so no term divides by 0.
    """
    lam, n = spec.eigenvalues, spec.eigenvalues.size
    z2 = 2.0 * (spec.eigenvectors.T @ lap_lift[:n, n]) ** 2
    lo, d = float(lam[-1]), float(lap_lift[n, n])
    hi = max(lo, d) + math.sqrt(float(z2.sum()))
    terms = list(zip(z2.tolist(), lam.tolist()))
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if mid - d - math.fsum([z / (mid - x) for z, x in terms]) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def verify_all(g: Graph, match_tol: float = MATCH_TOL) -> VerificationReport:
    """Run every spectral check applicable to ``g`` and report margins.

    Checks and applicability:

    * ``eq2``   connected loopless graphs with >= 2 vertices
    * ``eq3``   loopless graphs; ``eq8`` replaces it when loops are present
    * ``lemma1`` pseudo-connected graphs only
    * ``eq6``   every graph (a loopless lift just has an isolated middle vertex)
    * ``eq7``   pseudo-connected graphs only
    * ``lift-eigvec`` every graph

    Only L(G) is solved. Kahan's theorem for the full-rank mirror basis
    X = [V; 0; -V]/sqrt2 puts n distinct lifted eigenvalues within
    ||R||_2 / sigma_min(X) of Lambda, R = LL X - X Lambda; as sigma_min(X)^2
    >= 1 - eta, eta = ||X^T X - I||_F, each is within ``gap = ||R||_F / sqrt(1 - eta)``.
    eq6 needs the exact mirror certificate and gap <= the lifted
    tolerance; eq7 needs lambda_min - gap above the lifted positivity threshold.

    Absolute tolerances are ``match_tol`` scaled by max(1, spectral radius)
    of the matrix each check concerns; for the lift, lambda_max of its block
    S (:func:`_lifted_top`). Solver non-convergence propagates.
    """
    lap = laplacian_of(g)
    spec = eigen_sym(lap)
    lap_lift = laplacian_of(lift(g).lifted)
    split_ok = _mirror_certificate(lap_lift, lap)
    v = spec.eigenvectors / math.sqrt(2.0)
    x = np.concatenate((v, np.zeros((1, g.n)), -v))
    res = lap_lift @ x - x * spec.eigenvalues
    eta = float(np.linalg.norm(x.T @ x - np.eye(g.n)))
    gap = float(np.linalg.norm(res)) / math.sqrt(1.0 - eta) if eta < 1.0 else math.inf

    parts = connected_components(g)
    pseudo = _pseudo_connected(g, parts)

    rho_lift = _lifted_top(lap_lift, spec)
    tol_base = match_tol * max(1.0, spec.spectral_radius)
    tol_lift = match_tol * max(1.0, rho_lift)
    pos_base = POSITIVITY_TOL * max(1.0, spec.spectral_radius)
    pos_lift = POSITIVITY_TOL * max(1.0, rho_lift)

    lam_min, lam_max = float(spec.eigenvalues[0]), float(spec.eigenvalues[-1])

    rows = bound_rows(g, spec.eigenvalues, parts.count == 1)
    checks = [CheckResult(r["id"], r["margin"] >= -tol_base, r["margin"]) for r in rows]

    if pseudo:
        margin = lam_min - pos_base
        checks.append(CheckResult("lemma1", margin > 0.0, margin))

    interval_bound = 2.0 * _max_nonloop_degree(g) + 1.0
    margin6 = min(tol_lift - gap, interval_bound + tol_lift - lam_max)
    checks.append(CheckResult("eq6", split_ok and margin6 >= 0.0, margin6))

    if pseudo:
        margin = lam_min - gap - pos_lift
        checks.append(CheckResult("eq7", margin > 0.0, margin))

    # Column j of res is the lifted residual of base eigenvector j.
    worst_res = float(np.sqrt((res * res).sum(axis=0)).max())
    checks.append(CheckResult("lift-eigvec", worst_res <= tol_lift, tol_lift - worst_res))

    return VerificationReport(
        n=g.n,
        loop_count=g.loop_count,
        components=parts.count,
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
