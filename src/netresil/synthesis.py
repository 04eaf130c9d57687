"""Gain synthesis and norms: Riccati solver, LQR-style gains, H-infinity norm.

The continuous algebraic Riccati equation is solved through the ordered
real Schur form of the 2n x 2n Hamiltonian (stable invariant subspace),
which self-certifies through the returned residual. The H-infinity norm
uses the two-step level-set iteration on the parametrized Hamiltonian's
imaginary-axis eigenvalues and reports whether it converged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .lti import StateSpace, default_grid, eval_frequency, is_hurwitz

_RESIDUAL_TOL = 1e-8

MAX_GAIN = 1e150
"""Largest frequency-response gain the H-infinity norm and the triangularity
check work with, so that its square fits a float. A larger gain on the
frequency grid means a pole on the imaginary axis to working precision."""


class SynthesisError(RuntimeError):
    """Riccati / gain design failed (no stabilizing solution)."""


@dataclass(frozen=True)
class RiccatiSolution:
    """Stabilizing CARE solution P with gain K = R^-1 B' P."""

    P: np.ndarray
    K: np.ndarray
    residual_norm: float


@dataclass(frozen=True)
class HinfResult:
    """``grid_max`` is the largest singular value on :func:`default_grid`
    (sigma_max(D) when G is a constant), the iteration's starting bound."""

    norm: float
    peak_omega: float
    iterations: int
    converged: bool
    grid_max: float


def care_residual(A, B, Q, R_w, P) -> float:
    """Relative Frobenius residual of A'P + PA - PBR^-1B'P + Q."""
    res = A.T @ P + P @ A - P @ B @ np.linalg.solve(R_w, B.T @ P) + Q
    return float(np.linalg.norm(res) / max(1.0, np.linalg.norm(P)))


def solve_care(A, B, Q, R_w) -> RiccatiSolution:
    """Stabilizing solution of A'P + PA - P B R^-1 B' P + Q = 0.

    Requires (A, B) stabilizable, Q >= 0 and R_w > 0. Raises
    :class:`SynthesisError` when the Hamiltonian has imaginary-axis
    eigenvalues (no stabilizing solution exists).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R_w = np.atleast_2d(np.asarray(R_w, dtype=float))
    n = A.shape[0]
    if B.shape[0] != n:
        raise ValueError("B row count must match A")
    r_eigs = np.linalg.eigvalsh(0.5 * (R_w + R_w.T))
    if r_eigs.min() <= 0:
        raise SynthesisError("R_w must be positive definite")
    if np.linalg.eigvalsh(0.5 * (Q + Q.T)).min() < -1e-10 * max(1.0, abs(Q).max()):
        raise SynthesisError("Q must be positive semidefinite")

    H = np.block([
        [A, -B @ np.linalg.solve(R_w, B.T)],
        [-Q, -A.T],
    ])
    scale = max(1.0, np.abs(H).max())
    ham_eigs = np.linalg.eigvals(H)
    if np.any(np.abs(ham_eigs.real) < 1e-9 * scale):
        raise SynthesisError("Hamiltonian has eigenvalues on the imaginary axis; "
                             "no stabilizing solution (check stabilizability/detectability)")
    T, Z, sdim = sla.schur(H, output="real", sort="lhp")
    if sdim != n:
        raise SynthesisError(f"stable invariant subspace has dimension {sdim}, expected {n}")
    U1 = Z[:n, :n]
    U2 = Z[n:, :n]
    if np.linalg.cond(U1) > 1e12:
        raise SynthesisError("stable subspace basis is numerically singular")
    P = sla.solve(U1.T, U2.T).T
    P = 0.5 * (P + P.T)
    K = np.linalg.solve(R_w, B.T @ P)
    res = care_residual(A, B, Q, R_w, P)
    if res > _RESIDUAL_TOL:
        raise SynthesisError(f"Riccati residual {res:.2e} exceeds {_RESIDUAL_TOL:.0e}")
    stable, absc = is_hurwitz(A - B @ K, margin=0.0)
    if n > 0 and not stable:
        raise SynthesisError(f"closed loop A - BK not Hurwitz (abscissa {absc:.2e})")
    return RiccatiSolution(P=P, K=K, residual_norm=res)


def design_theta(A, R_mat, rho: float = 1.0) -> np.ndarray:
    """Gain Theta such that A + R_mat Theta is Hurwitz: LQR with state weight
    I and input weight rho I. Requires (A, R_mat) controllable/stabilizable."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    R_mat = np.atleast_2d(np.asarray(R_mat, dtype=float))
    n, p = A.shape[0], R_mat.shape[1]
    sol = solve_care(A, R_mat, np.eye(n), rho * np.eye(p))
    return -sol.K


def design_observer_gain(A, S) -> np.ndarray:
    """Gain H such that A - H S is Hurwitz, by duality with design_theta."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    S = np.atleast_2d(np.asarray(S, dtype=float))
    return -design_theta(A.T, S.T).T


def design_theta_gamma_scan(A, R_mat, Gamma, rhos=(1e-2, 1e-1, 1.0, 1e1, 1e2),
                            tol: float = 1e-4) -> tuple[np.ndarray, float]:
    """Pick Theta minimizing || (sI - (A + R Theta))^-1 Gamma ||_Hinf over a
    coarse scan of LQR input-weight scalings rho.

    Returns (Theta, gamma_at_minimum). When Gamma vanishes the plain unit
    weights are used (gamma = 0 regardless).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    R_mat = np.atleast_2d(np.asarray(R_mat, dtype=float))
    Gamma = np.atleast_2d(np.asarray(Gamma, dtype=float))
    n = A.shape[0]
    if not np.any(Gamma):
        return design_theta(A, R_mat), 0.0
    best = None
    for rho in rhos:
        try:
            theta = design_theta(A, R_mat, rho)
        except SynthesisError:
            continue
        g = hinf_norm(StateSpace(A + R_mat @ theta, Gamma, np.eye(n), None), tol=tol)
        if best is None or g.norm < best[1]:
            best = (theta, g.norm)
    if best is None:
        raise SynthesisError("no weight scaling produced a stabilizing Theta")
    return best


def _sigma_max(M: np.ndarray) -> float:
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


def _imag_axis_crossings(g: StateSpace, gamma: float) -> np.ndarray:
    """Frequencies where the gamma-Hamiltonian has imaginary-axis eigenvalues."""
    A, B, C, D = g.A, g.B, g.C, g.D
    m, q = g.m, g.q
    R = D.T @ D - gamma**2 * np.eye(m)
    S = D @ D.T - gamma**2 * np.eye(q)
    Rinv_Dt_C = np.linalg.solve(R, D.T @ C)
    Aham = A - B @ Rinv_Dt_C
    H = np.block([
        [Aham, -gamma * B @ np.linalg.solve(R, B.T)],
        [gamma * C.T @ np.linalg.solve(S, C), -Aham.T],
    ])
    eigs = np.linalg.eigvals(H)
    scale = max(1.0, np.abs(eigs).max())
    on_axis = eigs[np.abs(eigs.real) <= 1e-7 * scale]
    return np.unique(np.abs(on_axis.imag))


def hinf_norm(g: StateSpace, tol: float = 1e-4, max_iter: int = 100) -> HinfResult:
    """H-infinity norm of a stable proper system by the two-step level-set
    iteration (Bruinsma & Steinbuch 1990).

    The lower bound ``lb`` starts at the frequency-grid maximum singular
    value (or ||D|| when larger). Each iteration tests gamma = (1 + 2 tol) lb:
    where the gamma-Hamiltonian has imaginary-axis eigenvalues, ``lb`` rises
    to the largest singular value at those crossing frequencies and at the
    midpoints between them (to gamma itself when no probe reaches it). The
    iteration stops at the first gamma without crossings, so the returned
    midpoint of [lb, gamma] is at least the grid maximum and within ``tol``
    of the norm. ``converged`` is False when ``max_iter`` iterations ran out
    first. ``peak_omega`` is the best maximizer frequency found. Raises
    :class:`SynthesisError` on unstable systems and when the norm exceeds
    ``MAX_GAIN`` (or the grid holds a non-finite response).
    """
    if g.n == 0 or not np.any(g.B) or not np.any(g.C):
        d_norm = _sigma_max(g.D)
        return HinfResult(norm=d_norm, peak_omega=0.0, iterations=0, converged=True,
                          grid_max=d_norm)
    stable, absc = is_hurwitz(g.A, margin=0.0)
    if not stable:
        raise SynthesisError(f"hinf_norm requires a Hurwitz A (abscissa {absc:.3e})")

    grid = default_grid()
    fr = eval_frequency(g, grid)
    sig = np.linalg.svd(fr.values, compute_uv=False)[:, 0]
    i0 = int(np.argmax(sig))
    lb = grid_max = float(sig[i0])
    peak = float(grid[i0])
    d_norm = _sigma_max(g.D)
    if d_norm > lb:
        lb, peak = d_norm, np.inf
    if lb == 0.0:
        # zero on the whole grid: G vanishes identically
        return HinfResult(norm=0.0, peak_omega=peak, iterations=0, converged=True,
                          grid_max=grid_max)

    iterations = 0
    converged = False
    while iterations < max_iter:
        gamma = (1.0 + 2.0 * tol) * lb
        if not gamma <= MAX_GAIN:           # also a nan from a pole on the grid
            raise SynthesisError(f"H-infinity norm above {MAX_GAIN:g}: a pole lies on the "
                                 "imaginary axis to working precision")
        freqs = _imag_axis_crossings(g, gamma)
        iterations += 1
        if not freqs.size:
            converged = True
            break
        # sigma_max exceeds gamma between paired crossings
        probe = np.concatenate([freqs, 0.5 * (freqs[:-1] + freqs[1:])])
        best, w_best = max((_sigma_max(g.transfer_at(1j * w)), float(w)) for w in probe)
        if best > lb:
            lb, peak = best, w_best
        # the crossings certify ||G|| >= gamma even where no probe reaches it
        lb = max(lb, gamma)
    return HinfResult(norm=0.5 * (lb + gamma), peak_omega=peak, iterations=iterations,
                      converged=converged, grid_max=grid_max)
