"""Locally stabilizing controller parametrization and attack construction.

A local controller is realized from nominal gains (F, H) plus a stable
free parameter Q fed by the output innovation:

    xi' = (A + B F - H C) xi + H y + B u~
    e   = y - C xi
    u~  = Q(e)
    u   = F xi + u~

Because the innovation e evolves independently of u~, the local closed
loop is internally stable for every stable Q, and its spectrum is the
union of eig(A + BF), eig(A - HC) and eig(A_Q). The coupling-to-
interaction map of the closed node is affine in Q,

    delta(s; Q) = sigma_dz(s) + Q(s) sigma_uz(s) sigma_dy(s),

with the factor realizations exposed by :class:`GeneralizedPlant`. The
destabilizer search inverts this affine map at a probe frequency, matches
the required complex value with the all-pass family k ((s-a)/(s+a))^2,
and certifies the result through closed-loop eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lti import (StateSpace, eval_frequency, feedback_interconnect, frozen_array,
                  is_hurwitz, spectral_abscissa)
from .network import NetworkedSystem, Subsystem, close_local_controllers, interconnect, is_cascade
from .synthesis import design_observer_gain, design_theta


def design_nominal_gains(sub: Subsystem) -> tuple[np.ndarray, np.ndarray]:
    """Unit-weight LQR state feedback F and dual output injection H for a node."""
    return design_theta(sub.A, sub.B), design_observer_gain(sub.A, sub.C)


@dataclass(frozen=True)
class YoulaController:
    """Gains plus stable free parameter; validated against the node."""

    F: np.ndarray
    H: np.ndarray
    Q: StateSpace

    def __post_init__(self):
        object.__setattr__(self, "F", frozen_array(self.F, "F"))
        object.__setattr__(self, "H", frozen_array(self.H, "H"))

    def validate(self, sub: Subsystem) -> None:
        ok_f, a_f = is_hurwitz(sub.A + sub.B @ self.F, margin=0.0)
        if not ok_f:
            raise ValueError(f"A + BF not Hurwitz (abscissa {a_f:.3e})")
        ok_h, a_h = is_hurwitz(sub.A - self.H @ sub.C, margin=0.0)
        if not ok_h:
            raise ValueError(f"A - HC not Hurwitz (abscissa {a_h:.3e})")
        if self.Q.n > 0:
            ok_q, a_q = is_hurwitz(self.Q.A, margin=0.0)
            if not ok_q:
                raise ValueError(f"free parameter Q unstable (abscissa {a_q:.3e})")
        if self.Q.m != sub.q or self.Q.q != sub.m:
            raise ValueError("Q must map the output innovation to the input channel")


def zero_parameter(sub: Subsystem) -> StateSpace:
    return StateSpace.from_gain(np.zeros((sub.m, sub.q)))


def realize_controller(sub: Subsystem, yc: YoulaController) -> StateSpace:
    """State-space controller y -> u with states (xi, x_Q)."""
    yc.validate(sub)
    return _observer_controller(sub.A, sub.B, sub.C, yc.F, yc.H, yc.Q)


def _observer_controller(A, B, C, F, H, Q: StateSpace) -> StateSpace:
    """Observer-based controller y -> u around the free parameter Q.

    Every stabilizing controller of (A, B, C) has this form (Zhou, Doyle
    & Glover, Robust and Optimal Control, 1996, ch. 12). Validation is the
    caller's: the integrator-augmented grid trackers cannot share
    :meth:`YoulaController.validate`, because their augmented A - HC keeps
    the integrator's zero eigenvalues.
    """
    Aq, Bq, Cq, Dq = Q.A, Q.B, Q.C, Q.D
    nq = Q.n
    Ak = np.block([
        [A + B @ F - H @ C - B @ Dq @ C, B @ Cq],
        [-Bq @ C, Aq],
    ]) if nq else (A + B @ F - H @ C - B @ Dq @ C)
    if nq:
        Bk = np.vstack([H + B @ Dq, Bq])
        Ck = np.hstack([F - Dq @ C, Cq])
    else:
        Bk = H + B @ Dq
        Ck = F - Dq @ C
    return StateSpace(Ak, Bk, Ck, Dq)


@dataclass(frozen=True)
class GeneralizedPlant:
    """Closed node (plant plus nominal observer controller) seen from the
    coupling input d and the free input u~.

    ``sigma_dz`` / ``sigma_uz`` / ``sigma_dy`` are the factor realizations
    of the affine decomposition delta(Q) = sigma_dz + Q sigma_uz sigma_dy
    for controllers realized by :func:`realize_controller`.
    """

    sub: Subsystem
    F: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "F", frozen_array(self.F, "F"))
        object.__setattr__(self, "H", frozen_array(self.H, "H"))

    def sigma_dz(self) -> StateSpace:
        """Coupling-to-interaction map of the nominally controlled node (Q = 0)."""
        A, B, C, J, S, D = (self.sub.A, self.sub.B, self.sub.C,
                            self.sub.J, self.sub.S, self.sub.Dz)
        n = self.sub.n
        Acl = np.block([[A + B @ self.F, -B @ self.F],
                        [np.zeros((n, n)), A - self.H @ C]])
        Bcl = np.vstack([J, J - self.H @ D])
        Ccl = np.hstack([S, np.zeros_like(S)])
        return StateSpace(Acl, Bcl, Ccl, None)

    def sigma_uz(self) -> StateSpace:
        """Free-input-to-interaction factor S (sI - (A + BF))^-1 B."""
        return StateSpace(self.sub.A + self.sub.B @ self.F, self.sub.B, self.sub.S, None)

    def sigma_dy(self) -> StateSpace:
        """Coupling-to-innovation factor C (sI - (A - HC))^-1 (J - H Dz) + Dz."""
        return StateSpace(self.sub.A - self.H @ self.sub.C,
                          self.sub.J - self.H @ self.sub.Dz, self.sub.C, self.sub.Dz)


@dataclass(frozen=True)
class AllPassParam:
    """Parameters of q(s) = k ((s - a) / (s + a))^2, |q(jw)| = k for all w."""

    k: float
    a: float

    def __post_init__(self):
        if not (self.k > 0 and self.a > 0):
            raise ValueError("all-pass parameters require k > 0 and a > 0")


def allpass_fit(omega: float, qbar: complex) -> AllPassParam:
    """Find (k, a) with k ((jw - a)/(jw + a))^2 = qbar at w = omega.

    k = |qbar|; the phase theta = arg(qbar) in [0, 2pi) fixes
    a = omega / tan((2pi - theta)/4). A target exactly on the positive real
    axis (theta = 0) is degenerate; a is floored at 1e-6 omega, trading a
    small fit error for a strictly stable pole.
    """
    if omega <= 0:
        raise ValueError("allpass_fit requires omega > 0")
    if qbar == 0:
        raise ValueError("allpass_fit requires a nonzero target")
    k = abs(qbar)
    theta = float(np.angle(qbar)) % (2.0 * np.pi)
    denom = np.tan((2.0 * np.pi - theta) / 4.0)
    a = omega / denom if denom > 0 else np.inf
    a = max(a, 1e-6 * omega)
    return AllPassParam(k=float(k), a=float(a))


def allpass_ss(p: AllPassParam) -> StateSpace:
    """Two-state realization of k ((s - a)/(s + a))^2."""
    k, a = p.k, p.a
    A = np.array([[-a, 0.0], [-2.0 * a, -a]])
    B = np.array([[1.0], [1.0]])
    C = k * np.array([[-2.0 * a, -2.0 * a]])
    D = np.array([[k]])
    return StateSpace(A, B, C, D)


@dataclass(frozen=True)
class DestabilizerResult:
    """Outcome of the attack search.

    ``found`` means a controller was produced that keeps its own node
    stable (abscissa < -1e-6) while driving the interconnection unstable
    (abscissa > 1e-6). A negative outcome is inconclusive: the probe grid
    is finite, so nothing is proved about the network.
    """

    found: bool
    omega: float | None = None
    allpass: AllPassParam | None = None
    kappa1: StateSpace | None = None
    kappa2: StateSpace | None = None
    local_abscissa: float | None = None
    global_abscissa: float | None = None
    n_scanned: int = 0
    reason: str = ""
    best_marginal: dict | None = None

    def report(self) -> dict:
        if not self.found:
            return {"found": False, "reason": self.reason,
                    "best_marginal": self.best_marginal}
        return {"omega": self.omega, "k": self.allpass.k, "a": self.allpass.a,
                "local_abscissa": self.local_abscissa,
                "global_abscissa": self.global_abscissa}


def destabilizer_search(ns: NetworkedSystem) -> DestabilizerResult:
    """Search for a locally stabilizing controller on node 2 that
    destabilizes the interconnection (node 1 keeps its nominal controller,
    both nodes the gains of :func:`design_nominal_gains`).

    Scans 200 log-spaced probe frequencies on [1e-2, 1e2]; at each usable
    one solves the affine map for the free-parameter value closing the loop
    gain to one, fits the all-pass family, and walks a +/-1% gain ladder of
    20 steps each way until the eigenvalue certificate (local abscissa
    < -1e-6, overall > 1e-6) accepts. Deterministic: lowest frequency
    first, then smallest ladder index, + before -.
    """
    if not (ns.sub1.siso and ns.sub2.siso):
        raise ValueError("destabilizer_search requires scalar channels")
    if is_cascade(ns).is_cascade:
        return DestabilizerResult(found=False,
                                  reason="cascade coupling: the loop gain is "
                                         "identically zero, no probe frequency applies")
    F1, H1 = design_nominal_gains(ns.sub1)
    F2, H2 = design_nominal_gains(ns.sub2)
    gp1 = GeneralizedPlant(ns.sub1, F1, H1)
    gp2 = GeneralizedPlant(ns.sub2, F2, H2)
    kappa1 = realize_controller(ns.sub1, YoulaController(F1, H1, zero_parameter(ns.sub1)))
    plant = interconnect(ns)
    open2 = ns.sub2.decoupled()

    om = np.logspace(-2, 2, 200)
    d1 = eval_frequency(gp1.sigma_dz(), om).values[:, 0, 0]
    d20 = eval_frequency(gp2.sigma_dz(), om).values[:, 0, 0]
    uz2 = eval_frequency(gp2.sigma_uz(), om).values[:, 0, 0]
    dy2 = eval_frequency(gp2.sigma_dy(), om).values[:, 0, 0]

    best_marginal = None
    n_scanned = 0
    for i in range(om.size):
        if abs(d1[i]) < 1e-6 or abs(d1[i] * uz2[i] * dy2[i]) < 1e-9:
            continue
        qbar = (1.0 / d1[i] - d20[i]) / (uz2[i] * dy2[i])
        if qbar == 0:
            continue
        n_scanned += 1
        ap = allpass_fit(om[i], qbar)
        if ap.a <= 1e-6:
            continue
        for j in range(21):             # ladder steps 0..20
            for sign in (1.0, -1.0):
                if j == 0 and sign < 0:
                    continue
                kj = ap.k * (1.0 + sign * 0.01 * j)
                if kj <= 0:
                    continue
                cand = AllPassParam(k=kj, a=ap.a)
                kappa2 = realize_controller(
                    ns.sub2, YoulaController(F2, H2, allpass_ss(cand)))
                local = spectral_abscissa(feedback_interconnect(open2, kappa2).A)
                if local >= -1e-6:
                    continue
                glob = spectral_abscissa(
                    close_local_controllers(plant, kappa1, kappa2).A)
                if glob > 1e-6:
                    return DestabilizerResult(
                        found=True, omega=float(om[i]), allpass=cand,
                        kappa1=kappa1, kappa2=kappa2,
                        local_abscissa=float(local), global_abscissa=float(glob),
                        n_scanned=n_scanned)
                if best_marginal is None or glob > best_marginal["global_abscissa"]:
                    best_marginal = {"omega": float(om[i]), "k": float(kj),
                                     "a": float(ap.a), "local_abscissa": float(local),
                                     "global_abscissa": float(glob)}
    return DestabilizerResult(
        found=False, n_scanned=n_scanned,
        reason="no probe frequency produced a certified destabilizer; "
               "the grid search is inconclusive",
        best_marginal=best_marginal)
