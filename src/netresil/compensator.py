"""Supervisory compensator synthesis and verification.

The compensator

    phi' = Lambda phi + Gamma z
    r    = Xi phi
    v    = Theta phi

attaches to the network through the extra channels (v into the state, r
added to the output). Choosing Gamma to absorb one coupling direction and
Lambda = (A - Gamma dg(S)) + R Theta turns the compensated transfer matrix
block-triangular with the decoupled node transfers on the diagonal, which
makes the interconnection immune to any locally stabilizing controller
swap. The coordinate change chi = x - phi exhibits the triangular form
explicitly and yields the L2 performance bound
||x|| <= (1 + gamma) ||chi|| with gamma the H-infinity norm of the
compensator's disturbance channel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np
from .lti import StateSpace, default_grid, eval_frequency, frozen_array, is_controllable
from .network import NetworkedSystem, interconnect
from .synthesis import (MAX_GAIN, HinfResult, SynthesisError, design_observer_gain,
                        design_theta, design_theta_gamma_scan, hinf_norm)


@dataclass(frozen=True)
class Compensator:
    """Supervisory compensator matrices; the order eta is Lambda's.

    ``observer_gain`` (eta x p_total), when given, feeds the compensator
    from an observer of the interaction output instead of z itself (see
    :func:`synthesize_observer_compensator`).
    """

    Lambda_: np.ndarray
    Gamma: np.ndarray
    Xi: np.ndarray
    Theta: np.ndarray
    cut: str = "1to2"
    observer_gain: np.ndarray | None = None

    def __post_init__(self):
        attrs = ("Lambda_", "Gamma", "Xi", "Theta")
        if self.observer_gain is not None:
            attrs += ("observer_gain",)
        for attr in attrs:
            name, M = f"compensator {attr.rstrip('_')}", getattr(self, attr)
            if np.ndim(M) != 2:
                raise ValueError(f"{name} must be a matrix, got shape {np.shape(M)}")
            object.__setattr__(self, attr, frozen_array(M, name))
        if self.cut not in ("1to2", "2to1"):
            raise ValueError(f"compensator cut must be '1to2' or '2to1', got {self.cut!r}")
        self._check_shapes(f"shapes disagree with eta={self.eta}")

    @property
    def eta(self) -> int:
        """Compensator order, the state dimension of Lambda."""
        return self.Lambda_.shape[0]

    def _check_shapes(self, what: str, p: int | None = None, q: int | None = None,
                      r: int | None = None) -> None:
        """Raise naming every matrix whose shape differs from the layout
        Lambda (eta, eta), Gamma (eta, p), Xi (q, eta), Theta (r, eta) and
        observer_gain (eta, p); a dimension given as None is not checked."""
        eta = self.eta
        want = {"Lambda": (self.Lambda_, (eta, eta)), "Gamma": (self.Gamma, (eta, p)),
                "Xi": (self.Xi, (q, eta)), "Theta": (self.Theta, (r, eta))}
        if self.observer_gain is not None:
            want["observer_gain"] = (self.observer_gain, (eta, p))
        bad = []
        for name, (M, shape) in want.items():
            if any(d is not None and d != got for d, got in zip(shape, M.shape)):
                expected = ", ".join("*" if d is None else str(d) for d in shape)
                bad.append(f"{name} is {M.shape}, expected ({expected})")
        if bad:
            raise ValueError(f"compensator {what}: " + "; ".join(bad))

    def check_fits(self, ns: NetworkedSystem) -> None:
        """Raise ValueError unless the matrices fit the network's state,
        interaction, output and supervisory-input dimensions."""
        if self.eta != ns.n:
            raise ValueError(f"compensator order {self.eta} does not match n={ns.n}")
        self._check_shapes(f"does not fit the network (n={ns.n})",
                           p=ns.p_total, q=ns.q, r=ns.R.shape[1])

    def to_dict(self) -> dict:
        if self.observer_gain is not None:
            raise ValueError("the compensator JSON format has no observer gain; "
                             "an observer-fed compensator cannot be written")
        return {"Lambda": self.Lambda_.tolist(), "Gamma": self.Gamma.tolist(),
                "Xi": self.Xi.tolist(), "Theta": self.Theta.tolist(),
                "eta": self.eta, "cut": self.cut}

    @classmethod
    def from_dict(cls, d: dict) -> "Compensator":
        """Inverse of ``to_dict``; ``"eta"`` must be the order of Lambda."""
        comp = cls(d["Lambda"], d["Gamma"], d["Xi"], d["Theta"], d.get("cut", "1to2"))
        eta = d["eta"]
        if isinstance(eta, bool) or eta != comp.eta:
            raise ValueError(f"compensator eta {eta!r} is not the order {comp.eta} of Lambda")
        return comp

    def to_json(self, path) -> None:
        payload = self.to_dict()
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)


@dataclass(frozen=True)
class PerformanceBound:
    gamma: float
    factor: float
    peak_omega: float


class FeedthroughError(SynthesisError):
    """The network has nonzero coupling feedthrough Dz, which the
    compensator construction excludes."""


def _require_zero_feedthrough(ns: NetworkedSystem) -> None:
    if np.any(ns.sub1.Dz) or np.any(ns.sub2.Dz):
        raise FeedthroughError("compensator synthesis requires zero coupling "
                               "feedthrough (Dz = 0) in both subsystems")


def _gamma_matrix(ns: NetworkedSystem, cut: str) -> np.ndarray:
    """Gamma absorbing the coupling of the cut direction.

    cut='1to2' removes the influence of node 1 on node 2 (the J2 S1 block),
    so Gamma carries J2 against z1; cut='2to1' mirrors it.
    """
    n1, p1 = ns.sub1.n, ns.sub1.p
    G = np.zeros((ns.n, ns.p_total))
    if cut == "1to2":
        G[n1:, :p1] = ns.sub2.J
    else:
        G[:n1, p1:] = ns.sub1.J
    return G


def default_cut(ns: NetworkedSystem) -> str:
    """Cut the direction with the smaller coupling norm (smaller Gamma
    tends to a smaller performance bound); ties cut 1to2."""
    n_1to2 = np.linalg.norm(ns.sub2.J @ ns.sub1.S)
    n_2to1 = np.linalg.norm(ns.sub1.J @ ns.sub2.S)
    return "1to2" if n_1to2 <= n_2to1 else "2to1"


def synthesize_compensator(ns: NetworkedSystem, theta_policy: str = "gamma_scan") -> Compensator:
    """Build the compensator that renders the network block-triangular,
    cutting the direction :func:`default_cut` picks.

    ``theta_policy`` is ``"gamma_scan"`` (coarse LQR-weight scan minimizing
    the disturbance-channel norm) or ``"lqr"`` (unit weights). Requires
    Dz = 0 and (A, R) controllable.
    """
    _require_zero_feedthrough(ns)
    cut = default_cut(ns)
    sigma = interconnect(ns)
    A, R = sigma.A, ns.R
    if not is_controllable(A, R):
        raise SynthesisError("(A, R) must be controllable to place the "
                             "supervisory dynamics")
    Gamma = _gamma_matrix(ns, cut)
    if theta_policy == "gamma_scan":
        Theta, _ = design_theta_gamma_scan(A, R, Gamma)
    elif theta_policy == "lqr":
        Theta = design_theta(A, R)
    else:
        raise ValueError("theta_policy must be 'gamma_scan' or 'lqr'")
    Lambda_ = (A - Gamma @ ns.interaction_map()) + R @ Theta
    Xi = -ns.output_map()
    return Compensator(Lambda_=Lambda_, Gamma=Gamma, Xi=Xi, Theta=Theta, cut=cut)


def attach_compensator(ns: NetworkedSystem, comp: Compensator) -> StateSpace:
    """Compensated plant over (u -> y), state (phi, xhat, x):

        phi'  = Lambda phi + Gamma dg(S) w
        xhat' = R Theta phi + (A - H dg(S)) xhat + H dg(S) x + B u
        x'    = R Theta phi + A x + B u
        y     = Xi phi + dg(C) x

    The observer block xhat is present only when the compensator has an
    observer gain H; the compensator reads w from state columns n:2n,
    which hold xhat with an observer and x without one.
    """
    _require_zero_feedthrough(ns)
    comp.check_fits(ns)
    sigma = interconnect(ns)
    n, H = ns.n, comp.observer_gain
    N = (2 if H is None else 3) * n
    dgS = ns.interaction_map()
    RTh = ns.R @ comp.Theta
    A, B, C = np.zeros((N, N)), np.zeros((N, ns.m)), np.zeros((ns.q, N))
    A[:n, :n] = comp.Lambda_
    A[:n, n:2 * n] = comp.Gamma @ dgS
    for i in range(n, N, n):            # xhat and x rows
        A[i:i + n, :n] = RTh
        B[i:i + n] = sigma.B
    A[N - n:, N - n:] = sigma.A
    if H is not None:
        HS = H @ dgS
        A[n:2 * n, n:2 * n] = sigma.A - HS
        A[n:2 * n, 2 * n:] = HS
    C[:, :n] = comp.Xi
    C[:, N - n:] = ns.output_map()
    return StateSpace(A, B, C, None)


def cascade_reference(ns: NetworkedSystem, comp: Compensator) -> StateSpace:
    """The n-state triangular system the compensated plant matches:
    chi' = (A - Gamma dg(S)) chi + B u,  y = dg(C) chi."""
    sigma = interconnect(ns)
    Acal = sigma.A - comp.Gamma @ ns.interaction_map()
    return StateSpace(Acal, sigma.B, ns.output_map(), None)


@dataclass(frozen=True)
class TriangularReport:
    """Frequency-domain triangularity check.

    ``offdiag_residual`` maps ordering -> max relative magnitude of the
    block that must vanish under that ordering ('upper': block (2,1),
    'lower': block (1,2)); ``diag_residual`` is the worst relative mismatch
    of the diagonal blocks against the decoupled node transfers. ``scale``
    is the grid maximum of ||Sigma(jw)||_F.
    """

    passed: bool
    ordering: str | None
    offdiag_residual: dict
    diag_residual: float
    scale: float
    tol: float


def verify_triangular(sys: StateSpace, ref_diag: list[StateSpace],
                      tol: float = 1e-7) -> TriangularReport:
    """Check block-triangularity of ``sys`` against decoupled diagonal
    references on the default frequency grid (both orderings are tested).
    Raises :class:`SynthesisError` when a response on the grid exceeds
    ``synthesis.MAX_GAIN`` or is not finite."""
    if len(ref_diag) != 2:
        raise ValueError("expected two diagonal reference systems")
    g1, g2 = ref_diag
    q1, m1 = g1.q, g1.m
    q2, m2 = g2.q, g2.m
    if sys.q != q1 + q2 or sys.m != m1 + m2:
        raise ValueError("system channel dimensions do not match references")
    grid = default_grid()
    F = eval_frequency(sys, grid).values
    F11 = F[:, :q1, :m1]
    F12 = F[:, :q1, m1:]
    F21 = F[:, q1:, :m1]
    F22 = F[:, q1:, m1:]
    R1 = eval_frequency(g1, grid).values
    R2 = eval_frequency(g2, grid).values
    if not all(np.abs(X).max(initial=0.0) <= MAX_GAIN for X in (F, R1, R2)):
        raise SynthesisError(f"a frequency response exceeds {MAX_GAIN:g} on the grid: a pole "
                             "lies on the imaginary axis to working precision")

    scale = float(np.linalg.norm(F.reshape(F.shape[0], -1), axis=1).max())
    scale = max(scale, 1e-300)

    def block_max(X):
        return float(np.linalg.norm(X.reshape(X.shape[0], -1), axis=1).max())

    diag_res = max(block_max(F11 - R1), block_max(F22 - R2)) / scale
    off = {"upper": block_max(F21) / scale, "lower": block_max(F12) / scale}
    ok_upper = off["upper"] <= tol and diag_res <= tol
    ok_lower = off["lower"] <= tol and diag_res <= tol
    if ok_upper and ok_lower:
        ordering = "both"
    elif ok_upper:
        ordering = "upper"
    elif ok_lower:
        ordering = "lower"
    else:
        ordering = None
    return TriangularReport(passed=ordering is not None, ordering=ordering,
                            offdiag_residual=off, diag_residual=diag_res,
                            scale=scale, tol=tol)


def performance_bound(comp: Compensator, ns: NetworkedSystem) -> PerformanceBound:
    """gamma = || (sI - (A + R Theta))^-1 Gamma ||_Hinf and the resulting
    L2 amplification factor 1 + gamma. Raises :class:`SynthesisError` when
    A + R Theta is not Hurwitz or the norm iteration did not converge."""
    sigma = interconnect(ns)
    res: HinfResult = hinf_norm(StateSpace(sigma.A + ns.R @ comp.Theta, comp.Gamma,
                                           np.eye(ns.n), None))
    if not res.converged:
        raise SynthesisError(f"H-infinity norm of the disturbance channel did not converge "
                             f"in {res.iterations} iterations")
    return PerformanceBound(gamma=res.norm, factor=1.0 + res.norm,
                            peak_omega=res.peak_omega)


def synthesize_observer_compensator(ns: NetworkedSystem,
                                    theta_policy: str = "gamma_scan") -> Compensator:
    """Compensator fed by an observer of the interaction output w = dg(S) x.

    The observer
        xhat' = (A - H dg(S)) xhat + dg(B) u + H w + R v
    reconstructs x, and the compensator consumes zhat = dg(S) xhat in place
    of z. Requires (A, dg(S)) observable.
    """
    base = synthesize_compensator(ns, theta_policy=theta_policy)
    H = design_observer_gain(interconnect(ns).A, ns.interaction_map())
    return replace(base, observer_gain=H)


def compensated_plant(ns: NetworkedSystem, comp: Compensator | None
                      ) -> tuple[StateSpace, slice, slice]:
    """Plant over (u -> y) with no compensator or with ``comp`` attached,
    plus the slices of its state that hold the compensator state phi and
    the physical state x.

    The state is x, (phi, x) or, with an observer gain, (phi, xhat, x);
    phi is empty when ``comp`` is None.
    """
    n = ns.n
    if comp is None:
        return interconnect(ns), slice(0, 0), slice(0, n)
    plant = attach_compensator(ns, comp)
    return plant, slice(0, n), slice(plant.n - n, plant.n)
