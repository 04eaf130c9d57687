"""Desk-scale five-generator power-grid experiment.

Each generator is a four-state swing model (angle, speed, mechanical
input, valve position) with inertia M, damping Dd, turbine constant T,
governor constant K and droop Rd, all in per-unit. Generators couple
electrically through a reduced admittance matrix acting on the angle
vector (torque = -Y delta); the bundled Y comes from Kron-reducing the
IEEE 14-bus line susceptances to the five generator buses.

Generators {1,2,3} form subsystem one and {4,5} subsystem two. The local
controllers are observer-based LQR trackers on the integral-augmented
local cluster (angles track a piecewise-constant reference), so each
controller consumes only its cluster's measured angles. Attacks keep the
local loops stable: either LQR detuning (input penalty x 1e4) or a random
stable free-parameter perturbation on the nominal loop.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from importlib import resources

import numpy as np
import scipy.linalg as sla

from .lti import StateSpace, frozen_array, spectral_abscissa
from .network import NetworkedSystem, Subsystem
from .sampling import random_stable_statespace
from .simulate import ReferenceSignal, closed_tracking_loop
from .synthesis import SynthesisError, design_observer_gain, solve_care
from .youla import _observer_controller

_log = logging.getLogger(__name__)

PARAM_RANGES = {
    "M": (0.01, 1.0),
    "Dd": (0.4, 11.0),
    "T": (0.01, 0.02),
    "K": (0.03, 0.7),
    "Rd": (0.01, 0.05),
}
N_GEN = 5
DEFAULT_CLUSTERING = ((1, 2, 3), (4, 5))
MAX_RESAMPLE = 5                        # grid draws tried by grid_network


@dataclass(frozen=True)
class GeneratorParams:
    """Per-unit swing-model constants, each inside its sampling interval."""

    M: float
    Dd: float
    T: float
    K: float
    Rd: float

    def __post_init__(self):
        for name, (lo, hi) in PARAM_RANGES.items():
            v = getattr(self, name)
            if not (lo <= v <= hi):
                raise ValueError(f"{name}={v} outside [{lo}, {hi}]")

    @classmethod
    def sample(cls, rng: np.random.Generator) -> "GeneratorParams":
        return cls(**{k: float(rng.uniform(*PARAM_RANGES[k]))
                      for k in ("M", "Dd", "T", "K", "Rd")})


def generator_matrices(p: GeneratorParams):
    """(A, b, b_tau, c): state (angle, speed, mech input, valve)."""
    A = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [0.0, -p.Dd / p.M, -1.0 / p.M, 0.0],
        [0.0, 0.0, -1.0 / p.T, 1.0 / p.T],
        [0.0, 1.0 / p.K, 0.0, -p.Rd / p.K],
    ])
    b = np.array([[0.0], [0.0], [0.0], [1.0 / p.K]])
    b_tau = np.array([[0.0], [1.0 / p.M], [0.0], [0.0]])
    c = np.array([[1.0, 0.0, 0.0, 0.0]])
    return A, b, b_tau, c


def load_reduced_admittance() -> tuple[np.ndarray, dict]:
    """Bundled 5x5 generator-coupling matrix and its metadata."""
    with resources.files("netresil").joinpath("data/ieee14_kron_y.json").open() as fh:
        payload = json.load(fh)
    Y = np.asarray(payload["Y"], dtype=float)
    meta = {k: payload[k] for k in payload if k != "Y"}
    return Y, meta


@dataclass(frozen=True)
class GridModel:
    """Five generators and a symmetric coupling matrix."""

    generators: tuple
    Y: np.ndarray

    def __post_init__(self):
        gens = tuple(self.generators)
        if len(gens) != N_GEN:
            raise ValueError(f"expected {N_GEN} generators")
        Y = frozen_array(self.Y, "admittance Y")
        if Y.shape != (N_GEN, N_GEN):
            raise ValueError("Y must be 5x5")
        if np.abs(Y - Y.T).max() > 1e-9 * max(1.0, np.abs(Y).max()):
            raise ValueError("Y must be symmetric")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "Y", Y)

    @classmethod
    def sample(cls, seed: int) -> "GridModel":
        """Generators drawn from ``default_rng(seed)``, the bundled Y."""
        rng = np.random.default_rng(seed)
        gens = tuple(GeneratorParams.sample(rng) for _ in range(N_GEN))
        return cls(generators=gens, Y=load_reduced_admittance()[0])


def build_network(gm: GridModel) -> NetworkedSystem:
    """Assemble the two-subsystem network clustered as DEFAULT_CLUSTERING.

    The full 20-state drift is dg(A_k) - dg(b_tau_k) Y dg(c); cluster
    blocks of Y stay inside each subsystem while the cross blocks form the
    couplings: S_i selects the cluster's angles and J_i injects the
    peer-scaled torques. B, R and C stack the per-generator input and
    angle-output maps (R = B: supervisory commands enter like governor
    commands).
    """
    mats = [generator_matrices(p) for p in gm.generators]
    groups = [[i - 1 for i in grp] for grp in DEFAULT_CLUSTERING]

    def cluster(idx):
        A = sla.block_diag(*[mats[k][0] for k in idx])
        B = sla.block_diag(*[mats[k][1] for k in idx])
        Btau = sla.block_diag(*[mats[k][2] for k in idx])
        C = sla.block_diag(*[mats[k][3] for k in idx])
        return A, B, Btau, C

    (A1d, B1, Bt1, C1) = cluster(groups[0])
    (A2d, B2, Bt2, C2) = cluster(groups[1])
    Y11 = gm.Y[np.ix_(groups[0], groups[0])]
    Y12 = gm.Y[np.ix_(groups[0], groups[1])]
    Y21 = gm.Y[np.ix_(groups[1], groups[0])]
    Y22 = gm.Y[np.ix_(groups[1], groups[1])]

    A1 = A1d - Bt1 @ Y11 @ C1
    A2 = A2d - Bt2 @ Y22 @ C2
    J1 = -Bt1 @ Y12        # torque injection from peer angles
    J2 = -Bt2 @ Y21
    S1, S2 = C1, C2        # interaction output = cluster angles
    sub1 = Subsystem(A1, B1, C1, J1, S1, None)
    sub2 = Subsystem(A2, B2, C2, J2, S2, None)
    R = sla.block_diag(B1, B2)
    return NetworkedSystem(sub1, sub2, R)


@dataclass(frozen=True)
class TrackingController:
    """Observer-based LQR tracker for one cluster.

    u = -Kx xhat - Ke int(y - y_d), with xhat from a Luenberger observer
    on the local cluster; an optional stable free parameter Q perturbs the
    loop through the output innovation without breaking local stability.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Kx: np.ndarray
    Ke: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        for f in ("A", "B", "C", "Kx", "Ke", "L"):
            object.__setattr__(self, f, frozen_array(getattr(self, f), f"tracker {f}"))

    def realize(self, q_param: StateSpace | None = None) -> StateSpace:
        """Controller with inputs (y, y_d) and output u.

        The observer-based controller of the integrator-augmented cluster
        (gain -[Kx Ke], injection [L; I]) with the reference entering the
        integrator as -y_d.
        """
        n, m, qd = self.A.shape[0], self.B.shape[1], self.C.shape[0]
        if q_param is None:
            q_param = StateSpace.from_gain(np.zeros((m, qd)))
        k = _observer_controller(*_integrator_augmented(self.A, self.B, self.C),
                                 -np.hstack([self.Kx, self.Ke]),
                                 np.vstack([self.L, np.eye(qd)]), q_param)
        Bd = np.vstack([np.zeros((n, qd)), -np.eye(qd), np.zeros((q_param.n, qd))])
        return StateSpace(k.A, np.hstack([k.B, Bd]), k.C, np.hstack([k.D, np.zeros((m, qd))]))

    def local_abscissa(self, q_param: StateSpace | None = None) -> float:
        """Spectral abscissa of the local cluster closed loop."""
        plant = StateSpace(self.A, self.B, self.C, None)
        loop = closed_tracking_loop(plant, [self.realize(q_param)], [self.C.shape[0]])
        return spectral_abscissa(loop.A)


def _integrator_augmented(A, B, C):
    """(A, B, C) of the cluster with the output integral appended to the state."""
    n, m, qd = A.shape[0], B.shape[1], C.shape[0]
    return (np.block([[A, np.zeros((n, qd))], [C, np.zeros((qd, qd))]]),
            np.vstack([B, np.zeros((qd, m))]),
            np.hstack([C, np.zeros((qd, qd))]))


def design_tracking_controller(A, B, C, r_scale: float = 1.0) -> TrackingController:
    """LQR on the integral-augmented cluster plus a dual-LQR observer."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    n, m, qd = A.shape[0], B.shape[1], C.shape[0]
    A_aug, B_aug, _ = _integrator_augmented(A, B, C)
    sol = solve_care(A_aug, B_aug, np.eye(n + qd), r_scale * np.eye(m))
    Kx, Ke = sol.K[:, :n], sol.K[:, n:]
    return TrackingController(A=A, B=B, C=C, Kx=Kx, Ke=Ke, L=design_observer_gain(A, C))


def design_tracking_controllers(ns: NetworkedSystem, r_scale: float = 1.0
                                ) -> tuple[TrackingController, TrackingController]:
    """Per-cluster trackers, couplings dropped.

    Raises :class:`SynthesisError` if an augmented cluster is not
    stabilizable for this parameter draw.
    """
    return (design_tracking_controller(ns.sub1.A, ns.sub1.B, ns.sub1.C, r_scale),
            design_tracking_controller(ns.sub2.A, ns.sub2.B, ns.sub2.C, r_scale))


@dataclass(frozen=True)
class GridAttack:
    """Locally stable controller pair that destabilizes the open network."""

    kappa1: StateSpace
    kappa2: StateSpace
    local_abscissae: tuple[float, float]
    global_abscissa: float
    trial: int
    gain: float


def find_destabilizing_attack(ns: NetworkedSystem, k1: TrackingController,
                              k2: TrackingController, seed: int = 0,
                              max_trials: int = 200) -> GridAttack | None:
    """Random free-parameter attack search on the uncompensated network.

    Draws stable perturbations of growing gain on both trackers, keeps
    only locally stable pairs, and returns the first pair whose
    interconnected closed loop has spectral abscissa above 1e-6. All the
    attacked loops remain locally stable by construction, so a hit is a
    certified resilience violation.
    """
    from .network import interconnect

    plant = interconnect(ns)
    rng = np.random.default_rng(seed)
    q_dims = (ns.sub1.q, ns.sub2.q)
    for trial in range(max_trials):
        gain = 10.0 ** rng.uniform(0.0, 2.5)
        qp1 = random_stable_statespace(rng, 2, m=ns.sub1.q, q=ns.sub1.m, gain=gain,
                                       min_margin=0.2)
        qp2 = random_stable_statespace(rng, 2, m=ns.sub2.q, q=ns.sub2.m, gain=gain,
                                       min_margin=0.2)
        loc1 = k1.local_abscissa(qp1)
        loc2 = k2.local_abscissa(qp2)
        if loc1 >= -1e-6 or loc2 >= -1e-6:
            continue
        c1 = k1.realize(qp1)
        c2 = k2.realize(qp2)
        glob = spectral_abscissa(closed_tracking_loop(plant, [c1, c2], q_dims).A)
        if glob > 1e-6:
            return GridAttack(kappa1=c1, kappa2=c2,
                              local_abscissae=(float(loc1), float(loc2)),
                              global_abscissa=float(glob), trial=trial,
                              gain=float(gain))
    return None


def grid_network(seed: int, horizon: float = 50.0, dwell: float = 25.0
                 ) -> tuple[GridModel, NetworkedSystem, TrackingController,
                            TrackingController, ReferenceSignal, int]:
    """Sample a grid and design its trackers, resampling on design failure.

    Returns (model, network, k1, k2, reference, seed_used); the seed
    increments on stabilizability failures, which are logged as warnings,
    for at most MAX_RESAMPLE draws.
    The reference over ``horizon`` redraws one level in [-0.2, 0.2] per
    subsystem every ``dwell`` seconds from ``default_rng(seed_used)``.
    """
    s = seed
    for _ in range(MAX_RESAMPLE):
        gm = GridModel.sample(s)
        ns = build_network(gm)
        try:
            k1, k2 = design_tracking_controllers(ns)
        except SynthesisError as exc:
            _log.warning("grid seed %d: tracker design failed (%s); resampling", s, exc)
            s += 1
            continue
        rng = np.random.default_rng(s)
        r1 = ReferenceSignal.random_levels(rng, horizon, dwell, ns.sub1.q)
        r2 = ReferenceSignal.random_levels(rng, horizon, dwell, ns.sub2.q)
        return gm, ns, k1, k2, ReferenceSignal(r1.times, np.hstack([r1.levels, r2.levels])), s
    raise SynthesisError(f"no stabilizable grid draw within {MAX_RESAMPLE} seeds of {seed}")
