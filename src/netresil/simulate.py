"""Deterministic fixed-step simulation and attack/recovery scenarios.

Classical fourth-order Runge-Kutta with a hard step-size guard
(h |lambda|_max <= 0.1). For piecewise-constant inputs the four stages
collapse to the affine step map x+ = Phi x + Psi u, which is exactly the
classical scheme. Its s-fold composition is read off one block-matrix
power, [[Phi, Psi], [0, I]]^s = [[Phi^s, (sum_{j<s} Phi^j) Psi], [0, I]],
so a run jumps from stored sample to stored sample and never forms the
steps in between; a stride splits wherever the input changes level inside
it, and a stride of one step is the step map itself. Divergence is checked
at every stored sample.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np
import scipy.linalg as sla

from .compensator import Compensator, compensated_plant
from .lti import (StateSpace, blockdiag, feedback_interconnect, frozen_array,
                  spectral_abscissa)
from .network import NetworkedSystem

DIVERGENCE_LIMIT = 1e9

MAX_STORED_SAMPLES = 1_000_000
"""Most samples one run may store, and most levels one random reference may
hold; a longer run is refused before anything is allocated."""


class StepSizeError(ValueError):
    """h violates the stability-resolving bound h |lambda|_max <= 0.1."""


class DivergenceError(RuntimeError):
    """Operation requires a non-divergent trajectory."""


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled closed-loop record.

    ``states`` holds the physical plant state x, ``comp_states`` the
    compensator state phi (zero columns when none is attached),
    ``outputs``/``inputs`` the measured outputs and the exogenous inputs
    driving the run (controller commands for scenario runs are in
    ``commands``). ``h`` is the stored sample step; ``diverged`` marks a
    truncated run whose state left the finite range.
    """

    times: np.ndarray
    states: np.ndarray
    comp_states: np.ndarray
    outputs: np.ndarray
    inputs: np.ndarray
    h: float
    diverged: bool = False
    commands: np.ndarray | None = None

    def __post_init__(self):
        k = self.times.size
        for name in ("states", "comp_states", "outputs", "inputs"):
            if getattr(self, name).shape[0] != k:
                raise ValueError(f"{name} rows must match times")


class L2Report(NamedTuple):
    """L2 norm with a truncation-quality indicator."""

    value: float
    terminal_ratio: float


@dataclass(frozen=True)
class ReferenceSignal:
    """Piecewise-constant reference: level rows hold between change times."""

    times: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        t = frozen_array(self.times, "reference times", ndim=1)
        lv = frozen_array(self.levels, "reference levels")
        if t.size != lv.shape[0]:
            raise ValueError("one level row per change time required")
        if t.size == 0 or t[0] != 0.0 or (t.size > 1 and not np.all(np.diff(t) > 0)):
            raise ValueError("change times must start at 0 and increase")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "levels", lv)

    @property
    def width(self) -> int:
        return self.levels.shape[1]

    @classmethod
    def constant(cls, level) -> "ReferenceSignal":
        return cls([0.0], level)

    @classmethod
    def random_levels(cls, rng: np.random.Generator, horizon: float, dwell: float,
                      width: int) -> "ReferenceSignal":
        """Random levels in [-0.2, 0.2] redrawn every ``dwell`` seconds, one
        level per draw broadcast across all ``width`` channels."""
        if horizon / dwell > MAX_STORED_SAMPLES:
            raise ValueError(f"horizon / dwell = {horizon / dwell:.3g} reference levels "
                             f"exceeds the limit of {MAX_STORED_SAMPLES:,}")
        k = max(1, int(np.ceil(horizon / dwell)))
        times = np.arange(k) * dwell
        return cls(times, np.repeat(rng.uniform(-0.2, 0.2, size=(k, 1)), width, axis=1))


@dataclass(frozen=True)
class Scenario:
    """Timeline of controller swaps with a tracking reference.

    ``segments`` pairs each start time (first must be 0) with a key into
    the controller library passed to :func:`run_scenario`. Controller
    internal state carries over at swaps when dimensions match
    (``carryover=True``), else resets to zero; plant and compensator
    states always carry over.
    """

    segments: tuple
    horizon: float
    x0: np.ndarray
    h: float = 1e-3
    reference: ReferenceSignal | None = None
    carryover: bool = True
    store_every: int = 1

    def __post_init__(self):
        segs = tuple((float(t), key) for t, key in self.segments)
        if not segs or segs[0][0] != 0.0:
            raise ValueError("segments must start at t = 0")
        starts = [t for t, _ in segs]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("segment start times must strictly increase")
        if self.horizon < starts[-1]:
            raise ValueError("horizon must reach the last segment")
        check_run(self.horizon, self.h, self.store_every)
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "x0", frozen_array(self.x0, "scenario x0", ndim=1))


def check_run(T: float, h: float, store_every: int) -> None:
    """Refuse a run over [0, T] with step h that stores every
    ``store_every``-th step, unless h is positive and finite, T is
    non-negative and finite, store_every is at least 1 and at most
    MAX_STORED_SAMPLES samples are stored."""
    if not 0 < h < np.inf:
        raise ValueError(f"step h must be positive and finite, got {h!r}")
    if not 0 <= T < np.inf:
        raise ValueError(f"horizon T must be non-negative and finite, got {T!r}")
    if store_every < 1:
        raise ValueError(f"store_every must be at least 1, got {store_every!r}")
    samples = T / (h * store_every)
    if samples > MAX_STORED_SAMPLES:
        raise ValueError(f"T / (h * store_every) = {samples:.3g} stored samples "
                         f"exceeds the limit of {MAX_STORED_SAMPLES:,}")


def _rk4_step_maps(A: np.ndarray, B: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """One classical RK4 step with the input held constant: x+ = Phi x + Psi u."""
    n = A.shape[0]
    eye = np.eye(n)
    hA = h * A
    inner = eye / 2 + hA @ (eye / 6 + hA / 24)
    Phi = eye + hA @ (eye + hA @ inner)
    Psi = h * (eye + hA @ inner) @ B
    return Phi, Psi


def check_step(A: np.ndarray, h: float) -> float:
    """Enforce h |lambda|_max <= 0.1; returns |lambda|_max."""
    lam = float(np.abs(np.linalg.eigvals(A)).max()) if A.size else 0.0
    if h * lam > 0.1 + 1e-12:
        raise StepSizeError(f"h={h:g} too large: h*|lambda|_max = {h * lam:.3f} > 0.1")
    return lam


def max_step(A: np.ndarray) -> float:
    """Largest step admitted by the guard for this system matrix."""
    lam = float(np.abs(np.linalg.eigvals(A)).max()) if A.size else 0.0
    return 0.1 / lam if lam > 0 else np.inf


def _diverged(x: np.ndarray) -> bool:
    """Some entry of x is non-finite or above DIVERGENCE_LIMIT in magnitude."""
    # ||x||_2 bounds every entry, so one dot product settles the common case;
    # NaN fails both comparisons
    return not (x.dot(x) <= DIVERGENCE_LIMIT ** 2
                or np.abs(x).max(initial=0.0) <= DIVERGENCE_LIMIT)


def _affine_steps(Phi: np.ndarray, Psi: np.ndarray, x: np.ndarray, k0: int, k1: int,
                  store: int, changes: Sequence[int], levels: np.ndarray,
                  include_end: bool):
    """Run x_{k+1} = Phi x_k + Psi u_k from step k0 to step k1.

    The input is ``levels[j]`` from step ``changes[j]`` on (``changes``
    sorted, ``changes[0] <= k0``). x_k is stored at every multiple of
    ``store`` in [k0, k1), and at k1 when ``include_end``. Between stored
    samples the run jumps x <- Phi^s x + S_s Psi u, S_s = sum_{j<s} Phi^j,
    splitting the jump at level changes; the (Phi^s, S_s Psi) pair is built
    once per jump length s, and s = 1 is (Phi, Psi) itself. A state past the
    divergence limit ends the run unstored.

    Returns (x, states, inputs, steps, diverged): x is the state reached
    at k1 (or the first diverged one), and each stored row has its input
    level and step.
    """
    n, m = Psi.shape
    jumps = {1: (Phi, Psi)}
    rows, level_rows, steps = [], [], []
    j = max(bisect_right(changes, k0) - 1, 0)
    k, drift_key, diverged = k0, None, False
    while True:
        if k % store == 0 and (k < k1 or include_end):
            rows.append(x)
            level_rows.append(j)
            steps.append(k)
        if k == k1:
            break
        nxt = min(k1, (k // store + 1) * store)
        if j + 1 < len(changes) and changes[j + 1] < nxt:
            nxt = changes[j + 1]
        s = nxt - k
        if s not in jumps:
            aug = np.eye(n + m)
            aug[:n, :n], aug[:n, n:] = Phi, Psi
            power = np.linalg.matrix_power(aug, s)
            jumps[s] = (power[:n, :n].copy(), power[:n, n:].copy())
        if drift_key != (s, j):
            drift, drift_key = jumps[s][1] @ levels[j], (s, j)
        x = jumps[s][0] @ x + drift
        k = nxt
        while j + 1 < len(changes) and k >= changes[j + 1]:
            j += 1
        if _diverged(x):
            diverged = True
            break
    states = np.asarray(rows, dtype=float).reshape(len(rows), n)
    inputs = levels[np.asarray(level_rows, dtype=int)]
    return x, states, inputs, np.asarray(steps, dtype=int), diverged


def simulate(system: StateSpace, x0, inputs=None, T: float = 1.0, h: float = 1e-3,
             store_every: int = 1) -> Trajectory:
    """Integrate x' = A x + B u from x0 over [0, T].

    ``inputs`` is None (zero input) or a constant vector u. Divergence
    (non-finite state or a state entry above 1e9 in magnitude) truncates
    the run and flags the trajectory.
    """
    check_run(T, h, store_every)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != system.n:
        raise ValueError(f"x0 has {x0.size} entries, expected {system.n}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    check_step(system.A, h)
    u = np.zeros(system.m) if inputs is None else np.asarray(inputs, dtype=float).reshape(-1)
    if u.size != system.m:
        raise ValueError("constant input width mismatch")
    Phi, Psi = _rk4_step_maps(system.A, system.B, h)
    _, X, U, steps, diverged = _affine_steps(Phi, Psi, x0, 0, int(round(T / h)), store_every,
                                             [0], u[None, :], include_end=True)
    times = steps.astype(float) * h
    Y = X @ system.C.T + U @ system.D.T
    return Trajectory(times=times, states=X, comp_states=np.zeros((X.shape[0], 0)),
                      outputs=Y, inputs=U, h=h * store_every, diverged=diverged)


@dataclass(frozen=True)
class SegmentReport:
    t_start: float
    key: str
    abscissa: float
    stable: bool


def closed_tracking_loop(plant: StateSpace, controllers: Sequence[StateSpace],
                         q_dims: Sequence[int]) -> StateSpace:
    """Close per-channel tracking controllers u_i = kappa_i(y_i, y_i^d).

    Returns the loop driven by the stacked reference y^d with outputs
    (y, u). The plant must be strictly proper: the plant is augmented to
    inputs (u, y^d) and outputs (y, u, y, y^d), and the block-diagonal
    controller is closed over the last two groups, read per channel as
    (y_i, y_i^d).
    """
    if np.any(plant.D):
        raise ValueError("tracking loop assembly expects a strictly proper plant")
    if sum(q_dims) != plant.q:
        raise ValueError("channel output dims must cover the plant outputs")
    if any(k.m != 2 * qi for k, qi in zip(controllers, q_dims)):
        raise ValueError("tracking controller must take (y_i, y_i^d)")
    n, m, q = plant.n, plant.m, plant.q
    B = np.hstack([plant.B, np.zeros((n, q))])
    C = np.vstack([plant.C, np.zeros((m, n)), plant.C, np.zeros((q, n))])
    D = np.zeros((3 * q + m, m + q))
    D[q:q + m, :m] = np.eye(m)
    D[2 * q + m:, m:] = np.eye(q)
    # controller inputs, channel by channel: y_i (second y group), then y_i^d
    looped, start = [], q + m
    for qi in q_dims:
        looped += list(range(start, start + qi)) + list(range(start + q, start + q + qi))
        start += qi
    return feedback_interconnect(StateSpace(plant.A, B, C, D), blockdiag(*controllers),
                                 input_map=range(m), output_map=looped)


def run_scenario(ns: NetworkedSystem, comp: Compensator | None,
                 scenario: Scenario,
                 controllers: Mapping[str, Sequence[StateSpace]]
                 ) -> tuple[Trajectory, list[SegmentReport]]:
    """Simulate the closed network over a controller-swap timeline.

    ``controllers`` maps scenario keys to (kappa_1, kappa_2) tracking
    controllers with inputs (y_i, y_i^d). Segment and reference switch
    times are quantized to the step grid. Returns the trajectory (plant
    state, compensator state, outputs, reference, commands) and one
    stability report per segment.
    """
    plant, phi_slice, x_slice = compensated_plant(ns, comp)
    n_plant = plant.n
    q_dims = (ns.sub1.q, ns.sub2.q)

    loops: dict[str, StateSpace] = {}
    for key in {k for _, k in scenario.segments}:
        if key not in controllers:
            raise KeyError(f"scenario references unknown controller set {key!r}")
        loops[key] = closed_tracking_loop(plant, controllers[key], q_dims)
    h = scenario.h
    for loop in loops.values():
        check_step(loop.A, h)

    ref = scenario.reference or ReferenceSignal.constant(np.zeros(ns.q))
    if ref.width != ns.q:
        raise ValueError("reference width must match the measured output")
    ref_steps = [int(round(t / h)) for t in ref.times]

    if scenario.x0.size != ns.n:
        raise ValueError(f"x0 must have {ns.n} entries")
    x_plant = np.zeros(n_plant)
    x_plant[x_slice] = scenario.x0          # phi(0) = 0, observer starts at 0

    n_steps = int(round(scenario.horizon / h))
    bounds = [int(round(t / h)) for t, _ in scenario.segments] + [n_steps]
    keys = [k for _, k in scenario.segments]
    store = scenario.store_every

    all_t, all_x, all_y, all_u, all_yd = [], [], [], [], []
    seg_reports: list[SegmentReport] = []
    prev_ctrl: np.ndarray | None = None
    diverged = False

    for i, key in enumerate(keys):
        k0, k1 = bounds[i], bounds[i + 1]
        loop = loops[key]
        nc = loop.n - n_plant
        if scenario.carryover and prev_ctrl is not None and prev_ctrl.size == nc:
            ctrl = prev_ctrl
        else:
            ctrl = np.zeros(nc)
        x = np.concatenate([x_plant, ctrl])
        Phi, Psi = _rk4_step_maps(loop.A, loop.B, h)
        absc = spectral_abscissa(loop.A)
        seg_reports.append(SegmentReport(t_start=k0 * h, key=key,
                                         abscissa=absc, stable=absc < 0))
        x, Xseg, Ydseg, steps, diverged = _affine_steps(
            Phi, Psi, x, k0, k1, store, ref_steps, ref.levels,
            include_end=(i == len(keys) - 1))
        if steps.size:
            out = Xseg @ loop.C.T + Ydseg @ loop.D.T
            all_t.append(steps.astype(float) * h)
            all_x.append(Xseg[:, :n_plant])
            all_yd.append(Ydseg)
            all_y.append(out[:, :ns.q])
            all_u.append(out[:, ns.q:])
        if diverged:
            break
        x_plant = x[:n_plant].copy()
        prev_ctrl = x[n_plant:].copy()

    times = np.concatenate(all_t) if all_t else np.zeros(0)
    Xp = np.vstack(all_x) if all_x else np.zeros((0, n_plant))
    traj = Trajectory(times=times, states=Xp[:, x_slice], comp_states=Xp[:, phi_slice],
                      outputs=np.vstack(all_y) if all_y else np.zeros((0, ns.q)),
                      inputs=np.vstack(all_yd) if all_yd else np.zeros((0, ns.q)),
                      h=h * store, diverged=diverged,
                      commands=np.vstack(all_u) if all_u else np.zeros((0, ns.m)))
    return traj, seg_reports


def l2_norm(traj: Trajectory, signal: str = "states") -> L2Report:
    """Trapezoidal L2 norm of a trajectory signal over its horizon.

    ``signal`` selects one of states / comp_states / outputs / inputs /
    commands. The terminal-energy ratio ||v(T)||^2 / max ||v||^2 indicates
    how much tail the finite horizon truncated.
    """
    if traj.diverged:
        raise DivergenceError("trajectory diverged; L2 norm undefined")
    v = getattr(traj, signal)
    if v is None:
        raise ValueError(f"trajectory has no {signal!r} signal")
    sq = np.einsum("ij,ij->i", v, v)
    if sq.size < 2:
        return L2Report(0.0, 0.0)
    val = float(np.sqrt(np.trapezoid(sq, dx=traj.h)))
    peak = float(sq.max())
    ratio = float(sq[-1] / peak) if peak > 0 else 0.0
    return L2Report(val, ratio)


def l2_energy(system: StateSpace, x0) -> float:
    """Exact output energy int_0^inf ||C e^(At) x0||^2 dt = x0' W x0 of the
    autonomous response, with W the observability Gramian solving
    A'W + WA + C'C = 0. It is the closed form that ``l2_norm`` of an
    infinitely long run approximates. Requires a Hurwitz A.
    """
    absc = spectral_abscissa(system.A)
    if absc >= 0:
        raise ValueError(f"l2_energy requires a Hurwitz A (abscissa {absc:.3e})")
    W = sla.solve_continuous_lyapunov(system.A.T, -system.C.T @ system.C)
    x0 = np.asarray(x0, dtype=float)
    return float(x0 @ W @ x0)
