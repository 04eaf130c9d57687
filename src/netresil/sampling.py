"""Seeded random instances for sweeps, demos and fixtures."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .lti import StateSpace, is_controllable, is_observable
from .network import NetworkedSystem, Subsystem


def random_stable_statespace(rng: np.random.Generator, n: int, m: int = 1,
                             q: int = 1, gain: float = 1.0,
                             min_margin: float = 0.1) -> StateSpace:
    """Random internally stable system; spectrum shifted left by a margin
    drawn from [min_margin, 2], outputs scaled by ``gain``."""
    if n == 0:
        return StateSpace.from_gain(gain * rng.normal(size=(q, m)))
    A = rng.normal(size=(n, n))
    A = A - (np.linalg.eigvals(A).real.max() + rng.uniform(min_margin, 2.0)) * np.eye(n)
    B = rng.normal(size=(n, m))
    C = gain * rng.normal(size=(q, n))
    D = gain * rng.normal(size=(q, m))
    return StateSpace(A, B, C, D)


def _eig_margin(A: np.ndarray) -> float:
    if A.size == 0:
        return np.inf
    return float(np.abs(np.linalg.eigvals(A).real).min())


def random_subsystem(rng: np.random.Generator, n: int, m: int = 1, q: int = 1,
                     p: int = 1, p_peer: int = 1) -> Subsystem:
    """Random controllable/observable node with dense coupling maps, Dz = 0.

    Eigenvalues of A are kept at least 0.02 away from the imaginary axis
    so frequency-grid evaluations stay well conditioned; a node is drawn
    at most 50 times.
    """
    for _ in range(50):
        A = rng.normal(size=(n, n))
        if _eig_margin(A) < 0.02:
            continue
        B = rng.normal(size=(n, m))
        C = rng.normal(size=(q, n))
        if not (is_controllable(A, B) and is_observable(A, C)):
            continue
        J = rng.normal(size=(n, p_peer))
        S = rng.normal(size=(p, n))
        return Subsystem(A, B, C, J, S, None)
    raise RuntimeError("failed to sample a minimal subsystem")


def random_networked_system(rng: np.random.Generator, n1: int = 3, n2: int = 3,
                            channels: tuple[int, int] = (1, 1)) -> NetworkedSystem:
    """Dense-coupled two-node network with R = I (always controllable);
    ``channels`` gives the (node-1, node-2) widths of u, y and z alike."""
    c1, c2 = channels
    s1 = random_subsystem(rng, n1, m=c1, q=c1, p=c1, p_peer=c2)
    s2 = random_subsystem(rng, n2, m=c2, q=c2, p=c2, p_peer=c1)
    return NetworkedSystem(s1, s2, np.eye(n1 + n2))


def random_cascade_system(rng: np.random.Generator, n1: int = 3, n2: int = 3) -> NetworkedSystem:
    """SISO network in which nothing flows 2 -> 1 (J1 = 0)."""
    ns = random_networked_system(rng, n1, n2)
    return replace(ns, sub1=replace(ns.sub1, J=np.zeros_like(ns.sub1.J)))
