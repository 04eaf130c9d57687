import dataclasses

import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov

from netresil.lti import StateSpace, spectral_abscissa
from netresil.network import NetworkedSystem, Subsystem
from netresil.sampling import random_networked_system, random_subsystem


def with_dz(rng: np.random.Generator, node: Subsystem) -> Subsystem:
    """``node`` with a coupling feedthrough Dz (q x p_peer) drawn from ``rng``."""
    return dataclasses.replace(node, Dz=rng.normal(size=(node.q, node.p_peer)))


def sample_network(rng: np.random.Generator, n1: int = 3, n2: int = 3,
                   channels: tuple[int, int] = (1, 1), dz: bool = False,
                   unit_s: bool = False) -> NetworkedSystem:
    """The draw of :func:`random_networked_system`, with the variations
    only tests need: ``dz`` draws each node's feedthrough (:func:`with_dz`)
    right after the node, and ``unit_s`` rescales each S_i to unit spectral
    norm, moving the scale into the peer's J, so interaction outputs are
    non-amplifying; ``unit_s`` draws nothing."""
    c1, c2 = channels
    nodes = []
    for n, c, c_peer in ((n1, c1, c2), (n2, c2, c1)):
        node = random_subsystem(rng, n, m=c, q=c, p=c, p_peer=c_peer)
        nodes.append(with_dz(rng, node) if dz else node)
    s1, s2 = nodes
    if unit_s:
        g1 = np.linalg.svd(s1.S, compute_uv=False)[0]
        g2 = np.linalg.svd(s2.S, compute_uv=False)[0]
        s1, s2 = (dataclasses.replace(s1, S=s1.S / g1, J=s1.J * g2),
                  dataclasses.replace(s2, S=s2.S / g2, J=s2.J * g1))
    return NetworkedSystem(s1, s2, np.eye(n1 + n2))


def swap_nodes(ns: NetworkedSystem) -> NetworkedSystem:
    """``ns`` with sub1 and sub2 exchanged; the rows of R follow the state."""
    n1 = ns.sub1.n
    return NetworkedSystem(ns.sub2, ns.sub1, np.vstack([ns.R[n1:], ns.R[:n1]]))


def l2_energy(system: StateSpace, x0) -> float:
    """Exact output energy int_0^inf ||C e^(At) x0||^2 dt = x0' W x0 of the
    autonomous response, with W the observability Gramian solving
    A'W + WA + C'C = 0 (scipy's Lyapunov solver, which no library code
    uses). Requires a Hurwitz A.
    """
    absc = spectral_abscissa(system.A)
    if absc >= 0:
        raise ValueError(f"l2_energy requires a Hurwitz A (abscissa {absc:.3e})")
    W = solve_continuous_lyapunov(system.A.T, -system.C.T @ system.C)
    x0 = np.asarray(x0, dtype=float)
    return float(x0 @ W @ x0)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def dense_siso(rng):
    """Dense-coupled SISO network, minimal nodes, R = I."""
    return random_networked_system(rng, 3, 3)


@pytest.fixture
def random_stabilizable_pair():
    """Sampler ``draw(rng, n, m)`` of a random controllable (A, B), n x n
    and n x m, with A allowed to be unstable."""
    from netresil.lti import is_controllable

    def draw(rng, n, m):
        for _ in range(50):
            A = rng.normal(size=(n, n))
            B = rng.normal(size=(n, m))
            if is_controllable(A, B):
                return A, B
        raise RuntimeError("failed to sample a controllable pair")

    return draw


@pytest.fixture
def l2_cross_check():
    """Check a trapezoidal L2 norm of an autonomous run against the
    Lyapunov closed form.

    ``check(A, part, states, H, value)`` takes the loop matrix A, the state
    components ``part`` whose norm ``value`` was taken, the full stored
    states (first row x(0), last row x(T)) and the stored sample step H.
    The energy over [0, T] is l2_energy(x(0)) - l2_energy(x(T)), exact for
    the stored x(T). The composite trapezoid rule errs by at most
    (H^2 / 12) int |f''| on f = ||x_part||^2; the integral is estimated by
    the stored second differences, sum |f[k+1] - 2 f[k] + f[k-1]| / H, and
    doubled for that estimate. Returns the relative energy deviation.
    """
    def check(A, part, states, H, value):
        n = A.shape[0]
        view = StateSpace(A, np.zeros((n, 0)), np.eye(n)[part], None)
        window = l2_energy(view, states[0]) - l2_energy(view, states[-1])
        f = np.einsum("ij,ij->i", states[:, part], states[:, part])
        tol = 2.0 * (H**2 / 12.0) * np.abs(np.diff(f, 2)).sum() / H
        assert abs(value**2 - window) <= tol, \
            f"trapezoid energy {value**2:.10g} vs Lyapunov {window:.10g} (tol {tol:.3g})"
        return abs(value**2 - window) / window

    return check
