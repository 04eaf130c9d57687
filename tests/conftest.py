import numpy as np
import pytest

from netresil.sampling import random_networked_system


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
    from netresil.lti import StateSpace
    from netresil.simulate import l2_energy

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
