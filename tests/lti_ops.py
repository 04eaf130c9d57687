"""Series and parallel realizations; only tests build systems this way."""

import numpy as np

from netresil.lti import DimensionError, StateSpace


def series(g1: StateSpace, g2: StateSpace) -> StateSpace:
    """Realization of g2(s) g1(s): u -> g1 -> g2 -> y, state dim n1 + n2."""
    if g1.q != g2.m:
        raise DimensionError(f"series: g1 has {g1.q} outputs but g2 takes {g2.m} inputs")
    n1, n2 = g1.n, g2.n
    A = np.zeros((n1 + n2, n1 + n2))
    A[:n1, :n1] = g1.A
    A[n1:, n1:] = g2.A
    A[n1:, :n1] = g2.B @ g1.C
    B = np.vstack([g1.B, g2.B @ g1.D])
    C = np.hstack([g2.D @ g1.C, g2.C])
    D = g2.D @ g1.D
    return StateSpace(A, B, C, D)


def parallel(g1: StateSpace, g2: StateSpace) -> StateSpace:
    """Realization of g1(s) + g2(s)."""
    if g1.m != g2.m or g1.q != g2.q:
        raise DimensionError("parallel: channel dimensions differ")
    n1 = g1.n
    A = np.zeros((n1 + g2.n, n1 + g2.n))
    A[:n1, :n1] = g1.A
    A[n1:, n1:] = g2.A
    return StateSpace(A, np.vstack([g1.B, g2.B]), np.hstack([g1.C, g2.C]), g1.D + g2.D)
