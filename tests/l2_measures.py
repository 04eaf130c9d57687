"""Finite-horizon L2 measures of simulated trajectories, for the L2-bound tests."""

from typing import NamedTuple

import numpy as np

from netresil.simulate import Trajectory


class DivergenceError(RuntimeError):
    """Operation requires a non-divergent trajectory."""


class L2Report(NamedTuple):
    """L2 norm with a truncation-quality indicator."""

    value: float
    terminal_ratio: float


def l2_norm(traj: Trajectory, signal: str = "states") -> L2Report:
    """Trapezoidal L2 norm of a trajectory signal over its horizon.

    ``signal`` selects one of states / comp_states / outputs / inputs /
    commands. The terminal-energy ratio ||v(T)||^2 / max ||v||^2 indicates
    how much tail the finite horizon truncated.
    """
    if traj.diverged:
        raise DivergenceError("trajectory diverged; L2 norm undefined")
    v = getattr(traj, signal)
    sq = np.einsum("ij,ij->i", v, v)
    if sq.size < 2:
        return L2Report(0.0, 0.0)
    val = float(np.sqrt(np.trapezoid(sq, dx=traj.h)))
    peak = float(sq.max())
    ratio = float(sq[-1] / peak) if peak > 0 else 0.0
    return L2Report(val, ratio)
