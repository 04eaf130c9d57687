"""Every model type holds its own checked, read-only copy of each matrix.

Each case makes the arrays a caller passes and gives a constructor. After
construction the caller's arrays must be writeable and unchanged, the
carrier's own arrays read-only and in the caller's memory order, and a
later write by the caller must not reach the carrier. A non-finite entry
in any of them is refused.
"""

import numpy as np
import pytest

from netresil.compensator import Compensator
from netresil.lti import StateSpace
from netresil.network import NetworkedSystem, Subsystem
from netresil.powergrid import GridModel, TrackingController
from netresil.simulate import ReferenceSignal, Scenario
from netresil.youla import GeneralizedPlant, YoulaController


def _matrix(rows, cols, order="C"):
    return np.asarray(np.arange(1.0, rows * cols + 1).reshape(rows, cols), order=order)


CASES = {
    "StateSpace": (
        lambda: {"A": -_matrix(2, 2, "F"), "B": _matrix(2, 1), "C": _matrix(1, 2),
                 "D": _matrix(1, 1)},
        lambda g: StateSpace(g["A"], g["B"], g["C"], g["D"])),
    "Subsystem": (
        lambda: {"A": -_matrix(2, 2), "B": _matrix(2, 1), "C": _matrix(1, 2),
                 "J": _matrix(2, 1), "S": _matrix(1, 2, "F"), "Dz": _matrix(1, 1)},
        lambda g: Subsystem(g["A"], g["B"], g["C"], g["J"], g["S"], g["Dz"])),
    "NetworkedSystem": (
        lambda: {"R": _matrix(2, 2, "F")},
        lambda g: NetworkedSystem(Subsystem(-1, 1, 1, 1, 1), Subsystem(-2, 1, 1, 1, 1),
                                  g["R"])),
    "Compensator": (
        lambda: {"Lambda_": -_matrix(2, 2), "Gamma": _matrix(2, 2), "Xi": _matrix(2, 2, "F"),
                 "Theta": _matrix(2, 2), "observer_gain": _matrix(2, 2)},
        lambda g: Compensator(g["Lambda_"], g["Gamma"], g["Xi"], g["Theta"],
                              observer_gain=g["observer_gain"])),
    "YoulaController": (
        lambda: {"F": -_matrix(1, 2), "H": _matrix(2, 1)},
        lambda g: YoulaController(g["F"], g["H"], StateSpace.from_gain(np.zeros((1, 1))))),
    "GeneralizedPlant": (
        lambda: {"F": -_matrix(1, 2), "H": _matrix(2, 1, "F")},
        lambda g: GeneralizedPlant(Subsystem(-_matrix(2, 2), [[0.0], [1.0]], [[1.0, 0.0]],
                                             [[1.0], [0.0]], [[0.0, 1.0]]), g["F"], g["H"])),
    "TrackingController": (
        lambda: {"A": -_matrix(2, 2), "B": _matrix(2, 1), "C": _matrix(1, 2),
                 "Kx": _matrix(1, 2), "Ke": _matrix(1, 1), "L": _matrix(2, 1, "F")},
        lambda g: TrackingController(g["A"], g["B"], g["C"], g["Kx"], g["Ke"], g["L"])),
    "GridModel": (
        lambda: {"Y": np.eye(5)},
        lambda g: GridModel(GridModel.sample(0).generators, g["Y"])),
    "ReferenceSignal": (
        lambda: {"times": np.array([0.0, 1.0]), "levels": _matrix(2, 3)},
        lambda g: ReferenceSignal(g["times"], g["levels"])),
    "Scenario": (
        lambda: {"x0": np.array([1.0, -1.0])},
        lambda g: Scenario(segments=((0.0, "nominal"),), horizon=1.0, x0=g["x0"])),
}


@pytest.mark.parametrize("make, build", CASES.values(), ids=CASES.keys())
def test_carrier_keeps_its_own_frozen_copy(make, build):
    given = make()
    before = {name: M.copy() for name, M in given.items()}
    carrier = build(given)
    for name, M in given.items():
        held = getattr(carrier, name)
        assert M.flags.writeable, f"{name}: the caller's array was frozen"
        assert np.array_equal(M, before[name]), f"{name}: the caller's array changed"
        assert not held.flags.writeable, f"{name}: the carrier's array is writeable"
        assert held.flags.f_contiguous == M.flags.f_contiguous, f"{name}: memory order"
        M += 1.0
        assert np.array_equal(held, before[name]), f"{name}: a later write reached it"


@pytest.mark.parametrize("make, build", CASES.values(), ids=CASES.keys())
def test_carrier_refuses_a_nonfinite_entry(make, build):
    for name in make():
        bad = make()
        bad[name].flat[-1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            build(bad)
