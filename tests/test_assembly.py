"""The assembly of controllers and closed loops matches the stacked-block
formulas of ``assembly_oracle`` bit for bit, memory order included."""

import numpy as np
import pytest

import assembly_oracle as oracle
from netresil.lti import DimensionError, StateSpace, feedback_interconnect
from netresil.powergrid import find_destabilizing_attack, grid_network
from netresil.sampling import random_stable_statespace
from netresil.simulate import closed_tracking_loop
from netresil.youla import _observer_controller


def _assert_same(got: StateSpace, want: StateSpace):
    # the same operations in the same order: equal bytes, signed zeros included
    for name in "ABCD":
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.strides == b.strides, name
        assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), name


def _in_order(rng, g: StateSpace) -> StateSpace:
    """``g`` with B and C held column-major at random."""
    order = rng.choice(["C", "F"], size=2)
    return StateSpace(g.A, np.asarray(g.B, order=order[0]), np.asarray(g.C, order=order[1]), g.D)


def _random_loop(rng, zero_d11: bool):
    """Plant with external channels left over, a controller on a permuted
    subset of its channels, and the maps."""
    n, nc = int(rng.integers(0, 6)), int(rng.integers(0, 4))
    k_in, k_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    m, q = k_in + int(rng.integers(0, 3)), k_out + int(rng.integers(0, 3))
    plant = _in_order(rng, random_stable_statespace(rng, n, m, q))
    input_map = [int(i) for i in rng.permutation(m)[:k_in]]
    output_map = [int(i) for i in rng.permutation(q)[:k_out]]
    if zero_d11:
        D = plant.D.copy()
        D[np.ix_(output_map, input_map)] = 0.0
        plant = StateSpace(plant.A, plant.B, plant.C, D)
    ctrl = random_stable_statespace(rng, nc, k_out, k_in, gain=0.3)
    return plant, ctrl, input_map, output_map


class TestObserverController:
    @pytest.mark.parametrize("nq", [0, 1, 3])
    def test_free_parameter_with_feedthrough(self, rng, nq):
        for _ in range(50):
            n, m, q = (int(v) for v in rng.integers(1, 5, size=3))
            A, B, C = rng.normal(size=(n, n)), rng.normal(size=(n, m)), rng.normal(size=(q, n))
            F, H = rng.normal(size=(m, n)), rng.normal(size=(n, q))
            Q = random_stable_statespace(rng, nq, q, m, gain=2.0)
            assert np.any(Q.D)
            _assert_same(_observer_controller(A, B, C, F, H, Q),
                         oracle.observer_controller(A, B, C, F, H, Q))


class TestFeedbackInterconnect:
    def test_loop_matrix_skipped(self, rng):
        for _ in range(200):
            plant, ctrl, im, om = _random_loop(rng, zero_d11=True)
            _assert_same(feedback_interconnect(plant, ctrl, im, om),
                         oracle.feedback_interconnect(plant, ctrl, im, om))

    def test_loop_inverse(self, rng):
        checked = 0
        for _ in range(200):
            plant, ctrl, im, om = _random_loop(rng, zero_d11=False)
            if not np.any(ctrl.D @ plant.D[np.ix_(om, im)]):
                continue
            _assert_same(feedback_interconnect(plant, ctrl, im, om),
                         oracle.feedback_interconnect(plant, ctrl, im, om))
            checked += 1
        assert checked >= 150

    def test_external_channels_left_over(self, rng):
        checked = 0
        for _ in range(200):
            plant, ctrl, im, om = _random_loop(rng, zero_d11=bool(rng.integers(2)))
            if len(im) == plant.m or len(om) == plant.q:
                continue
            _assert_same(feedback_interconnect(plant, ctrl, im, om),
                         oracle.feedback_interconnect(plant, ctrl, im, om))
            checked += 1
        assert checked >= 50

    @pytest.mark.parametrize("input_map, output_map", [
        ([0, 0], [0, 1]), ([0, 1], [1, 1]), ([0, 3], [0, 1]), ([0, 1], [-1, 1]),
        ([-1, 0], [0, 1]), ([0, 1], [0, 2])])
    def test_invalid_maps_refused(self, rng, input_map, output_map):
        plant = random_stable_statespace(rng, 2, 3, 2)
        ctrl = random_stable_statespace(rng, 1, 2, 2)
        with pytest.raises(DimensionError, match="indices invalid"):
            feedback_interconnect(plant, ctrl, input_map, output_map)


@pytest.fixture(scope="module")
def grids():
    """Grid draws 0-3: network and the pair of trackers."""
    return [grid_network(seed)[1:4] for seed in range(4)]


def _free_parameters(rng, tracker):
    m, qd = tracker.B.shape[1], tracker.C.shape[0]
    return [None, StateSpace.from_gain(rng.normal(size=(m, qd)))] + [
        random_stable_statespace(rng, 2, m=qd, q=m, gain=10.0 ** rng.uniform(0.0, 2.5),
                                 min_margin=0.2) for _ in range(4)]


class TestTrackingAssembly:
    def test_tracking_loop(self, rng):
        for _ in range(50):
            channels = int(rng.integers(1, 3))
            q_dims = [int(v) for v in rng.integers(1, 3, size=channels)]
            m_dims = [int(v) for v in rng.integers(1, 3, size=channels)]
            g = random_stable_statespace(rng, int(rng.integers(0, 6)), sum(m_dims), sum(q_dims))
            plant = _in_order(rng, StateSpace(g.A, g.B, g.C, None))
            ctrls = [random_stable_statespace(rng, int(rng.integers(0, 3)), 2 * qi, mi)
                     for qi, mi in zip(q_dims, m_dims)]
            _assert_same(closed_tracking_loop(plant, ctrls, q_dims),
                         oracle.closed_tracking_loop(plant, ctrls, q_dims))

    def test_tracker_realize_and_local_abscissa(self, rng, grids):
        for _, k1, k2 in grids:
            for tracker in (k1, k2):
                for qp in _free_parameters(rng, tracker):
                    # twice: the second call reads the parts built by the first
                    for _ in range(2):
                        _assert_same(tracker.realize(qp), oracle.tracking_realize(tracker, qp))
                        assert (tracker.local_abscissa(tracker.realize(qp))
                                == oracle.tracking_local_abscissa(tracker, qp))

    def test_grid_loops(self, rng, grids):
        from netresil.network import interconnect

        for ns, k1, k2 in grids:
            plant = interconnect(ns)
            ctrls = [k.realize(_free_parameters(rng, k)[-1]) for k in (k1, k2)]
            q_dims = (ns.sub1.q, ns.sub2.q)
            _assert_same(closed_tracking_loop(plant, ctrls, q_dims),
                         oracle.closed_tracking_loop(plant, ctrls, q_dims))

    @pytest.mark.parametrize("draw", [0, 1, 2])
    def test_attack_search_unchanged(self, grids, draw):
        ns, k1, k2 = grids[draw]
        got = find_destabilizing_attack(ns, k1, k2, seed=draw)
        want = oracle.find_destabilizing_attack(ns, k1, k2, seed=draw)
        assert got is not None and want is not None
        trial, gain, local, glob, (c1, c2) = want
        assert (got.trial, got.gain, got.local_abscissae, got.global_abscissa) == \
            (trial, gain, local, glob)
        _assert_same(got.kappa1, c1)
        _assert_same(got.kappa2, c2)
