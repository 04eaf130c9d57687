import json

import numpy as np
import pytest

from netresil.lti import DimensionError, spectral_abscissa
from netresil.network import (CascadeVerdict, NetworkedSystem, Subsystem,
                              close_local_controllers, interconnect,
                              is_cascade, is_weakly_resilient)
from netresil.sampling import (random_cascade_system, random_networked_system,
                               random_stable_statespace)
from netresil.youla import YoulaController, design_nominal_gains, realize_controller


def scalar_network(a1=-1.0, a2=-2.0, j1=1.0, j2=1.0):
    s1 = Subsystem(a1, 1, 1, j1, 1, None)
    s2 = Subsystem(a2, 1, 1, j2, 1, None)
    return NetworkedSystem(s1, s2, np.eye(2))


class TestInterconnect:
    def test_decoupled_is_block_diagonal(self):
        ns = scalar_network(j1=0.0, j2=0.0)
        sys = interconnect(ns)
        assert np.allclose(sys.A, np.diag([-1.0, -2.0]))

    def test_scalar_assembly(self):
        sys = interconnect(scalar_network())
        assert np.allclose(sys.A, [[-1.0, 1.0], [1.0, -2.0]])
        assert np.allclose(sys.B, np.eye(2))

    def test_coupling_feedthrough_block(self):
        s1 = Subsystem(np.zeros((1, 1)), [[1.0]], [[1.0]], [[0.0, 0.0]],
                       [[1.0]], [[1.0, 0.0]])
        s2 = Subsystem(np.zeros((2, 2)), np.eye(2)[:, :1], [[1.0, 0.0]],
                       np.zeros((2, 1)), [[1.0, 0.0], [0.0, 1.0]], None)
        ns = NetworkedSystem(s1, s2, np.eye(3))
        sys = interconnect(ns)
        # upper-right C block = Dz1 S2 = [1 0]
        assert np.allclose(sys.C[:1, 1:], [[1.0, 0.0]])

    def test_block_recovery_exact(self, dense_siso):
        ns = dense_siso
        sys = interconnect(ns)
        n1 = ns.sub1.n
        assert np.array_equal(sys.A[:n1, :n1], ns.sub1.A)
        assert np.array_equal(sys.A[n1:, n1:], ns.sub2.A)
        assert np.array_equal(sys.A[:n1, n1:], ns.sub1.J @ ns.sub2.S)
        assert np.array_equal(sys.A[n1:, :n1], ns.sub2.J @ ns.sub1.S)

    def test_dimension_cross_check(self):
        s1 = Subsystem(-1, 1, 1, np.ones((1, 2)), 1, None)   # expects p2 = 2
        s2 = Subsystem(-2, 1, 1, 1, 1, None)                 # p2 = 1
        with pytest.raises(DimensionError):
            NetworkedSystem(s1, s2, np.eye(2))


class TestCascade:
    def test_fully_decoupled(self):
        assert is_cascade(scalar_network(j1=0.0, j2=0.0)) is CascadeVerdict.BOTH

    def test_one_direction_cut(self):
        # J1 = 0, Dz1 = 0 but J2, S1 nonzero: nothing reaches node 1
        ns = scalar_network(j1=0.0)
        assert is_cascade(ns) is CascadeVerdict.CASCADE_1TO2
        ns2 = scalar_network(j2=0.0)
        assert is_cascade(ns2) is CascadeVerdict.CASCADE_2TO1

    def test_dense_none(self, dense_siso):
        assert is_cascade(dense_siso) is CascadeVerdict.NONE

    def test_near_zero_caught_by_relative_tol(self):
        ns = scalar_network(j1=1e-14)
        assert is_cascade(ns) is CascadeVerdict.CASCADE_1TO2

    def test_json_roundtrip(self, tmp_path, dense_siso):
        path = tmp_path / "ns.json"
        dense_siso.to_json(path)
        ns2 = NetworkedSystem.from_dict(json.loads(path.read_text()))
        assert np.array_equal(interconnect(dense_siso).A, interconnect(ns2).A)
        assert np.array_equal(dense_siso.R, ns2.R)


class TestWeaklyResilient:
    def test_cascade_siso_resilient(self, rng):
        ns = random_cascade_system(rng, 3, 2)
        rep = is_weakly_resilient(ns)
        assert rep.verdict == "resilient" and rep.exact

    def test_dense_siso_not_resilient_with_certificate(self, dense_siso):
        rep = is_weakly_resilient(dense_siso)
        assert rep.verdict == "not_resilient" and rep.exact
        assert rep.certificate is not None
        assert rep.certificate.global_abscissa > 1e-6
        assert rep.certificate.local_abscissa < -1e-6

    def test_mimo_dense_unknown(self, rng):
        ns = random_networked_system(rng, 3, 3, channels=(2, 2))
        rep = is_weakly_resilient(ns)
        assert rep.verdict == "unknown" and not rep.exact

    def test_mimo_cascade_sufficient(self, rng):
        ns = random_networked_system(rng, 3, 3, channels=(2, 2))
        s1 = ns.sub1
        s1 = Subsystem(s1.A, s1.B, s1.C, np.zeros_like(s1.J), s1.S, None)
        nsc = NetworkedSystem(s1, ns.sub2, ns.R)
        rep = is_weakly_resilient(nsc)
        assert rep.verdict == "resilient" and not rep.exact

    def test_resilient_network_survives_random_controllers(self, rng):
        ns = random_cascade_system(rng, 3, 2)
        assert is_weakly_resilient(ns, certify=False).verdict == "resilient"
        plant = interconnect(ns)
        F1, H1 = design_nominal_gains(ns.sub1)
        F2, H2 = design_nominal_gains(ns.sub2)
        worst = -np.inf
        for _ in range(200):
            q1 = random_stable_statespace(rng, 2, 1, 1, gain=3.0)
            q2 = random_stable_statespace(rng, 2, 1, 1, gain=3.0)
            k1 = realize_controller(ns.sub1, YoulaController(F1, H1, q1))
            k2 = realize_controller(ns.sub2, YoulaController(F2, H2, q2))
            worst = max(worst, spectral_abscissa(close_local_controllers(plant, k1, k2).A))
        assert worst < 0
