import dataclasses
import json

import numpy as np
import pytest

from netresil.compensator import (Compensator, attach_compensator,
                                  cascade_reference, compensated_plant,
                                  default_cut,
                                  performance_bound,
                                  synthesize_compensator,
                                  synthesize_observer_compensator,
                                  verify_triangular)
from netresil.lti import StateSpace, default_grid, eval_frequency, is_hurwitz, spectral_abscissa
from netresil.network import (NetworkedSystem, Subsystem,
                              close_local_controllers, interconnect)
from netresil.sampling import random_networked_system, random_stable_statespace
from netresil.simulate import l2_norm, simulate
from netresil.synthesis import SynthesisError
from netresil.youla import YoulaController, design_nominal_gains, realize_controller


def scalar_network():
    s1 = Subsystem(-1, 1, 1, 1, 1, None)
    s2 = Subsystem(-2, 1, 1, 1, 1, None)
    return NetworkedSystem(s1, s2, np.eye(2))


class TestSynthesize:
    def test_decoupled_gives_zero_gamma_matrix(self):
        s1 = Subsystem(-1, 1, 1, 0, 1, None)
        s2 = Subsystem(-2, 1, 1, 0, 1, None)
        ns = NetworkedSystem(s1, s2, np.eye(2))
        comp = synthesize_compensator(ns)
        assert not np.any(comp.Gamma)
        pb = performance_bound(comp, ns)
        assert pb.gamma == 0.0 and pb.factor == 1.0

    def test_scalar_instance_triangular(self):
        ns = scalar_network()
        comp = synthesize_compensator(ns)
        assert comp.cut == "1to2"
        sysc = attach_compensator(ns, comp)
        grid = default_grid()
        fr = eval_frequency(sysc, grid).values
        # entry (2,1) identically zero; diagonal 1/(s+1), 1/(s+2)
        assert np.abs(fr[:, 1, 0]).max() <= 1e-10
        want11 = 1.0 / (1j * grid + 1.0)
        want22 = 1.0 / (1j * grid + 2.0)
        assert np.abs(fr[:, 0, 0] - want11).max() <= 1e-9
        assert np.abs(fr[:, 1, 1] - want22).max() <= 1e-9

    def test_construction_matches_definition_exactly(self, dense_siso):
        ns = dense_siso
        comp = synthesize_compensator(ns, cut="1to2")
        sigma = interconnect(ns)
        n1 = ns.sub1.n
        want_gamma = np.zeros((ns.n, ns.p_total))
        want_gamma[n1:, :ns.sub1.p] = ns.sub2.J
        assert np.array_equal(comp.Gamma, want_gamma)
        acal = sigma.A - want_gamma @ ns.interaction_map()
        assert np.array_equal(comp.Lambda_, acal + ns.R @ comp.Theta)
        assert np.array_equal(comp.Xi, -ns.output_map())
        ok, _ = is_hurwitz(sigma.A + ns.R @ comp.Theta, margin=0.0)
        assert ok

    def test_gamma_rank_equals_kept_coupling_rank(self, rng):
        ns = random_networked_system(rng, 4, 3, channels=(2, 2))
        comp = synthesize_compensator(ns, cut="1to2")
        assert np.linalg.matrix_rank(comp.Gamma) == np.linalg.matrix_rank(ns.sub2.J)
        comp2 = synthesize_compensator(ns, cut="2to1")
        assert np.linalg.matrix_rank(comp2.Gamma) == np.linalg.matrix_rank(ns.sub1.J)

    def test_nonzero_feedthrough_rejected(self, rng):
        ns = random_networked_system(rng, 2, 2, with_dz=True)
        with pytest.raises(SynthesisError, match="feedthrough"):
            synthesize_compensator(ns)

    def test_default_cut_picks_smaller_coupling(self):
        s1 = Subsystem(-1, 1, 1, 5.0, 1, None)   # J1 S2 large: cutting 2to1 is expensive
        s2 = Subsystem(-2, 1, 1, 0.1, 1, None)
        ns = NetworkedSystem(s1, s2, np.eye(2))
        assert default_cut(ns) == "1to2"

    def test_json_roundtrip(self, tmp_path, dense_siso):
        comp = synthesize_compensator(dense_siso)
        path = tmp_path / "comp.json"
        comp.to_json(path)
        c2 = Compensator.from_dict(json.loads(path.read_text()))
        assert np.array_equal(comp.Lambda_, c2.Lambda_)
        assert np.array_equal(comp.Gamma, c2.Gamma)
        assert comp.cut == c2.cut and comp.eta == c2.eta


class TestAttach:
    def test_state_dimension_doubles(self, dense_siso):
        comp = synthesize_compensator(dense_siso)
        sysc = attach_compensator(dense_siso, comp)
        assert sysc.n == 2 * dense_siso.n

    def test_zero_compensator_state_preserves_transfer(self, rng):
        # stable network, Theta = 0 policy via direct construction: Gamma = 0
        ns = scalar_network()
        sigma = interconnect(ns)
        comp = Compensator(Lambda_=sigma.A, Gamma=np.zeros((2, 2)),
                           Xi=-ns.output_map(), Theta=np.zeros((2, 2)), eta=2)
        sysc = attach_compensator(ns, comp)
        grid = default_grid()
        a = eval_frequency(sysc, grid).values
        b = eval_frequency(sigma, grid).values
        assert np.abs(a - b).max() <= 1e-12

    def test_coordinate_transform_reaches_triangular_form(self, dense_siso):
        # T (phi, x) -> (phi, x - phi) maps the closed matrix to
        # [[A + R Theta, Gamma dg(S)], [0, A - Gamma dg(S)]] exactly
        ns = dense_siso
        comp = synthesize_compensator(ns)
        sysc = attach_compensator(ns, comp)
        n = ns.n
        T = np.block([[np.eye(n), np.zeros((n, n))], [-np.eye(n), np.eye(n)]])
        Tinv = np.block([[np.eye(n), np.zeros((n, n))], [np.eye(n), np.eye(n)]])
        M = T @ sysc.A @ Tinv
        sigma = interconnect(ns)
        dgS = ns.interaction_map()
        want = np.block([
            [sigma.A + ns.R @ comp.Theta, comp.Gamma @ dgS],
            [np.zeros((n, n)), sigma.A - comp.Gamma @ dgS],
        ])
        assert np.abs(M - want).max() <= 1e-9 * max(1.0, np.abs(want).max())

    def test_verify_triangular_on_construction(self, rng):
        for _ in range(3):
            ns = random_networked_system(rng, 3, 3)
            comp = synthesize_compensator(ns)
            sysc = attach_compensator(ns, comp)
            rep = verify_triangular(sysc, [ns.sub1.decoupled(), ns.sub2.decoupled()],
                                    tol=1e-9)
            assert rep.passed

    def test_uncompensated_dense_plant_fails(self, dense_siso):
        sys = interconnect(dense_siso)
        rep = verify_triangular(sys, [dense_siso.sub1.decoupled(),
                                      dense_siso.sub2.decoupled()])
        assert not rep.passed

    def test_diagonal_plant_passes_trivially(self, rng):
        g1 = random_stable_statespace(rng, 2)
        g2 = random_stable_statespace(rng, 3)
        from netresil.lti import blockdiag

        rep = verify_triangular(blockdiag(g1, g2), [g1, g2], tol=1e-9)
        assert rep.passed and rep.ordering == "both"


class TestValidation:
    def test_shapes_checked_against_eta(self):
        with pytest.raises(ValueError, match=r"eta=3: Gamma is \(2, 2\), expected \(3, \*\)"):
            Compensator(Lambda_=-np.eye(3), Gamma=np.zeros((2, 2)), Xi=np.zeros((1, 3)),
                        Theta=np.zeros((3, 3)), eta=3)
        with pytest.raises(ValueError, match=r"Lambda is \(3, 2\), expected \(3, 3\)"):
            Compensator(Lambda_=np.zeros((3, 2)), Gamma=np.zeros((3, 2)), Xi=np.zeros((1, 3)),
                        Theta=np.zeros((3, 3)), eta=3)

    def test_nonfinite_and_cut_rejected(self):
        good = dict(Lambda_=-np.eye(2), Gamma=np.zeros((2, 2)), Xi=np.zeros((2, 2)),
                    Theta=np.zeros((2, 2)), eta=2)
        Compensator(**good)
        with pytest.raises(ValueError, match="non-finite"):
            Compensator(**{**good, "Theta": np.full((2, 2), np.nan)})
        with pytest.raises(ValueError, match="cut"):
            Compensator(**good, cut="sideways")

    def test_attach_checks_network_dimensions(self, dense_siso):
        comp = synthesize_compensator(dense_siso)
        narrow = Compensator(Lambda_=comp.Lambda_, Gamma=comp.Gamma, Xi=comp.Xi,
                             Theta=comp.Theta[:1], eta=comp.eta)
        with pytest.raises(ValueError, match=r"Theta is \(1, 6\), expected \(6, 6\)"):
            attach_compensator(dense_siso, narrow)


class TestPerformanceBound:
    def test_scalar_first_order(self):
        # A + R Theta = -2 (scalar), Gamma = 1: norm of 1/(s+2) is 1/2
        s1 = Subsystem(0.0, 1, 1, 0.0, 1, None)
        ns_like = NetworkedSystem(s1, Subsystem(np.zeros((0, 0)), np.zeros((0, 1)),
                                                np.zeros((1, 0)), np.zeros((0, 1)),
                                                np.zeros((1, 0)), None), np.eye(1))
        comp = Compensator(Lambda_=np.array([[-2.0]]), Gamma=np.array([[1.0, 0.0]]),
                           Xi=-ns_like.output_map(), Theta=np.array([[-2.0]]), eta=1)
        pb = performance_bound(comp, ns_like)
        assert pb.gamma == pytest.approx(0.5, rel=1e-3)
        assert pb.factor == pytest.approx(1.5, rel=1e-3)

    def test_unstable_raises(self, dense_siso):
        comp = synthesize_compensator(dense_siso)
        bad = Compensator(Lambda_=comp.Lambda_, Gamma=comp.Gamma, Xi=comp.Xi,
                          Theta=np.zeros_like(comp.Theta), eta=comp.eta)
        sigma = interconnect(dense_siso)
        if spectral_abscissa(sigma.A) >= 0:
            with pytest.raises(SynthesisError):
                performance_bound(bad, dense_siso)


class TestSpectralSeparation:
    def test_closed_loop_spectrum_splits(self, rng):
        from scipy.optimize import linear_sum_assignment

        for _ in range(3):
            ns = random_networked_system(rng, 3, 3)
            comp = synthesize_compensator(ns)
            sysc = attach_compensator(ns, comp)
            F1, H1 = design_nominal_gains(ns.sub1)
            F2, H2 = design_nominal_gains(ns.sub2)
            q1 = random_stable_statespace(rng, 2, 1, 1)
            q2 = random_stable_statespace(rng, 2, 1, 1)
            k1 = realize_controller(ns.sub1, YoulaController(F1, H1, q1))
            k2 = realize_controller(ns.sub2, YoulaController(F2, H2, q2))
            closed = close_local_controllers(sysc, k1, k2).A
            got = np.linalg.eigvals(closed)
            casc = close_local_controllers(cascade_reference(ns, comp), k1, k2).A
            want = np.concatenate([
                np.linalg.eigvals(interconnect(ns).A + ns.R @ comp.Theta),
                np.linalg.eigvals(casc),
            ])
            cost = np.abs(got[:, None] - want[None, :])
            rows, cols = linear_sum_assignment(cost)
            assert cost[rows, cols].max() <= 1e-6

    def test_weak_resilience_sweep_small(self, rng):
        ns = random_networked_system(rng, 3, 3)
        comp = synthesize_compensator(ns)
        sysc = attach_compensator(ns, comp)
        F1, H1 = design_nominal_gains(ns.sub1)
        F2, H2 = design_nominal_gains(ns.sub2)
        worst = -np.inf
        for _ in range(60):
            q1 = random_stable_statespace(rng, 2, 1, 1, gain=3.0)
            q2 = random_stable_statespace(rng, 2, 1, 1, gain=3.0)
            k1 = realize_controller(ns.sub1, YoulaController(F1, H1, q1))
            k2 = realize_controller(ns.sub2, YoulaController(F2, H2, q2))
            worst = max(worst, spectral_abscissa(close_local_controllers(sysc, k1, k2).A))
        assert worst < 0


class TestL2Bound:
    def test_state_splits_as_cascade_plus_compensator(self, rng):
        # x(t) of the compensated loop equals chi(t) + phi(t) pointwise
        ns = random_networked_system(rng, 3, 3, normalize_s=True)
        comp = synthesize_compensator(ns)
        sysc = attach_compensator(ns, comp)
        casc = cascade_reference(ns, comp)
        F1, H1 = design_nominal_gains(ns.sub1)
        F2, H2 = design_nominal_gains(ns.sub2)
        k1 = realize_controller(ns.sub1, YoulaController(F1, H1,
                                                         random_stable_statespace(rng, 2, 1, 1)))
        k2 = realize_controller(ns.sub2, YoulaController(F2, H2,
                                                         random_stable_statespace(rng, 2, 1, 1)))
        loop_c = close_local_controllers(sysc, k1, k2)
        loop_x = close_local_controllers(casc, k1, k2)
        n = ns.n
        x0 = rng.standard_normal(n)
        h = min(0.09 / np.abs(np.linalg.eigvals(loop_c.A)).max(),
                0.09 / np.abs(np.linalg.eigvals(loop_x.A)).max(), 1e-2)
        z0c = np.zeros(loop_c.n)
        z0c[n:2 * n] = x0
        z0x = np.zeros(loop_x.n)
        z0x[:n] = x0
        sysc_full = StateSpace(loop_c.A, np.zeros((loop_c.n, 0)), np.eye(loop_c.n), None)
        sysx_full = StateSpace(loop_x.A, np.zeros((loop_x.n, 0)), np.eye(loop_x.n), None)
        tc = simulate(sysc_full, z0c, None, T=30.0, h=h, store_every=10)
        tx = simulate(sysx_full, z0x, None, T=30.0, h=h, store_every=10)
        phi = tc.states[:, :n]
        x = tc.states[:, n:2 * n]
        chi = tx.states[:, :n]
        assert np.abs(x - (chi + phi)).max() <= 1e-8 * max(1.0, np.abs(x).max())

    def test_l2_bound_holds_with_unit_interaction_map(self, rng, l2_cross_check):
        ns = random_networked_system(rng, 3, 3, normalize_s=True)
        comp = synthesize_compensator(ns)
        pb = performance_bound(comp, ns)
        sysc = attach_compensator(ns, comp)
        casc = cascade_reference(ns, comp)
        F1, H1 = design_nominal_gains(ns.sub1)
        F2, H2 = design_nominal_gains(ns.sub2)
        k1 = realize_controller(ns.sub1, YoulaController(
            F1, H1, StateSpace.from_gain([[0.0]])))
        k2 = realize_controller(ns.sub2, YoulaController(
            F2, H2, StateSpace.from_gain([[0.0]])))
        loop_c = close_local_controllers(sysc, k1, k2)
        loop_x = close_local_controllers(casc, k1, k2)
        n = ns.n
        h = min(0.09 / np.abs(np.linalg.eigvals(loop_c.A)).max(),
                0.09 / np.abs(np.linalg.eigvals(loop_x.A)).max(), 1e-2)
        for _ in range(5):
            x0 = rng.standard_normal(n)
            z0c = np.zeros(loop_c.n)
            z0c[n:2 * n] = x0
            z0x = np.zeros(loop_x.n)
            z0x[:n] = x0
            T = 60.0
            cview = StateSpace(loop_c.A, np.zeros((loop_c.n, 0)),
                               np.eye(2 * n, loop_c.n), None)
            xview = StateSpace(loop_x.A, np.zeros((loop_x.n, 0)),
                               np.eye(n, loop_x.n), None)
            while True:
                tc = simulate(cview, z0c, None, T=T, h=h, store_every=5)
                tx = simulate(xview, z0x, None, T=T, h=h, store_every=5)
                from netresil.simulate import Trajectory

                xc = Trajectory(times=tc.times, states=tc.states[:, n:2 * n],
                                comp_states=tc.states[:, :0],
                                outputs=tc.outputs[:, :0], inputs=tc.inputs,
                                h=tc.h)
                xx = Trajectory(times=tx.times, states=tx.states[:, :n],
                                comp_states=tx.states[:, :0],
                                outputs=tx.outputs[:, :0], inputs=tx.inputs,
                                h=tx.h)
                rc = l2_norm(xc, "states")
                rx = l2_norm(xx, "states")
                if max(rc.terminal_ratio, rx.terminal_ratio) < 1e-4 or T > 2000:
                    break
                T *= 2.0
            assert rc.value <= (1.0 + pb.gamma) * rx.value * (1.0 + 1e-3)
            l2_cross_check(loop_c.A, slice(n, 2 * n), tc.states, tc.h, rc.value)
            l2_cross_check(loop_x.A, slice(0, n), tx.states, tx.h, rx.value)


class TestObserverCompensator:
    @pytest.mark.parametrize("gain, match", [
        (np.ones((3, 2)), r"observer_gain is \(3, 2\), expected \(2, \*\)"),
        (np.ones(2), "observer_gain must be a matrix"),
        (np.array([[1.0, np.nan], [0.0, 1.0]]), "observer_gain contains non-finite"),
    ])
    def test_bad_gain_rejected(self, gain, match):
        comp = synthesize_compensator(scalar_network())
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(comp, observer_gain=gain)

    def test_gain_columns_checked_against_network(self):
        ns = scalar_network()
        comp = dataclasses.replace(synthesize_compensator(ns), observer_gain=np.ones((2, 3)))
        with pytest.raises(ValueError, match=r"observer_gain is \(2, 3\), expected \(2, 2\)"):
            attach_compensator(ns, comp)

    def test_observer_fed_compensator_is_not_serialized(self, tmp_path):
        oc = synthesize_observer_compensator(scalar_network())
        with pytest.raises(ValueError, match="observer gain"):
            oc.to_dict()
        with pytest.raises(ValueError, match="observer gain"):
            oc.to_json(tmp_path / "comp.json")
        assert not (tmp_path / "comp.json").exists()

    def test_full_measurement_observer(self, rng):
        ns = random_networked_system(rng, 2, 2)
        oc = synthesize_observer_compensator(ns)
        sigma = interconnect(ns)
        S = ns.interaction_map()
        ok, _ = is_hurwitz(sigma.A - oc.observer_gain @ S, margin=0.0)
        assert ok

    def test_observer_closed_loop_sweep(self, rng):
        ns = random_networked_system(rng, 3, 2)
        oc = synthesize_observer_compensator(ns)
        sysc = attach_compensator(ns, oc)
        assert sysc.n == 3 * ns.n
        F1, H1 = design_nominal_gains(ns.sub1)
        F2, H2 = design_nominal_gains(ns.sub2)
        worst = -np.inf
        for _ in range(40):
            q1 = random_stable_statespace(rng, 2, 1, 1, gain=2.0)
            q2 = random_stable_statespace(rng, 2, 1, 1, gain=2.0)
            k1 = realize_controller(ns.sub1, YoulaController(F1, H1, q1))
            k2 = realize_controller(ns.sub2, YoulaController(F2, H2, q2))
            worst = max(worst, spectral_abscissa(close_local_controllers(sysc, k1, k2).A))
        assert worst < 0


class TestCompensatedPlant:
    def test_slices_locate_phi_and_x(self, rng):
        ns = random_networked_system(rng, 3, 2, channels=(2, 1))
        n = ns.n
        kinds = {None: 0, "compensator": n, "observer": n}
        comps = {None: None, "compensator": synthesize_compensator(ns),
                 "observer": synthesize_observer_compensator(ns)}
        x = rng.standard_normal(n)
        for kind, phi_width in kinds.items():
            plant, phi, xs = compensated_plant(ns, comps[kind])
            assert len(range(plant.n)[phi]) == phi_width
            assert len(range(plant.n)[xs]) == n
            state = np.zeros(plant.n)
            state[xs] = x
            assert np.allclose(plant.C @ state, ns.output_map() @ x, rtol=1e-12, atol=1e-12)

    def test_exact_estimate_follows_direct_layout(self, rng):
        """With xhat = x the observer-fed plant moves phi and x as the
        direct one does, and xhat with x."""
        ns = random_networked_system(rng, 3, 2, channels=(2, 1))
        n = ns.n
        observed = synthesize_observer_compensator(ns)
        direct = dataclasses.replace(observed, observer_gain=None)
        po, pd = attach_compensator(ns, observed), attach_compensator(ns, direct)
        assert (po.n, pd.n) == (3 * n, 2 * n)
        phi, x, u = rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(ns.m)
        so, sd = np.concatenate([phi, x, x]), np.concatenate([phi, x])
        do, dd = po.A @ so + po.B @ u, pd.A @ sd + pd.B @ u
        for block, want in ((do[:n], dd[:n]), (do[n:2 * n], dd[n:]), (do[2 * n:], dd[n:])):
            assert np.allclose(block, want, rtol=1e-12, atol=1e-12)
        assert np.allclose(po.C @ so, pd.C @ sd, rtol=1e-12, atol=1e-12)
