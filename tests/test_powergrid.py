import logging

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from netresil.compensator import attach_compensator, synthesize_compensator
from netresil.lti import StateSpace, spectral_abscissa
from netresil.network import CascadeVerdict, interconnect, is_cascade, is_weakly_resilient
from netresil.powergrid import (GeneratorParams, GridModel, build_network,
                                design_tracking_controllers,
                                find_destabilizing_attack, generator_matrices,
                                grid_network, load_reduced_admittance)
from netresil.sampling import random_stable_statespace
from netresil.simulate import (ReferenceSignal, Scenario, closed_tracking_loop,
                               run_scenario)


def params(M=1.0, Dd=1.0, T=0.01, K=0.1, Rd=0.02):
    return GeneratorParams(M=M, Dd=Dd, T=T, K=K, Rd=Rd)


def build_generator(p: GeneratorParams) -> StateSpace:
    """One generator with inputs (u, v, tau) and measured angle output."""
    A, b, b_tau, c = generator_matrices(p)
    return StateSpace(A, np.hstack([b, b, b_tau]), c, None)


class TestGenerator:
    def test_matrix_entries(self):
        p = GeneratorParams.sample(np.random.default_rng(0))
        A, b, bt, c = generator_matrices(p)
        assert A[1, 1] == pytest.approx(-p.Dd / p.M)
        assert A[1, 2] == pytest.approx(-1.0 / p.M)
        assert A[3, 1] == pytest.approx(1.0 / p.K)
        assert A[3, 3] == pytest.approx(-p.Rd / p.K)
        assert A[0, 1] == 1.0 and np.all(A[0, [0, 2, 3]] == 0)
        assert b[3, 0] == pytest.approx(1.0 / p.K) and np.all(b[:3] == 0)
        assert bt[1, 0] == pytest.approx(1.0 / p.M) and np.all(bt[[0, 2, 3]] == 0)
        assert np.array_equal(c, [[1.0, 0.0, 0.0, 0.0]])

    def test_turbine_row_substitution(self):
        A, _, _, _ = generator_matrices(params())
        assert np.allclose(A[2], [0.0, 0.0, -100.0, 100.0])

    def test_ss_wrapper(self):
        g = build_generator(params())
        assert (g.n, g.m, g.q) == (4, 3, 1)

    def test_parameter_ranges_enforced(self):
        with pytest.raises(ValueError):
            GeneratorParams(M=0.0, Dd=1.0, T=0.01, K=0.1, Rd=0.02)
        with pytest.raises(ValueError):
            GeneratorParams(M=0.5, Dd=20.0, T=0.01, K=0.1, Rd=0.02)

    def test_sampling_within_ranges(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            GeneratorParams.sample(rng)   # __post_init__ validates


class TestAdmittance:
    def test_bundled_matrix(self):
        Y, meta = load_reduced_admittance()
        assert Y.shape == (5, 5)
        assert np.abs(Y - Y.T).max() <= 1e-12
        # a pure line network has zero net coupling per generator
        assert np.abs(Y.sum(axis=1)).max() <= 1e-9
        assert meta["version"] == 1

    def test_asymmetric_rejected(self):
        Y = np.eye(5)
        Y[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            GridModel(GridModel.sample(0).generators, Y)


class TestBuildNetwork:
    def test_zero_admittance_decouples(self):
        gm = GridModel(GridModel.sample(0).generators, np.zeros((5, 5)))
        ns = build_network(gm)
        sys = interconnect(ns)
        mats = [generator_matrices(p)[0] for p in gm.generators]
        import scipy.linalg as sla

        assert np.allclose(sys.A, sla.block_diag(*mats))
        assert is_cascade(ns) is CascadeVerdict.BOTH

    def test_diagonal_admittance_no_cross_coupling(self):
        gm = GridModel(GridModel.sample(1).generators, np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))
        ns = build_network(gm)
        assert not np.any(ns.sub1.J) and not np.any(ns.sub2.J)
        assert is_cascade(ns) is CascadeVerdict.BOTH

    def test_bundled_admittance_densely_coupled(self):
        gm = GridModel.sample(0)
        ns = build_network(gm)
        assert np.any(ns.sub1.J @ ns.sub2.S) and np.any(ns.sub2.J @ ns.sub1.S)
        assert is_cascade(ns) is CascadeVerdict.NONE
        rep = is_weakly_resilient(ns)
        assert rep.verdict == "unknown"    # non-scalar channels

    def test_dimensions_and_structure(self):
        gm = GridModel.sample(0)
        ns = build_network(gm)
        assert ns.n == 20 and ns.m == 5 and ns.q == 5
        assert ns.sub1.n == 12 and ns.sub2.n == 8
        assert np.array_equal(ns.sub1.S, ns.sub1.C)
        assert np.array_equal(ns.R[:12, :3], ns.sub1.B)
        assert np.array_equal(ns.R[12:, 3:], ns.sub2.B)
        # torque injection scaled by cross-admittance: J1 = -dg(bt) Y12
        bt1 = np.vstack([generator_matrices(p)[2] for p in gm.generators[:3]])
        row = ns.sub1.J[1, :]
        assert row == pytest.approx(-gm.Y[0, 3:] / gm.generators[0].M)


class TestTrackingDesign:
    def test_local_loops_stable_and_track(self):
        gm, ns, k1, k2, ref, _ = grid_network(0)
        assert k1.local_abscissa(k1.realize()) < 0 and k2.local_abscissa(k2.realize()) < 0
        # constant reference tracking on the interconnected nominal loop
        level = np.full(5, 0.1)
        sc = Scenario(segments=((0.0, "nom"),), horizon=50.0, x0=np.zeros(20),
                      h=1e-3, reference=ReferenceSignal.constant(level),
                      store_every=100)
        traj, reports = run_scenario(ns, None, sc, {"nom": (k1.realize(), k2.realize())})
        assert reports[0].stable
        err = np.abs(traj.outputs[-1] - level).max()
        assert err <= 1e-3

    def test_detuned_attack_locally_stable_but_sluggish(self):
        gm, ns, k1, k2, _, _ = grid_network(0)
        ka1, ka2 = design_tracking_controllers(ns, r_scale=1e4)
        assert ka1.local_abscissa(ka1.realize()) < 0 and ka2.local_abscissa(ka2.realize()) < 0
        assert np.linalg.norm(ka1.Kx) < np.linalg.norm(k1.Kx)

    def test_nominal_interconnected_stable_over_seeds(self):
        for seed in range(5):
            gm, ns, k1, k2, _, _ = grid_network(seed)
            plant = interconnect(ns)
            loop = closed_tracking_loop(plant, (k1.realize(), k2.realize()), (3, 2))
            assert spectral_abscissa(loop.A) < 0

    def test_tracker_separation_spectrum(self):
        # local loop spectrum = eig(A_a - B_a [Kx Ke]) + eig(A - L C) + eig(A_Q)
        rng = np.random.default_rng(606)
        for seed in range(5):
            _, _, k1, k2, _, _ = grid_network(seed)
            for t in (k1, k2):
                n, m, qd = t.A.shape[0], t.B.shape[1], t.C.shape[0]
                A_a = np.block([[t.A, np.zeros((n, qd))], [t.C, np.zeros((qd, qd))]])
                B_a = np.vstack([t.B, np.zeros((qd, m))])
                for gain in (1.0, 30.0, 300.0):
                    Q = random_stable_statespace(rng, 2, m=qd, q=m, gain=gain, min_margin=0.2)
                    loop = closed_tracking_loop(StateSpace(t.A, t.B, t.C), [t.realize(Q)], [qd])
                    got = np.linalg.eigvals(loop.A)
                    want = np.concatenate([
                        np.linalg.eigvals(A_a - B_a @ np.hstack([t.Kx, t.Ke])),
                        np.linalg.eigvals(t.A - t.L @ t.C),
                        np.linalg.eigvals(Q.A)])
                    cost = np.abs(got[:, None] - want[None, :]) / np.maximum(1.0, np.abs(want))
                    rows, cols = linear_sum_assignment(cost)
                    assert cost[rows, cols].max() <= 1e-6, f"seed {seed}, gain {gain}"

    def test_supervisory_gain_stabilizes_grid(self):
        from netresil.synthesis import design_theta

        gm, ns, *_ = grid_network(0)
        A = interconnect(ns).A
        theta = design_theta(A, ns.R)
        assert spectral_abscissa(A + ns.R @ theta) < 0

    def test_twenty_seeds_non_cascade_and_locally_stable(self):
        resampled = 0
        for seed in range(20):
            gm, ns, k1, k2, _, used = grid_network(seed)
            resampled += used != seed
            assert np.any(ns.sub1.J @ ns.sub2.S) and np.any(ns.sub2.J @ ns.sub1.S)
            assert is_cascade(ns) is CascadeVerdict.NONE
            assert k1.local_abscissa(k1.realize()) < 0 and k2.local_abscissa(k2.realize()) < 0
        assert resampled == 0

    def test_resample_is_logged_not_printed(self, monkeypatch, caplog, capsys):
        from netresil import powergrid
        from netresil.synthesis import SynthesisError

        design = powergrid.design_tracking_controllers
        calls = []

        def fail_first_call(ns, **kwargs):
            calls.append(ns)
            if len(calls) == 1:
                raise SynthesisError("not stabilizable")
            return design(ns, **kwargs)

        monkeypatch.setattr(powergrid, "design_tracking_controllers", fail_first_call)
        with caplog.at_level(logging.WARNING, logger="netresil.powergrid"):
            *_, used = grid_network(0)
        assert used == 1
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert "grid seed 0" in caplog.records[0].getMessage()
        assert capsys.readouterr().err == ""


class TestAttackAndProtection:
    def test_attack_found_and_certified(self):
        gm, ns, k1, k2, _, _ = grid_network(0)
        att = find_destabilizing_attack(ns, k1, k2, seed=0)
        assert att is not None
        assert att.local_abscissae[0] < -1e-6 and att.local_abscissae[1] < -1e-6
        assert att.global_abscissa > 1e-6

    def test_compensator_protects_against_attack(self):
        gm, ns, k1, k2, _, _ = grid_network(0)
        comp = synthesize_compensator(ns)
        att = find_destabilizing_attack(ns, k1, k2, seed=0)
        sysc = attach_compensator(ns, comp)
        loop = closed_tracking_loop(sysc, (att.kappa1, att.kappa2), (3, 2))
        assert spectral_abscissa(loop.A) < 0
