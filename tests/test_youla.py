import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netresil.lti import (StateSpace, eval_frequency, feedback_interconnect,
                          is_controllable, is_hurwitz, spectral_abscissa)
from netresil.network import CascadeVerdict, NetworkedSystem, Subsystem, is_cascade
from netresil.sampling import (random_cascade_system, random_networked_system,
                               random_stable_statespace, random_subsystem)
from netresil.synthesis import solve_care
from netresil.youla import (AllPassParam, GeneralizedPlant, YoulaController,
                            allpass_fit, allpass_ss, design_nominal_gains,
                            destabilizer_search, realize_controller,
                            zero_parameter)

from conftest import with_dz


def local_map_delta(gp: GeneralizedPlant, Q: StateSpace) -> StateSpace:
    """Realization of the closed node's coupling-to-interaction map d -> z.

    Closes :func:`realize_controller` over the measured output; the
    frequency response equals sigma_dz + Q sigma_uz sigma_dy pointwise.
    """
    sub = gp.sub
    kappa = realize_controller(sub, YoulaController(gp.F, gp.H, Q))
    p_in, m, p_out, q = sub.p_peer, sub.m, sub.p, sub.q
    B_aug = np.hstack([sub.J, sub.B])
    C_aug = np.vstack([sub.S, sub.C])
    D_aug = np.zeros((p_out + q, p_in + m))
    D_aug[p_out:, :p_in] = sub.Dz
    plant_aug = StateSpace(sub.A, B_aug, C_aug, D_aug)
    return feedback_interconnect(plant_aug, kappa,
                                 input_map=list(range(p_in, p_in + m)),
                                 output_map=list(range(p_out, p_out + q)))


def delta_response(gp: GeneralizedPlant, Q: StateSpace, omegas) -> np.ndarray:
    """Scalar delta(jw; Q) on a grid via the affine formula (SISO only)."""
    if not gp.sub.siso:
        raise ValueError("delta_response requires scalar channels")
    om = np.asarray(omegas, dtype=float)
    d0 = eval_frequency(gp.sigma_dz(), om).values[:, 0, 0]
    uz = eval_frequency(gp.sigma_uz(), om).values[:, 0, 0]
    dy = eval_frequency(gp.sigma_dy(), om).values[:, 0, 0]
    qv = eval_frequency(Q, om).values[:, 0, 0]
    return d0 + qv * uz * dy


def zero_response_check(A, B, C, R_vec, D, trials: int = 100,
                        seed: int = 0) -> bool:
    """Numerically probe whether C (jwI - (A + BF))^-1 R + D vanishes for
    all frequencies and stabilizing F exactly when D = 0 and (C = 0 or
    R = 0); returns agreement between the probe and that characterization.

    F is drawn as an LQR gain under random positive weights; frequencies
    are log-uniform with the asymptote w = 1e6 always included (a nonzero
    D shows up there since the resolvent vanishes at infinity).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    R_vec = np.atleast_2d(np.asarray(R_vec, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    n = A.shape[0]
    if not is_controllable(A, B):
        raise ValueError("zero-response check requires a controllable (A, B)")
    rng = np.random.default_rng(seed)
    scale = 1.0 + np.linalg.norm(C) * np.linalg.norm(R_vec) + abs(float(D[0, 0]))
    worst = 0.0
    for _ in range(trials):
        qw = np.diag(10.0 ** rng.uniform(-1, 1, size=n)) if n else np.zeros((0, 0))
        rw = np.array([[10.0 ** rng.uniform(-1, 1)]])
        F = -solve_care(A, B, qw, rw).K
        omegas = [10.0 ** rng.uniform(-2, 2), 1e6]
        for w in omegas:
            M = 1j * w * np.eye(n) - (A + B @ F)
            val = C @ np.linalg.solve(M, R_vec) + D if n else D.astype(complex)
            worst = max(worst, float(np.abs(val).max()))
    numeric_zero = worst <= 1e-9 * scale
    predicted_zero = (not np.any(D)) and ((not np.any(C)) or (not np.any(R_vec)))
    return numeric_zero == predicted_zero


@pytest.fixture
def node(rng):
    return random_subsystem(rng, 3)


@pytest.fixture
def gains(node):
    return design_nominal_gains(node)


class TestRealizeController:
    def test_zero_parameter_reduces_to_nominal(self, node, gains):
        F, H = gains
        k = realize_controller(node, YoulaController(F, H, zero_parameter(node)))
        # nominal observer controller: xi' = (A+BF-HC) xi + H y, u = F xi
        want_A = node.A + node.B @ F - H @ node.C
        assert np.allclose(k.A, want_A)
        assert np.allclose(k.B, H)
        assert np.allclose(k.C, F)
        assert np.allclose(k.D, 0.0)

    def test_zero_everything_is_open_loop(self, rng):
        node = random_subsystem(rng, 2)
        stable_node = Subsystem(node.A - 5 * np.eye(2), node.B, node.C,
                                node.J, node.S, None)
        F = np.zeros((1, 2))
        H = np.zeros((2, 1))
        k = realize_controller(stable_node, YoulaController(F, H, zero_parameter(node)))
        cl = feedback_interconnect(stable_node.decoupled(), k)
        got = np.sort(np.linalg.eigvals(cl.A).real)
        want = np.sort(np.concatenate([np.linalg.eigvals(stable_node.A).real] * 2))
        assert np.allclose(got, want, atol=1e-9)

    def test_invalid_gains_rejected(self, node):
        F = np.zeros((1, node.n))   # A unstable, F does not stabilize
        H = np.zeros((node.n, 1))
        if spectral_abscissa(node.A) >= 0:
            with pytest.raises(ValueError):
                realize_controller(node, YoulaController(F, H, zero_parameter(node)))

    def test_unstable_parameter_rejected(self, node, gains):
        F, H = gains
        bad = StateSpace(1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="unstable"):
            realize_controller(node, YoulaController(F, H, bad))

    def test_closed_loop_spectrum_is_union(self, node, gains, rng):
        F, H = gains
        Q = random_stable_statespace(rng, 2, 1, 1)
        k = realize_controller(node, YoulaController(F, H, Q))
        cl = feedback_interconnect(node.decoupled(), k)
        got = np.sort_complex(np.linalg.eigvals(cl.A))
        want = np.sort_complex(np.concatenate([
            np.linalg.eigvals(node.A + node.B @ F),
            np.linalg.eigvals(node.A - H @ node.C),
            np.linalg.eigvals(Q.A),
        ]))
        assert np.abs(got - want).max() <= 1e-8

    def test_five_hundred_random_parameters_locally_stable(self, node, gains):
        seed = 9001
        rng = np.random.default_rng(seed)
        F, H = gains
        plant = node.decoupled()
        worst = -np.inf
        for _ in range(500):
            Q = random_stable_statespace(rng, 2, 1, 1, gain=5.0)
            k = realize_controller(node, YoulaController(F, H, Q))
            worst = max(worst, spectral_abscissa(feedback_interconnect(plant, k).A))
        assert worst < 0, f"sweep seed {seed} found a destabilizing parameter"


class TestRememberedGainCheck:
    """A + BF and A - HC are checked once per node and gain pair."""

    @staticmethod
    def _unstable(node):
        # a node whose A is unstable, so zero gains do not stabilize it
        return Subsystem(node.A + (1.0 - spectral_abscissa(node.A)) * np.eye(node.n),
                         node.B, node.C, node.J, node.S, None)

    def test_unstable_gain_refused_on_every_call(self, node):
        bad = self._unstable(node)
        F, H = np.zeros((1, node.n)), np.zeros((node.n, 1))
        for _ in range(2):
            with pytest.raises(ValueError, match="A \\+ BF"):
                realize_controller(bad, YoulaController(F, H, zero_parameter(bad)))

    def test_pair_checked_once(self, node, gains, monkeypatch):
        import netresil.youla as youla

        checked = []
        monkeypatch.setattr(youla, "is_hurwitz",
                            lambda A: checked.append(A.shape) or is_hurwitz(A))
        Q = random_stable_statespace(np.random.default_rng(3), 2, 1, 1)
        for _ in range(3):
            realize_controller(node, YoulaController(*gains, Q))
        # F and H on the first call only, Q on every call
        assert checked == [(node.n, node.n)] * 2 + [(2, 2)] * 3

    def test_different_unstable_gain_refused_after_a_valid_pair(self, node, gains):
        F, H = gains
        realize_controller(node, YoulaController(F, H, zero_parameter(node)))
        # + c times a projector: one eigenvalue near c, far right of the rest
        c = 10.0 * (1.0 + np.linalg.norm(node.A + node.B @ F) + np.linalg.norm(node.A - H @ node.C))
        F_bad = F + c * np.linalg.pinv(node.B)
        H_bad = H - c * np.linalg.pinv(node.C)
        assert spectral_abscissa(node.A + node.B @ F_bad) >= 0
        assert spectral_abscissa(node.A - H_bad @ node.C) >= 0
        with pytest.raises(ValueError, match="A \\+ BF"):
            realize_controller(node, YoulaController(F_bad, H, zero_parameter(node)))
        with pytest.raises(ValueError, match="A - HC"):
            realize_controller(node, YoulaController(F, H_bad, zero_parameter(node)))
        realize_controller(node, YoulaController(F, H, zero_parameter(node)))

    def test_unstable_parameter_refused_with_a_remembered_pair(self, node, gains):
        realize_controller(node, YoulaController(*gains, zero_parameter(node)))
        with pytest.raises(ValueError, match="unstable"):
            realize_controller(node, YoulaController(*gains, StateSpace(1.0, 1.0, 1.0, 0.0)))

    def test_pair_not_trusted_on_another_node(self, node, gains):
        F, H = gains
        realize_controller(node, YoulaController(F, H, zero_parameter(node)))
        # same shapes, A shifted right until A + BF has abscissa 1
        shift = 1.0 - spectral_abscissa(node.A + node.B @ F)
        other = Subsystem(node.A + shift * np.eye(node.n), node.B, node.C,
                          node.J, node.S, None)
        for _ in range(2):
            with pytest.raises(ValueError, match="A \\+ BF"):
                realize_controller(other, YoulaController(F, H, zero_parameter(other)))


    def test_threads_never_accept_an_unstable_pair(self, node, gains):
        import sys
        import threading

        F, H = gains
        F_bad = F + 10.0 * (1.0 + np.linalg.norm(node.A + node.B @ F)) * np.linalg.pinv(node.B)
        good = YoulaController(F, H, zero_parameter(node))
        bad = YoulaController(F_bad, H, zero_parameter(node))
        errors = []

        def worker(k):
            for i in range(100):
                try:
                    realize_controller(node, bad if (i + k) % 2 else good)
                    accepted = True
                except ValueError:
                    accepted = False
                if accepted == bool((i + k) % 2):
                    errors.append((k, i, accepted))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


class TestLocalMapDelta:
    def test_zero_parameter_gives_nominal_map(self, node, gains):
        F, H = gains
        gp = GeneralizedPlant(node, F, H)
        grid = np.logspace(-2, 2, 50)
        d = eval_frequency(local_map_delta(gp, zero_parameter(node)), grid).values[:, 0, 0]
        d0 = eval_frequency(gp.sigma_dz(), grid).values[:, 0, 0]
        assert np.abs(d - d0).max() <= 1e-9

    def test_realization_matches_affine_formula(self, node, gains, rng):
        F, H = gains
        gp = GeneralizedPlant(node, F, H)
        Q = random_stable_statespace(rng, 2, 1, 1)
        grid = np.logspace(-2, 2, 50)
        got = eval_frequency(local_map_delta(gp, Q), grid).values[:, 0, 0]
        want = delta_response(gp, Q, grid)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= 1e-9 * scale

    def test_realization_matches_formula_with_feedthrough(self, rng):
        node = with_dz(rng, random_subsystem(rng, 3))
        F, H = design_nominal_gains(node)
        gp = GeneralizedPlant(node, F, H)
        Q = random_stable_statespace(rng, 2, 1, 1)
        grid = np.logspace(-2, 2, 50)
        got = eval_frequency(local_map_delta(gp, Q), grid).values[:, 0, 0]
        want = delta_response(gp, Q, grid)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= 1e-9 * scale

    def test_pure_feedthrough_coupling(self, rng):
        # J = 0 with Dz != 0: the free-parameter route survives through the
        # output feedthrough, and the increment over the nominal map is
        # exactly Q sigma_uz sigma_dy (the nominal map itself is nonzero
        # because the observer reacts to the corrupted measurement)
        node = with_dz(rng, random_subsystem(rng, 3))
        node = Subsystem(node.A, node.B, node.C, np.zeros_like(node.J),
                         node.S, node.Dz)
        F, H = design_nominal_gains(node)
        gp = GeneralizedPlant(node, F, H)
        Q = random_stable_statespace(rng, 2, 1, 1)
        grid = np.logspace(-2, 2, 30)
        got = eval_frequency(local_map_delta(gp, Q), grid).values[:, 0, 0]
        d0 = eval_frequency(local_map_delta(gp, zero_parameter(node)),
                            grid).values[:, 0, 0]
        uz = eval_frequency(gp.sigma_uz(), grid).values[:, 0, 0]
        dy = eval_frequency(gp.sigma_dy(), grid).values[:, 0, 0]
        qv = eval_frequency(Q, grid).values[:, 0, 0]
        scale = max(1.0, np.abs(got).max())
        assert np.abs((got - d0) - qv * uz * dy).max() <= 1e-9 * scale
        # sigma_dy keeps the feedthrough route alive
        assert np.abs(dy).max() > 0.1 * abs(node.Dz[0, 0])


class TestAllPass:
    def test_fit_minus_one(self):
        p = allpass_fit(1.0, -1.0 + 0.0j)
        assert p.k == pytest.approx(1.0)
        assert p.a == pytest.approx(1.0)
        q = allpass_ss(p)
        assert abs(q.transfer_at(1j)[0, 0] - (-1.0)) <= 1e-12

    def test_gain_scales_phase_unchanged(self):
        p = allpass_fit(1.0, -4.0 + 0.0j)
        assert p.k == pytest.approx(4.0)
        assert p.a == pytest.approx(1.0)

    def test_positive_real_guard(self):
        p = allpass_fit(2.0, 3.0 + 0.0j)
        assert p.a >= 1e-6 * 2.0
        q = allpass_ss(p)
        # guarded fit trades phase accuracy for a strictly stable pole
        assert abs(q.transfer_at(2j)[0, 0] - 3.0) <= 1e-4 * 3.0

    def test_phase_rounding_to_two_pi_takes_the_guard(self):
        # arg(1 - 1e-17j) mod 2pi rounds to 2pi: the positive real axis
        p = allpass_fit(1.0, 1.0 - 1e-17j)
        assert p == allpass_fit(1.0, 1.0 + 0.0j)
        assert p.a == 1e-6
        assert abs(allpass_ss(p).transfer_at(1j)[0, 0] - 1.0) <= 1e-4

    @pytest.mark.parametrize("k, a", [(np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0), (1.0, np.nan)])
    def test_non_finite_parameters_refused(self, k, a):
        with pytest.raises(ValueError, match="finite"):
            AllPassParam(k, a)

    def test_magnitude_is_k_everywhere(self):
        q = allpass_ss(AllPassParam(2.5, 0.7))
        for w in (1e-3, 0.1, 1.0, 10.0, 1e3):
            assert abs(q.transfer_at(1j * w)[0, 0]) == pytest.approx(2.5, rel=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            allpass_fit(0.0, 1.0 + 0j)
        with pytest.raises(ValueError):
            allpass_fit(1.0, 0.0 + 0j)
        with pytest.raises(ValueError):
            AllPassParam(-1.0, 1.0)


@settings(max_examples=1000, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_allpass_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    omega = 10.0 ** rng.uniform(-2, 2)
    qbar = rng.uniform(0.05, 50.0) * np.exp(1j * rng.uniform(1e-3, 2 * np.pi - 1e-3))
    p = allpass_fit(omega, qbar)
    got = allpass_ss(p).transfer_at(1j * omega)[0, 0]
    assert abs(got - qbar) <= 1e-9 * abs(qbar)


class TestDestabilizerSearch:
    def test_cascade_degenerates_to_not_found(self, rng):
        ns = random_cascade_system(rng, 3, 3)
        res = destabilizer_search(ns)
        assert not res.found
        assert "cascade" in res.reason

    def test_dense_instance_certified(self, dense_siso):
        res = destabilizer_search(dense_siso)
        assert res.found
        assert res.local_abscissa < -1e-6
        assert res.global_abscissa > 1e-6
        # success implies the coupling is not cascade
        assert is_cascade(dense_siso) is CascadeVerdict.NONE
        rep = res.report()
        assert set(rep) == {"omega", "k", "a", "local_abscissa", "global_abscissa"}

    def test_feedthrough_only_forward_path(self, rng):
        # J1 = 0 but Dz1 != 0: the node-1 coupling survives through the
        # output feedthrough and a destabilizer still exists
        for attempt in range(5):
            s1 = with_dz(rng, random_subsystem(rng, 3))
            s1 = Subsystem(s1.A, s1.B, s1.C, np.zeros_like(s1.J), s1.S, s1.Dz)
            s2 = random_subsystem(rng, 3)
            ns = NetworkedSystem(s1, s2, np.eye(6))
            assert is_cascade(ns) is CascadeVerdict.NONE
            res = destabilizer_search(ns)
            if res.found:
                assert res.local_abscissa < -1e-6
                assert res.global_abscissa > 1e-6
                return
        pytest.fail("no destabilizer found on five feedthrough-coupled draws")

    def test_mimo_rejected(self, rng):
        ns = random_networked_system(rng, 2, 2, channels=(2, 2))
        with pytest.raises(ValueError, match="scalar"):
            destabilizer_search(ns)

    def test_deterministic(self, dense_siso):
        a = destabilizer_search(dense_siso)
        b = destabilizer_search(dense_siso)
        assert a.omega == b.omega
        assert a.allpass.k == b.allpass.k and a.allpass.a == b.allpass.a

    def test_loop_condition_places_closed_eigenvalue(self, dense_siso):
        # solving the affine map for unit loop gain at a probe frequency puts
        # a closed-loop eigenvalue exactly at that point on the j-axis
        from netresil.network import close_local_controllers, interconnect

        ns = dense_siso
        F1, H1 = design_nominal_gains(ns.sub1)
        F2, H2 = design_nominal_gains(ns.sub2)
        gp1 = GeneralizedPlant(ns.sub1, F1, H1)
        gp2 = GeneralizedPlant(ns.sub2, F2, H2)
        w0 = 0.7
        d1 = eval_frequency(gp1.sigma_dz(), np.array([w0])).values[0, 0, 0]
        d20 = eval_frequency(gp2.sigma_dz(), np.array([w0])).values[0, 0, 0]
        uz2 = eval_frequency(gp2.sigma_uz(), np.array([w0])).values[0, 0, 0]
        dy2 = eval_frequency(gp2.sigma_dy(), np.array([w0])).values[0, 0, 0]
        qbar = (1.0 / d1 - d20) / (uz2 * dy2)
        q = allpass_ss(allpass_fit(w0, qbar))
        k1 = realize_controller(ns.sub1, YoulaController(F1, H1, zero_parameter(ns.sub1)))
        k2 = realize_controller(ns.sub2, YoulaController(F2, H2, q))
        eigs = np.linalg.eigvals(close_local_controllers(interconnect(ns), k1, k2).A)
        assert np.min(np.abs(eigs - 1j * w0)) <= 1e-8


class TestZeroResponseCheck:
    def test_zero_output_and_feedthrough(self, rng):
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 1))
        assert zero_response_check(A, B, np.zeros((1, 3)), rng.standard_normal((3, 1)),
                                     0.0, trials=20)

    def test_dense_vanishing_nowhere(self, rng):
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 1))
        assert zero_response_check(A, B, rng.standard_normal((1, 3)),
                                     rng.standard_normal((3, 1)), 0.0, trials=20)

    def test_feedthrough_shows_at_asymptote(self, rng):
        A = rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 1))
        assert zero_response_check(A, B, np.zeros((1, 2)), np.zeros((2, 1)),
                                     1.0, trials=5)

    def test_zero_input_vector(self, rng):
        A = rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 1))
        assert zero_response_check(A, B, rng.standard_normal((1, 2)),
                                     np.zeros((2, 1)), 0.0, trials=20)
