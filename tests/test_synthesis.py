import numpy as np
import pytest

from netresil.lti import StateSpace, default_grid, eval_frequency, is_hurwitz
from netresil.sampling import random_stable_statespace
from netresil.synthesis import (SynthesisError, care_residual,
                                design_observer_gain, design_theta,
                                design_theta_gamma_scan, hinf_norm, solve_care)


class TestSolveCare:
    def test_scalar_closed_form(self):
        # -P^2 + 1 = 0 with A=0, B=Q=R=1
        sol = solve_care([[0.0]], [[1.0]], [[1.0]], [[1.0]])
        assert sol.P[0, 0] == pytest.approx(1.0)
        assert sol.K[0, 0] == pytest.approx(1.0)

    def test_scalar_lyapunov(self):
        # B = 0 reduces to A'P + PA + Q = 0: P = 0.5
        sol = solve_care([[-1.0]], [[0.0]], [[1.0]], [[1.0]])
        assert sol.P[0, 0] == pytest.approx(0.5)
        assert np.allclose(sol.K, 0.0)

    def test_lyapunov_near_the_axis_does_not_overflow(self):
        # P = 1 / (2|a|) is finite, but its square is not
        a = -1.0821094976393003e-277
        sol = solve_care([[a]], [[0.0]], [[1.0]], [[1.0]])
        assert sol.P[0, 0] == pytest.approx(-0.5 / a, rel=1e-12)
        assert sol.residual_norm <= 1e-8

    def test_failed_schur_reordering_is_a_synthesis_error(self):
        A = [[5e-324, 1e-300, -1e30], [5e-324, 5e-324, 1e20], [5e-324, -1e50, 0.0]]
        B = [[2.8871702403980652, 2.7432610776657818],
             [-2.1074159266050128, 2.8357728829377296],
             [2.339613334323124, 1.9342429652584228]]
        with pytest.raises(SynthesisError):
            solve_care(A, B, np.eye(3), np.eye(2))

    def test_random_residual_self_oracle(self, rng, random_stabilizable_pair):
        for _ in range(5):
            A, B = random_stabilizable_pair(rng, 4, 2)
            sol = solve_care(A, B, np.eye(4), np.eye(2))
            assert sol.residual_norm <= 1e-8
            assert care_residual(A, B, np.eye(4), np.eye(2), sol.P) <= 1e-8
            ok, _ = is_hurwitz(A - B @ sol.K)
            assert ok
            assert np.abs(sol.P - sol.P.T).max() <= 1e-10 * max(1, np.abs(sol.P).max())

    def test_unstabilizable_raises(self):
        # uncontrollable unstable mode: Hamiltonian eigenvalue at the origin
        with pytest.raises(SynthesisError):
            solve_care([[0.0]], [[0.0]], [[0.0]], [[1.0]])

    @pytest.mark.parametrize("b", [1.0, 1e3, 1e9, 1e20])
    @pytest.mark.parametrize("a", [-1.0, 0.0, 1.0])
    def test_scalar_closed_form_at_any_input_scale(self, a, b):
        # 2aP - b^2 P^2 + 1 = 0 has the stabilizing root (a + sqrt(a^2 + b^2)) / b^2
        sol = solve_care([[a]], [[b]], [[1.0]], [[1.0]])
        assert sol.P[0, 0] == pytest.approx((a + np.sqrt(a**2 + b**2)) / b**2, rel=1e-12)

    @pytest.mark.parametrize("a, q", [(1.0, 1.0), (0.0, 0.0)])
    def test_unreachable_mode_refused_at_large_input_scale(self, a, q):
        # the first mode (unstable, or on the axis and unweighted) is not driven by B
        with pytest.raises(SynthesisError):
            solve_care(np.diag([a, -1.0]), [[0.0], [1e9]], np.diag([q, 1.0]), [[1.0]])

    def test_indefinite_weight_raises(self):
        with pytest.raises(SynthesisError):
            solve_care([[0.0]], [[1.0]], [[1.0]], [[-1.0]])


class TestGainDesign:
    def test_scalar_theta(self):
        # 2P - P^2 + 1 = 0 -> P = 1 + sqrt(2); Theta = -P
        th = design_theta([[1.0]], [[1.0]])
        assert th[0, 0] == pytest.approx(-(1.0 + np.sqrt(2.0)))

    def test_theta_on_stable_plant_stays_stable(self, rng):
        g = random_stable_statespace(rng, 3)
        th = design_theta(g.A, np.eye(3))
        ok, _ = is_hurwitz(g.A + th)
        assert ok

    def test_observer_gain_scalar_duality(self):
        H = design_observer_gain([[1.0]], [[1.0]])
        assert H[0, 0] == pytest.approx(1.0 + np.sqrt(2.0))
        assert 1.0 - H[0, 0] < 0

    def test_observer_gain_already_stable(self):
        H = design_observer_gain([[-1.0]], [[1.0]])
        assert -1.0 - H[0, 0] * 1.0 <= -1.0

    def test_observer_random(self, rng, random_stabilizable_pair):
        A, C_t = random_stabilizable_pair(rng, 4, 1)
        C = C_t.T
        H = design_observer_gain(A, C)
        ok, _ = is_hurwitz(A - H @ C)
        assert ok

    def test_duality_transposes(self, rng, random_stabilizable_pair):
        A, B = random_stabilizable_pair(rng, 3, 1)
        th = design_theta(A, B)
        H = design_observer_gain(A.T, B.T)
        assert np.allclose(th, -H.T, atol=1e-9)

    def test_gamma_scan_beats_or_ties_plain(self, rng, random_stabilizable_pair):
        A, R = random_stabilizable_pair(rng, 4, 2)
        Gamma = rng.standard_normal((4, 2))
        theta_scan, g_scan = design_theta_gamma_scan(A, R, Gamma)
        theta_plain = design_theta(A, R)
        g_plain = hinf_norm(StateSpace(A + R @ theta_plain, Gamma, np.eye(4), None)).norm
        assert g_scan <= g_plain * (1 + 1e-6)

    def test_gamma_scan_zero_gamma(self, rng, random_stabilizable_pair):
        A, R = random_stabilizable_pair(rng, 3, 1)
        theta, g = design_theta_gamma_scan(A, R, np.zeros((3, 1)))
        assert g == 0.0
        ok, _ = is_hurwitz(A + R @ theta)
        assert ok


class TestHinfNorm:
    def test_first_order_lag(self):
        res = hinf_norm(StateSpace(-1, 1, 1, 0))
        assert res.norm == pytest.approx(1.0, rel=1e-3)
        assert res.peak_omega == pytest.approx(0.0, abs=1e-2)

    def test_resonant_closed_form(self):
        # 1/(s^2 + 2 zeta s + 1), zeta = 0.1: peak 1/(2 zeta sqrt(1-zeta^2))
        zeta = 0.1
        g = StateSpace([[0, 1], [-1, -2 * zeta]], [[0], [1]], [[1, 0]], 0)
        res = hinf_norm(g)
        want = 1.0 / (2 * zeta * np.sqrt(1 - zeta**2))
        assert res.norm == pytest.approx(want, rel=5e-3)
        assert res.peak_omega == pytest.approx(np.sqrt(1 - 2 * zeta**2), rel=1e-2)

    def test_static_gain(self):
        D = np.array([[3.0, 0.0], [1.0, 2.0]])
        res = hinf_norm(StateSpace.from_gain(D))
        assert res.norm == pytest.approx(np.linalg.svd(D, compute_uv=False)[0])
        assert res.iterations == 0

    def test_unstable_raises(self):
        with pytest.raises(SynthesisError):
            hinf_norm(StateSpace(1, 1, 1, 0))

    @pytest.mark.parametrize("B, C", [(0.0, 1.0), (1.0, 0.0)])
    def test_unstable_zero_channel_raises(self, B, C):
        # the zero-channel shortcut must not skip the stability check
        with pytest.raises(SynthesisError, match="Hurwitz"):
            hinf_norm(StateSpace(np.diag([0.5, -2.0]), [[B], [B]], [[C, C]], 0))

    def test_identically_zero_transfer(self):
        # B drives only the mode that C does not see
        res = hinf_norm(StateSpace(np.diag([-1.0, -2.0]), [[1.0], [0.0]], [[0.0, 1.0]], 0))
        assert res.norm == 0.0 and res.converged

    def test_bounds_grid_max(self, rng):
        for _ in range(5):
            g = random_stable_statespace(rng, 4, 2, 2)
            res = hinf_norm(g)
            sig = np.linalg.svd(eval_frequency(g, default_grid()).values,
                                compute_uv=False)[:, 0]
            assert res.norm >= sig.max() * (1 - 1e-9)
            assert res.norm <= sig.max() * 1.01

    def test_grid_max_is_the_grid_evaluation(self, rng):
        for _ in range(5):
            g = random_stable_statespace(rng, 4, 2, 3)
            sig = np.linalg.svd(eval_frequency(g, default_grid()).values,
                                compute_uv=False)[:, 0]
            assert hinf_norm(g).grid_max == sig.max()
        # constant transfer functions: no state, and a zero input matrix
        for g in (StateSpace.from_gain(rng.normal(size=(2, 3))),
                  StateSpace(-np.eye(2), np.zeros((2, 3)), rng.normal(size=(2, 2)),
                             rng.normal(size=(2, 3)))):
            sig = np.linalg.svd(eval_frequency(g, default_grid()).values,
                                compute_uv=False)[:, 0]
            assert hinf_norm(g).grid_max == pytest.approx(sig.max(), rel=1e-14)

    def test_mimo_with_feedthrough(self, rng):
        g = random_stable_statespace(rng, 3, 2, 2, gain=0.5)
        res = hinf_norm(g, tol=1e-6)
        grid = np.concatenate([[0.0], np.logspace(-3, 4, 3000)])
        sig = np.linalg.svd(eval_frequency(g, grid).values, compute_uv=False)[:, 0]
        assert res.norm >= sig.max() * (1 - 1e-6)
        assert res.norm <= sig.max() * (1 + 5e-3)


class TestHinfLevelSet:
    @staticmethod
    def resonance(zeta, wn, k):
        """k / (s^2 + 2 zeta wn s + wn^2), peak k / (2 zeta sqrt(1 - zeta^2) wn^2)."""
        return StateSpace([[0, 1], [-wn**2, -2 * zeta * wn]], [[0], [k]], [[1, 0]], 0)

    def test_two_peaks_within_one_percent(self):
        # peaks at w = 1 and w = 7 whose heights differ by about 0.6%
        from lti_ops import parallel

        zeta = 0.01
        g = parallel(self.resonance(zeta, 1.0, 1.0), self.resonance(zeta, 7.0, 49.0 * 1.006))
        dense = np.concatenate([np.linspace(0.95, 1.05, 20001), np.linspace(6.65, 7.35, 20001)])
        sig = np.abs(eval_frequency(g, dense).values[:, 0, 0])
        i1, i2 = int(np.argmax(sig[:20001])), 20001 + int(np.argmax(sig[20001:]))
        assert 0 < sig[i2] / sig[i1] - 1 < 0.01
        res = hinf_norm(g)
        assert res.converged
        assert abs(res.norm - sig[i2]) <= 1e-4 * sig[i2]
        assert res.peak_omega == pytest.approx(dense[i2], rel=1e-3)

    @pytest.mark.parametrize("F", [1.0, 1e3, 1e5, 1e7])
    @pytest.mark.parametrize("zeta", [0.05, 0.005])
    def test_stiff_spectrum_closed_form(self, zeta, F):
        # an uncoupled pole at -F widens the on-axis window of the Hamiltonian
        # eigenvalues but leaves the peak of 1/(s^2 + 2 zeta s + 1) in place
        A = np.zeros((3, 3))
        A[:2, :2] = [[0.0, 1.0], [-1.0, -2 * zeta]]
        A[2, 2] = -F
        res = hinf_norm(StateSpace(A, [[0.0], [1.0], [0.0]], [[1.0, 0.0, 0.0]], 0))
        peak = 1.0 / (2 * zeta * np.sqrt(1 - zeta**2))
        assert res.converged
        assert 0 <= res.norm / peak - 1 <= 1.1e-4

    def test_iteration_limit_reported(self):
        # a sharp resonance between grid points: one iteration cannot settle it
        grid = default_grid()
        wn = float(np.sqrt(grid[200] * grid[201]))
        g = self.resonance(1e-3, wn, wn**2)
        sig = np.abs(eval_frequency(g, grid).values[:, 0, 0])
        peak = 1.0 / (2e-3 * np.sqrt(1 - 1e-6))
        assert sig.max() < 0.5 * peak
        short = hinf_norm(g, max_iter=1)
        assert not short.converged and short.iterations == 1
        full = hinf_norm(g)
        assert full.converged
        assert abs(full.norm - peak) <= 1e-4 * peak
