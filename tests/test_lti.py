import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from netresil.lti import (AlgebraicLoopError, DimensionError, StateSpace,
                          blockdiag, default_grid, eval_frequency,
                          feedback_interconnect, is_controllable, is_hurwitz,
                          is_observable, spectral_abscissa)
from netresil.sampling import random_stable_statespace
from netresil.simulate import simulate

from lti_ops import parallel, series


def lag():
    return StateSpace(-1, 1, 1, 0)


class TestStateSpace:
    def test_dims(self):
        g = StateSpace([[0, 1], [-1, 0]], [[0], [1]], [[1, 0]], 0)
        assert (g.n, g.m, g.q) == (2, 1, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            StateSpace([[0, 1]], [[1]], [[1]], 0)
        with pytest.raises(DimensionError):
            StateSpace(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)), 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            StateSpace([[np.nan]], [[1.0]], [[1.0]], 0)

    def test_pure_gain(self):
        g = StateSpace.from_gain([[2.0, 0.0], [0.0, 3.0]])
        assert g.n == 0 and g.m == 2 and g.q == 2
        assert np.allclose(g.transfer_at(1j), [[2, 0], [0, 3]])

    def test_immutable(self):
        g = lag()
        with pytest.raises(ValueError):
            g.A[0, 0] = 5.0


class TestSeries:
    def test_dc_gains_multiply(self):
        g = series(lag(), lag())
        assert g.transfer_at(0.0)[0, 0] == pytest.approx(1.0)

    def test_static_identity_is_neutral(self, rng):
        ident = StateSpace.from_gain(np.eye(1))
        g2 = random_stable_statespace(rng, 2)
        ser = series(ident, g2)
        for w in (0.0, 0.7, 13.0):
            assert np.allclose(ser.transfer_at(1j * w), g2.transfer_at(1j * w))

    def test_pointwise_product_oracle(self, rng):
        g1 = random_stable_statespace(rng, 3, 2, 2)
        g2 = random_stable_statespace(rng, 2, 2, 2)
        ser = series(g1, g2)
        grid = np.logspace(-2, 2, 50)
        fs = eval_frequency(ser, grid).values
        f1 = eval_frequency(g1, grid).values
        f2 = eval_frequency(g2, grid).values
        assert np.abs(fs - f2 @ f1).max() <= 1e-10

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimensionError):
            series(random_stable_statespace(rng, 2, 1, 2),
                   random_stable_statespace(rng, 2, 1, 1))


class TestFeedback:
    def test_zero_controller_returns_plant(self):
        plant = lag()
        zero = StateSpace.from_gain([[0.0]])
        cl = feedback_interconnect(plant, zero, input_map=[0], output_map=[0])
        assert np.array_equal(cl.A, plant.A)

    def test_interconnection_block_matrix(self):
        # one-state plant, dynamic controller u1 = M xi, xi' = K xi + H y1
        plant = StateSpace(-1, [[1.0, 1.0]], [[1.0], [1.0]], None)
        ctrl = StateSpace(-1, 1, 1, 0)   # K=-1, H=1, M=1
        cl = feedback_interconnect(plant, ctrl, input_map=[0], output_map=[0])
        assert np.allclose(cl.A, [[-1.0, 1.0], [1.0, -1.0]])
        assert np.allclose(cl.B, [[1.0], [0.0]])
        assert np.allclose(cl.C, [[1.0, 0.0]])

    def test_static_gain_pole_placement(self):
        # plant 1/(s-1), u = -3 y -> pole at -2
        plant = StateSpace(1, 1, 1, 0)
        cl = feedback_interconnect(plant, StateSpace.from_gain([[-3.0]]))
        assert np.linalg.eigvals(cl.A) == pytest.approx([-2.0])

    def test_ill_posed_loop(self):
        plant = StateSpace.from_gain([[1.0]])
        ctrl = StateSpace.from_gain([[1.0]])
        with pytest.raises(AlgebraicLoopError):
            feedback_interconnect(plant, ctrl)

    def test_closed_eigs_match_characteristic_roots(self):
        # G(s) = 1/(s^2 + 3s + 2) with u = -k y: s^2 + 3s + 2 + k = 0
        k = 7.0
        plant = StateSpace([[0, 1], [-2, -3]], [[0], [1]], [[1, 0]], 0)
        cl = feedback_interconnect(plant, StateSpace.from_gain([[-k]]))
        got = np.sort_complex(np.linalg.eigvals(cl.A))
        want = np.sort_complex(np.roots([1, 3, 2 + k]))
        assert np.abs(got - want).max() < 1e-9


class TestEvalFrequency:
    def test_dc_gain(self):
        fr = eval_frequency(lag(), np.array([0.0]))
        assert fr.values[0, 0, 0] == pytest.approx(1.0)

    def test_first_order_at_unit_frequency(self):
        fr = eval_frequency(lag(), np.array([1.0]))
        assert fr.values[0, 0, 0] == pytest.approx(0.5 - 0.5j)
        assert abs(fr.values[0, 0, 0]) == pytest.approx(1 / np.sqrt(2))

    def test_gain_only_constant(self):
        g = StateSpace.from_gain([[3.0, 1.0]])
        fr = eval_frequency(g, default_grid())
        assert np.all(fr.values == fr.values[0])

    def test_near_pole_flagged(self):
        osc = StateSpace([[0, 1], [-1, 0]], [[0], [1]], [[1, 0]], 0)
        fr = eval_frequency(osc, np.array([0.5, 1.0, 2.0]))
        assert fr.ill_conditioned[1]
        assert not fr.ill_conditioned[0] and not fr.ill_conditioned[2]

    def test_conjugate_symmetry(self, rng):
        g = random_stable_statespace(rng, 4, 2, 2)
        w = 2.37
        assert np.allclose(g.transfer_at(-1j * w), np.conj(g.transfer_at(1j * w)))

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            eval_frequency(lag(), np.array([1.0, 0.5]))


class TestHurwitz:
    def test_diagonal(self):
        ok, a = is_hurwitz(np.diag([-1.0, -2.0]))
        assert ok and a == pytest.approx(-1.0)

    def test_oscillator_not_hurwitz(self):
        ok, a = is_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert not ok and a == pytest.approx(0.0)

    def test_companion(self):
        ok, a = is_hurwitz(np.array([[0.0, 1.0], [-2.0, -3.0]]))
        assert ok and a == pytest.approx(-1.0)

    def test_empty_matrix(self):
        ok, a = is_hurwitz(np.zeros((0, 0)))
        assert ok and a == -np.inf

    def test_agrees_with_simulated_decay(self, rng):
        for _ in range(5):
            g = random_stable_statespace(rng, 3)
            ok, _ = is_hurwitz(g.A, margin=0.0)
            assert ok
            sys = StateSpace(g.A, np.zeros((3, 0)), np.eye(3), None)
            x0 = rng.standard_normal(3)
            h = min(1e-2, 0.09 / np.abs(np.linalg.eigvals(g.A)).max())
            traj = simulate(sys, x0, None, T=60.0, h=h, store_every=100)
            assert np.linalg.norm(traj.states[-1]) < 1e-6 * np.linalg.norm(x0)


def _feedback_by_inverse(plant, controller, input_map=None, output_map=None):
    """Reference loop closure that always forms M = inv(I - Dc D11), with the
    same operand selection and product association as the library."""
    input_map = list(range(controller.q)) if input_map is None else list(input_map)
    output_map = list(range(controller.m)) if output_map is None else list(output_map)
    ext_in = [i for i in range(plant.m) if i not in set(input_map)]
    ext_out = [i for i in range(plant.q) if i not in set(output_map)]
    B1, B2 = plant.B[:, input_map], plant.B[:, ext_in]
    C1, C2 = plant.C[output_map, :], plant.C[ext_out, :]
    D11 = plant.D[np.ix_(output_map, input_map)]
    D12 = plant.D[np.ix_(output_map, ext_in)]
    D21 = plant.D[np.ix_(ext_out, input_map)]
    D22 = plant.D[np.ix_(ext_out, ext_in)]
    Ac, Bc, Cc, Dc = controller.A, controller.B, controller.C, controller.D
    Mi = np.linalg.inv(np.eye(len(input_map)) - Dc @ D11)
    n, nc = plant.n, controller.n
    A = np.zeros((n + nc, n + nc))
    A[:n, :n] = plant.A + B1 @ Mi @ Dc @ C1
    A[:n, n:] = B1 @ Mi @ Cc
    A[n:, :n] = Bc @ (C1 + D11 @ Mi @ Dc @ C1)
    A[n:, n:] = Ac + Bc @ D11 @ Mi @ Cc
    B = np.vstack([B2 + B1 @ Mi @ Dc @ D12, Bc @ (D12 + D11 @ Mi @ Dc @ D12)])
    C = np.hstack([C2 + D21 @ Mi @ Dc @ C1, D21 @ Mi @ Cc])
    D = D22 + D21 @ Mi @ Dc @ D12
    return StateSpace(A, B, C, D)


def _random_loop(rng, zero_d11: bool, zero_dc: bool = False):
    """Plant with extra external channels, a controller on a random subset
    of them, and permuted input/output maps."""
    n, nc = int(rng.integers(0, 6)), int(rng.integers(0, 4))
    k_in, k_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    m, q = k_in + int(rng.integers(0, 3)), k_out + int(rng.integers(0, 3))
    plant = random_stable_statespace(rng, n, m, q)
    input_map = [int(i) for i in rng.permutation(m)[:k_in]]
    output_map = [int(i) for i in rng.permutation(q)[:k_out]]
    ctrl = random_stable_statespace(rng, nc, k_out, k_in, gain=0.3)
    if zero_dc:
        ctrl = StateSpace(ctrl.A, ctrl.B, ctrl.C, None)
    if zero_d11:
        D = plant.D.copy()
        D[np.ix_(output_map, input_map)] = 0.0
        plant = StateSpace(plant.A, plant.B, plant.C, D)
    return plant, ctrl, input_map, output_map


def _assert_same(got, want):
    # == ignores the sign of zero, which the products may flip
    for name in "ABCD":
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and np.array_equal(a, b), name


class TestFeedbackOracle:
    def test_zero_plant_feedthrough_on_loop(self, rng):
        # D11 = 0: the loop matrix is exactly I and M = I is skipped
        for _ in range(200):
            plant, ctrl, im, om = _random_loop(rng, zero_d11=True)
            _assert_same(feedback_interconnect(plant, ctrl, im, om),
                         _feedback_by_inverse(plant, ctrl, im, om))

    def test_zero_controller_feedthrough(self, rng):
        # Dc = 0 with D11 != 0: Dc D11 vanishes exactly although D11 does not
        for _ in range(100):
            plant, ctrl, im, om = _random_loop(rng, zero_d11=False, zero_dc=True)
            assert np.any(plant.D[np.ix_(om, im)]) and not np.any(ctrl.D)
            _assert_same(feedback_interconnect(plant, ctrl, im, om),
                         _feedback_by_inverse(plant, ctrl, im, om))

    def test_general_loop(self, rng):
        checked = 0
        for _ in range(200):
            plant, ctrl, im, om = _random_loop(rng, zero_d11=False)
            if not np.any(ctrl.D @ plant.D[np.ix_(om, im)]):
                continue
            _assert_same(feedback_interconnect(plant, ctrl, im, om),
                         _feedback_by_inverse(plant, ctrl, im, om))
            checked += 1
        assert checked >= 150

    def test_default_maps(self, rng):
        for zero_d11 in (True, False):
            plant = random_stable_statespace(rng, 4, 3, 3)
            if zero_d11:
                D = plant.D.copy()
                D[:2, :2] = 0.0
                plant = StateSpace(plant.A, plant.B, plant.C, D)
            ctrl = random_stable_statespace(rng, 2, 2, 2, gain=0.3)
            _assert_same(feedback_interconnect(plant, ctrl),
                         _feedback_by_inverse(plant, ctrl))

    def test_ill_posed_mimo_loop_with_maps(self, rng):
        # I - Dc D11 = diag(0, 0.5) on the looped channels
        D = rng.normal(size=(3, 3))
        D[np.ix_([2, 0], [1, 2])] = np.eye(2)
        plant = StateSpace(-np.eye(2), rng.normal(size=(2, 3)), rng.normal(size=(3, 2)), D)
        ctrl = StateSpace.from_gain(np.diag([1.0, 0.5]))
        with pytest.raises(AlgebraicLoopError):
            feedback_interconnect(plant, ctrl, input_map=[1, 2], output_map=[2, 0])


class TestBlockdiagOracle:
    def test_matches_scipy_block_diag(self, rng):
        for _ in range(100):
            systems = [random_stable_statespace(rng, int(rng.integers(0, 4)),
                                                int(rng.integers(0, 3)),
                                                int(rng.integers(0, 3)))
                       for _ in range(int(rng.integers(1, 5)))]
            b = blockdiag(*systems)
            n = sum(g.n for g in systems)
            m = sum(g.m for g in systems)
            q = sum(g.q for g in systems)
            for name, shape in (("A", (n, n)), ("B", (n, m)), ("C", (q, n)), ("D", (q, m))):
                want = sla.block_diag(*[getattr(g, name) for g in systems]).reshape(shape)
                assert np.array_equal(getattr(b, name), want), name

    def test_static_and_zero_width_members(self):
        g = StateSpace(-1, [[1.0, 2.0]], [[3.0]], [[0.0, 4.0]])
        gain = StateSpace.from_gain([[5.0], [6.0]])
        sink = StateSpace.from_gain(np.zeros((0, 2)))
        b = blockdiag(gain, sink, g)
        assert (b.n, b.m, b.q) == (1, 5, 3)
        assert np.array_equal(b.B, [[0.0, 0.0, 0.0, 1.0, 2.0]])
        assert np.array_equal(b.C, [[0.0], [0.0], [3.0]])
        assert np.array_equal(b.D, [[5.0, 0, 0, 0, 0], [6.0, 0, 0, 0, 0],
                                    [0, 0, 0, 0.0, 4.0]])
        assert not b.A.flags.writeable


class TestHelpers:
    def test_parallel(self, rng):
        g1 = random_stable_statespace(rng, 2)
        g2 = random_stable_statespace(rng, 3)
        p = parallel(g1, g2)
        w = 0.9
        assert np.allclose(p.transfer_at(1j * w),
                           g1.transfer_at(1j * w) + g2.transfer_at(1j * w))

    def test_blockdiag(self, rng):
        g1 = random_stable_statespace(rng, 2, 1, 1)
        g2 = random_stable_statespace(rng, 1, 2, 2)
        b = blockdiag(g1, g2)
        assert (b.n, b.m, b.q) == (3, 3, 3)
        v = b.transfer_at(0.3j)
        assert np.allclose(v[:1, :1], g1.transfer_at(0.3j))
        assert np.allclose(v[1:, 1:], g2.transfer_at(0.3j))
        assert np.allclose(v[:1, 1:], 0) and np.allclose(v[1:, :1], 0)

    def test_controllability(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert is_controllable(A, np.array([[0.0], [1.0]]))
        assert not is_controllable(A, np.array([[1.0], [0.0]]))
        assert is_observable(A, np.array([[1.0, 0.0]]))
        assert not is_observable(A, np.array([[0.0, 1.0]]))

    def test_spectral_abscissa_empty(self):
        assert spectral_abscissa(np.zeros((0, 0))) == -np.inf


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n1=st.integers(1, 4), n2=st.integers(1, 4))
def test_series_product_property(seed, n1, n2):
    rng = np.random.default_rng(seed)
    g1 = random_stable_statespace(rng, n1)
    g2 = random_stable_statespace(rng, n2)
    ser = series(g1, g2)
    grid = np.logspace(-2, 2, 25)
    fs = eval_frequency(ser, grid).values
    f1 = eval_frequency(g1, grid).values
    f2 = eval_frequency(g2, grid).values
    scale = max(1.0, np.abs(fs).max())
    assert np.abs(fs - f2 @ f1).max() <= 1e-9 * scale


def per_point_response(g, omegas):
    """Reference: one dense solve of (jwI - A) X = B per grid point, least
    squares where the matrix is singular."""
    out = np.empty((omegas.size, g.q, g.m), dtype=complex)
    for i, w in enumerate(omegas):
        M = 1j * w * np.eye(g.n) - g.A
        try:
            X = np.linalg.solve(M, g.B)
        except np.linalg.LinAlgError:
            X = np.linalg.lstsq(M, g.B.astype(complex), rcond=None)[0]
        out[i] = g.C @ X + g.D
    return out


def response_deviation(got, want):
    """Worst pointwise deviation relative to the largest ||G(jw)||_F on the
    grid, the scale triangularity residuals and grid norms are read on."""
    k = want.shape[0]
    scale = np.linalg.norm(want.reshape(k, -1), axis=1).max()
    return np.linalg.norm((got - want).reshape(k, -1), axis=1).max() / scale


class TestEvalFrequencyOracle:
    """The modal resolvent against per-point dense solves."""

    @pytest.mark.parametrize("n, m, q", [(3, 1, 1), (12, 3, 2), (40, 2, 4),
                                         (80, 4, 1), (120, 2, 120)])
    def test_random_stable_systems(self, rng, n, m, q):
        grid = default_grid()
        for _ in range(2):
            g = random_stable_statespace(rng, n, m, q)
            fr = eval_frequency(g, grid)
            assert response_deviation(fr.values, per_point_response(g, grid)) <= 1e-10
            assert not fr.ill_conditioned.any()

    def test_compensated_plant(self, rng):
        from netresil.compensator import attach_compensator, synthesize_compensator
        from netresil.sampling import random_networked_system

        grid = default_grid()
        for _ in range(3):
            ns = random_networked_system(rng, 5, 6, channels=(2, 2))
            sysc = attach_compensator(ns, synthesize_compensator(ns))
            assert sysc.n == 2 * ns.n
            got = eval_frequency(sysc, grid).values
            assert response_deviation(got, per_point_response(sysc, grid)) <= 1e-10

    @pytest.mark.parametrize("corner", [0.0, 1e-12])
    def test_jordan_block_takes_direct_solves(self, rng, corner):
        # a 5 x 5 Jordan block, exact or split onto a ring of radius 4e-3,
        # where the modal form alone deviates by about 1e-7
        n = 5
        A = -np.eye(n) + np.diag(np.ones(n - 1), 1)
        A[-1, 0] = corner
        _, V = np.linalg.eig(A)
        assert not np.linalg.cond(V) <= 1e6        # (nearly) defective: no modal form
        g = StateSpace(A, rng.standard_normal((n, 2)), rng.standard_normal((2, n)), None)
        grid = default_grid()
        fr = eval_frequency(g, grid)
        assert response_deviation(fr.values, per_point_response(g, grid)) <= 1e-10

    def test_on_axis_pole_flagged_and_solved_directly(self, rng):
        # poles at +-2j and a stable remainder; the grid hits w = 2 exactly
        A = np.zeros((5, 5))
        A[:2, :2] = [[0.0, 2.0], [-2.0, 0.0]]
        A[2:, 2:] = random_stable_statespace(rng, 3).A
        g = StateSpace(A, rng.standard_normal((5, 2)), rng.standard_normal((2, 5)), None)
        grid = np.array([0.0, 0.5, 1.999, 2.0, 2.001, 10.0])
        fr = eval_frequency(g, grid)
        assert fr.ill_conditioned.tolist() == [False, False, False, True, False, False]
        assert np.all(np.isfinite(fr.values))
        want = per_point_response(g, grid)
        assert np.abs(fr.values - want).max() <= 1e-10 * np.abs(want).max()
