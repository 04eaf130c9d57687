import numpy as np
import pytest

from netresil.compensator import compensated_plant, synthesize_compensator
from netresil.lti import StateSpace
from netresil.powergrid import design_tracking_controllers, grid_network
from netresil.sampling import random_networked_system
from netresil.simulate import (DIVERGENCE_LIMIT, MAX_HALVINGS, ReferenceSignal, Scenario,
                               StepSizeError, _rk4_step_maps, closed_tracking_loop,
                               run_scenario, simulate)

from conftest import l2_energy
from l2_measures import DivergenceError, l2_norm


def decay():
    return StateSpace(-1, 0, 1, 0)


def sample(ref: ReferenceSignal, t: float) -> np.ndarray:
    """The level row of ``ref`` in force at time t."""
    idx = int(np.searchsorted(ref.times, t, side="right") - 1)
    return ref.levels[max(idx, 0)]


class TestSimulate:
    def test_analytic_exponential(self):
        traj = simulate(decay(), [1.0], None, T=1.0, h=1e-3)
        assert traj.states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-7)

    def test_rotation_returns(self):
        rot = StateSpace([[0, 1], [-1, 0]], [[0], [0]], [[1, 0]], 0)
        h = 2 * np.pi / 6283
        traj = simulate(rot, [1.0, 0.0], None, T=2 * np.pi, h=h)
        assert np.abs(traj.states[-1] - [1.0, 0.0]).max() <= 1e-6

    def test_unstable_run_flags_divergence(self):
        traj = simulate(StateSpace(2.0, 0, 1, 0), [1.0], None, T=30.0, h=1e-2)
        assert traj.diverged
        assert np.all(np.isfinite(traj.states))

    def test_step_guard(self):
        """|lambda| = 200 admits h <= 5e-4: h = 1e-2 is halved five times and
        the stride doubled as often, so the samples asked for are kept."""
        fast = StateSpace(-200.0, 0, 1, 0)
        traj = simulate(fast, [1.0], None, T=1.0, h=1e-2, store_every=3)
        asked = simulate(decay(), [1.0], None, T=1.0, h=1e-2, store_every=3)
        assert np.array_equal(traj.times, asked.times)
        assert traj.h == asked.h == 1e-2 * 3 and asked.step == 1e-2
        assert traj.step * 200 <= 0.1 < 2 * traj.step * 200
        assert traj.step == 1e-2 / 2 ** 5
        assert traj.states[-1, 0] == pytest.approx(np.exp(-200.0), abs=1e-12)

    def test_step_guard_refuses_past_the_halving_cap(self):
        h = 1e-3
        # 0.1 / (h / 2^cap) is the stiffest |lambda| the cap admits
        limit = 0.1 * 2 ** MAX_HALVINGS / h
        assert simulate(StateSpace(-limit, 0, 1, 0), [1.0], None, T=0.1, h=h).step \
            == h / 2 ** MAX_HALVINGS
        with pytest.raises(StepSizeError, match=r"h=0.001 .* needs h <= 1e-07"):
            simulate(StateSpace(-1e6, 0, 1, 0), [1.0], None, T=0.1, h=h)

    def test_fourth_order_convergence(self):
        ref = np.exp(-1.0)
        e1 = abs(simulate(decay(), [1.0], None, T=1.0, h=0.1).states[-1, 0] - ref)
        e2 = abs(simulate(decay(), [1.0], None, T=1.0, h=0.05).states[-1, 0] - ref)
        assert e1 / e2 >= 8.0

    def test_constant_input_closed_form(self):
        # x' = -x + 2 from x(0) = 0: x(t) = 2 (1 - e^-t)
        g = StateSpace(-1, 1, 1, 0)
        traj = simulate(g, [0.0], np.array([2.0]), T=2.0, h=1e-3)
        assert np.array_equal(traj.inputs, np.full((traj.times.size, 1), 2.0))
        assert traj.states[-1, 0] == pytest.approx(2.0 * (1 - np.exp(-2.0)), abs=1e-6)

    def test_invalid_step_horizon_stride_rejected(self):
        for kwargs in ({"h": 0.0}, {"h": -1e-3}, {"T": -5.0}, {"store_every": 0}):
            with pytest.raises(ValueError):
                simulate(decay(), [1.0], None, **kwargs)

    def test_strided_divergence_stops_within_one_stride(self):
        g = StateSpace([[0.5, 1.0], [0.0, 0.3]], [[0.0], [1.0]], [[1.0, 0.0]], 0)
        h, store, u = 1e-2, 7, np.array([0.5])
        traj = simulate(g, [1.0, 0.0], u, T=80.0, h=h, store_every=store)
        assert traj.diverged
        assert np.all(np.isfinite(traj.states))
        assert np.abs(traj.states).max() <= DIVERGENCE_LIMIT
        # first step at which the per-step map leaves the finite range
        Phi, Psi = _rk4_step_maps(g.A, g.B, h)
        x, k_cross = np.array([1.0, 0.0]), 0
        while np.abs(x).max() <= DIVERGENCE_LIMIT:
            x = Phi @ x + Psi @ u
            k_cross += 1
        k_last = int(round(traj.times[-1] / h))
        assert k_cross - store <= k_last < k_cross

    def test_stable_decay_bound(self, rng):
        from netresil.sampling import random_stable_statespace

        g = random_stable_statespace(rng, 3)
        sys = StateSpace(g.A, np.zeros((3, 0)), np.eye(3), None)
        x0 = rng.standard_normal(3)
        h = min(1e-2, 0.09 / np.abs(np.linalg.eigvals(g.A)).max())
        traj = simulate(sys, x0, None, T=40.0, h=h, store_every=50)
        assert np.linalg.norm(traj.states[-1]) < 1e-4 * np.linalg.norm(x0)

    def test_input_rows_are_the_commands(self):
        g = StateSpace([[-1.0, 0.0], [0.0, -2.0]], [[1.0], [1.0]], [[1.0, 0.0]], 0)
        traj = simulate(g, [1.0, 0.0], [0.5], T=0.1, h=1e-2)
        assert np.array_equal(traj.commands, np.full((traj.times.size, 1), 0.5))

    def test_every_signal_has_one_row_per_sample(self):
        from netresil.simulate import Trajectory

        rows = {name: np.zeros((3, 1))
                for name in ("states", "comp_states", "outputs", "inputs", "commands")}
        Trajectory(times=np.arange(3.0), h=1.0, **rows)
        for name in rows:
            with pytest.raises(ValueError, match=f"{name} rows"):
                Trajectory(times=np.arange(3.0), h=1.0, **{**rows, name: np.zeros((4, 1))})


class TestL2Norm:
    def test_exponential_closed_form(self):
        traj = simulate(decay(), [1.0], None, T=20.0, h=1e-3)
        rep = l2_norm(traj, "states")
        assert rep.value == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-4)
        assert rep.terminal_ratio < 1e-4

    def test_zero_trajectory(self):
        traj = simulate(decay(), [0.0], None, T=1.0, h=1e-3)
        assert l2_norm(traj, "states").value == 0.0

    def test_time_reversal_invariance(self):
        traj = simulate(decay(), [1.0], None, T=5.0, h=1e-3)
        from netresil.simulate import Trajectory

        rev = Trajectory(times=traj.times, states=traj.states[::-1].copy(),
                         comp_states=traj.comp_states, outputs=traj.outputs,
                         inputs=traj.inputs, commands=traj.commands, h=traj.h)
        assert l2_norm(rev, "states").value == pytest.approx(
            l2_norm(traj, "states").value, rel=1e-12)

    def test_divergent_rejected(self):
        traj = simulate(StateSpace(2.0, 0, 1, 0), [1.0], None, T=30.0, h=1e-2)
        with pytest.raises(DivergenceError):
            l2_norm(traj, "states")

    def test_lyapunov_energy_closed_forms(self):
        # x' = -x, y = 3x: int 9 e^(-2t) dt = 4.5
        assert l2_energy(StateSpace(-1.0, 0, 3.0, 0), [1.0]) == pytest.approx(4.5, rel=1e-12)
        # x1' = -x1 + x2, x2' = -2 x2 from (1, 1): x1 = 2e^-t - e^-2t
        g = StateSpace([[-1.0, 1.0], [0.0, -2.0]], np.zeros((2, 0)), [[1.0, 0.0]], None)
        assert l2_energy(g, [1.0, 1.0]) == pytest.approx(2.0 - 4.0 / 3.0 + 0.25, rel=1e-12)
        with pytest.raises(ValueError):
            l2_energy(StateSpace(0.5, 0, 1, 0), [1.0])


class TestReferenceSignal:
    def test_piecewise_levels(self):
        ref = ReferenceSignal(np.array([0.0, 1.0]), np.array([[0.5], [2.0]]))
        assert sample(ref, 0.0)[0] == 0.5
        assert sample(ref, 0.999)[0] == 0.5
        assert sample(ref, 1.0)[0] == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ReferenceSignal(np.array([1.0]), np.array([[0.5]]))   # must start at 0

    def test_random_levels_shared(self, rng):
        ref = ReferenceSignal.random_levels(rng, 10.0, 2.0, 3)
        assert ref.levels.shape == (5, 3)
        assert np.all(ref.levels == ref.levels[:, :1])


class TestRunScenario:
    @pytest.fixture
    def setup(self, rng):
        ns = random_networked_system(rng, 2, 2)
        comp = synthesize_compensator(ns)
        k1, k2 = design_tracking_controllers(ns)
        return ns, comp, (k1.realize(), k2.realize())

    def test_matches_plain_simulate_bitwise(self, setup, rng):
        ns, comp, pair = setup
        x0 = rng.standard_normal(ns.n)
        level = np.full(ns.q, 0.1)
        sc = Scenario(segments=((0.0, "k"),), horizon=5.0, x0=x0, h=1e-3,
                      reference=ReferenceSignal.constant(level))
        traj, reports = run_scenario(ns, comp, sc, {"k": pair})
        plant, phi, xs = compensated_plant(ns, comp)
        loop = closed_tracking_loop(plant, pair, (ns.sub1.q, ns.sub2.q))
        z0 = np.zeros(loop.n)
        z0[xs] = x0
        ref = simulate(loop, z0, level, T=5.0, h=1e-3)
        assert np.array_equal(traj.states, ref.states[:, xs])
        assert np.array_equal(traj.comp_states, ref.states[:, phi])
        assert len(reports) == 1 and reports[0].stable

    def test_segments_swap_and_carryover(self, setup, rng):
        ns, comp, pair = setup
        sc = Scenario(segments=((0.0, "a"), (2.0, "b")), horizon=4.0,
                      x0=rng.standard_normal(ns.n), h=1e-3,
                      reference=ReferenceSignal.constant(np.zeros(ns.q)))
        lib = {"a": pair, "b": pair}
        traj, reports = run_scenario(ns, comp, sc, lib)
        # same controller under both keys with carryover: identical to one segment
        sc1 = Scenario(segments=((0.0, "a"),), horizon=4.0, x0=sc.x0, h=1e-3,
                       reference=ReferenceSignal.constant(np.zeros(ns.q)))
        traj1, _ = run_scenario(ns, comp, sc1, lib)
        assert np.abs(traj.states - traj1.states).max() <= 1e-12
        assert [r.key for r in reports] == ["a", "b"]

    def test_reset_policy_zeroes_controller(self, setup, rng):
        ns, comp, pair = setup
        x0 = rng.standard_normal(ns.n)
        ref = ReferenceSignal.constant(np.full(ns.q, 0.2))
        sc_keep = Scenario(segments=((0.0, "a"), (1.0, "b")), horizon=2.0, x0=x0,
                           h=1e-3, reference=ref, carryover=True)
        sc_reset = Scenario(segments=((0.0, "a"), (1.0, "b")), horizon=2.0, x0=x0,
                            h=1e-3, reference=ref, carryover=False)
        lib = {"a": pair, "b": pair}
        t_keep, _ = run_scenario(ns, comp, sc_keep, lib)
        t_reset, _ = run_scenario(ns, comp, sc_reset, lib)
        assert np.abs(t_keep.states - t_reset.states).max() > 0

    def test_compensator_state_never_reset(self, setup, rng):
        ns, comp, pair = setup
        sc = Scenario(segments=((0.0, "a"), (1.0, "b")), horizon=2.0,
                      x0=rng.standard_normal(ns.n), h=1e-3,
                      reference=ReferenceSignal.constant(np.full(ns.q, 0.3)),
                      carryover=False)
        traj, _ = run_scenario(ns, comp, sc, {"a": pair, "b": pair})
        k_swap = np.searchsorted(traj.times, 1.0)
        # phi is continuous through the swap (controller state was zeroed)
        dphi = np.abs(np.diff(traj.comp_states[k_swap - 1:k_swap + 1], axis=0))
        assert dphi.max() <= 1e-2 * max(1.0, np.abs(traj.comp_states).max())

    def test_unknown_key_rejected(self, setup):
        ns, comp, pair = setup
        sc = Scenario(segments=((0.0, "missing"),), horizon=1.0,
                      x0=np.zeros(ns.n), h=1e-3)
        with pytest.raises(KeyError):
            run_scenario(ns, comp, sc, {"k": pair})

    def test_uncompensated_run(self, setup, rng):
        ns, comp, pair = setup
        sc = Scenario(segments=((0.0, "k"),), horizon=2.0,
                      x0=rng.standard_normal(ns.n), h=1e-3)
        traj, _ = run_scenario(ns, None, sc, {"k": pair})
        assert traj.comp_states.shape[1] == 0
        assert traj.states.shape[1] == ns.n

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario(segments=((1.0, "k"),), horizon=2.0, x0=np.zeros(2))
        with pytest.raises(ValueError):
            Scenario(segments=((0.0, "a"), (0.5, "b"), (0.25, "c")), horizon=2.0,
                     x0=np.zeros(2))
        with pytest.raises(ValueError):
            Scenario(segments=((0.0, "a"),), horizon=-1.0, x0=np.zeros(2))
        # NaN is refused when built, not later by the step count conversion
        with pytest.raises(ValueError, match="step h"):
            Scenario(segments=((0.0, "a"),), horizon=2.0, x0=np.zeros(2), h=np.nan)
        with pytest.raises(ValueError, match="horizon T"):
            Scenario(segments=((0.0, "a"),), horizon=np.nan, x0=np.zeros(2))


def per_step_scenario(ns, comp, sc, controllers):
    """run_scenario spelled out one RK4 step at a time: stored times and
    plant-side states (compensator state first, as compensated_plant lays
    them out)."""
    plant, _, xs = compensated_plant(ns, comp)
    h, store = sc.h, sc.store_every
    n_steps = int(round(sc.horizon / h))
    bounds = [int(round(t / h)) for t, _ in sc.segments] + [n_steps]
    changes = [int(round(t / h)) for t in sc.reference.times] + [n_steps]
    x_plant = np.zeros(plant.n)
    x_plant[xs] = sc.x0
    ctrl = None
    times, rows = [], []
    for (_, key), k0, k1 in zip(sc.segments, bounds, bounds[1:]):
        loop = closed_tracking_loop(plant, controllers[key], (ns.sub1.q, ns.sub2.q))
        Phi, Psi = _rk4_step_maps(loop.A, loop.B, h)
        x = np.concatenate([x_plant, np.zeros(loop.n - plant.n) if ctrl is None else ctrl])
        for level, a, b in zip(sc.reference.levels, changes, changes[1:]):
            drift = Psi @ level
            for k in range(max(a, k0), min(b, k1)):
                if k % store == 0:
                    times.append(k * h)
                    rows.append(x[:plant.n])
                x = Phi @ x + drift
        x_plant, ctrl = x[:plant.n], x[plant.n:]
    if n_steps % store == 0:
        times.append(n_steps * h)
        rows.append(x_plant)
    return np.array(times), np.array(rows)


def test_strided_engine_matches_per_step_oracle():
    """Grid compensated tracking loop, attack at 200 s and recovery at
    1000 s, 100 s reference dwell, one stored sample per 100 steps; at
    h = 0.97e-3 every change point falls inside a stride."""
    _, ns, k1, k2, _, _ = grid_network(0)
    comp = synthesize_compensator(ns)
    ka1, ka2 = design_tracking_controllers(ns, r_scale=1e4)
    controllers = {"nominal": (k1.realize(), k2.realize()),
                   "attacked": (ka1.realize(), ka2.realize())}
    horizon = 1100.0
    rng = np.random.default_rng(1)
    r1 = ReferenceSignal.random_levels(rng, horizon, 100.0, ns.sub1.q)
    r2 = ReferenceSignal.random_levels(rng, horizon, 100.0, ns.sub2.q)
    sc = Scenario(segments=((0.0, "nominal"), (200.0, "attacked"), (1000.0, "nominal")),
                  horizon=horizon, x0=np.zeros(ns.n), h=0.97e-3, store_every=100,
                  reference=ReferenceSignal(r1.times, np.hstack([r1.levels, r2.levels])))
    traj, _ = run_scenario(ns, comp, sc, controllers)
    times, rows = per_step_scenario(ns, comp, sc, controllers)
    _, phi, xs = compensated_plant(ns, comp)
    assert not traj.diverged
    assert np.array_equal(traj.times, times)
    for got, want in ((traj.states, rows[:, xs]), (traj.comp_states, rows[:, phi])):
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
