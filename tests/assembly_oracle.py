"""Controller and loop assembly by stacking blocks, as the library did before
it filled preallocated arrays; only tests build systems this way.

Every function keeps the library's operand selection, memory order and
product association, so its results must match the library bit for bit.
"""

import numpy as np

from netresil.lti import AlgebraicLoopError, DimensionError, StateSpace, blockdiag, spectral_abscissa


def observer_controller(A, B, C, F, H, Q: StateSpace) -> StateSpace:
    """Observer-based controller y -> u around the free parameter Q."""
    Aq, Bq, Cq, Dq = Q.A, Q.B, Q.C, Q.D
    Ak = np.block([
        [A + B @ F - H @ C - B @ Dq @ C, B @ Cq],
        [-Bq @ C, Aq],
    ])
    Bk = np.vstack([H + B @ Dq, Bq])
    Ck = np.hstack([F - Dq @ C, Cq])
    return StateSpace(Ak, Bk, Ck, Dq)


def feedback_interconnect(plant: StateSpace, controller: StateSpace,
                          input_map=None, output_map=None) -> StateSpace:
    """Close ``controller`` between selected plant outputs and inputs."""
    if input_map is None:
        input_map = list(range(controller.q))
    if output_map is None:
        output_map = list(range(controller.m))
    input_map = list(input_map)
    output_map = list(output_map)
    if len(input_map) != controller.q or len(output_map) != controller.m:
        raise DimensionError("map length must equal the controller's channel count")
    looped_in, looped_out = set(input_map), set(output_map)
    if any(i < 0 or i >= plant.m for i in input_map) or len(looped_in) != len(input_map):
        raise DimensionError("input_map indices invalid")
    if any(i < 0 or i >= plant.q for i in output_map) or len(looped_out) != len(output_map):
        raise DimensionError("output_map indices invalid")
    ext_in = [i for i in range(plant.m) if i not in looped_in]
    ext_out = [i for i in range(plant.q) if i not in looped_out]

    B1 = plant.B[:, input_map]
    B2 = plant.B[:, ext_in]
    C1 = plant.C[output_map, :]
    C2 = plant.C[ext_out, :]
    D_loop, D_ext = plant.D.take(output_map, axis=0), plant.D.take(ext_out, axis=0)
    D11, D12 = D_loop.take(input_map, axis=1), D_loop.take(ext_in, axis=1)
    D21, D22 = D_ext.take(input_map, axis=1), D_ext.take(ext_in, axis=1)
    Ac, Bc, Cc, Dc = controller.A, controller.B, controller.C, controller.D

    DcD11 = Dc @ D11
    if DcD11.any():
        loop = np.eye(len(input_map)) - DcD11
        if np.linalg.matrix_rank(loop, tol=1e-12 * max(1.0, np.linalg.norm(loop))) < loop.shape[0]:
            raise AlgebraicLoopError("loop is ill-posed: I - D_ctrl D_plant singular")
        Mi = np.linalg.inv(loop)
        B1M, D11M, D21M, BcD11M = B1 @ Mi, D11 @ Mi, D21 @ Mi, Bc @ D11 @ Mi
    else:
        B1M, D11M, D21M, BcD11M = B1.copy(), D11, D21, Bc @ D11
    B1MDc, D11MDc, D21MDc = B1M @ Dc, D11M @ Dc, D21M @ Dc

    n, nc = plant.n, controller.n
    A = np.zeros((n + nc, n + nc))
    A[:n, :n] = plant.A + B1MDc @ C1
    A[:n, n:] = B1M @ Cc
    A[n:, :n] = Bc @ (C1 + D11MDc @ C1)
    A[n:, n:] = Ac + BcD11M @ Cc
    B = np.vstack([B2 + B1MDc @ D12, Bc @ (D12 + D11MDc @ D12)])
    C = np.hstack([C2 + D21MDc @ C1, D21M @ Cc])
    D = D22 + D21MDc @ D12
    return StateSpace(A, B, C, D)


def closed_tracking_loop(plant: StateSpace, controllers, q_dims) -> StateSpace:
    """Per-channel tracking controllers u_i = kappa_i(y_i, y_i^d) closed on a
    strictly proper plant; outputs (y, u), input y^d."""
    n, m, q = plant.n, plant.m, plant.q
    B = np.hstack([plant.B, np.zeros((n, q))])
    C = np.vstack([plant.C, np.zeros((m, n)), plant.C, np.zeros((q, n))])
    D = np.zeros((3 * q + m, m + q))
    D[q:q + m, :m] = np.eye(m)
    D[2 * q + m:, m:] = np.eye(q)
    looped, start = [], q + m
    for qi in q_dims:
        looped += list(range(start, start + qi)) + list(range(start + q, start + q + qi))
        start += qi
    return feedback_interconnect(StateSpace(plant.A, B, C, D), blockdiag(*controllers),
                                 input_map=range(m), output_map=looped)


def tracking_realize(tc, q_param: StateSpace | None = None) -> StateSpace:
    """``TrackingController.realize`` with every fixed part rebuilt per call."""
    A, B, C = tc.A, tc.B, tc.C
    n, m, qd = A.shape[0], B.shape[1], C.shape[0]
    if q_param is None:
        q_param = StateSpace.from_gain(np.zeros((m, qd)))
    A_aug = np.block([[A, np.zeros((n, qd))], [C, np.zeros((qd, qd))]])
    B_aug = np.vstack([B, np.zeros((qd, m))])
    C_aug = np.hstack([C, np.zeros((qd, qd))])
    k = observer_controller(A_aug, B_aug, C_aug, -np.hstack([tc.Kx, tc.Ke]),
                            np.vstack([tc.L, np.eye(qd)]), q_param)
    Bd = np.vstack([np.zeros((n, qd)), -np.eye(qd), np.zeros((q_param.n, qd))])
    return StateSpace(k.A, np.hstack([k.B, Bd]), k.C, np.hstack([k.D, np.zeros((m, qd))]))


def tracking_local_abscissa(tc, q_param: StateSpace | None = None) -> float:
    loop = closed_tracking_loop(StateSpace(tc.A, tc.B, tc.C, None),
                                [tracking_realize(tc, q_param)], [tc.C.shape[0]])
    return spectral_abscissa(loop.A)


def find_destabilizing_attack(ns, k1, k2, seed: int = 0, max_trials: int = 200):
    """The attack search realizing each trial's controllers twice, once for
    the local check and once for the network: (trial, gain, local
    abscissae, global abscissa, controllers), or None."""
    from netresil.network import interconnect
    from netresil.sampling import random_stable_statespace

    plant = interconnect(ns)
    rng = np.random.default_rng(seed)
    q_dims = (ns.sub1.q, ns.sub2.q)
    for trial in range(max_trials):
        gain = 10.0 ** rng.uniform(0.0, 2.5)
        qp1 = random_stable_statespace(rng, 2, m=ns.sub1.q, q=ns.sub1.m, gain=gain,
                                       min_margin=0.2)
        qp2 = random_stable_statespace(rng, 2, m=ns.sub2.q, q=ns.sub2.m, gain=gain,
                                       min_margin=0.2)
        loc1 = tracking_local_abscissa(k1, qp1)
        loc2 = tracking_local_abscissa(k2, qp2)
        if loc1 >= -1e-6 or loc2 >= -1e-6:
            continue
        c1 = tracking_realize(k1, qp1)
        c2 = tracking_realize(k2, qp2)
        glob = spectral_abscissa(closed_tracking_loop(plant, [c1, c2], q_dims).A)
        if glob > 1e-6:
            return trial, gain, (loc1, loc2), glob, (c1, c2)
    return None
