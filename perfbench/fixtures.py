"""Benchmark-owned inputs and output oracles.

Everything here uses numpy/scipy only, never ``netresil``: the inputs must
not change when the package's sampler changes, and the oracles must not
trust the code they check.
"""

from __future__ import annotations

import json
import os

import numpy as np
import scipy.linalg as sla

# (name, n1, n2, channel width node 1, channel width node 2, interconnection
# stable, cascade).  Sizes are fixed so that every seed does the same amount
# of work; the seed only draws the matrix entries.
FIXTURE_LADDER = (
    ("scalar5", 2, 3, 1, 1, True, False),
    ("scalar7", 3, 4, 1, 1, False, False),
    ("scalar9", 4, 5, 1, 1, True, False),
    ("scalar11", 5, 6, 1, 1, False, False),
    ("scalar13", 6, 7, 1, 1, True, False),
    ("cascade6", 3, 3, 1, 1, True, True),
    ("mimo20", 10, 10, 2, 2, True, False),
    ("mimo40", 20, 20, 3, 2, True, False),
    ("mimo60", 30, 30, 3, 3, True, False),
)

# Scalar dense networks closed by the controller sweep (n = 4, 6, 8, 10).
SWEEP_LADDER = ((2, 2), (3, 3), (4, 4), (5, 5))

ABSCISSA_MARGIN = 0.05


def abscissa(A: np.ndarray) -> float:
    return float(np.linalg.eigvals(A).real.max()) if A.size else -np.inf


def random_node(rng: np.random.Generator, n: int, c: int, c_peer: int) -> dict:
    """Hurwitz node (abscissa in [-1, -0.3]) with dense coupling maps."""
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    A -= (abscissa(A) + rng.uniform(0.3, 1.0)) * np.eye(n)
    return {"A": A, "B": rng.standard_normal((n, c)), "C": rng.standard_normal((c, n)),
            "J": rng.standard_normal((n, c_peer)), "S": rng.standard_normal((c, n))}


def network_matrix(s1: dict, s2: dict) -> np.ndarray:
    return np.block([[s1["A"], s1["J"] @ s2["S"]], [s2["J"] @ s1["S"], s2["A"]]])


def random_network(rng, n1, n2, c1, c2, stable=True, cascade=False) -> tuple[dict, dict]:
    """Two nodes whose coupling is rescaled until the interconnection is
    stable (or unstable) with margin ``ABSCISSA_MARGIN``."""
    s1, s2 = random_node(rng, n1, c1, c2), random_node(rng, n2, c2, c1)
    if cascade:
        s1["J"][:] = 0.0                     # nothing flows 2 -> 1
    if not stable and np.trace(s1["S"] @ s1["J"]) * np.trace(s2["S"] @ s2["J"]) < 0:
        # strong coupling adds eigenvalues near +-sqrt((S1 J1)(S2 J2)); make them real
        s2["J"] *= -1.0
    for _ in range(80):
        a = abscissa(network_matrix(s1, s2))
        if (a < -ABSCISSA_MARGIN) if stable else (a > ABSCISSA_MARGIN):
            break
        f = 1 / 1.5 if stable else 1.5
        s1["J"] *= f
        s2["J"] *= f
    else:
        raise RuntimeError("coupling rescale did not reach the requested stability")
    return s1, s2


def network_json(s1: dict, s2: dict) -> dict:
    out = {}
    for key, s in (("sub1", s1), ("sub2", s2)):
        out[key] = {k: v.tolist() for k, v in s.items()}
        out[key]["Dz"] = np.zeros((s["C"].shape[0], s["J"].shape[1])).tolist()
    out["R"] = np.eye(s1["A"].shape[0] + s2["A"].shape[0]).tolist()
    return out


def _pbh_full_rank(A: np.ndarray, B: np.ndarray) -> bool:
    n = A.shape[0]
    for lam in np.linalg.eigvals(A):
        s = np.linalg.svd(np.hstack([lam * np.eye(n) - A, B]), compute_uv=False)
        if s[-1] <= 1e-9 * s[0]:
            return False
    return True


def predicted_exits(scalar: bool, minimal: bool, cascade: bool, stable: bool) -> dict:
    """Exit code of each CLI command, from the README's documented contract."""
    if cascade:
        check = 0
    else:
        check = 2 if (scalar and minimal) else 3
    if not scalar:
        attack = 1          # scalar channels only: one-line error, exit 1
    else:
        attack = 3 if cascade else 0
    return {"check": check, "attack-search": attack, "compensate": 0,
            "norms": 0 if stable else 5, "simulate": 0}


def write_fixtures(seed: int, root: str) -> list[dict]:
    """Write the fixture ladder for ``seed`` under ``root``; return one
    property record per fixture."""
    rng = np.random.default_rng([seed, 1])
    records = []
    for name, n1, n2, c1, c2, stable, cascade in FIXTURE_LADDER:
        s1, s2 = random_network(rng, n1, n2, c1, c2, stable, cascade)
        path = os.path.join(root, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(network_json(s1, s2), fh)
        minimal = all(_pbh_full_rank(s["A"], s["B"]) and _pbh_full_rank(s["A"].T, s["C"].T)
                      for s in (s1, s2))
        scalar = c1 == 1 and c2 == 1
        records.append({
            "name": name, "path": path, "n": n1 + n2, "channels": [c1, c2],
            "scalar": scalar, "cascade": cascade, "minimal": minimal,
            "stable": stable, "abscissa": abscissa(network_matrix(s1, s2)),
            "expected": predicted_exits(scalar, minimal, cascade, stable),
            "nodes": (s1, s2),
        })
    return records


# ---------------------------------------------------------------- oracles

def lqr_gain(A, B) -> np.ndarray:
    """Unit-weight LQR feedback F (u = F x) from scipy's CARE solver."""
    P = sla.solve_continuous_are(A, B, np.eye(A.shape[0]), np.eye(B.shape[1]))
    return -B.T @ P


def observer_controller(node: dict, q: tuple) -> tuple:
    """Observer plus free-parameter controller y -> u, (Ak, Bk, Ck, Dk).

    ``q`` = (Aq, Bq, Cq, Dq) feeds on the output innovation; unit-weight
    LQR state feedback and its dual output injection are the nominal gains.
    """
    A, B, C = node["A"], node["B"], node["C"]
    F = lqr_gain(A, B)
    H = -lqr_gain(A.T, C.T).T
    Aq, Bq, Cq, Dq = q
    nq = Aq.shape[0]
    Ak = np.block([[A + B @ F - H @ C - B @ Dq @ C, B @ Cq],
                   [-Bq @ C, Aq]]) if nq else A + B @ F - H @ C - B @ Dq @ C
    Bk = np.vstack([H + B @ Dq, Bq]) if nq else H + B @ Dq
    Ck = np.hstack([F - Dq @ C, Cq]) if nq else F - Dq @ C
    return Ak, Bk, Ck, Dq


def close_loop(A, B, C, ctrl) -> np.ndarray:
    """State matrix of a strictly proper plant under u = K(y) (positive feedback)."""
    Ak, Bk, Ck, Dk = ctrl
    return np.block([[A + B @ Dk @ C, B @ Ck], [Bk @ C, Ak]])


def allpass(k: float, a: float) -> tuple:
    """k (s^2 - 2as + a^2)/(s^2 + 2as + a^2) in controllable canonical form."""
    return (np.array([[0.0, 1.0], [-a * a, -2.0 * a]]), np.array([[0.0], [1.0]]),
            np.array([[0.0, -4.0 * a * k]]), np.array([[k]]))


def verify_destabilizer(record: dict, report: dict) -> str | None:
    """Re-verify a destabilizer.json by closed-loop eigenvalues.  Node 1
    keeps its nominal controller, node 2 runs k((s-a)/(s+a))^2."""
    s1, s2 = record["nodes"]
    k2 = observer_controller(s2, allpass(float(report["k"]), float(report["a"])))
    local = abscissa(close_loop(s2["A"], s2["B"], s2["C"], k2))
    if not local < -1e-6:
        return f"destabilizer local abscissa {local:.3e} is not < -1e-6"
    zero = (np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), np.zeros((1, 1)))
    k1 = observer_controller(s1, zero)
    ctrl = tuple(sla.block_diag(x, y) for x, y in zip(k1, k2))
    glob = abscissa(close_loop(network_matrix(s1, s2), sla.block_diag(s1["B"], s2["B"]),
                                sla.block_diag(s1["C"], s2["C"]), ctrl))
    if not glob > 1e-6:
        return f"destabilizer global abscissa {glob:.3e} is not > 1e-6"
    return None


def dense_grid_hinf(record: dict) -> float:
    """sigma_max of the interconnection on a dense grid refined at the peak."""
    s1, s2 = record["nodes"]
    A = network_matrix(s1, s2)
    B = sla.block_diag(s1["B"], s2["B"])
    C = sla.block_diag(s1["C"], s2["C"])
    lam, V = np.linalg.eig(A)
    CV, VB = C @ V, np.linalg.solve(V, B)
    poles = np.abs(lam.imag[lam.imag > 0])
    near = (poles[:, None] * (1 + np.linspace(-0.2, 0.2, 81))).ravel()
    grid = np.unique(np.concatenate([[0.0], np.logspace(-4, 4, 4000), near]))

    def sigma(w):
        G = np.einsum("qi,ki,im->kqm", CV, 1.0 / (1j * w[:, None] - lam[None, :]), VB)
        return np.linalg.svd(G, compute_uv=False)[:, 0]

    s = sigma(grid)
    i = int(np.argmax(s))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    n = A.shape[0]
    peak = s[i]
    # in chunks, so that the oracle's memory stays well below the program's
    for chunk in np.array_split(np.linspace(lo, hi, 2001), 20):
        M = 1j * chunk[:, None, None] * np.eye(n) - A
        G = C @ np.linalg.solve(M, np.broadcast_to(B.astype(complex), (chunk.size, n, B.shape[1])))
        peak = max(peak, np.linalg.svd(G, compute_uv=False)[:, 0].max())
    return float(peak)


def random_free_parameter(rng: np.random.Generator, n_out: int, n_in: int,
                          gain: float, order: int = 2) -> tuple:
    """Stable order-2 (Aq, Bq, Cq, Dq) with stability margin in [0.2, 2]."""
    Aq = rng.standard_normal((order, order))
    Aq -= (abscissa(Aq) + rng.uniform(0.2, 2.0)) * np.eye(order)
    return (Aq, rng.standard_normal((order, n_in)),
            gain * rng.standard_normal((n_out, order)),
            gain * rng.standard_normal((n_out, n_in)))

