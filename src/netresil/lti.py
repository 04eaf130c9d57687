"""Dense state-space algebra.

Everything downstream is built on one carrier type, :class:`StateSpace`,
holding a continuous-time realization

    x' = A x + B u
    y  = C x + D u

with plain float64 arrays. Pure-gain systems (n = 0) are first class.
All operations return new objects; instances are immutable after
construction and safe to share across threads.

Frequency responses come from one eigendecomposition of A per grid: the
modal resolvent (C V) diag(1 / (jw - lam)) (V^-1 B) + D, broadcast over
every point. Points within the Bauer-Fike radius of a pole are flagged and
solved directly, as is the whole grid when A is defective or nearly so.

Interconnections fill preallocated arrays by slice assignment.
:func:`feedback_interconnect`, the one place a loop is closed, skips the
loop inverse when Dc D11 is exactly zero (the loop matrix is then I); it
never regroups a product, so results match the plain formula bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


# Above this eigenvector condition number the modal resolvent can lose more
# than 1e-10 of the response scale, so every point is solved directly.
_MAX_EIGVEC_COND = 1e6


class DimensionError(ValueError):
    """Matrix dimensions do not line up."""


class AlgebraicLoopError(ValueError):
    """Feedback interconnection has a singular algebraic loop."""


def _as_matrix(M) -> np.ndarray:
    return np.atleast_2d(np.asarray(M, dtype=float))


@dataclass(frozen=True)
class StateSpace:
    """Immutable (A, B, C, D) realization with consistent dimensions."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray | None = None

    def __post_init__(self):
        A = _as_matrix(self.A)
        if A.size == 0:
            A = A.reshape(0, 0)
        if A.shape[0] != A.shape[1]:
            raise DimensionError(f"A must be square, got {A.shape}")
        n = A.shape[0]
        B = _as_matrix(self.B)
        if B.size == 0:
            B = B.reshape(n, B.shape[1] if B.ndim == 2 and n == 0 else 0)
        if B.shape[0] != n:
            raise DimensionError(f"B has {B.shape[0]} rows, expected {n}")
        C = _as_matrix(self.C)
        if C.size == 0:
            C = C.reshape(C.shape[0] if C.ndim == 2 and n == 0 else 0, n)
        if C.shape[1] != n:
            raise DimensionError(f"C has {C.shape[1]} cols, expected {n}")
        q, m = C.shape[0], B.shape[1]
        D = self.D
        if D is None:
            D = np.zeros((q, m))
        else:
            D = _as_matrix(D)
            if D.size == 0:
                D = D.reshape(q, m)
        if D.shape != (q, m):
            raise DimensionError(f"D is {D.shape}, expected {(q, m)}")
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            if M.size and not np.isfinite(M).all():
                raise ValueError(f"{name} contains non-finite entries")
            M.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def q(self) -> int:
        return self.C.shape[0]

    @classmethod
    def from_gain(cls, D) -> "StateSpace":
        """Static system y = D u with no state."""
        D = _as_matrix(D)
        q, m = D.shape
        return cls(np.zeros((0, 0)), np.zeros((0, m)), np.zeros((q, 0)), D)

    def transfer_at(self, s: complex) -> np.ndarray:
        """Evaluate C (sI - A)^-1 B + D at a single complex point."""
        if self.n == 0:
            return self.D.astype(complex)
        M = s * np.eye(self.n) - self.A
        return self.C @ np.linalg.solve(M, self.B) + self.D

    def to_dict(self) -> dict:
        out = {"A": self.A.tolist(), "B": self.B.tolist(), "C": self.C.tolist()}
        if np.any(self.D):
            out["D"] = self.D.tolist()
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "StateSpace":
        return cls(np.array(d["A"], dtype=float).reshape(len(d["A"]), -1) if d["A"] else np.zeros((0, 0)),
                   np.asarray(d["B"], dtype=float),
                   np.asarray(d["C"], dtype=float),
                   np.asarray(d["D"], dtype=float) if "D" in d else None)

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    @classmethod
    def from_json(cls, path) -> "StateSpace":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class FrequencyResponse:
    """Sampled response G(j w) on an increasing frequency grid.

    ``values[k]`` is the complex q x m matrix at ``omegas[k]``;
    ``ill_conditioned[k]`` flags grid points where j omegas[k] lies within
    the Bauer-Fike radius 1e-12 max(1, ||A||_F) cond(V) of an eigenvalue of
    A (V the eigenvector matrix), i.e. points that may sit on a pole; their
    values come from a direct solve (least squares where singular).
    """

    omegas: np.ndarray
    values: np.ndarray
    ill_conditioned: np.ndarray = field(default=None)

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=float)
        if om.ndim != 1 or (om.size > 1 and not np.all(np.diff(om) > 0)):
            raise ValueError("omegas must be a strictly increasing 1-d grid")
        if np.any(om < 0):
            raise ValueError("omegas must be nonnegative")
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape[0] != om.size:
            raise DimensionError("values and omegas lengths differ")
        flags = self.ill_conditioned
        flags = np.zeros(om.size, dtype=bool) if flags is None else np.asarray(flags, dtype=bool)
        om.setflags(write=False)
        vals.setflags(write=False)
        flags.setflags(write=False)
        object.__setattr__(self, "omegas", om)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "ill_conditioned", flags)


def default_grid(lo: float = 1e-3, hi: float = 1e3, points: int = 400) -> np.ndarray:
    """Logarithmic frequency grid with w = 0 prepended."""
    return np.concatenate([[0.0], np.logspace(np.log10(lo), np.log10(hi), points)])


def blockdiag(*systems: StateSpace) -> StateSpace:
    """Stack systems on independent channels: dg(g1, g2, ...)."""
    n = sum(g.n for g in systems)
    m = sum(g.m for g in systems)
    q = sum(g.q for g in systems)
    A, B, C, D = np.zeros((n, n)), np.zeros((n, m)), np.zeros((q, n)), np.zeros((q, m))
    i = j = k = 0                       # state, input and output offsets
    for g in systems:
        A[i:i + g.n, i:i + g.n] = g.A
        B[i:i + g.n, j:j + g.m] = g.B
        C[k:k + g.q, i:i + g.n] = g.C
        D[k:k + g.q, j:j + g.m] = g.D
        i, j, k = i + g.n, j + g.m, k + g.q
    return StateSpace(A, B, C, D)


def feedback_interconnect(plant: StateSpace, controller: StateSpace,
                          input_map: Sequence[int] | None = None,
                          output_map: Sequence[int] | None = None) -> StateSpace:
    """Close ``controller`` between selected plant outputs and inputs.

    ``output_map`` lists the plant outputs fed to the controller and
    ``input_map`` the plant inputs driven by it (positive feedback, no sign
    flip). Remaining channels stay external. Defaults take the first
    controller.m outputs / controller.q inputs. Raises
    :class:`AlgebraicLoopError` when I - D_ctrl D_plant is singular on the
    looped channels.
    """
    if input_map is None:
        input_map = list(range(controller.q))
    if output_map is None:
        output_map = list(range(controller.m))
    input_map = list(input_map)
    output_map = list(output_map)
    if len(input_map) != controller.q:
        raise DimensionError("input_map length must equal controller output count")
    if len(output_map) != controller.m:
        raise DimensionError("output_map length must equal controller input count")
    looped_in, looped_out = set(input_map), set(output_map)
    if any(i < 0 or i >= plant.m for i in input_map) or len(looped_in) != len(input_map):
        raise DimensionError("input_map indices invalid")
    if any(i < 0 or i >= plant.q for i in output_map) or len(looped_out) != len(output_map):
        raise DimensionError("output_map indices invalid")

    ext_in = [i for i in range(plant.m) if i not in looped_in]
    ext_out = [i for i in range(plant.q) if i not in looped_out]

    # Matmul rounding depends on operand memory order, so every operand keeps
    # the order it has always had: B1, B2 column-major (column fancy index),
    # C1, C2 and the D blocks (rows, then columns by take) row-major.
    B1 = plant.B[:, input_map]
    B2 = plant.B[:, ext_in]
    C1 = plant.C[output_map, :]
    C2 = plant.C[ext_out, :]
    D_loop, D_ext = plant.D.take(output_map, axis=0), plant.D.take(ext_out, axis=0)
    D11, D12 = D_loop.take(input_map, axis=1), D_loop.take(ext_in, axis=1)
    D21, D22 = D_ext.take(input_map, axis=1), D_ext.take(ext_in, axis=1)
    Ac, Bc, Cc, Dc = controller.A, controller.B, controller.C, controller.D

    # u1 = M (Cc xi + Dc C1 x + Dc D12 u2),  M = (I - Dc D11)^-1.  Every
    # product is evaluated left to right as (X M) Dc Y, so regrouping one
    # would move the last bits of the result.
    DcD11 = Dc @ D11
    if DcD11.any():
        loop = np.eye(len(input_map)) - DcD11
        if np.linalg.matrix_rank(loop, tol=1e-12 * max(1.0, np.linalg.norm(loop))) < loop.shape[0]:
            raise AlgebraicLoopError("loop is ill-posed: I - D_ctrl D_plant singular")
        Mi = np.linalg.inv(loop)
        B1M, D11M, D21M, BcD11M = B1 @ Mi, D11 @ Mi, D21 @ Mi, Bc @ D11 @ Mi
    else:
        # Dc D11 = 0 exactly: the loop matrix is I, so M = I and X M = X,
        # held row-major as the product would be
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


def eval_frequency(g: StateSpace, omegas) -> FrequencyResponse:
    """Evaluate C (jwI - A)^-1 B + D on a grid through the modal form of A.

    One eigendecomposition A = V diag(lam) V^-1 serves the whole grid:
    G(jw) = (C V) diag(1 / (jw - lam)) (V^-1 B) + D, one broadcast over
    every point. A point is flagged when jw lies within the Bauer-Fike
    radius 1e-12 max(1, ||A||_F) cond(V) of an eigenvalue of A, and is
    then solved directly (least squares where jwI - A is singular). Every
    point is solved directly when cond(V) is not finite or exceeds
    ``_MAX_EIGVEC_COND`` (defective or nearly defective A); the radius then
    uses that bound.

    Conjugate symmetry G(-jw) = conj(G(jw)) holds because the realization
    is real; only nonnegative frequencies are evaluated.
    """
    omegas = np.asarray(omegas, dtype=float)
    k = omegas.size
    if g.n == 0:
        vals = np.broadcast_to(g.D.astype(complex), (k, g.q, g.m)).copy()
        return FrequencyResponse(omegas, vals, np.zeros(k, dtype=bool))
    s = 1j * omegas
    lam, V = np.linalg.eig(g.A)
    with np.errstate(all="ignore"):
        cond_v = float(np.linalg.cond(V))
    modal = np.isfinite(cond_v) and cond_v <= _MAX_EIGVEC_COND
    radius = 1e-12 * max(1.0, np.linalg.norm(g.A)) * (cond_v if modal else _MAX_EIGVEC_COND)
    gap = s[:, None] - lam
    flags = np.abs(gap).min(axis=1) <= radius
    if modal:
        gap[flags] = 1.0            # replaced by the direct solve below
        r = 1.0 / gap
        CV = g.C @ V
        W = np.linalg.solve(V, g.B)
        # scale the narrower factor: the (k, n, min(q, m)) intermediate
        if g.m <= g.q:
            vals = CV @ (r[:, :, None] * W)
        else:
            vals = (CV * r[:, None, :]) @ W
        vals += g.D
        direct = np.flatnonzero(flags)
    else:
        vals = np.empty((k, g.q, g.m), dtype=complex)
        direct = range(k)
    eye = np.eye(g.n)
    for i in direct:
        M = s[i] * eye - g.A
        try:
            X = np.linalg.solve(M, g.B)
        except np.linalg.LinAlgError:
            X = np.linalg.lstsq(M, g.B.astype(complex), rcond=None)[0]
            flags[i] = True
        vals[i] = g.C @ X + g.D
    return FrequencyResponse(omegas, vals, flags)


def spectral_abscissa(A) -> float:
    """Largest real part of the eigenvalues; -inf for an empty matrix."""
    A = _as_matrix(A)
    if A.shape == (1, 0) or A.size == 0:
        return -np.inf
    return float(np.linalg.eigvals(A).real.max())


def is_hurwitz(A, margin: float = 1e-9) -> tuple[bool, float]:
    """True iff every eigenvalue satisfies Re(lambda) < -margin.

    Returns (verdict, spectral abscissa). The default margin guards
    against eigensolver round-off on marginal cases.
    """
    a = spectral_abscissa(A)
    return bool(a < -margin), a


def controllability_matrix(A, B) -> np.ndarray:
    """Krylov matrix [B, AB, ..., A^(n-1) B], each power block scaled by
    ||A||_2^k.

    The scaling leaves the column span (hence the rank) unchanged but keeps
    the blocks comparable when A has large entries; the raw matrix spans
    ~||A||^n orders of magnitude and defeats numerical rank tests for n
    beyond ~10.
    """
    A = _as_matrix(A)
    B = _as_matrix(B)
    n = A.shape[0]
    scale = max(1.0, float(np.linalg.norm(A, 2))) if n else 1.0
    blocks = [B]
    for _ in range(n - 1):
        blocks.append((A @ blocks[-1]) / scale)
    return np.hstack(blocks) if blocks else np.zeros((n, 0))


def _rank(M: np.ndarray) -> int:
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > 1e-8 * s[0])) if s[0] > 0 else 0


def _hautus_controllable(A: np.ndarray, B: np.ndarray) -> bool:
    n = A.shape[0]
    eye = np.eye(n)
    for lam in np.linalg.eigvals(A):
        M = np.hstack([lam * eye - A, B.astype(complex)])
        if _rank(M) < n:
            return False
    return True


def is_controllable(A, B) -> bool:
    """Krylov rank test with SVD tolerance 1e-8 * sigma_max.

    A rank-deficient Krylov verdict is confirmed eigenvalue-wise
    (rank [lambda I - A, B] = n) before declaring uncontrollability: the
    Krylov matrix loses numerical rank for moderate state dimensions even
    after block normalization, while the eigenvalue test stays
    well conditioned.
    """
    A = _as_matrix(A)
    B = _as_matrix(B)
    if A.shape[0] == 0:
        return True
    if _rank(controllability_matrix(A, B)) == A.shape[0]:
        return True
    return _hautus_controllable(A, B)


def is_observable(A, C) -> bool:
    A = _as_matrix(A)
    C = _as_matrix(C)
    return is_controllable(A.T, C.T)
