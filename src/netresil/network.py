"""Two-subsystem networked model, cascade test and resilience verdict.

A :class:`Subsystem` couples to its peer through an interaction output
z_i = S_i x_i that enters the peer's state (gain J) and measured output
(gain Dz). :func:`interconnect` assembles the closed network; the cascade
structure of the couplings decides whether every pair of locally
stabilizing controllers keeps the network stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .lti import DimensionError, StateSpace, frozen_array, is_controllable, is_observable


@dataclass(frozen=True)
class Subsystem:
    """One node: x' = A x + J z_peer + B u,  z = S x,  y = C x + Dz z_peer."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    J: np.ndarray
    S: np.ndarray
    Dz: np.ndarray | None = None

    def __post_init__(self):
        for f in ("A", "B", "C", "J", "S"):
            object.__setattr__(self, f, frozen_array(getattr(self, f), f"subsystem {f}"))
        A, B, C, J, S = self.A, self.B, self.C, self.J, self.S
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionError("A must be square")
        if B.shape[0] != n or J.shape[0] != n:
            raise DimensionError("B and J must have n rows")
        if C.shape[1] != n or S.shape[1] != n:
            raise DimensionError("C and S must have n columns")
        shape = (C.shape[0], J.shape[1])
        Dz = frozen_array(np.zeros(shape) if self.Dz is None else self.Dz, "subsystem Dz")
        if Dz.size == 0:
            Dz = Dz.reshape(shape)
        if Dz.shape != shape:
            raise DimensionError("Dz must be q x p_peer (rows of C by cols of J)")
        object.__setattr__(self, "Dz", Dz)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def q(self) -> int:
        return self.C.shape[0]

    @property
    def p(self) -> int:
        """Interaction output dimension (rows of S)."""
        return self.S.shape[0]

    @property
    def p_peer(self) -> int:
        """Interaction input dimension (cols of J), set by the peer."""
        return self.J.shape[1]

    @cached_property
    def controllable(self) -> bool:
        return is_controllable(self.A, self.B)

    @cached_property
    def observable(self) -> bool:
        return is_observable(self.A, self.C)

    @property
    def siso(self) -> bool:
        return self.m == 1 and self.q == 1 and self.p == 1 and self.p_peer == 1

    def decoupled(self) -> StateSpace:
        """The node with interconnections removed: (A, B, C)."""
        return StateSpace(self.A, self.B, self.C, None)

    def to_dict(self) -> dict:
        return {"A": self.A.tolist(), "B": self.B.tolist(), "C": self.C.tolist(),
                "J": self.J.tolist(), "S": self.S.tolist(), "Dz": self.Dz.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Subsystem":
        return cls(d["A"], d["B"], d["C"], d["J"], d["S"], d["Dz"] if "Dz" in d else None)


@dataclass(frozen=True)
class NetworkedSystem:
    """Two coupled subsystems plus the supervisory input gain R (x' += R v)."""

    sub1: Subsystem
    sub2: Subsystem
    R: np.ndarray | None = None

    def __post_init__(self):
        s1, s2 = self.sub1, self.sub2
        if s1.p_peer != s2.p:
            raise DimensionError(f"cols(J1)={s1.p_peer} must equal rows(S2)={s2.p}")
        if s2.p_peer != s1.p:
            raise DimensionError(f"cols(J2)={s2.p_peer} must equal rows(S1)={s1.p}")
        n = s1.n + s2.n
        R = frozen_array(np.eye(n) if self.R is None else self.R, "R")
        if R.shape[0] != n:
            raise DimensionError(f"R must have {n} rows")
        object.__setattr__(self, "R", R)

    @property
    def n(self) -> int:
        return self.sub1.n + self.sub2.n

    @property
    def m(self) -> int:
        return self.sub1.m + self.sub2.m

    @property
    def q(self) -> int:
        return self.sub1.q + self.sub2.q

    @property
    def p_total(self) -> int:
        return self.sub1.p + self.sub2.p

    def interaction_map(self) -> np.ndarray:
        """dg(S_i): full interaction output z = [z1; z2] = dg(S) x."""
        return sla.block_diag(self.sub1.S, self.sub2.S)

    def output_map(self) -> np.ndarray:
        """dg(C_i) (the direct part of C, exact when Dz = 0)."""
        return sla.block_diag(self.sub1.C, self.sub2.C)

    def to_dict(self) -> dict:
        return {"sub1": self.sub1.to_dict(), "sub2": self.sub2.to_dict(),
                "R": self.R.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkedSystem":
        return cls(Subsystem.from_dict(d["sub1"]), Subsystem.from_dict(d["sub2"]),
                   d["R"] if "R" in d else None)

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)


def interconnect(ns: NetworkedSystem) -> StateSpace:
    """Closed network over (u -> y):

        A = [[A1, J1 S2], [J2 S1, A2]],  B = dg(B1, B2),
        C = [[C1, Dz1 S2], [Dz2 S1, C2]].
    """
    s1, s2 = ns.sub1, ns.sub2
    A = np.block([[s1.A, s1.J @ s2.S], [s2.J @ s1.S, s2.A]])
    B = sla.block_diag(s1.B, s2.B)
    C = np.block([[s1.C, s1.Dz @ s2.S], [s2.Dz @ s1.S, s2.C]])
    return StateSpace(A, B.reshape(ns.n, ns.m), C, None)


class CascadeVerdict(Enum):
    """Which direction of influence remains in the coupling structure."""

    CASCADE_1TO2 = "cascade_1to2"   # J1 S2 = 0 and Dz1 S2 = 0: nothing flows 2 -> 1
    CASCADE_2TO1 = "cascade_2to1"   # J2 S1 = 0 and Dz2 S1 = 0: nothing flows 1 -> 2
    BOTH = "both"                   # decoupled
    NONE = "none"

    @property
    def is_cascade(self) -> bool:
        return self is not CascadeVerdict.NONE


def _vanishes(X: np.ndarray, Y: np.ndarray) -> bool:
    tol = 1e-10 * (1.0 + np.linalg.norm(X) * np.linalg.norm(Y))
    return float(np.linalg.norm(X @ Y)) <= tol


def is_cascade(ns: NetworkedSystem) -> CascadeVerdict:
    """Structural cascade test on the coupling products J_i S_j, Dz_i S_j.

    The tolerance 1e-10 (1 + ||J|| ||S||) keeps exact structural
    zeros through floating point while catching near-zeros from data entry.
    """
    s1, s2 = ns.sub1, ns.sub2
    cut_2to1 = _vanishes(s1.J, s2.S) and _vanishes(s1.Dz, s2.S)
    cut_1to2 = _vanishes(s2.J, s1.S) and _vanishes(s2.Dz, s1.S)
    if cut_2to1 and cut_1to2:
        return CascadeVerdict.BOTH
    if cut_2to1:
        return CascadeVerdict.CASCADE_1TO2
    if cut_1to2:
        return CascadeVerdict.CASCADE_2TO1
    return CascadeVerdict.NONE


@dataclass(frozen=True)
class ResilienceReport:
    """Outcome of the resilience decision.

    ``verdict`` is one of ``resilient`` / ``not_resilient`` / ``unknown``.
    ``exact`` records whether the necessary-and-sufficient characterization
    applied (scalar channels and minimal realizations); otherwise only the
    sufficient direction (cascade implies resilient) was available.
    ``certificate`` carries a verified destabilizing controller when one
    was found for a non-resilient network.
    """

    verdict: str
    cascade: CascadeVerdict
    exact: bool
    notes: tuple[str, ...] = ()
    certificate: object | None = None


def is_weakly_resilient(ns: NetworkedSystem, certify: bool = True) -> ResilienceReport:
    """Decide whether every pair of locally stabilizing controllers keeps
    the interconnection stable.

    For scalar interaction/control channels with controllable and
    observable nodes the cascade property is equivalent to resilience, so
    the verdict is exact. Outside that hypothesis set a cascade still
    certifies resilience, but a dense coupling yields ``unknown``. For an
    exact non-resilient verdict a destabilizing controller is searched for
    when ``certify`` is set; a failed search leaves the verdict intact
    (the characterization is structural) and is reported as inconclusive.
    """
    verdict = is_cascade(ns)
    notes = []
    siso = ns.sub1.siso and ns.sub2.siso
    minimal = (ns.sub1.controllable and ns.sub1.observable
               and ns.sub2.controllable and ns.sub2.observable)
    if not siso:
        notes.append("non-scalar channels: only the sufficient direction applies")
    if not minimal:
        notes.append("non-minimal node realization: only the sufficient direction applies")
    exact = siso and minimal

    if verdict.is_cascade:
        return ResilienceReport("resilient", verdict, exact, tuple(notes))
    if not exact:
        notes.append("dense coupling outside the exact characterization: inconclusive")
        return ResilienceReport("unknown", verdict, exact, tuple(notes))

    certificate = None
    if certify:
        from .youla import destabilizer_search

        result = destabilizer_search(ns)
        if result.found:
            certificate = result
        else:
            notes.append("destabilizer search inconclusive: verdict rests on the "
                         "structural characterization; no certificate produced")
    return ResilienceReport("not_resilient", verdict, exact, tuple(notes), certificate)


def close_local_controllers(plant: StateSpace, k1: StateSpace,
                            k2: StateSpace) -> StateSpace:
    """Close channel-wise controllers (u1 = k1(y1), u2 = k2(y2)) on a plant
    whose inputs/outputs stack the two channel groups."""
    from .lti import blockdiag, feedback_interconnect

    K = blockdiag(k1, k2)
    if K.q != plant.m or K.m != plant.q:
        raise DimensionError("controller channel dimensions do not match the plant")
    return feedback_interconnect(plant, K)
