"""Invariance properties: closed-form facts about the mathematics that hold
in any coordinates, so the oracle shares no code path with the result it
checks (Zhou, Doyle & Glover 1996)."""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from netresil.compensator import default_cut
from netresil.lti import StateSpace
from netresil.network import CascadeVerdict, is_cascade, is_weakly_resilient
from netresil.sampling import random_networked_system, random_stable_statespace
from netresil.synthesis import hinf_norm

from conftest import swap_nodes

TOL = 1e-4
"""hinf_norm's default tolerance: each run is within TOL of the norm, so two
runs on the same system may differ by 2 TOL."""

SWAPPED = {CascadeVerdict.CASCADE_1TO2: CascadeVerdict.CASCADE_2TO1,
           CascadeVerdict.CASCADE_2TO1: CascadeVerdict.CASCADE_1TO2,
           CascadeVerdict.BOTH: CascadeVerdict.BOTH,
           CascadeVerdict.NONE: CascadeVerdict.NONE}


def stable_system(seed: int, n: int, m: int, q: int) -> StateSpace:
    return random_stable_statespace(np.random.default_rng(seed), n, m, q)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 5), data=st.data())
def test_hinf_norm_is_invariant_under_diagonal_similarity(seed, n, data):
    g = stable_system(seed, n, 2, 2)
    u = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    t, t_inv = 10.0 ** u, 10.0 ** -u
    # x -> T x with T = diag(10^u): (T A T^-1, T B, C T^-1, D)
    similar = StateSpace(t[:, None] * g.A * t_inv, t[:, None] * g.B, g.C * t_inv, g.D)
    want = hinf_norm(g).norm
    assert abs(hinf_norm(similar).norm - want) <= 2 * TOL * want


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 5), s=st.sampled_from([1e-3, 1e3]))
def test_hinf_norm_scales_with_the_input_gain(seed, n, s):
    g = stable_system(seed, n, 2, 2)
    scaled = StateSpace(g.A, s * g.B, g.C, s * g.D)
    want = s * hinf_norm(g).norm
    assert abs(hinf_norm(scaled).norm - want) <= 2 * TOL * want


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6), n1=st.integers(1, 4), n2=st.integers(1, 4),
       channels=st.sampled_from([(1, 1), (1, 2), (2, 1)]),
       cut_j1=st.booleans(), cut_j2=st.booleans())
def test_swapping_the_nodes_mirrors_every_structural_decision(seed, n1, n2, channels,
                                                             cut_j1, cut_j2):
    ns = random_networked_system(np.random.default_rng(seed), n1, n2, channels=channels)
    if cut_j1:
        ns = dataclasses.replace(ns, sub1=dataclasses.replace(ns.sub1, J=0 * ns.sub1.J))
    if cut_j2:
        ns = dataclasses.replace(ns, sub2=dataclasses.replace(ns.sub2, J=0 * ns.sub2.J))
    sw = swap_nodes(ns)
    assert is_cascade(sw) is SWAPPED[is_cascade(ns)]
    rep, rep_sw = is_weakly_resilient(ns, certify=False), is_weakly_resilient(sw, certify=False)
    assert (rep_sw.verdict, rep_sw.exact) == (rep.verdict, rep.exact)
    if np.linalg.norm(ns.sub2.J @ ns.sub1.S) == np.linalg.norm(ns.sub1.J @ ns.sub2.S):
        assert default_cut(ns) == default_cut(sw) == "1to2"       # a tie cuts 1to2
    else:
        assert {default_cut(ns), default_cut(sw)} == {"1to2", "2to1"}
