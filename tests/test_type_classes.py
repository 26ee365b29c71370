"""n-fold hypothesis testing through one block per type class: agreement
with the brute-force power_state blocks on random sources, exact type-I
error, and the number of eigendecompositions a rate window makes."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cqsw.hypotest as hypotest
from cqsw import presets
from cqsw.hypotest import _dh_blocks, hypothesis_testing_divergence, rate_window
from cqsw.states import CQState, as_joint_operator, marginal_b, power_state

# blocklengths drawn per (|X|, d): the brute-force oracle eigendecomposes
# |X|^n blocks of size d^n about 130 times, so the larger pairs stop early
_BLOCKLENGTHS = {(2, 2): (1, 2, 3), (2, 3): (1, 2), (3, 2): (1, 2), (3, 3): (1,)}


_KINDS = ("full", "deficient", "commuting", "zero_symbol")


def _source(kind, size_x, dim_b, seed):
    rng = np.random.default_rng(seed)
    if kind == "commuting":
        s = presets.random_commuting_state(rng, size_x, dim_b)
    else:
        s = presets.random_cq_state(rng, size_x, dim_b,
                                    full_rank=kind != "deficient")
    if kind == "zero_symbol":
        probs = s.probs.copy()
        probs[int(rng.integers(size_x))] = 0.0
        s = CQState(s.alphabet, probs / probs.sum(), s.side_info, check=False)
    return s


_sources = st.builds(_source, st.sampled_from(_KINDS), st.sampled_from((2, 3)),
                     st.sampled_from((2, 3)), st.integers(0, 2 ** 32 - 1))
_epsilons = st.floats(0.01, 0.5, exclude_min=True, exclude_max=True)


def _window_bruteforce(s, n, eps, alpha):
    """rate_window over all |X|^n blocks of power_state, one weight each."""
    sn = power_state(s, n)
    rho_b_n = marginal_b(sn).matrix
    blocks = [(1, p * r, rho_b_n) for p, r in sn.blocks()]
    penalty = math.log2(8.0 / ((1.0 - alpha) ** 2 * eps))
    lower = -_dh_blocks(blocks, eps)[0] / n
    upper = (-_dh_blocks(blocks, alpha * eps)[0] + penalty) / n
    return lower, upper


@settings(max_examples=8, deadline=None, derandomize=True)
@given(s=_sources, data=st.data(), eps=_epsilons)
@example(s=_source("zero_symbol", 3, 2, 1), data=None, eps=0.1)
@example(s=_source("deficient", 2, 3, 2), data=None, eps=0.3)
@example(s=_source("commuting", 2, 2, 3), data=None, eps=0.2)
def test_rate_window_matches_power_state_blocks(s, data, eps):
    # the explicit examples take the largest blocklength of their pair
    blocklengths = _BLOCKLENGTHS[(s.size_x, s.dim_b)]
    n = blocklengths[-1] if data is None else data.draw(st.sampled_from(blocklengths))
    lower, upper = rate_window(s, n, eps, 0.5)
    want_lower, want_upper = _window_bruteforce(s, n, eps, 0.5)
    assert lower == pytest.approx(want_lower, abs=1e-10)
    assert upper == pytest.approx(want_upper, abs=1e-10)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(s=_sources, eps=_epsilons)
def test_type1_error_exact_on_random_sources(s, eps):
    joint = as_joint_operator(s)
    ref = np.kron(np.eye(s.size_x), marginal_b(s).matrix)
    value, test = hypothesis_testing_divergence(joint, ref, eps)
    assert test.type1 == pytest.approx(eps, abs=1e-10)
    t1, t2 = test.errors_against(joint, ref)
    assert t1 == pytest.approx(eps, abs=1e-10)
    assert value == pytest.approx(-math.log2(t2), abs=1e-9)


def test_rate_window_work_count(monkeypatch):
    # one block per type class (6 at |X| = 2, n = 5) and each threshold once;
    # the 2^n-block path without a memo made 1824 eigendecompositions here
    eig_calls = []
    thresholds = []
    real_eig = hypotest.eig_hermitian
    real_masses = hypotest._threshold_masses

    def eig(a):
        eig_calls.append(1)
        return real_eig(a)

    def masses(blocks, t):
        thresholds.append(t)
        return real_masses(blocks, t)

    monkeypatch.setattr(hypotest, "eig_hermitian", eig)
    monkeypatch.setattr(hypotest, "_threshold_masses", masses)
    rate_window(presets.doubly_symmetric(0.11), 5, 0.1, 0.5)
    assert len(thresholds) == len(set(thresholds))
    assert len(eig_calls) <= 6 * len(set(thresholds))
    assert len(eig_calls) <= 400


def _threshold_count(monkeypatch, s, n, eps):
    """Threshold evaluations (`_threshold_masses` calls) of one rate window."""
    thresholds = []
    real_masses = hypotest._threshold_masses

    def masses(blocks, t):
        thresholds.append(t)
        return real_masses(blocks, t)

    monkeypatch.setattr(hypotest, "_threshold_masses", masses)
    rate_window(s, n, eps, 0.5)
    monkeypatch.undo()
    return len(thresholds)


# threshold evaluations of the 64-step bisection the root search replaced,
# per doubly_symmetric(0.11) window at eps = 0.05, 0.1, 0.2
_BISECTION_COUNTS = {1: (32, 32, 62), 2: (32, 32, 32), 3: (56, 31, 31), 4: (30, 53, 28)}


def test_threshold_search_work_count(monkeypatch):
    # the mass is smooth between jumps on zero_plus (the bisection made 107
    # evaluations) and a step function on the commuting doubly_symmetric
    # source, where the crossing-estimate steps land on the jumps
    assert _threshold_count(monkeypatch, presets.zero_plus_source(), 3, 0.1) <= 30
    # a fresh state per window: windows on one state share their thresholds
    assert _threshold_count(monkeypatch, presets.doubly_symmetric(0.11), 5, 0.1) <= 20
    for n, counts in _BISECTION_COUNTS.items():
        for eps, bisection in zip((0.05, 0.1, 0.2), counts):
            s = presets.doubly_symmetric(0.11)
            assert _threshold_count(monkeypatch, s, n, eps) <= bisection
