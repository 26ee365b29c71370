"""Neyman-Pearson testing: exactness identities, classical randomized
threshold oracle, duality, data processing, and the rate window."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

import cqsw.hypotest as hypotest
from cqsw import presets
from cqsw.conditional import conditional_entropy
from cqsw.errors import (
    CapExceededError,
    InvalidEpsilonError,
    InvalidMuError,
    NonHermitianError,
    WTooLargeError,
)
from cqsw.hypotest import (
    TestOperator,
    hat_alpha,
    hypothesis_testing_divergence,
    one_shot_converse,
    rate_window,
)
from cqsw.operators import pinch, random_density, random_hermitian

RNG = np.random.default_rng(99)


def _classical_np_type2(p, q, eps):
    """Randomized likelihood-ratio threshold test on distributions."""
    order = np.argsort(-p / q)
    acc_p, t2 = 0.0, 0.0
    for i in order:
        if acc_p + p[i] >= 1 - eps:
            return t2 + (1 - eps - acc_p) / p[i] * q[i]
        acc_p += p[i]
        t2 += q[i]
    return t2


def test_self_testing_identity():
    rho = random_density(RNG, 3)
    for eps in (0.0, 0.2, 0.6, 0.95):
        v, t = hypothesis_testing_divergence(rho, rho, eps)
        assert v == pytest.approx(-math.log2(1 - eps), abs=1e-10)
        assert t.type1 == pytest.approx(eps, abs=1e-10)


def test_classical_oracle_agreement():
    p = RNG.dirichlet([2, 2, 2, 2])
    q = RNG.dirichlet([1, 1, 1, 1])
    for eps in (0.05, 0.3, 0.7):
        v, t = hypothesis_testing_divergence(np.diag(p), np.diag(q), eps)
        ref = -math.log2(_classical_np_type2(p, q, eps))
        assert v == pytest.approx(ref, abs=1e-10)
        assert t.type1 == pytest.approx(eps, abs=1e-10)


def test_recorded_errors_recompute():
    rho = random_density(RNG, 3)
    sig = random_density(RNG, 3)
    v, t = hypothesis_testing_divergence(rho, sig, 0.15)
    t1, t2 = t.errors_against(rho, sig)
    assert t1 == pytest.approx(t.type1, abs=1e-10)
    assert t2 == pytest.approx(t.type2, abs=1e-10)
    assert v == pytest.approx(-math.log2(t2), abs=1e-10)


def test_pure_state_eps_zero():
    psi = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
    psi /= np.linalg.norm(psi)
    sig = random_density(RNG, 3)
    v, _ = hypothesis_testing_divergence(np.outer(psi, psi.conj()), sig, 0.0)
    assert v == pytest.approx(-math.log2(np.real(psi.conj() @ sig @ psi)),
                              abs=1e-8)


def test_epsilon_monotonicity():
    rho = random_density(RNG, 3)
    sig = random_density(RNG, 3)
    prev = -math.inf
    for eps in np.linspace(0.0, 0.9, 12):
        v, _ = hypothesis_testing_divergence(rho, sig, float(eps))
        assert v >= prev - 1e-10
        prev = v


def test_feasible_tests_never_beat_optimum():
    rho = random_density(RNG, 3)
    sig = random_density(RNG, 3)
    eps = 0.2
    _, t = hypothesis_testing_divergence(rho, sig, eps)
    for _ in range(200):
        h = random_hermitian(RNG, 3)
        w = np.linalg.eigvalsh(h)
        q = (h - w[0] * np.eye(3)) / (w[-1] - w[0])
        if 1 - np.real(np.trace(q @ rho)) <= eps:
            assert np.real(np.trace(q @ sig)) >= t.type2 - 1e-9


def test_data_processing_pinching():
    rho = random_density(RNG, 3)
    sig = random_density(RNG, 3)
    x = random_density(RNG, 3)
    pr, ps = pinch(rho, x), pinch(sig, x)
    v, _ = hypothesis_testing_divergence(rho, sig, 0.25)
    vp, _ = hypothesis_testing_divergence(pr, ps, 0.25)
    assert v >= vp - 1e-9
    assert hat_alpha(rho, sig, 0.3) <= hat_alpha(pr, ps, 0.3) + 1e-9


def test_invalid_epsilon_and_mu():
    rho = random_density(RNG, 2)
    with pytest.raises(InvalidEpsilonError):
        hypothesis_testing_divergence(rho, rho, 1.0)
    with pytest.raises(InvalidEpsilonError):
        hypothesis_testing_divergence(rho, rho, -0.1)
    with pytest.raises(InvalidMuError):
        hat_alpha(rho, rho, 0.0)
    with pytest.raises(InvalidMuError):
        hat_alpha(rho, rho, 1.5)


@pytest.mark.parametrize("which", ["rho", "sigma"])
def test_non_hermitian_operators_raise(which):
    good = random_density(np.random.default_rng(5), 2)
    bad = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    pair = (bad, good) if which == "rho" else (good, bad)
    with pytest.raises(NonHermitianError):
        hypothesis_testing_divergence(*pair, 0.1)
    with pytest.raises(NonHermitianError):
        hat_alpha(*pair, 0.5)
    if which == "sigma":
        with pytest.raises(NonHermitianError):
            one_shot_converse(presets.no_side_info(), 1, bad)


def test_hat_alpha_identities():
    rho = random_density(RNG, 3)
    sig = random_density(RNG, 3)
    for mu in (0.1, 0.5, 0.9):
        assert hat_alpha(rho, rho, mu) == pytest.approx(1 - mu, abs=1e-10)
        v, _ = hypothesis_testing_divergence(sig, rho, mu)
        assert hat_alpha(rho, sig, mu) == pytest.approx(2.0 ** -v, abs=1e-9)
    assert hat_alpha(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 0.5) == 0.0


def test_test_operator_validation():
    from cqsw.errors import InvariantViolation
    with pytest.raises(InvariantViolation):
        TestOperator(np.diag([1.5, 0.0]), 0.0, 0.0)


def test_user_built_test_checks_its_own_spectrum(eig_count):
    # only the optimal test of hypothesis_testing_divergence is checked from
    # known weights; a caller cannot hand the constructor eigenvalues, so a
    # wrong list cannot stand in for the spectrum of Q
    from cqsw.errors import InvariantViolation
    with pytest.raises(TypeError):
        TestOperator(np.diag([1.5, 0.0]), 0.0, 0.0, [0.5, 0.0])
    eig_count.clear()
    with pytest.raises(InvariantViolation):
        TestOperator(np.diag([1.5, 0.0]), 0.0, 0.0)
    assert len(eig_count) == 1
    TestOperator(np.diag([0.5, 0.0]), 0.0, 0.0)
    assert len(eig_count) == 2


@pytest.mark.parametrize("d", [2, 3, 4])
def test_optimal_test_costs_no_eigendecomposition_after_the_search(eig_count, monkeypatch, d):
    # the test is assembled from the split of rho - t sigma at the final
    # threshold, which the search evaluated last, and checked in [0, 1]
    # from its known eigenvalues 0, c and 1
    thresholds = []
    real = hypotest._threshold_masses

    def masses(*args):
        thresholds.append(args[1])
        return real(*args)

    monkeypatch.setattr(hypotest, "_threshold_masses", masses)
    rng = np.random.default_rng(d)
    rho, sig = random_density(rng, d), random_density(rng, d)
    eig_count.clear()
    value, test = hypothesis_testing_divergence(rho, sig, 0.1)
    assert len(eig_count) == len(thresholds) == len(set(thresholds))
    assert test.type1 == pytest.approx(0.1, abs=1e-10)
    assert test.errors_against(rho, sig)[1] == pytest.approx(2.0 ** -value, rel=1e-9)
    w = np.linalg.eigvalsh(test.q)
    assert w[0] >= -1e-10 and w[-1] <= 1.0 + 1e-10


def test_one_shot_converse():
    s = presets.perfect_side_info()
    assert math.isinf(one_shot_converse(s, 1, np.eye(2) / 2))
    s2 = presets.no_side_info()
    # the bound must dominate -log2 of the brute-force optimum, 1 - 1/2
    assert one_shot_converse(s2, 1, np.eye(2) / 2) >= 1.0 - 1e-9
    with pytest.raises(WTooLargeError):
        one_shot_converse(s2, 2, np.eye(2) / 2)
    with pytest.raises(WTooLargeError):
        one_shot_converse(s2, 0, np.eye(2) / 2)


def test_rate_window_basic():
    s = presets.perfect_side_info()
    lo, up = rate_window(s, 1, 0.1, 0.5)
    assert lo <= 0.0 <= up
    s2 = presets.doubly_symmetric(0.11)
    h = conditional_entropy(s2)
    prev_width = math.inf
    for n in (1, 2, 4):
        lo, up = rate_window(s2, n, 0.1, 0.5)
        assert lo <= up
        width = up - lo
        assert width <= prev_width + 1e-9
        prev_width = width
    with pytest.raises(CapExceededError):
        rate_window(s2, 8, 0.1, 0.5, cap=100)


def test_rate_window_classical_oracle():
    # classical source: the same formula on scalar distributions
    s = presets.doubly_symmetric(0.2)
    n, eps, alpha = 2, 0.15, 0.5
    lo, up = rate_window(s, n, eps, alpha)
    # joint distribution of (x, b) and product reference 1 x p_b
    px = np.array(s.probs)
    blocks = [np.diag(r.matrix).real * p for p, r in
              zip(px, (m for m in s.side_info))]
    pj = np.concatenate(blocks)
    pb = sum(blocks)
    qj = np.concatenate([pb for _ in px])
    pjn = np.kron(pj, pj)
    qjn = np.kron(qj, qj)
    def cdh(p, q, eps):
        order = np.argsort(-p / q)
        acc, t2 = 0.0, 0.0
        for i in order:
            if acc + p[i] >= 1 - eps:
                return -math.log2(t2 + (1 - eps - acc) / p[i] * q[i])
            acc += p[i]
            t2 += q[i]
        return -math.log2(t2)
    lo_ref = -cdh(pjn, qjn, eps) / n
    up_ref = -cdh(pjn, qjn, alpha * eps) / n + \
        math.log2(8.0 / ((1 - alpha) ** 2 * eps)) / n
    assert lo == pytest.approx(lo_ref, abs=1e-9)
    assert up == pytest.approx(up_ref, abs=1e-9)


def _d0(rho, sig):
    """D_0(rho || sigma) = -log2 Tr[Pi_rho sigma] from numpy's eigh."""
    w, v = np.linalg.eigh(rho)
    supp = v[:, w > 1e-12]
    return -math.log2(np.real(np.trace(supp.conj().T @ sig @ supp)))


def test_eps_zero_is_d0_on_rank_deficient_rho():
    # the optimal threshold is t = 0; a search that stops at a small t > 0
    # inside the 1e-12 slack is 6.2e-10 off on this pair
    rng = np.random.default_rng(1)
    random_density(rng, 3)
    random_density(rng, 3, 2)
    rho, sig = random_density(rng, 3, 1), random_density(rng, 3)
    v, t = hypothesis_testing_divergence(rho, sig, 0.0)
    assert v == pytest.approx(_d0(rho, sig), abs=1e-12)
    assert t.type1 == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(2)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        rho = random_density(rng, d, int(rng.integers(1, d)))
        sig = random_density(rng, d)
        v, _ = hypothesis_testing_divergence(rho, sig, 0.0)
        assert v == pytest.approx(_d0(rho, sig), abs=1e-12)


def _pair(kind, d, seed):
    rng = np.random.default_rng(seed)
    if kind == "commuting":
        return np.diag(rng.dirichlet(np.ones(d))), np.diag(rng.dirichlet(np.ones(d)))
    if kind == "commuting_ties":
        # a tensor square: likelihood ratios repeat, so the mass has jumps
        # carried by several eigenvectors at once
        p, q = rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2))
        return np.diag(np.kron(p, p)), np.diag(np.kron(q, q))
    rank = d if kind == "full" else int(rng.integers(1, d))
    return random_density(rng, d, rank), random_density(rng, d)


def _dual_beta(rho, sig, eps):
    """max over t >= 0 of t (1 - eps) - Tr(t rho - sigma)_+, the dual of the
    type-II error; the objective is concave, so its maximum is where the
    derivative (1 - eps) - Tr[{t rho - sigma > 0} rho] changes sign."""
    def positive(t):
        w, v = np.linalg.eigh(t * rho - sig)
        pos = v[:, w > 0]
        return np.sum(w[w > 0]), np.real(np.trace(pos.conj().T @ rho @ pos))

    def slope(t):
        return (1.0 - eps) - positive(t)[1]

    hi = 1.0
    while slope(hi) >= 0.0:
        hi *= 4.0
    t = brentq(slope, 0.0, hi, xtol=1e-15, rtol=1e-15)
    return t * (1.0 - eps) - positive(t)[0]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(("full", "deficient", "commuting", "commuting_ties")),
       d=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1),
       eps=st.floats(0.01, 0.9))
@example(kind="commuting_ties", d=4, seed=3, eps=0.2)
@example(kind="deficient", d=3, seed=4, eps=0.05)
def test_dh_matches_dual_program_with_exact_type1(kind, d, seed, eps):
    rho, sig = _pair(kind, d, seed)
    v, t = hypothesis_testing_divergence(rho, sig, eps)
    assert v == pytest.approx(-math.log2(_dual_beta(rho, sig, eps)), abs=1e-9)
    assert t.type1 == pytest.approx(eps, abs=1e-10)
    t1, t2 = t.errors_against(rho, sig)
    assert t1 == pytest.approx(eps, abs=1e-10)
    assert v == pytest.approx(-math.log2(t2), abs=1e-9)
