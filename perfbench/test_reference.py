"""Checks of the benchmark's reference computations against textbook values.

Run with: python3 -m pytest perfbench/test_reference.py
"""

import math

import numpy as np

import reference as ref

Q = 0.11
DSBS = ([0.5, 0.5], [np.diag([1 - Q, Q]).astype(complex), np.diag([Q, 1 - Q]).astype(complex)])
KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KETPLUS = np.full((2, 2), 0.5, dtype=complex)
ZERO_PLUS = ([0.5, 0.5], [KET0, KETPLUS])


def h2(q):
    return -q * math.log2(q) - (1 - q) * math.log2(1 - q)


def _density(rng, d, rank):
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def test_conditional_entropy_closed_forms():
    assert abs(ref.conditional_entropy(*DSBS) - h2(Q)) < 1e-14
    # pure blocks: H(X|B) = H(X) - S(B), S(B) = h((1 + 1/sqrt 2) / 2)
    want = 1.0 - h2((1 + 1 / math.sqrt(2)) / 2)
    assert abs(ref.conditional_entropy(*ZERO_PLUS) - want) < 1e-14


def test_commuting_divergences_are_classical():
    p, q = np.array([0.2, 0.3, 0.5]), np.array([0.4, 0.4, 0.2])
    rho, sigma = np.diag(p).astype(complex), np.diag(q).astype(complex)
    assert abs(ref.relative_entropy(rho, sigma) - np.sum(p * np.log2(p / q))) < 1e-14
    for alpha in (0.5, 2.0):
        want = math.log2(np.sum(p ** alpha * q ** (1 - alpha))) / (alpha - 1)
        for family in ("petz", "sandwiched", "flat"):
            assert abs(ref.renyi_divergence(rho, sigma, alpha, family) - want) < 1e-12
    assert abs(ref.d_max(rho, sigma) - math.log2(np.max(p / q))) < 1e-14


def test_family_order_and_limit_at_one():
    rng = np.random.default_rng(3)
    sigma = _density(rng, 3, 3)
    for rank in (3, 1):
        rho = _density(rng, 3, rank)
        d = ref.relative_entropy(rho, sigma)
        for family in ("petz", "sandwiched", "flat"):
            assert abs(ref.renyi_divergence(rho, sigma, 1 + 1e-6, family) - d) < 1e-4
            assert abs(ref.renyi_divergence(rho, sigma, 1 - 1e-6, family) - d) < 1e-4
        # sandwiched <= petz for every alpha; flat <= sandwiched above one
        for alpha in (0.5, 2.0):
            assert ref.renyi_divergence(rho, sigma, alpha, "sandwiched") <= \
                ref.renyi_divergence(rho, sigma, alpha, "petz") + 1e-12
        assert ref.renyi_divergence(rho, sigma, 2.0, "flat") <= \
            ref.renyi_divergence(rho, sigma, 2.0, "sandwiched") + 1e-12


def test_gallager_and_sibson_agree_on_commuting_source():
    pxb = ref.classical_joint(*DSBS)
    for s in (-0.9, -0.5, 0.3, 1.0, 5.0):
        assert abs(ref.gallager_e0(pxb, s) - ref.sibson_e0(*DSBS, s)) < 1e-12
    for s in (0.3, 0.9):
        assert abs(ref.gallager_e0_down(pxb, s) - ref.sibson_e0_down(*DSBS, s)) < 1e-12


def test_e0_slope_at_zero_is_minus_h():
    for src in (DSBS, ZERO_PLUS):
        assert abs(ref.slope(lambda s: ref.sibson_e0(*src, s), 0.0) + ref.conditional_entropy(*src)) < 1e-8


def test_qubit_e0_is_stable_at_large_alpha():
    # E_0 is concave in s, so its chords near s = -1 must not bend upward
    rng = np.random.default_rng(2)
    probs = rng.dirichlet(np.ones(3))
    rhos = [_density(rng, 2, 2) for _ in range(3)]
    s = np.linspace(1 / 64 - 1, -0.9, 12)
    e = [ref.sibson_e0(probs, rhos, x) for x in s]
    assert np.all(np.diff(e, 2) <= 1e-9)


def test_exponents_vanish_on_the_far_side():
    e0 = lambda s: ref.sibson_e0(*ZERO_PLUS, s)
    h = ref.conditional_entropy(*ZERO_PLUS)
    assert ref.exponent(e0, h - 0.05, "random_coding") == 0.0
    assert ref.exponent(e0, h + 0.05, "strong_converse") == 0.0
    # below the critical rate the two coincide
    assert ref.exponent(e0, h + 0.05, "random_coding") <= \
        ref.exponent(e0, h + 0.05, "sphere_packing") + 1e-12


def test_neyman_pearson_dual_matches_classical_sort():
    rng = np.random.default_rng(5)
    p, q = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6))
    for eps in (0.01, 0.1, 0.5):
        want = ref.classical_np_beta(p, q, eps)
        got = ref.np_beta([(np.diag(p).astype(complex), np.diag(q).astype(complex))], eps)
        assert abs(got - want) < 1e-12
    # identical states: the best test keeps type-II error at 1 - eps
    rho = _density(rng, 3, 3)
    assert abs(ref.np_beta([(rho, rho)], 0.2) - 0.8) < 1e-12


def test_hat_alpha_inverts_beta():
    rng = np.random.default_rng(6)
    rho, sigma = _density(rng, 3, 3), _density(rng, 3, 3)
    beta = ref.np_beta([(rho, sigma)], 0.1)
    assert abs(ref.hat_alpha([(rho, sigma)], beta) - 0.1) < 1e-9


def test_h0_counts_support_overlap():
    assert abs(ref.h0_petz(*DSBS) - 1.0) < 1e-14
    assert abs(ref.h0_petz(*ZERO_PLUS) - math.log2(1 + 1 / math.sqrt(2))) < 1e-14
