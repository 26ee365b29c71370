"""Divergence families: closed forms on commuting states, scipy-based
oracles for the matrix-geometric family, limits and orderings."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg import expm, logm

from cqsw.divergences import (
    d_max,
    q_alpha,
    relative_entropy,
    relative_entropy_variance,
    renyi_divergence,
)
from cqsw.errors import InvalidAlphaError, SupportViolationError
from cqsw.operators import LN2, random_density

RNG = np.random.default_rng(21)


def _classical(p, q, alpha):
    return math.log2(float(np.sum(p ** alpha * q ** (1 - alpha)))) / (alpha - 1)


def test_relative_entropy_classical():
    p = np.array([0.6, 0.4])
    q = np.array([0.3, 0.7])
    expect = float(np.sum(p * np.log2(p / q)))
    assert abs(relative_entropy(np.diag(p), np.diag(q)) - expect) < 1e-12


def test_relative_entropy_support():
    rho = np.diag([1.0, 0.0])
    sig = np.diag([0.0, 1.0])
    assert math.isinf(relative_entropy(rho, sig))
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_renyi_variants_collapse_classically():
    p = RNG.dirichlet([1, 1, 1])
    q = RNG.dirichlet([1, 1, 1])
    for alpha in (0.3, 0.8, 1.5, 3.0):
        expect = _classical(p, q, alpha)
        for variant in ("petz", "sandwiched", "flat"):
            got = renyi_divergence(np.diag(p), np.diag(q), alpha, variant)
            assert got == pytest.approx(expect, abs=1e-10), (variant, alpha)


def test_flat_q_matches_scipy_geodesic():
    rho = random_density(RNG, 3)
    sig = random_density(RNG, 3)
    for alpha in (0.4, 0.9, 2.0):
        got = q_alpha(rho, sig, alpha, "flat")
        ref = float(np.real(np.trace(
            expm(alpha * logm(rho) + (1 - alpha) * logm(sig)))))
        assert got == pytest.approx(ref, abs=1e-9)


def test_sandwiched_alpha_two_closed_form():
    rho = random_density(RNG, 2)
    sig = random_density(RNG, 2)
    # Q2* = Tr[rho sig^{-1/2} rho sig^{-1/2}]
    w, v = np.linalg.eigh(sig)
    isq = (v * w ** -0.5) @ v.conj().T
    q2 = float(np.real(np.trace(rho @ isq @ rho @ isq)))
    got = renyi_divergence(rho, sig, 2.0, "sandwiched")
    assert got == pytest.approx(math.log2(q2), abs=1e-9)


def test_alpha_one_window_delegates():
    rho = random_density(RNG, 3)
    sig = random_density(RNG, 3)
    d1 = relative_entropy(rho, sig)
    for variant in ("petz", "sandwiched", "flat"):
        assert renyi_divergence(rho, sig, 1.0 + 1e-8, variant) == \
            pytest.approx(d1, abs=1e-12)


def test_renyi_continuity_near_one():
    rho = random_density(RNG, 3)
    sig = random_density(RNG, 3)
    d1 = relative_entropy(rho, sig)
    for variant in ("petz", "sandwiched", "flat"):
        near = renyi_divergence(rho, sig, 1.0 + 1e-4, variant)
        assert abs(near - d1) < 1e-3


def test_invalid_alpha():
    rho = random_density(RNG, 2)
    with pytest.raises(InvalidAlphaError):
        renyi_divergence(rho, rho, 0.0)
    with pytest.raises(InvalidAlphaError):
        renyi_divergence(rho, rho, -1.0)


def test_support_extremes():
    rho = np.diag([1.0, 0.0])
    sig = np.diag([0.0, 1.0])
    for variant in ("petz", "sandwiched", "flat"):
        assert math.isinf(renyi_divergence(rho, sig, 0.5, variant))
        assert math.isinf(renyi_divergence(rho, sig, 2.0, variant))


def test_variance_classical_and_units():
    p = np.array([0.6, 0.4])
    q = np.array([0.25, 0.75])
    llr = np.log2(p / q)
    mean = float(np.sum(p * llr))
    var_bits = float(np.sum(p * (llr - mean) ** 2))
    got = relative_entropy_variance(np.diag(p), np.diag(q))
    # reported in mixed units: ln(2) times the base-2 variance
    assert got == pytest.approx(LN2 * var_bits, abs=1e-12)
    with pytest.raises(SupportViolationError):
        relative_entropy_variance(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))


def test_d_max():
    rho = np.diag([0.8, 0.2])
    sig = np.diag([0.5, 0.5])
    assert d_max(rho, sig) == pytest.approx(math.log2(1.6), abs=1e-12)
    assert math.isinf(d_max(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    # monotone ordering with the Renyi family: D <= D_max
    r = random_density(RNG, 3)
    s = random_density(RNG, 3)
    assert relative_entropy(r, s) <= d_max(r, s) + 1e-10


def test_data_processing_under_measurement():
    # dephasing in the computational basis is a channel
    rho = random_density(RNG, 3)
    sig = random_density(RNG, 3)
    dr = np.diag(np.diag(rho))
    ds = np.diag(np.diag(sig))
    for variant in ("petz", "sandwiched"):
        for alpha in (0.5, 2.0):
            assert renyi_divergence(rho, sig, alpha, variant) >= \
                renyi_divergence(dr, ds, alpha, variant) - 1e-9


def test_flat_rank_one_rho_compresses_log_sigma():
    # rho rank deficient, sigma full rank: log2 sigma is compressed to the
    # support of rho (the limit of the full-rank definition), not the log
    # taken of the compressed sigma
    rng = np.random.default_rng(8)
    rho = random_density(rng, 3, rank=1)
    sig = random_density(rng, 3)
    alpha = 0.999
    w, v = np.linalg.eigh(rho)
    basis = v[:, w > 1e-12 * w[-1]]
    sw, sv = np.linalg.eigh(sig)
    log_sig = (sv * np.log2(sw)) @ sv.conj().T
    m = alpha * np.diag(np.log2(w[w > 1e-12 * w[-1]])) \
        + (1 - alpha) * (basis.conj().T @ log_sig @ basis)
    want = math.log2(float(np.sum(np.exp2(np.linalg.eigvalsh(m))))) / (alpha - 1)
    got = renyi_divergence(rho, sig, alpha, "flat")
    assert got == pytest.approx(want, abs=1e-9)
    # and D_alpha tends to D as alpha -> 1
    assert got == pytest.approx(relative_entropy(rho, sig), abs=1e-6)
