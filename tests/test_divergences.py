"""Divergence families: closed forms on commuting states, scipy-based
oracles for the matrix-geometric family, limits and orderings, and the
alpha-slope against central differences."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm, logm

from cqsw.conditional import cq_renyi
from cqsw.divergences import (
    VARIANTS,
    _divergence,
    _ln_q,
    _sigma_spectrum_op,
    d_max,
    q_alpha,
    relative_entropy,
    relative_entropy_variance,
    renyi_divergence,
)
from cqsw.errors import InvalidAlphaError, SupportViolationError
from cqsw.operators import LN2, BlockSpectra, eig_hermitian, log2_on_support, random_density
from cqsw.states import CQState
from test_type_classes import _source

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


def _commuting_divergence(p, q, alpha, variant):
    """D_alpha of commuting diagonals p, q by the classical closed forms:
    +inf at alpha > 1, and for the flat family, once part of p lies off the
    support of q; otherwise sum p^alpha q^(1-alpha) on the common support
    (+inf where there is none)."""
    on = p > 0
    if np.any(q[on] == 0) and (alpha > 1 or variant == "flat"):
        return math.inf
    common = on & (q > 0)
    if not np.any(common):
        return math.inf
    return math.log2(float(np.sum(p[common] ** alpha * q[common] ** (1 - alpha)))) / (alpha - 1)


@pytest.mark.parametrize("q", [(0.3, 0.7, 0.0), (0.3, 0.0, 0.7), (0.0, 0.0, 1.0)],
                         ids=["contains", "overlaps", "orthogonal"])
def test_support_conditions_on_commuting_inputs(q):
    # a rank-deficient sigma against a pair and against the blocks of a
    # cq state, both supported on the first two levels
    q = np.array(q)
    p = np.array([0.5, 0.5, 0.0])
    probs = np.array([0.4, 0.6])
    rows = np.array([[0.7, 0.3, 0.0], [0.2, 0.8, 0.0]])
    s = CQState(["0", "1"], probs, [np.diag(r) for r in rows])
    joint = (probs[:, None] * rows).ravel()
    for alpha in (0.5, 2.0):
        for variant in VARIANTS:
            cases = ((renyi_divergence(np.diag(p), np.diag(q), alpha, variant), p, q),
                     (cq_renyi(s, np.diag(q), alpha, variant), joint, np.tile(q, 2)))
            for got, pp, qq in cases:
                want = _commuting_divergence(pp, qq, alpha, variant)
                if math.isinf(want):
                    assert got == want, (variant, alpha)
                else:
                    assert got == pytest.approx(want, abs=1e-10), (variant, alpha)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(kind=st.sampled_from(("full", "deficient", "commuting")),
       size_x=st.sampled_from((1, 2, 3)), dim_b=st.sampled_from((2, 3)),
       seed=st.integers(0, 2 ** 32 - 1), variant=st.sampled_from(VARIANTS),
       alpha=st.one_of(st.floats(0.3, 0.9), st.floats(1.1, 8.0)))
def test_alpha_slope_matches_central_differences(kind, size_x, dim_b, seed, variant, alpha):
    # the alpha-partial of D_alpha(rho || 1 (x) sigma) at fixed sigma, for
    # the blocks of a full-rank, rank-deficient or commuting source against
    # a full-rank sigma
    s = _source(kind, size_x, dim_b, seed)
    sw, sv = eig_hermitian(random_density(np.random.default_rng(seed + 1), dim_b))
    blocks = s.block_spectra()
    value, slope = _divergence(blocks, sw, sv, alpha, variant, slope=True)
    assert value == pytest.approx(_divergence(blocks, sw, sv, alpha, variant), rel=1e-12)

    def diff(h):
        return (_divergence(blocks, sw, sv, alpha + h, variant)
                - _divergence(blocks, sw, sv, alpha - h, variant)) / (2.0 * h)

    h = 1e-3 * alpha
    want = (4.0 * diff(h / 2.0) - diff(h)) / 3.0
    assert slope == pytest.approx(want, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("variant", ["petz", "sandwiched"])
def test_alpha_slope_at_one_is_half_the_variance(variant):
    # inside the alpha = 1 window the slope is the derivative at alpha = 1,
    # V / 2 for petz and sandwiched; just outside it, the full formula
    rho = random_density(RNG, 3)
    sig = random_density(RNG, 3)
    w, v = np.linalg.eigh(rho)
    blocks = BlockSpectra([1.0], w[None], v[None])
    sw, sv = eig_hermitian(sig)
    half_v = relative_entropy_variance(rho, sig) / 2.0
    assert _divergence(blocks, sw, sv, 1.0, variant, slope=True)[1] == \
        pytest.approx(half_v, rel=1e-12)
    assert _divergence(blocks, sw, sv, 1.0 + 1e-4, variant, slope=True)[1] == \
        pytest.approx(half_v, rel=1e-3)


def _mixed_rank_case(deficient_sigma, seed):
    """(blocks, sigma, direction) on d = 3: a rank-1 block, a block of full
    rank (on the support of sigma where sigma is rank deficient) and a
    symbol of probability 0; sigma of rank 3, or of rank 2 with the two
    blocks inside its support, and a Hermitian direction that keeps that
    support."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    if deficient_sigma:
        on = u[:, 1:]
        sigma = on @ random_density(rng, 2) @ on.conj().T
        full = on @ random_density(rng, 2) @ on.conj().T
        pure = on @ random_density(rng, 2, rank=1) @ on.conj().T
    else:
        on = np.eye(3)
        sigma, full, pure = random_density(rng, 3), random_density(rng, 3), random_density(rng, 3, rank=1)
    s = CQState("abc", [0.35, 0.65, 0.0], [pure, full, random_density(rng, 3)])
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = on @ on.conj().T @ (h + h.conj().T) @ on @ on.conj().T
    return s.block_spectra(), sigma, h / np.linalg.norm(h)


_GRADIENT_CASES = [(v, False) for v in VARIANTS] + [("flat", True)]


@pytest.mark.parametrize("variant,deficient_sigma", _GRADIENT_CASES)
@pytest.mark.parametrize("alpha", (0.6, 1.7, 3.0))
@pytest.mark.parametrize("seed", (1, 2))
def test_ln_q_gradient_matches_central_differences(variant, deficient_sigma, alpha, seed):
    # gamma, in the eigenbasis of sigma, is the derivative of ln Q in the
    # family's operator g(sigma) divided by e^shift (`_sigma_spectrum_op`):
    # d ln Q = e^-shift Tr[gamma dg] along sigma + eps h
    blocks, sigma, h = _mixed_rank_case(deficient_sigma, seed)
    assert len(blocks.p) == 2 and min(np.count_nonzero(w > 1e-12) for w in blocks.w) == 1
    sw, sv = eig_hermitian(sigma)
    ln_q, gamma, _ = _ln_q(blocks, sw, sv, alpha, variant, grad=True)
    assert math.isfinite(ln_q)
    shift = _sigma_spectrum_op(sw, alpha, variant)[1]
    power = 1.0 - alpha if variant == "petz" else (1.0 - alpha) / alpha

    def g(eps):
        w, v = eig_hermitian(sigma + eps * h)
        if variant == "flat":
            vals = log2_on_support(w)
        else:
            vals = np.where(w > 1e-12 * w[-1], np.abs(w), 1.0) ** power * (w > 1e-12 * w[-1])
        return (v * vals) @ v.conj().T

    def ln_q_at(eps):
        return _ln_q(blocks, *eig_hermitian(sigma + eps * h), alpha, variant)

    def tr_gamma_dg(step):
        dg = (g(step) - g(-step)) / (2.0 * step)
        return math.exp(-shift) * float(np.real(np.trace(sv @ gamma @ sv.conj().T @ dg)))

    def diff(step):
        return (ln_q_at(step) - ln_q_at(-step)) / (2.0 * step)

    # Richardson-refined central differences, the step well inside the
    # smallest nonzero eigenvalue of sigma
    step = 1e-3 * float(np.min(sw[sw > 1e-12]))
    got = (4.0 * tr_gamma_dg(step / 2.0) - tr_gamma_dg(step)) / 3.0
    want = (4.0 * diff(step / 2.0) - diff(step)) / 3.0
    assert got == pytest.approx(want, rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("variant,deficient_sigma", _GRADIENT_CASES)
@pytest.mark.parametrize("alpha", (0.6, 1.7, 3.0))
@pytest.mark.parametrize("seed", (1, 2))
def test_ln_q_alpha_slope_matches_central_differences(variant, deficient_sigma, alpha, seed):
    blocks, sigma, _ = _mixed_rank_case(deficient_sigma, seed)
    sw, sv = eig_hermitian(sigma)
    ln_q, _, slope = _ln_q(blocks, sw, sv, alpha, variant, slope=True)
    # (the SVD with singular vectors may differ from the one without in the last bit)
    assert ln_q == pytest.approx(_ln_q(blocks, sw, sv, alpha, variant), rel=1e-14)

    def diff(step):
        return (_ln_q(blocks, sw, sv, alpha + step, variant)
                - _ln_q(blocks, sw, sv, alpha - step, variant)) / (2.0 * step)

    step = 1e-3 * alpha
    want = (4.0 * diff(step / 2.0) - diff(step)) / 3.0
    assert slope == pytest.approx(want, rel=1e-7, abs=1e-9)
