"""Relative entropy, three Renyi divergence families, the relative entropy
variance, and the max-relative entropy. All values in bits; +inf is
represented by math.inf.
"""

from __future__ import annotations

import math

import numpy as np

from cqsw.errors import InvalidAlphaError, SupportViolationError
from cqsw.operators import (
    DEFAULT_POLICY,
    SupportPolicy,
    _as_matrix,
    eig_hermitian,
    log2_from_spectrum,
    power_from_spectrum,
    spectral_log2,
    spectral_power,
    support_contained,
    support_mask,
    support_projector,
)

VARIANTS = ("petz", "sandwiched", "flat")
_ALPHA_ONE_WINDOW = 1e-6
_FLAT_TRACE_SLACK = 1e-9


def _check_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    return variant


def relative_entropy(rho, sigma, policy: SupportPolicy = DEFAULT_POLICY) -> float:
    """Umegaki relative entropy D(rho||sigma) in bits; +inf off support."""
    rho = _as_matrix(rho)
    sigma = _as_matrix(sigma)
    if not support_contained(rho, sigma, policy):
        return math.inf
    w, v = eig_hermitian(rho)
    cutoff = policy.relative_cutoff * float(np.max(np.abs(w))) if w.size else 0.0
    on = w > cutoff
    ent = float(np.sum(w[on] * np.log2(w[on])))
    log_sigma = spectral_log2(sigma, policy)
    cross = float(np.real(np.trace(rho @ log_sigma)))
    return ent - cross


def _sigma_operator(sw: np.ndarray, sv: np.ndarray, alpha: float, variant: str,
                    policy: SupportPolicy = DEFAULT_POLICY) -> np.ndarray:
    """The operator of sigma = sv diag(sw) sv^dagger that a family pairs with
    each rho: sigma^(1-alpha) (petz), sigma^((1-alpha)/(2 alpha))
    (sandwiched) or log2 sigma on its support (flat)."""
    if variant == "petz":
        return power_from_spectrum(sw, sv, 1.0 - alpha, policy)
    if variant == "sandwiched":
        return power_from_spectrum(sw, sv, (1.0 - alpha) / (2.0 * alpha), policy)
    return log2_from_spectrum(sw, sv, policy)


def _spectral_q(rw: np.ndarray, rv: np.ndarray, sigma_op: np.ndarray, alpha: float,
                variant: str, policy: SupportPolicy = DEFAULT_POLICY,
                sigma_support: np.ndarray | None = None) -> tuple[float, float]:
    """Q_alpha of a PSD rho = rv diag(rw) rv^dagger against sigma, given the
    family's operator of sigma (`_sigma_operator`). This is the one
    implementation of the three families, for single pairs and cq blocks.

    Returns (q, kept). The flat family restricts both operators to the
    support of rho, intersected with sigma_support (the support projector of
    sigma; None when sigma has full rank), and compresses log2 rho and
    log2 sigma to that subspace; kept is the trace of rho there. For the
    other families kept is the trace of rho.
    """
    if variant == "petz":
        ra = power_from_spectrum(rw, rv, alpha, policy)
        return float(np.real(np.sum(ra * sigma_op.T))), float(np.sum(rw))
    if variant == "sandwiched":
        # spectrum of sigma^e rho sigma^e (e = (1-alpha)/(2alpha)) via the
        # singular values of sigma^e rho^(1/2): squaring the singular values
        # resolves eigenvalues far below the noise floor of the product
        # matrix itself, which matters when alpha < 1 because w ** alpha
        # keeps tiny eigenvalues relevant
        sv = np.linalg.svd(sigma_op @ power_from_spectrum(rw, rv, 0.5, policy),
                           compute_uv=False)
        scale = float(sv[0]) if sv.size else 0.0
        keep = sv > policy.relative_cutoff * scale
        return float(np.sum(sv[keep] ** (2.0 * alpha))), float(np.sum(rw))
    on = support_mask(rw, policy)
    if sigma_support is None:
        # in the eigenbasis of rho its compression is diagonal
        basis = rv[:, on]
        log_rho = np.diag(np.log2(rw[on]))
        kept = float(np.sum(rw[on]))
    else:
        pw, pv = eig_hermitian(power_from_spectrum(rw, rv, 0.0, policy) + sigma_support)
        basis = pv[:, pw > 2.0 - 1e-8]
        log_rho = basis.conj().T @ log2_from_spectrum(rw, rv, policy) @ basis
        kept = float(np.real(np.trace(basis.conj().T @ ((rv * rw) @ rv.conj().T) @ basis)))
    if basis.shape[1] == 0:
        return 0.0, 0.0
    m = alpha * log_rho + (1.0 - alpha) * (basis.conj().T @ sigma_op @ basis)
    mw, _ = eig_hermitian(m)
    return float(np.sum(np.exp2(mw))), kept


def _full_rank(w: np.ndarray, policy: SupportPolicy = DEFAULT_POLICY) -> bool:
    """Whether the ascending spectrum w of a PSD operator has no zero
    eigenvalue under the policy cutoff."""
    return bool(w.size) and float(w[0]) > policy.relative_cutoff * float(w[-1])


def q_alpha(rho, sigma, alpha: float, variant: str = "petz",
            policy: SupportPolicy = DEFAULT_POLICY) -> float:
    """The trace functional Q_alpha of the chosen divergence family."""
    _check_variant(variant)
    if alpha <= 0:
        raise InvalidAlphaError(f"alpha must be positive, got {alpha}")
    rw, rv = eig_hermitian(_as_matrix(rho))
    sw, sv = eig_hermitian(_as_matrix(sigma))
    support = None
    if variant == "flat" and not _full_rank(sw, policy):
        support = power_from_spectrum(sw, sv, 0.0, policy)
    q, kept = _spectral_q(rw, rv, _sigma_operator(sw, sv, alpha, variant, policy),
                          alpha, variant, policy, support)
    # flat: rho with no trace on the kept subspace has q = 0; with part of
    # its trace cut off, Q is 0 below alpha = 1 and +inf above
    if variant == "flat" and 0.0 < kept < 1.0 - _FLAT_TRACE_SLACK:
        return 0.0 if alpha < 1.0 else math.nan  # caller maps to +inf
    return q


def renyi_divergence(rho, sigma, alpha: float, variant: str = "petz",
                     policy: SupportPolicy = DEFAULT_POLICY) -> float:
    """D_alpha in bits for the petz/sandwiched/flat family; +inf as needed."""
    _check_variant(variant)
    if alpha <= 0:
        raise InvalidAlphaError(f"alpha must be positive, got {alpha}")
    if abs(alpha - 1.0) < _ALPHA_ONE_WINDOW:
        return relative_entropy(rho, sigma, policy)
    rho = _as_matrix(rho)
    sigma = _as_matrix(sigma)
    if alpha > 1.0 and not support_contained(rho, sigma, policy):
        return math.inf
    if alpha < 1.0:
        # orthogonal states have divergence +inf for every variant
        pr = support_projector(rho, policy)
        ps = support_projector(sigma, policy)
        if float(np.real(np.trace(pr @ ps))) <= policy.relative_cutoff:
            return math.inf
    q = q_alpha(rho, sigma, alpha, variant, policy)
    if math.isnan(q):
        return math.inf
    if q <= 0.0:
        return math.inf if alpha < 1.0 else -math.inf
    return math.log2(q) / (alpha - 1.0)


def relative_entropy_variance(rho, sigma,
                              policy: SupportPolicy = DEFAULT_POLICY) -> float:
    """V(rho||sigma); requires supp(rho) inside supp(sigma).

    Units: ln(2) times the base-2 variance of the log-likelihood ratio, so
    that the second derivative of the (base-2) cumulant E_0(s) at s = 0
    equals -V exactly. Entropies stay in bits; this is the one quantity
    reported in mixed units.
    """
    rho = _as_matrix(rho)
    sigma = _as_matrix(sigma)
    if not support_contained(rho, sigma, policy):
        raise SupportViolationError("supp(rho) not contained in supp(sigma)")
    diff = spectral_log2(rho, policy) - spectral_log2(sigma, policy)
    first = float(np.real(np.trace(rho @ diff)))
    second = float(np.real(np.trace(rho @ diff @ diff)))
    return math.log(2.0) * (second - first * first)


def d_max(rho, sigma, policy: SupportPolicy = DEFAULT_POLICY) -> float:
    """Max-relative entropy: log2 of the smallest c with rho <= c sigma."""
    rho = _as_matrix(rho)
    sigma = _as_matrix(sigma)
    if not support_contained(rho, sigma, policy):
        return math.inf
    isq = spectral_power(sigma, -0.5, policy)
    w, _ = eig_hermitian(isq @ rho @ isq)
    top = float(w[-1]) if w.size else 0.0
    if top <= 0.0:
        return -math.inf
    return math.log2(top)
