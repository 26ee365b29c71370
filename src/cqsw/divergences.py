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
    LN2,
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
_LN_MAX = math.log(np.finfo(float).max)


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


def _sigma_spectrum_op(sw: np.ndarray, alpha: float, variant: str,
                       policy: SupportPolicy = DEFAULT_POLICY) -> tuple[np.ndarray, float]:
    """(f, shift): the eigenvalues, on the support of sigma and zero off it,
    of the operator g(sigma) a family pairs with rho, divided by e^shift.

    g is sigma^(1-alpha) (petz), sigma^((1-alpha)/alpha) (sandwiched) or
    log2 sigma (flat, shift 0). For the two powers shift is the log of the
    largest eigenvalue of g(sigma), so f <= 1 and neither a large exponent
    (alpha -> 0) nor a negative one (alpha large) overflows; ln Q is then
    ln Q(f) + shift (petz) or + alpha shift (sandwiched).
    """
    on = support_mask(sw, policy)
    f = np.zeros_like(sw)
    if variant == "flat":
        f[on] = np.log2(sw[on])
        return f, 0.0
    e = (1.0 - alpha) if variant == "petz" else (1.0 - alpha) / alpha
    w = sw[on]
    if not w.size:
        return f, 0.0
    # g(sigma) is largest at the largest eigenvalue of sigma when e > 0 and
    # at the smallest on the support when e < 0 (w is ascending)
    ref = float(w[-1] if e > 0.0 else w[0])
    f[on] = (w / ref) ** e
    return f, e * math.log(ref)


def _sigma_operator(sw: np.ndarray, sv: np.ndarray, alpha: float, variant: str,
                    policy: SupportPolicy = DEFAULT_POLICY) -> tuple[np.ndarray, float]:
    """(op, ln_scale): the operator of sigma = sv diag(sw) sv^dagger that
    `_spectral_q` pairs with each rho, and the amount to add to its ln Q.

    op is g(sigma) / e^shift (`_sigma_spectrum_op`), except for the
    sandwiched family, where it is the square root of that, sigma^(e/2)
    with e = (1-alpha)/alpha, the factor on either side of rho."""
    f, shift = _sigma_spectrum_op(sw, alpha, variant, policy)
    if variant == "sandwiched":
        return (sv * np.sqrt(f)) @ sv.conj().T, alpha * shift
    return (sv * f) @ sv.conj().T, shift


def _spectral_q(rw: np.ndarray, rv: np.ndarray, sigma_op: np.ndarray, alpha: float,
                variant: str, policy: SupportPolicy = DEFAULT_POLICY,
                sigma_support: np.ndarray | None = None, grad: bool = False):
    """ln Q_alpha of a PSD rho = rv diag(rw) rv^dagger against the family's
    operator of sigma (`_sigma_operator`), before its ln_scale is added.
    This is the one implementation of the three families, for single pairs
    and cq blocks.

    Returns (ln q, kept, gamma), ln q = -inf where q = 0. The flat family restricts
    both operators to the support of rho, intersected with sigma_support
    (the support projector of sigma; None when sigma has full rank), and
    compresses log2 rho and log2 sigma to that subspace; kept is the trace
    of rho there. For the other families kept is the trace of rho.

    gamma is None unless grad is set and q > 0. It is then the derivative
    of ln q with respect to g(sigma) (the operator `_sigma_spectrum_op`
    describes; for sandwiched the square of sigma_op): the Hermitian gamma
    with d ln q = Tr[gamma dg], built from the spectra the value takes.
    """
    if variant == "petz":
        ra = power_from_spectrum(rw, rv, alpha, policy)
        q = float(np.real(np.sum(ra * sigma_op.T)))
        if q <= 0.0:
            return -math.inf, float(np.sum(rw)), None
        return math.log(q), float(np.sum(rw)), ra / q if grad else None
    if variant == "sandwiched":
        # spectrum of sigma^e rho sigma^e (e = (1-alpha)/(2alpha)) via the
        # singular values of sigma^e rho^(1/2): squaring the singular values
        # resolves eigenvalues far below the noise floor of the product
        # matrix itself, which matters when alpha < 1 because w ** alpha
        # keeps tiny eigenvalues relevant
        half = power_from_spectrum(rw, rv, 0.5, policy)
        if grad:
            _, sv, wh = np.linalg.svd(sigma_op @ half)
        else:
            sv = np.linalg.svd(sigma_op @ half, compute_uv=False)
        scale = float(sv[0]) if sv.size else 0.0
        keep = sv > policy.relative_cutoff * scale
        if not np.any(keep):
            return -math.inf, float(np.sum(rw)), None
        # sum sv^(2 alpha) = scale^(2 alpha) sum (sv/scale)^(2 alpha)
        ratio = sv[keep] / scale
        total = float(np.sum(ratio ** (2.0 * alpha)))
        ln_q = 2.0 * alpha * math.log(scale) + math.log(total)
        if not grad:
            return ln_q, float(np.sum(rw)), None
        # d Tr[(rho^1/2 g rho^1/2)^alpha] = alpha Tr[rho^1/2 W s^(2alpha-2)
        # W^dagger rho^1/2 dg], W the right singular vectors; over q
        y = half @ (wh[keep].conj().T * (ratio ** (alpha - 1.0) / (scale * math.sqrt(total))))
        return ln_q, float(np.sum(rw)), alpha * (y @ y.conj().T)
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
        return -math.inf, 0.0, None
    m = alpha * log_rho + (1.0 - alpha) * (basis.conj().T @ sigma_op @ basis)
    mw, mv = eig_hermitian(m)
    top = float(mw[-1])
    e = np.exp2(mw - top)
    ln_q = top * LN2 + math.log(float(np.sum(e)))
    if not grad:
        return ln_q, kept, None
    # d Tr 2^M = ln2 Tr[2^M dM], dM = (1-alpha) basis^dagger dg basis
    pm = basis @ mv
    return ln_q, kept, (1.0 - alpha) * LN2 * ((pm * (e / np.sum(e))) @ pm.conj().T)


def _full_rank(w: np.ndarray, policy: SupportPolicy = DEFAULT_POLICY) -> bool:
    """Whether the ascending spectrum w of a PSD operator has no zero
    eigenvalue under the policy cutoff."""
    return bool(w.size) and float(w[0]) > policy.relative_cutoff * float(w[-1])


def _ln_q_alpha(rho, sigma, alpha: float, variant: str,
                policy: SupportPolicy = DEFAULT_POLICY) -> float:
    """ln Q_alpha of one pair; -inf where Q = 0, nan where it is +inf."""
    rw, rv = eig_hermitian(_as_matrix(rho))
    sw, sv = eig_hermitian(_as_matrix(sigma))
    support = None
    if variant == "flat" and not _full_rank(sw, policy):
        support = power_from_spectrum(sw, sv, 0.0, policy)
    sigma_op, ln_scale = _sigma_operator(sw, sv, alpha, variant, policy)
    ln_q, kept, _ = _spectral_q(rw, rv, sigma_op, alpha, variant, policy, support)
    # flat: rho with no trace on the kept subspace has q = 0; with part of
    # its trace cut off, Q is 0 below alpha = 1 and +inf above
    if variant == "flat" and 0.0 < kept < 1.0 - _FLAT_TRACE_SLACK:
        return -math.inf if alpha < 1.0 else math.nan
    return ln_q + ln_scale


def q_alpha(rho, sigma, alpha: float, variant: str = "petz",
            policy: SupportPolicy = DEFAULT_POLICY) -> float:
    """The trace functional Q_alpha of the chosen divergence family."""
    _check_variant(variant)
    if alpha <= 0:
        raise InvalidAlphaError(f"alpha must be positive, got {alpha}")
    return _q_from_ln(_ln_q_alpha(rho, sigma, alpha, variant, policy))


def _q_from_ln(ln_q: float) -> float:
    """Q from ln Q: +inf past the float range, and nan kept (the flat
    family's Q = +inf, which callers map to D = +inf)."""
    if math.isnan(ln_q):
        return ln_q
    return math.inf if ln_q > _LN_MAX else math.exp(ln_q)


def _renyi_from_ln_q(ln_q: float, alpha: float) -> float:
    """D_alpha in bits from ln Q_alpha: nan (Q = +inf) and -inf (Q = 0) map
    to the infinity of the right sign."""
    if math.isnan(ln_q):
        return math.inf
    if ln_q == -math.inf:
        return math.inf if alpha < 1.0 else -math.inf
    return ln_q / (LN2 * (alpha - 1.0))


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
    return _renyi_from_ln_q(_ln_q_alpha(rho, sigma, alpha, variant, policy), alpha)


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
