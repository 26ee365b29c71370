"""Relative entropy, three Renyi divergence families, the relative entropy
variance, and the max-relative entropy. All values in bits; +inf is
represented by math.inf.

One core computes every divergence here: that of a block-diagonal
rho = (+)_x rho_x against 1_X (x) sigma, from the spectra of the blocks and
the spectrum (sw, sv) of sigma. The blocks come as one stack
(`operators.BlockSpectra`, built by `CQState.block_spectra`): their traces
p (k,), eigenvalues w (k, d) and eigenvectors v (k, d, d). Each family
computes over the whole stack at once, from the blocks expressed in the
eigenbasis of sigma (v_k^dagger sv, (k, d, d)): petz by sums of squared
overlaps, sandwiched by one stacked SVD, flat by stacked
eigendecompositions of its exponent matrices; the per-block values then
meet in a log-sum-exp along the block axis. A single pair (rho, sigma) is
the one-block stack, which the public functions below pass; `conditional`
passes the blocks of a cq state, and its optimizer the candidate states
sigma_B.
"""

from __future__ import annotations

import math

import numpy as np

from cqsw.errors import InvalidAlphaError, SupportViolationError
from cqsw.operators import (
    LN2,
    SUPPORT_CUTOFF,
    BlockSpectra,
    _full_rank,
    check_hermitian,
    eig_hermitian,
    eig_hermitian_stack,
    leaks,
    log2_on_support,
    power_from_spectrum,
    spectrum_of,
    support_mask,
)

VARIANTS = ("petz", "sandwiched", "flat")
_ALPHA_ONE_WINDOW = 1e-6
_FLAT_TRACE_SLACK = 1e-9
_LN_MAX = math.log(np.finfo(float).max)


def _check_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    return variant


def _check_alpha(alpha: float) -> None:
    """The Renyi order must be positive (nan is refused too)."""
    if not alpha > 0.0:
        raise InvalidAlphaError(f"alpha must be positive, got {alpha}")


def _sigma_spectrum_op(sw: np.ndarray, alpha: float,
                       variant: str) -> tuple[np.ndarray, float]:
    """(f, shift): the eigenvalues, on the support of sigma and zero off it,
    of the operator g(sigma) a family pairs with rho, divided by e^shift.

    g is sigma^(1-alpha) (petz), sigma^((1-alpha)/alpha) (sandwiched) or
    log2 sigma (flat, shift 0). For the two powers shift is the log of the
    largest eigenvalue of g(sigma), so f <= 1 and neither a large exponent
    (alpha -> 0) nor a negative one (alpha large) overflows; ln Q is then
    ln Q(f) + shift (petz) or + alpha shift (sandwiched).
    """
    if variant == "flat":
        return log2_on_support(sw), 0.0
    on = support_mask(sw)
    f = np.zeros_like(sw)
    e = (1.0 - alpha) if variant == "petz" else (1.0 - alpha) / alpha
    w = sw[on]
    if not w.size:
        return f, 0.0
    # g(sigma) is largest at the largest eigenvalue of sigma when e > 0 and
    # at the smallest on the support when e < 0 (w is ascending)
    ref = float(w[-1] if e > 0.0 else w[0])
    f[on] = (w / ref) ** e
    return f, e * math.log(ref)


def _log_sum_exp(x: np.ndarray):
    """(ln sum e^x, e^x / sum e^x) over every entry of x, which may hold
    -inf; (-inf, None) when all do."""
    top = float(x.max())
    if top == -math.inf:
        return top, None
    e = np.exp(x - top)
    total = float(e.sum())
    return top + math.log(total), e / total


def _petz_q(blocks, sw, sv, f, alpha, grad, slope):
    """The petz Q = sum_k Tr[rho_k^alpha g], g = sv diag(f) sv^dagger: a
    weighted sum sum_kij w_ki^alpha |<v_ki|s_j>|^2 f_j of the squared
    overlaps of the block and sigma eigenvectors (`BlockSpectra.overlaps`).
    The alpha-slope adds the term of dg/dalpha = -g ln sigma."""
    w = blocks.w
    wa = np.power(w, alpha, out=np.zeros_like(w), where=blocks.support)
    o2 = blocks.overlaps(sv)
    # t_ki = <v_ki| g |v_ki>
    t = o2 @ f
    q = float(np.vdot(wa, t))
    if q <= 0.0:
        return -math.inf, None, None
    gamma = dq = None
    if grad:
        a = blocks.rotated(sv)
        gamma = np.einsum("kij,ki,kil->jl", a.conj(), wa, a) / q
    if slope:
        t_ln = o2 @ (f * log2_on_support(sw))
        dq = LN2 * float(np.vdot(wa, blocks.log2w * t - t_ln)) / q
    return math.log(q), gamma, dq


def _sandwiched_q(blocks, sw, sv, f, alpha, grad, slope):
    """The sandwiched Q = sum_ki s_ki^(2 alpha) over the singular values s_k
    of g^(1/2) rho_k^(1/2), g = sv diag(f) sv^dagger, taken by one stacked
    SVD of that product in the eigenbases of sigma and of block k,
    diag(f^(1/2)) <s_a|v_ki> w_ki^(1/2); squaring singular values resolves
    eigenvalues far below the noise floor of the product matrix itself,
    which matters when alpha < 1 because s ** (2 alpha) keeps tiny ones
    relevant. Singular values at or below SUPPORT_CUTOFF times a block's
    largest are dropped.

    By d Tr[(rho^1/2 g rho^1/2)^alpha] = alpha Tr[rho^1/2 W s^(2alpha-2)
    W^dagger rho^1/2 dg], W the right singular vectors, gamma is alpha
    sum_ki s_ki^(2alpha-2) y_ki y_ki^dagger / Q with y_ki = rho_k^1/2 W_ki.
    The alpha-slope at fixed g is sum_ki s_ki^(2alpha) ln s_ki^2 / Q, plus
    the term of dg/dalpha = -g ln sigma / alpha^2."""
    root = np.sqrt(blocks.w, out=np.zeros_like(blocks.w), where=blocks.support)
    # <s_a|v_ki> w_ki^(1/2): rho_k^(1/2) v_k in the sigma eigenbasis
    ar = blocks.rotated(sv).conj().transpose(0, 2, 1) * root[:, None, :]
    x = np.sqrt(f)[:, None] * ar
    if grad or slope:
        _, s, wh = np.linalg.svd(x)
    else:
        s = np.linalg.svd(x, compute_uv=False)
    keep = s > SUPPORT_CUTOFF * s[:, :1]
    ln_s = np.log(s, out=np.zeros_like(s), where=keep)
    ln_q, weights = _log_sum_exp(np.where(keep, 2.0 * alpha * ln_s, -math.inf))
    if weights is None or not (grad or slope):
        return ln_q, None, None
    # s^(2 alpha - 2) / Q per singular value, zero where dropped
    coef = np.divide(weights, s * s, out=np.zeros_like(s), where=keep)
    y = ar @ wh.conj().transpose(0, 2, 1)
    gamma = dq = None
    if grad:
        gamma = alpha * np.einsum("kai,ki,kbi->ab", y, coef, y.conj())
    if slope:
        g_diag = alpha * np.einsum("kai,ki->a", (y * y.conj()).real, coef)
        chain = float(g_diag @ (f * log2_on_support(sw))) * LN2 / (alpha * alpha)
        dq = 2.0 * float(np.vdot(weights, ln_s)) - chain
    return ln_q, gamma, dq


def _flat_q(blocks, sw, sv, f, alpha, grad, slope):
    """The flat Q = sum_k Tr 2^(M_k), M_k = alpha log2 rho_k + (1 - alpha)
    log2 sigma, both compressed to the support of rho_k (intersected with
    that of sigma where sigma is rank deficient): Q = 0 below alpha = 1 and
    +inf (nan) above when the compression loses trace of rho.

    Each block works in a frame of its own whose last m_k vectors span that
    subspace: its eigenbasis, whose support is the top m_k eigenvalues, for
    full-rank sigma, else the eigenvectors of P_rho_k + P_sigma, eigenvalue
    2 last. The M_k of one size m are eigendecomposed as one stack, so
    directions off a block's support never enter it. By d Tr 2^M = ln2
    Tr[2^M dM], gamma = (1 - alpha) ln2 sum_k U_k diag(2^mw_k) U_k^dagger / Q,
    U_k the eigenvectors of M_k, and the alpha-slope is ln2 sum_k
    Tr[2^M_k (log2 rho_k - log2 sigma)] / Q."""
    w, on, lw = blocks.w, blocks.support, blocks.log2w
    k, d = w.shape
    a = blocks.rotated(sv)
    if _full_rank(sw):
        frame = a
        log_rho = lw[:, :, None] * np.eye(d)
        kept = float(np.sum(w, where=on))
        size = on.sum(axis=1)
    else:
        # in the block eigenbasis P_rho_k is diag(on), P_sigma a diag(on_sigma) a^dagger
        both = (a * support_mask(sw)) @ a.conj().transpose(0, 2, 1)
        both[:, range(d), range(d)] += on
        ew, ev = eig_hermitian_stack(both)
        size = np.count_nonzero(ew > 2.0 - 1e-8, axis=1)
        evh = ev.conj().transpose(0, 2, 1)
        frame = evh @ a
        log_rho = (evh * lw[:, None, :]) @ ev
        held = np.arange(d) >= (d - size)[:, None]
        kept = float(np.sum(np.einsum("kji,kj,kji->ki", ev.conj(), w, ev).real, where=held))
    if kept < (1.0 - _FLAT_TRACE_SLACK) * float(np.sum(blocks.p)):
        return (-math.inf if alpha < 1.0 else math.nan), None, None
    log_sigma = (frame * f) @ frame.conj().transpose(0, 2, 1)
    m_all = alpha * log_rho + (1.0 - alpha) * log_sigma
    if np.all(size == d):
        mw, mv = eig_hermitian_stack(m_all)
    else:
        mw = np.full((k, d), -math.inf)
        mv = np.zeros((k, d, d), dtype=np.complex128)
        for m in np.unique(size[size > 0]):
            idx = np.flatnonzero(size == m)
            lo = d - m
            mw[idx, lo:], mv[idx, lo:, lo:] = eig_hermitian_stack(m_all[idx, lo:, lo:])
    ln_q, weights = _log_sum_exp(LN2 * mw)
    if weights is None or not (grad or slope):
        return ln_q, None, None
    gamma = dq = None
    if grad:
        # the eigenvectors of M_k in the sigma eigenbasis
        u = frame.conj().transpose(0, 2, 1) @ mv
        gamma = (1.0 - alpha) * LN2 * np.einsum("kai,ki,kbi->ab", u, weights, u.conj())
    if slope:
        dm = np.einsum("kji,kjl,kli->ki", mv.conj(), log_rho - log_sigma, mv).real
        dq = LN2 * float(np.vdot(weights, dm))
    return ln_q, gamma, dq


_FAMILY_Q = {"petz": _petz_q, "sandwiched": _sandwiched_q, "flat": _flat_q}


def _ln_q(blocks, sw, sv, alpha: float, variant: str, grad: bool = False,
          slope: bool = False):
    """ln Q_alpha(rho || 1 (x) sigma) for the block stack `blocks`
    (`operators.BlockSpectra`) and sigma = sv diag(sw) sv^dagger; -inf where
    Q = 0, nan where Q = +inf. One pass of the family's core (`_petz_q`,
    `_sandwiched_q`, `_flat_q`) over the whole stack computes it, summing
    the blocks' terms along the block axis (by a log-sum-exp for sandwiched
    and flat, whose terms may underflow one by one).

    The flat family keeps of each block only its part on the support of
    sigma; with part of the trace of rho cut off, Q is 0 below alpha = 1 and
    +inf above. With grad or slope, returns (ln Q, gamma, dln Q): gamma (with
    grad) the derivative of ln Q with respect to the family's operator
    g(sigma) of `_sigma_spectrum_op`, the Hermitian matrix with d ln Q =
    Tr[gamma dg], given in the eigenbasis sv of sigma (sv^dagger gamma sv),
    and dln Q (with slope) the derivative of ln Q in alpha at fixed sigma,
    each None where Q is 0 or +inf or where it was not asked for.

    The cores take g divided by e^shift (`_sigma_spectrum_op`); ln Q adds
    shift back (alpha shift for sandwiched, whose trace functional is the
    alpha-th power of g's scale), and so does the sandwiched slope, where
    alpha times the scale's log is alpha-dependent while the core's
    dg/dalpha term counts it once."""
    f, shift = _sigma_spectrum_op(sw, alpha, variant)
    ln_q, gamma, dln_q = _FAMILY_Q[variant](blocks, sw, sv, f, alpha, grad, slope)
    sandwiched = variant == "sandwiched"
    ln_q += alpha * shift if sandwiched else shift
    if not (grad or slope):
        return ln_q
    if dln_q is not None and sandwiched:
        dln_q += shift
    return ln_q, gamma, dln_q


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


def _outside(blocks, sw, sv) -> bool:
    """Whether some block leaves the support of sigma (`operators.leaks` of
    the stack of block operators); free when sigma has full rank."""
    if _full_rank(sw):
        return False
    v = blocks.v
    return leaks((v * blocks.w[:, None, :]) @ v.conj().transpose(0, 2, 1), sw, sv)


def _divergence(blocks, sw, sv, alpha: float, variant: str, grad: bool = False,
                slope: bool = False):
    """D_alpha(rho || 1 (x) sigma) in bits for the block stack `blocks`
    (`operators.BlockSpectra`) and sigma = sv diag(sw) sv^dagger: D itself
    within _ALPHA_ONE_WINDOW of alpha = 1, +inf for every family where supp(rho) leaves supp(sigma) at
    alpha > 1 or the two are orthogonal at alpha < 1.

    With grad (alpha away from 1), returns (D, gamma), gamma the derivative
    of ln Q with respect to g(sigma) (`_ln_q`), None where D is infinite.
    With slope instead, returns (D, dD), dD the partial derivative of D_alpha
    in alpha at fixed sigma (`_renyi_and_slope`), None where D is infinite.
    Inside the window dD is the derivative at alpha = 1, V(rho || sigma) / 2,
    for petz and sandwiched; flat's is a Kubo-Mori variance, not computed
    here, so it is None."""
    _check_variant(variant)
    _check_alpha(alpha)
    if abs(alpha - 1.0) < _ALPHA_ONE_WINDOW:
        d = _relative_entropy(blocks, sw, sv)
        if grad:
            return d, None
        if slope:
            # petz and sandwiched D_alpha = D + (alpha - 1) V / 2 + O((alpha - 1)^2)
            finite = variant != "flat" and math.isfinite(d)
            return d, _variance(blocks, sw, sv) / 2.0 if finite else None
        return d
    if not _full_rank(sw):
        if alpha > 1.0:
            infinite = _outside(blocks, sw, sv)
        else:
            # sum_k Tr[P_rho_k P_sigma]
            overlap = np.vdot(blocks.support, blocks.overlaps(sv) @ support_mask(sw))
            infinite = float(overlap) <= SUPPORT_CUTOFF
        if infinite:
            return (math.inf, None) if grad or slope else math.inf
    if not (grad or slope):
        return _renyi_from_ln_q(_ln_q(blocks, sw, sv, alpha, variant), alpha)
    ln_q, gamma, dln_q = _ln_q(blocks, sw, sv, alpha, variant, grad, slope)
    if grad:
        return _renyi_from_ln_q(ln_q, alpha), gamma
    return _renyi_and_slope(ln_q, dln_q, alpha)


def _renyi_and_slope(ln_q: float, dln_q: float | None, alpha: float):
    """(D_alpha, dD_alpha/dalpha) in bits from ln Q_alpha and its
    alpha-derivative dln_q (`_ln_q`): D = ln Q / ((alpha - 1) ln 2), so
    dD = (dln_q / (alpha - 1) - ln Q / (alpha - 1)^2) / ln 2; the slope is
    None where D is infinite."""
    d = _renyi_from_ln_q(ln_q, alpha)
    if dln_q is None or not math.isfinite(d):
        return d, None
    a1 = alpha - 1.0
    return d, (dln_q / a1 - ln_q / (a1 * a1)) / LN2


def _relative_entropy(blocks, sw, sv) -> float:
    """D(rho || 1 (x) sigma) in bits; +inf where a block leaves supp(sigma)."""
    if _outside(blocks, sw, sv):
        return math.inf
    return _supported_relative_entropy(blocks, sw, sv)


def _supported_relative_entropy(blocks, sw, sv) -> float:
    """`_relative_entropy` of a block stack known to lie in supp(sigma):
    sum_k [sum w_k log2 w_k - Tr[rho_k log2 sigma]], the traces taken
    through the squared overlaps of the two eigenbases."""
    log_s = log2_on_support(sw)
    return float(np.vdot(blocks.w, blocks.log2w - blocks.overlaps(sv) @ log_s))


def _variance(blocks, sw, sv) -> float:
    """V(rho || 1 (x) sigma); raises where a block leaves supp(sigma). In
    each block's eigenbasis, diff = log2 rho_k - log2 sigma gives
    Tr[rho_k diff] = sum_i w_ki diff_ii and Tr[rho_k diff^2] =
    sum_i w_ki sum_j |diff_ij|^2."""
    if _outside(blocks, sw, sv):
        raise SupportViolationError("supp(rho) not contained in supp(sigma)")
    a = blocks.rotated(sv)
    diff = -(a * log2_on_support(sw)) @ a.conj().transpose(0, 2, 1)
    d = diff.shape[-1]
    diff[:, range(d), range(d)] += blocks.log2w
    first = float(np.vdot(blocks.w, np.diagonal(diff, axis1=1, axis2=2).real))
    second = float(np.vdot(blocks.w, np.sum((diff * diff.conj()).real, axis=2)))
    return LN2 * (second - first * first)


def _pair(rho, sigma):
    """(blocks, sw, sv) of a pair: rho as a one-block stack, of weight its
    trace, and the spectrum of sigma, each eigendecomposed at most once."""
    w, v = spectrum_of(rho)
    return (BlockSpectra([np.sum(w)], w[None], v[None]), *spectrum_of(sigma))


def relative_entropy(rho, sigma) -> float:
    """Umegaki relative entropy D(rho||sigma) in bits; +inf off support."""
    return _relative_entropy(*_pair(rho, sigma))


def q_alpha(rho, sigma, alpha: float, variant: str = "petz") -> float:
    """The trace functional Q_alpha of the chosen divergence family."""
    _check_variant(variant)
    _check_alpha(alpha)
    return _q_from_ln(_ln_q(*_pair(rho, sigma), alpha, variant))


def renyi_divergence(rho, sigma, alpha: float, variant: str = "petz") -> float:
    """D_alpha in bits for the petz/sandwiched/flat family; +inf as needed."""
    return _divergence(*_pair(rho, sigma), alpha, variant)


def relative_entropy_variance(rho, sigma) -> float:
    """V(rho||sigma); requires supp(rho) inside supp(sigma).

    Units: ln(2) times the base-2 variance of the log-likelihood ratio, so
    that the second derivative of the (base-2) cumulant E_0(s) at s = 0
    equals -V exactly. Entropies stay in bits; this is the one quantity
    reported in mixed units.
    """
    return _variance(*_pair(rho, sigma))


def d_max(rho, sigma) -> float:
    """Max-relative entropy: log2 of the smallest c with rho <= c sigma."""
    rho = check_hermitian(rho)
    sw, sv = spectrum_of(sigma)
    if leaks(rho, sw, sv):
        return math.inf
    isq = power_from_spectrum(sw, sv, -0.5)
    w, _ = eig_hermitian(isq @ rho @ isq)
    top = float(w[-1]) if w.size else 0.0
    if top <= 0.0:
        return -math.inf
    return math.log2(top)
