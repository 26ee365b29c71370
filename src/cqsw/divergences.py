"""Relative entropy, three Renyi divergence families, the relative entropy
variance, and the max-relative entropy. All values in bits; +inf is
represented by math.inf.

One core computes every divergence here: that of a block-diagonal
rho = (+)_x rho_x against 1_X (x) sigma, from the spectra (p, w, v) of the
blocks (`CQState.block_spectra`, with p the trace of the block) and the
spectrum (sw, sv) of sigma. A single pair (rho, sigma) is the one-block
case, which the public functions below pass; `conditional` passes the
blocks of a cq state, and its optimizer the candidate states sigma_B.
"""

from __future__ import annotations

import math

import numpy as np

from cqsw.errors import InvalidAlphaError, SupportViolationError
from cqsw.operators import (
    LN2,
    SUPPORT_CUTOFF,
    _as_matrix,
    _full_rank,
    eig_hermitian,
    intersection_basis,
    leaks,
    log2_from_spectrum,
    log2_on_support,
    power_from_spectrum,
    spectrum_of,
    support_mask,
    wlog2w,
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


def _spectral_q(rw: np.ndarray, rv: np.ndarray, sigma_op: np.ndarray, alpha: float,
                variant: str, sigma_support: np.ndarray | None = None, grad: bool = False,
                slope: bool = False):
    """ln Q_alpha of a PSD rho = rv diag(rw) rv^dagger against the family's
    operator sigma_op of sigma (`_ln_q`), before its ln_scale is added.
    This is the one implementation of the three families, for single pairs
    and cq blocks.

    Returns (ln q, kept, gamma, dq), ln q = -inf where q = 0. The flat
    family restricts both operators to the support of rho, intersected with
    sigma_support (the support projector of sigma; None when sigma has full
    rank), and compresses log2 rho and log2 sigma to that subspace; kept is
    the trace of rho there. For the other families kept is the trace of rho.

    gamma is None unless grad or slope is set and q > 0. It is then the
    derivative of ln q with respect to g(sigma) (the operator
    `_sigma_spectrum_op` describes; for sandwiched the square of sigma_op):
    the Hermitian gamma with d ln q = Tr[gamma dg], built from the spectra
    the value takes. dq is None unless slope is set and q > 0. It is then
    the partial derivative of ln q in alpha with sigma_op held fixed:
    Tr[rho^a ln rho g] / q (petz), sum_i w_i ln s_i^2 over the weights
    w_i = s_i^(2a) / q of the singular values s of sigma_op rho^(1/2)
    (sandwiched), ln 2 Tr[2^M (log2 rho - log2 sigma)] / Tr 2^M (flat).
    """
    grad = grad or slope
    if variant == "petz":
        # Tr[A B] of Hermitian A, B is vdot(A, B), with no product matrix
        ra = power_from_spectrum(rw, rv, alpha)
        q = np.vdot(sigma_op, ra).real
        trace = float(rw.sum())
        if q <= 0.0:
            return -math.inf, trace, None, None
        dq = None
        if slope:
            on = support_mask(rw)
            rl = np.zeros_like(rw)
            rl[on] = rw[on] ** alpha * np.log(rw[on])
            dq = np.vdot(sigma_op, (rv * rl) @ rv.conj().T).real / q
        return math.log(q), trace, ra / q if grad else None, dq
    if variant == "sandwiched":
        # spectrum of sigma^e rho sigma^e (e = (1-alpha)/(2alpha)) via the
        # singular values of sigma^e rho^(1/2): squaring the singular values
        # resolves eigenvalues far below the noise floor of the product
        # matrix itself, which matters when alpha < 1 because w ** alpha
        # keeps tiny eigenvalues relevant
        half = power_from_spectrum(rw, rv, 0.5)
        if grad:
            _, sv, wh = np.linalg.svd(sigma_op @ half)
        else:
            sv = np.linalg.svd(sigma_op @ half, compute_uv=False)
        scale = float(sv[0]) if sv.size else 0.0
        keep = sv > SUPPORT_CUTOFF * scale
        if not np.any(keep):
            return -math.inf, float(np.sum(rw)), None, None
        # sum sv^(2 alpha) = scale^(2 alpha) sum (sv/scale)^(2 alpha)
        ratio = sv[keep] / scale
        powers = ratio ** (2.0 * alpha)
        total = float(np.sum(powers))
        ln_q = 2.0 * alpha * math.log(scale) + math.log(total)
        if not grad:
            return ln_q, float(np.sum(rw)), None, None
        # d Tr[(rho^1/2 g rho^1/2)^alpha] = alpha Tr[rho^1/2 W s^(2alpha-2)
        # W^dagger rho^1/2 dg], W the right singular vectors; over q
        y = half @ (wh[keep].conj().T * (ratio ** (alpha - 1.0) / (scale * math.sqrt(total))))
        dq = float(powers @ (2.0 * np.log(sv[keep]))) / total if slope else None
        return ln_q, float(np.sum(rw)), alpha * (y @ y.conj().T), dq
    on = support_mask(rw)
    if sigma_support is None:
        # in the eigenbasis of rho its compression is diagonal
        basis = rv[:, on]
        log_rho = np.diag(np.log2(rw[on]))
        kept = float(np.sum(rw[on]))
    else:
        basis = intersection_basis(power_from_spectrum(rw, rv, 0.0), sigma_support)
        log_rho = basis.conj().T @ log2_from_spectrum(rw, rv) @ basis
        kept = float(np.real(np.trace(basis.conj().T @ ((rv * rw) @ rv.conj().T) @ basis)))
    if basis.shape[1] == 0:
        return -math.inf, 0.0, None, None
    log_sigma = basis.conj().T @ sigma_op @ basis
    mw, mv = eig_hermitian(alpha * log_rho + (1.0 - alpha) * log_sigma)
    top = float(mw[-1])
    e = np.exp2(mw - top)
    ln_q = top * LN2 + math.log(float(np.sum(e)))
    if not grad:
        return ln_q, kept, None, None
    weights = e / np.sum(e)
    dq = None
    if slope:
        # dM / dalpha = log2 rho - log2 sigma, in the eigenbasis of M
        dm = np.real(np.einsum("ji,jk,ki->i", mv.conj(), log_rho - log_sigma, mv))
        dq = LN2 * float(weights @ dm)
    # d Tr 2^M = ln2 Tr[2^M dM], dM = (1-alpha) basis^dagger dg basis
    pm = basis @ mv
    return ln_q, kept, (1.0 - alpha) * LN2 * ((pm * weights) @ pm.conj().T), dq


def _log_sum(logs) -> float:
    """ln sum_i e^(logs_i) of the few per-block values; -inf when all are."""
    top = max(logs, default=-math.inf)
    if top == -math.inf:
        return top
    return top + math.log(sum(math.exp(x - top) for x in logs))


def _ln_q(blocks, sw, sv, alpha: float, variant: str, grad: bool = False,
          slope: bool = False):
    """ln Q_alpha(rho || 1 (x) sigma) for the block spectra `blocks` and
    sigma = sv diag(sw) sv^dagger; -inf where Q = 0, nan where Q = +inf.

    The flat family keeps of each block only its part on the support of
    sigma; with part of the trace of rho cut off, Q is 0 below alpha = 1
    and +inf above. With grad or slope, returns (ln Q, gamma, dln Q):
    gamma (with grad) the derivative of ln Q with respect to the family's
    operator g(sigma) of `_sigma_spectrum_op`, and dln Q (with slope) the
    derivative of ln Q in alpha at fixed sigma, each the blocks' values
    weighted by their shares of Q, and None where Q is 0 or +inf or where
    it was not asked for.

    The alpha-derivative adds to each block's `_spectral_q` partial at
    fixed g the term Tr[gamma dg/dalpha], dg/dalpha = -g ln sigma (petz) or
    -g ln sigma / alpha^2 (sandwiched; flat g does not depend on alpha),
    and for sandwiched the scale of g, whose share of ln Q is alpha times
    it while a block's partial counts it once."""
    support = None
    if variant == "flat" and not _full_rank(sw):
        support = power_from_spectrum(sw, sv, 0.0)
    # sigma_op is g(sigma) / e^shift (`_sigma_spectrum_op`), except for the
    # sandwiched family, where it is the square root of that, sigma^(e/2)
    # with e = (1-alpha)/alpha, the factor on either side of rho
    f, shift = _sigma_spectrum_op(sw, alpha, variant)
    sandwiched = variant == "sandwiched"
    sigma_op = (sv * (np.sqrt(f) if sandwiched else f)) @ sv.conj().T
    ln_scale = alpha * shift if sandwiched else shift
    parts = [_spectral_q(w, v, sigma_op, alpha, variant, support, grad, slope)
             for _, w, v in blocks]
    if variant == "flat":
        trace = sum(p for p, _, _ in blocks)
        if sum(part[1] for part in parts) < (1.0 - _FLAT_TRACE_SLACK) * trace:
            ln_q = -math.inf if alpha < 1.0 else math.nan
            return (ln_q, None, None) if grad or slope else ln_q
    ln_q = _log_sum([part[0] for part in parts])
    if not (grad or slope):
        return ln_q + ln_scale
    if ln_q == -math.inf:
        return ln_q, None, None
    live = [(math.exp(part[0] - ln_q), part) for part in parts if part[0] > -math.inf]
    gamma = sum(share * part[2] for share, part in live) if grad else None
    dln_q = None
    if slope:
        dln_q = 0.0
        g_dot = None
        if variant != "flat":
            g_dot = -(sv * (f * LN2 * log2_on_support(sw))) @ sv.conj().T
            if sandwiched:
                g_dot /= alpha * alpha
                dln_q = shift
        for share, part in live:
            chain = 0.0 if g_dot is None else np.vdot(g_dot, part[2]).real
            dln_q += share * (part[3] + chain)
    return ln_q + ln_scale, gamma, dln_q


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
    """Whether some block leaves the support of sigma (`leaks`); free when
    sigma has full rank."""
    if _full_rank(sw):
        return False
    return any(leaks((v * w) @ v.conj().T, sw, sv) for _, w, v in blocks)


def _divergence(blocks, sw, sv, alpha: float, variant: str, grad: bool = False,
                slope: bool = False):
    """D_alpha(rho || 1 (x) sigma) in bits for the block spectra `blocks`
    and sigma = sv diag(sw) sv^dagger: D itself within _ALPHA_ONE_WINDOW of
    alpha = 1, +inf for every family where supp(rho) leaves supp(sigma) at
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
            ps = power_from_spectrum(sw, sv, 0.0)
            overlap = sum(float(np.real(np.sum(power_from_spectrum(w, v, 0.0) * ps.T)))
                          for _, w, v in blocks)
            infinite = overlap <= SUPPORT_CUTOFF
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
    """`_relative_entropy` of blocks known to lie in supp(sigma). Each block
    contributes sum w log2 w - Tr[rho_x log2 sigma], the trace taken through
    the overlaps of the two eigenbases."""
    log_s = log2_on_support(sw)
    total = 0.0
    for _, w, v in blocks:
        overlap = np.abs(v.conj().T @ sv) ** 2
        total += wlog2w(w) - float(w @ overlap @ log_s)
    return total


def _variance(blocks, sw, sv) -> float:
    """V(rho || 1 (x) sigma); raises where a block leaves supp(sigma). In
    each block's eigenbasis, diff = log2 rho_x - log2 sigma gives
    Tr[rho_x diff] = sum_i w_i diff_ii and Tr[rho_x diff^2] =
    sum_i w_i sum_j |diff_ij|^2."""
    if _outside(blocks, sw, sv):
        raise SupportViolationError("supp(rho) not contained in supp(sigma)")
    log_s = log2_on_support(sw)
    first = 0.0
    second = 0.0
    for _, w, v in blocks:
        o = v.conj().T @ sv
        diff = -(o * log_s) @ o.conj().T
        diff[np.diag_indices_from(diff)] += log2_on_support(w)
        first += float(w @ np.real(np.diag(diff)))
        second += float(w @ np.sum(np.abs(diff) ** 2, axis=1))
    return LN2 * (second - first * first)


def _pair(rho, sigma):
    """(blocks, sw, sv) of a pair: rho as a one-block source, of weight its
    trace, and the spectrum of sigma, each eigendecomposed at most once."""
    w, v = spectrum_of(rho)
    return ([(float(np.sum(w)), w, v)], *spectrum_of(sigma))


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
    sw, sv = spectrum_of(sigma)
    if leaks(rho, sw, sv):
        return math.inf
    isq = power_from_spectrum(sw, sv, -0.5)
    rho = _as_matrix(rho)
    w, _ = eig_hermitian(isq @ rho @ isq)
    top = float(w[-1]) if w.size else 0.0
    if top <= 0.0:
        return -math.inf
    return math.log2(top)
