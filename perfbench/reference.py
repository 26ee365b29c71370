"""Reference values for the cqsw benchmark, computed with numpy and scipy only.

Nothing here imports cqsw. Each quantity is reached by its own route: dense
eigendecompositions from LAPACK (``numpy.linalg.eigh``) instead of the
library's eigensolver, the joint operator instead of per-block sums, the
Sibson and Gallager/Arimoto closed forms, and the dual programs of
Neyman-Pearson testing instead of a threshold bisection. All values are in
bits; a cq source is passed as ``(probs, rhos)`` with ``rhos`` a list of
density matrices.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import block_diag
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp

CUTOFF = 1e-12  # relative eigenvalue cutoff deciding the support
LN2 = math.log(2.0)
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


# ---- spectral helpers ------------------------------------------------------

def _eigh(a):
    a = np.asarray(a, dtype=np.complex128)
    return np.linalg.eigh((a + a.conj().T) / 2.0)


def _support_mask(w):
    top = float(np.max(np.abs(w))) if w.size else 0.0
    return w > CUTOFF * top


def mfun(a, fn):
    """fn applied to the eigenvalues on the support of a PSD matrix."""
    w, v = _eigh(a)
    on = _support_mask(w)
    out = np.zeros_like(w)
    out[on] = fn(w[on])
    return (v * out) @ v.conj().T


def mpow(a, p):
    return mfun(a, lambda w: w ** p)


def mlog2(a):
    return mfun(a, np.log2)


def support_basis(a):
    w, v = _eigh(a)
    return v[:, _support_mask(w)]


def entropy(a):
    w = np.linalg.eigvalsh(np.asarray(a, dtype=np.complex128))
    w = w[_support_mask(w)]
    return float(-np.sum(w * np.log2(w)))


def _tr(a):
    return float(np.real(np.trace(a)))


# ---- divergences of a pair -------------------------------------------------

def relative_entropy(rho, sigma):
    return _tr(rho @ (mlog2(rho) - mlog2(sigma)))


def relative_entropy_variance(rho, sigma):
    """ln(2) times the base-2 variance of the log-likelihood ratio."""
    diff = mlog2(rho) - mlog2(sigma)
    first = _tr(rho @ diff)
    return LN2 * (_tr(rho @ diff @ diff) - first * first)


def d_max(rho, sigma):
    isq = mpow(sigma, -0.5)
    return math.log2(float(np.linalg.eigvalsh(isq @ rho @ isq)[-1]))


def q_alpha(rho, sigma, alpha, family):
    """Trace functional of the petz, sandwiched or flat family.

    sigma must be full rank; rho may be rank deficient. The flat family
    compresses log(sigma) to the support of rho, which is the limit of the
    full-rank definition.
    """
    if family == "petz":
        return _tr(mpow(rho, alpha) @ mpow(sigma, 1.0 - alpha))
    if family == "sandwiched":
        half = mpow(sigma, (1.0 - alpha) / (2.0 * alpha))
        w = np.linalg.eigvalsh(half @ rho @ half)
        w = w[_support_mask(w)]
        return float(np.sum(w ** alpha))
    if family == "flat":
        basis = support_basis(rho)
        m = alpha * mlog2(basis.conj().T @ rho @ basis) \
            + (1.0 - alpha) * (basis.conj().T @ mlog2(sigma) @ basis)
        return float(np.sum(np.exp2(np.linalg.eigvalsh(m))))
    raise ValueError(family)


def renyi_divergence(rho, sigma, alpha, family):
    return math.log2(q_alpha(rho, sigma, alpha, family)) / (alpha - 1.0)


# ---- Neyman-Pearson testing through its dual programs ----------------------

def _positive_trace(blocks):
    """Sum of positive eigenvalues over a list of Hermitian blocks."""
    total = 0.0
    for a in blocks:
        w = np.linalg.eigvalsh(a)
        total += float(np.sum(w[w > 0.0]))
    return total


def _golden_max_concave(f, hi_start):
    """Maximum of a concave function on [0, inf) by bracketing and golden
    section; returns the value."""
    hi = hi_start
    while f(hi) > f(hi / 2.0) and hi < 1e60:
        hi *= 2.0
    a, b = 0.0, hi
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a <= 1e-15 * hi:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = f(d)
    return max(fc, fd, f(0.0))


def np_beta(blocks, eps):
    """Smallest type-II error sum Tr[Q sigma] over tests with type-I error at
    most eps, on block-diagonal pairs [(rho_i, sigma_i)]:
    max over t >= 0 of t (Tr rho - eps) - Tr[(t rho - sigma)_+]."""
    tr_rho = sum(_tr(r) for r, _ in blocks)
    return _golden_max_concave(
        lambda t: t * (tr_rho - eps) - _positive_trace([t * r - s for r, s in blocks]),
        1.0)


def hypothesis_testing_divergence(rho, sigma, eps):
    return -math.log2(np_beta([(rho, sigma)], eps))


def hat_alpha(blocks, mu):
    """Smallest type-I error over tests with Tr[Q sigma] <= mu:
    max over t >= 0 of Tr rho - Tr[(rho - t sigma)_+] - t mu."""
    tr_rho = sum(_tr(r) for r, _ in blocks)
    return _golden_max_concave(
        lambda t: tr_rho - _positive_trace([r - t * s for r, s in blocks]) - t * mu,
        1.0)


def classical_np_beta(p, q, eps):
    """Classical Neyman-Pearson: minimal Q-mass of a randomized test keeping
    P-mass at least 1 - eps, by sorting likelihood ratios P/Q."""
    p = np.asarray(p, dtype=float).ravel()
    q = np.asarray(q, dtype=float).ravel()
    keep = p > 0.0
    p, q = p[keep], q[keep]
    ratio = np.where(q > 0.0, p / np.where(q > 0.0, q, 1.0), np.inf)
    order = np.argsort(-ratio, kind="stable")
    need = float(np.sum(p)) - eps
    beta = 0.0
    for i in order:
        if need <= 0.0:
            break
        take = min(1.0, need / p[i])
        beta += take * q[i]
        need -= take * p[i]
    return beta


# ---- cq sources ------------------------------------------------------------

def marginal_b(probs, rhos):
    return sum(p * np.asarray(r) for p, r in zip(probs, rhos))


def joint(probs, rhos):
    return block_diag(*[p * np.asarray(r, dtype=np.complex128)
                        for p, r in zip(probs, rhos)])


def _id_x_tensor(probs, sigma_b):
    return np.kron(np.eye(len(probs)), sigma_b)


def conditional_entropy(probs, rhos):
    """H(X|B) = S(XB) - S(B) from the joint operator."""
    return entropy(joint(probs, rhos)) - entropy(marginal_b(probs, rhos))


def conditional_variance(probs, rhos):
    rho_xb = joint(probs, rhos)
    return relative_entropy_variance(rho_xb, _id_x_tensor(probs, marginal_b(probs, rhos)))


def h_down(probs, rhos, alpha, family="petz"):
    """-D_alpha(rho_XB || 1_X (x) rho_B) from the joint operator."""
    rho_xb = joint(probs, rhos)
    sigma = _id_x_tensor(probs, marginal_b(probs, rhos))
    return -renyi_divergence(rho_xb, sigma, alpha, family)


def h_up_petz(probs, rhos, alpha):
    """Sibson closed form (alpha/(1-alpha)) log2 Tr[(sum_x (p rho)^alpha)^(1/alpha)]."""
    acc = sum(mpow(p * np.asarray(r), alpha) for p, r in zip(probs, rhos) if p > 0)
    return alpha / (1.0 - alpha) * math.log2(_tr(mpow(acc, 1.0 / alpha)))


def _qubit_log_eigs_of_sum(probs, rhos, alpha):
    """Logs of both eigenvalues of sum_x (p_x rho_x)^alpha for qubit blocks.

    At large alpha the eigenvalues of the sum span more than double
    precision, so the small one is taken as det / largest, with the
    determinant expanded into positive terms and summed in log space:
    det(sum_x A_x) = sum_x det A_x + sum_{x<y} Tr[adj(A_x) A_y].
    """
    logs, vecs = [], []
    for p, r in zip(probs, rhos):
        if p <= 0:
            continue
        w, v = _eigh(p * np.asarray(r))
        with np.errstate(divide="ignore"):
            logs.append(np.where(_support_mask(w), alpha * np.log(np.clip(w, 1e-300, None)), -np.inf))
        vecs.append(v)
    terms = [la[0] + la[1] for la in logs]
    for x in range(len(logs)):
        for y in range(x + 1, len(logs)):
            overlap = np.abs(vecs[x].conj().T @ vecs[y]) ** 2
            with np.errstate(divide="ignore"):
                for i in range(2):
                    for j in range(2):
                        terms.append(logs[x][1 - i] + logs[y][j] + math.log(overlap[i, j])
                                     if overlap[i, j] > 0 else -np.inf)
    shift = max(float(np.max(la)) for la in logs)
    scaled = sum((v * np.exp(la - shift)) @ v.conj().T for la, v in zip(logs, vecs))
    log_max = shift + math.log(float(np.linalg.eigvalsh(scaled)[-1]))
    return log_max, float(logsumexp(terms)) - log_max


def sibson_e0(probs, rhos, s):
    """E_0(s) = -log2 Tr[(sum_x (p_x rho_x)^(1/(1+s)))^(1+s)]."""
    if s == 0.0:
        return 0.0
    if np.asarray(rhos[0]).shape[0] == 2:
        log_max, log_min = _qubit_log_eigs_of_sum(probs, rhos, 1.0 / (1.0 + s))
        return -float(logsumexp([(1.0 + s) * log_max, (1.0 + s) * log_min])) / LN2
    acc = sum(mpow(p * np.asarray(r), 1.0 / (1.0 + s)) for p, r in zip(probs, rhos) if p > 0)
    return -math.log2(_tr(mpow(acc, 1.0 + s)))


def sibson_e0_down(probs, rhos, s):
    """E_0 down-arrow form: -s H_(1-s) with sigma_B fixed to the marginal."""
    if s == 0.0:
        return 0.0
    beta = 1.0 - s
    rho_b = marginal_b(probs, rhos)
    q = sum(_tr(mpow(p * np.asarray(r), beta) @ mpow(rho_b, 1.0 - beta))
            for p, r in zip(probs, rhos) if p > 0)
    return -s * math.log2(q) / (1.0 - beta)


def classical_joint(probs, rhos):
    """P(x, b) of a commuting source whose side information is diagonal."""
    return np.array([p * np.real(np.diag(r)) for p, r in zip(probs, rhos)])


def gallager_e0(pxb, s):
    """Gallager's source-coding E_0 with side information (Arimoto form):
    -log2 sum_b (sum_x P(x,b)^(1/(1+s)))^(1+s)."""
    inner = np.sum(pxb ** (1.0 / (1.0 + s)), axis=0)
    return -math.log2(float(np.sum(inner ** (1.0 + s))))


def gallager_e0_down(pxb, s):
    """-s H_(1-s) with the classical marginal: the fixed-sigma form."""
    if s == 0.0:
        return 0.0
    beta = 1.0 - s
    pb = np.sum(pxb, axis=0)
    on = pxb > 0
    q = float(np.sum(np.where(on, pxb, 1.0) ** beta * on * pb[None, :] ** (1.0 - beta)))
    return -s * math.log2(q) / (1.0 - beta)


# ---- exponents as Legendre transforms of E_0 ---------------------------------

S_RANGE = {
    "random_coding": (0.0, 1.0),
    "random_coding_down": (0.0, 1.0),
    "sphere_packing": (0.0, 99.0),
    # alpha = 1/(1+s) in (1, 64]
    "strong_converse": (1.0 / 64.0 - 1.0, 0.0),
}


def _maximize(e0, rate, kind):
    """(s, value) maximizing E_0(s) + s R over the kind's s-range; E_0 is
    concave, so a bounded scalar search finds the maximum."""
    lo, hi = S_RANGE[kind]
    res = minimize_scalar(lambda s: -(e0(s) + s * rate), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-11})
    return float(res.x), -float(res.fun)


def exponent(e0, rate, kind):
    """sup over the kind's s-range of E_0(s) + s R, clamped at 0."""
    lo, hi = S_RANGE[kind]
    ends = [e0(s) + s * rate for s in (lo, hi) if s != 0.0]
    return max([_maximize(e0, rate, kind)[1], 0.0] + ends)


def argmax_s(e0, rate, kind):
    return _maximize(e0, rate, kind)[0]


def slope(e0, s, h=1e-4):
    """dE_0/ds by a Richardson-refined central difference."""
    def diff(step):
        return (e0(s + step) - e0(s - step)) / (2.0 * step)
    return (4.0 * diff(h / 2.0) - diff(h)) / 3.0


# ---- n-fold sources and codes ----------------------------------------------

def nfold(probs, rhos, n):
    """Weights and side-information matrices of the n-fold source, in the
    lexicographic order of the length-n strings."""
    ws, ms = [1.0], [np.ones((1, 1), dtype=np.complex128)]
    for _ in range(n):
        ws = [w * p for w in ws for p in probs]
        ms = [np.kron(m, np.asarray(r)) for m in ms for r in rhos]
    return ws, ms


def code_success(probs, rhos, n, encoder, decoder):
    """Success probability of a code: sum_i p_i Tr[Pi^{bin(i)}_i rho_i]."""
    ws, ms = nfold(probs, rhos, n)
    total = 0.0
    for i, (w, m) in enumerate(zip(ws, ms)):
        pi = decoder[int(encoder[i])].get(i)
        if pi is not None:
            total += w * _tr(np.asarray(pi) @ m)
    return total


def h0_petz(probs, rhos):
    """H_0 up-arrow: log2 of the largest eigenvalue of the sum of supports."""
    acc = sum(mpow(np.asarray(r), 0.0) for p, r in zip(probs, rhos) if p > 0)
    return math.log2(float(np.linalg.eigvalsh(acc)[-1]))
