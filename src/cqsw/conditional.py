"""Conditional Renyi entropies of a classical-quantum source.

Everything here exploits the block-diagonal joint operator: a divergence
against 1_X (x) sigma_B splits into one small computation per symbol, so no
|X| d_B sized matrix is ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from cqsw.errors import MethodUnsupportedError, NoConvergenceError
from cqsw.operators import (
    DEFAULT_POLICY,
    eig_hermitian,
    intersection_projector,
    spectral_log2,
    spectral_power,
    support_contained,
    support_projector,
)
from cqsw.states import CQState, DensityOperator, marginal_b

_ALPHA_ONE_WINDOW = 1e-6
_FLAT_TRACE_SLACK = 1e-9
_FD_STEP = 1e-5


@dataclass
class OptimizerReport:
    sigma_star: DensityOperator
    value: float
    iterations: int
    residual: float


def von_neumann_entropy(m) -> float:
    """Entropy in bits of a PSD operator (eigenvalues below cutoff ignored)."""
    m = np.asarray(getattr(m, "matrix", m), dtype=np.complex128)
    w, _ = eig_hermitian(m)
    cutoff = DEFAULT_POLICY.relative_cutoff * float(np.max(np.abs(w))) if w.size else 0.0
    on = w > cutoff
    return float(-np.sum(w[on] * np.log2(w[on])))


def _blocks(s: CQState):
    return s.blocks()


def cq_relative_entropy(s: CQState, sigma_b) -> float:
    """D(rho_XB || 1_X (x) sigma_B) in bits, computed per block."""
    sigma_b = np.asarray(getattr(sigma_b, "matrix", sigma_b), dtype=np.complex128)
    log_sigma = spectral_log2(sigma_b)
    total = 0.0
    for p, r in _blocks(s):
        blk = p * r
        if not support_contained(blk / p, sigma_b):
            return math.inf
        w, v = eig_hermitian(blk)
        cutoff = DEFAULT_POLICY.relative_cutoff * float(np.max(np.abs(w)))
        on = w > cutoff
        total += float(np.sum(w[on] * np.log2(w[on])))
        total -= float(np.real(np.trace(blk @ log_sigma)))
    return total


def cq_variance(s: CQState, sigma_b) -> float:
    """V(rho_XB || 1_X (x) sigma_B) per block.

    Same unit convention as relative_entropy_variance: scaled by ln(2) so
    the second derivative of E_0 at s = 0 equals -V with E_0 in bits.
    """
    sigma_b = np.asarray(getattr(sigma_b, "matrix", sigma_b), dtype=np.complex128)
    log_sigma = spectral_log2(sigma_b)
    first = 0.0
    second = 0.0
    for p, r in _blocks(s):
        blk = p * r
        diff = spectral_log2(blk) - log_sigma
        first += float(np.real(np.trace(blk @ diff)))
        second += float(np.real(np.trace(blk @ diff @ diff)))
    return math.log(2.0) * (second - first * first)


def _is_full_rank(m) -> bool:
    w, _ = eig_hermitian(m)
    return bool(w.size) and float(w[0]) > DEFAULT_POLICY.relative_cutoff * float(w[-1])


def _flat_block_q(blk, sigma_b, alpha, log_sigma_full=None):
    if log_sigma_full is not None:
        # fast path: sigma is full rank, so the intersection of supports is
        # the support of the block
        bw, bv = eig_hermitian(blk)
        cut = DEFAULT_POLICY.relative_cutoff * float(np.max(np.abs(bw)))
        if float(bw[0]) > cut:
            log_blk = (bv * np.log2(bw)) @ bv.conj().T
            m = alpha * log_blk + (1.0 - alpha) * log_sigma_full
            mw, _ = eig_hermitian(m)
            return float(np.sum(np.exp2(mw))), float(np.sum(bw))
        basis = bv[:, bw > cut]
        if basis.shape[1] == 0:
            return 0.0, 0.0
        blk_p = basis.conj().T @ blk @ basis
        sig_p = basis.conj().T @ sigma_b @ basis
        kept = float(np.real(np.trace(blk_p)))
        m = alpha * spectral_log2(blk_p) + (1.0 - alpha) * spectral_log2(sig_p)
        mw, _ = eig_hermitian(m)
        return float(np.sum(np.exp2(mw))), kept
    proj = intersection_projector(blk, sigma_b)
    w, v = eig_hermitian(proj)
    basis = v[:, w > 0.5]
    if basis.shape[1] == 0:
        return 0.0, 0.0
    blk_p = basis.conj().T @ blk @ basis
    sig_p = basis.conj().T @ sigma_b @ basis
    kept = float(np.real(np.trace(blk_p)))
    m = alpha * spectral_log2(blk_p) + (1.0 - alpha) * spectral_log2(sig_p)
    mw, _ = eig_hermitian(m)
    return float(np.sum(np.exp2(mw))), kept


def cq_q_alpha(s: CQState, sigma_b, alpha: float, variant: str) -> float:
    """Q_alpha(rho_XB || 1_X (x) sigma_B) by summing per-symbol blocks."""
    sigma_b = np.asarray(getattr(sigma_b, "matrix", sigma_b), dtype=np.complex128)
    if variant == "petz":
        sa = spectral_power(sigma_b, 1.0 - alpha)
        return float(sum(
            np.real(np.trace(spectral_power(p * r, alpha) @ sa))
            for p, r in _blocks(s)
        ))
    if variant == "sandwiched":
        # singular values of sigma^(e/2) blk^(1/2) square to the eigenvalues
        # of the sandwiched operator and resolve values far below the noise
        # floor of the assembled product, which matters when alpha < 1
        seh = spectral_power(sigma_b, (1.0 - alpha) / (2.0 * alpha))
        total = 0.0
        for p, r in _blocks(s):
            a = seh @ spectral_power(p * r, 0.5)
            sv = np.linalg.svd(a, compute_uv=False)
            scale = float(sv[0]) if sv.size else 0.0
            keep = sv > DEFAULT_POLICY.relative_cutoff * scale
            total += float(np.sum(sv[keep] ** (2.0 * alpha)))
        return total
    if variant == "flat":
        log_sigma_full = None
        sw, sv = eig_hermitian(sigma_b)
        if sw.size and float(sw[0]) > DEFAULT_POLICY.relative_cutoff * float(sw[-1]):
            log_sigma_full = (sv * np.log2(sw)) @ sv.conj().T
        total = 0.0
        kept = 0.0
        for p, r in _blocks(s):
            q, k = _flat_block_q(p * r, sigma_b, alpha, log_sigma_full)
            total += q
            kept += k
        if kept < 1.0 - _FLAT_TRACE_SLACK:
            return 0.0 if alpha < 1.0 else math.nan
        return total
    raise ValueError(f"unknown variant {variant!r}")


def cq_renyi(s: CQState, sigma_b, alpha: float, variant: str = "petz") -> float:
    """D_alpha(rho_XB || 1_X (x) sigma_B) for the chosen family."""
    if abs(alpha - 1.0) < _ALPHA_ONE_WINDOW:
        return cq_relative_entropy(s, sigma_b)
    sigma_b = np.asarray(getattr(sigma_b, "matrix", sigma_b), dtype=np.complex128)
    if not _is_full_rank(sigma_b):
        # rank-deficient sigma: explicit support conditions
        if alpha > 1.0:
            for p, r in _blocks(s):
                if not support_contained(r, sigma_b):
                    return math.inf
        else:
            ps = support_projector(sigma_b)
            overlap = sum(
                float(np.real(np.trace(support_projector(r) @ ps)))
                for p, r in _blocks(s)
            )
            if overlap <= DEFAULT_POLICY.relative_cutoff:
                return math.inf
    q = cq_q_alpha(s, sigma_b, alpha, variant)
    if math.isnan(q):
        return math.inf
    if q <= 0.0:
        return math.inf if alpha < 1.0 else -math.inf
    return math.log2(q) / (alpha - 1.0)


def conditional_entropy(s: CQState) -> float:
    """H(X|B) in bits."""
    return -cq_relative_entropy(s, marginal_b(s))


def conditional_variance(s: CQState) -> float:
    """V(X|B) in bits squared."""
    return cq_variance(s, marginal_b(s))


def _richardson_zero_limit(f):
    """Extrapolate f(alpha) to alpha = 0 from a geometric grid."""
    grid = (1e-1, 1e-2, 1e-3)
    vals = [f(a) for a in grid]
    if any(math.isinf(v) for v in vals):
        return vals[-1]
    # linear-in-alpha model on the last two points
    return (10.0 * vals[2] - vals[1]) / 9.0


def h_down(s: CQState, alpha: float, variant: str = "petz") -> float:
    """Conditional Renyi entropy with sigma_B fixed to the marginal."""
    rho_b = marginal_b(s)
    if alpha == 0.0:
        return _richardson_zero_limit(lambda a: -cq_renyi(s, rho_b, a, variant))
    return -cq_renyi(s, rho_b, alpha, variant)


def petz_sigma_star(s: CQState, alpha: float) -> DensityOperator:
    """Optimizer of the petz conditional entropy: normalized (sum_x (p rho)^a)^(1/a)."""
    acc = np.zeros((s.dim_b, s.dim_b), dtype=np.complex128)
    for p, r in _blocks(s):
        acc += spectral_power(p * r, alpha)
    # the normalization cancels any scale of acc; dividing its eigenvalues
    # by the largest first keeps the power 1/alpha from overflowing at small
    # alpha
    w, v = eig_hermitian(acc)
    on = w > DEFAULT_POLICY.relative_cutoff * float(w[-1])
    m = (v[:, on] * (w[on] / w[-1]) ** (1.0 / alpha)) @ v[:, on].conj().T
    return DensityOperator(m / np.real(np.trace(m)), check=False)


def petz_h0(s: CQState) -> float:
    """H_0 up-arrow of the petz family in closed form: log2 of the largest
    eigenvalue of sum_x Pi_x over the supports of the nonzero-probability
    blocks; classically log2 max_b |supp P_(X|B=b)|."""
    acc = sum(support_projector(r) for _, r in _blocks(s))
    w, _ = eig_hermitian(acc)
    return math.log2(float(w[-1]))


def _traceless_basis(d: int):
    basis = []
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=np.complex128)
            m[i, j] = m[j, i] = 1.0
            basis.append(m)
            m = np.zeros((d, d), dtype=np.complex128)
            m[i, j] = -1j
            m[j, i] = 1j
            basis.append(m)
    for k in range(1, d):
        m = np.zeros((d, d), dtype=np.complex128)
        for i in range(k):
            m[i, i] = 1.0
        m[k, k] = -float(k)
        basis.append(m / math.sqrt(k * (k + 1)))
    return basis


def _sigma_from_params(x, basis, d):
    k = np.zeros((d, d), dtype=np.complex128)
    for c, b in zip(x, basis):
        k += c * b
    w, v = eig_hermitian(k)
    w = w - np.max(w)
    e = np.exp(w)
    m = (v * e) @ v.conj().T
    return m / np.real(np.trace(m))


def _iterate_h_up(s, alpha, variant, restarts, x0=None, seed=7):
    d = s.dim_b
    basis = _traceless_basis(d)
    npar = len(basis)
    rng = np.random.default_rng(seed)

    def objective(x):
        val = cq_renyi(s, _sigma_from_params(x, basis, d), alpha, variant)
        return val if math.isfinite(val) else 1e6

    def grad(x):
        g = np.zeros(npar)
        for i in range(npar):
            e = np.zeros(npar)
            e[i] = _FD_STEP
            g[i] = (objective(x + e) - objective(x - e)) / (2.0 * _FD_STEP)
        return g

    starts = []
    if x0 is not None:
        starts.append(np.asarray(x0, dtype=float))
    starts.append(np.zeros(npar))
    while len(starts) < max(restarts, 1):
        starts.append(rng.standard_normal(npar))

    best = None
    for start in starts[: max(restarts, 1)]:
        res = minimize(objective, start, jac=grad, method="L-BFGS-B",
                       options={"maxiter": 200, "ftol": 1e-14, "gtol": 1e-10})
        if best is None or res.fun < best.fun - 1e-15:
            best = res
    residual = float(np.max(np.abs(best.jac))) if best.jac is not None else math.nan
    return best, basis, d, residual


def h_up(s: CQState, alpha: float, variant: str = "petz",
         method: str | None = None, restarts: int = 10,
         sigma0_params=None) -> OptimizerReport:
    """Conditional Renyi entropy maximized over the side-information state."""
    if alpha == 0.0:
        rep = h_up(s, 1e-3, variant, method, restarts, sigma0_params)
        if variant == "petz":
            val = petz_h0(s)
        else:
            val = _richardson_zero_limit(
                lambda a: h_up(s, a, variant, method, restarts, sigma0_params).value
            )
        return OptimizerReport(rep.sigma_star, val, rep.iterations, rep.residual)
    if abs(alpha - 1.0) < _ALPHA_ONE_WINDOW:
        return OptimizerReport(marginal_b(s), conditional_entropy(s), 0, 0.0)
    if method is None:
        method = "closed_form" if variant == "petz" else "iterate"
    if method == "closed_form":
        if variant != "petz":
            raise MethodUnsupportedError("closed form applies to the petz family only")
        sig = petz_sigma_star(s, alpha)
        return OptimizerReport(sig, -cq_renyi(s, sig, alpha, "petz"), 0, 0.0)
    if method == "iterate":
        res, basis, d, residual = _iterate_h_up(s, alpha, variant, restarts,
                                                x0=sigma0_params)
        if not math.isfinite(res.fun):
            raise NoConvergenceError("optimizer produced no finite value")
        sig = DensityOperator(_sigma_from_params(res.x, basis, d), check=False)
        rep = OptimizerReport(sig, -float(res.fun), int(res.nit), residual)
        rep.params = res.x
        return rep
    if method == "grid":
        if s.dim_b != 2:
            raise MethodUnsupportedError("grid search supports qubit side information only")
        return _grid_h_up(s, alpha, variant)
    raise MethodUnsupportedError(f"unknown method {method!r}")


def _bloch_sigma_batch(points):
    """(N,3) Bloch vectors to (N,2,2) density matrices."""
    n = points.shape[0]
    out = np.zeros((n, 2, 2), dtype=np.complex128)
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    out[:, 0, 0] = (1.0 + z) / 2.0
    out[:, 1, 1] = (1.0 - z) / 2.0
    out[:, 0, 1] = (x - 1j * y) / 2.0
    out[:, 1, 0] = (x + 1j * y) / 2.0
    return out


def _batched_cq_renyi(s, sigmas, alpha, variant):
    """D_alpha against a batch of qubit sigma_B candidates (oracle path).

    Uses the library eigensolver batched; this is an independent route from
    cq_renyi and is meant for cross-checks.
    """
    w, v = np.linalg.eigh(sigmas)
    w = np.clip(w, 0.0, None)
    n = sigmas.shape[0]
    q = np.zeros(n)
    if variant == "petz":
        e = (1.0 - alpha)
        pw = np.where(w > 1e-15, w, 1.0) ** e * (w > 1e-15)
        spow = np.einsum("nij,nj,nkj->nik", v, pw, v.conj())
        for p, r in _blocks(s):
            ra = spectral_power(p * r, alpha)
            q += np.real(np.einsum("ij,nji->n", ra, spow))
    elif variant == "sandwiched":
        e = (1.0 - alpha) / alpha
        pw = np.where(w > 1e-15, w, 1.0) ** e * (w > 1e-15)
        spow = np.einsum("nij,nj,nkj->nik", v, pw, v.conj())
        for p, r in _blocks(s):
            half = spectral_power(p * r, 0.5)
            mid = np.einsum("ij,njk,kl->nil", half, spow, half)
            mw, mv = np.linalg.eigh(mid)
            mw = np.clip(mw, 0.0, None)
            q += np.sum(np.where(mw > 1e-15, mw, 1.0) ** alpha * (mw > 1e-15), axis=1)
    elif variant == "flat":
        # restrict per block to its own support (sigma candidates from the
        # interior of the Bloch ball are full rank, so the intersection of
        # supports is the block support)
        for p, r in _blocks(s):
            blk = p * r
            bw, bv = eig_hermitian(blk)
            cut = 1e-12 * float(np.max(np.abs(bw)))
            basis = bv[:, bw > cut]
            blk_small = basis.conj().T @ blk @ basis
            lb = spectral_log2(blk_small)
            sig_small = np.einsum("ij,njk,kl->nil", basis.conj().T, sigmas, basis)
            sw, sv2 = np.linalg.eigh(sig_small)
            sw = np.clip(sw, 1e-300, None)
            logs = np.einsum("nij,nj,nkj->nik", sv2, np.log2(sw), sv2.conj())
            m = alpha * lb[None, :, :] + (1.0 - alpha) * logs
            mw = np.linalg.eigvalsh(m)
            q += np.sum(np.exp2(mw), axis=1)
    else:
        raise ValueError(variant)
    with np.errstate(divide="ignore"):
        return np.where(q > 0, np.log2(np.where(q > 0, q, 1.0)) / (alpha - 1.0),
                        np.inf if alpha < 1 else -np.inf)


def _grid_h_up(s: CQState, alpha: float, variant: str,
               resolution: float = 0.02) -> OptimizerReport:
    axis = np.arange(-1.0 + resolution / 2.0, 1.0, resolution)
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    pts = pts[np.sum(pts * pts, axis=1) < (1.0 - 1e-9)]
    vals = _batched_cq_renyi(s, _bloch_sigma_batch(pts), alpha, variant)
    k = int(np.argmin(vals))
    center = pts[k]
    # one refinement pass around the best grid point
    fine = resolution / 10.0
    off = np.arange(-resolution, resolution + fine / 2.0, fine)
    fx, fy, fz = np.meshgrid(off, off, off, indexing="ij")
    fpts = center + np.stack([fx.ravel(), fy.ravel(), fz.ravel()], axis=1)
    fpts = fpts[np.sum(fpts * fpts, axis=1) < (1.0 - 1e-9)]
    fvals = _batched_cq_renyi(s, _bloch_sigma_batch(fpts), alpha, variant)
    j = int(np.argmin(fvals))
    best = fpts[j]
    sig = DensityOperator(_bloch_sigma_batch(best[None, :])[0], check=False)
    return OptimizerReport(sig, -float(fvals[j]), len(pts) + len(fpts), resolution)
