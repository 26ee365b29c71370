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

from cqsw.divergences import (
    _FLAT_TRACE_SLACK,
    _check_variant,
    _full_rank,
    _sigma_operator,
    _spectral_q,
)
from cqsw.errors import MethodUnsupportedError, NoConvergenceError
from cqsw.operators import (
    DEFAULT_POLICY,
    eig_hermitian,
    log2_from_spectrum,
    power_from_spectrum,
    support_contained,
    support_mask,
)
from cqsw.states import CQState, DensityOperator, marginal_b

_ALPHA_ONE_WINDOW = 1e-6
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


def _sigma_spectrum(sigma_b):
    """(matrix, w, v) of sigma_B: the eigendecomposition an operator object
    keeps (a DensityOperator from `marginal_b`, `petz_sigma_star` or the
    optimizer's parameterisation), or one new eigendecomposition of a
    plain matrix."""
    spectrum = getattr(sigma_b, "spectrum", None)
    if spectrum is not None:
        return (sigma_b.matrix, *spectrum())
    m = np.asarray(sigma_b, dtype=np.complex128)
    return (m, *eig_hermitian(m))


def cq_relative_entropy(s: CQState, sigma_b) -> float:
    """D(rho_XB || 1_X (x) sigma_B) in bits, computed per block."""
    sm, sw, sv = _sigma_spectrum(sigma_b)
    log_sigma = log2_from_spectrum(sw, sv)
    full = _full_rank(sw)
    total = 0.0
    for (p, r), (_, bw, _) in zip(s.blocks(), s.block_spectra()):
        if not full and not support_contained(r, sm):
            return math.inf
        cutoff = DEFAULT_POLICY.relative_cutoff * float(np.max(np.abs(bw)))
        on = bw > cutoff
        total += float(np.sum(bw[on] * np.log2(bw[on])))
        total -= p * float(np.real(np.sum(r * log_sigma.T)))
    return total


def cq_variance(s: CQState, sigma_b) -> float:
    """V(rho_XB || 1_X (x) sigma_B) per block.

    Same unit convention as relative_entropy_variance: scaled by ln(2) so
    the second derivative of E_0 at s = 0 equals -V with E_0 in bits.
    """
    _, sw, sv = _sigma_spectrum(sigma_b)
    log_sigma = log2_from_spectrum(sw, sv)
    first = 0.0
    second = 0.0
    for (p, r), (_, bw, bv) in zip(s.blocks(), s.block_spectra()):
        blk = p * r
        diff = log2_from_spectrum(bw, bv) - log_sigma
        first += float(np.real(np.trace(blk @ diff)))
        second += float(np.real(np.trace(blk @ diff @ diff)))
    return math.log(2.0) * (second - first * first)


def _cq_q(s: CQState, sw, sv, alpha: float, variant: str) -> float:
    """Q_alpha against 1_X (x) sigma_B, sigma_B = sv diag(sw) sv^dagger, from
    the state's block spectra."""
    support = None
    if variant == "flat" and not _full_rank(sw):
        support = power_from_spectrum(sw, sv, 0.0)
    sigma_op = _sigma_operator(sw, sv, alpha, variant)
    total = 0.0
    kept = 0.0
    for _, bw, bv in s.block_spectra():
        q, k = _spectral_q(bw, bv, sigma_op, alpha, variant, DEFAULT_POLICY, support)
        total += q
        kept += k
    if variant == "flat" and kept < 1.0 - _FLAT_TRACE_SLACK:
        return 0.0 if alpha < 1.0 else math.nan
    return total


def cq_q_alpha(s: CQState, sigma_b, alpha: float, variant: str) -> float:
    """Q_alpha(rho_XB || 1_X (x) sigma_B) by summing per-symbol blocks."""
    _check_variant(variant)
    _, sw, sv = _sigma_spectrum(sigma_b)
    return _cq_q(s, sw, sv, alpha, variant)


def cq_renyi(s: CQState, sigma_b, alpha: float, variant: str = "petz") -> float:
    """D_alpha(rho_XB || 1_X (x) sigma_B) for the chosen family.

    sigma_B is eigendecomposed at most once per call (never when it keeps
    its spectrum), and the blocks not at all after their first use."""
    if abs(alpha - 1.0) < _ALPHA_ONE_WINDOW:
        return cq_relative_entropy(s, sigma_b)
    _check_variant(variant)
    sm, sw, sv = _sigma_spectrum(sigma_b)
    if not _full_rank(sw):
        # rank-deficient sigma: explicit support conditions
        if alpha > 1.0:
            for _, r in s.blocks():
                if not support_contained(r, sm):
                    return math.inf
        else:
            ps = power_from_spectrum(sw, sv, 0.0)
            overlap = sum(
                float(np.real(np.sum(power_from_spectrum(bw, bv, 0.0) * ps.T)))
                for _, bw, bv in s.block_spectra()
            )
            if overlap <= DEFAULT_POLICY.relative_cutoff:
                return math.inf
    q = _cq_q(s, sw, sv, alpha, variant)
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


def _petz_acc_spectrum(s: CQState, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, v) of sum_x (p rho_x)^alpha, built from the
    block spectra: the one eigendecomposition behind both the petz optimizer
    sigma* and the Sibson form of E_0. w is zero off the support.

    That support is the union of the block supports, the support of rho_B,
    whatever alpha is, so it is the top rank(rho_B) eigenvalues. A cutoff
    relative to the largest eigenvalue would drop genuine ones as soon as
    alpha > 1 pushes their ratio below it.
    """
    acc = sum(power_from_spectrum(bw, bv, alpha) for _, bw, bv in s.block_spectra())
    w, v = eig_hermitian(acc)
    rank = int(np.count_nonzero(support_mask(marginal_b(s).spectrum()[0])))
    on = np.arange(w.size) >= w.size - rank
    return np.where(on, np.maximum(w, 0.0), 0.0), v


def petz_sigma_star(s: CQState, alpha: float) -> DensityOperator:
    """Optimizer of the petz conditional entropy: normalized (sum_x (p rho)^a)^(1/a).

    It shares its eigenvectors with sum_x (p rho)^a, so it is returned with
    its spectrum known."""
    w, v = _petz_acc_spectrum(s, alpha)
    # the normalization cancels any scale of acc; dividing its eigenvalues
    # by the largest first keeps the power 1/alpha from overflowing at small
    # alpha
    x = (w / w[-1]) ** (1.0 / alpha)
    return DensityOperator.from_spectrum(x / np.sum(x), v)


def petz_h0(s: CQState) -> float:
    """H_0 up-arrow of the petz family in closed form: log2 of the largest
    eigenvalue of sum_x Pi_x over the supports of the nonzero-probability
    blocks; classically log2 max_b |supp P_(X|B=b)|."""
    w, _ = _petz_acc_spectrum(s, 0.0)
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


def _sigma_from_params(x, basis, d) -> DensityOperator:
    """exp(K) / Tr exp(K) for K = sum_i x_i basis_i, returned with its
    spectrum: it shares the eigenvectors of K."""
    k = np.zeros((d, d), dtype=np.complex128)
    for c, b in zip(x, basis):
        k += c * b
    w, v = eig_hermitian(k)
    e = np.exp(w - w[-1])
    return DensityOperator.from_spectrum(e / np.sum(e), v)


def _h_up_objective(s: CQState, alpha: float, variant: str, basis):
    """The function `_iterate_h_up` minimizes: x -> D_alpha(rho_XB || 1_X (x)
    sigma(x)) with sigma(x) from `_sigma_from_params`; 1e6 where infinite."""
    d = s.dim_b

    def objective(x):
        val = cq_renyi(s, _sigma_from_params(x, basis, d), alpha, variant)
        return val if math.isfinite(val) else 1e6
    return objective


def _iterate_h_up(s, alpha, variant, restarts, x0=None, seed=7):
    d = s.dim_b
    basis = _traceless_basis(d)
    npar = len(basis)
    rng = np.random.default_rng(seed)
    objective = _h_up_objective(s, alpha, variant, basis)

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
        sig = _sigma_from_params(res.x, basis, d)
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
        for _, bw, bv in s.block_spectra():
            ra = power_from_spectrum(bw, bv, alpha)
            q += np.real(np.einsum("ij,nji->n", ra, spow))
    elif variant == "sandwiched":
        e = (1.0 - alpha) / alpha
        pw = np.where(w > 1e-15, w, 1.0) ** e * (w > 1e-15)
        spow = np.einsum("nij,nj,nkj->nik", v, pw, v.conj())
        for _, bw, bv in s.block_spectra():
            half = power_from_spectrum(bw, bv, 0.5)
            mid = np.einsum("ij,njk,kl->nil", half, spow, half)
            mw, mv = np.linalg.eigh(mid)
            mw = np.clip(mw, 0.0, None)
            q += np.sum(np.where(mw > 1e-15, mw, 1.0) ** alpha * (mw > 1e-15), axis=1)
    elif variant == "flat":
        # sigma candidates from the interior of the Bloch ball are full rank,
        # so each block is restricted to its own support, where its log is
        # diagonal, and log2 sigma is compressed to that support
        logs = np.einsum("nij,nj,nkj->nik", v, np.log2(np.clip(w, 1e-300, None)),
                         v.conj())
        for _, bw, bv in s.block_spectra():
            on = bw > 1e-12 * float(np.max(np.abs(bw)))
            basis = bv[:, on]
            m = alpha * np.diag(np.log2(bw[on]))[None, :, :] \
                + (1.0 - alpha) * np.einsum("ij,njk,kl->nil", basis.conj().T, logs, basis)
            q += np.sum(np.exp2(np.linalg.eigvalsh(m)), axis=1)
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
