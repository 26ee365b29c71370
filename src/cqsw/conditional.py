"""Conditional Renyi entropies of a classical-quantum source.

Everything here exploits the block-diagonal joint operator: a divergence
against 1_X (x) sigma_B splits into one small computation per symbol, so no
|X| d_B sized matrix is ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from cqsw.divergences import (
    _ALPHA_ONE_WINDOW,
    _check_alpha,
    _check_variant,
    _divergence,
    _ln_q,
    _relative_entropy,
    _renyi_and_slope,
    _sigma_spectrum_op,
    _variance,
)
from cqsw.errors import NoConvergenceError
from cqsw.operators import (
    LN2,
    eig_hermitian_stack,
    log2_on_support,
    spectrum_of,
    support_mask,
    wlog2w,
)
from cqsw.states import CQState, DensityOperator, marginal_b

_ZERO_GRID = (1e-1, 1e-2, 1e-3)
# the nearest alpha below and above 1 outside _ALPHA_ONE_WINDOW (1 + 1e-6
# itself rounds to a float inside it)
_ALPHA_ONE_EDGES = (1.0 - _ALPHA_ONE_WINDOW, math.nextafter(1.0 + _ALPHA_ONE_WINDOW, 2.0))
_PENALTY = 1e6
# the largest gradient component at which an iterate solve has converged
_GTOL = 1e-10
# below this |c dk| a divided difference of e^(c k) is taken as
# e^(c k_j) expm1(c dk) / dk instead of a difference quotient
_EXPM1_WINDOW = 1e-3


@dataclass
class OptimizerReport:
    """What an h_up solve returns. iterations and evaluations are those of
    the optimizer's one L-BFGS run (0 for a closed form); residual is the
    largest gradient component at the optimum; params are the optimizer
    coordinates of sigma_star, for a warm start; slope is dH_alpha/dalpha
    where the solve was asked for it (`h_up` with slope=True), else None."""

    sigma_star: DensityOperator
    value: float
    iterations: int
    residual: float
    evaluations: int = 0
    params: np.ndarray | None = None
    slope: float | None = None


def von_neumann_entropy(m) -> float:
    """Entropy in bits of a PSD operator (eigenvalues below cutoff ignored)."""
    return -wlog2w(spectrum_of(m)[0])


def cq_relative_entropy(s: CQState, sigma_b) -> float:
    """D(rho_XB || 1_X (x) sigma_B) in bits, computed per block."""
    return _relative_entropy(s.block_spectra(), *spectrum_of(sigma_b))


def cq_variance(s: CQState, sigma_b) -> float:
    """V(rho_XB || 1_X (x) sigma_B) per block.

    Same unit convention as relative_entropy_variance: scaled by ln(2) so
    the second derivative of E_0 at s = 0 equals -V with E_0 in bits.
    """
    return _variance(s.block_spectra(), *spectrum_of(sigma_b))


def cq_renyi(s: CQState, sigma_b, alpha: float, variant: str = "petz") -> float:
    """D_alpha(rho_XB || 1_X (x) sigma_B) for the chosen family.

    sigma_B is eigendecomposed at most once per call (never when it keeps
    its spectrum), and the blocks not at all after their first use."""
    return _divergence(s.block_spectra(), *spectrum_of(sigma_b), alpha, variant)


def conditional_entropy(s: CQState) -> float:
    """H(X|B) in bits."""
    return -cq_relative_entropy(s, marginal_b(s))


def conditional_variance(s: CQState) -> float:
    """V(X|B) in bits squared."""
    return cq_variance(s, marginal_b(s))


def _richardson_zero_limit(f):
    """Extrapolate f(alpha) to alpha = 0 from a geometric grid."""
    vals = [f(a) for a in _ZERO_GRID]
    if any(math.isinf(v) for v in vals):
        return vals[-1]
    # linear-in-alpha model on the last two points
    return (10.0 * vals[2] - vals[1]) / 9.0


def h_down(s: CQState, alpha: float, variant: str = "petz") -> float:
    """Conditional Renyi entropy with sigma_B fixed to the marginal. At
    alpha = 0 the petz value is the closed form log2 sum_x Tr[Pi_x rho_B]
    (`_petz_down`); the other families take the limit by extrapolation."""
    rho_b = marginal_b(s)
    if alpha == 0.0:
        if variant == "petz":
            return _petz_down(s, 0.0)[0]
        return _richardson_zero_limit(lambda a: -cq_renyi(s, rho_b, a, variant))
    return -cq_renyi(s, rho_b, alpha, variant)


def _petz_down(s: CQState, alpha: float) -> tuple[float, float]:
    """(H_alpha^down, dH_alpha^down/dalpha) of the petz family for alpha >= 0:
    -D_alpha(rho_XB || 1_X (x) rho_B) and minus its alpha-partial
    (`divergences._divergence`). At alpha = 0, where the divergences refuse
    the order, both come from `_ln_q` directly, the value in closed form:
    -D_0 = log2 sum_x Tr[Pi_x rho_B], Pi_x the support projector of block x."""
    blocks = s.block_spectra()
    sw, sv = marginal_b(s).spectrum()
    if alpha == 0.0:
        ln_q, _, dln_q = _ln_q(blocks, sw, sv, 0.0, "petz", slope=True)
        d, dd = _renyi_and_slope(ln_q, dln_q, 0.0)
    else:
        d, dd = _divergence(blocks, sw, sv, alpha, "petz", slope=True)
    return -d, -dd


def _petz_acc_spectrum(s: CQState, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, v) of sum_x (p rho_x)^alpha, built from the
    block spectra: the one eigendecomposition behind the petz optimizer
    sigma* and Sibson's closed form of H_alpha^up and E_0 (`_petz_sibson`).
    w is zero off the support.

    That support is the union of the block supports, the support of rho_B,
    whatever alpha is, so it is the top rank(rho_B) eigenvalues. A cutoff
    relative to the largest eigenvalue would drop genuine ones as soon as
    alpha > 1 pushes their ratio below it. The rank is counted once per
    state.
    """
    blocks = s.block_spectra()
    wa = np.power(blocks.w, alpha, out=np.zeros_like(blocks.w), where=blocks.support)
    # Hermitian by construction, so not validated
    w, v = eig_hermitian_stack(np.einsum("kij,kj,klj->il", blocks.v, wa, blocks.v.conj())[None])
    w, v = w[0], v[0]
    rank = s.cached("marginal_rank",
                    lambda: int(np.count_nonzero(support_mask(marginal_b(s).spectrum()[0]))))
    on = np.arange(w.size) >= w.size - rank
    return np.where(on, np.maximum(w, 0.0), 0.0), v


def _petz_sibson(s: CQState, alpha: float, slope: bool = False):
    """The petz optimizer sigma*, normalized (sum_x (p rho)^a)^(1/a), and
    L = log2 Tr[(sum_x (p rho)^a)^(1/a)], which gives the optimum in Sibson's
    closed form H_a^up = a/(1-a) L and E_0 (s = 1/a - 1), and dL/da with
    slope (else None).

    All come from the one eigendecomposition A = v diag(w) v^dagger of
    sum_x (p rho)^a, so sigma* is returned with its spectrum known. With
    T = Tr A^(1/a), d ln T/da = Tr[A^(1/a - 1) dA/da] / (a T) -
    Tr[A^(1/a) ln A] / (a^2 T), dA/da = sum_x (p rho)^a ln(p rho), whose
    diagonal in the eigenbasis of A comes from the block spectra; this
    equals minus the alpha-partial of D_a at sigma* (the envelope theorem)."""
    w, v = _petz_acc_spectrum(s, alpha)
    # dividing the eigenvalues by the largest before the power 1/alpha keeps
    # it from overflowing at small alpha; the normalization of sigma cancels
    # the scale, and log2 Tr adds it back
    top = float(w[-1])
    x = (w / top) ** (1.0 / alpha)
    total = float(np.sum(x))
    sigma = DensityOperator.from_spectrum(x / total, v)
    log2_trace = math.log2(top) / alpha + math.log2(total)
    if not slope:
        return sigma, log2_trace, None
    # the diagonal of dA/da in the eigenbasis of A, with ln in place of log2:
    # sum_k |<v_i|u_kj>|^2 w_kj^a log2 w_kj over the block spectra (u_k, w_k)
    blocks = s.block_spectra()
    wa = np.power(blocks.w, alpha, out=np.zeros_like(blocks.w), where=blocks.support)
    dacc = np.einsum("kji,kj->i", blocks.overlaps(v), wa * blocks.log2w)
    on = w > 0.0
    ratio = np.divide(x, w, out=np.zeros_like(w), where=on)
    ln_w = np.log(w, out=np.zeros_like(w), where=on)
    dln_t = (LN2 * float(ratio @ dacc) / alpha - float(x @ ln_w) / alpha ** 2) / total
    return sigma, log2_trace, dln_t / LN2


def petz_sigma_star(s: CQState, alpha: float) -> DensityOperator:
    """Optimizer of the petz conditional entropy: normalized (sum_x (p rho)^a)^(1/a).

    It shares its eigenvectors with sum_x (p rho)^a, so it is returned with
    its spectrum known."""
    return _petz_sibson(s, alpha)[0]


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


def _exp_sigma(k, v) -> DensityOperator:
    """exp(K) / Tr exp(K) for K = v diag(k) v^dagger, with its spectrum."""
    e = np.exp(k - k[-1])
    return DensityOperator.from_spectrum(e / np.sum(e), v)


def _sigma_from_params(x, basis, d) -> DensityOperator:
    """exp(K) / Tr exp(K) for K = sum_i x_i basis_i, returned with its
    spectrum: it shares the eigenvectors of K, which the traceless basis
    makes Hermitian by construction, so it is not validated."""
    basis = np.asarray(basis)
    k, v = eig_hermitian_stack((x @ basis.reshape(len(basis), -1)).reshape(1, d, d))
    return _exp_sigma(k[0], v[0])


def _divided_differences(k, f, on, c=None) -> np.ndarray:
    """Divided differences F_ij = (f_i - f_j) / (k_i - k_j), F_ii = f'(k_i),
    of a function f of the eigenvalues k of K, where `on` marks the
    eigenvalues on the support: f = e^(c k) up to a constant factor, or, for
    c None, log2(e^k / Z), whose slope is 1 / ln 2. Pairs on the support
    with |c (k_i - k_j)| < _EXPM1_WINDOW take the expm1 form, which does not
    cancel; equal eigenvalues off the support get 0."""
    dk = k[:, None] - k[None, :]
    both = on[:, None] & on[None, :]
    safe = np.where(dk == 0.0, 1.0, dk)
    quotient = np.where(dk == 0.0, 0.0, (f[:, None] - f[None, :]) / safe)
    if c is None:
        return np.where(both, 1.0 / LN2, quotient)
    close = both & (np.abs(c * dk) < _EXPM1_WINDOW)
    near = np.expm1(np.where(close, c * dk, 0.0)) / safe
    return np.where(close, f[None, :] * np.where(dk == 0.0, c, near), quotient)


def _k_gradient(v, sw, dd, gamma_v, basis) -> np.ndarray:
    """dF / dx_i for sigma = exp(K) / Tr exp(K), K = v diag(k) v^dagger =
    sum_i x_i basis_i, where dF = Tr[gamma dg(sigma)], gamma_v = v^dagger
    gamma v is gamma in the eigenbasis of K, and dd are the divided
    differences of f(k) = g(e^k / Z) (`_divided_differences`).

    By the Daleckii-Krein formula the derivative of g(sigma) along dK is
    v (dd o v^dagger dK v) v^dagger; the normaliser Z adds -Tr[sigma dK]
    times the derivative along the identity. Hence
    dF / dK = H - Tr[H] sigma, H = v (dd o gamma_v) v^dagger.
    """
    h = dd * gamma_v
    h.flat[::len(h) + 1] -= np.trace(h) * sw
    # Tr[(dF / dK) basis_i], a dot product with each flattened basis_i^T
    return (basis.reshape(len(basis), -1) @ (v @ h @ v.conj().T).T.ravel()).real


def _ln_q_gradient(k, v, sw, gamma_v, alpha: float, variant: str, basis) -> np.ndarray:
    """d ln Q / dx_i for sigma = exp(K) / Tr exp(K), K = v diag(k) v^dagger =
    sum_i x_i basis_i, given gamma_v = v^dagger gamma v, gamma = d ln Q /
    d g(sigma) in the eigenbasis of sigma, as `divergences._ln_q` returns it.

    In the eigenbasis of K, g(sigma) = v diag(f(k)) v^dagger with
    f(k) = g(e^k / Z) (`_sigma_spectrum_op`): log2 sigma (flat) or
    e^(c k) up to a constant, c = 1 - alpha (petz) or (1 - alpha) / alpha
    (sandwiched)."""
    f, _ = _sigma_spectrum_op(sw, alpha, variant)
    c = None if variant == "flat" else (1.0 - alpha if variant == "petz" else (1.0 - alpha) / alpha)
    dd = _divided_differences(k, f, support_mask(sw), c)
    return _k_gradient(v, sw, dd, gamma_v, basis)


def _h_up_objective(s: CQState, alpha: float, variant: str, basis, grad: bool = False):
    """The function `_iterate_h_up` minimizes: x -> D_alpha(rho_XB || 1_X (x)
    sigma(x)) with sigma(x) from `_sigma_from_params`; 1e6 where infinite.

    With grad, x -> (value, exact gradient), from the same eigendecompositions
    as the value (`_ln_q_gradient`); the gradient is zero on the 1e6 plateau.
    K is Hermitian by construction and is not validated.
    """
    _check_variant(variant)
    stack = np.asarray(basis)
    rows = stack.reshape(len(stack), -1)
    d = s.dim_b

    def objective(x):
        k, v = eig_hermitian_stack((x @ rows).reshape(1, d, d))
        k, v = k[0], v[0]
        sigma = _exp_sigma(k, v)
        if not grad:
            val = cq_renyi(s, sigma, alpha, variant)
            return val if math.isfinite(val) else _PENALTY
        sw = sigma.spectrum()[0]
        val, gamma = _divergence(s.block_spectra(), sw, v, alpha, variant, grad=True)
        if not math.isfinite(val):
            return _PENALTY, np.zeros(len(stack))
        g = _ln_q_gradient(k, v, sw, gamma, alpha, variant, stack)
        return val, g / (LN2 * (alpha - 1.0))
    return objective


def _iterate_h_up(s, alpha, variant, x0=None) -> OptimizerReport:
    """One L-BFGS run over sigma = exp(K) / Tr exp(K), with the exact
    gradient of `_h_up_objective`, from the parameters x0, or from x = 0
    (sigma = 1/d) without them. `h_up` never runs it for petz, which has
    Sibson's closed form; a petz run is the reference that closed form is
    checked against, a convex program for alpha <= 2 (Lieb, Ando).

    The objective is evaluated at the start first. A start whose gradient
    is within `_GTOL` (a finite value off the penalty plateau) is returned
    as it is, without the run: that is L-BFGS-B's own exit after its first
    evaluation, so the report (0 iterations, 1 evaluation) is the one the
    run would give. Warm starts from a neighbouring alpha on a source whose
    optimum does not move with alpha are such starts. A warm start on the
    penalty plateau, where D_alpha is infinite and the gradient zero, is
    dropped for sigma = 1/d; a run that ends on the plateau raises
    NoConvergenceError."""
    basis = _traceless_basis(s.dim_b)
    flat = np.zeros(len(basis))
    start = flat if x0 is None else np.asarray(x0, dtype=float)
    objective = _h_up_objective(s, alpha, variant, basis, grad=True)
    fun, jac = objective(start)
    if fun == _PENALTY and start is not flat:
        start = flat
        fun, jac = objective(start)
    if fun != _PENALTY and math.isfinite(fun) and np.max(np.abs(jac)) <= _GTOL:
        x, nit, nfev = start, 0, 1
    else:
        res = minimize(objective, start, jac=True, method="L-BFGS-B",
                       options={"maxiter": 200, "ftol": 1e-14, "gtol": _GTOL})
        x, fun, jac, nit, nfev = res.x, res.fun, res.jac, res.nit, res.nfev
    if fun == _PENALTY or not math.isfinite(fun):
        raise NoConvergenceError(f"optimizer found no finite value at alpha = {alpha}")
    return OptimizerReport(_sigma_from_params(x, basis, s.dim_b), -float(fun),
                           int(nit), float(np.max(np.abs(jac))), int(nfev), x)


def _tabulated(s: CQState, alpha: float, variant: str) -> OptimizerReport | None:
    """The report of an earlier iterate solve of variant at alpha on s, or None."""
    return s.cached(("h_up", variant), dict).get(round(alpha, 12))


def _tabulated_solve(s: CQState, alpha: float, variant: str,
                     slope: bool = False) -> OptimizerReport:
    """The iterate solve of variant at alpha, from the state's table or
    solved and added to it, with its slope (`_with_slope`) added to the
    table too where asked for. A solve starts from the tabulated optimum of
    the variant at the nearest alpha on the same side of alpha = 1, or from
    sigma = 1/d where the table has none there: an optimum below 1 can be
    near singular, and D_alpha above 1 infinite there."""
    table = s.cached(("h_up", variant), dict)
    rep = table.get(round(alpha, 12))
    if rep is None:
        near = [(abs(a - alpha), a) for a in table if (a > 1.0) == (alpha > 1.0)]
        x0 = table[min(near)[1]].params if near else None
        rep = _iterate_h_up(s, alpha, variant, x0)
    elif not slope or rep.slope is not None:
        return rep
    if slope:
        rep = _with_slope(s, alpha, variant, rep)
    table[round(alpha, 12)] = rep
    return rep


def _with_slope(s: CQState, alpha: float, variant: str,
                rep: OptimizerReport) -> OptimizerReport:
    """rep with its slope: by the envelope theorem dH_alpha/dalpha is minus
    the alpha-partial of D_alpha(rho_XB || 1_X (x) sigma) at the optimizer
    sigma_star the solve already holds (`divergences._divergence`)."""
    _, dd = _divergence(s.block_spectra(), *rep.sigma_star.spectrum(), alpha, variant,
                        slope=True)
    return replace(rep, slope=None if dd is None else -dd)


def h_up(s: CQState, alpha: float, variant: str = "petz",
         slope: bool = False) -> OptimizerReport:
    """Conditional Renyi entropy maximized over the side-information state.

    Petz takes Sibson's closed form, the other families the iterate
    optimizer, whose solves are memoised on the state (`_tabulated_solve`).
    With slope, the report also carries dH_alpha/dalpha (`_with_slope`;
    inside the alpha = 1 window, the slope of the interpolation; none at
    alpha = 0); without it, no slope work is done. An unknown variant
    raises ValueError whatever alpha is.

    The minimum over sigma_B is a convex program for flat at every alpha
    and sandwiched for alpha >= 1/2 (Frank-Lieb), so there the stationary
    point an iterate solve reaches is the optimum. Below 1/2 a sandwiched
    solve returns the stationary point its start reaches."""
    _check_variant(variant)
    if alpha == 0.0:
        if variant == "petz":
            rep = h_up(s, _ZERO_GRID[-1], variant)
            return replace(rep, value=petz_h0(s))
        # sigma from the smallest alpha of the grid
        reports = {a: h_up(s, a, variant) for a in _ZERO_GRID}
        val = _richardson_zero_limit(lambda a: reports[a].value)
        return replace(reports[_ZERO_GRID[-1]], value=val,
                       evaluations=sum(r.evaluations for r in reports.values()))
    _check_alpha(alpha)
    if alpha == 1.0 and not slope:
        return OptimizerReport(marginal_b(s), conditional_entropy(s), 0, 0.0)
    if abs(alpha - 1.0) < _ALPHA_ONE_WINDOW:
        # the divergences return D itself inside this window; interpolate
        # between alpha = 1 and the solve at the window's edge on the same
        # side (above it at alpha = 1), so H_alpha keeps its slope -V/2 at
        # alpha = 1
        edge = _ALPHA_ONE_EDGES[int(alpha >= 1.0)]
        rep = h_up(s, edge, variant)
        h = conditional_entropy(s)
        rate = (rep.value - h) / (edge - 1.0)
        return replace(rep, value=h + (alpha - 1.0) * rate, slope=rate if slope else None)
    if variant != "petz":
        return _tabulated_solve(s, alpha, variant, slope)
    sig, log2_trace, dl = _petz_sibson(s, alpha, slope)
    # d/da [a/(1-a) L] = L/(1-a)^2 + a/(1-a) dL/da
    rate = log2_trace / (1.0 - alpha) ** 2 + alpha / (1.0 - alpha) * dl if slope else None
    return OptimizerReport(sig, alpha / (1.0 - alpha) * log2_trace, 0, 0.0, slope=rate)
