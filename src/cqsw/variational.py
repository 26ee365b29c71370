"""Variational representations of the flat (log-Euclidean) exponent
functions: each E-flat value is a minimum over auxiliary block-diagonal
states of a relative-entropy-plus-rate-penalty objective (the dual form of
Mosonyi-Ogawa, CMP 2017). Serves as an independent route for
cross-checking the sup-over-s forms.

At the saddle point the geodesic candidate (`mo17_candidate`) at the
optimal alpha* = 1/(1+s*) of the sup-over-s form attains the minimum, so
`variational_minimize` starts from that one candidate, s* taken from the
flat exponent's own search over the kind's s bracket
(`exponents.S_BRACKET`), and solves each representation as one smooth
program over all parameters of the dummy state at once, with SLSQP
(Kraft 1988) and exact gradients. An sp program starts and ends on
H >= R: Newton steps on H restore it where the seed or the solve falls a
rounding error short.
With D = D(sigma_XB || rho_XB) and H = H(X|B)_sigma, the r and sc
representations take the epigraph form

    r:   min D + t  subject to  t >= 0,  t >= R - H,
    sc:  min D + t  subject to  t >= 0,  t >= H - R,
    sp:  min D      subject to  H >= R.

The dummy state is q = softmax(l) and, per symbol, sigma_x =
B_x exp(K_x) B_x^dagger / Tr exp(K_x), with B_x the support of the source
block and K_x traceless: the coordinates of `conditional`'s sigma_B
optimizer, so every point lies in the source support. D is convex and H
concave in the dummy state, so the r and sp programs are convex there and a
local optimum is global.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, nnls

from cqsw.errors import InvariantViolation, NoConvergenceError, SupportViolationError
from cqsw.conditional import (
    _divided_differences,
    _exp_sigma,
    _k_gradient,
    _traceless_basis,
    h_up,
)
from cqsw.divergences import _supported_relative_entropy
from cqsw.exponents import HUpEvaluator, _exponent
from cqsw.operators import (
    LN2,
    eig_hermitian,
    leaks,
    log2_from_spectrum,
    spectral_log2,
    support_mask,
    wlog2w,
)
from cqsw.states import CQState, DensityOperator

# each representation with the flat exponent it is the dual form of
FLAT_KIND = {"r": "random_coding", "sp": "sphere_packing", "sc": "strong_converse_flat"}
VKINDS = tuple(FLAT_KIND)
# precision goal of an SLSQP solve on the objective (its default is 1e-6)
_SLSQP_FTOL = 1e-12
# a constraint within this of zero is active in the KKT residual
_ACTIVE = 1e-8
# Newton steps that restore H >= R around an sp solve, aimed this far past R
_RESTORE_STEPS = 3
_RESTORE_MARGIN = 1e-12


@dataclass
class DummyState:
    """Auxiliary block-diagonal state: distribution q plus per-symbol states."""

    q: np.ndarray
    sigma: list

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.sigma = [
            m if isinstance(m, DensityOperator) else DensityOperator(m, check=False)
            for m in self.sigma
        ]
        if abs(float(np.sum(self.q)) - 1.0) > 1e-9 or np.any(self.q < -1e-12):
            raise InvariantViolation("q", "q is not a probability distribution")

    def validate_against(self, s: CQState) -> None:
        if len(self.q) != s.size_x:
            raise InvariantViolation("q", "alphabet size mismatch")
        for _, sig, blk in _paired_blocks(s, self):
            if blk is None:
                raise SupportViolationError("dummy mass on a zero-probability symbol")
            if leaks(sig.matrix, *blk[1:]):
                raise SupportViolationError("dummy block leaves the source support")


def _paired_blocks(s: CQState, d: DummyState):
    """Triples (q(x), sigma_x, block) over the symbols with q(x) > 0, where
    block is the kept spectrum (p, w, v) of the source block p(x) rho_x, or
    None where p(x) = 0."""
    spectra = iter(s.block_spectra())
    for qx, sig, px in zip(d.q, d.sigma, s.probs):
        blk = next(spectra) if px > 0 else None
        if qx > 0:
            yield qx, sig, blk


def _entropy_terms(d: DummyState, dim: int):
    """(H(XB), w, v) of the dummy state: its joint entropy in bits, from the
    spectra its blocks keep, and the spectrum of its marginal sigma_B, the
    one eigendecomposition made here."""
    sig_b = np.zeros((dim, dim), dtype=np.complex128)
    joint_ent = 0.0
    for qx, sig in zip(d.q, d.sigma):
        if qx <= 0:
            continue
        sig_b += qx * sig.matrix
        joint_ent -= wlog2w(qx * sig.spectrum()[0])
    return (joint_ent, *eig_hermitian(sig_b))


def dummy_entropy(s: CQState, d: DummyState) -> float:
    """H(X|B) of the dummy state (entropy difference form)."""
    joint_ent, bw, _ = _entropy_terms(d, s.dim_b)
    return joint_ent + wlog2w(bw)


def dummy_divergence(s: CQState, d: DummyState) -> float:
    """D(sigma_XB || rho_XB) in bits, blockwise; +inf where a dummy block
    leaves the source support."""
    if any(blk is None or leaks(sig.matrix, *blk[1:]) for _, sig, blk in _paired_blocks(s, d)):
        return math.inf
    return _supported_divergence(s, d)


def _supported_divergence(s: CQState, d: DummyState) -> float:
    """`dummy_divergence` of a dummy known to lie in the source support: per
    block, D(q(x) sigma_x || p(x) rho_x) of the one divergence core, from the
    spectrum sigma_x keeps."""
    total = 0.0
    for qx, sig, blk in _paired_blocks(s, d):
        w, v = sig.spectrum()
        total += _supported_relative_entropy([(qx, qx * w, v)], *blk[1:])
    return total


def variational_value(s: CQState, rate: float, kind: str, d: DummyState) -> float:
    """Objective of the chosen representation at a particular dummy state."""
    if kind not in VKINDS:
        raise ValueError(f"kind must be one of {VKINDS}")
    d.validate_against(s)
    div = _supported_divergence(s, d)
    h = dummy_entropy(s, d)
    if kind == "r":
        return div + max(0.0, rate - h)
    if kind == "sp":
        return div if h >= rate else math.inf
    return div + max(0.0, h - rate)


def mo17_candidate(s: CQState, alpha: float, tau_b) -> DummyState:
    """Candidate minimizer built from the flat-divergence geodesic: per block,
    exponentiate the support-projected convex combination of logs.

    Each sigma_x is returned with its spectrum: the eigenvectors of that
    combination on the block support, completed by the block's kernel at
    eigenvalue 0."""
    tau_b = np.asarray(getattr(tau_b, "matrix", tau_b), dtype=np.complex128)
    blocks = []
    total = 0.0
    spectra = iter(s.block_spectra())
    for px in s.probs:
        if px <= 0:
            blocks.append(None)
            continue
        # the block p(x) rho_x is diagonal in its own eigenbasis on its support
        _, w, v = next(spectra)
        on = support_mask(w)
        basis = v[:, on]
        tau_p = basis.conj().T @ tau_b @ basis
        m = alpha * np.diag(np.log2(w[on])) + (1.0 - alpha) * spectral_log2(tau_p)
        mw, mv = eig_hermitian(m)
        e = np.exp2(mw)
        t = float(np.sum(e))
        blocks.append((t, np.concatenate([np.zeros(w.size - e.size), e]),
                       np.hstack([v[:, ~on], basis @ mv])))
        total += t
    q = []
    sigmas = []
    eye = np.eye(s.dim_b)
    for blk in blocks:
        if blk is None:
            q.append(0.0)
            sigmas.append(DensityOperator(eye / s.dim_b, check=False))
            continue
        t, e, vec = blk
        q.append(t / total)
        sigmas.append(DensityOperator.from_spectrum(e / t, vec) if t > 0
                      else DensityOperator(eye / s.dim_b, check=False))
    return DummyState(np.array(q), sigmas)


def _layout(s: CQState):
    """The coordinates of the dummy states, per nonzero-probability symbol:
    (x, B, kernel, l, T) with B and kernel the eigenvectors of the block
    p(x) rho_x on and off its support, l = log2 of its eigenvalues on the
    support, and T the traceless basis of that dimension (`_traceless_basis`)."""
    out = []
    for x, (_, w, v) in zip(np.flatnonzero(s.probs > 0), s.block_spectra()):
        on = support_mask(w)
        k = int(np.count_nonzero(on))
        basis = np.asarray(_traceless_basis(k), dtype=np.complex128).reshape(-1, k, k)
        out.append((int(x), v[:, on], v[:, ~on], np.log2(w[on]), basis))
    return out


def _dummy_from_params(s: CQState, layout, theta):
    """(dummy, log2 q, spectra) at the parameters theta: the dummy state,
    the log2 weights of the nonzero-probability symbols, and per such symbol
    the spectra (k, v, sw) of K_x and sigma_x in the support coordinates.

    theta holds the logits of all but the first nonzero-probability symbol
    (whose logit is 0), then the coordinates of each K_x in its traceless
    basis; q is their softmax, and sigma_x = B exp(K_x) B^dagger / Z
    (`_exp_sigma`), which keeps its spectrum, the kernel of the block
    completing the eigenbasis at eigenvalue 0. The zero-probability symbols
    keep their source states at weight 0."""
    m = len(layout)
    logits = np.concatenate([[0.0], theta[:m - 1]])
    ln_q = logits - np.max(logits)
    ln_q -= math.log(float(np.sum(np.exp(ln_q))))
    q = np.zeros(s.size_x)
    sigmas = list(s.side_info)
    spectra = []
    pos = m - 1
    for (x, basis, kernel, _, tb), lq in zip(layout, ln_q):
        n = len(tb)
        if n:
            k, v = eig_hermitian(np.tensordot(theta[pos:pos + n], tb, 1))
        else:
            k, v = np.zeros(1), np.ones((1, 1), dtype=np.complex128)
        pos += n
        sw = _exp_sigma(k, v).spectrum()[0]
        q[x] = math.exp(lq)
        sigmas[x] = DensityOperator.from_spectrum(
            np.concatenate([np.zeros(kernel.shape[1]), sw]), np.hstack([kernel, basis @ v]))
        spectra.append((k, v, sw))
    return DummyState(q, sigmas), ln_q / LN2, spectra


def _params_from_dummy(layout, d: DummyState) -> np.ndarray:
    """Parameters of a dummy state inside the source support
    (`_dummy_from_params`), with the eigenvalues of each sigma_x on the
    block support floored at 1e-14."""
    ln_q = np.log(np.maximum(d.q[[x for x, *_ in layout]], 1e-300))
    theta = [ln_q[1:] - ln_q[0]]
    for x, basis, _, _, tb in layout:
        if not len(tb):
            continue
        w, v = eig_hermitian(basis.conj().T @ d.sigma[x].matrix @ basis)
        ln_sigma = (v * np.log(np.clip(w, 1e-14, None))) @ v.conj().T
        # the traceless basis is orthogonal; its trace part is what Z removes
        norms = np.real(np.einsum("iab,iba->i", tb, tb))
        theta.append(np.real(np.einsum("ab,iba->i", ln_sigma, tb)) / norms)
    return np.concatenate(theta)


def _program_terms(s: CQState, layout, theta):
    """(D, H, dD, dH) at the parameters theta: D(sigma_XB || rho_XB) and
    H(X|B)_sigma in bits of the dummy state `_dummy_from_params` builds, and
    their exact gradients, from the spectra the values take (one
    eigendecomposition per K_x of dimension 2 and up, and one of sigma_B).

    Up to multiples of the identity, which exp(K)/Z does not see,
    dD / d sigma_x = q_x (log2 sigma_x - log2 p_x rho_x) and
    dH / d sigma_x = q_x (log2 sigma_B - log2 sigma_x), chained through
    exp(K_x) by the Daleckii-Krein divided differences of
    `conditional._k_gradient`; and up to a constant, with S the entropy,
    dD / dq_x = log2 q_x - S(sigma_x) - Tr[sigma_x log2 p_x rho_x] and
    dH / dq_x = -log2 q_x + S(sigma_x) + Tr[sigma_x log2 sigma_B], chained
    through the softmax."""
    d, log_q, spectra = _dummy_from_params(s, layout, theta)
    joint_ent, bw, bv = _entropy_terms(d, s.dim_b)
    log_b = log2_from_spectrum(bw, bv)
    div = -joint_ent
    g_q = np.zeros((2, len(layout)))
    g_k = [[], []]
    for j, ((x, basis, _, lw, tb), (k, v, sw)) in enumerate(zip(layout, spectra)):
        qx = d.q[x]
        # log2 sigma_x from K itself, exact where sw underflows
        top = k - k[-1]
        log_s = (top - math.log(float(np.sum(np.exp(top))))) / LN2
        log_rho = (v.conj().T * lw) @ v
        bk = basis @ v
        log_sb = bk.conj().T @ log_b @ bk
        tr_rho = float(sw @ np.real(np.diag(log_rho)))
        tr_sb = float(sw @ np.real(np.diag(log_sb)))
        div -= qx * tr_rho
        g_q[0, j] = log_q[j] + float(sw @ log_s) - tr_rho
        g_q[1, j] = -log_q[j] - float(sw @ log_s) + tr_sb
        if len(tb):
            dd = _divided_differences(k, sw, np.ones(k.size, dtype=bool), 1.0)
            g_k[0].append(_k_gradient(v, sw, dd, qx * (np.diag(log_s) - log_rho), tb))
            g_k[1].append(_k_gradient(v, sw, dd, qx * (log_sb - np.diag(log_s)), tb))
    q = d.q[[x for x, *_ in layout]]
    # softmax: d/dl_y = q_y (g_y - sum_x q_x g_x), the first logit held at 0
    g_l = q * (g_q - (g_q @ q)[:, None])
    grads = [np.concatenate([g_l[i, 1:], *g_k[i]]) for i in range(2)]
    return div, joint_ent + wlog2w(bw), grads[0], grads[1]


class _Program:
    """The smooth program of one representation over z = (theta, t), the
    epigraph form of r and sc, or z = theta for sp: `objective` and
    `constraint` map z to (value, gradient), the constraint feasible where
    it is >= 0. The terms of the last theta are kept, since SLSQP asks for
    the objective and the constraint at each point separately; evaluations
    counts the theta at which they were computed."""

    def __init__(self, s: CQState, rate: float, kind: str, layout):
        self.s, self.rate, self.layout = s, rate, layout
        self.epigraph = kind != "sp"
        # r: t >= R - H; sc: t >= H - R
        self.sign = 1.0 if kind == "r" else -1.0
        self.evaluations = 0
        self._key = None
        self._terms = None

    def terms(self, theta):
        key = theta.tobytes()
        if key != self._key:
            self._key, self._terms = key, _program_terms(self.s, self.layout, theta)
            self.evaluations += 1
        return self._terms

    def objective(self, z):
        if not self.epigraph:
            div, _, g_div, _ = self.terms(z)
            return div, g_div
        div, _, g_div, _ = self.terms(z[:-1])
        return div + z[-1], np.append(g_div, 1.0)

    def constraint(self, z):
        if not self.epigraph:
            _, h, _, g_h = self.terms(z)
            return h - self.rate, g_h
        _, h, _, g_h = self.terms(z[:-1])
        return z[-1] - self.sign * (self.rate - h), np.append(self.sign * g_h, 1.0)

    def restore(self, theta):
        """theta moved by at most _RESTORE_STEPS Newton steps on H, each
        aimed _RESTORE_MARGIN past R, until H >= R holds."""
        for _ in range(_RESTORE_STEPS):
            _, h, _, g_h = self.terms(theta)
            if h >= self.rate or not np.any(g_h):
                break
            theta = theta + (self.rate - h + _RESTORE_MARGIN) / float(g_h @ g_h) * g_h
        return theta

    def start(self, theta):
        """theta, with the least feasible t in epigraph form; an sp theta
        restored to H >= R (`restore`), so that SLSQP starts feasible."""
        if not self.epigraph:
            return self.restore(theta)
        return np.append(theta, max(0.0, -self.constraint(np.append(theta, 0.0))[0]))

    def kkt_residual(self, z) -> float:
        """Stationarity residual at z: the least norm of grad f - sum_i
        lambda_i grad c_i over lambda >= 0, c_i the constraints active at z
        (within _ACTIVE of zero), the bound t >= 0 among them."""
        _, g_f = self.objective(z)
        c, g_c = self.constraint(z)
        active = [g_c] if c <= _ACTIVE else []
        if self.epigraph and z[-1] <= _ACTIVE:
            active.append(np.eye(z.size)[-1])
        if not active:
            return float(np.linalg.norm(g_f))
        return float(nnls(np.array(active).T, g_f)[1])


def _refine(s: CQState, rate: float, kind: str, layout, theta0):
    """One SLSQP solve of the kind's program from theta0: the dummy state it
    ends at and a report (SLSQP status and message, iterations, evaluations,
    KKT residual). An sp seed or solve can sit a rounding error short of
    H >= R, where the representation is +inf; Newton steps on H restore it
    before the solve and after it (`_Program.restore`)."""
    prog = _Program(s, rate, kind, layout)
    z0 = prog.start(theta0)
    res = minimize(prog.objective, z0, jac=True, method="SLSQP",
                   bounds=[(None, None)] * theta0.size + [(0.0, None)] if prog.epigraph else None,
                   constraints=[{"type": "ineq", "fun": lambda z: prog.constraint(z)[0],
                                 "jac": lambda z: prog.constraint(z)[1]}],
                   options={"ftol": _SLSQP_FTOL})
    report = {"status": int(res.status), "message": str(res.message),
              "iterations": int(res.nit), "kkt_residual": prog.kkt_residual(res.x)}
    theta = res.x[:-1] if prog.epigraph else prog.restore(res.x)
    report["evaluations"] = prog.evaluations
    return _dummy_from_params(s, layout, theta)[0], report


def variational_minimize(s: CQState, rate: float, kind: str,
                         restarts: int = 3, seed: int = 11):
    """Minimize the representation objective; returns (value, DummyState).

    The seed is the geodesic candidate (`mo17_candidate`) at the alpha*
    that the search of the flat exponent of the kind (`FLAT_KIND`) finds,
    with the inner state the flat `h_up` optimizer there. The search's
    solves are memoised on the state, so after `exponent` the seed costs
    no solve. Where no search runs (rates on the far side of H(X|B), +inf
    exponents) the seed is sigma = rho, and a seed of value +inf there is
    the answer. The value is that of an SLSQP solve of the kind's smooth
    program (the module docstring) with exact gradients over all dummy
    parameters at once, from the seed and from restarts - 1 random
    perturbations of it. A refinement more than 1e-3 below the seed's
    value aborts with NoConvergenceError, whose diagnostics carry both
    values (the seed's as "scan") and the winning solve's SLSQP status,
    message, iterations, objective evaluations and KKT stationarity
    residual. An sp seed sits on H = R and may fall a rounding error short
    of it, so there the seed's value in that check is its divergence.
    """
    if kind not in VKINDS:
        raise ValueError(f"kind must be one of {VKINDS}")
    _, alpha = _exponent(s, rate, FLAT_KIND[kind], HUpEvaluator(s, "flat"))
    if alpha is None:
        seed_dummy = DummyState(np.array(s.probs, dtype=float), list(s.side_info))
    else:
        seed_dummy = mo17_candidate(s, alpha, h_up(s, alpha, "flat").sigma_star)
    best_val = variational_value(s, rate, kind, seed_dummy)
    if alpha is None and math.isinf(best_val):
        return math.inf, seed_dummy
    seed_val = _supported_divergence(s, seed_dummy) if kind == "sp" else best_val

    layout = _layout(s)
    rng = np.random.default_rng(seed)
    x_center = _params_from_dummy(layout, seed_dummy)
    best_dummy, report = seed_dummy, {}
    for trial in range(restarts if x_center.size else 0):
        x = x_center if trial == 0 else x_center + 0.2 * rng.standard_normal(x_center.size)
        cand, rep = _refine(s, rate, kind, layout, x)
        val = variational_value(s, rate, kind, cand)
        if val < best_val:
            best_val, best_dummy, report = val, cand, rep

    if seed_val - best_val > 1e-3:
        raise NoConvergenceError(
            "seed and refinement disagree",
            diagnostics={"scan": seed_val, "refined": best_val, **report},
        )
    return best_val, best_dummy
