"""Variational representations of the flat (log-Euclidean) exponent
functions: each E-flat value is a minimum over auxiliary block-diagonal
states of a relative-entropy-plus-rate-penalty objective. Serves as an
independent route for cross-checking the sup-over-s forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from cqsw.errors import InvariantViolation, NoConvergenceError, SupportViolationError
from cqsw.conditional import h_up
from cqsw.divergences import _supported_relative_entropy
from cqsw.operators import (
    eig_hermitian,
    leaks,
    spectral_log2,
    support_mask,
    wlog2w,
)
from cqsw.states import CQState, DensityOperator

VKINDS = ("r", "sp", "sc")


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


def dummy_entropy(s: CQState, d: DummyState) -> float:
    """H(X|B) of the dummy state (entropy difference form)."""
    sig_b = np.zeros((s.dim_b, s.dim_b), dtype=np.complex128)
    joint_ent = 0.0
    for qx, sig in zip(d.q, d.sigma):
        if qx <= 0:
            continue
        sig_b += qx * sig.matrix
        joint_ent -= wlog2w(eig_hermitian(qx * sig.matrix)[0])
    return joint_ent + wlog2w(eig_hermitian(sig_b)[0])


def dummy_divergence(s: CQState, d: DummyState) -> float:
    """D(sigma_XB || rho_XB) in bits, blockwise; +inf where a dummy block
    leaves the source support."""
    if any(blk is None or leaks(sig.matrix, *blk[1:]) for _, sig, blk in _paired_blocks(s, d)):
        return math.inf
    return _supported_divergence(s, d)


def _supported_divergence(s: CQState, d: DummyState) -> float:
    """`dummy_divergence` of a dummy known to lie in the source support: per
    block, D(q(x) sigma_x || p(x) rho_x) of the one divergence core."""
    return sum(_supported_relative_entropy([(qx, *eig_hermitian(qx * sig.matrix))], *blk[1:])
               for qx, sig, blk in _paired_blocks(s, d))


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
    exponentiate the support-projected convex combination of logs."""
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
        small = (mv * np.exp2(mw)) @ mv.conj().T
        full = basis @ small @ basis.conj().T
        blocks.append(full)
        total += float(np.real(np.trace(full)))
    q = []
    sigmas = []
    eye = np.eye(s.dim_b)
    for blk in blocks:
        if blk is None:
            q.append(0.0)
            sigmas.append(DensityOperator(eye / s.dim_b, check=False))
            continue
        t = float(np.real(np.trace(blk)))
        q.append(t / total)
        sigmas.append(DensityOperator(blk / t if t > 0 else eye / s.dim_b,
                                      check=False))
    return DummyState(np.array(q), sigmas)


def _support_bases(s: CQState):
    bases = []
    for rho in s.side_info:
        w, v = rho.spectrum()
        bases.append(v[:, support_mask(w)])
    return bases


def _dummy_from_params(s, bases, theta):
    """Unconstrained parameters to a DummyState respecting supports."""
    nx = s.size_x
    logits = theta[:nx]
    q = np.exp(logits - np.max(logits))
    q /= np.sum(q)
    # zero-probability source symbols stay at zero dummy mass
    mask = np.asarray(s.probs) > 0
    q = q * mask
    q /= np.sum(q)
    sigmas = []
    pos = nx
    for basis in bases:
        k = basis.shape[1]
        npar = k * k
        x = theta[pos:pos + npar]
        pos += npar
        herm = np.zeros((k, k), dtype=np.complex128)
        idx = 0
        for i in range(k):
            herm[i, i] = x[idx]
            idx += 1
        for i in range(k):
            for j in range(i + 1, k):
                herm[i, j] = x[idx] + 1j * x[idx + 1]
                herm[j, i] = x[idx] - 1j * x[idx + 1]
                idx += 2
        w, v = eig_hermitian(herm)
        w = w - np.max(w)
        small = (v * np.exp(w)) @ v.conj().T
        small /= np.real(np.trace(small))
        sigmas.append(DensityOperator(basis @ small @ basis.conj().T, check=False))
    return DummyState(q, sigmas)


def _params_from_dummy(s, bases, d: DummyState):
    nx = s.size_x
    theta = []
    safe_q = np.where(d.q > 1e-12, d.q, 1e-12)
    theta.extend(np.log(safe_q))
    for basis, sig in zip(bases, d.sigma):
        small = basis.conj().T @ sig.matrix @ basis
        w, v = eig_hermitian(small)
        w = np.clip(w, 1e-14, None)
        herm = (v * np.log(w)) @ v.conj().T
        k = basis.shape[1]
        for i in range(k):
            theta.append(float(np.real(herm[i, i])))
        for i in range(k):
            for j in range(i + 1, k):
                theta.append(float(np.real(herm[i, j])))
                theta.append(float(np.imag(herm[i, j])))
    return np.array(theta)


def _penalized(s, rate, kind, d, mu=64.0):
    """Smooth surrogate: the sp constraint becomes an exact penalty."""
    div = dummy_divergence(s, d)
    if math.isinf(div):
        return 1e6
    h = dummy_entropy(s, d)
    if kind == "r":
        return div + max(0.0, rate - h)
    if kind == "sp":
        return div + mu * max(0.0, rate - h)
    return div + max(0.0, h - rate)


def _s_grid(kind: str, points: int = 80):
    if kind == "r":
        return np.linspace(1e-4, 1.0, points)
    if kind == "sp":
        # alpha from near 1 down to 0.01
        return np.geomspace(1e-4, 99.0, points)
    # sc: s in (-1, 0); the alpha = 1/(1+s) values are capped at 64
    return -np.linspace(1e-4, 1.0 - 1.0 / 64.0, points)


def variational_minimize(s: CQState, rate: float, kind: str,
                         restarts: int = 3, seed: int = 11):
    """Minimize the representation objective; returns (value, DummyState).

    Stage one scans the geodesic candidate family over a grid of s with
    the inner state set to the flat conditional-entropy optimizer (whose
    solves the state memoises); stage two refines by coordinate descent from
    the best candidate with random restarts. A large disagreement between
    the stages aborts.
    """
    if kind not in VKINDS:
        raise ValueError(f"kind must be one of {VKINDS}")

    def candidate_at(sval):
        alpha = 1.0 / (1.0 + sval)
        try:
            cand = mo17_candidate(s, alpha, h_up(s, alpha, "flat").sigma_star)
        except ZeroDivisionError:
            return None, math.inf  # candidate underflowed at extreme alpha
        return cand, variational_value(s, rate, kind, cand)

    best_val = math.inf
    best_dummy = None
    grid = _s_grid(kind)
    best_idx = 0
    for i, sval in enumerate(grid):
        cand, val = candidate_at(sval)
        if val < best_val:
            best_val, best_dummy, best_idx = val, cand, i
    # zoom the s-scan around the best grid point; near the sphere-packing
    # feasibility boundary the coarse grid is not fine enough on its own
    lo = grid[max(best_idx - 1, 0)]
    hi = grid[min(best_idx + 1, len(grid) - 1)]
    for _ in range(3):
        sub = np.linspace(lo, hi, 13)
        vals = []
        cands = []
        for sval in sub:
            cand, val = candidate_at(sval)
            vals.append(val)
            cands.append(cand)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val, best_dummy = vals[j], cands[j]
        lo = sub[max(j - 1, 0)]
        hi = sub[min(j + 1, len(sub) - 1)]
    # sigma = rho itself is always admissible and sometimes optimal
    rho_dummy = DummyState(np.array(s.probs, dtype=float), list(s.side_info))
    rho_val = variational_value(s, rate, kind, rho_dummy)
    if rho_val < best_val:
        best_val, best_dummy = rho_val, rho_dummy

    if best_dummy is None or math.isinf(best_val):
        return math.inf, rho_dummy

    bases = _support_bases(s)
    rng = np.random.default_rng(seed)
    x_center = _params_from_dummy(s, bases, best_dummy)
    nx = s.size_x
    refined_val, refined_x = best_val, x_center
    for trial in range(restarts):
        x = x_center if trial == 0 else x_center + 0.2 * rng.standard_normal(len(x_center))
        # coordinate descent: alternate the q block and each sigma block
        blocks = [np.arange(nx)]
        pos = nx
        for basis in bases:
            k = basis.shape[1] ** 2
            blocks.append(np.arange(pos, pos + k))
            pos += k
        prev = math.inf
        for _ in range(2):
            for idx in blocks:
                def fblock(xb, idx=idx, x=x):
                    full = x.copy()
                    full[idx] = xb
                    return _penalized(s, rate, kind, _dummy_from_params(s, bases, full))
                res = minimize(fblock, x[idx], method="Nelder-Mead",
                               options={"xatol": 1e-8, "fatol": 1e-13,
                                        "maxiter": 100})
                x[idx] = res.x
            cur = _penalized(s, rate, kind, _dummy_from_params(s, bases, x))
            if prev - cur < 1e-12:
                break
            prev = cur
        cand = _dummy_from_params(s, bases, x)
        val = variational_value(s, rate, kind, cand)
        if val < refined_val:
            refined_val, refined_x = val, x

    if best_val - refined_val > 1e-3:
        raise NoConvergenceError(
            "candidate scan and refinement disagree",
            diagnostics={"scan": best_val, "refined": refined_val},
        )
    return refined_val, _dummy_from_params(s, bases, refined_x)
