"""Grid-search oracle for h_up on qubit side information: an independent
route to the optimum over sigma_B, used to cross-check the library's
optimizers. It scans the Bloch ball with numpy's batched eigh, then refines
around the best grid point."""

from __future__ import annotations

import numpy as np

from cqsw.conditional import OptimizerReport
from cqsw.errors import MethodUnsupportedError
from cqsw.operators import power_from_spectrum
from cqsw.states import CQState, DensityOperator


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

    Uses numpy's batched eigh; this is an independent route from
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


def grid_h_up(s: CQState, alpha: float, variant: str,
              resolution: float = 0.02) -> OptimizerReport:
    """H_alpha^up(X|B) by grid search over the Bloch ball (qubit B only)."""
    if s.dim_b != 2:
        raise MethodUnsupportedError("grid search supports qubit side information only")
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
    evaluations = len(pts) + len(fpts)
    return OptimizerReport(sig, -float(fvals[j]), evaluations, resolution, evaluations)
