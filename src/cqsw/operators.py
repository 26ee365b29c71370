"""Dense Hermitian operator calculus: eigendecomposition, spectral functions
under support conventions, tensor products, pinching.

All logarithms and exponentials are base 2. Powers, logs and support
projectors act on the support only: eigenvalues below SUPPORT_CUTOFF times
the largest magnitude are treated as exactly zero.
"""

from __future__ import annotations

import math

import numpy as np

from cqsw.errors import (
    DimensionMismatchError,
    NegativeEigenvalueError,
    NoConvergenceError,
    NonHermitianError,
)

_HERM_TOL = 1e-12
_GROUP_GAP = 1e-9
_JACOBI_TOL = 1e-14
# eigenvalues at or below this fraction of the largest magnitude count as zero
SUPPORT_CUTOFF = 1e-12


def _as_matrix(a) -> np.ndarray:
    m = getattr(a, "matrix", a)
    return np.asarray(m, dtype=np.complex128)


def check_hermitian(a: np.ndarray) -> np.ndarray:
    a = _as_matrix(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    mags = np.abs(a)
    dev = float(np.max(np.abs(a - a.conj().T)))
    if dev > _HERM_TOL * (1.0 + float(np.max(mags))):
        raise NonHermitianError(f"matrix deviates from Hermitian by {dev:.3e}")
    return a


def _eig2(a) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form Hermitian 2x2 eigendecomposition (one Jacobi rotation)."""
    a00 = a[0, 0].real
    a11 = a[1, 1].real
    b = complex(a[0, 1])
    rb = abs(b)
    scale = max(abs(a00), abs(a11), rb)
    if rb == 0.0 or rb <= 1e-18 * scale:
        if a00 <= a11:
            return np.array([a00, a11]), np.eye(2, dtype=np.complex128)
        return (np.array([a11, a00]),
                np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128))
    # stable Jacobi rotation: no cancellation for nearly diagonal input
    tau = 0.5 * (a11 - a00) / rb
    if math.isinf(tau * tau):
        t = 0.5 / tau
    else:
        t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    sn = t * c
    u = b / rb
    wa = a00 - t * rb
    wb = a11 + t * rb
    uc = u.conjugate()
    v = np.empty((2, 2), dtype=np.complex128)
    if wa <= wb:
        w = np.array([wa, wb])
        v[0, 0] = c
        v[1, 0] = -sn * uc
        v[0, 1] = sn
        v[1, 1] = c * uc
    else:
        w = np.array([wb, wa])
        v[0, 0] = sn
        v[1, 0] = c * uc
        v[0, 1] = c
        v[1, 1] = -sn * uc
    # phase convention: largest-magnitude entry of each column real positive
    for j in (0, 1):
        k = 0 if abs(v[0, j]) >= abs(v[1, j]) else 1
        z = v[k, j]
        v[:, j] *= z.conjugate() / abs(z)
    return w, v


def jacobi_cyclic(a_in: np.ndarray, max_sweeps: int, rel_tol: float):
    """Cyclic complex Jacobi eigenvalue iteration on a Hermitian matrix.

    Returns (diagonal, eigenvectors, sweeps, converged), unsorted.
    """
    n = a_in.shape[0]
    a = np.array(a_in, dtype=np.complex128, order="C")
    v = np.eye(n, dtype=np.complex128)
    fro = float(np.linalg.norm(a))
    if fro == 0.0 or n == 1:
        return np.real(np.diag(a)).copy(), v, 0, True

    tol2 = (rel_tol * fro) ** 2
    skip = 1e-18 * fro
    sweep = 0
    converged = False
    while sweep < max_sweeps:
        off = float(np.sum(np.abs(np.triu(a, 1)) ** 2))
        if off <= tol2:
            converged = True
            break
        sweep += 1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                r = abs(apq)
                if r <= skip:
                    continue
                ph = apq / r
                phc = ph.conjugate()
                app = a[p, p].real
                aqq = a[q, q].real
                tau = (aqq - app) / (2.0 * r)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * phc * col_q
                a[:, q] = s * col_p + c * phc * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * ph * row_q
                a[q, :] = s * row_p + c * ph * row_q
                vcol_p = v[:, p].copy()
                vcol_q = v[:, q].copy()
                v[:, p] = c * vcol_p - s * phc * vcol_q
                v[:, q] = s * vcol_p + c * phc * vcol_q
    if not converged:
        off = float(np.sum(np.abs(np.triu(a, 1)) ** 2))
        converged = off <= tol2
    return np.real(np.diag(a)).copy(), v, sweep, converged


def eig_hermitian(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and unitary eigenvectors of a Hermitian matrix.

    Deterministic: stable ordering and a fixed phase convention per column.
    """
    a = check_hermitian(a)
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real]), np.ones((1, 1), dtype=np.complex128)
    if n == 2:
        return _eig2(a)
    a = (a + a.conj().T) / 2.0
    max_sweeps = 100 * n * n
    diag, vec, _, converged = jacobi_cyclic(a, max_sweeps, _JACOBI_TOL)
    if not converged:
        raise NoConvergenceError(f"Jacobi sweeps exceeded cap {max_sweeps}")
    order = np.argsort(diag, kind="stable")
    w = np.ascontiguousarray(diag[order])
    v = np.ascontiguousarray(vec[:, order])
    # fix each eigenvector phase: largest-magnitude entry made real positive
    for j in range(n):
        k = int(np.argmax(np.abs(v[:, j])))
        z = v[k, j]
        if abs(z) > 0:
            v[:, j] *= z.conjugate() / abs(z)
    return w, v


def _spectral_map(a, fn) -> np.ndarray:
    w, v = eig_hermitian(a)
    return (v * fn(w)) @ v.conj().T


def support_mask(w: np.ndarray) -> np.ndarray:
    """Which eigenvalues of a PSD operator lie on its support: those above
    SUPPORT_CUTOFF times the largest magnitude. w is ascending, as
    `eig_hermitian` returns it. Raises if an eigenvalue is genuinely negative
    (below minus the cutoff)."""
    if not w.size:
        return w > 0.0
    lo, hi = float(w[0]), float(w[-1])
    cutoff = SUPPORT_CUTOFF * max(-lo, hi)
    if lo < -cutoff:
        raise NegativeEigenvalueError(f"eigenvalue {lo:.3e} below -cutoff {-cutoff:.3e}")
    return w > cutoff


def _full_rank(w: np.ndarray) -> bool:
    """Whether `support_mask` keeps every eigenvalue of the ascending PSD
    spectrum w, by two comparisons."""
    return bool(w.size) and float(w[0]) > SUPPORT_CUTOFF * float(w[-1])


def power_from_spectrum(w: np.ndarray, v: np.ndarray, p: float) -> np.ndarray:
    """A^p on the support of a PSD A = v diag(w) v^dagger, w ascending; p = 0
    gives the support projector."""
    on = support_mask(w)
    out = np.zeros_like(w)
    out[on] = 1.0 if p == 0 else w[on] ** p
    return (v * out) @ v.conj().T


def log2_on_support(w: np.ndarray) -> np.ndarray:
    """log2 of the ascending PSD spectrum w on its support, zero off it."""
    on = support_mask(w)
    out = np.zeros_like(w)
    out[on] = np.log2(w[on])
    return out


def log2_from_spectrum(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """log2(A) on the support of a PSD A = v diag(w) v^dagger, w ascending
    (zero off support)."""
    return (v * log2_on_support(w)) @ v.conj().T


def spectral_power(a, p: float) -> np.ndarray:
    """A^p on the support of A; p = 0 gives the support projector."""
    return power_from_spectrum(*eig_hermitian(a), p)


def spectral_log2(a) -> np.ndarray:
    """log2(A) on the support of A (zero off support)."""
    return log2_from_spectrum(*eig_hermitian(a))


def tensor(*ops) -> np.ndarray:
    out = _as_matrix(ops[0])
    for b in ops[1:]:
        out = np.kron(out, _as_matrix(b))
    return out


def eigenvalue_groups(w: np.ndarray, rel_gap: float = _GROUP_GAP) -> list[np.ndarray]:
    """Group sorted eigenvalue indices into clusters separated by relative gap."""
    if len(w) == 0:
        return []
    scale = float(np.max(np.abs(w))) or 1.0
    groups = [[0]]
    for i in range(1, len(w)):
        if abs(w[i] - w[i - 1]) <= rel_gap * scale:
            groups[-1].append(i)
        else:
            groups.append([i])
    return [np.array(g) for g in groups]


def pinch(a, x) -> np.ndarray:
    """Pinching of A by the eigenprojectors of X (degenerate levels grouped)."""
    a = _as_matrix(a)
    x = _as_matrix(x)
    if a.shape != x.shape:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {x.shape}")
    w, v = eig_hermitian(x)
    out = np.zeros_like(a)
    for g in eigenvalue_groups(w):
        vg = v[:, g]
        proj = vg @ vg.conj().T
        out += proj @ a @ proj
    return out


def positive_part(a) -> np.ndarray:
    """Sum of strictly positive eigenvalue contributions of A."""
    return _spectral_map(a, lambda w: np.where(w > 0.0, w, 0.0))


def positive_projector_from_spectrum(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Projector onto the strictly positive eigenspace of a Hermitian
    A = v diag(w) v^dagger: eigenvalues above SUPPORT_CUTOFF times the
    largest magnitude."""
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    on = w > SUPPORT_CUTOFF * scale
    return (v * on.astype(float)) @ v.conj().T


def positive_projector(a) -> np.ndarray:
    """Projector onto the strictly positive eigenspace (cutoff-relative)."""
    return positive_projector_from_spectrum(*eig_hermitian(a))


def nonneg_projector(a) -> np.ndarray:
    """Projector onto the nonnegative eigenspace, kernel included."""
    w, v = eig_hermitian(a)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    on = w >= -SUPPORT_CUTOFF * scale
    return (v * on.astype(float)) @ v.conj().T


def trace_norm(a) -> float:
    w, _ = eig_hermitian(a)
    return float(np.sum(np.abs(w)))


def spectrum_of(a) -> tuple[np.ndarray, np.ndarray]:
    """(w, v) of a Hermitian operator: the eigendecomposition an operator
    object keeps (`DensityOperator.spectrum`), else one new one."""
    kept = getattr(a, "spectrum", None)
    return kept() if kept is not None else eig_hermitian(a)


def leaks(inner, w: np.ndarray, v: np.ndarray) -> bool:
    """True unless supp(inner) lies in the support of the PSD operator
    v diag(w) v^dagger, w ascending: inner compressed to its kernel has an
    eigenvalue above SUPPORT_CUTOFF times Tr inner. Free when w has full
    rank, one eigendecomposition otherwise."""
    if _full_rank(w):
        return False
    inner = _as_matrix(inner)
    kernel = v[:, ~support_mask(w)]
    lw, _ = eig_hermitian(kernel.conj().T @ inner @ kernel)
    return float(np.max(np.abs(lw))) > SUPPORT_CUTOFF * float(np.real(np.trace(inner)))


def support_contained(rho, sigma) -> bool:
    """True when supp(rho) is contained in supp(sigma)."""
    return not leaks(rho, *spectrum_of(sigma))


def wlog2w(w: np.ndarray) -> float:
    """Sum of w log2 w over the support of the PSD spectrum w: minus the
    entropy in bits."""
    return float(w @ log2_on_support(w))


def intersection_basis(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the intersection of the ranges of the
    projectors pa and pb: the eigenvectors of pa + pb at eigenvalue 2."""
    w, v = eig_hermitian(pa + pb)
    return v[:, w > 2.0 - 1e-8]


def inv_sqrt_on_support(a) -> np.ndarray:
    return spectral_power(a, -0.5)


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (m + m.conj().T) / 2.0


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    r = rank or dim
    g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


LN2 = math.log(2.0)
