"""Dense Hermitian operator calculus: eigendecomposition, spectral functions
under support conventions, tensor products, partial traces, pinching.

All logarithms and exponentials are base 2. Powers, logs and support
projectors act on the support only: eigenvalues below the policy cutoff are
treated as exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cqsw.errors import (
    DimensionMismatchError,
    NegativeEigenvalueError,
    NoConvergenceError,
    NonHermitianError,
)
from cqsw.kernels import jacobi_cyclic

_HERM_TOL = 1e-12
_GROUP_GAP = 1e-9
_JACOBI_TOL = 1e-14


@dataclass(frozen=True)
class SupportPolicy:
    """Relative eigenvalue cutoff deciding what counts as zero."""

    relative_cutoff: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.relative_cutoff < 1e-6:
            raise ValueError("relative_cutoff must lie in (0, 1e-6)")


DEFAULT_POLICY = SupportPolicy()


def _as_matrix(a) -> np.ndarray:
    m = getattr(a, "matrix", a)
    return np.asarray(m, dtype=np.complex128)


def max_norm(a) -> float:
    a = _as_matrix(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


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


class HermitianOperator:
    """Validated Hermitian matrix with a cached spectral decomposition."""

    __slots__ = ("matrix", "_spectrum")

    def __init__(self, matrix):
        self.matrix = check_hermitian(matrix)
        self._spectrum = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        if self._spectrum is None:
            self._spectrum = eig_hermitian(self.matrix)
        return self._spectrum

    def __array__(self, dtype=None):
        return self.matrix if dtype is None else self.matrix.astype(dtype)


def _spectral_map(a, fn) -> np.ndarray:
    w, v = eig_hermitian(a)
    return (v * fn(w)) @ v.conj().T


def support_mask(w: np.ndarray, policy: SupportPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Which eigenvalues of a PSD operator lie on its support: those above the
    policy cutoff relative to the largest magnitude. w is ascending, as
    `eig_hermitian` returns it. Raises if an eigenvalue is genuinely negative
    (below minus the cutoff)."""
    if not w.size:
        return w > 0.0
    lo, hi = float(w[0]), float(w[-1])
    cutoff = policy.relative_cutoff * max(-lo, hi)
    if lo < -cutoff:
        raise NegativeEigenvalueError(f"eigenvalue {lo:.3e} below -cutoff {-cutoff:.3e}")
    return w > cutoff


def power_from_spectrum(w: np.ndarray, v: np.ndarray, p: float,
                        policy: SupportPolicy = DEFAULT_POLICY) -> np.ndarray:
    """A^p on the support of a PSD A = v diag(w) v^dagger, w ascending; p = 0
    gives the support projector."""
    on = support_mask(w, policy)
    out = np.zeros_like(w)
    out[on] = 1.0 if p == 0 else w[on] ** p
    return (v * out) @ v.conj().T


def log2_from_spectrum(w: np.ndarray, v: np.ndarray,
                       policy: SupportPolicy = DEFAULT_POLICY) -> np.ndarray:
    """log2(A) on the support of a PSD A = v diag(w) v^dagger, w ascending
    (zero off support)."""
    on = support_mask(w, policy)
    out = np.zeros_like(w)
    out[on] = np.log2(w[on])
    return (v * out) @ v.conj().T


def spectral_power(a, p: float, policy: SupportPolicy = DEFAULT_POLICY) -> np.ndarray:
    """A^p on the support of A; p = 0 gives the support projector."""
    return power_from_spectrum(*eig_hermitian(a), p, policy)


def support_projector(a, policy: SupportPolicy = DEFAULT_POLICY) -> np.ndarray:
    return spectral_power(a, 0.0, policy)


def spectral_log2(a, policy: SupportPolicy = DEFAULT_POLICY) -> np.ndarray:
    """log2(A) on the support of A (zero off support)."""
    return log2_from_spectrum(*eig_hermitian(a), policy)


def spectral_exp2(a) -> np.ndarray:
    """2^A for Hermitian A (full exponential, no support restriction)."""
    return _spectral_map(a, lambda w: np.exp2(w))


def tensor(*ops) -> np.ndarray:
    out = _as_matrix(ops[0])
    for b in ops[1:]:
        out = np.kron(out, _as_matrix(b))
    return out


def partial_trace(a, dims: list[int], keep) -> np.ndarray:
    """Trace out all subsystems except those in `keep` (indices into dims)."""
    a = _as_matrix(a)
    dims = list(dims)
    total = int(np.prod(dims))
    if a.shape != (total, total):
        raise DimensionMismatchError(
            f"matrix of dim {a.shape[0]} does not match subsystem dims {dims}"
        )
    keep = sorted(keep if isinstance(keep, (list, tuple, set)) else [keep])
    if any(k < 0 or k >= len(dims) for k in keep):
        raise DimensionMismatchError(f"keep indices {keep} out of range")
    n = len(dims)
    t = a.reshape(dims + dims)
    traced = 0
    for sub in range(n):
        if sub in keep:
            continue
        ax1 = sub - traced
        ax2 = sub - traced + (n - traced)
        t = np.trace(t, axis1=ax1, axis2=ax2)
        traced += 1
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


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


def pinch(a, x, policy: SupportPolicy = DEFAULT_POLICY) -> np.ndarray:
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


def positive_projector(a, policy: SupportPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Projector onto the strictly positive eigenspace (cutoff-relative)."""
    w, v = eig_hermitian(a)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    on = w > policy.relative_cutoff * scale
    return (v * on.astype(float)) @ v.conj().T


def nonneg_projector(a, policy: SupportPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Projector onto the nonnegative eigenspace, kernel included."""
    w, v = eig_hermitian(a)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    on = w >= -policy.relative_cutoff * scale
    return (v * on.astype(float)) @ v.conj().T


def op_norm(a) -> float:
    """Spectral norm of a Hermitian matrix."""
    w, _ = eig_hermitian(a)
    return float(np.max(np.abs(w))) if w.size else 0.0


def trace_norm(a) -> float:
    w, _ = eig_hermitian(a)
    return float(np.sum(np.abs(w)))


def support_contained(rho, sigma, policy: SupportPolicy = DEFAULT_POLICY) -> bool:
    """True when supp(rho) is contained in supp(sigma)."""
    rho = _as_matrix(rho)
    proj = support_projector(sigma, policy)
    comp = np.eye(rho.shape[0]) - proj
    leak = comp @ rho @ comp
    tr = float(np.real(np.trace(rho)))
    return op_norm(leak) <= policy.relative_cutoff * max(tr, 1.0)


def orthogonal(a, b, policy: SupportPolicy = DEFAULT_POLICY) -> bool:
    """True when supp(A) and supp(B) intersect trivially."""
    pa = support_projector(a, policy)
    pb = support_projector(b, policy)
    prod = pa @ pb @ pa
    return op_norm(prod) <= policy.relative_cutoff


def intersection_projector(a, b, policy: SupportPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Projector onto supp(A) intersected with supp(B)."""
    pa = support_projector(a, policy)
    pb = support_projector(b, policy)
    w, v = eig_hermitian(pa + pb)
    on = w > 2.0 - 1e-8
    return (v * on.astype(float)) @ v.conj().T


def inv_sqrt_on_support(a, policy: SupportPolicy = DEFAULT_POLICY) -> np.ndarray:
    return spectral_power(a, -0.5, policy)


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (m + m.conj().T) / 2.0


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    r = rank or dim
    g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


LN2 = math.log(2.0)
