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


def _eig2(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigendecompositions of a (k, 2, 2) stack of Hermitian
    matrices [[p, b], [b*, q]], one stable Jacobi rotation each: eigenvalues
    (k, 2) ascending and eigenvectors (k, 2, 2).

    The rotation angle has tangent t = sign(q - p) 2|b| / (|q - p| +
    hypot(q - p, 2|b|)), |t| <= 1, so nothing cancels for nearly diagonal
    input; the eigenvalues are p - t|b| and q + t|b|, with eigenvectors
    (c, -conj(x)) and (x, c), c = cos >= |x|, x = sin b/|b|. Each column
    thus has its largest-magnitude entry, c (the rotation's own on a tie,
    p = q), real positive. A multiple of the identity keeps the identity."""
    p = a[:, 0, 0].real
    q = a[:, 1, 1].real
    b = a[:, 0, 1]
    r = np.abs(b)
    gap = q - p
    den = np.hypot(gap, r + r)
    den += np.abs(gap)
    den[den == 0.0] = 1.0
    # t = scale |b| and x = c scale b, scale = sign(q - p) 2 / den
    scale = np.copysign(2.0, gap)
    scale /= den
    t = scale * r
    c = 1.0 / np.sqrt(1.0 + t * t)
    x = (scale * c) * b
    t *= r
    w = np.empty(a.shape[:2])
    w[:, 0] = p - t
    w[:, 1] = q + t
    v = np.empty(a.shape, dtype=np.complex128)
    v[:, 0, 0] = c
    v[:, 1, 1] = c
    v[:, 0, 1] = x
    v[:, 1, 0] = -x.conj()
    # p - t|b| > q + t|b| exactly where q - p carries a minus sign
    swap = np.signbit(gap)[:, None]
    return np.where(swap, w[:, ::-1], w), np.where(swap[:, :, None], v[:, :, ::-1], v)


def jacobi_cyclic(a_in: np.ndarray, max_sweeps: int, rel_tol: float):
    """Cyclic complex Jacobi eigenvalue iteration on each matrix of a
    (k, n, n) stack of Hermitian matrices.

    The convergence test runs on the whole stack first, so a matrix that
    already meets it, a diagonal one say, costs no rotation; the others are
    iterated one by one, each for at most max_sweeps sweeps. Returns
    (diagonals (k, n), eigenvectors (k, n, n), sweeps, converged),
    unsorted; sweeps is summed over the stack, and converged holds when
    every matrix met the tolerance.
    """
    a = np.array(a_in, dtype=np.complex128, order="C")
    n = a.shape[-1]
    v = np.eye(n, dtype=np.complex128)[None].repeat(len(a), axis=0)
    sq = np.abs(a) ** 2
    fro = np.sqrt(sq.sum((1, 2)))
    tol2 = (rel_tol * fro) ** 2
    off = np.triu(sq, 1).sum((1, 2))
    sweeps = 0
    converged = True
    for i in np.flatnonzero(off > tol2):
        m, vm = a[i], v[i]  # views: the rotations act on the stacks
        skip, tol2_i, off_i = 1e-18 * float(fro[i]), float(tol2[i]), float(off[i])
        sweep = 0
        while off_i > tol2_i and sweep < max_sweeps:
            sweep += 1
            for p in range(n - 1):
                for q in range(p + 1, n):
                    apq = m[p, q]
                    r = abs(apq)
                    if r <= skip:
                        continue
                    ph = apq / r
                    phc = ph.conjugate()
                    app = m[p, p].real
                    aqq = m[q, q].real
                    tau = (aqq - app) / (2.0 * r)
                    if tau >= 0.0:
                        t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                    else:
                        t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                    c = 1.0 / math.sqrt(1.0 + t * t)
                    s = t * c
                    col_p = m[:, p].copy()
                    col_q = m[:, q].copy()
                    m[:, p] = c * col_p - s * phc * col_q
                    m[:, q] = s * col_p + c * phc * col_q
                    row_p = m[p, :].copy()
                    row_q = m[q, :].copy()
                    m[p, :] = c * row_p - s * ph * row_q
                    m[q, :] = s * row_p + c * ph * row_q
                    vcol_p = vm[:, p].copy()
                    vcol_q = vm[:, q].copy()
                    vm[:, p] = c * vcol_p - s * phc * vcol_q
                    vm[:, q] = s * vcol_p + c * phc * vcol_q
            off_i = float((np.abs(np.triu(m, 1)) ** 2).sum())
        sweeps += sweep
        converged = converged and off_i <= tol2_i
    return a.diagonal(axis1=1, axis2=2).real.copy(), v, sweeps, converged


def _eig_jacobi(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (k, n), ascending, and eigenvectors (k, n, n) of a
    (k, n, n) stack of Hermitian matrices, n >= 3, by cyclic Jacobi
    (`jacobi_cyclic`), with the phase convention of `_eig2`; sorting and
    phases are fixed for the whole stack at once."""
    n = a.shape[-1]
    a = (a + a.conj().transpose(0, 2, 1)) / 2.0
    max_sweeps = 100 * n * n
    diag, vec, _, converged = jacobi_cyclic(a, max_sweeps, _JACOBI_TOL)
    if not converged:
        raise NoConvergenceError(f"Jacobi sweeps exceeded cap {max_sweeps}")
    rows = np.arange(len(a))[:, None]
    order = np.argsort(diag, axis=1, kind="stable")
    w = diag[rows, order]
    v = vec[rows, :, order].transpose(0, 2, 1)
    # fix each eigenvector phase: largest-magnitude entry made real positive
    top = v[rows, np.argmax(np.abs(v), axis=1), np.arange(n)]
    mag = np.abs(top)
    v *= np.divide(top.conj(), mag, out=np.ones_like(top), where=mag > 0.0)[:, None, :]
    return w, v


def eig_hermitian(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and unitary eigenvectors of a Hermitian matrix.

    Deterministic: stable ordering and a fixed phase convention per column.
    The matrix is validated (`check_hermitian`); `eig_hermitian_stack` takes
    matrices Hermitian by construction unvalidated.
    """
    a = check_hermitian(a)
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real]), np.ones((1, 1), dtype=np.complex128)
    w, v = (_eig2 if n == 2 else _eig_jacobi)(a[None])
    return w[0], v[0]


def eig_hermitian_stack(a) -> tuple[np.ndarray, np.ndarray]:
    """`eig_hermitian` of each matrix of a (k, n, n) stack, unvalidated:
    eigenvalues (k, n) and eigenvectors (k, n, n). 2 x 2 stacks take the
    closed form in one pass; larger ones go through `_eig_jacobi`."""
    a = np.asarray(a, dtype=np.complex128)
    if a.shape[-1] == 1:
        return a[:, :, 0].real.copy(), np.ones(a.shape, dtype=np.complex128)
    return (_eig2 if a.shape[-1] == 2 else _eig_jacobi)(a)


def _spectral_map(a, fn) -> np.ndarray:
    w, v = eig_hermitian(a)
    return (v * fn(w)) @ v.conj().T


def support_mask(w: np.ndarray) -> np.ndarray:
    """Which eigenvalues of a PSD operator lie on its support: those above
    SUPPORT_CUTOFF times the largest magnitude. w is ascending, as
    `eig_hermitian` returns it; a (k, n) stack of spectra
    (`eig_hermitian_stack`) is masked row by row. Raises if an eigenvalue is
    genuinely negative (below minus the cutoff)."""
    lo, hi = w[..., :1], w[..., -1:]
    cutoff = SUPPORT_CUTOFF * np.maximum(-lo, hi)
    below = lo < -cutoff
    if below.any():
        raise NegativeEigenvalueError(f"eigenvalue {float(lo[below].min()):.3e} below -cutoff")
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
    """The Kronecker product of the operators, left to right: entry by entry
    the products np.kron forms, without its general-shape handling."""
    out = _as_matrix(ops[0])
    for b in ops[1:]:
        b = _as_matrix(b)
        (r, c), (br, bc) = out.shape, b.shape
        out = (out[:, None, :, None] * b[None, :, None, :]).reshape(r * br, c * bc)
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


def nonneg_eigenvectors(a) -> np.ndarray:
    """(D, k): the orthonormal eigenvectors of A that span its nonnegative
    eigenspace, kernel included (eigenvalues at or above -SUPPORT_CUTOFF
    times the largest magnitude)."""
    w, v = eig_hermitian(a)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    return v[:, w >= -SUPPORT_CUTOFF * scale]


def nonneg_projector(a) -> np.ndarray:
    """Projector onto the nonnegative eigenspace, kernel included."""
    e = nonneg_eigenvectors(a)
    return e @ e.conj().T


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
    eigenvalue above SUPPORT_CUTOFF times Tr inner. inner is one operator or
    a (k, d, d) stack of them, which leaks where any of its matrices does;
    it is not validated. Free when w has full rank, one stacked
    eigendecomposition of the compressions otherwise."""
    if _full_rank(w):
        return False
    inner = _as_matrix(inner)
    kernel = v[:, ~support_mask(w)]
    comp = kernel.conj().T @ inner @ kernel
    lw, _ = eig_hermitian_stack(comp.reshape(-1, *comp.shape[-2:]))
    trace = np.trace(inner, axis1=-2, axis2=-1).real.reshape(-1)
    return bool(np.any(np.max(np.abs(lw), axis=1) > SUPPORT_CUTOFF * trace))


def support_contained(rho, sigma) -> bool:
    """True when supp(rho) is contained in supp(sigma)."""
    return not leaks(rho, *spectrum_of(sigma))


def wlog2w(w: np.ndarray) -> float:
    """Sum of w log2 w over the support of the PSD spectrum w: minus the
    entropy in bits."""
    return float(w @ log2_on_support(w))


class BlockSpectra:
    """The eigendecompositions of a stack of k PSD blocks of one size d, as
    arrays: the traces p (k,), the eigenvalues w (k, d), ascending per block,
    and the eigenvectors v (k, d, d), block i being v[i] diag(w[i]) v[i]^dagger.
    Iterating yields the triples (p_i, w[i], v[i]).

    The support mask of each block (`support`) and log2 of its spectrum on
    it (`log2w`) are computed on first use. `rotated` and `overlaps`
    express the blocks in the eigenbasis sv of an operator sigma, and keep
    that for the last sv asked for (the same array object), so a run of
    evaluations against one sigma, the marginal rho_B say, computes it once.
    """

    __slots__ = ("p", "w", "v", "_support", "_log2w", "_sv", "_rotated", "_overlaps")

    def __init__(self, p, w, v):
        self.p = np.asarray(p, dtype=float)
        self.w = w
        self.v = v
        self._support = self._log2w = self._sv = None

    def __iter__(self):
        return zip(self.p.tolist(), self.w, self.v)

    @property
    def support(self) -> np.ndarray:
        """(k, d): `support_mask` of each block's spectrum."""
        if self._support is None:
            self._support = support_mask(self.w)
        return self._support

    @property
    def log2w(self) -> np.ndarray:
        """(k, d): `log2_on_support` of each block's spectrum."""
        if self._log2w is None:
            self._log2w = np.log2(self.w, out=np.zeros_like(self.w), where=self.support)
        return self._log2w

    def rotated(self, sv: np.ndarray) -> np.ndarray:
        """(k, d, d): v[i]^dagger sv, entry (a, b) the overlap of the a-th
        eigenvector of block i with the b-th column of sv."""
        if sv is not self._sv:
            self._sv = sv
            self._rotated = self.v.conj().transpose(0, 2, 1) @ sv
            self._overlaps = None
        return self._rotated

    def overlaps(self, sv: np.ndarray) -> np.ndarray:
        """(k, d, d): the squared magnitudes of `rotated`."""
        a = self.rotated(sv)
        if self._overlaps is None:
            self._overlaps = (a * a.conj()).real
        return self._overlaps


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
