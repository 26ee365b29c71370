"""Sources with quantum side information: a classical symbol distribution
paired with one density operator per symbol, plus n-fold extensions (whole,
by type class, or for qubit side information by Schur-Weyl irrep) and JSON
file ingestion.
"""

from __future__ import annotations

import functools
import itertools
import json
import math

import numpy as np

from cqsw.errors import (
    CapExceededError,
    DimensionMismatchError,
    DomainError,
    InvariantViolation,
    ParseError,
)
from cqsw.operators import (
    BlockSpectra,
    check_hermitian,
    eig_hermitian,
    eig_hermitian_stack,
    tensor,
)

_PROB_TOL = 1e-12
_TRACE_TOL = 1e-10
DEFAULT_CAP = 4096


class DensityOperator:
    """PSD matrix with unit trace (small tolerance).

    The eigendecomposition is kept once computed: validation computes it,
    `from_spectrum` starts from it, and `spectrum()` computes it on first
    use otherwise. The matrix is therefore never modified in place; one made
    by `from_spectrum` is built on first use, since most optimizer results
    (the petz sigma* behind each probe of an exponent's Legendre slope
    search) are never read.
    """

    __slots__ = ("_matrix", "_spectrum")

    def __init__(self, matrix, check: bool = True):
        m = check_hermitian(matrix)
        self._spectrum = None
        if check:
            tr = float(np.real(np.trace(m)))
            if abs(tr - 1.0) > _TRACE_TOL:
                raise InvariantViolation("trace", f"trace {tr} is not 1")
            w, v = eig_hermitian(m)
            if w.size and float(w[0]) < -_TRACE_TOL:
                raise InvariantViolation("psd", f"eigenvalue {float(w[0]):.3e} < 0")
            self._spectrum = (w, v)
        self._matrix = m

    @classmethod
    def from_spectrum(cls, w: np.ndarray, v: np.ndarray) -> "DensityOperator":
        """The operator v diag(w) v^dagger, with w ascending, nonnegative and
        summing to one, and its eigendecomposition known."""
        out = cls.__new__(cls)
        out._matrix = None
        out._spectrum = (w, v)
        return out

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            w, v = self._spectrum
            self._matrix = (v * w) @ v.conj().T
        return self._matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and eigenvectors, computed once."""
        if self._spectrum is None:
            self._spectrum = eig_hermitian(self.matrix)
        return self._spectrum

    def __array__(self, dtype=None):
        return self.matrix if dtype is None else self.matrix.astype(dtype)


class CQState:
    """Classical-quantum source: symbols, probabilities, side information.

    A CQState is treated as immutable, so every result derived from it alone
    (block spectra, marginal, n-fold extensions, tables of solves and
    windows) is computed once, on first use, and kept on the state by
    `cached` under a key chosen by the function that computes it.
    """

    def __init__(self, alphabet, probs, side_info, check: bool = True):
        self.alphabet = [str(a) for a in alphabet]
        self.probs = np.asarray(probs, dtype=float)
        self.side_info = [
            r if isinstance(r, DensityOperator) else DensityOperator(r, check=check)
            for r in side_info
        ]
        if not (len(self.alphabet) == len(self.probs) == len(self.side_info)):
            raise InvariantViolation(
                "lengths",
                f"{len(self.alphabet)} symbols, {len(self.probs)} probs, "
                f"{len(self.side_info)} side-info operators",
            )
        dims = {r.dim for r in self.side_info}
        if len(dims) != 1:
            raise DimensionMismatchError(f"side-info dimensions differ: {sorted(dims)}")
        self.dim_b = dims.pop()
        self._cache = {}
        if check:
            if np.any(self.probs < 0):
                raise InvariantViolation("probs", "negative probability")
            total = float(np.sum(self.probs))
            if abs(total - 1.0) > _PROB_TOL * max(1, len(self.probs)):
                raise InvariantViolation("probs", f"probabilities sum to {total}")

    @property
    def size_x(self) -> int:
        return len(self.alphabet)

    def cached(self, key, build, *args):
        """The result kept on this state under key, built as build(*args)
        on first use."""
        if key not in self._cache:
            self._cache[key] = build(*args)
        return self._cache[key]

    def blocks(self):
        """Pairs (p(x), rho_B^x matrix) for the nonzero-probability symbols."""
        return [
            (float(p), r.matrix)
            for p, r in zip(self.probs, self.side_info)
            if p > 0.0
        ]

    def block_spectra(self) -> BlockSpectra:
        """The blocks p(x) rho_B^x of the nonzero-probability symbols as one
        stack (`operators.BlockSpectra`): p (k,), w (k, d), v (k, d, d), from
        one stacked eigendecomposition; iterating it yields the triples
        (p(x), w, v) of v diag(w) v^dagger = p(x) rho_B^x."""
        return self.cached("block_spectra", _stack_blocks, self)

    def __eq__(self, other):
        if not isinstance(other, CQState):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and np.array_equal(self.probs, other.probs)
            and all(
                np.array_equal(a.matrix, b.matrix)
                for a, b in zip(self.side_info, other.side_info)
            )
        )


def _stack_blocks(s: CQState) -> BlockSpectra:
    on = s.probs > 0.0
    p = s.probs[on]
    mats = np.array([r.matrix for r, keep in zip(s.side_info, on) if keep])
    return BlockSpectra(p, *eig_hermitian_stack(p[:, None, None] * mats))


def as_joint_operator(s: CQState) -> np.ndarray:
    """Block-diagonal joint operator with block x equal to p(x) rho_B^x."""
    d = s.dim_b
    out = np.zeros((s.size_x * d, s.size_x * d), dtype=np.complex128)
    for i, (p, r) in enumerate(zip(s.probs, s.side_info)):
        out[i * d:(i + 1) * d, i * d:(i + 1) * d] = p * r.matrix
    return out


def marginal_b(s: CQState) -> DensityOperator:
    """rho_B = sum_x p(x) rho_B^x, built and validated once per state."""
    return s.cached("marginal", _marginal, s)


def _marginal(s: CQState) -> DensityOperator:
    m = np.zeros((s.dim_b, s.dim_b), dtype=np.complex128)
    for p, r in zip(s.probs, s.side_info):
        m += p * r.matrix
    return DensityOperator(m)


def _check_nfold(s: CQState, n: int, cap: int) -> None:
    """n must be positive, and above n = 1 the n-fold joint dimension
    |X|^n d^n must not exceed cap."""
    _check_cap(n, (s.size_x ** n) * (s.dim_b ** n), cap, "n-fold state dimension")


def _check_cap(n: int, total: int, cap: int, what: str) -> None:
    """n must be positive, and above n = 1 the count total of what an
    n-fold computation builds must not exceed cap."""
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    if n > 1 and total > cap:
        raise CapExceededError(f"{what} {total} exceeds cap {cap}")


def power_state(s: CQState, n: int, cap: int = DEFAULT_CAP) -> CQState:
    """The n-fold memoryless extension over the alphabet of length-n strings,
    built once per (state, n); the cap is checked on every call."""
    _check_nfold(s, n, cap)
    if n == 1:
        return s
    return s.cached(("power_state", n), _build_power_state, s, n)


def _build_power_state(s: CQState, n: int) -> CQState:
    alphabet = []
    probs = []
    ops = []
    for idx in itertools.product(range(s.size_x), repeat=n):
        alphabet.append("".join(s.alphabet[i] for i in idx))
        probs.append(float(np.prod([s.probs[i] for i in idx])))
        ops.append(DensityOperator(tensor(*(s.side_info[i].matrix for i in idx)), check=False))
    out = CQState(alphabet, probs, ops, check=False)
    # the marginal of a memoryless extension is the tensor power of the
    # validated single-copy marginal: nothing to validate, and no spectrum
    # until one is asked for
    out._cache["marginal"] = DensityOperator(tensor(*([marginal_b(s).matrix] * n)), check=False)
    return out


def type_classes(s: CQState, n: int, cap: int = DEFAULT_CAP):
    """One sorted representative per type class of the length-n strings over
    the nonzero-probability symbols, as (multiplicity, p_{x^n}, rho_{x^n}).

    Permuting tensor factors maps rho_{x^n} to the block of any other string
    of the same type and fixes every n-fold product sigma^(x)n, so a
    quantity that sums a unitarily invariant function of (block, sigma^(x)n)
    over strings needs only these C(n + |X| - 1, n) blocks, each weighted by
    the size of its class. The cap is the one of `power_state`.
    """
    _check_nfold(s, n, cap)
    blocks = s.blocks()
    out = []
    for idx, _, mult in _types(len(blocks), n):
        p = float(np.prod([blocks[i][0] for i in idx]))
        out.append((mult, p, tensor(*(blocks[i][1] for i in idx))))
    return out


def _types(k: int, n: int):
    """The types of length-n strings over k symbols, each as (its sorted
    representative, the pairs (symbol, count) of the symbols it uses, the
    size of its class)."""
    for idx in itertools.combinations_with_replacement(range(k), n):
        counts = [(x, idx.count(x)) for x in sorted(set(idx))]
        mult = math.factorial(n)
        for _, c in counts:
            mult //= math.factorial(c)
        yield idx, counts, mult


def _sym_powers(a: np.ndarray, m_max: int) -> list[np.ndarray]:
    """[Sym^0(A), ..., Sym^m_max(A)] of a 2 x 2 matrix A: Sym^m(A) is
    A^(x)m on the symmetric subspace of m qubits, in its orthonormal basis
    |m, j> (the normalized symmetrization of m - j zeros and j ones),
    j = 0..m.

    A^(x)m maps the symmetric tensor of the monomial x^(m-k) y^k to that of
    u^(m-k) w^k, u = a00 x + a10 y and w = a01 x + a11 y, and |m, j> is that
    tensor of x^(m-j) y^j over sqrt(C(m, j)); so entry (j, k) is the
    coefficient c_jk of x^(m-j) y^j in u^(m-k) w^k times
    sqrt(C(m, k) / C(m, j)). Column k < m of c at m is u times column k at
    m - 1, and column m is w times column m - 1 at m - 1."""
    out = [np.ones((1, 1), dtype=np.complex128)]
    c = out[0]
    for m in range(1, m_max + 1):
        nxt = np.zeros((m + 1, m + 1), dtype=np.complex128)
        nxt[:-1, :-1] = a[0, 0] * c
        nxt[1:, :-1] += a[1, 0] * c
        nxt[:-1, -1] = a[0, 1] * c[:, -1]
        nxt[1:, -1] += a[1, 1] * c[:, -1]
        c = nxt
        out.append(c * _binomial_ratios(m))
    return out


@functools.lru_cache(maxsize=None)
def _binomial_ratios(m: int) -> np.ndarray:
    """(m + 1, m + 1): entry (j, k) is sqrt(C(m, k) / C(m, j))."""
    root = np.sqrt([float(math.comb(m, j)) for j in range(m + 1)])
    out = root[None, :] / root[:, None]
    out.flags.writeable = False  # shared by every call
    return out


def schur_weyl_blocks(s: CQState, n: int, cap: int = DEFAULT_CAP):
    """The pair (n-fold joint state, 1_X^n tensor rho_B^(x)n) of a source
    with qubit side information as weighted blocks (weight, rho block,
    sigma block) of one block-diagonal pair, for `hypotest._dh_blocks`.

    Within a type (n_x copies of each nonzero-probability symbol x) the
    pair is (p_type tensor_x rho_x^(x)n_x, tensor_x rho_B^(x)n_x), and by
    Schur-Weyl duality A^(x)m is the direct sum over lambda = (m - k, k),
    k <= m / 2, of det(A)^k Sym^(m-2k)(A), each C(m, k) - C(m, k - 1)
    times, in a basis that does not depend on A (Harrow, PhD thesis 2005).
    So each type and choice of k_x gives one block pair
    (p_type tensor_x det(rho_x)^k_x Sym^(n_x-2k_x)(rho_x),
    tensor_x det(rho_B)^k_x Sym^(n_x-2k_x)(rho_B)), weighted by the size of
    the type class times prod_x (C(n_x, k_x) - C(n_x, k_x - 1)): blocks of
    size prod_x (n_x - 2k_x + 1) instead of 2^n. A pure rho_x (rank one
    under the support cutoff rule) has det(rho_x) = 0, so every block with
    k_x > 0 has a zero rho side: for t > 0 its rho - t sigma = -t sigma has
    no positive part, and it carries no rho mass; at t = 0 it lies in the
    kernel, whose sigma mass enters no D_H^eps. Such blocks are left out.
    The cap is the one of `power_state`.
    """
    if s.dim_b != 2:
        raise DimensionMismatchError(f"Schur-Weyl blocks need qubit side information, got d = {s.dim_b}")
    _check_nfold(s, n, cap)
    blocks = s.blocks()
    ops = [r for _, r in blocks] + [marginal_b(s).matrix]
    dets = [float((r[0, 0] * r[1, 1]).real - abs(r[0, 1]) ** 2) for r in ops]
    sym = [_sym_powers(r, n) for r in ops]
    pure = (s.block_spectra().support.sum(axis=1) == 1).tolist()
    out = []
    for _, counts, mult in _types(len(blocks), n):
        p = math.prod(blocks[x][0] ** c for x, c in counts)
        for ks in itertools.product(*(range(1 if pure[x] else c // 2 + 1) for x, c in counts)):
            weight, scale = mult, p
            for (x, c), k in zip(counts, ks):
                weight *= math.comb(c, k) - (math.comb(c, k - 1) if k else 0)
                scale *= dets[x] ** k
            dims = [c - 2 * k for (_, c), k in zip(counts, ks)]
            rho = scale * tensor(*(sym[x][m] for (x, _), m in zip(counts, dims)))
            sigma = dets[-1] ** sum(ks) * tensor(*(sym[-1][m] for m in dims))
            out.append((weight, rho, sigma))
    return out


def _matrix_to_json(m: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _matrix_from_json(rows, d: int, which: int) -> np.ndarray:
    if len(rows) != d:
        raise ParseError(f"rho[{which}]: expected {d} rows, got {len(rows)}")
    out = np.zeros((d, d), dtype=np.complex128)
    for i, row in enumerate(rows):
        if len(row) != d:
            raise ParseError(f"rho[{which}] row {i}: expected {d} entries")
        for j, pair in enumerate(row):
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ParseError(f"rho[{which}][{i}][{j}]: expected [re, im] pair")
            out[i, j] = complex(float(pair[0]), float(pair[1]))
    return out


def save_state(s: CQState, path) -> None:
    doc = {
        "alphabet": s.alphabet,
        "probs": [float(p) for p in s.probs],
        "dim_b": s.dim_b,
        "rho": [_matrix_to_json(r.matrix) for r in s.side_info],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def load_state(path) -> CQState:
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ParseError(f"line {e.lineno}: {e.msg}") from e
    for field in ("alphabet", "probs", "dim_b", "rho"):
        if field not in doc:
            raise ParseError(f"missing field `{field}`")
    d = doc["dim_b"]
    if not isinstance(d, int) or d < 1:
        raise ParseError("dim_b: expected a positive integer")
    mats = [_matrix_from_json(rows, d, k) for k, rows in enumerate(doc["rho"])]
    return CQState(doc["alphabet"], doc["probs"], mats)
