"""Compression codes with quantum side information at desk scale: encoders,
measurement decoders, exact error probabilities, brute-force optimal codes,
and the auxiliary-state success-probability comparison.

A blocklength-n code bins source sequences into w_size indices; the decoder
for each bin is a POVM over sequences acting on the n-fold side system.
Sequences are indexed lexicographically, matching the n-fold product order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from cqsw.errors import (
    CapExceededError,
    InvariantViolation,
    NoConvergenceError,
    POVMInvalidError,
)
from cqsw.operators import (
    check_hermitian,
    eig_hermitian,
    inv_sqrt_on_support,
    nonneg_eigenvectors,
    positive_part,
    positive_projector_from_spectrum,
    support_mask,
)
from cqsw.states import DEFAULT_CAP, CQState, marginal_b, power_state
from cqsw.variational import DummyState

_POVM_TOL = 1e-9
_CERT_GAP = 1e-6
_FP_RESIDUAL = 1e-8
_FP_MAX_ITERS = 5000
_BRUTE_CAP = 10_000_000


@dataclass
class Code:
    """Deterministic encoder plus one decoding POVM per bin.

    encoder[i] is the bin of the i-th source sequence; decoder[w][i] is the
    POVM element announcing sequence i when the bin is w (missing indices
    mean the zero operator).
    """

    n: int
    w_size: int
    encoder: np.ndarray
    decoder: list

    def __post_init__(self):
        self.encoder = np.asarray(self.encoder, dtype=int)
        if len(self.decoder) != self.w_size:
            raise InvariantViolation("decoder", "one POVM required per bin")
        if np.any(self.encoder < 0) or np.any(self.encoder >= self.w_size):
            raise InvariantViolation("encoder", "bin index out of range")
        for w, povm in enumerate(self.decoder):
            total = None
            for i, pi in povm.items():
                pi = np.asarray(pi)
                wmin = float(np.min(np.linalg.eigvalsh(pi)))
                if wmin < -_POVM_TOL:
                    raise POVMInvalidError(
                        f"bin {w}, outcome {i}: eigenvalue {wmin:.3e} below zero"
                    )
                total = pi.copy() if total is None else total + pi
            if total is None:
                raise POVMInvalidError(f"bin {w}: empty POVM")
            dev = float(np.max(np.abs(total - np.eye(total.shape[0]))))
            if dev > _POVM_TOL:
                raise POVMInvalidError(f"bin {w}: completeness off by {dev:.3e}")

    @property
    def rate(self) -> float:
        return math.log2(self.w_size) / self.n


@dataclass
class ErrorReport:
    p_error: float
    p_success: float
    per_symbol: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if abs(self.p_error + self.p_success - 1.0) > 1e-12:
            raise InvariantViolation("p", "error and success must sum to one")


def _success_on_blocks(blocks, code: Code) -> tuple[float, np.ndarray]:
    per = np.zeros(len(blocks))
    for i, blk in enumerate(blocks):
        povm = code.decoder[int(code.encoder[i])]
        pi = povm.get(i)
        if pi is None:
            continue
        per[i] = float(np.real(np.trace(np.asarray(pi) @ blk)))
    return float(np.sum(per)), per


def error_probability(s: CQState, n: int, code: Code,
                      cap: int = DEFAULT_CAP) -> ErrorReport:
    """Exact error probability of the code on the n-fold source."""
    sn = power_state(s, n, cap=cap)
    if code.n != n:
        raise InvariantViolation("n", "code blocklength mismatch")
    blocks = [p * r for p, r in zip(sn.probs,
                                    (m.matrix for m in sn.side_info))]
    succ, per = _success_on_blocks(blocks, code)
    succ = min(max(succ, 0.0), 1.0)
    return ErrorReport(1.0 - succ, succ, per)


class BinningEncoder:
    """Uniform random binning with counter-based randomness: the bin of a
    sequence depends only on (seed, sequence index)."""

    def __init__(self, n: int, w_size: int, seed: int):
        if w_size < 1:
            raise InvariantViolation("w_size", "need at least one bin")
        self.n = n
        self.w_size = w_size
        self.seed = seed

    def __call__(self, index: int) -> int:
        bit = np.random.Philox(key=self.seed, counter=[0, 0, 0, index])
        return int(np.random.Generator(bit).integers(0, self.w_size))

    def table(self, size: int) -> np.ndarray:
        return np.array([self(i) for i in range(size)], dtype=int)


def random_binning(n: int, w_size: int, seed: int) -> BinningEncoder:
    return BinningEncoder(n, w_size, seed)


def _pgm_factors(s: CQState, n: int, sn: CQState, w_size: int) -> list:
    """The factor E_x (dim x k_x, orthonormal columns) of the PGM projector
    Lambda_x = E_x E_x^dagger = {p(x^n) rho_{x^n} - rho_B^(x)n / w_size >= 0}
    for every string x^n of sn = power_state(s, n), kept on sn per w_size.

    Only the sorted representative of each type class, the first string of
    its class in lexicographic order, is eigendecomposed. The unitary U_pi
    that permutes the tensor factors fixes rho_B^(x)n and p(x^n) and maps
    the representative's block to that of any string of its class, so
    E of that string is U_pi E_rep: a reshape and a transpose of the
    representative's rows.
    """
    return sn.cached(("pgm_factors", w_size), _build_pgm_factors, s, n, sn, w_size)


def _build_pgm_factors(s: CQState, n: int, sn: CQState, w_size: int) -> list:
    rho_b = marginal_b(sn).matrix
    dim = rho_b.shape[0]
    reps = {}
    factors = []
    for i, idx in enumerate(itertools.product(range(s.size_x), repeat=n)):
        key = tuple(sorted(idx))
        if key not in reps:
            reps[key] = nonneg_eigenvectors(
                sn.probs[i] * sn.side_info[i].matrix - rho_b / w_size)
            factors.append(reps[key])
            continue
        # factor j of this string is factor inv[j] of the representative
        inv = np.argsort(np.argsort(idx, kind="stable"))
        rep = reps[key]
        k = rep.shape[1]
        factors.append(rep.reshape((s.dim_b,) * n + (k,))
                       .transpose(np.append(inv, n)).reshape(dim, k))
    return factors


def _whiten(u: np.ndarray) -> np.ndarray:
    """A^(-1/2) U on the support of A = U U^dagger (U is dim x K): from the
    Gram matrix, U (U^dagger U)^(-1/2), when K <= dim, else from A itself;
    one eigendecomposition of size min(K, dim), none when K = 0."""
    rows, cols = u.shape
    if cols == 0:
        return u
    if cols <= rows:
        return u @ inv_sqrt_on_support(u.conj().T @ u)
    return inv_sqrt_on_support(u @ u.conj().T) @ u


def pgm_decoder(s: CQState, n: int, encoder, w_size: int,
                cap: int = DEFAULT_CAP) -> Code:
    """Pretty good measurement decoder for a given binning.

    Per sequence, Lambda = E E^dagger is the projector onto the nonnegative
    eigenspace of p(x) rho^x - rho_B / w_size (n-fold operators), its factor
    E built once per (source, n, w_size) with one eigendecomposition per
    type class (`_pgm_factors`). Within each bin the elements are
    conjugated by the inverse square root of their sum A = U U^dagger,
    U = [E_i] over the members; A^(-1/2) U comes from the smaller of
    U^dagger U and U U^dagger (`_whiten`), and the element of member i is
    B_i B_i^dagger for its columns B_i of A^(-1/2) U. The deficiency goes
    to the first sequence of the bin, so a one-member bin decodes to the
    identity (and an empty bin announces sequence 0).
    """
    sn = power_state(s, n, cap=cap)
    size = sn.size_x
    table = np.array([encoder(i) for i in range(size)], dtype=int)
    factors = _pgm_factors(s, n, sn, w_size)
    eye = np.eye(sn.dim_b)
    decoder = []
    for w in range(w_size):
        members = [i for i in range(size) if table[i] == w]
        if len(members) < 2:
            decoder.append({members[0] if members else 0: eye.copy()})
            continue
        b = _whiten(np.concatenate([factors[i] for i in members], axis=1))
        povm = {}
        start = 0
        for i in members:
            bi = b[:, start:start + factors[i].shape[1]]
            start += bi.shape[1]
            povm[i] = bi @ bi.conj().T
        povm[members[0]] = povm[members[0]] + (eye - b @ b.conj().T)
        decoder.append(povm)
    return Code(n, w_size, table, decoder)


def _complete_povm(mats: list, dim: int) -> list:
    """Spread the deficiency of a subnormalized POVM evenly."""
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for m in mats:
        acc += m
    gap = (np.eye(dim) - acc) / len(mats)
    return [m + gap for m in mats]


def _dual_operator(weighted: list, povm: list) -> np.ndarray:
    """Y = sum_i w_i rho_i Pi_i, made Hermitian."""
    y = sum(g @ p for g, p in zip(weighted, povm))
    return (y + y.conj().T) / 2.0


def _dominates(y: np.ndarray, weighted: list) -> bool:
    """The dual certificate: Y - w_i rho_i >= -_CERT_GAP 1 for every member,
    tested as the positive definiteness of Y - w_i rho_i + _CERT_GAP 1 by
    one Cholesky factorization each."""
    shift = _CERT_GAP * np.eye(y.shape[0])
    try:
        for g in weighted:
            np.linalg.cholesky(y - g + shift)
    except np.linalg.LinAlgError:
        return False
    return True


def _certificate_gap(y: np.ndarray, weighted: list) -> float:
    """max(0, max_i -lambda_min(Y - w_i rho_i)): how far Y is from
    dominating every member."""
    return max(0.0, max(-float(eig_hermitian(y - g)[0][0]) for g in weighted))


def min_error_discrimination(ensemble):
    """Optimal discrimination of weighted states: POVM and success value.

    The success value is sum_i w_i Tr[Pi_i rho_i] with the weights taken as
    given (they need not be normalized). Each member must be Hermitian (and
    is a state, so it lies in the support of the sum). Two states are solved
    in closed form; larger ensembles by a damped fixed-point iteration,
    starting from the PGM, whose first iterate that satisfies the dual
    optimality condition Y >= w_i rho_i (up to _CERT_GAP, tested by
    Cholesky factorizations) is returned. When the members' sum has rank
    r below the dimension, the iteration runs on the compressions of the
    members to its support, taken from the eigendecomposition the PGM
    needs, so each step eigendecomposes an r x r matrix; the returned POVM
    is lifted back, with the complement of the support shared evenly. When
    no iterate certifies within _FP_MAX_ITERS iterations,
    NoConvergenceError carries the iteration count, the eigenvalue gap and
    the lifted POVM of the last iterate.
    """
    ens = [(float(w), check_hermitian(r)) for w, r in ensemble]
    if not ens:
        raise InvariantViolation("ensemble", "need at least one state")
    if any(w < 0 for w, _ in ens):
        raise InvariantViolation("ensemble", "weights must be nonnegative")
    dim = ens[0][1].shape[0]
    if len(ens) == 1:
        return [np.eye(dim)], ens[0][0]
    if len(ens) == 2:
        (w0, r0), (w1, r1) = ens
        # one eigendecomposition gives P0 and the trace norm
        w, v = eig_hermitian(w0 * r0 - w1 * r1)
        p0 = positive_projector_from_spectrum(w, v)
        p1 = np.eye(dim) - p0
        succ = w0 * float(np.real(np.trace(p0 @ r0))) \
            + w1 * float(np.real(np.trace(p1 @ r1)))
        # closed form cross-check: (w0 + w1 + ||w0 r0 - w1 r1||_1) / 2
        succ_tn = 0.5 * (w0 + w1 + float(np.sum(np.abs(w))))
        if abs(succ - succ_tn) > 1e-9 * max(1.0, succ_tn):
            raise InvariantViolation("helstrom", "projector and trace-norm "
                                     "routes disagree")
        return [p0, p1], succ

    # Every member lies in the support of the sum, so every iterate is
    # block diagonal over the support and its complement, where it is
    # 1 / m. A rank-deficient sum therefore puts the iteration on the r x r
    # compressions to its support (columns q) and lifts each element back
    # to q pi q^dagger + (1 - q q^dagger) / m; a full-rank sum keeps the
    # members as given (q = 1).
    lam, v = eig_hermitian(sum(w * r for w, r in ens))
    on = support_mask(lam)
    if on.all():
        q, half = np.eye(dim), (v * lam ** -0.5) @ v.conj().T
    else:
        q, half = v[:, on], np.diag(lam[on] ** -0.5)
    weighted = [q.conj().T @ (w * r) @ q for w, r in ens]
    rank = q.shape[1]
    povm = _complete_povm([half @ g @ half for g in weighted], rank)
    y = _dual_operator(weighted, povm)
    certified = _dominates(y, weighted)
    iterations = 0
    while not certified and iterations < _FP_MAX_ITERS:
        m = sum(g @ p @ g for g, p in zip(weighted, povm))
        m = (m + m.conj().T) / 2.0
        half = inv_sqrt_on_support(m)
        new = _complete_povm([half @ g @ p @ g @ half
                              for g, p in zip(weighted, povm)], rank)
        povm = [0.5 * (a + b) for a, b in zip(povm, new)]
        iterations += 1
        y = _dual_operator(weighted, povm)
        certified = _dominates(y, weighted)
    succ = sum(float(np.real(np.trace(p @ g)))
               for g, p in zip(weighted, povm))
    rest = (np.eye(dim) - q @ q.conj().T) / len(ens)
    povm = [q @ p @ q.conj().T + rest for p in povm]
    residual = float(np.max(np.abs(sum(povm) - np.eye(dim))))
    if not certified or residual > _FP_RESIDUAL:
        raise NoConvergenceError(
            "discrimination fixed point did not certify",
            diagnostics={"iterations": iterations,
                         "gap": _certificate_gap(y, weighted),
                         "residual": residual, "povm": povm, "success": succ},
        )
    return povm, succ


def _canonical_encoders(size: int, w_size: int):
    """Deterministic encoders up to relabeling of the bins: the first
    sequence maps to bin 0 and each later sequence opens at most one new
    bin."""
    def rec(prefix, used):
        if len(prefix) == size:
            yield tuple(prefix)
            return
        top = min(used + 1, w_size)
        for w in range(top):
            prefix.append(w)
            yield from rec(prefix, max(used, w + 1))
            prefix.pop()
    yield from rec([], 0)


def optimal_error_bruteforce(s: CQState, n: int, w_size: int,
                             cap: int = DEFAULT_CAP):
    """Ground-truth optimal code: enumerate encoders up to bin relabeling
    and give each bin its optimal discrimination measurement."""
    sn = power_state(s, n, cap=cap)
    size = sn.size_x
    if w_size ** size > _BRUTE_CAP:
        raise CapExceededError(
            f"{w_size}^{size} encoders exceed the {_BRUTE_CAP} cap"
        )
    best = None
    for table in _canonical_encoders(size, w_size):
        decoder, succ = _optimal_bins(sn, table, w_size)
        if best is None or succ > best[0]:
            best = (succ, np.array(table, dtype=int), decoder)
    succ, table, decoder = best
    succ = min(max(succ, 0.0), 1.0)
    code = Code(n, w_size, table, decoder)
    return ErrorReport(1.0 - succ, succ, None), code


def empirical_exponents(s: CQState, n: int, rate: float, decoder_kind: str,
                        trials: int, seed: int, cap: int = DEFAULT_CAP):
    """Encoder-averaged error and success exponents under random binning.

    decoder_kind selects the measurement: "pgm" or "optimal" (per-bin
    optimal discrimination). Returns (-log2 avg error, -log2 avg success),
    both divided by n; +inf marks a vanishing average.
    """
    if decoder_kind not in ("pgm", "optimal"):
        raise ValueError(f"unknown decoder kind {decoder_kind!r}")
    w_size = max(1, math.ceil(2.0 ** (n * rate)))
    err_sum = 0.0
    succ_sum = 0.0
    ss = np.random.SeedSequence(seed)
    for child in ss.spawn(trials):
        enc = random_binning(n, w_size, int(child.generate_state(1)[0]))
        if decoder_kind == "pgm":
            code = pgm_decoder(s, n, enc, w_size, cap=cap)
        else:
            code = _optimal_decoder_for(s, n, enc, w_size, cap=cap)
        rep = error_probability(s, n, code, cap=cap)
        err_sum += rep.p_error
        succ_sum += rep.p_success
    avg_err = err_sum / trials
    avg_succ = succ_sum / trials
    e_hat = math.inf if avg_err <= 0 else -math.log2(avg_err) / n
    sc_hat = math.inf if avg_succ <= 0 else -math.log2(avg_succ) / n
    return e_hat, sc_hat


def _optimal_bins(sn: CQState, table, w_size: int) -> tuple[list, float]:
    """The optimal discrimination POVM of each bin of the encoder table on
    the n-fold source sn (the identity on sequence 0 for an empty bin), and
    the summed success of the bins. Each bin is discriminated once per
    member set and kept on sn, so encoders, bin counts and callers that
    share a member set share its solution."""
    decoder = []
    total = 0.0
    for w in range(w_size):
        members = tuple(i for i in range(sn.size_x) if table[i] == w)
        if not members:
            decoder.append({0: np.eye(sn.dim_b)})
            continue
        povm, succ = sn.cached(("discrimination", members), lambda: min_error_discrimination(
            [(sn.probs[i], sn.side_info[i].matrix) for i in members]))
        total += succ
        decoder.append(dict(zip(members, povm)))
    return decoder, total


def _optimal_decoder_for(s: CQState, n: int, encoder, w_size: int,
                         cap: int = DEFAULT_CAP) -> Code:
    sn = power_state(s, n, cap=cap)
    table = np.array([encoder(i) for i in range(sn.size_x)], dtype=int)
    return Code(n, w_size, table, _optimal_bins(sn, table, w_size)[0])


def dummy_state_inequality_check(s: CQState, dummy: DummyState, code: Code,
                                 a: float, cap: int = DEFAULT_CAP) -> bool:
    """Success probability comparison against an auxiliary source state:
    P_s(rho, C) >= 2^-a (P_s(dummy, C) - Tr[(dummy - 2^a rho)_+]),
    evaluated exactly, allowing 1e-10 slack."""
    if a <= 0:
        raise InvariantViolation("a", "a must be positive")
    dummy.validate_against(s)
    aux = CQState(s.alphabet, dummy.q, list(dummy.sigma))
    sn = power_state(s, code.n, cap=cap)
    an = power_state(aux, code.n, cap=cap)
    rho_blocks = [p * r.matrix for p, r in zip(sn.probs, sn.side_info)]
    aux_blocks = [q * m.matrix for q, m in zip(an.probs, an.side_info)]
    ps_rho, _ = _success_on_blocks(rho_blocks, code)
    ps_aux, _ = _success_on_blocks(aux_blocks, code)
    overshoot = sum(
        float(np.real(np.trace(positive_part(ab - (2.0 ** a) * rb))))
        for rb, ab in zip(rho_blocks, aux_blocks)
    )
    rhs = (2.0 ** -a) * (ps_aux - overshoot)
    return ps_rho >= rhs - 1e-10
