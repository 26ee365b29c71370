"""Quantum Neyman-Pearson testing: the hypothesis testing divergence with
exact type-I error, its dual quantity, a one-shot converse bound for
source coding with quantum side information, and finite-length rate windows.

The optimal test between rho and sigma always has threshold form
Q = {rho - t sigma > 0} + c * ker(rho - t sigma) with t found by bisection
and a fractional weight c on the boundary eigenspace making the constraint
hold with equality.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from cqsw.errors import (
    InvalidEpsilonError,
    InvalidMuError,
    InvariantViolation,
    WTooLargeError,
)
from cqsw.operators import _as_matrix, eig_hermitian, tensor
from cqsw.states import (
    DEFAULT_CAP,
    CQState,
    as_joint_operator,
    marginal_b,
    type_classes,
)

_KER_TOL = 1e-10
_BISECT_ITERS = 64


@dataclass
class TestOperator:
    """A binary test 0 <= Q <= 1 together with its two error probabilities."""

    __test__ = False  # not a pytest item despite the name

    q: np.ndarray
    type1: float
    type2: float

    def __post_init__(self):
        self.q = _as_matrix(self.q)
        w, _ = eig_hermitian(self.q)
        if w.size and (float(w[0]) < -1e-10 or float(w[-1]) > 1.0 + 1e-10):
            raise InvariantViolation(
                "test", f"eigenvalues outside [0, 1]: [{w[0]:.3e}, {w[-1]:.3e}]"
            )

    def errors_against(self, rho, sigma) -> tuple[float, float]:
        rho = _as_matrix(rho)
        sigma = _as_matrix(sigma)
        t1 = float(np.real(np.trace(rho))) - float(np.real(np.trace(self.q @ rho)))
        t2 = float(np.real(np.trace(self.q @ sigma)))
        return t1, t2


def _split(rb, sb, t):
    """Eigenvectors of rho - t sigma with masks of its strictly positive
    eigenspace and of its kernel."""
    w, v = eig_hermitian(rb - t * sb)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    cut = _KER_TOL * max(scale, 1.0)
    return v, w > cut, np.abs(w) <= cut


def _threshold_masses(blocks, t):
    """Masses of rho and sigma on the strictly positive eigenspace and on the
    kernel of rho - t sigma, summed over blocks (weight, rho, sigma) with
    each block's masses counted weight times."""
    pos_r = pos_s = ker_r = ker_s = 0.0
    for wt, rb, sb in blocks:
        v, pos, ker = _split(rb, sb, t)
        rd = np.real(np.einsum("ij,jk,ki->i", v.conj().T, rb, v))
        sd = np.real(np.einsum("ij,jk,ki->i", v.conj().T, sb, v))
        pos_r += wt * float(np.sum(rd[pos]))
        pos_s += wt * float(np.sum(sd[pos]))
        ker_r += wt * float(np.sum(rd[ker]))
        ker_s += wt * float(np.sum(sd[ker]))
    return pos_r, pos_s, ker_r, ker_s


def _mass_memo(blocks):
    """t -> _threshold_masses(blocks, t), each t evaluated once. The memo
    keeps the four scalars only, so its size does not grow with the blocks."""
    return functools.cache(lambda t: _threshold_masses(blocks, t))


def _np_threshold(masses, target: float, match: str):
    """Find (t, c) so the chosen mass of Q = P + cK equals target exactly.

    masses maps a threshold t to the four masses of _threshold_masses.
    match = "rho" equates Tr[Q rho] with target; match = "sigma" equates
    Tr[Q sigma]. Both are nonincreasing in t, so plain bisection applies.
    Returns (t, c, masses) for the final threshold.
    """
    idx = 0 if match == "rho" else 1

    def span(t):
        m = masses(t)
        lo_mass = m[idx]
        return lo_mass, lo_mass + m[2 + idx], m[2] + m[3]

    lo, hi = 0.0, 1.0
    # grow the bracket until the matched mass falls below target at hi
    for _ in range(200):
        lo_mass, hi_mass, _ = span(hi)
        if hi_mass <= target or hi > 1e60:
            break
        hi *= 4.0
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        lo_mass, hi_mass, k_total = span(mid)
        # the 1e-12 slack keeps rounding noise in the masses from being
        # chased by the bisection, which would bias the test first-order
        if lo_mass > target + 1e-12:
            lo = mid
        elif hi_mass < target - 1e-12:
            hi = mid
        elif k_total > 1e-12:
            # genuine boundary eigenspace: the fractional weight can match
            lo = hi = mid
            break
        else:
            # numerical plateau: the matched mass is flat at this resolution,
            # so move toward the smallest threshold consistent with it
            hi = mid
    t = 0.5 * (lo + hi)
    lo_mass, hi_mass, _ = span(t)
    k_mass = hi_mass - lo_mass
    if k_mass > 1e-15:
        c = (target - lo_mass) / k_mass
    else:
        c = 0.0
    c = min(max(c, 0.0), 1.0)
    return t, c, masses(t)


def _assemble_test(rho, sigma, t, c) -> np.ndarray:
    """Q = P + c K from one eigendecomposition of rho - t sigma."""
    v, pos, ker = _split(rho, sigma, t)
    weights = pos.astype(float) + c * ker.astype(float)
    return (v * weights) @ v.conj().T


def _dh_blocks(blocks, eps: float, masses=None):
    """Hypothesis testing divergence on weighted blocks (weight, rho, sigma)
    of a block-diagonal pair; returns (value, type2, t, c, masses). Calls
    on one block list may share a memo from _mass_memo."""
    if masses is None:
        masses = _mass_memo(blocks)
    tr_rho = sum(wt * float(np.real(np.trace(rb))) for wt, rb, _ in blocks)
    target = tr_rho - eps
    t, c, m = _np_threshold(masses, target, "rho")
    pr, ps, kr, ks = m
    type2 = ps + c * ks
    if type2 <= 0.0:
        return math.inf, 0.0, t, c, m
    return -math.log2(type2), type2, t, c, m


def hypothesis_testing_divergence(rho, sigma, eps: float):
    """D_H^eps(rho || sigma) in bits with the optimal Neyman-Pearson test.

    The type-I error of the returned test equals eps exactly (fractional
    weight on the boundary eigenspace); the value is -log2 of its type-II
    error, +inf when a perfect test exists.
    """
    if not 0.0 <= eps < 1.0:
        raise InvalidEpsilonError(f"epsilon must lie in [0, 1), got {eps}")
    rho = _as_matrix(rho)
    sigma = _as_matrix(sigma)
    value, type2, t, c, masses = _dh_blocks([(1, rho, sigma)], eps)
    q = _assemble_test(rho, sigma, t, c)
    pr, ps, kr, ks = masses
    type1 = float(np.real(np.trace(rho))) - (pr + c * kr)
    return value, TestOperator(q, type1, type2)


def hat_alpha(rho, sigma, mu: float) -> float:
    """Smallest type-I error over tests whose type-II error is at most mu.

    Equals 2 ** (-D_H^mu(sigma || rho)); sigma may be subnormalized, and mu
    must not exceed its trace.
    """
    rho = _as_matrix(rho)
    sigma = _as_matrix(sigma)
    tr_sigma = float(np.real(np.trace(sigma)))
    if not 0.0 < mu <= tr_sigma + 1e-12:
        raise InvalidMuError(f"mu must lie in (0, {tr_sigma:.6g}], got {mu}")
    blocks = [(1, rho, sigma)]
    t, c, masses = _np_threshold(_mass_memo(blocks), mu, "sigma")
    pr, ps, kr, ks = masses
    val = float(np.real(np.trace(rho))) - (pr + c * kr)
    return max(val, 0.0)


def one_shot_converse(s: CQState, w_size: int, sigma_b) -> float:
    """Converse bound on the code-size exponent of a single-copy code:
    -log2 of the best type-I error at type-II budget w_size / |X|, testing
    the joint state against tau_X tensor sigma_b."""
    if w_size >= s.size_x:
        raise WTooLargeError(
            f"w_size {w_size} must be below the alphabet size {s.size_x}"
        )
    if w_size < 1:
        raise WTooLargeError(f"w_size must be at least 1, got {w_size}")
    sigma_b = _as_matrix(sigma_b)
    joint = as_joint_operator(s)
    tau = np.kron(np.eye(s.size_x) / s.size_x, sigma_b)
    a = hat_alpha(joint, tau, w_size / s.size_x)
    if a <= 0.0:
        return math.inf
    return -math.log2(a)


def rate_window(s: CQState, n: int, eps: float, alpha: float,
                cap: int = DEFAULT_CAP) -> tuple[float, float]:
    """Per-symbol bounds on the optimal fixed-length rate at blocklength n
    and error budget eps. Both endpoints come from the hypothesis testing
    divergence of the n-fold state against identity tensor the n-fold
    side-information marginal; the upper endpoint pays a finite-length
    penalty controlled by the splitting parameter alpha.

    The n-fold state enters through one block per type class (see
    `type_classes`), and both endpoints share one memo of threshold masses.
    """
    if not 0.0 < eps < 1.0:
        raise InvalidEpsilonError(f"epsilon must lie in (0, 1), got {eps}")
    if not 0.0 < alpha < 1.0:
        raise InvalidEpsilonError(f"alpha must lie in (0, 1), got {alpha}")
    classes = type_classes(s, n, cap=cap)
    rho_b_n = tensor(*([marginal_b(s).matrix] * n))
    blocks = [(mult, p * r, rho_b_n) for mult, p, r in classes]
    masses = _mass_memo(blocks)
    lower_dh = _dh_blocks(blocks, eps, masses)[0]
    upper_dh = _dh_blocks(blocks, alpha * eps, masses)[0]
    penalty = math.log2(8.0 / ((1.0 - alpha) ** 2 * eps))
    lower = -lower_dh / n
    upper = -upper_dh / n + penalty / n
    return lower, upper
