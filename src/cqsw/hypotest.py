"""Quantum Neyman-Pearson testing: the hypothesis testing divergence with
exact type-I error, its dual quantity, a one-shot converse bound for
source coding with quantum side information, and finite-length rate windows.

The optimal test between rho and sigma always has threshold form
Q = {rho - t sigma > 0} + c * ker(rho - t sigma), with a fractional weight c
on the boundary eigenspace making the constraint hold with equality. The
threshold t is the root of a monotone mass function, found by a safeguarded
root search (`_np_threshold`) that lands exactly on the jumps of the mass.
"""

from __future__ import annotations

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
    marginal_b,
    type_classes,
)

_KER_TOL = 1e-10


@dataclass
class TestOperator:
    """A binary test 0 <= Q <= 1 together with its two error probabilities."""

    __test__ = False  # not a pytest item despite the name

    q: np.ndarray
    type1: float
    type2: float

    def __post_init__(self):
        self.q = _as_matrix(self.q)
        _check_test_spectrum(eig_hermitian(self.q)[0])

    def errors_against(self, rho, sigma) -> tuple[float, float]:
        rho = _as_matrix(rho)
        sigma = _as_matrix(sigma)
        t1 = float(np.real(np.trace(rho))) - float(np.real(np.trace(self.q @ rho)))
        t2 = float(np.real(np.trace(self.q @ sigma)))
        return t1, t2


def _check_test_spectrum(w):
    """Raise unless the eigenvalues w of a test lie in [0, 1]."""
    if w.size and (float(np.min(w)) < -1e-10 or float(np.max(w)) > 1.0 + 1e-10):
        raise InvariantViolation(
            "test", f"eigenvalues outside [0, 1]: [{np.min(w):.3e}, {np.max(w):.3e}]"
        )


def _split(rb, sb, t):
    """Eigendecomposition (w, v) of rho - t sigma with masks of its strictly
    positive eigenspace and of its kernel."""
    w, v = eig_hermitian(rb - t * sb)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    cut = _KER_TOL * max(scale, 1.0)
    return w, v, w > cut, np.abs(w) <= cut


def _threshold_masses(blocks, t):
    """Masses of rho and sigma on the strictly positive eigenspace and on the
    kernel of rho - t sigma, summed over blocks (weight, rho, sigma) with
    each block's masses counted weight times, and the nearest thresholds
    above and below t where an eigenvalue of a block crosses zero, with the
    `_split` of each block.

    The crossings are Hellmann-Feynman estimates: eigenvalue w_i of
    rho - t sigma moves with slope -<v_i|sigma|v_i>, so it reaches zero near
    t + w_i / <v_i|sigma|v_i>. They are exact when rho and sigma commute.
    Returns ((pos_r, pos_s, ker_r, ker_s, up, down), splits); up is +inf
    and down -inf where no eigenvalue crosses on that side."""
    pos_r = pos_s = ker_r = ker_s = 0.0
    up, down = math.inf, -math.inf
    splits = []
    for wt, rb, sb in blocks:
        w, v, pos, ker = split = _split(rb, sb, t)
        splits.append(split)
        rd = np.real(np.einsum("ij,jk,ki->i", v.conj().T, rb, v))
        sd = np.real(np.einsum("ij,jk,ki->i", v.conj().T, sb, v))
        pos_r += wt * float(np.sum(rd[pos]))
        pos_s += wt * float(np.sum(sd[pos]))
        ker_r += wt * float(np.sum(rd[ker]))
        ker_s += wt * float(np.sum(sd[ker]))
        moving = sd > 0.0
        cross = t + w[moving] / sd[moving]
        above = cross[pos[moving]]
        below = cross[~(pos | ker)[moving]]
        if above.size:
            up = min(up, float(np.min(above)))
        if below.size:
            down = max(down, float(np.max(below)))
    return (pos_r, pos_s, ker_r, ker_s, up, down), splits


def _mass_memo(blocks):
    """t -> the six masses of _threshold_masses(blocks, t), each t evaluated
    once. The memo keeps the scalars of every t but the block splits of the
    t evaluated last only, as (t, splits) in its attribute last: every
    search here evaluates its final threshold last, so the optimal test can
    be assembled from them."""
    table = {}

    def masses(t):
        if t not in table:
            masses.last = None  # hold one set of splits at a time
            table[t], splits = _threshold_masses(blocks, t)
            masses.last = (t, splits)
        return table[t]

    masses.last = None
    return masses


def _np_threshold(masses, target: float, match: str):
    """Find (t, c) so the chosen mass of Q = P + cK equals target exactly.

    masses maps a threshold t to the six values of _threshold_masses.
    match = "rho" equates Tr[Q rho] with target; match = "sigma" equates
    Tr[Q sigma]. Both are nonincreasing in t: smooth between jumps where
    the blocks do not commute, a step function where they do. The search
    brackets the root of a signed residual g and narrows the bracket by ITP
    steps (Oliveira and Takahashi, ACM TOMS 2020), superlinear where the
    mass is smooth and never more than one step beyond bisection. Where the
    crossing estimates from both ends of the bracket agree, it evaluates
    there instead (a jump step), which lands on a jump exactly when the
    blocks commute and converges like Newton's method on the crossing
    eigenvalue when they do not. Returns (t, c, masses) for the final
    threshold.
    """
    idx = 0 if match == "rho" else 1

    def g(t):
        # signed distance of the matched mass from target: positive while
        # P alone is too heavy, negative while P + K is too light, 0 where a
        # weight c in [0, 1] on K matches; the 1e-12 slack keeps rounding
        # noise in the masses from being chased, which would bias the test
        # first-order
        m = masses(t)
        lo_mass, hi_mass = m[idx], m[idx] + m[2 + idx]
        if lo_mass > target + 1e-12:
            return lo_mass - target
        if hi_mass < target - 1e-12:
            return hi_mass - target
        return 0.0

    # t = 0 settles D_H^0 on rank-deficient rho exactly; otherwise it is
    # the lower end of the bracket, too heavy by construction
    a, ga = 0.0, g(0.0)
    if ga <= 0.0:
        t = a
    else:
        # grow the bracket until the matched mass falls below target at b
        b = 1.0
        while (gb := g(b)) > 0.0 and b <= 1e60:
            a, ga = b, gb
            b *= 4.0
        t = b if gb >= 0.0 else _itp(masses, g, a, b, ga, gb)
    m = masses(t)
    lo_mass, k_mass = m[idx], m[2 + idx]
    c = (target - lo_mass) / k_mass if k_mass > 1e-15 else 0.0
    c = min(max(c, 0.0), 1.0)
    return t, c, m


def _itp(masses, g, a, b, ga, gb) -> float:
    """A zero of the nonincreasing g on [a, b], g(a) > 0 > g(b), by ITP with
    kappa1 = 0.2 / (b - a), kappa2 = 2, n0 = 1 and a tolerance of 1e-16 b,
    taking a crossing-estimate step where the estimates from both ends agree
    (see `_np_threshold`)."""
    tol = 1e-16 * b
    kappa1 = 0.2 / (b - a)
    n_max = max(math.ceil(math.log2((b - a) / (2.0 * tol))), 0) + 1
    j = 0
    # only ITP steps count against n_max; a jump step shrinks the bracket
    # too, and the loop bounds both kinds together
    for _ in range(2 * n_max + 2):
        if b - a <= 2.0 * tol or j > n_max:
            break
        up, down = masses(a)[4], masses(b)[5]
        # a linear estimate errs by the square of its distance: take the
        # one made closer to the crossing
        jump = up if up - a <= b - down else down
        if abs(up - down) <= 1e-6 * b and a < jump < b:
            x = jump
        else:
            # regula falsi, pushed toward the midpoint, then projected onto
            # the window that keeps the bisection bound
            mid = 0.5 * (a + b)
            radius = tol * 2.0 ** (n_max - j) - 0.5 * (b - a)
            xf = (gb * a - ga * b) / (gb - ga)
            sign = 1.0 if mid > xf else -1.0
            delta = kappa1 * (b - a) ** 2
            xt = xf + sign * delta if delta <= abs(mid - xf) else mid
            x = xt if abs(xt - mid) <= radius else mid - sign * radius
            j += 1
        gx = g(x)
        if gx > 0.0:
            a, ga = x, gx
        elif gx < 0.0:
            b, gb = x, gx
        else:
            return x
    return 0.5 * (a + b)


def _optimal_test(split, c, type1, type2) -> TestOperator:
    """The test Q = P + c K from the `_split` of rho - t sigma at the final
    threshold t. Q = v diag(weights) v^dagger with weights 0, c and 1, so
    its [0, 1] check runs on the weights and Q is not eigendecomposed."""
    _, v, pos, ker = split
    weights = pos.astype(float) + c * ker.astype(float)
    _check_test_spectrum(weights)
    test = object.__new__(TestOperator)
    test.q = _as_matrix((v * weights) @ v.conj().T)
    test.type1, test.type2 = type1, type2
    return test


def _dh_blocks(blocks, eps: float, masses=None):
    """Hypothesis testing divergence on weighted blocks (weight, rho, sigma)
    of a block-diagonal pair; returns (value, type2, t, c, masses). Calls
    on one block list may share a memo from _mass_memo."""
    if masses is None:
        masses = _mass_memo(blocks)
    tr_rho = sum(wt * float(np.real(np.trace(rb))) for wt, rb, _ in blocks)
    target = tr_rho - eps
    t, c, m = _np_threshold(masses, target, "rho")
    pr, ps, kr, ks = m[:4]
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
    blocks = [(1, rho, sigma)]
    memo = _mass_memo(blocks)
    value, type2, t, c, masses = _dh_blocks(blocks, eps, memo)
    last_t, splits = memo.last
    split = splits[0] if last_t == t else _split(rho, sigma, t)
    pr, ps, kr, ks = masses[:4]
    type1 = float(np.real(np.trace(rho))) - (pr + c * kr)
    return value, _optimal_test(split, c, type1, type2)


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
    return _hat_alpha_blocks([(1, rho, sigma)], mu)


def _hat_alpha_blocks(blocks, mu: float) -> float:
    """hat_alpha on weighted blocks (weight, rho, sigma) of a block-diagonal
    pair."""
    t, c, masses = _np_threshold(_mass_memo(blocks), mu, "sigma")
    pr, _, kr, _ = masses[:4]
    tr_rho = sum(wt * float(np.real(np.trace(rb))) for wt, rb, _ in blocks)
    return max(tr_rho - (pr + c * kr), 0.0)


def one_shot_converse(s: CQState, w_size: int, sigma_b) -> float:
    """Converse bound on the code-size exponent of a single-copy code:
    -log2 of the best type-I error at type-II budget w_size / |X|, testing
    the joint state against tau_X tensor sigma_b. Both are block diagonal
    in x, so the test runs on the blocks (p(x) rho_B^x, sigma_b / |X|)."""
    if w_size >= s.size_x:
        raise WTooLargeError(
            f"w_size {w_size} must be below the alphabet size {s.size_x}"
        )
    if w_size < 1:
        raise WTooLargeError(f"w_size must be at least 1, got {w_size}")
    tau_b = _as_matrix(sigma_b) / s.size_x
    blocks = [(1, p * r.matrix, tau_b) for p, r in zip(s.probs, s.side_info)]
    a = _hat_alpha_blocks(blocks, w_size / s.size_x)
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
