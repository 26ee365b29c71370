"""Quantum Neyman-Pearson testing: the hypothesis testing divergence with
exact type-I error, its dual quantity, a one-shot converse bound for
source coding with quantum side information, and finite-length rate windows.

The optimal test between rho and sigma always has threshold form
Q = {rho - t sigma > 0} + c * ker(rho - t sigma), with a fractional weight c
on the boundary eigenspace making the constraint hold with equality. The
threshold t is the root of a monotone mass function, found by a safeguarded
Newton search on the mass's exact slope (`_np_threshold`) that lands exactly
on the jumps of the mass and ends at the exact root.

A block-diagonal pair enters as weighted blocks (weight, rho, sigma),
zero-padded to one size and stacked once per pair (`_MassTable`); each
threshold then costs one stacked eigendecomposition, unvalidated. Rate
windows keep that table on the state, one per blocklength. The public entry
points validate their operator inputs once, on entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cqsw.errors import (
    DimensionMismatchError,
    InvalidEpsilonError,
    InvalidMuError,
    InvariantViolation,
    WTooLargeError,
)
from cqsw.operators import (
    _as_matrix,
    check_hermitian,
    eig_hermitian,
    eig_hermitian_stack,
    tensor,
)
from cqsw.states import (
    DEFAULT_CAP,
    CQState,
    _check_nfold,
    marginal_b,
    schur_weyl_blocks,
    type_classes,
)

# an eigenvalue of rho - t sigma is zero below _KER_TOL times what cancels in
# it or below _NOISE_TOL times the largest eigenvalue of its block (`_split`)
_KER_TOL = 1e-10
_NOISE_TOL = 1e-13


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


def _hermitian_pair(rho, sigma):
    """rho and sigma validated (`check_hermitian`) and of one shape."""
    rho, sigma = check_hermitian(rho), check_hermitian(sigma)
    if rho.shape != sigma.shape:
        raise DimensionMismatchError(f"shape mismatch {rho.shape} vs {sigma.shape}")
    return rho, sigma


def _split(rs, t):
    """Eigendecompositions (w, v) of the (k, D, D) stack rho - t sigma of a
    pair stack rs = (rho, sigma), the real diagonals d (2, k, D) of
    v^dagger rho v and v^dagger sigma v, masks (k, D) of each matrix's
    strictly positive eigenspace and of its kernel, and sigma v.

    Eigenvalue w_i is the difference d_0i - t d_1i; it counts as zero when
    it is below _KER_TOL times d_0i + t d_1i, what cancels in it, or below
    _NOISE_TOL times the matrix's largest eigenvalue, the rounding of the
    eigensolver. A cut relative to the largest eigenvalue alone would take
    genuine eigenvalues for zero in blocks whose entries span many orders
    of magnitude, as n-fold blocks do."""
    w, v = eig_hermitian_stack(rs[0] - t * rs[1])
    rv = rs @ v
    d = np.einsum("kji,xkji->xki", v.conj(), rv).real
    cut = np.maximum(_KER_TOL * np.abs(d[0] + t * d[1]),
                     _NOISE_TOL * np.max(np.abs(w), axis=1)[:, None])
    return w, v, d, w > cut, np.abs(w) <= cut, rv[1]


def _stack_blocks(blocks):
    """Weighted blocks (weight, rho, sigma) as one stack (weights (k,),
    rs (2, k, D, D)), rs[0] the rho and rs[1] the sigma blocks, each block
    zero-padded to the largest size D. The padding is a direct summand of
    zeros: rho - t sigma gets exact zero eigenvalues there, which carry no
    mass and cross no threshold, and Jacobi never rotates into it."""
    size = max(np.shape(rb)[0] for _, rb, _ in blocks)
    rs = np.zeros((2, len(blocks), size, size), dtype=np.complex128)
    for i, (_, rb, sb) in enumerate(blocks):
        m = np.shape(rb)[0]
        rs[0, i, :m, :m] = rb
        rs[1, i, :m, :m] = sb
    return np.array([float(wt) for wt, _, _ in blocks]), rs


def _threshold_masses(stack, t):
    """Masses of rho and sigma on the strictly positive eigenspace P and on
    the kernel of rho - t sigma, summed over the blocks of the
    `_stack_blocks` stack with each block's masses counted weight times, the
    nearest thresholds above and below t where an eigenvalue of a block
    crosses zero, and the slopes in t of the two masses on P, with the
    `_split` of the stack: one stacked eigendecomposition.

    The crossings are Hellmann-Feynman estimates: eigenvalue w_i of
    rho - t sigma moves with slope -<v_i|sigma|v_i>, so it reaches zero near
    t + w_i / <v_i|sigma|v_i>. They are exact when rho and sigma commute.
    The slopes are exact: first-order perturbation of P by -sigma dt gives
    dTr[sigma P]/dt = -2 sum_{i in P, j not in P} |s_ij|^2 / (w_i - w_j),
    s = v^dagger sigma v, and dTr[rho P]/dt is t times it, since rho and
    t sigma agree off the diagonal of the eigenbasis. Both are 0 where the
    blocks commute. Returns ((pos_r, pos_s, ker_r, ker_s, up, down,
    slope_r, slope_s), split); up is +inf and down -inf where no eigenvalue
    crosses on that side."""
    wt, rs = stack
    w, v, d, pos, ker, sv = split = _split(rs, t)
    (pos_r, ker_r), (pos_s, ker_s) = np.einsum("k,xki,yki->xy", wt, d, (pos, ker)).tolist()
    moving = d[1] > 0.0
    cross = t + np.divide(w, d[1], out=np.zeros_like(w), where=moving)
    up = float(np.min(cross, where=pos & moving, initial=math.inf))
    down = float(np.max(cross, where=moving & ~(pos | ker), initial=-math.inf))
    gap = w[:, :, None] - w[:, None, :]
    pair = pos[:, :, None] & ~pos[:, None, :] & (gap > 0.0)
    coupling = np.abs(v.conj().swapaxes(1, 2) @ sv) ** 2
    terms = np.divide(coupling, gap, out=np.zeros_like(gap), where=pair)
    slope_s = -2.0 * float(np.einsum("k,kij->", wt, terms))
    return (pos_r, pos_s, ker_r, ker_s, up, down, t * slope_s, slope_s), split


class _MassTable:
    """t -> the masses, crossings and slopes of `_threshold_masses` at t on
    one block-diagonal pair (weighted blocks (weight, rho, sigma)), stacked
    once; each t is evaluated once and its values kept in `table`. With
    keep_split, the split of the t evaluated last is kept too, as
    (t, split) in `last`: a search on a fresh table evaluates its final
    threshold last, so the optimal test can be assembled from it. A rate
    window keeps its table, without splits, on the state, so every window
    on that state and blocklength reads the thresholds the others
    evaluated. A plain object, so a table is freed with its state without
    the cyclic collector."""

    def __init__(self, blocks, keep_split: bool = False):
        self.tr_rho = sum(wt * float(np.real(np.trace(rb))) for wt, rb, _ in blocks)
        self.stack = _stack_blocks(blocks)
        self.keep_split = keep_split
        self.table = {}
        self.last = None

    def __call__(self, t):
        if t not in self.table:
            self.last = None  # hold one split at a time
            self.table[t], split = _threshold_masses(self.stack, t)
            if self.keep_split:
                self.last = (t, split)
        return self.table[t]


def _residual(m, idx: int, target: float) -> float:
    """Signed distance of the mass matched by idx (0 rho, 1 sigma) from
    target, from the values m of `_threshold_masses`: positive while P alone
    is too heavy, negative while P + K is too light, 0 where a weight c in
    [0, 1] on K matches. The 1e-12 slack keeps rounding noise in the masses
    from being chased; `_np_threshold` steps from there to the exact root."""
    lo_mass, hi_mass = m[idx], m[idx] + m[2 + idx]
    if lo_mass > target + 1e-12:
        return lo_mass - target
    if hi_mass < target - 1e-12:
        return hi_mass - target
    return 0.0


def _np_threshold(masses, target: float, match: str):
    """Find (t, c) so the chosen mass of Q = P + cK equals target exactly.

    masses is a `_MassTable`. match = "rho" equates Tr[Q rho] with target;
    match = "sigma" equates Tr[Q sigma]. Both are nonincreasing in t: smooth
    between jumps where the blocks do not commute, a step function where
    they do. The search brackets the root of `_residual` g, starting
    from the tightest bracket the thresholds already in the table give, and
    narrows it by `_root`: Newton steps on the exact slope of the mass, with
    jump steps onto estimated eigenvalue crossings and ITP steps as the
    safeguard. It stops where g is 0, anywhere within a 1e-12 slack of the
    target mass; a last first-order step along the slopes, on values
    already computed, moves the other mass to the exact root, so the answer
    does not depend on which thresholds the table held before. Returns
    (t, c, masses at t, the other mass of Q at the exact root): Tr[Q sigma]
    for match = "rho", Tr[Q rho] for match = "sigma".
    """
    idx = 0 if match == "rho" else 1
    # t = 0 settles D_H^0 on rank-deficient rho exactly; otherwise it is
    # the lower end of the bracket, too heavy by construction
    a, ga = 0.0, _residual(masses(0.0), idx, target)
    if ga <= 0.0:
        t = a
    else:
        b, gb, t = math.inf, -1.0, None
        for x, m in masses.table.items():
            gx = _residual(m, idx, target)
            if gx == 0.0:
                t = x
                break
            if gx > 0.0 and x > a:
                a, ga = x, gx
            elif gx < 0.0 and x < b:
                b, gb = x, gx
        if t is None and b == math.inf:
            # grow the bracket on the grid 4^k until the matched mass falls
            # below target at b
            b = 1.0
            while b <= a:
                b *= 4.0
            while (gb := _residual(masses(b), idx, target)) > 0.0 and b <= 1e60:
                a, ga = b, gb
                b *= 4.0
        if t is None:
            t = b if gb >= 0.0 else _root(masses, idx, target, a, b, ga, gb)
    m = masses(t)
    oth = 1 - idx
    lo_mass, k_mass = m[idx], m[2 + idx]
    c = (target - lo_mass) / k_mass if k_mass > 1e-15 else 0.0
    c = min(max(c, 0.0), 1.0)
    other = m[oth] + c * m[2 + oth]
    # the first-order step from t to the exact root of the matched mass,
    # taken on the other mass (a commuting pair has slope 0 and lands on
    # its jumps exactly)
    slope = m[6 + idx]
    if slope < 0.0:
        other += m[6 + oth] * (target - lo_mass - c * k_mass) / slope
    return t, c, m, other


def _root(masses, idx, target, a, b, ga, gb) -> float:
    """A zero of the nonincreasing g = `_residual` on [a, b] of a
    `_MassTable` masses, g(a) > 0 > g(b), with a
    tolerance of 1e-16 b. Each step evaluates one point inside the bracket:
    a Newton step on the exact slope of the matched mass, from the end whose
    step is shorter, while it stays inside the bracket and the last Newton
    step at least halved |g|. Otherwise a jump step where the crossing
    estimates from both ends agree (see `_np_threshold`), which lands on a
    jump exactly when the blocks commute and converges like Newton's method
    on the crossing eigenvalue when they do not; else an ITP step (Oliveira
    and Takahashi, ACM TOMS 2020; kappa1 = 0.2 / (b - a), kappa2 = 2,
    n0 = 1), never more than one step beyond bisection. The slope is 0
    where the blocks commute, so their searches take no Newton step."""
    tol = 1e-16 * b
    kappa1 = 0.2 / (b - a)
    n_max = max(math.ceil(math.log2((b - a) / (2.0 * tol))), 0) + 1
    j = 0
    newton_ok = True
    # only ITP steps count against n_max; jump and Newton steps shrink the
    # bracket too, and the loop bounds all kinds together
    for _ in range(2 * n_max + 2):
        if b - a <= 2.0 * tol or j > n_max:
            break
        ma, mb = masses(a), masses(b)
        up, down = ma[4], mb[5]
        # a linear estimate errs by the square of its distance: take the
        # one made closer to the crossing
        jump = up if up - a <= b - down else down
        steps = [(abs(ge / m[6 + idx]), e - ge / m[6 + idx], ge)
                 for e, ge, m in ((a, ga, ma), (b, gb, mb)) if m[6 + idx] < 0.0]
        _, newton, g_from = min(steps, default=(0.0, math.nan, 0.0))
        newton_step = False
        if newton_ok and a < newton < b:
            x = newton
            newton_step = True
        elif abs(up - down) <= 1e-6 * b and a < jump < b:
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
        gx = _residual(masses(x), idx, target)
        if gx > 0.0:
            a, ga = x, gx
        elif gx < 0.0:
            b, gb = x, gx
        else:
            return x
        newton_ok = not newton_step or abs(gx) <= 0.5 * abs(g_from)
    return 0.5 * (a + b)


def _optimal_test(split, c, type1, type2) -> TestOperator:
    """The test Q = P + c K from the `_split` of rho - t sigma at the final
    threshold t. Q = v diag(weights) v^dagger with weights 0, c and 1, so
    its [0, 1] check runs on the weights and Q is not eigendecomposed."""
    _, v, _, pos, ker, _ = split
    weights = pos.astype(float) + c * ker.astype(float)
    _check_test_spectrum(weights)
    test = object.__new__(TestOperator)
    test.q = _as_matrix((v * weights) @ v.conj().T)
    test.type1, test.type2 = type1, type2
    return test


def _dh(masses, eps: float):
    """Hypothesis testing divergence on the pair of a `_MassTable`, from the
    type-II error at the exact root; returns (value, t, c, masses at t)."""
    t, c, m, type2 = _np_threshold(masses, masses.tr_rho - eps, "rho")
    if type2 <= 0.0:
        return math.inf, t, c, m
    return -math.log2(type2), t, c, m


def _dh_blocks(blocks, eps: float):
    """`_dh` on weighted blocks (weight, rho, sigma) of a block-diagonal
    pair."""
    return _dh(_MassTable(blocks), eps)


def hypothesis_testing_divergence(rho, sigma, eps: float):
    """D_H^eps(rho || sigma) in bits with the optimal Neyman-Pearson test.

    The type-I error of the returned test equals eps exactly (fractional
    weight on the boundary eigenspace) up to the root search's 1e-12 slack
    in mass; the value is -log2 of the type-II error at the exact root, the
    test's own within that slack, and +inf when a perfect test exists.
    """
    if not 0.0 <= eps < 1.0:
        raise InvalidEpsilonError(f"epsilon must lie in [0, 1), got {eps}")
    rho, sigma = _hermitian_pair(rho, sigma)
    table = _MassTable([(1, rho, sigma)], keep_split=True)
    value, t, c, masses = _dh(table, eps)
    last_t, split = table.last
    split = split if last_t == t else _split(np.array([[rho], [sigma]]), t)
    split = tuple(a[0] for a in split)
    pr, ps, kr, ks = masses[:4]
    type1 = table.tr_rho - (pr + c * kr)
    return value, _optimal_test(split, c, type1, ps + c * ks)


def hat_alpha(rho, sigma, mu: float) -> float:
    """Smallest type-I error over tests whose type-II error is at most mu.

    Equals 2 ** (-D_H^mu(sigma || rho)); sigma may be subnormalized, and mu
    must not exceed its trace.
    """
    rho, sigma = _hermitian_pair(rho, sigma)
    tr_sigma = float(np.real(np.trace(sigma)))
    if not 0.0 < mu <= tr_sigma + 1e-12:
        raise InvalidMuError(f"mu must lie in (0, {tr_sigma:.6g}], got {mu}")
    return _hat_alpha_blocks([(1, rho, sigma)], mu)


def _hat_alpha_blocks(blocks, mu: float) -> float:
    """hat_alpha on weighted blocks (weight, rho, sigma) of a block-diagonal
    pair, at the exact root."""
    table = _MassTable(blocks)
    accepted = _np_threshold(table, mu, "sigma")[3]
    return max(table.tr_rho - accepted, 0.0)


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
    tau_b = check_hermitian(sigma_b) / s.size_x
    if tau_b.shape != (s.dim_b, s.dim_b):
        raise DimensionMismatchError(f"sigma_b has shape {tau_b.shape}, expected d = {s.dim_b}")
    blocks = [(1, p * r.matrix, tau_b) for p, r in zip(s.probs, s.side_info)]
    a = _hat_alpha_blocks(blocks, w_size / s.size_x)
    if a <= 0.0:
        return math.inf
    return -math.log2(a)


def _window_table(s: CQState, n: int, cap: int) -> _MassTable:
    """The `_MassTable` of the n-fold pair of a rate window, built once per
    (state, n) and kept on the state (`CQState._windows`); the cap is
    checked on every call. The pair enters through its Schur-Weyl irrep
    blocks for qubit side information (`schur_weyl_blocks`) and through one
    block per type class otherwise (`type_classes`)."""
    _check_nfold(s, n, cap)
    if n not in s._windows:
        if s.dim_b == 2:
            blocks = schur_weyl_blocks(s, n, cap)
        else:
            rho_b_n = tensor(*([marginal_b(s).matrix] * n))
            blocks = [(mult, p * r, rho_b_n) for mult, p, r in type_classes(s, n, cap=cap)]
        s._windows[n] = _MassTable(blocks)
    return s._windows[n]


def rate_window(s: CQState, n: int, eps: float, alpha: float,
                cap: int = DEFAULT_CAP) -> tuple[float, float]:
    """Per-symbol bounds on the optimal fixed-length rate at blocklength n
    and error budget eps. Both endpoints come from the hypothesis testing
    divergence of the n-fold state against identity tensor the n-fold
    side-information marginal; the upper endpoint pays a finite-length
    penalty controlled by the splitting parameter alpha.

    Every window on one state and blocklength shares one table of threshold
    masses (`_window_table`), so a search starts from the tightest bracket
    the thresholds evaluated before give. Each endpoint is taken at the
    exact root of its Neyman-Pearson search, so a window does not depend on
    the windows computed before it.
    """
    if not 0.0 < eps < 1.0:
        raise InvalidEpsilonError(f"epsilon must lie in (0, 1), got {eps}")
    if not 0.0 < alpha < 1.0:
        raise InvalidEpsilonError(f"alpha must lie in (0, 1), got {alpha}")
    table = _window_table(s, n, cap)
    lower_dh = _dh(table, eps)[0]
    upper_dh = _dh(table, alpha * eps)[0]
    penalty = math.log2(8.0 / ((1.0 - alpha) ** 2 * eps))
    lower = -lower_dh / n
    upper = -upper_dh / n + penalty / n
    return lower, upper
