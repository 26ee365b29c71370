"""The classical case of a source with quantum side information: blocks
p(x) rho_x that commute. A common eigenbasis of the blocks turns the n-fold
pair of a rate window, the joint state against 1_X tensor rho_B^(x)n, into a
pair of product distributions on the cells (x, b), and its Neyman-Pearson
test into a likelihood-ratio sort over the joint types of the cells: exact,
and with no eigendecomposition.
"""

from __future__ import annotations

import math

import numpy as np

from cqsw.operators import SUPPORT_CUTOFF, eig_hermitian


def _diagonal(blocks) -> bool:
    """Whether every matrix of the (k, d, d) stack is diagonal under the
    support cutoff rule: no off-diagonal entry above SUPPORT_CUTOFF times
    the largest diagonal entry of its matrix."""
    diag = np.einsum("kii->ki", blocks)
    off = np.abs(blocks - diag[:, :, None] * np.eye(blocks.shape[1]))
    scale = SUPPORT_CUTOFF * np.max(np.abs(diag), axis=1)
    return bool(np.all(off <= scale[:, None, None]))


def common_diagonal(blocks):
    """The diagonals (k, d) of the (k, d, d) stack blocks in a basis that
    diagonalizes every block, or None when the blocks do not commute.

    The basis is the computational one when every block is diagonal there.
    Otherwise, if no commutator of two blocks exceeds the support cutoff,
    it is the eigenbasis of a combination of the blocks with distinct
    weights, which commuting blocks share also where their sum is degenerate
    (`doubly_symmetric` has rho_B = 1/2). The basis is accepted only when
    every block is diagonal in it (`_diagonal`)."""
    if not _diagonal(blocks):
        comm = blocks[:, None] @ blocks[None] - blocks[None] @ blocks[:, None]
        if np.max(np.abs(comm)) > SUPPORT_CUTOFF * blocks.shape[1] * np.max(np.abs(blocks)) ** 2:
            return None
        weights = np.sqrt(np.arange(2.0, len(blocks) + 2.0))
        v = eig_hermitian(np.tensordot(weights, blocks, axes=1))[1]
        blocks = v.conj().T @ blocks @ v
        if not _diagonal(blocks):
            return None
    return np.einsum("kii->ki", blocks).real


def _joint_types(cells, n: int):
    """log P and log P/Q (2, T) of every joint type of length-n strings over
    the K cells with log P_c and log Q_c in cells (2, K), P summed over the
    multinomial(n; counts) strings of the type, in chunks of one count of
    the first cell, each at most C(n + K - 2, K - 2) types. A chunk grows
    one cell at a time: every partial type with u counts used repeats once
    for each count 0..n - u of the next cell, and the last cell takes the
    rest."""
    k = cells.shape[1]
    rows = np.array([cells[0], cells[0] - cells[1]])[:, :, None]
    fact = np.array([[1.0], [0.0]])  # the ratio has no multinomial
    log_fact = np.array([math.lgamma(m + 1.0) for m in range(n + 1)])
    for first in range(n + 1) if k > 1 else (n,):
        used = np.array([first])
        acc = first * rows[:, 0] + fact * (log_fact[n] - log_fact[first])
        for c in range(1, k - 1):
            reps = n - used + 1
            counts = np.arange(int(reps.sum())) - np.repeat(np.cumsum(reps) - reps, reps)
            used = np.repeat(used, reps) + counts
            acc = np.repeat(acc, reps, axis=1) + counts * rows[:, c] - fact * log_fact[counts]
        if k > 1:
            rest = n - used
            acc = acc + rest * rows[:, -1] - fact * log_fact[rest]
        yield acc


class TypeTable:
    """The Neyman-Pearson test between the n-fold pair of a source with
    commuting blocks, a pair of product distributions on the cells (x, b):
    the likelihood-ratio test over the C(n + K - 1, K - 1) joint types of
    the K cells with P_c > 0, exact and without eigendecomposition. The
    types are sorted once by likelihood ratio, largest first, and the table
    keeps for each the ratio and the cumulative masses: P summed directly,
    Q summed in the log domain, since Q = 1_X tensor rho_B^(x)n has trace
    |X|^n. cells (2, K) holds log P_c and log Q_c of the K cells with
    P_c > 0 (`hypotest._commuting_cells`): a type that uses a cell with
    P_c = 0 carries no P mass, and a test with eps > 0 never accepts it. The
    table holds three floats per type and needs about five while it is
    built."""

    def __init__(self, cells, n: int):
        log_p, ratio = np.empty((2, math.comb(n + cells.shape[1] - 1, n)))
        at = 0
        for chunk in _joint_types(cells, n):
            size = chunk.shape[1]
            log_p[at:at + size], ratio[at:at + size] = chunk
            at += size
        order = np.argsort(np.negative(ratio, out=ratio))
        self.ratio = np.negative(ratio[order])
        del ratio
        log_p = log_p[order]
        del order
        self.cum_log_q = np.logaddexp.accumulate(log_p - self.ratio)
        self.cum_p = np.cumsum(np.exp(log_p, out=log_p), out=log_p)

    def dh(self, eps: float) -> float:
        """D_H^eps in bits: the types up to the first whose cumulative P
        mass reaches 1 - eps, the last of them with the weight that makes
        the type-I error eps. Its share of Q is its share of P over its
        likelihood ratio."""
        target = self.cum_p[-1] - eps
        i = int(np.searchsorted(self.cum_p, target))
        before = float(self.cum_p[i - 1]) if i else 0.0
        log_beta = math.log(target - before) - float(self.ratio[i])
        if i:
            log_beta = float(np.logaddexp(self.cum_log_q[i - 1], log_beta))
        return -log_beta / math.log(2.0)
