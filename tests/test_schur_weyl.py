"""n-fold hypothesis testing on Schur-Weyl irrep blocks for qubit side
information: the symmetric powers against the symmetric subspace, windows
against the type-class blocks and against exact binomial Neyman-Pearson
sums, and the size of the matrices a window eigendecomposes."""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cqsw.hypotest as hypotest
import cqsw.operators as operators
from cqsw import presets
from cqsw.hypotest import _dh_blocks, rate_window
from cqsw.operators import random_hermitian, tensor
from cqsw.states import _sym_powers, marginal_b, schur_weyl_blocks, type_classes

from test_type_classes import _source


def _symmetric_basis(m):
    """(2^m, m + 1): column j the normalized sum of the m-bit strings with j
    ones, bit 0 the leftmost tensor factor."""
    v = np.zeros((2 ** m, m + 1))
    for idx in range(2 ** m):
        v[idx, bin(idx).count("1")] = 1.0
    return v / np.sqrt(v.sum(axis=0))


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_symmetric_power_is_the_symmetric_subspace_block(m):
    rng = np.random.default_rng(m)
    v = _symmetric_basis(m)
    for a in (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
              random_hermitian(rng, 2), np.diag([0.7, 0.3]).astype(complex)):
        full = tensor(*([a] * m)) if m else np.ones((1, 1))
        assert np.allclose(_sym_powers(a, m)[m], v.T @ full @ v, atol=1e-13, rtol=0.0)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_irrep_blocks_split_the_tensor_power(m):
    # sum over lambda = (m - k, k) of dim pi_lambda dim [lambda] is 2^m, and
    # A^(x)m has the spectra of det(A)^k Sym^(m-2k)(A), each dim [lambda] times
    mults = [math.comb(m, k) - (math.comb(m, k - 1) if k else 0) for k in range(m // 2 + 1)]
    assert sum((m - 2 * k + 1) * mult for k, mult in enumerate(mults)) == 2 ** m
    a = random_hermitian(np.random.default_rng(10 + m), 2)
    det = float(np.linalg.det(a).real)
    sym = _sym_powers(a, m)
    parts = [np.repeat(det ** k * np.linalg.eigvalsh(sym[m - 2 * k]), mult)
             for k, mult in enumerate(mults)]
    want = np.linalg.eigvalsh(tensor(*([a] * m)))
    assert np.allclose(np.sort(np.concatenate(parts)), want, atol=1e-12, rtol=0.0)


def _numpy_eigh_stack(a):
    return np.linalg.eigh(np.asarray(a))


def _window(blocks, n, eps, alpha):
    penalty = math.log2(8.0 / ((1.0 - alpha) ** 2 * eps))
    return (-_dh_blocks(blocks, eps)[0] / n,
            (-_dh_blocks(blocks, alpha * eps)[0] + penalty) / n)


def _window_type_classes(s, n, eps, alpha):
    """rate_window over one d^n x d^n block per type class, eigendecomposed
    by numpy's eigh: an oracle independent of the irrep blocks and of the
    Jacobi eigensolver."""
    rho_b_n = tensor(*([marginal_b(s).matrix] * n))
    blocks = [(mult, p * r, rho_b_n) for mult, p, r in type_classes(s, n, cap=2 ** 14)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hypotest, "eig_hermitian_stack", _numpy_eigh_stack)
        return _window(blocks, n, eps, alpha)


_qubit_sources = st.builds(_source, st.sampled_from(("full", "deficient", "zero_symbol")),
                           st.sampled_from((2, 3)), st.just(2), st.integers(0, 2 ** 32 - 1))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(s=_qubit_sources, n=st.integers(1, 5), eps=st.floats(0.01, 0.5))
@example(s=_source("full", 2, 2, 5), n=5, eps=0.1)
@example(s=_source("deficient", 2, 2, 6), n=5, eps=0.2)
@example(s=_source("zero_symbol", 3, 2, 7), n=4, eps=0.05)
@example(s=presets.zero_plus_source(), n=4, eps=0.1)
def test_irrep_windows_match_type_classes(s, n, eps):
    n = min(n, 4) if s.size_x == 3 else n  # 3^5 2^5 exceeds the default cap
    got = rate_window(s, n, eps, 0.5)
    want = _window_type_classes(s, n, eps, 0.5)
    assert got == pytest.approx(want, abs=1e-12, rel=0.0)


def _classical_dh(p, q, eps):
    """D_H^eps of distributions p and q by the randomized likelihood-ratio
    test, in bits."""
    acc, beta = 0.0, 0.0
    for i in np.argsort(-p / q, kind="stable"):
        if acc + p[i] >= 1.0 - eps:
            return -math.log2(beta + (1.0 - eps - acc) / p[i] * q[i])
        acc += p[i]
        beta += q[i]
    return -math.log2(beta)


@pytest.mark.parametrize("seed", [None, 3, 4])
def test_commuting_window_matches_binomial_sum(seed):
    # n = 8 is past the default cap; the n-fold pair is a pair of product
    # distributions on the cells (x, b), so its Neyman-Pearson test runs on
    # the joint types: each count vector c has multinomial(8; c) strings
    n, eps, alpha = 8, 0.1, 0.5
    s = presets.doubly_symmetric(0.11) if seed is None else \
        presets.random_commuting_state(np.random.default_rng(seed), 2, 2)
    pb = np.diag(marginal_b(s).matrix).real
    cells_p = np.concatenate([p * np.diag(r.matrix).real for p, r in zip(s.probs, s.side_info)])
    cells_q = np.concatenate([pb] * s.size_x)
    p, q = [], []
    for cut in itertools.combinations(range(n + len(cells_p) - 1), len(cells_p) - 1):
        counts = np.diff((-1,) + cut + (n + len(cells_p) - 1,)) - 1
        mult = math.factorial(n)
        for c in counts:
            mult //= math.factorial(int(c))
        p.append(mult * float(np.prod(cells_p ** counts)))
        q.append(mult * float(np.prod(cells_q ** counts)))
    p, q = np.array(p), np.array(q)
    penalty = math.log2(8.0 / ((1.0 - alpha) ** 2 * eps))
    want = (-_classical_dh(p, q, eps) / n, (-_classical_dh(p, q, alpha * eps) + penalty) / n)
    assert rate_window(s, n, eps, alpha, cap=2 ** 16) == pytest.approx(want, abs=1e-12, rel=0.0)


@pytest.fixture
def eig_shapes(monkeypatch):
    """The shapes handed to eig_hermitian and eig_hermitian_stack from every
    cqsw module, as (caller module, shape)."""
    shapes = []
    real, real_stack = operators.eig_hermitian, operators.eig_hermitian_stack

    def patched(name, fn):
        def wrapper(a):
            shapes.append((name, np.shape(getattr(a, "matrix", a))))
            return fn(a)
        return wrapper

    for name, mod in list(sys.modules.items()):
        if not name.startswith("cqsw"):
            continue
        if getattr(mod, "eig_hermitian", None) is real:
            monkeypatch.setattr(mod, "eig_hermitian", patched(name, real))
        if getattr(mod, "eig_hermitian_stack", None) is real_stack:
            monkeypatch.setattr(mod, "eig_hermitian_stack", patched(name, real_stack))
    return shapes


@pytest.mark.parametrize("source, n, largest", [
    (presets.zero_plus_source, 3, 6),
    (lambda: presets.doubly_symmetric(0.11), 5, 12),
])
def test_rate_window_eigendecomposes_irrep_blocks(eig_shapes, monkeypatch, source, n, largest):
    # one stacked eigendecomposition per threshold, of every irrep block
    # zero-padded to the largest; the type-class blocks were 2^n x 2^n
    s = source()
    thresholds = []
    real_masses = hypotest._threshold_masses

    def masses(stack, t):
        thresholds.append(t)
        return real_masses(stack, t)

    monkeypatch.setattr(hypotest, "_threshold_masses", masses)
    rate_window(s, n, 0.1, 0.5)
    assert max(shape[-1] for _, shape in eig_shapes) == largest
    blocks = len(schur_weyl_blocks(s, n))
    stacked = [shape for name, shape in eig_shapes if name == "cqsw.hypotest"]
    assert stacked == [(blocks, largest, largest)] * len(thresholds)
