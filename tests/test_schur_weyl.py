"""n-fold hypothesis testing on Schur-Weyl irrep blocks for qubit side
information: the symmetric powers against the symmetric subspace, windows
against the type-class blocks and against exact binomial Neyman-Pearson
sums, the size of the matrices a window eigendecomposes, and the blocks
of pure states' vanishing irreps, left out without changing a window."""

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
from cqsw.operators import random_density, random_hermitian, tensor
from cqsw.states import CQState, _sym_powers, _types, marginal_b, schur_weyl_blocks, type_classes

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
    built = len(eig_shapes)  # validating the source's operators
    thresholds = []
    real_masses = hypotest._threshold_masses

    def masses(stack, t):
        thresholds.append(t)
        return real_masses(stack, t)

    monkeypatch.setattr(hypotest, "_threshold_masses", masses)
    rate_window(s, n, 0.1, 0.5)
    if hypotest._commuting_cells(s) is not None:
        # a commuting source sorts its joint types instead; its irrep
        # table, driven directly, still stacks the blocks
        assert eig_shapes[built:] == [] and thresholds == []
        table = hypotest._MassTable(schur_weyl_blocks(s, n))
        table.dh(0.1)
        table.dh(0.05)
    assert max(shape[-1] for _, shape in eig_shapes) == largest
    blocks = len(schur_weyl_blocks(s, n))
    stacked = [shape for name, shape in eig_shapes if name == "cqsw.hypotest"]
    assert stacked == [(blocks, largest, largest)] * len(thresholds)


def _every_irrep_block(s, n):
    """schur_weyl_blocks with every (type, k) block, the vanishing ones of
    pure rho_x (k_x > 0) included."""
    blocks = s.blocks()
    ops = [r for _, r in blocks] + [marginal_b(s).matrix]
    dets = [float((r[0, 0] * r[1, 1]).real - abs(r[0, 1]) ** 2) for r in ops]
    sym = [_sym_powers(r, n) for r in ops]
    out = []
    for _, counts, mult in _types(len(blocks), n):
        p = math.prod(blocks[x][0] ** c for x, c in counts)
        for ks in itertools.product(*(range(c // 2 + 1) for _, c in counts)):
            weight, scale = mult, p
            for (x, c), k in zip(counts, ks):
                weight *= math.comb(c, k) - (math.comb(c, k - 1) if k else 0)
                scale *= dets[x] ** k
            dims = [c - 2 * k for (_, c), k in zip(counts, ks)]
            rho = scale * tensor(*(sym[x][m] for (x, _), m in zip(counts, dims)))
            sigma = dets[-1] ** sum(ks) * tensor(*(sym[-1][m] for m in dims))
            out.append((weight, rho, sigma))
    return out


def _pure_and_mixed():
    """rho_0 = |0><0| next to a full-rank rho_1: only rho_0's irreps vanish."""
    mixed = random_density(np.random.default_rng(8), 2)
    return CQState(["0", "1"], [0.4, 0.6], [np.diag([1.0, 0.0]), mixed])


@pytest.mark.parametrize("n, kept, every", [(2, 3, 5), (3, 4, 8)])
def test_vanishing_irreps_are_left_out(n, kept, every):
    # zero_plus has two pure states: only the k = 0 block of each type
    # stays, and the blocks left out are those with a zero rho side
    s = presets.zero_plus_source()
    blocks = _every_irrep_block(s, n)
    vanishing = [rho for _, rho, _ in blocks if np.max(np.abs(rho)) <= 1e-15]
    assert (len(schur_weyl_blocks(s, n)), len(blocks)) == (kept, every)
    assert len(vanishing) == every - kept


@pytest.mark.parametrize("source", [presets.zero_plus_source, _pure_and_mixed],
                         ids=["zero_plus", "pure_and_mixed"])
def test_windows_without_vanishing_irreps_match_every_block(source):
    # eigendecomposed by numpy's eigh on both sides, so only the blocks
    # differ; n = 6 and 8 are past the default cap
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hypotest, "eig_hermitian_stack", _numpy_eigh_stack)
        for n in (2, 3, 4, 6, 8):
            s = source()
            every = _every_irrep_block(s, n)
            assert len(schur_weyl_blocks(s, n, cap=2 ** 16)) < len(every)
            for eps in (0.05, 0.1, 0.2):
                got = rate_window(s, n, eps, 0.5, cap=2 ** 16)
                assert got == pytest.approx(_window(every, n, eps, 0.5), abs=1e-14, rel=0.0)


@pytest.mark.parametrize("source", [presets.zero_plus_source, _pure_and_mixed],
                         ids=["zero_plus", "pure_and_mixed"])
def test_vanishing_irreps_leave_dh_at_zero_unchanged(source):
    # at t = 0 the left-out blocks lie in the kernel of rho - t sigma and
    # carry sigma mass there, but D_H^0 counts sigma on the support of rho
    # only
    s = source()
    for n in (2, 3, 4):
        kept = hypotest._MassTable(schur_weyl_blocks(s, n))
        every = hypotest._MassTable(_every_irrep_block(s, n))
        assert kept.dh(0.0) == pytest.approx(every.dh(0.0), abs=1e-14, rel=0.0)
        assert math.isfinite(kept.dh(0.0))
        ker_sigma = every(0.0)[3] - kept(0.0)[3]
        assert ker_sigma > 1e-3
        assert kept(0.0)[:3] == pytest.approx(every(0.0)[:3], abs=1e-14, rel=0.0)
