"""Rate windows on sources whose blocks commute, by one likelihood-ratio sort
over joint types: agreement with the irrep and type-class routes on random
commuting sources with zero cells, which sources take the sort (a rotated
common eigenbasis does, a perturbation off it does not), the cap on joint
types, and windows far past the reach of the eigendecomposing routes."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cqsw.hypotest as hypotest
from cqsw import presets
from cqsw.classical import TypeTable
from cqsw.errors import CapExceededError
from cqsw.hypotest import rate_window
from cqsw.operators import tensor
from cqsw.states import CQState, marginal_b, schur_weyl_blocks, type_classes


def _commuting_source(size_x, dim_b, zeros, rotate, seed):
    """A source whose blocks are diagonal in one basis, the computational one
    or a random one (rotate), with up to zeros cells of zero mass: each
    zeroed cell takes one entry off a symbol's diagonal, and every symbol
    keeps at least one entry."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(size_x))
    diags = rng.dirichlet(np.ones(dim_b), size=size_x)
    for x, b in zip(rng.integers(size_x, size=zeros), rng.integers(dim_b, size=zeros)):
        if np.count_nonzero(diags[x]) > 1:
            diags[x, b] = 0.0
    diags /= diags.sum(axis=1, keepdims=True)
    u = np.eye(dim_b)
    if rotate:
        g = rng.standard_normal((dim_b, dim_b)) + 1j * rng.standard_normal((dim_b, dim_b))
        u = np.linalg.qr(g)[0]
    ops = [(u * d) @ u.conj().T for d in diags]
    return CQState([str(x) for x in range(size_x)], probs, ops)


def _eigh_stack(a):
    return np.linalg.eigh(np.asarray(a))


def _window_eigendecomposed(s, n, eps, alpha):
    """rate_window through the irrep blocks (qubit side information) or one
    block per type class, eigendecomposed by numpy's eigh."""
    if s.dim_b == 2:
        blocks = schur_weyl_blocks(s, n, cap=2 ** 14)
    else:
        rho_b_n = tensor(*([marginal_b(s).matrix] * n))
        blocks = [(mult, p * r, rho_b_n) for mult, p, r in type_classes(s, n, cap=2 ** 14)]
    table = hypotest._MassTable(blocks)
    penalty = math.log2(8.0 / ((1.0 - alpha) ** 2 * eps))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hypotest, "eig_hermitian_stack", _eigh_stack)
        return -table.dh(eps) / n, (-table.dh(alpha * eps) + penalty) / n


@settings(max_examples=12, deadline=None, derandomize=True)
@given(size_x=st.sampled_from((2, 3)), dim_b=st.sampled_from((2, 3)),
       zeros=st.integers(0, 2), rotate=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       n=st.integers(1, 4), eps=st.floats(0.01, 0.5))
@example(size_x=3, dim_b=3, zeros=2, rotate=True, seed=5, n=3, eps=0.1)
@example(size_x=2, dim_b=3, zeros=1, rotate=False, seed=6, n=4, eps=0.2)
@example(size_x=3, dim_b=2, zeros=2, rotate=False, seed=7, n=4, eps=0.05)
def test_sorted_types_match_eigendecomposed_blocks(size_x, dim_b, zeros, rotate, seed, n, eps):
    s = _commuting_source(size_x, dim_b, zeros, rotate, seed)
    got = rate_window(s, n, eps, 0.5, cap=2 ** 14)
    assert isinstance(s._cache[("window", n)], TypeTable)
    want = _window_eigendecomposed(s, n, eps, 0.5)
    assert got == pytest.approx(want, abs=1e-12, rel=0.0)


def _hadamard_rotated(q):
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    s = presets.doubly_symmetric(q)
    return CQState(s.alphabet, s.probs, [h @ r.matrix @ h for r in s.side_info])


def test_rotated_common_eigenbasis_takes_the_sort(eig_count, monkeypatch):
    # rho_B = 1/2 hides nothing: the blocks are not diagonal in the
    # computational basis, and one 2 x 2 eigendecomposition finds their basis
    plain = presets.doubly_symmetric(0.11)
    s = _hadamard_rotated(0.11)
    eig_count.clear()
    thresholds = []
    monkeypatch.setattr(hypotest, "_threshold_masses",
                        lambda stack, t: thresholds.append(t))
    for eps in (0.05, 0.1, 0.2):
        got = rate_window(s, 4, eps, 0.5)
        assert got == pytest.approx(rate_window(plain, 4, eps, 0.5), abs=1e-12, rel=0.0)
    assert isinstance(s._cache[("window", 4)], TypeTable)
    assert len(eig_count) == 1 and thresholds == []


def test_perturbed_blocks_keep_the_eigendecomposed_route():
    # a 1e-7 off-diagonal entry in one block: the blocks no longer commute
    s = presets.doubly_symmetric(0.11)
    rho0 = s.side_info[0].matrix + 1e-7 * np.array([[0.0, 1.0], [1.0, 0.0]])
    s = CQState(s.alphabet, s.probs, [rho0, s.side_info[1].matrix])
    assert hypotest._commuting_cells(s) is None
    lower, upper = rate_window(s, 3, 0.1, 0.5)
    assert isinstance(s._cache[("window", 3)], hypotest._MassTable)
    want = _window_eigendecomposed(s, 3, 0.1, 0.5)
    assert (lower, upper) == pytest.approx(want, abs=1e-12, rel=0.0)


def test_cap_counts_joint_types():
    # doubly_symmetric has K = 4 cells: C(30, 3) = 4060 types at n = 27 and
    # C(31, 3) = 4495 at n = 28, against the default cap of 4096
    s = presets.doubly_symmetric(0.11)
    lower, upper = rate_window(s, 27, 0.1, 0.5)
    assert lower <= upper
    with pytest.raises(CapExceededError, match="joint types 4495"):
        rate_window(s, 28, 0.1, 0.5)
    # a zero cell leaves K = 3: C(n + 2, 2) types
    s = CQState(["0", "1"], [0.5, 0.5], [np.diag([1.0, 0.0]), np.diag([0.3, 0.7])])
    assert hypotest._commuting_cells(s).shape == (2, 3)
    with pytest.raises(CapExceededError, match="joint types 66"):
        rate_window(s, 10, 0.1, 0.5, cap=65)


@pytest.mark.parametrize("n", [100, 200])
def test_large_blocklength_windows(n):
    s = presets.doubly_symmetric(0.11)
    cap = math.comb(n + 3, 3)
    windows = [rate_window(s, n, eps, 0.5, cap=cap) for eps in (0.05, 0.1, 0.2)]
    for lower, upper in windows:
        assert math.isfinite(lower) and math.isfinite(upper)
        assert lower <= upper
    # a larger error budget allows a lower rate
    assert windows[0][0] > windows[1][0] > windows[2][0]
