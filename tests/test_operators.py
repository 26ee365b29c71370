"""Operator core: eigensolver against numpy, spectral functions against
scipy, structural identities."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import logm

from cqsw.errors import (
    DimensionMismatchError,
    NegativeEigenvalueError,
    NonHermitianError,
)
from cqsw.operators import (
    eig_hermitian,
    eigenvalue_groups,
    nonneg_projector,
    pinch,
    positive_part,
    positive_projector,
    random_density,
    random_hermitian,
    spectral_log2,
    spectral_power,
    support_contained,
    tensor,
    trace_norm,
)

RNG = np.random.default_rng(1234)


def test_eig_matches_numpy_across_sizes():
    for dim in (1, 2, 3, 4, 6, 9):
        for _ in range(20):
            a = random_hermitian(RNG, dim)
            w, v = eig_hermitian(a)
            w_ref = np.linalg.eigvalsh(a)
            assert np.allclose(w, w_ref, atol=1e-11)
            assert np.allclose((v * w) @ v.conj().T, a, atol=1e-11)
            assert np.allclose(v.conj().T @ v, np.eye(dim), atol=1e-11)
            assert np.all(np.diff(w) >= -1e-12)


def test_eig_two_by_two_nearly_diagonal():
    # tiny off-diagonal entries must not destroy the eigenvectors
    for off in (0.0, 1e-18, 1e-16, 1e-12, 1e-8):
        a = np.array([[0.3, off * (1 + 1j)], [off * (1 - 1j), 0.9]])
        w, v = eig_hermitian(a)
        assert np.allclose((v * w) @ v.conj().T, a, atol=1e-14)
        assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-14)


def test_eig_deterministic():
    a = random_hermitian(RNG, 5)
    w1, v1 = eig_hermitian(a)
    w2, v2 = eig_hermitian(a.copy())
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_non_hermitian_rejected():
    with pytest.raises(NonHermitianError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatchError):
        eig_hermitian(np.zeros((2, 3)))


def test_spectral_power_and_log_against_scipy():
    rho = random_density(RNG, 4)
    assert np.allclose(spectral_power(rho, 0.5) @ spectral_power(rho, 0.5),
                       rho, atol=1e-11)
    assert np.allclose(spectral_log2(rho), logm(rho) / np.log(2.0), atol=1e-9)


def test_support_conventions():
    # rank-1 projector: power and log act on the support only
    p = np.diag([1.0, 0.0])
    assert np.allclose(spectral_power(p, -1.0), p)
    assert np.allclose(spectral_log2(p), np.zeros((2, 2)))
    assert np.allclose(spectral_power(p, 0.0), p)
    with pytest.raises(NegativeEigenvalueError):
        spectral_power(np.diag([1.0, -0.5]), 0.5)


def test_tensor_and_partial_trace_roundtrip():
    a = random_density(RNG, 2)
    b = random_density(RNG, 3)
    ab = tensor(a, b).reshape(2, 3, 2, 3)
    assert np.allclose(np.einsum("ijkj->ik", ab), a, atol=1e-12)
    assert np.allclose(np.einsum("ijil->jl", ab), b, atol=1e-12)
    assert abs(np.einsum("ijij->", ab).real - 1.0) < 1e-12


def test_pinch_properties():
    a = random_hermitian(RNG, 4)
    x = random_hermitian(RNG, 4)
    pa = pinch(a, x)
    # pinching is trace preserving and idempotent
    assert abs(np.trace(pa).real - np.trace(a).real) < 1e-10
    assert np.allclose(pinch(pa, x), pa, atol=1e-10)
    # pinching by a nondegenerate operator commutes with it
    assert np.allclose(pa @ x - x @ pa, 0, atol=1e-8)


def test_eigenvalue_groups_degenerate():
    w = np.array([0.0, 0.0, 1.0, 1.0 + 1e-12, 2.0])
    groups = eigenvalue_groups(w)
    assert [len(g) for g in groups] == [2, 2, 1]


def test_positive_part_and_projectors():
    h = random_hermitian(RNG, 4)
    pos = positive_part(h)
    w = np.linalg.eigvalsh(h)
    assert abs(np.trace(pos).real - np.sum(w[w > 0])) < 1e-10
    p = positive_projector(np.diag([1.0, 0.0, -1.0]))
    assert np.allclose(p, np.diag([1.0, 0.0, 0.0]))
    q = nonneg_projector(np.diag([1.0, 0.0, -1.0]))
    assert np.allclose(q, np.diag([1.0, 1.0, 0.0]))


def test_norms():
    h = random_hermitian(RNG, 4)
    w = np.linalg.eigvalsh(h)
    assert abs(trace_norm(h) - np.sum(np.abs(w))) < 1e-11


def test_support_relations():
    rho = np.diag([0.5, 0.5, 0.0])
    sig = np.diag([0.2, 0.3, 0.5])
    assert support_contained(rho, sig)
    assert not support_contained(sig, rho)

