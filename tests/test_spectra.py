"""Spectra computed once and passed along: the eigendecompositions one
evaluation makes, and agreement of the blockwise Renyi layer with the
joint-operator divergences, monotonicity of H_alpha and the shape of E_0 on
random sources."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import cqsw.conditional as conditional
import cqsw.variational as variational
from cqsw import presets
from cqsw.conditional import conditional_entropy, cq_renyi, h_up
from cqsw.divergences import (
    d_max,
    relative_entropy,
    relative_entropy_variance,
    renyi_divergence,
)
from cqsw.exponents import e0
from cqsw.operators import random_density
from cqsw.states import CQState, as_joint_operator, marginal_b
from cqsw.variational import DummyState, dummy_divergence, mo17_candidate, variational_value
from test_type_classes import _sources


def test_petz_h_up_one_eigendecomposition(eig_count, warmed_zero_plus):
    # sum_x (p rho_x)^alpha only: sigma* shares its eigenvectors and the
    # blocks keep theirs
    s = warmed_zero_plus
    h_up(s, 0.6, "petz")
    eig_count.clear()
    h_up(s, 0.65, "petz")
    assert len(eig_count) == 1


def test_sandwiched_objective_one_eigendecomposition(eig_count, warmed_zero_plus):
    # the parameter matrix K only: exp(K)/Tr shares its eigenvectors and
    # the blocks keep theirs
    s = warmed_zero_plus
    basis = conditional._traceless_basis(s.dim_b)
    objective = conditional._h_up_objective(s, 1.5, "sandwiched", basis)
    eig_count.clear()
    value = objective(np.array([0.1, -0.2, 0.3]))
    assert math.isfinite(value)
    assert len(eig_count) == 1


def test_block_spectra_computed_once(eig_count):
    s = presets.random_cq_state(np.random.default_rng(3), 3, 2)
    eig_count.clear()
    first = s.block_spectra()
    assert len(eig_count) == 3
    assert s.block_spectra() is first
    assert marginal_b(s) is marginal_b(s)


@pytest.mark.parametrize("rank", (1, 3))
def test_pair_divergences_eigendecompose_each_operand_once(eig_count, rank):
    # rho and a full-rank sigma once each, whose support tests then cost
    # nothing; flat adds its exponent matrix, D_max the matrix
    # sigma^(-1/2) rho sigma^(-1/2)
    rng = np.random.default_rng(5)
    rho = random_density(rng, 3, rank=rank)
    sigma = random_density(rng, 3)
    for alpha in (0.5, 2.0):
        for variant, count in (("petz", 2), ("sandwiched", 2), ("flat", 3)):
            eig_count.clear()
            assert math.isfinite(renyi_divergence(rho, sigma, alpha, variant))
            assert len(eig_count) == count, (variant, alpha)
    for fn in (relative_entropy, relative_entropy_variance, d_max):
        eig_count.clear()
        assert math.isfinite(fn(rho, sigma))
        assert len(eig_count) == 2, fn.__name__


def test_dummy_divergence_uses_block_spectra(eig_count, warmed_zero_plus):
    # per block: the spectrum of sigma_x on its first use, which sigma_x then
    # keeps, plus the leak only where the source block is rank deficient;
    # log2(p rho_x) and its support come from the kept block spectra
    rng = np.random.default_rng(8)
    s = presets.random_cq_state(rng, 3, 2)
    s.block_spectra()
    d = DummyState(rng.dirichlet(np.ones(3)), [random_density(rng, 2) for _ in range(3)])
    eig_count.clear()
    assert math.isfinite(dummy_divergence(s, d))
    assert len(eig_count) == 3
    # validation adds nothing at full rank, the divergence nothing with the
    # spectra kept; the entropy adds sigma_B only
    eig_count.clear()
    assert math.isfinite(variational_value(s, 0.5, "r", d))
    assert len(eig_count) == 1

    s = warmed_zero_plus
    d = DummyState(s.probs, list(s.side_info))
    eig_count.clear()
    assert dummy_divergence(s, d) == pytest.approx(0.0, abs=1e-10)
    assert len(eig_count) == s.size_x


def test_variational_value_tests_leaks_once(eig_count, warmed_zero_plus):
    # both zero_plus blocks are rank deficient: validation tests each leak
    # (|X|), the divergence does not again; the dummy's blocks keep their
    # spectra, so the entropy adds sigma_B only
    s = warmed_zero_plus
    d = DummyState(s.probs, list(s.side_info))
    eig_count.clear()
    assert math.isfinite(variational_value(s, 0.5, "r", d))
    assert len(eig_count) == s.size_x + 1


@pytest.mark.parametrize("full_rank", (True, False))
def test_dummy_states_keep_their_spectra(eig_count, full_rank):
    # a geodesic candidate and a point of the refinement's parameter map
    # carry the spectra of their sigma_x (kernel columns from the source
    # block), so scoring one eigendecomposes sigma_B only, plus the leak
    # test of each rank-deficient block in validation; one evaluation of the
    # program decomposes each K_x of dimension 2 and up, and sigma_B
    s = presets.random_cq_state(np.random.default_rng(4), 3, 3, full_rank=full_rank)
    marginal_b(s)
    layout = variational._layout(s)
    leak_tests = sum(1 for _, _, kernel, _, _ in layout if kernel.size)
    assert (leak_tests == 0) == full_rank
    k_matrices = sum(1 for *_, tb in layout if len(tb))
    cand = mo17_candidate(s, 0.7, marginal_b(s))
    eig_count.clear()
    assert math.isfinite(variational_value(s, 0.5, "r", cand))
    assert len(eig_count) == 1 + leak_tests
    theta = variational._params_from_dummy(layout, cand)
    eig_count.clear()
    d = variational._dummy_from_params(s, layout, theta)[0]
    assert len(eig_count) == k_matrices
    eig_count.clear()
    assert math.isfinite(variational_value(s, 0.5, "r", d))
    assert len(eig_count) == 1 + leak_tests
    eig_count.clear()
    variational._program_terms(s, layout, theta)
    assert len(eig_count) == k_matrices + 1



def test_mo17_candidate_uses_block_spectra(eig_count, warmed_zero_plus):
    # per block: log2 tau on the block support and the exponent matrix; the
    # support basis and log2 of the block come from the kept block spectra
    s = warmed_zero_plus
    eig_count.clear()
    mo17_candidate(s, 0.7, marginal_b(s))
    assert len(eig_count) <= 4


_alphas = st.sampled_from((0.25, 0.5, 0.8, 1.3, 2.0, 3.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(s=_sources, alpha=_alphas, variant=st.sampled_from(("petz", "sandwiched", "flat")),
       seed=st.integers(0, 2 ** 32 - 1), use_marginal=st.booleans())
def test_cq_renyi_matches_joint_divergence(s, alpha, variant, seed, use_marginal):
    sigma = marginal_b(s).matrix if use_marginal else \
        random_density(np.random.default_rng(seed), s.dim_b)
    got = cq_renyi(s, sigma, alpha, variant)
    want = renyi_divergence(as_joint_operator(s), np.kron(np.eye(s.size_x), sigma),
                            alpha, variant)
    assert got == pytest.approx(want, abs=1e-10)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(s=_sources, lo=st.floats(0.05, 5.0), hi=st.floats(0.05, 5.0))
def test_petz_h_up_nonincreasing_in_alpha(s, lo, hi):
    lo, hi = min(lo, hi), max(lo, hi)
    assert h_up(s, hi, "petz").value <= h_up(s, lo, "petz").value + 1e-9


@settings(max_examples=30, deadline=None, derandomize=True)
@given(s=_sources, points=st.lists(st.floats(-0.5, 4.0), min_size=3, max_size=3,
                                   unique=True))
def test_e0_concave_with_slope_minus_entropy(s, points):
    # concavity on three random points with alpha = 1/(1+s) <= 2: beyond,
    # the small eigenvalues of sum_x (p rho_x)^alpha of a random source sink
    # under the double-precision noise floor and E_0 is no longer resolved
    # (test_petz_large_alpha_keeps_small_eigenvalues checks one such case)
    a, b, c = sorted(points)
    assume(c - a >= 1e-3)
    t = (b - a) / (c - a)
    assert e0(s, b) >= (1.0 - t) * e0(s, a) + t * e0(s, c) - 1e-9
    # E_0'(0) = -H(X|B) in this sign convention, by a Richardson-refined
    # central difference
    h = 1e-4

    def slope(step):
        return (e0(s, step) - e0(s, -step)) / (2.0 * step)

    first = (4.0 * slope(h / 2.0) - slope(h)) / 3.0
    assert first == pytest.approx(-conditional_entropy(s), abs=1e-5)


def test_petz_large_alpha_keeps_small_eigenvalues():
    # a deterministic source has H_alpha = E_0 = 0 for every alpha; at
    # alpha = 8 the smaller eigenvalue of rho^alpha is 6e-14 of the larger,
    # under the relative support cutoff but a genuine part of the support
    c, t = math.cos(0.4), math.sin(0.4)
    u = np.array([[c, -t], [t, c]])
    rho = u @ np.diag([0.0224, 0.9776]) @ u.T
    s = CQState(["0", "1"], [0.0, 1.0], [np.eye(2) / 2, rho])
    # (resolved to about 1e-3 relative, hence the 1e-5 tolerance)
    assert h_up(s, 8.0, "petz").value == pytest.approx(0.0, abs=1e-5)
    assert e0(s, 1.0 / 8.0 - 1.0) == pytest.approx(0.0, abs=1e-5)
