"""Conditional entropies: binary-entropy closed forms, agreement between
the closed-form, iterative, and grid optimizers, and order relations."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cqsw import presets
from cqsw.conditional import (
    _iterate_h_up,
    _petz_down,
    conditional_entropy,
    conditional_variance,
    cq_relative_entropy,
    cq_renyi,
    h_down,
    h_up,
    petz_sigma_star,
    von_neumann_entropy,
)
from cqsw.divergences import VARIANTS, renyi_divergence
from cqsw.errors import InvalidAlphaError
from cqsw.operators import LN2
from cqsw.states import as_joint_operator, marginal_b
from grid_oracle import grid_h_up
from test_type_classes import _source

RNG = np.random.default_rng(33)


def _hbin(q):
    return -q * math.log2(q) - (1 - q) * math.log2(1 - q)


def test_conditional_entropy_closed_forms():
    assert conditional_entropy(presets.perfect_side_info()) == \
        pytest.approx(0.0, abs=1e-10)
    assert conditional_entropy(presets.no_side_info()) == \
        pytest.approx(1.0, abs=1e-10)
    # doubly symmetric source: H(X|B) = h(q) with classical side information
    q = 0.11
    assert conditional_entropy(presets.doubly_symmetric(q)) == \
        pytest.approx(_hbin(q), abs=1e-10)


def test_entropy_difference_identity():
    # H(X|B) = H(XB) - H(B), computed via the joint spectrum
    s = presets.random_cq_state(RNG, 3, 2)
    joint_ent = 0.0
    for p, r in s.blocks():
        w = np.linalg.eigvalsh(p * r)
        w = w[w > 1e-15]
        joint_ent -= float(np.sum(w * np.log2(w)))
    hb = von_neumann_entropy(marginal_b(s).matrix)
    assert conditional_entropy(s) == pytest.approx(joint_ent - hb, abs=1e-9)


def test_conditional_variance_units():
    # classical doubly symmetric source: V = ln2 * Var[log2 likelihood]
    q = 0.11
    llr = np.array([math.log2(1 - q), math.log2(q)])
    var_bits = float(np.dot([1 - q, q], (llr - np.dot([1 - q, q], llr)) ** 2))
    got = conditional_variance(presets.doubly_symmetric(q))
    assert got == pytest.approx(LN2 * var_bits, abs=1e-9)


def test_h_up_down_order_and_alpha_one():
    s = presets.random_cq_state(RNG, 2, 2, full_rank=True)
    h = conditional_entropy(s)
    for alpha in (0.3, 0.7):
        up = h_up(s, alpha, "petz").value
        down = h_down(s, alpha, "petz")
        assert up >= down - 1e-9
        assert up >= h - 1e-9  # alpha < 1 lifts the entropy
    for alpha in (1.5, 3.0):
        up = h_up(s, alpha, "petz").value
        assert up <= h + 1e-9


def test_h_up_methods_agree_petz():
    s = presets.random_cq_state(RNG, 2, 2, full_rank=True)
    for alpha in (0.4, 0.8, 1.6):
        cf = h_up(s, alpha, "petz").value
        it = _iterate_h_up(s, alpha, "petz").value
        gr = grid_h_up(s, alpha, "petz").value
        assert it == pytest.approx(cf, abs=2e-6)
        assert gr == pytest.approx(cf, abs=2e-6)


def test_h_up_grid_matches_iterate_other_variants():
    s = presets.random_cq_state(RNG, 2, 2, full_rank=True)
    for variant in ("sandwiched", "flat"):
        for alpha in (0.5, 2.0):
            it = h_up(s, alpha, variant).value
            gr = grid_h_up(s, alpha, variant).value
            assert it == pytest.approx(gr, abs=5e-6), (variant, alpha)


def test_petz_sigma_star_is_optimal():
    s = presets.random_cq_state(RNG, 2, 2, full_rank=True)
    alpha = 0.6
    star = petz_sigma_star(s, alpha)
    base = -cq_renyi(s, star.matrix, alpha, "petz")
    for _ in range(20):
        x = RNG.normal(size=3) * 0.3
        m = star.matrix + np.array([[x[0], x[1] + 1j * x[2]],
                                    [x[1] - 1j * x[2], -x[0]]]) * 0.1
        w, v = np.linalg.eigh(m)
        w = np.clip(w, 1e-12, None)
        w /= np.sum(w)
        sig = (v * w) @ v.conj().T
        # alpha < 1: h_up is a sup over sigma of -D_alpha
        assert -cq_renyi(s, sig, alpha, "petz") <= base + 1e-9


def test_cq_relative_entropy_marginal_gives_conditional():
    s = presets.random_cq_state(RNG, 3, 3)
    assert conditional_entropy(s) == pytest.approx(
        -cq_relative_entropy(s, marginal_b(s).matrix), abs=1e-12)


def test_alpha_zero_limit_support_entropy():
    # for the uniform bit with no side information H_0 = 1
    s = presets.no_side_info()
    assert h_up(s, 0.0, "petz").value == pytest.approx(1.0, abs=1e-6)


def test_alpha_zero_petz_classical_support_count():
    # classical source: H_0 up-arrow is log2 max_b |supp P_(X|B=b)|
    s = presets.doubly_symmetric(0.11)
    joint = np.array([p * np.real(np.diag(r.matrix))
                      for p, r in zip(s.probs, s.side_info)])
    want = math.log2(int(np.max(np.sum(joint > 0, axis=0))))
    assert h_up(s, 0.0, "petz").value == pytest.approx(want, abs=1e-12)


def test_alpha_zero_petz_rank_deficient_is_finite():
    rng = np.random.default_rng(2018)
    s = presets.random_cq_state(rng, 3, 3, full_rank=False)
    h0 = h_up(s, 0.0, "petz").value
    assert math.isfinite(h0)
    # H_alpha up-arrow is nonincreasing in alpha and bounded by log2 |X|
    assert h_up(s, 0.05, "petz").value <= h0 + 1e-9
    assert h0 <= math.log2(3) + 1e-12


def test_petz_sigma_star_small_alpha_is_finite():
    rng = np.random.default_rng(4)
    s = presets.random_cq_state(rng, 3, 2)
    sig = petz_sigma_star(s, 1e-4).matrix
    assert np.all(np.isfinite(sig))
    assert np.real(np.trace(sig)) == pytest.approx(1.0, abs=1e-12)


def test_alpha_domain_typed_errors():
    # negative orders are refused everywhere; alpha = 0 is refused by
    # cq_renyi and is the alpha -> 0 limit in h_up and h_down
    s = presets.doubly_symmetric(0.11)
    rho_b = marginal_b(s)
    for variant in VARIANTS:
        for alpha in (0.0, -0.5):
            with pytest.raises(InvalidAlphaError):
                cq_renyi(s, rho_b, alpha, variant)
        with pytest.raises(InvalidAlphaError):
            h_up(s, -0.5, variant)
        with pytest.raises(InvalidAlphaError):
            h_down(s, -0.5, variant)
    assert math.isfinite(h_up(s, 0.0, "petz").value)
    assert math.isfinite(h_down(s, 0.0, "petz"))


@pytest.mark.parametrize("kind, size_x, dim_b, seed",
                         [("commuting", 2, 3, 1022), ("deficient", 3, 3, 4),
                          ("zero_symbol", 3, 2, 5)])
def test_h_down_petz_at_zero_is_closed_form(kind, size_x, dim_b, seed):
    # H_0^down = log2 sum_x Tr[Pi_x rho_B], Pi_x the support projector of
    # rho_B^x over the symbols with p(x) > 0; the commuting source 1022 is
    # where an extrapolated limit misses it most (by 8.6e-5)
    s = _source(kind, size_x, dim_b, seed)
    rho_b = marginal_b(s).matrix
    total = 0.0
    for p, r in zip(s.probs, s.side_info):
        if p > 0.0:
            w, v = np.linalg.eigh(r.matrix)
            on = v[:, w > 1e-12 * w[-1]]
            total += float(np.real(np.trace(on.conj().T @ rho_b @ on)))
    assert h_down(s, 0.0, "petz") == pytest.approx(math.log2(total), abs=1e-12)


@pytest.mark.parametrize("kind, size_x, dim_b, seed",
                         [("commuting", 2, 3, 1022), ("deficient", 3, 3, 4),
                          ("zero_symbol", 3, 2, 5), ("full", 2, 2, 8)])
def test_petz_down_matches_the_joint_operator(kind, size_x, dim_b, seed):
    # (H_alpha^down, its alpha-slope) from the cached overlaps against the
    # petz divergence of the joint operator from 1_X (x) rho_B, and against
    # Richardson-refined central differences
    s = _source(kind, size_x, dim_b, seed)
    joint = as_joint_operator(s)
    sigma = np.kron(np.eye(s.size_x), marginal_b(s).matrix)
    for alpha in (0.3, 0.8, 1.5, 4.0):
        h, slope = _petz_down(s, alpha)
        assert h == pytest.approx(-renyi_divergence(joint, sigma, alpha, "petz"), abs=1e-12)

        def diff(step):
            return (_petz_down(s, alpha + step)[0] - _petz_down(s, alpha - step)[0]) / (2 * step)

        step = 1e-3 * alpha
        assert slope == pytest.approx((4.0 * diff(step / 2.0) - diff(step)) / 3.0, rel=1e-6,
                                      abs=1e-9)
    assert _petz_down(s, 0.0)[0] == h_down(s, 0.0, "petz")


def test_petz_spectrum_counts_the_marginal_rank_once(monkeypatch):
    # the support of sum_x (p rho_x)^alpha is that of rho_B at every alpha,
    # so its rank is counted on the first call for a state only
    import cqsw.conditional as conditional
    from cqsw.conditional import _petz_sibson, petz_h0

    calls = []
    real = conditional.support_mask

    def mask(w):
        calls.append(1)
        return real(w)

    monkeypatch.setattr(conditional, "support_mask", mask)
    s = presets.zero_plus_source()
    for alpha in (0.3, 0.7, 1.5, 4.0):
        petz_sigma_star(s, alpha)
        _petz_sibson(s, alpha, slope=True)
    petz_h0(s)
    assert len(calls) == 1
