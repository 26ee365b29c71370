"""Neyman-Pearson thresholds of pairs whose rho blocks have rank one, by the
secular equation of a rank-one update, against the eigendecomposed stack:
the eight values of `_threshold_masses` below, at and above each block's
crossing, the crossings themselves against <u|sigma^-1|u>, and D_H,
hat_alpha and rate windows through the public calls."""

from __future__ import annotations

import math

import numpy as np
import pytest

import cqsw.hypotest as hypotest
from cqsw import presets
from cqsw.hypotest import _rank_one_stack, _stack_blocks, _threshold_masses
from cqsw.operators import random_density
from cqsw.states import schur_weyl_blocks


def _pure(rng, d):
    u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return np.outer(u, u.conj()) / np.vdot(u, u).real


def _sigma_containing(rng, rho, rank):
    """A density operator of the given rank whose support holds supp rho."""
    d = len(rho)
    u = np.linalg.eigh(rho)[1][:, -1:]
    basis = np.linalg.qr(np.hstack([u, rng.standard_normal((d, rank - 1))]))[0]
    return basis @ random_density(rng, rank) @ basis.conj().T


def _pairs():
    """(name, rho, sigma): pure rho of size 2-4 against full-rank sigma, a
    rank-deficient sigma whose support holds rho, and one it leaves; the
    full-rank ones drawn as the pointwise benchmark draws its rank-one
    pairs."""
    rng = np.random.default_rng(26)
    out = []
    for d in (2, 3, 4):
        for k in range(2):
            rho = random_density(rng, d, 1)
            out.append((f"d{d}.full{k}", rho, random_density(rng, d)))
        if d > 2:
            rho = _pure(rng, d)
            out.append((f"d{d}.inside", rho, _sigma_containing(rng, rho, d - 1)))
        rho = _pure(rng, d)
        out.append((f"d{d}.leaks", rho, random_density(rng, d, d - 1)))
    return out


_PAIRS = _pairs()
_SOURCES = [(f"zero_plus.n{n}", schur_weyl_blocks(presets.zero_plus_source(), n, cap=4 ** n))
            for n in range(1, 7)]
_CASES = _SOURCES + [(name, [(1, rho, sigma)]) for name, rho, sigma in _PAIRS]


def _crossing(rho, sigma):
    """<u|sigma^-1|u> of rho = u u^dagger, +inf where u leaves supp sigma."""
    w, v = np.linalg.eigh(rho)
    u = v[:, -1] * math.sqrt(w[-1])
    s, vs = np.linalg.eigh(sigma)
    b = np.abs(vs.conj().T @ u) ** 2
    on = s > 1e-12 * s[-1]
    if b[~on].sum() > 1e-12 * w[-1]:
        return math.inf
    return float(np.sum(b[on] / s[on]))


def _factored(blocks):
    plain = _stack_blocks(blocks)
    factored = _rank_one_stack(plain, _threshold_masses(plain, 0.0)[1])
    assert len(factored) == 3
    return plain, factored


@pytest.mark.parametrize("name, blocks", _CASES, ids=[name for name, _ in _CASES])
def test_crossings_are_exact(name, blocks):
    _, factored = _factored(blocks)
    want = [_crossing(np.asarray(rho), np.asarray(sigma)) for _, rho, sigma in blocks]
    assert factored[2][4] == pytest.approx(want, rel=1e-12)
    assert math.isinf(want[0]) == name.endswith("leaks")


@pytest.mark.parametrize("name, blocks", _CASES, ids=[name for name, _ in _CASES])
def test_secular_masses_match_the_eigendecomposition(name, blocks):
    plain, factored = _factored(blocks)
    t_c = factored[2][4]
    # the blocks of zero_plus all cross at t = 1, up to rounding
    finite = np.unique(np.round(t_c[np.isfinite(t_c)], 12))
    ts = {0.0, 0.3, 3.0, 1e3}
    ts.update((t * f for t in finite for f in (0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0)))
    scale = sum(wt * np.trace(rho).real + wt * np.trace(sigma).real for wt, rho, sigma in blocks)
    for t in sorted(ts):
        want, got = _threshold_masses(plain, t)[0], _threshold_masses(factored, t)[0]
        # masses, then the slopes of the masses on P
        assert got[:4] == pytest.approx(want[:4], rel=0.0, abs=1e-13 * scale)
        assert got[6:] == pytest.approx(want[6:], rel=1e-11, abs=1e-13 * scale)
        assert got[6] == t * got[7]
        # the exact crossings: the nearest t_c of a block still positive
        # above t, of a block past its crossing below; the Hellmann-Feynman
        # estimate is a tangent to the convex top eigenvalue and never
        # overshoots it
        pos = t_c[t_c > t * (1.0 + 1e-12)]
        past = t_c[t_c < t * (1.0 - 1e-12)]
        assert got[4] == (pos.min() if pos.size else math.inf)
        assert got[5] == (past.max() if past.size else -math.inf)
        assert want[4] <= got[4] * (1.0 + 1e-12)


def _eigendecomposed(monkeypatch, fn, *args):
    """fn(*args) with every table kept on the eigendecomposition route."""
    with monkeypatch.context() as mp:
        mp.setattr(hypotest, "_rank_one_stack", lambda stack, split: stack)
        return fn(*args)


@pytest.mark.parametrize("name, rho, sigma", _PAIRS, ids=[name for name, _, _ in _PAIRS])
def test_dh_and_hat_alpha_match_the_eigendecomposition(monkeypatch, name, rho, sigma):
    w, v = np.linalg.eigh(sigma)
    kernel = w <= 1e-12 * w[-1]
    outside = float(np.real(np.trace(v[:, kernel].conj().T @ rho @ v[:, kernel])))
    for eps in (0.05, 0.1, 0.3, 0.9):
        got, test = hypotest.hypothesis_testing_divergence(rho, sigma, eps)
        want = _eigendecomposed(monkeypatch, hypotest.hypothesis_testing_divergence, rho, sigma, eps)[0]
        assert test.errors_against(rho, sigma)[0] == pytest.approx(eps, abs=1e-10)
        if 1.0 - eps <= outside:
            # a perfect test exists (D_H = +inf); both routes end at a
            # threshold where the type-II error is at the rounding floor
            assert got > 50.0 and want > 50.0
        else:
            assert got == pytest.approx(want, rel=1e-13)
    for mu in (0.02, 0.1, 0.5):
        got = hypotest.hat_alpha(rho, sigma, mu)
        want = _eigendecomposed(monkeypatch, hypotest.hat_alpha, rho, sigma, mu)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_zero_plus_windows_match_the_eigendecomposition(monkeypatch, n):
    cap = 4 ** n
    for eps in (0.05, 0.1, 0.2):
        got = hypotest.rate_window(presets.zero_plus_source(), n, eps, 0.5, cap=cap)
        want = _eigendecomposed(monkeypatch, hypotest.rate_window,
                                presets.zero_plus_source(), n, eps, 0.5, cap)
        assert got == pytest.approx(want, rel=1e-13)


def test_a_rank_two_block_keeps_the_eigendecomposition():
    rng = np.random.default_rng(3)
    blocks = [(1, _pure(rng, 3), random_density(rng, 3)),
              (1, random_density(rng, 3, 2), random_density(rng, 3))]
    plain = _stack_blocks(blocks)
    assert _rank_one_stack(plain, _threshold_masses(plain, 0.0)[1]) is plain
