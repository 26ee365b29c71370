"""Rate windows on one state and blocklength share one table of threshold
masses, and the Neyman-Pearson search takes Newton steps on the exact slope
of the mass: the slopes against central differences, windows against
fresh-state windows in either call order, the table's lifetime, and the
number of thresholds three windows evaluate."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

import cqsw.hypotest as hypotest
from cqsw import presets
from cqsw.errors import CapExceededError
from cqsw.hypotest import _stack_blocks, _threshold_masses, rate_window
from cqsw.operators import random_density
from cqsw.states import schur_weyl_blocks


def _random_pair_stack():
    rng = np.random.default_rng(17)
    return _stack_blocks([(1, random_density(rng, 3), random_density(rng, 3))])


@pytest.mark.parametrize("stack, ts", [
    (_stack_blocks(schur_weyl_blocks(presets.zero_plus_source(), 3)), (0.1, 0.25, 0.45)),
    (_random_pair_stack(), (0.5, 1.0, 2.0)),
], ids=["zero_plus_n3", "random_3x3"])
def test_mass_slopes_match_central_differences(stack, ts):
    # slope_r and slope_s against (m(t + h) - m(t - h)) / 2h, away from
    # every crossing (the mass jumps there)
    for t in ts:
        m, _ = _threshold_masses(stack, t)
        h = 1e-6 * t
        assert m[4] > t + h and m[5] < t - h
        above, below = _threshold_masses(stack, t + h)[0], _threshold_masses(stack, t - h)[0]
        for k in (0, 1):
            central = (above[k] - below[k]) / (2.0 * h)
            assert central < 0.0
            assert m[6 + k] == pytest.approx(central, rel=1e-6)
        assert m[6] == pytest.approx(t * m[7], rel=1e-12)


def test_mass_slopes_vanish_on_commuting_blocks():
    stack = _stack_blocks(schur_weyl_blocks(presets.doubly_symmetric(0.11), 4))
    for t in (0.05, 0.3, 1.0, 4.0):
        m, _ = _threshold_masses(stack, t)
        assert m[6] == 0.0 and m[7] == 0.0


_SOURCES = {
    "zero_plus": (presets.zero_plus_source, 3),
    "doubly_symmetric": (lambda: presets.doubly_symmetric(0.11), 4),
    "random_qubit": (lambda: presets.random_cq_state(np.random.default_rng(21), 2, 2), 3),
    "random_d3": (lambda: presets.random_cq_state(np.random.default_rng(8), 2, 3), 2),
}
_EPSILONS = (0.05, 0.1, 0.2, 0.3)


@pytest.mark.parametrize("name", sorted(_SOURCES))
def test_windows_do_not_depend_on_call_order(name):
    # each search ends at the exact root of its mass, so a window that
    # starts from other windows' thresholds equals the fresh-state one
    make, n = _SOURCES[name]
    fresh = [rate_window(make(), n, eps, 0.5) for eps in _EPSILONS]
    for order in (_EPSILONS, _EPSILONS[::-1]):
        s = make()
        shared = {eps: rate_window(s, n, eps, 0.5) for eps in order}
        for eps, want in zip(_EPSILONS, fresh):
            assert shared[eps] == pytest.approx(want, abs=1e-13, rel=0.0)
    # the cap is still checked on a blocklength whose table is kept
    assert ("window", n) in s._cache
    with pytest.raises(CapExceededError):
        rate_window(s, n, 0.1, 0.5, cap=4)


def test_window_table_is_freed_with_its_state():
    # the table holds no reference back to itself or its state, so
    # reference counting alone frees it
    gc.disable()
    try:
        s = presets.zero_plus_source()
        rate_window(s, 2, 0.1, 0.5)
        table = weakref.ref(s._cache[("window", 2)])
        del s
        assert table() is None
    finally:
        gc.enable()


def test_windows_share_thresholds(monkeypatch):
    # the three zero_plus n = 2 windows on one state (with a table per
    # window and ITP and jump steps only, they took 55 evaluations of 35
    # distinct thresholds)
    thresholds = []
    real_masses = hypotest._threshold_masses

    def masses(stack, t):
        thresholds.append(t)
        return real_masses(stack, t)

    monkeypatch.setattr(hypotest, "_threshold_masses", masses)
    s = presets.zero_plus_source()
    for eps in (0.05, 0.1, 0.2):
        rate_window(s, 2, eps, 0.5)
    assert len(thresholds) == len(set(thresholds))
    assert len(thresholds) <= 17
