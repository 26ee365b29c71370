"""Exponent functions: closed forms for flat-entropy sources, curve shape,
saddle point agreement, critical rate, and reference helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import ndtri

from cqsw import presets
from cqsw.conditional import conditional_entropy, conditional_variance, h_up
from cqsw.errors import DomainError, RateOutOfWindowError, ZeroVarianceError
from cqsw.exponents import (
    HUpEvaluator,
    critical_rate,
    e0,
    e0_down,
    exponent,
    exponent_family,
    moderate_ratio,
    saddle_point,
    saddle_sigma_support_ok,
    second_order_reference,
)

RNG = np.random.default_rng(55)


def test_e0_uniform_bit_closed_form():
    # no side information uniform bit: E_0(s) = -s for every family
    s = presets.no_side_info()
    for sval in (0.25, 0.5, 1.0, 2.0):
        assert e0(s, sval) == pytest.approx(-sval, abs=1e-9)
        if sval <= 1.0:
            assert e0_down(s, sval) == pytest.approx(-sval, abs=1e-9)


def test_e0_domain():
    s = presets.doubly_symmetric(0.11)
    with pytest.raises(DomainError):
        e0(s, -1.0)
    with pytest.raises(DomainError):
        e0_down(s, 1.5)
    assert e0(s, 0.0) == 0.0


def test_sphere_packing_flat_source():
    # E_sp is 0 up to R = 1 and +inf beyond for the uniform bit
    s = presets.no_side_info()
    assert exponent(s, 0.7, "sphere_packing") == 0.0
    assert exponent(s, 1.0, "sphere_packing") == 0.0
    assert math.isinf(exponent(s, 1.2, "sphere_packing"))


def test_random_coding_positive_above_entropy():
    s = presets.doubly_symmetric(0.11)
    h = conditional_entropy(s)
    assert exponent(s, h - 0.05 if h > 0.05 else 0.0, "random_coding") == 0.0
    assert exponent(s, h + 0.2, "random_coding") > 0.0
    # the down-arrow exponent never exceeds the up-arrow one
    for dr in (0.1, 0.3):
        assert exponent(s, h + dr, "random_coding_down") <= \
            exponent(s, h + dr, "random_coding") + 1e-9


def test_strong_converse_zero_above_entropy():
    s = presets.random_cq_state(RNG, 2, 2, full_rank=True)
    h = conditional_entropy(s)
    for kind in ("strong_converse_star", "strong_converse_flat"):
        assert exponent(s, h + 0.1, kind) == 0.0
        if h > 0.05:
            assert exponent(s, h - 0.05, kind) > 0.0


def test_exponent_curves_monotone():
    s = presets.doubly_symmetric(0.11)
    h = conditional_entropy(s)
    rates = np.linspace(h + 0.05, h + 0.5, 8)
    for kind in ("random_coding_down", "random_coding", "sphere_packing"):
        curve = exponent_family(s, rates, kind)
        finite = curve.values[np.isfinite(curve.values)]
        assert np.all(np.diff(finite) >= -1e-9)
    down = exponent_family(s, np.linspace(0.05, h - 0.05, 6),
                           "strong_converse_star")
    finite = down.values[np.isfinite(down.values)]
    assert np.all(np.diff(finite) <= 1e-9)


def test_exponent_family_validates_rates():
    s = presets.doubly_symmetric(0.11)
    with pytest.raises(DomainError):
        exponent_family(s, [0.5, 0.4], "random_coding")


def test_sphere_packing_equals_saddle_value():
    s = presets.random_cq_state(RNG, 2, 2, full_rank=True)
    h1 = conditional_entropy(s)
    h0 = h_up(s, 0.0, "petz").value
    r = h1 + 0.5 * (h0 - h1)
    rep = saddle_point(s, r)
    assert rep.gap <= 1e-6
    assert exponent(s, r, "sphere_packing") == pytest.approx(rep.value,
                                                            abs=1e-6)
    assert saddle_sigma_support_ok(s, rep)
    assert rep.s_star == pytest.approx((1 - rep.alpha_star) / rep.alpha_star)


def test_saddle_rate_window():
    s = presets.doubly_symmetric(0.11)
    with pytest.raises(RateOutOfWindowError):
        saddle_point(s, 0.01)


def test_critical_rate_between_entropy_and_h_half():
    s = presets.doubly_symmetric(0.11)
    rc = critical_rate(s)
    h = conditional_entropy(s)
    h0 = h_up(s, 0.0, "petz").value
    assert h < rc < h0
    # at the critical rate the two exponents touch
    ev = HUpEvaluator(s, "petz")
    er = exponent(s, rc, "random_coding", evaluator=ev)
    esp = exponent(s, rc, "sphere_packing", evaluator=ev)
    assert er == pytest.approx(esp, abs=1e-5)
    # below it they separate
    r2 = rc + 0.15
    assert exponent(s, r2, "random_coding", evaluator=ev) < \
        exponent(s, r2, "sphere_packing", evaluator=ev) + 1e-9


def test_moderate_ratio_sane():
    s = presets.doubly_symmetric(0.11)
    v = conditional_variance(s)
    ratio = moderate_ratio(s, 0.02)
    assert ratio == pytest.approx(1.0 / (2.0 * v), rel=0.05)
    with pytest.raises(DomainError):
        moderate_ratio(s, 0.0)
    with pytest.raises(ZeroVarianceError):
        moderate_ratio(presets.perfect_side_info(), 0.01)


def test_second_order_reference_formula():
    s = presets.doubly_symmetric(0.11)
    h = conditional_entropy(s)
    v = conditional_variance(s)
    n, eps = 100, 0.25
    expect = n * h - math.sqrt(n * v) * float(ndtri(eps))
    assert second_order_reference(s, n, eps) == pytest.approx(expect,
                                                             abs=1e-9)
    with pytest.raises(DomainError):
        second_order_reference(s, 10, 0.0)


def test_sphere_packing_finite_above_entropy_three_symbols():
    rng = np.random.default_rng(2018)
    s = presets.random_cq_state(rng, 3, 2, full_rank=True)
    h1 = conditional_entropy(s)
    h0 = h_up(s, 0.0, "petz").value
    assert h1 < h0 < math.inf
    r = h1 + 0.6 * (h0 - h1)
    esp = exponent(s, r, "sphere_packing")
    assert 0.0 < esp < math.inf
    assert esp >= exponent(s, r, "random_coding") - 1e-9
    # E_sp(R) = sup_(s > 0) [E_0(s) + s R] with the Sibson closed form E_0
    grid = max(e0(s, sv) + sv * r for sv in np.geomspace(1e-3, 50.0, 200))
    assert esp >= grid - 1e-6


@pytest.mark.parametrize("sval", [50.0, 500.0, 5000.0])
def test_e0_large_s_is_finite_and_matches_h_up(sval):
    # acc^(1+s) overflows at these s; E_0 is taken from the scaled spectrum
    s = presets.zero_plus_source()
    got = e0(s, sval)
    assert math.isfinite(got)
    want = -sval * h_up(s, 1.0 / (1.0 + sval), "petz").value
    assert got == pytest.approx(want, rel=1e-8)


def test_strong_converse_flat_zero_above_entropy_rank_deficient():
    # zero_plus has pure (rank-one) blocks and H(X|B) = 0.399 < 0.5
    assert exponent(presets.zero_plus_source(), 0.5, "strong_converse_flat") == 0.0
