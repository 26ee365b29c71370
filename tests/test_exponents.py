"""Exponent functions: closed forms for flat-entropy sources, curve shape,
saddle point agreement, critical rate, and reference helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtri

import cqsw.conditional as conditional
import cqsw.exponents as exponents
from cqsw import presets
from cqsw.conditional import conditional_entropy, conditional_variance, h_up
from cqsw.errors import DomainError, RateOutOfWindowError, ZeroVarianceError
from cqsw.exponents import (
    KINDS,
    critical_rate,
    e0,
    e0_down,
    exponent,
    exponent_family,
    golden_max,
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
    er = exponent(s, rc, "random_coding")
    esp = exponent(s, rc, "sphere_packing")
    assert er == pytest.approx(esp, abs=1e-5)
    # below it they separate
    r2 = rc + 0.15
    assert exponent(s, r2, "random_coding") < \
        exponent(s, r2, "sphere_packing") + 1e-9


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


def test_nan_rate_raises():
    s = presets.doubly_symmetric(0.11)
    for kind in KINDS:
        with pytest.raises(DomainError):
            exponent(s, math.nan, kind)
    with pytest.raises(DomainError):
        exponent_family(s, [0.1, math.nan], "random_coding")
    with pytest.raises(DomainError):
        moderate_ratio(s, math.nan)
    # an infinite rate keeps its limit on either side of H(X|B)
    for kind in ("random_coding_down", "random_coding", "sphere_packing"):
        assert exponent(s, math.inf, kind) == math.inf
    for kind in ("strong_converse_star", "strong_converse_flat"):
        assert exponent(s, math.inf, kind) == 0.0


def log(x):
    """The natural log with its slope (its name is the parameter's id)."""
    return math.log(x), 1.0 / x


_CLOSED_FORMS = [
    (lambda x: (2.0 - (x - 0.3) ** 2, -2.0 * (x - 0.3)), 0.0, 1.0, 0.3, 2.0),
    (lambda x: (-x, -1.0), 0.5, 1.0, 0.5, -0.5),
    (log, 1.001, 64.0, 64.0, math.log(64.0)),
]


@pytest.mark.parametrize("f, lo, hi, x_max, f_max", _CLOSED_FORMS)
def test_golden_max_closed_forms(f, lo, hi, x_max, f_max):
    tol = 1e-8
    x, v = golden_max(f, lo, hi, tol)
    assert abs(x - x_max) <= tol
    assert v == pytest.approx(f_max, abs=1e-12)


def log_minus_x(x):
    """ln x - x, maximal at x = 1, with its slope: a slope that is not
    linear, so that the search stops on the value before the root."""
    return math.log(x) - x, 1.0 / x - 1.0


@pytest.mark.parametrize("scale", [1.0, 1e-15])
@pytest.mark.parametrize("f, lo, hi, x_max, f_max",
                         _CLOSED_FORMS + [(log_minus_x, 0.1, 5.0, 1.0, -1.0)])
def test_golden_max_stops_at_a_probed_point(f, lo, hi, x_max, f_max, scale):
    # the stop rule is relative to the value, so a function scaled down to
    # exponents of 1e-15 is searched as closely as the unscaled one, and the
    # point returned is one the search probed
    probed = []

    def scaled(x):
        probed.append(x)
        v, g = f(x)
        return scale * v, scale * g

    x, v = golden_max(scaled, lo, hi)
    assert x in probed
    assert abs(x - x_max) <= 1e-5
    assert abs(v - scale * f_max) <= 1e-12 * abs(scale * f_max)


_ORACLE_SOURCES = {
    "zero_plus": presets.zero_plus_source,
    "doubly_symmetric": lambda: presets.doubly_symmetric(0.11),
    "full_rank": lambda: presets.random_cq_state(np.random.default_rng(3), 2, 2),
    # blocks of rank 2 and 1 on d = 3
    "rank_deficient": lambda: presets.random_cq_state(np.random.default_rng(26), 2, 3,
                                                      full_rank=False),
}


def _reference_exponent(s, rate, kind):
    """(exponent, alpha*) of kind at rate by a search independent of
    golden_max: brentq on the slope of f(s) = s (R - H(s)) to xtol = 1e-15,
    or the end of the bracket the slope points out of."""
    lo, hi = next(b for prefix, b in exponents.S_BRACKET.items() if kind.startswith(prefix))

    def f(x):
        if kind == "random_coding_down":
            h, dh = conditional._petz_down(s, 1.0 - x)
            dh = -dh
        else:
            alpha = 1.0 / (1.0 + x)
            rep = h_up(s, alpha, exponents.DEFAULT_VARIANT[kind], slope=True)
            h, dh = rep.value, -alpha * alpha * rep.slope
        return x * (rate - h), (rate - h) - x * dh

    if f(lo)[1] <= 0.0:
        x = lo
    elif f(hi)[1] >= 0.0:
        x = hi
    else:
        x = brentq(lambda x: f(x)[1], lo, hi, xtol=1e-15)
    return f(x)[0], 1.0 / (1.0 + x)


# How far an iterate solve's H_alpha^up may move with its warm start:
# L-BFGS-B stops most runs on a relative reduction of 1e-14, and on these
# sources the two searches' values differ by up to |s| 1.5e-13 bits whether
# golden_max stops on the value or runs to 1e-8 in s.
_ITERATE_H_SPREAD = 1e-12


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("source", _ORACLE_SOURCES.values(), ids=_ORACLE_SOURCES)
def test_converged_exponents_match_a_root_search(source, kind):
    # the search stops once its value has converged to 1e-12 relative; the
    # supremum and its alpha* agree with those of a search for the root of
    # the slope to 1e-15, made on a fresh state. The petz closed forms give
    # both searches the same function; an iterate solve is only as exact as
    # its warm start lets it be, which moves s (R - H) by |s| times that
    h1 = conditional_entropy(source())
    if kind.startswith("strong_converse"):
        rates = [h1 * frac for frac in (0.3, 0.6, 0.9)]
    else:
        h0 = h_up(source(), 0.0, "petz").value
        rates = [h1 + frac * (h0 - h1) for frac in (0.1, 0.5, 0.9)]
    curve = exponent_family(source(), rates, kind)
    spread = 0.0 if curve.metadata["variant"] == "petz" else _ITERATE_H_SPREAD
    for rate, value, alpha in zip(rates, curve.values, curve.alpha_stars):
        want, want_alpha = _reference_exponent(source(), rate, kind)
        floor = spread * abs(1.0 / alpha - 1.0)
        assert abs(value - want) <= 1e-12 * abs(want) + floor, (rate, value, want)
        assert alpha == pytest.approx(want_alpha, rel=1e-6)


@pytest.fixture
def search_count(monkeypatch):
    """Count the objective evaluations of every exponent search and the
    iterate h_up solves."""
    counts = {"evals": 0, "solves": 0}
    real_max, real_solve = exponents.golden_max, conditional._iterate_h_up

    def counted_max(f, *args, **kwargs):
        def g(x):
            counts["evals"] += 1
            return f(x)
        return real_max(g, *args, **kwargs)

    def counted_solve(*args, **kwargs):
        counts["solves"] += 1
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(exponents, "golden_max", counted_max)
    monkeypatch.setattr(conditional, "_iterate_h_up", counted_solve)
    return counts


_SOURCES = [presets.doubly_symmetric, presets.zero_plus_source]


@pytest.mark.parametrize("source", _SOURCES)
@pytest.mark.parametrize("kind", KINDS)
def test_far_side_is_exact_zero_without_search(search_count, source, kind):
    # every H_alpha is nonincreasing in alpha with H_1 = H(X|B), so
    # s (R - H_alpha) <= 0 on the whole bracket on this side
    s = source()
    side = 1.0 if kind.startswith("strong_converse") else -1.0
    rate = conditional_entropy(s) + side * 0.1
    assert exponent(s, rate, kind) == 0.0
    assert search_count == {"evals": 0, "solves": 0}


@pytest.mark.parametrize("source", _SOURCES)
@pytest.mark.parametrize("kind", ["random_coding", "sphere_packing"])
def test_interior_maximum_search_evaluations(search_count, source, kind):
    s = source()
    assert exponent(s, conditional_entropy(s) + 0.1, kind) > 0.0
    assert search_count["evals"] <= 9


def test_strong_converse_interior_maximum_solves(search_count):
    s = presets.doubly_symmetric(0.11)
    assert exponent(s, conditional_entropy(s) - 0.1, "strong_converse_star") > 0.0
    assert search_count["solves"] <= 5


@pytest.mark.parametrize("delta", [5e-4, 1e-4])
def test_near_entropy_exponents_approach_half_inverse_variance(delta):
    # the optimal alpha tends to 1 as the rate tends to H(X|B), so every
    # alpha bracket must reach 1
    s = presets.doubly_symmetric(0.11)
    h = conditional_entropy(s)
    limit = 1.0 / (2.0 * conditional_variance(s))
    assert moderate_ratio(s, delta) == pytest.approx(limit, rel=0.01)
    for kind in ("strong_converse_star", "strong_converse_flat"):
        assert exponent(s, h - delta, kind) / delta ** 2 == pytest.approx(limit, rel=0.01)


@pytest.mark.parametrize("source", [presets.zero_plus_source,
                                    lambda: presets.random_cq_state(
                                        np.random.default_rng(3), 2, 2, full_rank=True)])
def test_saddle_value_is_the_sphere_packing_search(source):
    s = source()
    h1 = conditional_entropy(s)
    h0 = h_up(s, 0.0, "petz").value
    for frac in (0.1, 0.5, 0.9):
        r = h1 + frac * (h0 - h1)
        rep = saddle_point(s, r)
        assert rep.value == exponent(s, r, "sphere_packing")
        assert abs(rep.gap) <= 1e-6


def test_saddle_certificate_evaluations(search_count):
    rep = saddle_point(presets.zero_plus_source(), 0.6)
    assert rep.gap <= 1e-6
    assert search_count["evals"] <= 27


def test_rates_inside_the_alpha_one_window(search_count):
    # alpha* lies within 1e-6 of 1 here, where the divergences return D
    # itself; h_up interpolates to the window's edge, so H_alpha keeps its
    # slope and both limits still read 1/(2V)
    s = presets.doubly_symmetric(0.11)
    h = conditional_entropy(s)
    limit = 1.0 / (2.0 * conditional_variance(s))
    for delta in (1e-7, 1e-8):
        assert moderate_ratio(s, delta) == pytest.approx(limit, rel=1e-2)
        star = exponent(s, h - delta, "strong_converse_star") / delta ** 2
        assert star == pytest.approx(limit, rel=1e-2)
    before = search_count["solves"]
    assert h_up(s, 1.0, "sandwiched").value == h
    assert search_count["solves"] == before


@pytest.mark.parametrize("kind", ["strong_converse_star", "strong_converse_flat"])
def test_cap_binding_strong_converse_is_one_probe(search_count, kind):
    # zero_plus has rank-one blocks: at R = 0.08 the slope of the objective
    # still rises at alpha = ALPHA_CAP, so the cap is the maximum after one
    # probe there, and the curve names the rate (the Brent search made 37
    # and 38 solves to crawl there)
    s = presets.zero_plus_source()
    curve = exponent_family(s, [0.08], kind)
    assert search_count["solves"] <= 2
    assert search_count["evals"] == 1
    assert curve.metadata["cap_binding_rates"] == [0.08]
    want = {"strong_converse_star": 0.1476891407, "strong_converse_flat": 0.3141376514}[kind]
    assert curve.values[0] == pytest.approx(want, abs=1e-9)
    # an interior maximum binds nothing
    interior = exponent_family(presets.doubly_symmetric(0.11), [0.25, 0.4], kind)
    assert interior.metadata["cap_binding_rates"] == []


def test_curve_reuses_earlier_probes(search_count):
    # H_alpha and its slope do not depend on the rate, so later rates of a
    # curve start from the bracket the earlier probes give
    s = presets.doubly_symmetric(0.11)
    h = conditional_entropy(s)
    rates = h + 0.025 * np.arange(1, 14)
    exponent_family(s, rates, "sphere_packing")
    assert search_count["evals"] <= 6 * len(rates)


def test_critical_rate_from_one_slope(search_count):
    # -E_0'(1) = H_(1/2) - H'_(1/2) / 4 from one petz solve; central
    # differences of E_0 agree
    for s in (presets.doubly_symmetric(0.11), presets.zero_plus_source()):
        h = 1e-4
        diff = [-(e0(s, 1.0 + t) - e0(s, 1.0 - t)) / (2.0 * t) for t in (h, h / 2.0)]
        assert critical_rate(s) == pytest.approx((4.0 * diff[1] - diff[0]) / 3.0, abs=1e-9)
    assert search_count == {"evals": 0, "solves": 0}


@pytest.mark.parametrize("call", [
    lambda s, h: h_up(s, 1.0, "bogus"),
    lambda s, h: exponent(s, h + 0.1, "strong_converse_star", variant="bogus"),
    lambda s, h: e0(s, 0.0, "bogus"),
    lambda s, h: exponent(s, h + 0.1, "random_coding_down", variant="bogus"),
    lambda s, h: exponent_family(s, [h + 0.1], "random_coding_down", variant="flat"),
    lambda s, h: exponent_family(s, [h + 0.1], "bogus_kind"),
], ids=["h_up_at_one", "exponent_far_side", "e0_at_zero", "random_coding_down_bogus",
        "random_coding_down_flat", "family_kind"])
def test_bad_variant_or_kind_is_refused(call):
    # each entry checks its variant and kind before any shortcut (alpha = 1,
    # s = 0, a far-side rate) could answer without them
    s = presets.doubly_symmetric(0.11)
    with pytest.raises(ValueError):
        call(s, conditional_entropy(s))
