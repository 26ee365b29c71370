"""The sigma_B optimizer behind h_up: its exact gradient against central
differences on random sources, the eigendecompositions one evaluation
makes, one solve per point of the alpha -> 0 grid, the solves a state
tabulates, at most one L-BFGS run per solve whatever the solve order and
none from an optimal start, the slope dH_alpha/dalpha a solve reports, the
optimizer report a curve carries, and the order relations of the three
Renyi families and of exponent curves on random sources."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

import cqsw.conditional as conditional
from cqsw import exponents, presets
from cqsw.conditional import conditional_entropy, cq_renyi, h_up
from cqsw.exponents import exponent, exponent_family
from cqsw.operators import random_density
from test_type_classes import _sources

_VARIANTS = ("petz", "sandwiched", "flat")


def _central_difference(f, x, h=1e-5):
    """Richardson-refined central differences of f at x."""
    def step(t):
        return np.array([(f(x + t * e) - f(x - t * e)) / (2.0 * t)
                         for e in np.eye(len(x))])
    return (4.0 * step(h / 2.0) - step(h)) / 3.0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(s=_sources, variant=st.sampled_from(_VARIANTS),
       alpha=st.sampled_from((1e-3, 0.3, 0.7, 1.5, 3.0, 64.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_objective_gradient_matches_central_differences(s, variant, alpha, seed):
    basis = conditional._traceless_basis(s.dim_b)
    x = 0.7 * np.random.default_rng(seed).standard_normal(len(basis))
    value_of = conditional._h_up_objective(s, alpha, variant, basis)
    value, grad = conditional._h_up_objective(s, alpha, variant, basis, grad=True)(x)
    assert value == pytest.approx(value_of(x), rel=1e-12, abs=1e-12)
    fd = _central_difference(value_of, x)
    assert np.max(np.abs(grad - fd)) <= 1e-6 * max(1.0, float(np.max(np.abs(fd))))


@pytest.mark.parametrize("variant", _VARIANTS)
def test_gradient_adds_no_eigendecomposition(eig_count, warmed_zero_plus, variant):
    # K only for petz and sandwiched; K and one small matrix per block for
    # flat, whose eigenvectors the gradient reuses
    s = warmed_zero_plus
    basis = conditional._traceless_basis(s.dim_b)
    x = np.array([0.1, -0.2, 0.3])
    eig_count.clear()
    conditional._h_up_objective(s, 1.5, variant, basis)(x)
    value_only = len(eig_count)
    eig_count.clear()
    conditional._h_up_objective(s, 1.5, variant, basis, grad=True)(x)
    assert len(eig_count) == value_only == (1 + s.size_x if variant == "flat" else 1)


@pytest.mark.parametrize("variant", ("sandwiched", "flat"))
def test_zero_alpha_solves_each_grid_point_once(monkeypatch, variant):
    s = presets.doubly_symmetric(0.11)
    alphas = []
    real = conditional._iterate_h_up

    def iterate(s, alpha, *args, **kwargs):
        alphas.append(alpha)
        return real(s, alpha, *args, **kwargs)

    monkeypatch.setattr(conditional, "_iterate_h_up", iterate)
    rep = h_up(s, 0.0, variant)
    assert sorted(alphas) == [1e-3, 1e-2, 1e-1]
    # sigma and the residual are those of the alpha = 1e-3 solve
    last = h_up(s, 1e-3, variant)
    assert np.allclose(rep.sigma_star.matrix, last.sigma_star.matrix, atol=1e-12)
    assert rep.residual == last.residual
    assert rep.evaluations > last.evaluations


def test_state_tabulates_iterate_solves(monkeypatch):
    # H_0 of two sphere-packing exponents above it: the alpha -> 0 grid is
    # solved for the first rate only, and a repeated solve is looked up
    s = presets.doubly_symmetric(0.11)
    alphas = []
    real = conditional._iterate_h_up

    def iterate(s, alpha, *args, **kwargs):
        alphas.append(alpha)
        return real(s, alpha, *args, **kwargs)

    monkeypatch.setattr(conditional, "_iterate_h_up", iterate)
    for rate in (1.2, 1.5):
        assert math.isinf(exponent(s, rate, "sphere_packing", variant="flat"))
    assert sorted(alphas) == [1e-3, 1e-2, 1e-1]
    first = h_up(s, 0.3, "flat")
    assert h_up(s, 0.3, "flat") is first
    assert len(alphas) == 4


def test_solve_does_not_depend_on_solve_order():
    # sandwiched alpha = 0.1 lies outside the convex domain; on this
    # commuting source the solve stays at the diagonal stationary point
    # whether it starts at sigma = 1/d or at the alpha = 0.6 optimum
    fresh = h_up(presets.doubly_symmetric(0.11), 0.1, "sandwiched").value
    s = presets.doubly_symmetric(0.11)
    h_up(s, 0.6, "sandwiched")
    assert h_up(s, 0.1, "sandwiched").value == pytest.approx(fresh, abs=1e-9)


@pytest.fixture
def minimize_runs(monkeypatch):
    """The L-BFGS runs of the iterate solves, one entry each."""
    runs = []
    real = conditional.minimize

    def counted(*args, **kwargs):
        runs.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(conditional, "minimize", counted)
    return runs


@pytest.mark.parametrize("variant", ("sandwiched", "flat"))
def test_first_solve_is_one_run(minimize_runs, variant):
    # the first solve of a family on a state, at the alpha a strong-converse
    # search probes first, is a single L-BFGS run from sigma = 1/d, which is
    # not optimal on this full-rank source
    s = presets.random_cq_state(np.random.default_rng(3), 2, 2)
    rep = h_up(s, exponents.ALPHA_CAP, variant)
    assert len(minimize_runs) == 1
    assert rep.iterations > 0
    assert rep.residual < 1e-8


@pytest.mark.parametrize("variant", ("sandwiched", "flat"))
def test_optimal_start_makes_no_run(minimize_runs, variant):
    # sigma = 1/d is the optimum of the doubly symmetric source: the solve
    # evaluates its start, finds the gradient within tolerance and returns
    # what L-BFGS-B returns there, without calling it
    s = presets.doubly_symmetric(0.11)
    rep = h_up(s, exponents.ALPHA_CAP, variant)
    assert len(minimize_runs) == 0
    assert (rep.iterations, rep.evaluations) == (0, 1)
    assert rep.residual < 1e-8
    basis = conditional._traceless_basis(s.dim_b)
    run = minimize(conditional._h_up_objective(s, exponents.ALPHA_CAP, variant, basis, grad=True),
                   np.zeros(len(basis)), jac=True, method="L-BFGS-B",
                   options={"ftol": 1e-14, "gtol": conditional._GTOL})
    assert (run.nit, run.nfev) == (0, 1)
    assert rep.value == -run.fun
    assert rep.residual == np.max(np.abs(run.jac))


@pytest.mark.parametrize("kind", ("strong_converse_star", "strong_converse_flat"))
def test_optimal_warm_starts_make_no_run(minimize_runs, kind):
    # on the doubly symmetric source sigma* = 1/d at every alpha, so none of
    # the solves of a strong-converse curve runs L-BFGS (each ran once, 12
    # runs per curve, before solves returned an optimal start)
    curve = exponent_family(presets.doubly_symmetric(0.11), [0.25, 0.4, 0.6], kind)
    assert curve.metadata["h_up_solves"] > 0
    assert len(minimize_runs) == 0


@pytest.mark.parametrize("variant, route", [("petz", None), ("petz", "iterate"),
                                            ("sandwiched", None), ("flat", None)])
@pytest.mark.parametrize("alpha", (0.4, 0.8, 1.6, 5.0))
@pytest.mark.parametrize("make", [presets.zero_plus_source,
                                  lambda: presets.random_cq_state(np.random.default_rng(12), 3, 2)],
                         ids=["zero_plus", "random"])
def test_h_up_slope_matches_central_differences(make, alpha, variant, route):
    # each solve on a fresh state, so that no table answers; the slope is
    # minus the alpha-partial of D_alpha at sigma* (the envelope theorem),
    # petz's in closed form from Sibson's optimizer, and on the "iterate"
    # route from petz's untabulated L-BFGS reference solve
    def report(a, slope=False):
        s = make()
        if route is None:
            return h_up(s, a, variant, slope=slope)
        rep = conditional._iterate_h_up(s, a, variant)
        return conditional._with_slope(s, a, variant, rep) if slope else rep

    def value(a):
        return report(a).value

    rep = report(alpha, slope=True)
    assert rep.value == pytest.approx(value(alpha), rel=1e-9, abs=1e-12)
    h = 1e-3 * alpha
    diff = [(value(alpha + t) - value(alpha - t)) / (2.0 * t) for t in (h, h / 2.0)]
    assert rep.slope == pytest.approx((4.0 * diff[1] - diff[0]) / 3.0, rel=1e-6, abs=1e-9)


def test_h_up_slope_is_tabulated():
    # a tabulated solve asked for its slope computes it once, then the table
    # answers both
    s = presets.zero_plus_source()
    rep = h_up(s, 2.0, "flat")
    assert rep.slope is None
    with_slope = h_up(s, 2.0, "flat", slope=True)
    assert with_slope.value == rep.value and with_slope.slope is not None
    assert h_up(s, 2.0, "flat") is with_slope


def test_exponent_family_reports_optimizer():
    s = presets.doubly_symmetric(0.11)
    curve = exponent_family(s, [0.2, 0.3, 0.4], "strong_converse_star")
    meta = curve.metadata
    assert meta["variant"] == "sandwiched"
    assert meta["h_up_solves"] > 0
    assert meta["cache_hits"] > 0
    assert meta["evaluations"] >= meta["h_up_solves"]
    # the exact gradient at each optimum
    assert 0.0 <= meta["residual"] < 1e-6
    petz = exponent_family(s, [0.6, 0.7], "random_coding").metadata
    assert petz["h_up_solves"] > 0
    assert petz["evaluations"] == 0 and petz["residual"] == 0.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(s=_sources, alpha=st.sampled_from((0.25, 0.5, 0.8, 1.3, 2.0, 3.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_family_ordering_on_random_sources(s, alpha, seed):
    # alpha > 1: flat <= sandwiched <= petz; alpha < 1: sandwiched <= petz
    # <= flat
    sigma = random_density(np.random.default_rng(seed), s.dim_b)
    d = {v: cq_renyi(s, sigma, alpha, v) for v in _VARIANTS}
    order = ("flat", "sandwiched", "petz") if alpha > 1.0 else ("sandwiched", "petz", "flat")
    for lo, hi in zip(order, order[1:]):
        assert d[lo] <= d[hi] + 1e-9, (lo, hi, d)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(s=_sources, kind=st.sampled_from(("random_coding_down", "random_coding",
                                         "sphere_packing")),
       points=st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3, unique=True))
def test_petz_exponents_nondecreasing_in_rate(s, kind, points):
    # rates spread around H(X|B), where the exponents leave zero
    h = conditional_entropy(s)
    rates = sorted(max(h + p, 0.0) for p in points)
    rates = [r for i, r in enumerate(rates) if i == 0 or r > rates[i - 1]]
    values = exponent_family(s, rates, kind).values
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-9 or math.isinf(hi), values
