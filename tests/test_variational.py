"""Variational representations: objective bookkeeping, candidate family
normalization, the exact gradients of the refinement's smooth programs, its
work and diagnostics, and duality against the sup-over-s exponent forms."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import cqsw.variational as variational
from cqsw import conditional, presets
from cqsw.conditional import conditional_entropy, h_up
from cqsw.errors import InvariantViolation, NoConvergenceError, SupportViolationError
from cqsw.exponents import exponent
from cqsw.operators import random_density
from cqsw.states import CQState, marginal_b
from cqsw.variational import (
    DummyState,
    dummy_divergence,
    dummy_entropy,
    mo17_candidate,
    variational_minimize,
    variational_value,
)
from test_optimizer import _central_difference
from test_type_classes import _source, _sources

RNG = np.random.default_rng(77)


def test_dummy_state_validation():
    with pytest.raises(InvariantViolation):
        DummyState(np.array([0.7, 0.7]), [np.eye(2) / 2, np.eye(2) / 2])
    s = presets.zero_plus_source()
    # dummy mass must stay inside the source block supports
    bad = DummyState(np.array([1.0, 0.0]), [np.eye(2) / 2, np.eye(2) / 2])
    with pytest.raises(SupportViolationError):
        bad.validate_against(s)


def test_dummy_equal_to_source_recovers_entropies():
    s = presets.random_cq_state(RNG, 2, 2, full_rank=True)
    d = DummyState(np.array(s.probs, dtype=float), list(s.side_info))
    assert dummy_divergence(s, d) == pytest.approx(0.0, abs=1e-10)
    assert dummy_entropy(s, d) == pytest.approx(conditional_entropy(s),
                                                abs=1e-9)


def test_variational_value_kinds():
    s = presets.random_cq_state(RNG, 2, 2, full_rank=True)
    d = DummyState(np.array(s.probs, dtype=float), list(s.side_info))
    h = conditional_entropy(s)
    r = h + 0.2
    # with the source itself: D = 0, entropy penalty only
    assert variational_value(s, r, "r", d) == pytest.approx(0.2, abs=1e-9)
    assert math.isinf(variational_value(s, r, "sp", d))
    assert variational_value(s, h - 0.1, "sc", d) == pytest.approx(0.1,
                                                                   abs=1e-9)


def test_mo17_candidate_is_valid_dummy():
    s = presets.random_cq_state(RNG, 2, 2, full_rank=True)
    tau = h_up(s, 0.7, "flat").sigma_star
    cand = mo17_candidate(s, 0.7, tau)
    cand.validate_against(s)
    assert abs(float(np.sum(cand.q)) - 1.0) < 1e-9
    # at alpha = 1 the candidate is the source itself
    cand1 = mo17_candidate(s, 1.0, marginal_b(s))
    assert np.allclose(cand1.q, s.probs, atol=1e-9)
    for a, b in zip(cand1.sigma, s.side_info):
        assert np.allclose(a.matrix, b.matrix, atol=1e-8)


@pytest.mark.parametrize("kind,ref_kind", [
    ("r", "random_coding"),
    ("sp", "sphere_packing"),
    ("sc", "strong_converse_flat"),
])
def test_duality_full_rank_state(kind, ref_kind):
    s = presets.random_cq_state(np.random.default_rng(5), 2, 2,
                                full_rank=True)
    h = conditional_entropy(s)
    r = h + 0.25 if kind != "sc" else h - 0.1
    val, dummy = variational_minimize(s, r, kind, restarts=1)
    dummy.validate_against(s)
    ref = exponent(s, r, ref_kind, variant="flat")
    assert val == pytest.approx(ref, abs=1e-4)


def test_sp_infinite_above_h0():
    s = presets.no_side_info()
    val, _ = variational_minimize(s, 1.5, "sp", restarts=1)
    assert math.isinf(val)


def test_dummy_divergence_support_violation_is_inf():
    s = presets.zero_plus_source()
    d = DummyState(np.array([0.5, 0.5]),
                   [np.eye(2) / 2, np.eye(2) / 2])
    assert math.isinf(dummy_divergence(s, d))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(s=_sources, kind=st.sampled_from(variational.VKINDS),
       offset=st.sampled_from((-0.2, 0.1, 0.3)), seed=st.integers(0, 2 ** 32 - 1))
@example(s=_source("deficient", 3, 3, 2), kind="sp", offset=0.1, seed=1)
@example(s=_source("deficient", 2, 3, 5), kind="r", offset=0.3, seed=2)
@example(s=_source("zero_symbol", 3, 2, 1), kind="sc", offset=-0.2, seed=3)
def test_program_gradients_match_central_differences(s, kind, offset, seed):
    layout = variational._layout(s)
    prog = variational._Program(s, conditional_entropy(s) + offset, kind, layout)
    rng = np.random.default_rng(seed)
    theta = 0.7 * rng.standard_normal(len(layout) - 1 + sum(len(tb) for *_, tb in layout))
    z = np.append(theta, rng.uniform(0.0, 0.5)) if prog.epigraph else theta
    assume(z.size)
    for fn in (prog.objective, prog.constraint):
        _, grad = fn(z)
        fd = _central_difference(lambda x: fn(x)[0], z)
        assert np.max(np.abs(grad - fd)) <= 1e-6 * max(1.0, float(np.max(np.abs(fd))))


def _counting_program_terms(monkeypatch):
    calls = []
    real = variational._program_terms

    def terms(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(variational, "_program_terms", terms)
    return calls


def test_sp_refinement_is_feasible_and_exact(monkeypatch):
    # the scan alone ends 1.57e-5 above the exponent here; the sp program
    # ends on H = R, where the solve's last iterate may fall a rounding
    # error short, and the result must still be finite (the first state of
    # test_a7_variational_duality)
    s = presets.random_cq_state(np.random.default_rng(47), 2, 2, full_rank=True)
    rate = conditional_entropy(s) + 0.1
    calls = _counting_program_terms(monkeypatch)
    val, dummy = variational_minimize(s, rate, "sp", restarts=1)
    assert math.isfinite(val)
    assert dummy_entropy(s, dummy) >= rate
    assert val == pytest.approx(exponent(s, rate, "sphere_packing", variant="flat"), abs=1e-8)
    assert 0 < len(calls) <= 60


def test_refinement_work_count(monkeypatch):
    # the coordinate-wise Nelder-Mead refinement evaluated its objective
    # 1,016 times here
    s = presets.doubly_symmetric(0.11)
    rate = conditional_entropy(s) + 0.15
    calls = _counting_program_terms(monkeypatch)
    val, _ = variational_minimize(s, rate, "r", restarts=1)
    assert val == pytest.approx(exponent(s, rate, "random_coding", variant="flat"), abs=1e-10)
    assert 0 < len(calls) <= 60


def test_disagreement_carries_solver_diagnostics(monkeypatch):
    # a scan that sees only sigma = rho stays far above the optimum the
    # program reaches, which aborts with the solve's report
    s = presets.doubly_symmetric(0.11)
    rate = conditional_entropy(s) + 0.15
    monkeypatch.setattr(variational, "mo17_candidate",
                        lambda s, alpha, tau: DummyState(s.probs, list(s.side_info)))
    with pytest.raises(NoConvergenceError) as err:
        variational_minimize(s, rate, "r", restarts=1)
    diag = err.value.diagnostics
    assert diag["scan"] - diag["refined"] > 1e-3
    assert diag["refined"] == pytest.approx(exponent(s, rate, "random_coding", variant="flat"),
                                            abs=1e-8)
    assert diag["status"] == 0 and isinstance(diag["message"], str)
    assert 0 < diag["iterations"] <= diag["evaluations"] <= 60
    assert 0.0 <= diag["kkt_residual"] < 1e-6


def _counting_solves(monkeypatch):
    calls = []
    real = conditional._iterate_h_up

    def iterate(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(conditional, "_iterate_h_up", iterate)
    return calls


@pytest.mark.parametrize("make", [presets.zero_plus_source, lambda: presets.doubly_symmetric(0.11)],
                         ids=["zero_plus", "dsbs"])
@pytest.mark.parametrize("kind", variational.VKINDS)
def test_seed_costs_no_solve_beyond_the_flat_search(monkeypatch, make, kind):
    # the seed is the candidate at the flat exponent's own alpha*, whose
    # search fills the state's table: on a fresh state the variational route
    # solves no more than that search, and after it nothing (a scan of 119
    # candidates per call made 110 solves on dsbs at the random-coding rate)
    h = conditional_entropy(make())
    rate = h - 0.05 if kind == "sc" else h + 0.05
    ref_kind = variational.FLAT_KIND[kind]
    solves = _counting_solves(monkeypatch)
    exponent(make(), rate, ref_kind, variant="flat")
    search = len(solves)
    assert search > 0
    s = make()
    del solves[:]
    val, _ = variational_minimize(s, rate, kind, restarts=1)
    assert len(solves) <= search
    del solves[:]
    ref = exponent(s, rate, ref_kind, variant="flat")
    assert variational_minimize(s, rate, kind, restarts=1)[0] == pytest.approx(val, abs=1e-12)
    assert len(solves) == 0
    # zero_plus's sc optimum lies beyond the alpha = 64 cap of the search
    assert val == pytest.approx(ref, abs=1e-8) or ref < val


def test_sp_seed_short_of_the_rate_is_refined(monkeypatch):
    # a candidate at alpha*(1 + 1e-4), just on the rho side of the saddle
    # point, falls short of H >= R, where the representation is +inf; the
    # refinement must still reach the feasible minimum
    s = presets.random_cq_state(np.random.default_rng(47), 2, 2, full_rank=True)
    rate = conditional_entropy(s) + 0.1
    real = variational.mo17_candidate
    seeds = []

    def pushed(s, alpha, tau):
        seeds.append(real(s, alpha * (1.0 + 1e-4), tau))
        return seeds[-1]

    monkeypatch.setattr(variational, "mo17_candidate", pushed)
    val, dummy = variational_minimize(s, rate, "sp", restarts=1)
    assert len(seeds) == 1 and dummy_entropy(s, seeds[0]) < rate
    assert math.isfinite(val)
    assert dummy_entropy(s, dummy) >= rate
    assert val == dummy_divergence(s, dummy)
    assert val == pytest.approx(exponent(s, rate, "sphere_packing", variant="flat"), abs=1e-8)


def test_sp_seed_nudged_off_alpha_star_refines_cheaply(monkeypatch):
    # a seed at alpha*(1 + 1e-8) sits a rounding error short of H >= R;
    # restoring H >= R before the solve, not only after it, keeps the
    # refinement's cost from depending on the last bits of alpha* (SLSQP
    # from the infeasible seed made 147 evaluations here)
    s = presets.random_cq_state(np.random.default_rng(47), 2, 2, full_rank=True)
    rate = conditional_entropy(s) + 0.1
    real = variational.mo17_candidate
    monkeypatch.setattr(variational, "mo17_candidate",
                        lambda s, alpha, tau: real(s, alpha * (1.0 + 1e-8), tau))
    calls = _counting_program_terms(monkeypatch)
    val, dummy = variational_minimize(s, rate, "sp", restarts=1)
    assert dummy_entropy(s, dummy) >= rate
    assert val == pytest.approx(exponent(s, rate, "sphere_packing", variant="flat"), abs=1e-8)
    assert 0 < len(calls) <= 60


def _source_dummy(s):
    return DummyState(np.array(s.probs, dtype=float), list(s.side_info))


@pytest.mark.parametrize("call, error", [
    (lambda s: variational_value(s, 0.5, "nonsense", _source_dummy(s)), ValueError),
    (lambda s: variational_minimize(s, 0.5, "nonsense", restarts=1), ValueError),
    (lambda s: DummyState(np.array([1.0]), [np.eye(2) / 2]).validate_against(s),
     InvariantViolation),
    (lambda s: DummyState(np.array([0.5, 0.5]), [np.eye(2) / 2] * 2).validate_against(
        CQState(["0", "1"], [1.0, 0.0], [np.eye(2) / 2] * 2)), SupportViolationError),
    # raw sigma_x matrices are validated: trace and positivity
    (lambda s: DummyState(np.array([0.5, 0.5]), [np.diag([1.5, 0.5]), np.diag([0.5, 0.5])]),
     InvariantViolation),
    (lambda s: DummyState(np.array([0.5, 0.5]), [np.diag([1.5, -0.5]), np.diag([0.5, 0.5])]),
     InvariantViolation),
], ids=["value_kind", "minimize_kind", "alphabet_size", "mass_on_zero_probability",
        "sigma_trace_two", "sigma_not_psd"])
def test_invalid_input_raises_typed_error(call, error):
    with pytest.raises(error):
        call(presets.doubly_symmetric(0.11))
