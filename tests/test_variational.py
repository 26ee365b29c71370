"""Variational representations: objective bookkeeping, candidate family
normalization, and duality against the sup-over-s exponent forms."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cqsw import presets
from cqsw.conditional import conditional_entropy, h_up
from cqsw.errors import InvariantViolation, SupportViolationError
from cqsw.exponents import exponent
from cqsw.operators import random_density
from cqsw.states import marginal_b
from cqsw.variational import (
    DummyState,
    dummy_divergence,
    dummy_entropy,
    mo17_candidate,
    variational_minimize,
    variational_value,
)

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
    tau = h_up(s, 0.7, "flat", "iterate").sigma_star
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
