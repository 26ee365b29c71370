"""Source states: invariants, joint operators, products, serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest

from cqsw.errors import (
    CapExceededError,
    DimensionMismatchError,
    DomainError,
    InvariantViolation,
    ParseError,
)
from cqsw import presets
from cqsw.states import (
    CQState,
    DensityOperator,
    as_joint_operator,
    load_state,
    marginal_b,
    power_state,
    save_state,
    schur_weyl_blocks,
)

RNG = np.random.default_rng(7)


def test_density_operator_validation():
    with pytest.raises(InvariantViolation):
        DensityOperator(np.diag([0.7, 0.7]))  # trace 1.4
    DensityOperator(np.diag([0.5, 0.5]))


def test_cq_state_invariants():
    with pytest.raises(InvariantViolation):
        CQState(["a", "b"], [0.7, 0.7], [np.eye(2) / 2, np.eye(2) / 2])
    s = presets.doubly_symmetric(0.11)
    assert s.size_x == 2 and s.dim_b == 2
    assert len(s.blocks()) == 2


def test_joint_operator_block_structure():
    s = presets.doubly_symmetric(0.11)
    joint = as_joint_operator(s)
    assert joint.shape == (4, 4)
    assert abs(np.trace(joint).real - 1.0) < 1e-12
    # off-diagonal X blocks vanish
    assert np.allclose(joint[:2, 2:], 0)
    assert np.allclose(joint[2:, :2], 0)


def test_marginal_b():
    s = presets.zero_plus_source()
    rb = marginal_b(s).matrix
    expect = 0.5 * (np.diag([1.0, 0.0]) + np.ones((2, 2)) / 2)
    assert np.allclose(rb, expect, atol=1e-12)


def test_power_state_probabilities_and_order():
    s = presets.doubly_symmetric(0.11)
    s2 = power_state(s, 2)
    assert s2.size_x == 4
    assert abs(np.sum(s2.probs) - 1.0) < 1e-12
    # lexicographic: index 1 is (symbol 0, symbol 1)
    assert abs(s2.probs[1] - s.probs[0] * s.probs[1]) < 1e-15
    expect = np.kron(s.side_info[0].matrix, s.side_info[1].matrix)
    assert np.allclose(s2.side_info[1].matrix, expect, atol=1e-12)


def test_power_state_cap():
    s = presets.doubly_symmetric(0.11)
    with pytest.raises(CapExceededError):
        power_state(s, 8, cap=100)


def test_power_state_built_once_per_n_and_cap_checked_every_call():
    s = presets.doubly_symmetric(0.11)
    s2 = power_state(s, 2)
    assert power_state(s, 2) is s2
    assert power_state(s, 3) is not s2
    assert power_state(s, 1) is s
    with pytest.raises(CapExceededError):
        power_state(s, 2, cap=8)  # 2^2 * 2^2 = 16 > 8, memoised or not


@pytest.mark.parametrize("n", [2, 3])
def test_power_state_marginal_is_the_tensor_power(eig_count, n):
    # the sum over strings, validated, against the tensor power of the
    # validated single-copy marginal, which costs no eigendecomposition
    s = presets.random_cq_state(np.random.default_rng(n), 3, 2)
    marginal_b(s)
    sn = power_state(s, n)
    eig_count.clear()
    got = marginal_b(sn).matrix
    assert eig_count == []
    want = sum(p * r.matrix for p, r in zip(sn.probs, sn.side_info))
    assert np.allclose(got, want, atol=1e-15, rtol=0.0)


def test_save_load_roundtrip(tmp_path):
    s = presets.random_cq_state(RNG, 3, 2)
    path = tmp_path / "state.json"
    save_state(s, path)
    t = load_state(path)
    assert t == s  # bit-exact round trip


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"alphabet": ["a"], "probs": [1.0]}))
    with pytest.raises(ParseError):
        load_state(path)
    path.write_text("not json at all")
    with pytest.raises(ParseError):
        load_state(path)


def test_presets_are_valid():
    for s in (presets.zero_plus_source(), presets.perfect_side_info(),
              presets.no_side_info(), presets.doubly_symmetric(0.11),
              presets.random_cq_state(RNG, 2, 3),
              presets.random_commuting_state(RNG, 3, 2)):
        assert abs(float(np.sum(s.probs)) - 1.0) < 1e-9
        for r in s.side_info:
            w = np.linalg.eigvalsh(r.matrix)
            assert w[0] > -1e-10
            assert abs(np.trace(r.matrix).real - 1.0) < 1e-9


def test_random_commuting_state_is_diagonal():
    s = presets.random_commuting_state(RNG, 2, 3)
    for r in s.side_info:
        assert np.allclose(r.matrix, np.diag(np.diag(r.matrix)), atol=1e-14)


def test_type_classes_cover_power_state():
    from math import comb

    from cqsw.states import type_classes
    s = presets.random_cq_state(RNG, 3, 2)
    n = 3
    classes = type_classes(s, n)
    assert len(classes) == comb(n + 3 - 1, n)
    assert sum(m for m, _, _ in classes) == 3 ** n
    assert sum(m * p for m, p, _ in classes) == pytest.approx(1.0, abs=1e-12)
    # each representative is a block of the n-fold state, and its class
    # holds exactly `multiplicity` blocks with its probability and spectrum
    sn = power_state(s, n)
    for m, p, r in classes:
        spec = np.linalg.eigvalsh(r)
        members = [
            i for i, q in enumerate(sn.probs)
            if abs(q - p) <= 1e-15
            and np.allclose(np.linalg.eigvalsh(sn.side_info[i].matrix), spec,
                            atol=1e-12)
        ]
        assert len(members) == m
        assert any(np.allclose(sn.side_info[i].matrix, r, atol=1e-15)
                   for i in members)


def test_type_classes_skip_zero_symbols_and_keep_cap():
    from cqsw.states import type_classes
    s = CQState(["a", "b", "c"], [0.5, 0.0, 0.5],
                [np.eye(2) / 2, np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    classes = type_classes(s, 2)
    assert [m for m, _, _ in classes] == [1, 2, 1]
    with pytest.raises(CapExceededError):
        type_classes(s, 4, cap=100)


_RHO = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]


def _load_doc(tmp_path, **fields):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"alphabet": ["a"], "probs": [1.0], "dim_b": 2,
                                "rho": [_RHO], **fields}))
    return load_state(path)


@pytest.mark.parametrize("call, error", [
    (lambda tmp: schur_weyl_blocks(presets.random_cq_state(np.random.default_rng(1), 2, 3), 2),
     DimensionMismatchError),
    (lambda tmp: _load_doc(tmp, rho=[_RHO[:1]]), ParseError),
    (lambda tmp: _load_doc(tmp, rho=[[row[:1] for row in _RHO]]), ParseError),
    (lambda tmp: _load_doc(tmp, rho=[[[0.5, [0.0, 0.0]], _RHO[1]]]), ParseError),
    (lambda tmp: _load_doc(tmp, dim_b=0), ParseError),
    (lambda tmp: CQState(["a", "b"], [1.0], [np.eye(2) / 2] * 2), InvariantViolation),
    (lambda tmp: CQState(["a", "b"], [0.5, 0.5], [np.eye(2) / 2, np.eye(3) / 3]),
     DimensionMismatchError),
    (lambda tmp: CQState(["a", "b"], [1.5, -0.5], [np.eye(2) / 2] * 2), InvariantViolation),
    (lambda tmp: DensityOperator(np.diag([1.5, -0.5])), InvariantViolation),
    (lambda tmp: power_state(presets.doubly_symmetric(0.11), 0), DomainError),
], ids=["schur_weyl_qutrit", "load_row_count", "load_entry_count", "load_not_a_pair",
        "load_dim_b_zero", "lengths_disagree", "mixed_dimensions", "negative_probability",
        "negative_eigenvalue", "blocklength_zero"])
def test_invalid_input_raises_typed_error(tmp_path, call, error):
    with pytest.raises(error):
        call(tmp_path)
