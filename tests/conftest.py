"""Fixtures shared by the work-count tests."""

from __future__ import annotations

import sys

import pytest

import cqsw.operators as operators
from cqsw import presets
from cqsw.states import marginal_b


@pytest.fixture
def eig_count(monkeypatch):
    """Count the eigendecompositions made from every cqsw module: one per
    eig_hermitian call, and one per matrix of an eig_hermitian_stack call."""
    calls = []
    real = operators.eig_hermitian
    real_stack = operators.eig_hermitian_stack

    def eig(a):
        calls.append(1)
        return real(a)

    def eig_stack(a):
        calls.extend([1] * len(a))
        return real_stack(a)

    for name, mod in list(sys.modules.items()):
        if not name.startswith("cqsw"):
            continue
        if getattr(mod, "eig_hermitian", None) is real:
            monkeypatch.setattr(mod, "eig_hermitian", eig)
        if getattr(mod, "eig_hermitian_stack", None) is real_stack:
            monkeypatch.setattr(mod, "eig_hermitian_stack", eig_stack)
    return calls


@pytest.fixture
def warmed_zero_plus():
    """The zero_plus source with its block spectra and marginal computed."""
    s = presets.zero_plus_source()
    s.block_spectra()
    marginal_b(s)
    return s
