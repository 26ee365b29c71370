"""Fixtures shared by the work-count tests."""

from __future__ import annotations

import sys

import pytest

import cqsw.operators as operators
from cqsw import presets
from cqsw.states import marginal_b


@pytest.fixture
def eig_count(monkeypatch):
    """Count calls of eig_hermitian from every cqsw module."""
    calls = []
    real = operators.eig_hermitian

    def eig(a):
        calls.append(1)
        return real(a)

    for name, mod in list(sys.modules.items()):
        if name.startswith("cqsw") and getattr(mod, "eig_hermitian", None) is real:
            monkeypatch.setattr(mod, "eig_hermitian", eig)
    return calls


@pytest.fixture
def warmed_zero_plus():
    """The zero_plus source with its block spectra and marginal computed."""
    s = presets.zero_plus_source()
    s.block_spectra()
    marginal_b(s)
    return s
