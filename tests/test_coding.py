"""Coding simulation: POVM validity, Helstrom closed forms, brute-force
ground truth, binning statistics, and averaging identities."""

from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest

import cqsw.coding as coding
from cqsw import presets
from cqsw.coding import (
    BinningEncoder,
    Code,
    ErrorReport,
    dummy_state_inequality_check,
    empirical_exponents,
    error_probability,
    min_error_discrimination,
    optimal_error_bruteforce,
    pgm_decoder,
    random_binning,
)
from cqsw.errors import (
    CapExceededError,
    InvariantViolation,
    NonHermitianError,
    NoConvergenceError,
    POVMInvalidError,
)
from cqsw.operators import nonneg_projector, random_density
from cqsw.states import marginal_b, power_state
from cqsw.variational import DummyState
from test_type_classes import _source

RNG = np.random.default_rng(13)


def _three_state_ensemble(seed):
    """Three weighted random qubit states whose PGM does not certify."""
    rng = np.random.default_rng(seed)
    return [(w, random_density(rng, 2)) for w in rng.dirichlet(np.ones(3))]


def test_code_validation():
    with pytest.raises(POVMInvalidError):
        Code(1, 1, np.array([0, 0]), [{0: np.diag([0.5, 0.5])}])
    with pytest.raises(POVMInvalidError):
        Code(1, 1, np.array([0, 0]), [{0: np.diag([1.5, 1.0]),
                                       1: np.diag([-0.5, 0.0])}])
    with pytest.raises(InvariantViolation):
        Code(1, 2, np.array([0, 5]), [{0: np.eye(2)}, {0: np.eye(2)}])
    code = Code(2, 2, np.array([0, 1, 1, 0]),
                [{0: np.eye(4)}, {1: np.eye(4)}])
    assert code.rate == pytest.approx(0.5)


def test_error_report_invariant():
    with pytest.raises(InvariantViolation):
        ErrorReport(0.3, 0.8)


def test_error_probability_examples():
    s = presets.perfect_side_info()
    dec = [{0: np.diag([1.0, 0.0]), 1: np.diag([0.0, 1.0])}]
    code = Code(1, 1, np.array([0, 0]), dec)
    assert error_probability(s, 1, code).p_error == pytest.approx(0.0,
                                                                  abs=1e-12)
    # identity encoder with trivial decoders never errs
    code_id = Code(1, 2, np.array([0, 1]), [{0: np.eye(2)}, {1: np.eye(2)}])
    assert error_probability(presets.zero_plus_source(), 1,
                             code_id).p_error == pytest.approx(0.0, abs=1e-12)
    # indistinguishable states: any single-bin POVM errs at least half
    s2 = presets.no_side_info()
    for _ in range(5):
        a = RNG.uniform(0, 1)
        dec = [{0: np.diag([a, 1 - a]), 1: np.eye(2) - np.diag([a, 1 - a])}]
        code = Code(1, 1, np.array([0, 0]), dec)
        assert error_probability(s2, 1, code).p_error >= 0.5 - 1e-12


def test_random_binning_contracts():
    enc = random_binning(4, 1, 0)
    assert all(enc(i) == 0 for i in range(16))
    t1 = random_binning(4, 4, 5).table(256)
    t2 = random_binning(4, 4, 5).table(256)
    assert np.array_equal(t1, t2)
    t3 = random_binning(4, 4, 6).table(256)
    assert not np.array_equal(t1, t3)
    # occupancy within 4 standard deviations of the binomial
    counts = np.bincount(t1, minlength=4)
    sd = math.sqrt(256 * 0.25 * 0.75)
    assert np.all(np.abs(counts - 64) <= 4 * sd)


def test_binning_order_independent():
    enc = BinningEncoder(3, 3, 42)
    forward = [enc(i) for i in range(8)]
    backward = [enc(i) for i in reversed(range(8))]
    assert forward == backward[::-1]


def test_pgm_perfect_side_info():
    s = presets.perfect_side_info()
    code = pgm_decoder(s, 1, lambda i: 0, 1)
    assert error_probability(s, 1, code).p_error == pytest.approx(0.0,
                                                                  abs=1e-10)


def test_pgm_povm_is_complete():
    s = presets.doubly_symmetric(0.11)
    enc = random_binning(2, 2, 3)
    code = pgm_decoder(s, 2, enc, 2)  # Code.__post_init__ validates POVMs
    rep = error_probability(s, 2, code)
    assert 0.0 <= rep.p_error <= 1.0


def test_helstrom_closed_forms():
    _, s1 = min_error_discrimination([(1.0, np.eye(3) / 3)])
    assert s1 == pytest.approx(1.0)
    _, s2 = min_error_discrimination([(0.5, np.diag([1.0, 0.0])),
                                      (0.5, np.diag([0.0, 1.0]))])
    assert s2 == pytest.approx(1.0, abs=1e-12)
    k0 = np.diag([1.0, 0.0])
    kp = np.ones((2, 2)) / 2
    _, s3 = min_error_discrimination([(0.5, k0), (0.5, kp)])
    assert s3 == pytest.approx(0.5 * (1 + 1 / math.sqrt(2)), abs=1e-12)


def test_discrimination_fixed_point_certified():
    ens = [(1 / 3, random_density(RNG, 2)) for _ in range(3)]
    povm, succ = min_error_discrimination(ens)
    # certificate: Y = sum w rho Pi dominates every w rho
    y = sum(w * r @ p for (w, r), p in zip(ens, povm))
    y = (y + y.conj().T) / 2
    for w, r in ens:
        assert float(np.min(np.linalg.eigvalsh(y - w * r))) >= -1e-6
    # the pairwise Helstrom value upper bounds any three-way success
    assert succ <= 1.0 + 1e-12


def test_bruteforce_examples():
    rep, _ = optimal_error_bruteforce(presets.perfect_side_info(), 1, 1)
    assert rep.p_error == pytest.approx(0.0, abs=1e-10)
    rep, _ = optimal_error_bruteforce(presets.no_side_info(), 1, 1)
    assert rep.p_error == pytest.approx(0.5, abs=1e-10)
    rep, _ = optimal_error_bruteforce(presets.zero_plus_source(), 1, 1)
    assert rep.p_error == pytest.approx(0.5 * (1 - 1 / math.sqrt(2)),
                                        abs=1e-10)


def test_bruteforce_monotone_in_bins():
    s = presets.random_cq_state(RNG, 2, 2, full_rank=True)
    prev = 1.0
    for w in (1, 2):
        rep, _ = optimal_error_bruteforce(s, 1, w)
        assert rep.p_error <= prev + 1e-12
        prev = rep.p_error
    assert prev == pytest.approx(0.0, abs=1e-10)


def test_bruteforce_discriminates_each_bin_once(monkeypatch):
    # at n = 2, W = 3 the 14 canonical encoders have 33 nonempty bins but
    # only the 15 nonempty subsets of the 4 sequences as member sets; the
    # best code is the one found by solving every bin of every encoder
    s = presets.zero_plus_source()
    sn = power_state(s, 2)
    best = None
    for table in coding._canonical_encoders(sn.size_x, 3):
        succ = coding._optimal_bins(sn, table, 3, {})[1]
        if best is None or succ > best[0]:
            best = (succ, table)
    calls = []
    real = coding.min_error_discrimination

    def discriminate(ensemble):
        calls.append(len(ensemble))
        return real(ensemble)

    monkeypatch.setattr(coding, "min_error_discrimination", discriminate)
    rep, code = optimal_error_bruteforce(s, 2, 3)
    assert len(calls) == 15
    assert rep.p_success == min(best[0], 1.0)
    assert code.encoder.tolist() == list(best[1])


def test_bruteforce_cap():
    s = presets.doubly_symmetric(0.11)
    with pytest.raises(CapExceededError):
        optimal_error_bruteforce(s, 4, 8)


def test_encoder_average_identity():
    # averaging deterministic-encoder errors over all tables equals the
    # partition-weighted randomized-code error: the decoder only depends on
    # which symbols share a bin, so grouping tables by partition must give
    # the same average
    s = presets.doubly_symmetric(0.11)
    w = 2
    errs = {}
    for tbl in product(range(w), repeat=2):
        code = pgm_decoder(s, 1, lambda i, t=tbl: t[i], w)
        errs[tbl] = error_probability(s, 1, code).p_error
    direct = float(np.mean(list(errs.values())))
    # partition route: P(same bin) = 1/2, P(separate) = 1/2
    together = errs[(0, 0)]
    separate = errs[(0, 1)]
    assert errs[(1, 1)] == pytest.approx(together, abs=1e-12)
    assert errs[(1, 0)] == pytest.approx(separate, abs=1e-12)
    assert direct == pytest.approx(0.5 * together + 0.5 * separate,
                                   abs=1e-12)


def test_empirical_exponents_deterministic():
    s = presets.doubly_symmetric(0.11)
    a = empirical_exponents(s, 1, 0.8, "pgm", 4, 11)
    b = empirical_exponents(s, 1, 0.8, "pgm", 4, 11)
    assert a == b
    e_hat, _ = empirical_exponents(presets.perfect_side_info(), 1, 0.5,
                                   "pgm", 3, 1)
    assert math.isinf(e_hat)
    with pytest.raises(ValueError):
        empirical_exponents(s, 1, 0.5, "nonsense", 1, 0)


def test_dummy_state_inequality():
    s = presets.doubly_symmetric(0.11)
    _, code = optimal_error_bruteforce(s, 1, 1)
    same = DummyState(np.array(s.probs, dtype=float), list(s.side_info))
    assert dummy_state_inequality_check(s, same, code, 0.7)
    for a in (0.1, 1.0, 3.0):
        d = DummyState(RNG.dirichlet([1.0, 1.0]),
                       [random_density(RNG, 2) for _ in range(2)])
        assert dummy_state_inequality_check(s, d, code, a)


def test_discrimination_rejects_non_hermitian_member():
    # the strictly upper parts cancel in the sum of the members, and a
    # Cholesky factorization reads only the lower triangle, so without a
    # check of each member on entry this ensemble certifies unseen
    upper = np.array([[0.0, 0.2], [0.0, 0.0]])
    ens = [(0.475, np.diag([1.0, 0.0]) + upper),
           (0.475, np.diag([0.0, 1.0]) - upper), (0.05, np.ones((2, 2)) / 2)]
    with pytest.raises(NonHermitianError):
        min_error_discrimination(ens)
    with pytest.raises(NonHermitianError):
        min_error_discrimination(ens[:2])


def test_discrimination_failure_reports_last_gap(monkeypatch):
    monkeypatch.setattr(coding, "_FP_MAX_ITERS", 0)
    ens = _three_state_ensemble(0)
    with pytest.raises(NoConvergenceError) as err:
        min_error_discrimination(ens)
    diag = err.value.diagnostics
    assert diag["iterations"] == 0
    y = sum(w * r @ p for (w, r), p in zip(ens, diag["povm"]))
    y = (y + y.conj().T) / 2
    want = max(-float(np.min(np.linalg.eigvalsh(y - w * r))) for w, r in ens)
    assert diag["gap"] == pytest.approx(want, abs=1e-12)
    assert diag["gap"] > 1e-6


def test_certified_discrimination_makes_no_certificate_eig(monkeypatch, eig_count):
    # every eigendecomposition is the inverse square root of a fixed-point
    # step (or of the PGM's sum); the certificate is a Cholesky test
    steps = {"inv_sqrt": 0}
    orig = coding.inv_sqrt_on_support

    def counted(a):
        steps["inv_sqrt"] += 1
        return orig(a)
    monkeypatch.setattr(coding, "inv_sqrt_on_support", counted)
    ens = _three_state_ensemble(0)
    povm, _ = min_error_discrimination(ens)
    assert steps["inv_sqrt"] >= 2  # the PGM did not certify, so it iterated
    assert len(eig_count) == steps["inv_sqrt"]
    y = sum(w * r @ p for (w, r), p in zip(ens, povm))
    y = (y + y.conj().T) / 2
    for w, r in ens:
        assert float(np.min(np.linalg.eigvalsh(y - w * r))) > -1e-6


@pytest.mark.parametrize("s", [presets.zero_plus_source(),
                               presets.doubly_symmetric(0.11),
                               _source("zero_symbol", 3, 2, 5)],
                         ids=["zero_plus", "dsbs", "zero_symbol"])
def test_pgm_projectors_per_type_match_direct(s):
    assert s.size_x == 2 or np.any(s.probs == 0.0)
    for n in (1, 2, 3):
        sn = power_state(s, n)
        rho_b = marginal_b(sn).matrix
        for w_size in (1, 3):
            lambdas = coding._pgm_projectors(s, n, sn, w_size)
            assert len(lambdas) == sn.size_x
            for lam, p, r in zip(lambdas, sn.probs, sn.side_info):
                direct = nonneg_projector(p * r.matrix - rho_b / w_size)
                assert np.max(np.abs(lam - direct)) <= 1e-12


def test_second_pgm_decoder_makes_only_bin_eigs(eig_count):
    s = presets.zero_plus_source()
    n, w_size = 3, 4
    encoders = [random_binning(n, w_size, seed) for seed in (1, 2)]
    used = [len(set(enc.table(2 ** n))) for enc in encoders]
    eig_count.clear()  # the validation of the source's own blocks
    pgm_decoder(s, n, encoders[0], w_size)
    # the marginal, one projector per type class, one inverse square root
    # per nonempty bin
    assert len(eig_count) == 1 + (n + 1) + used[0]
    eig_count.clear()
    pgm_decoder(s, n, encoders[1], w_size)
    assert len(eig_count) == used[1]


def test_helstrom_makes_one_eig(eig_count):
    # the projector and the trace-norm cross-check share one
    # eigendecomposition of w0 rho0 - w1 rho1
    rho0, rho1 = random_density(np.random.default_rng(3), 3), random_density(np.random.default_rng(4), 3)
    eig_count.clear()
    (p0, p1), succ = min_error_discrimination([(0.4, rho0), (0.6, rho1)])
    assert len(eig_count) == 1
    diff = 0.4 * rho0 - 0.6 * rho1
    assert succ == pytest.approx(0.5 * (1.0 + np.sum(np.abs(np.linalg.eigvalsh(diff)))), abs=1e-12)
    assert np.allclose(p0 + p1, np.eye(3))
