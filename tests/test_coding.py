"""Coding simulation: POVM validity, Helstrom closed forms, brute-force
ground truth, binning statistics, averaging identities, and the decoders
that work in the span of a bin's members against their full-space
formulas."""

from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from cqsw.operators import inv_sqrt_on_support, nonneg_projector, random_density
from cqsw.states import CQState, marginal_b, power_state
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
    sn = power_state(presets.zero_plus_source(), 2)
    best = None
    for table in coding._canonical_encoders(sn.size_x, 3):
        sn._discriminations.clear()
        succ = coding._optimal_bins(sn, table, 3)[1]
        if best is None or succ > best[0]:
            best = (succ, table)
    calls = []
    real = coding.min_error_discrimination

    def discriminate(ensemble):
        calls.append(len(ensemble))
        return real(ensemble)

    monkeypatch.setattr(coding, "min_error_discrimination", discriminate)
    s = presets.zero_plus_source()
    rep, code = optimal_error_bruteforce(s, 2, 3)
    assert len(calls) == 15
    assert rep.p_success == min(best[0], 1.0)
    assert code.encoder.tolist() == list(best[1])
    # the solutions stay on the n-fold state: a second call, W = 2 (whose
    # bins are among the same 15 sets) and random binnings into 3 bins
    # with the optimal decoder discriminate nothing
    again = optimal_error_bruteforce(s, 2, 3)
    fewer = optimal_error_bruteforce(s, 2, 2)
    exponents = empirical_exponents(s, 2, 0.75, "optimal", 3, 5)
    assert len(calls) == 15
    fresh = [optimal_error_bruteforce(presets.zero_plus_source(), 2, w) for w in (3, 2)]
    assert exponents == empirical_exponents(presets.zero_plus_source(), 2, 0.75, "optimal", 3, 5)
    for (got_rep, got), (want_rep, want) in zip((again, fewer), fresh):
        assert got_rep.p_success == want_rep.p_success
        assert got.encoder.tolist() == want.encoder.tolist()
        for got_bin, want_bin in zip(got.decoder, want.decoder):
            assert got_bin.keys() == want_bin.keys()
            assert all(np.array_equal(got_bin[i], want_bin[i]) for i in got_bin)


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


def _isometry(rng, dim, rank):
    """(dim, rank) with orthonormal columns."""
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return np.linalg.qr(g)[0]


def test_certified_discrimination_makes_no_certificate_eig(monkeypatch, eig_count):
    # one eigendecomposition of the members' sum, dim x dim, gives the PGM;
    # then one inverse square root per fixed-point step, each r x r for r
    # the rank of the sum; the certificate is a Cholesky test. The qubit
    # ensemble placed in a 2-dimensional subspace of C^4 takes the same
    # steps
    steps = {"inv_sqrt": 0}
    orig = coding.inv_sqrt_on_support

    def counted(a):
        steps["inv_sqrt"] += 1
        return orig(a)
    monkeypatch.setattr(coding, "inv_sqrt_on_support", counted)
    qubit = _three_state_ensemble(0)
    iso = _isometry(np.random.default_rng(1), 4, 2)
    padded = [(w, iso @ r @ iso.conj().T) for w, r in qubit]
    taken = []
    for ens, dim in ((qubit, 2), (padded, 4)):
        steps["inv_sqrt"] = 0
        eig_count.clear()
        povm, _ = min_error_discrimination(ens)
        assert steps["inv_sqrt"] >= 2  # the PGM did not certify, so it iterated
        assert eig_count == [dim] + [2] * steps["inv_sqrt"]
        taken.append(steps["inv_sqrt"])
        y = sum(w * r @ p for (w, r), p in zip(ens, povm))
        y = (y + y.conj().T) / 2
        for w, r in ens:
            assert float(np.min(np.linalg.eigvalsh(y - w * r))) > -1e-6
    assert taken[0] == taken[1]


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
            factors = coding._pgm_factors(s, n, sn, w_size)
            assert len(factors) == sn.size_x
            for e, p, r in zip(factors, sn.probs, sn.side_info):
                direct = nonneg_projector(p * r.matrix - rho_b / w_size)
                assert np.max(np.abs(e @ e.conj().T - direct)) <= 1e-12
                assert np.allclose(e.conj().T @ e, np.eye(e.shape[1]), rtol=0.0, atol=1e-12)


def test_second_pgm_decoder_makes_only_bin_eigs(eig_count):
    s = presets.zero_plus_source()
    n, w_size = 3, 4
    encoders = [random_binning(n, w_size, seed) for seed in (1, 2)]
    eig_count.clear()  # the validation of the source's own blocks
    pgm_decoder(s, n, encoders[0], w_size)
    factors = coding._pgm_factors(s, n, power_state(s, n), w_size)

    def bin_eigs(enc):
        # one inverse square root per bin of two or more members, of the
        # Gram matrix of the bin's factors (its total rank, here at most
        # 2^n); a one-member bin is the identity
        table = enc.table(2 ** n)
        ranks = [[factors[i].shape[1] for i in range(2 ** n) if table[i] == w]
                 for w in range(w_size)]
        assert all(sum(r) <= 2 ** n for r in ranks)
        return [sum(r) for r in ranks if len(r) >= 2]

    # the marginal, one factor per type class, then the bins
    assert bin_eigs(encoders[0]) == [2, 4, 2]
    assert eig_count == [2 ** n] * (1 + (n + 1)) + bin_eigs(encoders[0])
    eig_count.clear()
    pgm_decoder(s, n, encoders[1], w_size)
    assert bin_eigs(encoders[1]) == [5, 2]
    assert eig_count == bin_eigs(encoders[1])


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


# ---- oracles: the dim x dim formulas the compressed routes replace ----------

def _full_space_discrimination(ens):
    """min_error_discrimination of three or more states as a damped fixed
    point on dim x dim operators, started from the PGM and stopped at the
    first iterate the Cholesky certificate accepts; also returns the
    iteration count."""
    dim = ens[0][1].shape[0]
    eye = np.eye(dim)
    weighted = [w * r for w, r in ens]

    def complete(mats):
        return [m + (eye - sum(mats)) / len(mats) for m in mats]

    def certified(povm):
        y = sum(g @ p for g, p in zip(weighted, povm))
        y = (y + y.conj().T) / 2.0
        try:
            for g in weighted:
                np.linalg.cholesky(y - g + coding._CERT_GAP * eye)
        except np.linalg.LinAlgError:
            return False
        return True

    half = inv_sqrt_on_support(sum(weighted))
    povm = complete([half @ g @ half for g in weighted])
    iterations = 0
    while not certified(povm) and iterations < coding._FP_MAX_ITERS:
        m = sum(g @ p @ g for g, p in zip(weighted, povm))
        half = inv_sqrt_on_support((m + m.conj().T) / 2.0)
        new = complete([half @ g @ p @ g @ half for g, p in zip(weighted, povm)])
        povm = [0.5 * (a + b) for a, b in zip(povm, new)]
        iterations += 1
    succ = sum(float(np.real(np.trace(p @ g))) for g, p in zip(weighted, povm))
    return povm, succ, iterations


def _full_space_pgm(s, table, w_size):
    """The PGM decoder of a single-letter code from the projectors
    Lambda_x and the inverse square root of their sum in each bin."""
    rho_b = marginal_b(s).matrix
    eye = np.eye(s.dim_b)
    lambdas = [nonneg_projector(p * r.matrix - rho_b / w_size)
               for p, r in zip(s.probs, s.side_info)]
    decoder = []
    for w in range(w_size):
        members = [i for i in range(s.size_x) if table[i] == w]
        if not members:
            decoder.append({0: eye})
            continue
        half = inv_sqrt_on_support(sum(lambdas[i] for i in members))
        povm = {i: half @ lambdas[i] @ half for i in members}
        povm[members[0]] = povm[members[0]] + eye - sum(povm.values())
        decoder.append(povm)
    return decoder


def _ensemble(dim, span, ranks, seed):
    """Weighted states of the given ranks, all supported on one random
    span-dimensional subspace of C^dim."""
    rng = np.random.default_rng(seed)
    iso = _isometry(rng, dim, span)
    weights = rng.dirichlet(np.ones(len(ranks)))
    return [(w, iso @ random_density(rng, span, min(r, span)) @ iso.conj().T)
            for w, r in zip(weights, ranks)]


def _assert_povms_close(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.max(np.abs(np.asarray(a) - b)) <= 1e-12


@st.composite
def _ensembles(draw):
    dim = draw(st.integers(2, 8))
    span = draw(st.integers(1, dim))
    ranks = draw(st.lists(st.integers(1, dim), min_size=3, max_size=4))
    return _ensemble(dim, span, ranks, draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(ens=_ensembles())
@example(ens=_ensemble(8, 8, [8, 8, 8], 1))
@example(ens=_ensemble(8, 3, [1, 2, 3, 1], 2))
@example(ens=_ensemble(6, 1, [1, 1, 1], 3))
@example(ens=_ensemble(4, 4, [1, 1, 1, 1], 4))
def test_compressed_discrimination_matches_full_space(ens):
    # rank-deficient sums (span < dim, or few low-rank members) and
    # full-rank ones: the compressed iteration takes the full-space
    # iteration's steps, and its lifted POVM certifies in the full space
    povm, succ = min_error_discrimination(ens)
    want_povm, want_succ, _ = _full_space_discrimination(ens)
    assert succ == pytest.approx(want_succ, abs=1e-12, rel=0.0)
    _assert_povms_close(povm, want_povm)
    dim = ens[0][1].shape[0]
    assert np.max(np.abs(sum(povm) - np.eye(dim))) <= coding._FP_RESIDUAL
    y = sum(w * r @ p for (w, r), p in zip(ens, povm))
    y = (y + y.conj().T) / 2
    for (w, r), p in zip(ens, povm):
        assert float(np.min(np.linalg.eigvalsh(p))) >= -1e-12
        assert float(np.min(np.linalg.eigvalsh(y - w * r))) >= -coding._CERT_GAP


def test_discrimination_failure_reports_full_space_povm(monkeypatch):
    # a qubit ensemble in a 2-dimensional subspace of C^4: the diagnostics
    # carry the lifted 4 x 4 PGM and the gap of the full-space certificate
    monkeypatch.setattr(coding, "_FP_MAX_ITERS", 0)
    iso = _isometry(np.random.default_rng(1), 4, 2)
    ens = [(w, iso @ r @ iso.conj().T) for w, r in _three_state_ensemble(0)]
    with pytest.raises(NoConvergenceError) as err:
        min_error_discrimination(ens)
    diag = err.value.diagnostics
    want_povm, want_succ, iterations = _full_space_discrimination(ens)
    assert diag["iterations"] == iterations == 0
    assert all(np.shape(p) == (4, 4) for p in diag["povm"])
    _assert_povms_close(diag["povm"], want_povm)
    assert diag["success"] == pytest.approx(want_succ, abs=1e-12, rel=0.0)
    y = sum(w * r @ p for (w, r), p in zip(ens, want_povm))
    y = (y + y.conj().T) / 2
    want = max(-float(np.min(np.linalg.eigvalsh(y - w * r))) for w, r in ens)
    assert diag["gap"] == pytest.approx(want, abs=1e-12)
    assert diag["gap"] > 1e-6


def _pgm_source(dim, ranks, seed):
    """A single-letter source with side information of the given ranks."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(len(ranks)))
    rhos = [random_density(rng, dim, min(r, dim)) for r in ranks]
    return CQState([str(i) for i in range(len(ranks))], probs, rhos)


@st.composite
def _pgm_codes(draw):
    dim = draw(st.integers(2, 8))
    ranks = draw(st.lists(st.integers(1, dim), min_size=2, max_size=6))
    w_size = draw(st.integers(1, 2 * len(ranks)))
    s = _pgm_source(dim, ranks, draw(st.integers(0, 2 ** 32 - 1)))
    return s, w_size, draw(st.integers(0, 2 ** 32 - 1))


def _check_pgm_against_full_space(s, w_size, bin_seed):
    """pgm_decoder against `_full_space_pgm`; returns, per bin of two or
    more members, (total rank of its factors, rank of their sum)."""
    enc = random_binning(1, w_size, bin_seed)
    code = pgm_decoder(s, 1, enc, w_size)
    want = _full_space_pgm(s, code.encoder, w_size)
    for got_bin, want_bin in zip(code.decoder, want):
        assert got_bin.keys() == want_bin.keys()
        _assert_povms_close([got_bin[i] for i in want_bin], list(want_bin.values()))
    got_succ = error_probability(s, 1, code).p_success
    want_succ = error_probability(s, 1, Code(1, w_size, code.encoder, want)).p_success
    assert got_succ == pytest.approx(want_succ, abs=1e-12, rel=0.0)
    factors = coding._pgm_factors(s, 1, s, w_size)
    shapes = []
    for w in range(w_size):
        members = [i for i in range(s.size_x) if code.encoder[i] == w]
        if len(members) >= 2:
            u = np.concatenate([factors[i] for i in members], axis=1)
            shapes.append((u.shape[1], int(np.linalg.matrix_rank(u, tol=1e-9))))
    return shapes


_PGM_CASES = [(4, [1, 1, 2], 3, 5), (8, [8, 8, 8, 8, 8], 1, 7), (5, [5, 4, 5, 3], 2, 5),
              (3, [3, 3, 3, 3], 8, 1), (2, [2, 2, 2, 2, 2, 2], 12, 0)]


def test_pgm_bins_take_both_routes():
    # the fixed cases cover bins whose factors have no more columns than
    # rows (Gram matrix, with a rank-deficient sum) and more (U U^dagger)
    shapes = []
    for dim, ranks, w_size, seed in _PGM_CASES:
        shapes += [(k, r, dim) for k, r in
                   _check_pgm_against_full_space(_pgm_source(dim, ranks, seed), w_size, seed)]
    assert any(k <= dim and r < dim for k, r, dim in shapes)
    assert any(k > dim for k, _, dim in shapes)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=_pgm_codes())
def test_pgm_decoder_matches_full_space(case):
    _check_pgm_against_full_space(*case)
