"""Acceptance suite: one test per criterion, each printing a single
pass/fail line with its pinned tolerance. Oracles are independent of the
implementation paths they check (closed forms, classical enumeration,
brute force, or a second optimization route)."""

from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest

from cqsw import presets
from cqsw.coding import (
    dummy_state_inequality_check,
    error_probability,
    optimal_error_bruteforce,
    pgm_decoder,
    random_binning,
)
from cqsw.conditional import (
    conditional_entropy,
    conditional_variance,
    h_down,
    h_up,
)
from cqsw.divergences import renyi_divergence
from cqsw.exponents import (
    e0,
    exponent,
    moderate_ratio,
    saddle_point,
    saddle_sigma_support_ok,
)
from cqsw.hypotest import hat_alpha, hypothesis_testing_divergence
from cqsw.operators import random_density, random_hermitian
from cqsw.states import as_joint_operator, marginal_b
from cqsw.variational import DummyState, variational_minimize


def _report(name: str, ok: bool, detail: str):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name} failed: {detail}"


def test_a1_derivative_identities():
    """E_0'(0) = -H(X|B) within 1e-4 and E_0''(0) = -V(X|B) within 1e-3,
    for E_0 and its down-arrow variant, on 20 random states."""
    rng = np.random.default_rng(42)
    h = 1e-4
    worst1 = worst2 = 0.0
    for k in range(20):
        size_x = int(rng.integers(2, 4))
        dim_b = int(rng.integers(2, 4))
        s = presets.random_cq_state(rng, size_x, dim_b, full_rank=True)
        hc = conditional_entropy(s)
        vc = conditional_variance(s)

        def deriv(f):
            def d1(step):
                return (f(step) - f(-step)) / (2.0 * step)

            def d2(step):
                return (f(step) - 2.0 * f(0.0) + f(-step)) / (step * step)

            first = (4.0 * d1(h / 2.0) - d1(h)) / 3.0
            second = (4.0 * d2(h / 2.0) - d2(h)) / 3.0
            return first, second

        d1, d2 = deriv(lambda sv: e0(s, sv))
        worst1 = max(worst1, abs(d1 + hc))
        worst2 = max(worst2, abs(d2 + vc))
        # down-arrow cumulant: -s times the lower conditional entropy
        d1, d2 = deriv(lambda sv: -sv * h_down(s, 1.0 - sv, "petz")
                       if sv != 0.0 else 0.0)
        worst1 = max(worst1, abs(d1 + hc))
        worst2 = max(worst2, abs(d2 + vc))
    ok = worst1 <= 1e-4 and worst2 <= 1e-3
    _report("A1 derivative identities",
            ok, f"slope dev {worst1:.2e} <= 1e-4, curvature dev "
                f"{worst2:.2e} <= 1e-3")


def test_a2_divergence_ordering():
    """Sandwiched <= petz <= flat for alpha < 1; flat <= sandwiched <= petz
    for alpha > 1; 50 random full-rank qubit pairs, slack 1e-10."""
    rng = np.random.default_rng(7)
    worst = -math.inf
    for _ in range(50):
        rho = random_density(rng, 2)
        sig = random_density(rng, 2)
        for alpha in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            ds = renyi_divergence(rho, sig, alpha, "sandwiched")
            dp = renyi_divergence(rho, sig, alpha, "petz")
            df = renyi_divergence(rho, sig, alpha, "flat")
            worst = max(worst, ds - dp, dp - df)
        for alpha in (1.5, 2.0, 4.0):
            ds = renyi_divergence(rho, sig, alpha, "sandwiched")
            dp = renyi_divergence(rho, sig, alpha, "petz")
            df = renyi_divergence(rho, sig, alpha, "flat")
            worst = max(worst, ds - dp, df - ds)
    ok = worst <= 1e-10
    _report("A2 divergence ordering", ok, f"worst violation {worst:.2e} <= 1e-10")


def test_a3_random_coding_bound():
    """Encoder-averaged pretty-good-measurement error is at most
    4 * 2^(-n E_r_down(R)), zero tolerance; exhaustive averaging at n = 1,
    at least 200 random encoders at n = 3."""
    sources = [presets.zero_plus_source(), presets.doubly_symmetric(0.11)]
    worst_margin = math.inf
    ok = True
    for s in sources:
        hc = conditional_entropy(s)
        for dr in (0.1, 0.3, 0.6):
            rate = hc + dr
            for n in (1, 2, 3):
                w = max(1, math.ceil(2.0 ** (n * rate)))
                size = s.size_x ** n
                errs = []
                if w ** size <= 4096:
                    for tbl in product(range(w), repeat=size):
                        code = pgm_decoder(s, n, lambda i, t=tbl: t[i], w)
                        errs.append(error_probability(s, n, code).p_error)
                else:
                    for t in range(200):
                        enc = random_binning(n, w, 90000 + t)
                        code = pgm_decoder(s, n, enc, w)
                        errs.append(error_probability(s, n, code).p_error)
                avg = float(np.mean(errs))
                bound = 4.0 * 2.0 ** (-n * exponent(s, rate,
                                                    "random_coding_down"))
                ok = ok and avg <= bound
                worst_margin = min(worst_margin, bound - avg)
    _report("A3 random coding bound", ok,
            f"smallest margin {worst_margin:.3e} >= 0, zero tolerance")


def test_a4_strong_converse_bound():
    """Every deterministic single-copy code with one bin obeys
    1 - P_e <= 2^(-E_sc_star(0)) + 1e-9; brute force is monotone in the
    number of bins."""
    rng = np.random.default_rng(11)
    worst = -math.inf
    mono_ok = True
    for s in (presets.zero_plus_source(), presets.doubly_symmetric(0.11),
              presets.random_cq_state(rng, 2, 2, full_rank=True)):
        bound = 2.0 ** (-exponent(s, 0.0, "strong_converse_star"))
        # every canonical encoder with one bin, optimal decoder
        rep, _ = optimal_error_bruteforce(s, 1, 1)
        worst = max(worst, (1.0 - rep.p_error) - bound)
        prev = 2.0
        for w in (1, 2):
            r, _ = optimal_error_bruteforce(s, 1, w)
            mono_ok = mono_ok and r.p_error <= prev + 1e-12
            prev = r.p_error
    ok = worst <= 1e-9 and mono_ok
    _report("A4 strong converse bound", ok,
            f"worst excess {worst:.2e} <= 1e-9, monotone {mono_ok}")


def test_a5_one_shot_converse():
    """Brute-force P*_e(1, log W) >= hat_alpha at budget W/|X| for every
    sampled reference state, slack 1e-9."""
    rng = np.random.default_rng(23)
    s = presets.random_cq_state(rng, 4, 2, full_rank=True)
    joint = as_joint_operator(s)
    rho_b = marginal_b(s).matrix
    worst = -math.inf
    for w_size in (2, 3):
        rep, _ = optimal_error_bruteforce(s, 1, w_size)
        sigmas = [rho_b, np.eye(2) / 2] + [random_density(rng, 2)
                                           for _ in range(10)]
        for sig in sigmas:
            tau = np.kron(np.eye(4) / 4, sig)
            bound = hat_alpha(joint, tau, w_size / 4)
            worst = max(worst, bound - rep.p_error)
    ok = worst <= 1e-9
    _report("A5 one-shot converse", ok, f"worst excess {worst:.2e} <= 1e-9")


def test_a6_saddle_point():
    """Sup-inf and inf-sup of the sphere-packing objective agree within
    1e-6 at 5 rates for 5 random states; the optimizer supports every
    source block."""
    rng = np.random.default_rng(31)
    worst = -math.inf
    support_ok = True
    for _ in range(5):
        s = presets.random_cq_state(rng, 2, 2, full_rank=True)
        h1 = conditional_entropy(s)
        h0 = h_up(s, 0.0, "petz").value
        for frac in (0.15, 0.3, 0.5, 0.7, 0.85):
            rep = saddle_point(s, h1 + frac * (h0 - h1))
            worst = max(worst, rep.gap)
            support_ok = support_ok and saddle_sigma_support_ok(s, rep)
    ok = worst <= 1e-6 and support_ok
    _report("A6 saddle point", ok,
            f"largest gap {worst:.2e} <= 1e-6, support {support_ok}")


def test_a7_variational_duality():
    """The minimum over auxiliary states agrees with the sup-over-s flat
    exponents within 1e-4 for the random-coding, sphere-packing and strong
    converse forms; 10 states, 3 rates each."""
    rng = np.random.default_rng(47)
    worst = -math.inf
    checked = 0
    for _ in range(10):
        s = presets.random_cq_state(rng, 2, 2, full_rank=True)
        hc = conditional_entropy(s)
        for kind, ref_kind, rates in (
            ("r", "random_coding", (hc + 0.1, hc + 0.25, hc + 0.4)),
            ("sp", "sphere_packing", (hc + 0.1, hc + 0.25, hc + 0.4)),
            ("sc", "strong_converse_flat",
             (max(hc - 0.15, 0.02), max(hc - 0.08, 0.01), hc + 0.1)),
        ):
            for rate in rates:
                ref = exponent(s, rate, ref_kind, variant="flat")
                val, _ = variational_minimize(s, rate, kind, restarts=1)
                checked += 1
                if math.isinf(ref) or math.isinf(val):
                    ok_pair = math.isinf(ref) == math.isinf(val)
                    worst = max(worst, 0.0 if ok_pair else math.inf)
                else:
                    worst = max(worst, abs(val - ref))
    ok = worst <= 1e-4
    _report("A7 variational duality", ok,
            f"largest gap {worst:.2e} <= 1e-4 over {checked} cases")


def test_a8_moderate_deviation_limit():
    """moderate_ratio(delta) * 2V approaches 1: within 5 percent at
    delta = 0.005 and monotone along delta in {0.05, 0.02, 0.01, 0.005}."""
    s = presets.doubly_symmetric(0.11)
    v = conditional_variance(s)
    ratios = [moderate_ratio(s, d) * 2.0 * v for d in (0.05, 0.02, 0.01,
                                                       0.005)]
    final_dev = abs(ratios[-1] - 1.0)
    devs = [abs(r - 1.0) for r in ratios]
    mono = all(b <= a + 1e-6 for a, b in zip(devs, devs[1:]))
    ok = final_dev <= 0.05 and mono
    _report("A8 moderate deviation limit", ok,
            f"|ratio*2V - 1| = {final_dev:.4f} <= 0.05, monotone {mono}")


def test_a9_neyman_pearson_exactness():
    """Self-testing identity to 1e-10; classical randomized-threshold
    oracle to 1e-10; no feasible random test beats the optimum."""
    rng = np.random.default_rng(61)
    worst = 0.0
    # identity
    rho = random_density(rng, 3)
    for eps in (0.0, 0.25, 0.5, 0.75):
        val, t = hypothesis_testing_divergence(rho, rho, eps)
        worst = max(worst, abs(val + math.log2(1.0 - eps)),
                    abs(t.type1 - eps))
    # classical oracle
    for _ in range(5):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        for eps in (0.1, 0.4, 0.8):
            val, t = hypothesis_testing_divergence(np.diag(p), np.diag(q),
                                                   eps)
            order = np.argsort(-p / q)
            acc, t2 = 0.0, 0.0
            for i in order:
                if acc + p[i] >= 1 - eps:
                    t2 += (1 - eps - acc) / p[i] * q[i]
                    break
                acc += p[i]
                t2 += q[i]
            worst = max(worst, abs(val + math.log2(t2)),
                        abs(t.type1 - eps))
    exact_ok = worst <= 1e-10
    # optimality against sampled feasible tests
    beat = 0
    for _ in range(20):
        rho = random_density(rng, 3)
        sig = random_density(rng, 3)
        eps = float(rng.uniform(0.05, 0.8))
        _, t = hypothesis_testing_divergence(rho, sig, eps)
        for _ in range(200):
            hmat = random_hermitian(rng, 3)
            w = np.linalg.eigvalsh(hmat)
            qop = (hmat - w[0] * np.eye(3)) / (w[-1] - w[0])
            if 1 - np.real(np.trace(qop @ rho)) <= eps:
                if np.real(np.trace(qop @ sig)) < t.type2 - 1e-9:
                    beat += 1
    ok = exact_ok and beat == 0
    _report("A9 Neyman-Pearson exactness", ok,
            f"worst dev {worst:.2e} <= 1e-10, feasible tests beating "
            f"optimum: {beat}")


def test_a10_classical_collapse():
    """On commuting sources all three variants of every exponent function
    agree within 1e-8 across a 20-point rate grid."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for s in (presets.doubly_symmetric(0.11),
              presets.random_commuting_state(rng, 2, 2)):
        h0 = h_up(s, 0.0, "petz").value
        rates = np.linspace(0.02, h0 + 0.3, 20)
        for kind in ("random_coding", "sphere_packing",
                     "strong_converse_star", "strong_converse_flat"):
            for r in rates:
                vals = [exponent(s, float(r), kind, variant=v)
                        for v in ("petz", "sandwiched", "flat")]
                finite = [v for v in vals if math.isfinite(v)]
                if len(finite) != len(vals):
                    if not all(math.isinf(v) for v in vals):
                        worst = max(worst, math.inf)
                    continue
                worst = max(worst, max(finite) - min(finite))
    ok = worst <= 1e-8
    _report("A10 classical collapse", ok, f"largest spread {worst:.2e} <= 1e-8")


def test_a11_dummy_state_inequality():
    """The success-probability comparison bound holds on 50 random
    (state, dummy, code, a) tuples with zero violations."""
    rng = np.random.default_rng(71)
    violations = 0
    for k in range(50):
        s = presets.random_cq_state(rng, 2, 2, full_rank=True)
        w_size = int(rng.integers(1, 3))
        _, code = optimal_error_bruteforce(s, 1, w_size)
        d = DummyState(rng.dirichlet([1.0, 1.0]),
                       [random_density(rng, 2) for _ in range(2)])
        a = float(rng.choice([0.1, 0.5, 1.0, 3.0]))
        if not dummy_state_inequality_check(s, d, code, a):
            violations += 1
    ok = violations == 0
    _report("A11 dummy state inequality", ok,
            f"{violations} violations out of 50 tuples")


def test_a12_strong_converse_every_blocklength():
    """Every blocklength-n code with W bins obeys
    1 - P*_e(n, W) <= 2^(-n E_sc_star(log2 W / n)) + 1e-9 (A4's slack), the
    optimal error P*_e by brute force: n <= 3 and W <= 2 on zero_plus and
    doubly_symmetric(0.11); on A4's random source W = 1 up to n = 3 and
    W = 2 up to n = 2."""
    rng = np.random.default_rng(11)
    cases = [(s, n, w) for s in (presets.zero_plus_source(),
                                 presets.doubly_symmetric(0.11))
             for n in (1, 2, 3) for w in (1, 2)]
    a4_source = presets.random_cq_state(rng, 2, 2, full_rank=True)
    cases += [(a4_source, n, 1) for n in (1, 2, 3)]
    cases += [(a4_source, n, 2) for n in (1, 2)]
    worst = -math.inf
    for s, n, w_size in cases:
        rate = math.log2(w_size) / n
        bound = 2.0 ** (-n * exponent(s, rate, "strong_converse_star"))
        rep, _ = optimal_error_bruteforce(s, n, w_size)
        worst = max(worst, (1.0 - rep.p_error) - bound)
    ok = worst <= 1e-9
    _report("A12 strong converse at every blocklength", ok,
            f"worst excess {worst:.2e} <= 1e-9 over {len(cases)} codes")
