"""The three benchmark workloads: fixed, seeded lists of cqsw operations.

A workload is built once per process (the set-up that ``setup_s`` times):
its inputs are drawn from the workload seed and kept as numpy arrays. Before
every round the runner calls ``refresh`` on each input holder, which builds
fresh cqsw input objects from those arrays, untimed, so that nothing cqsw
caches on its inputs carries over from one round to the next. Each
operation is a call into a public cqsw function, timed on its own, followed
by an untimed check against ``reference`` (numpy and scipy only) or against
a property the method must have. A check raises
``CheckFailed``; the runner counts that, or any exception from the call, as a
failed operation under the operation's name.

Inputs that exercise a known fault are drawn from ``PINNED_SEED``, not from
the workload seed, so those operations fail the same way in every run.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import reference as ref
from cqsw import cli, coding, conditional, divergences, exponents, hypotest, presets, states, variational

PINNED_SEED = 20180320
EXPONENT_TOL = 1e-7   # closed-form exponents against the reference transform
OPTIMIZER_TOL = 1e-6  # sigma_B optimizer results against closed forms
VALUE_TOL = 1e-8      # single divergences and entropies

# Operations that fail on every run until the named fault is mended.
KNOWN_FAULTS = {
    "curve.strong_converse_flat.zero_plus":
        "flat family compresses sigma before its log on rank-deficient blocks: "
        "E_sc_flat stays positive above H(X|B)",
    "curve.sphere_packing.deficient_pinned":
        "petz h_up at alpha -> 0 overflows spectral_power(acc, 1/alpha) at alpha = 1e-3",
    "curve.sphere_packing.full_pinned":
        "petz h_up at alpha -> 0 overflows spectral_power(acc, 1/alpha) at alpha = 1e-3",
    "renyi_divergence.flat.near_one.rank1_pinned":
        "flat family compresses sigma before its log: D_alpha does not tend to D as alpha -> 1",
}


class CheckFailed(Exception):
    """An operation returned a wrong or inconsistent result."""


@dataclass
class Op:
    name: str                    # failures are counted under this name
    call: Callable[[], Any]
    check: Callable[[Any, dict], None]  # (result, results of this round by key)
    key: str = ""                # unique within the workload; defaults to name

    def __post_init__(self):
        self.key = self.key or self.name


def lazy(fn):
    """Evaluate a reference on first use, then reuse it in later rounds."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]
    return get


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def expect_close(label, got, want, tol):
    expect(math.isfinite(got) and abs(got - want) <= tol * max(1.0, abs(want)),
           f"{label}: got {got!r}, reference {want!r}")


@dataclass
class Source:
    """A cq source. ``state`` is the CQState cqsw gets, rebuilt by refresh."""
    name: str
    labels: list
    probs: np.ndarray
    rhos: list
    commuting: bool = False

    def __post_init__(self):
        self.refresh()
        self.h = ref.conditional_entropy(self.probs, self.rhos)
        if self.commuting:
            pxb = ref.classical_joint(self.probs, self.rhos)
            self.e0 = lambda s: ref.gallager_e0(pxb, s)
            self.e0_down = lambda s: ref.gallager_e0_down(pxb, s)
        else:
            self.e0 = lambda s: ref.sibson_e0(self.probs, self.rhos, s)
            self.e0_down = lambda s: ref.sibson_e0_down(self.probs, self.rhos, s)

    def refresh(self):
        self.state = states.CQState(self.labels, self.probs.copy(), [r.copy() for r in self.rhos],
                                    check=False)

    def ref_exponent(self, rate, kind):
        if kind == "random_coding_down":
            return ref.exponent(self.e0_down, rate, kind)
        if kind.startswith("strong_converse"):
            return ref.exponent(self.e0, rate, "strong_converse")
        return ref.exponent(self.e0, rate, kind)


def source(name, state, commuting=False):
    return Source(name, list(state.alphabet), np.asarray(state.probs, dtype=float),
                  [np.array(r.matrix) for r in state.side_info], commuting)


class Pair:
    """A (rho, sigma) input pair; cqsw gets fresh copies, made by refresh."""

    def __init__(self, rho, sigma):
        self.stored = (rho, sigma)
        self.refresh()

    def refresh(self):
        self.rho, self.sigma = (m.copy() for m in self.stored)


class Fresh:
    """A cqsw input object, rebuilt by make() on every refresh."""

    def __init__(self, make):
        self.make = make
        self.refresh()

    def refresh(self):
        self.value = self.make()


def ginibre_density(rng, d, rank):
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def _curve_shape(label, rates, values, h, increasing, tol):
    """Zero on the far side of H, monotone and convex in R, each within the
    accuracy tol of a single value."""
    for r, v in zip(rates, values):
        far = r <= h if increasing else r >= h
        if far:
            expect(abs(v) <= tol, f"{label}: {v!r} at R={r:.4f}, must be 0 (H={h:.4f})")
    d = np.diff(values) * (1.0 if increasing else -1.0)
    expect(bool(np.all(d >= -tol)), f"{label}: not monotone in R: {list(values)}")
    if len(rates) > 2:
        slopes = np.diff(values) / np.diff(rates)
        slack = 4.0 * tol / float(np.min(np.diff(rates)))
        expect(bool(np.all(np.diff(slopes) >= -slack)), f"{label}: not convex in R: {list(values)}")


# ---- curves ----------------------------------------------------------------

PETZ_KINDS = ("random_coding_down", "random_coding", "sphere_packing")


SPARSE_ABOVE = (0.05, 0.15, 0.3)
DENSE_ABOVE = tuple(0.025 * k for k in range(1, 13))  # H + 0.025 .. H + 0.3


def _petz_rates(h, above=SPARSE_ABOVE):
    """A far-side rate, where the exponent must be 0, then H + each of above."""
    far = h - 0.1 if h > 0.25 else 0.6 * h
    return [far] + [h + a for a in above]


def _check_curve(name, src, kind, rates, vals, refs, ctx, extra):
    """Values against the reference transform (or, for the sandwiched and
    flat families of a non-commuting source, not below the petz value, since
    petz <= sandwiched <= flat for alpha > 1), then the shape of the curve.
    The values are left in ctx for checks that compare curves."""
    tol = EXPONENT_TOL if kind in PETZ_KINDS else OPTIMIZER_TOL
    for r, v, want in zip(rates, vals, refs):
        if kind in PETZ_KINDS or src.commuting:
            expect_close(f"{name} R={r:.4f}", float(v), want, tol)
        else:
            expect(v >= want - tol, f"{name} R={r:.4f}: {v!r} below the petz value {want!r}")
    _curve_shape(name, rates, vals, src.h, not kind.startswith("strong_converse"), tol)
    ctx[f"values:{kind}.{src.name}"] = dict(zip(rates, vals))
    if extra:
        extra(dict(zip(rates, vals)), ctx)


def _curve_op(src, kind, rates, extra=None):
    """One exponent_family call over all rates."""
    rates = np.asarray(rates, dtype=float)
    refs = lazy(lambda: [src.ref_exponent(r, kind) for r in rates])
    name = f"curve.{kind}.{src.name}"

    def check(curve, ctx):
        vals = np.asarray(curve.values, dtype=float)
        expect(vals.shape == rates.shape, f"{name}: {vals.shape} values for {rates.shape} rates")
        _check_curve(name, src, kind, rates, vals, refs(), ctx, extra)

    return Op(name, lambda: exponents.exponent_family(src.state, rates, kind), check)


def _not_below(kind, src_name, label):
    """The curve is nowhere below the other kind's curve at a common rate."""
    def extra(vals, ctx):
        lower = ctx.get(f"values:{kind}.{src_name}", {})
        for r in vals.keys() & lower.keys():
            expect(vals[r] >= lower[r] - OPTIMIZER_TOL,
                   f"{label} at R={r:.4f}: {vals[r]!r} below {kind} {lower[r]!r}")
    return extra


def _curves_for(src, star_rates, flat_rates, sp_rates=None, above=SPARSE_ABOVE):
    """exponent_family for the five kinds on one source (a strong-converse
    kind without rates is skipped)."""
    ops = []
    for kind in PETZ_KINDS:
        rates = _petz_rates(src.h, above)
        extra = None
        if kind == "sphere_packing":
            if sp_rates is not None:
                rates = sp_rates
            else:
                extra = _not_below("random_coding", src.name, "E_sp >= E_r")
        ops.append(_curve_op(src, kind, rates, extra))
    if star_rates:
        ops.append(_curve_op(src, "strong_converse_star", star_rates))
    ops.append(_curve_op(src, "strong_converse_flat", flat_rates,
                         _not_below("strong_converse_star", src.name, "E_sc_flat >= E_sc_star")))
    return ops


def _saddle_op(src, rate):
    s_star = lazy(lambda: ref.argmax_s(src.e0, rate, "sphere_packing"))
    want = lazy(lambda: src.ref_exponent(rate, "sphere_packing"))

    def check(rep, ctx):
        expect(rep.gap <= 1e-6, f"saddle gap {rep.gap!r} > 1e-6")
        expect_close("saddle value", rep.value, want(), EXPONENT_TOL)
        expect_close("alpha*", rep.alpha_star, 1.0 / (1.0 + s_star()), 1e-4)

    return Op(f"saddle_point.{src.name}", lambda: exponents.saddle_point(src.state, rate), check)


def _critical_op(src):
    want = lazy(lambda: -ref.slope(src.e0, 1.0))
    return Op(f"critical_rate.{src.name}", lambda: exponents.critical_rate(src.state),
              lambda got, ctx: expect_close("critical rate", got, want(), 1e-6))


def _variational_op(src, rate, vkind):
    """Duality: the minimum over auxiliary states equals the flat exponent,
    which on a commuting source is the classical closed form."""
    kind = {"r": "random_coding", "sp": "sphere_packing", "sc": "strong_converse_flat"}[vkind]
    want = lazy(lambda: src.ref_exponent(rate, kind))
    return Op(f"variational_minimize.{vkind}.{src.name}",
              lambda: variational.variational_minimize(src.state, rate, vkind, restarts=1)[0],
              lambda got, ctx: expect_close(f"variational {vkind} R={rate:.4f}", got, want(), 1e-4))


def _cli_exponents_op(src, path, out, rate_min, rate_max, steps):
    rates = np.linspace(rate_min, rate_max, steps)
    kinds = ("random_coding_down", "random_coding", "sphere_packing",
             "strong_converse_star", "strong_converse_flat")
    refs = lazy(lambda: [[src.ref_exponent(r, k) for k in kinds] for r in rates])
    h0 = lazy(lambda: ref.h0_petz(src.probs, src.rhos))

    def call():
        code = cli.main(["exponents", "--state", path, "--rate-min", repr(rate_min),
                         "--rate-max", repr(rate_max), "--steps", str(steps), "--out", out])
        with open(out, encoding="utf-8") as fh:
            return code, fh.read()

    def check(res, ctx):
        code, text = res
        expect(code == 0, f"exit code {code}")
        lines = text.strip().split("\n")
        expect(lines[0] == "R,E_r_down,E_r,E_sp,E_sc_star,E_sc_flat,alpha_star",
               f"header {lines[0]!r}")
        expect(len(lines) == steps + 1, f"{len(lines) - 1} rows for {steps} rates")
        for r, line, want in zip(rates, lines[1:], refs()):
            row = [float(x) for x in line.split(",")]
            expect_close("R", row[0], r, 1e-15)
            for k, got, w in zip(kinds, row[1:6], want):
                expect_close(f"cli {k} R={r:.4f}", got, w, OPTIMIZER_TOL)
            if src.h < r < h0():
                s_star = ref.argmax_s(src.e0, r, "sphere_packing")
                expect_close(f"cli alpha* R={r:.4f}", row[6], 1.0 / (1.0 + s_star), 1e-4)
            else:
                expect(math.isnan(row[6]), f"alpha* {row[6]!r} outside the window")

    return Op("cli.exponents", call, check)


def build_curves(seed, workdir):
    rng = np.random.default_rng(seed)
    pinned = np.random.default_rng(PINNED_SEED)
    zp = source("zero_plus", presets.zero_plus_source())
    ds = source("dsbs", presets.doubly_symmetric(0.11), commuting=True)
    full = source("full", presets.random_cq_state(rng, 3, 2))
    deficient = source("deficient", presets.random_cq_state(rng, 3, 3, full_rank=False))
    deficient_pinned = source("deficient_pinned",
                              presets.random_cq_state(pinned, 3, 3, full_rank=False))
    full_pinned = source("full_pinned", presets.random_cq_state(pinned, 3, 2))
    path = os.path.join(workdir, "dsbs.json")
    states.save_state(ds.state, path)

    # A strong-converse point costs 1-2.5 s on a non-commuting source, and a
    # round must stay short enough to repeat two or three times in a run. So
    # zero_plus gets one rate below H for each family (its flat curve adds
    # the far-side point that shows fault 1), the seeded source gets one flat
    # point, and the cheap commuting source carries the three-rate curves
    # whose shape is checked. The petz-based curves of the two preset
    # sources are dense (thirteen rates, 80-150 ms each), those of the
    # seeded sources sparse (four rates), so that the operations whose cost
    # varies with the seed sit apart from the median operation.
    ops = []
    ops += _curves_for(zp, [0.08], [0.08, 0.5], above=DENSE_ABOVE)
    ops += _curves_for(ds, [0.25, 0.4, 0.6], [0.25, 0.4, 0.6], above=DENSE_ABOVE)
    # The sphere-packing curve above H needs H_0, whose alpha -> 0 limit
    # overflows for every full-rank three-symbol source; the seeded source
    # keeps its far-side points and the pinned one carries the fault.
    ops += _curves_for(full, [], [0.6 * full.h], sp_rates=[0.5 * full.h, 0.8 * full.h])
    for kind in ("random_coding_down", "random_coding"):
        ops.append(_curve_op(deficient, kind, _petz_rates(deficient.h)))
    ops.append(_curve_op(deficient, "sphere_packing", [0.5 * deficient.h, 0.8 * deficient.h]))
    for src in (deficient_pinned, full_pinned):
        ops.append(_curve_op(src, "sphere_packing", [src.h + 0.05, src.h + 0.15]))
    # saddle_point on doubly_symmetric runs inside the CLI command
    ops += [_saddle_op(zp, 0.6), _critical_op(zp), _critical_op(ds)]
    ops.append(_variational_op(ds, ds.h + 0.15, "r"))
    ops.append(_cli_exponents_op(ds, path, os.path.join(workdir, "curve.csv"), 0.3, 0.7, 2))
    return ops, [zp, ds, full, deficient, deficient_pinned, full_pinned]


# ---- blocklength -----------------------------------------------------------

EPSILONS = (0.05, 0.1, 0.2)
SPLIT = 0.5  # rate_window's alpha: the upper endpoint tests at SPLIT * eps


def _window_reference(src, n, eps):
    """(lower, upper) rate window from the dual Neyman-Pearson program, or
    from sorted likelihood ratios on a commuting source."""
    if src.commuting:
        pxb = ref.classical_joint(src.probs, src.rhos)
        p_n = np.ones((1, 1))
        for _ in range(n):
            p_n = np.kron(p_n, pxb)
        q_n = np.broadcast_to(p_n.sum(axis=0), p_n.shape)

        def beta(e):
            return ref.classical_np_beta(p_n, q_n, e)
    else:
        ws, ms = ref.nfold(src.probs, src.rhos, n)
        rho_b = sum(w * m for w, m in zip(ws, ms))
        blocks = [(w * m, rho_b) for w, m in zip(ws, ms)]

        def beta(e):
            return ref.np_beta(blocks, e)
    penalty = math.log2(8.0 / ((1.0 - SPLIT) ** 2 * eps))
    return math.log2(beta(eps)) / n, (math.log2(beta(SPLIT * eps)) + penalty) / n


def _window_check(src, n, eps, refs):
    """Reference endpoints plus the one-shot Renyi sandwich of D_H^eps:
    n D_b - b/(1-b) log(1/eps) <= D_H^eps <= n D~_a + a/(a-1) log(1/(1-eps))."""
    b, a = 0.5, 2.0
    bounds = lazy(lambda: (-ref.h_down(src.probs, src.rhos, b, "petz"),
                           -ref.h_down(src.probs, src.rhos, a, "sandwiched")))
    tol = 1e-11 if src.commuting else 1e-8

    def check(window, ctx):
        lower, upper = window
        want_lo, want_hi = refs()
        expect_close(f"lower n={n} eps={eps}", lower, want_lo, tol)
        expect_close(f"upper n={n} eps={eps}", upper, want_hi, tol)
        d_petz, d_sandwiched = bounds()
        dh = -n * lower
        lo = n * d_petz - b / (1.0 - b) * math.log2(1.0 / eps)
        hi = n * d_sandwiched + a / (a - 1.0) * math.log2(1.0 / (1.0 - eps))
        expect(lo - 1e-9 <= dh <= hi + 1e-9, f"D_H {dh!r} outside [{lo!r}, {hi!r}]")
    return check


def _window_op(src, n, eps):
    refs = lazy(lambda: _window_reference(src, n, eps))
    return Op(f"rate_window.{src.name}.n{n}",
              lambda: hypotest.rate_window(src.state, n, eps, SPLIT),
              _window_check(src, n, eps, refs), key=f"rate_window.{src.name}.n{n}.eps{eps}")


def optimal_code(state, n, encoder, w_size):
    """Binning encoder with the optimal discrimination measurement per bin."""
    sn = states.power_state(state, n)
    table = encoder.table(sn.size_x)
    decoder = []
    for w in range(w_size):
        members = [i for i in range(sn.size_x) if table[i] == w]
        if not members:
            decoder.append({0: np.eye(sn.dim_b)})
            continue
        povm, _ = coding.min_error_discrimination(
            [(sn.probs[i], sn.side_info[i].matrix) for i in members])
        decoder.append(dict(zip(members, povm)))
    return coding.Code(n, w_size, table, decoder)


def _code_ops(src, n, w_size, bin_seeds, inputs):
    """Random-binning code trials at blocklength n: one operation scores the
    PGM decoders of every seeded binning, one the per-bin optimal decoders.
    Summing over several binnings keeps each operation's cost from swinging
    with one binning's shape."""
    encoders = [Fresh(lambda b=b: coding.random_binning(n, w_size, b)) for b in bin_seeds]
    inputs += encoders

    def scored(build):
        def call():
            codes = [build(enc.value) for enc in encoders]
            return [(code, coding.error_probability(src.state, n, code)) for code in codes]
        return call

    def check_with(pgm_key):
        def check(trials, ctx):
            pgm = ctx.get(pgm_key) if pgm_key else None
            for k, (code, rep) in enumerate(trials):
                want = ref.code_success(src.probs, src.rhos, n, code.encoder, code.decoder)
                expect_close(f"success, binning {k}", rep.p_success, want, 1e-10)
                expect(abs(rep.p_error + rep.p_success - 1.0) <= 1e-12, "p_error + p_success != 1")
                if pgm is not None:
                    expect(rep.p_error <= pgm[k][1].p_error + 1e-9,
                           f"optimal {rep.p_error!r} above PGM {pgm[k][1].p_error!r}, binning {k}")
        return check

    pgm_key = f"code.pgm.n{n}"
    return [
        Op(pgm_key, scored(lambda enc: coding.pgm_decoder(src.state, n, enc, w_size)),
           check_with(None)),
        Op(f"code.optimal.n{n}", scored(lambda enc: optimal_code(src.state, n, enc, w_size)),
           check_with(pgm_key)),
    ]


def _bruteforce_op(src, n, w_size, trial_keys=(), more_bins_key=None):
    """The optimum is at most the error of every code tried with as many
    bins, and at least the optimum with more bins."""
    def check(res, ctx):
        code, rep = res
        want = ref.code_success(src.probs, src.rhos, n, code.encoder, code.decoder)
        expect_close("success", rep.p_success, want, 1e-10)
        for key in trial_keys:
            for _, other in ctx.get(key, ()):
                expect(rep.p_error <= other.p_error + 1e-9,
                       f"brute force {rep.p_error!r} above {key} {other.p_error!r}")
        more = ctx.get(more_bins_key)
        if more is not None:
            expect(rep.p_error >= more[1].p_error - 1e-9,
                   f"brute force {rep.p_error!r} below {more_bins_key} {more[1].p_error!r}")

    def call():
        rep, code = coding.optimal_error_bruteforce(src.state, n, w_size)
        return code, rep

    return Op(f"optimal_error_bruteforce.n{n}.w{w_size}", call, check)


def _converse_op(src, w_size):
    sigma_b = ref.marginal_b(src.probs, src.rhos)
    size = len(src.probs)
    blocks = [(p * np.asarray(r), sigma_b / size) for p, r in zip(src.probs, src.rhos)]
    want = lazy(lambda: -math.log2(ref.hat_alpha(blocks, w_size / size)))
    return Op("one_shot_converse", lambda: hypotest.one_shot_converse(src.state, w_size, sigma_b),
              lambda got, ctx: expect_close(f"converse w={w_size}", got, want(), 1e-8),
              key=f"one_shot_converse.w{w_size}")


def _read_kv(path):
    with open(path, encoding="utf-8") as fh:
        return dict(line.split(" ", 1) for line in fh.read().strip().split("\n"))


def _cli_window_op(src, path, out, n, eps):
    refs = lazy(lambda: _window_reference(src, n, eps))

    def call():
        code = cli.main(["rate-window", "--state", path, "--n", str(n), "--epsilon", repr(eps),
                         "--alpha", repr(SPLIT), "--out", out])
        return code, _read_kv(out)

    def check(res, ctx):
        code, kv = res
        expect(code == 0, f"exit code {code}")
        want_lo, want_hi = refs()
        expect_close("cli lower", float(kv["lower"]), want_lo, 1e-8)
        expect_close("cli upper", float(kv["upper"]), want_hi, 1e-8)

    return Op("cli.rate_window", call, check)


def _cli_simulate_op(path, out, n, rate, trials, sim_seed):
    def call():
        code = cli.main(["simulate", "--state", path, "--n", str(n), "--rate", repr(rate),
                         "--trials", str(trials), "--seed", str(sim_seed), "--out", out])
        return code, _read_kv(out)

    def check(res, ctx):
        code, kv = res
        expect(code == 0, f"exit code {code}")
        e_hat, sc_hat = float(kv["error_exponent"]), float(kv["success_exponent"])
        expect(0.0 < e_hat < math.inf and 0.0 <= sc_hat < math.inf,
               f"exponents {e_hat!r}, {sc_hat!r}")
        # average error and average success of the same codes sum to one
        total = 2.0 ** (-n * e_hat) + 2.0 ** (-n * sc_hat)
        expect(abs(total - 1.0) <= 1e-9, f"error + success = {total!r}")

    return Op("cli.simulate", call, check)


def build_blocklength(seed, workdir):
    rng = np.random.default_rng(seed)
    zp = source("zero_plus", presets.zero_plus_source())
    ds = source("dsbs", presets.doubly_symmetric(0.11), commuting=True)
    converse_src = source("random4", presets.random_cq_state(rng, 4, 2))
    bin_seeds = [int(x) for x in rng.integers(0, 2 ** 31, size=6)]  # three per blocklength
    sim_seed = int(rng.integers(0, 2 ** 31))
    path = os.path.join(workdir, "zero_plus.json")
    states.save_state(zp.state, path)

    # Every eps up to n = 2 on zero_plus and n = 4 on doubly_symmetric; the
    # largest n, at 2.9 s and 0.9 s a window, only at eps = 0.1. The median
    # operation is then one of the three doubly_symmetric windows at n = 3,
    # of near-equal cost and independent of the seed.
    ops = [_window_op(zp, n, eps) for n in (1, 2) for eps in EPSILONS]
    ops.append(_window_op(zp, 3, 0.1))
    ops += [_window_op(ds, n, eps) for n in (1, 2, 3, 4) for eps in EPSILONS]
    ops.append(_window_op(ds, 5, 0.1))
    inputs = [zp, ds, converse_src]
    trials_n2 = _code_ops(zp, 2, 3, bin_seeds[0::2], inputs)
    ops += trials_n2 + _code_ops(zp, 3, 4, bin_seeds[1::2], inputs)
    ops.append(_bruteforce_op(zp, 2, 3, [op.key for op in trials_n2]))
    ops.append(_bruteforce_op(zp, 2, 2, more_bins_key="optimal_error_bruteforce.n2.w3"))
    ops += [_converse_op(converse_src, w) for w in (1, 2, 3)]
    ops.append(_cli_window_op(zp, path, os.path.join(workdir, "window.txt"), 2, 0.1))
    ops.append(_cli_simulate_op(path, os.path.join(workdir, "simulate.txt"), 3, 0.6, 3, sim_seed))
    return ops, inputs


# ---- pointwise -------------------------------------------------------------

FAMILIES = ("petz", "sandwiched", "flat")
ALPHAS = (0.5, 2.0)
NEAR_ONE = 1e-3
# Eight pairs and four sources per dimension: enough random inputs that the
# sum over them varies little from seed to seed.
PAIRS_PER_DIM = 8


def _renyi_op(pair, alpha, family, name, key):
    want = lazy(lambda: ref.renyi_divergence(*pair.stored, alpha, family))
    return Op(name, lambda: divergences.renyi_divergence(pair.rho, pair.sigma, alpha, family),
              lambda got, ctx: expect_close(f"{family} D_{alpha}", got, want(), VALUE_TOL), key=key)


def _near_one_op(pair, alpha, family, name, key):
    """D_alpha at alpha = 1 +- 1e-3 agrees with its reference and lies within
    the first-order distance of D, whose slope at alpha = 1 is (ln 2 / 2) V."""
    rho, sigma = pair.stored
    want = lazy(lambda: ref.renyi_divergence(rho, sigma, alpha, family))
    d = lazy(lambda: ref.relative_entropy(rho, sigma))
    var_bits = lazy(lambda: ref.relative_entropy_variance(rho, sigma) / ref.LN2)

    def check(got, ctx):
        expect_close(f"{family} D_{alpha}", got, want(), VALUE_TOL)
        expect(abs(got - d()) <= NEAR_ONE * (var_bits() + 1.0),
               f"{family} D_{alpha} = {got!r} far from D = {d()!r}")

    return Op(name, lambda: divergences.renyi_divergence(pair.rho, pair.sigma, alpha, family),
              check, key=key)


def _pair_ops(pair, full_rank, tag):
    rho, sigma = pair.stored
    ops = []
    for family in FAMILIES:
        if family == "flat" and not full_rank:
            continue  # covered by the pinned rank-deficient operation
        for alpha in ALPHAS:
            ops.append(_renyi_op(pair, alpha, family, f"renyi_divergence.{family}",
                                 f"{tag}.{family}.{alpha}"))
        for alpha in (1.0 - NEAR_ONE, 1.0 + NEAR_ONE):
            ops.append(_near_one_op(pair, alpha, family, f"renyi_divergence.{family}.near_one",
                                    f"{tag}.{family}.{alpha}"))
    d = lazy(lambda: ref.relative_entropy(rho, sigma))
    v = lazy(lambda: ref.relative_entropy_variance(rho, sigma))
    dm = lazy(lambda: ref.d_max(rho, sigma))
    dh = lazy(lambda: ref.hypothesis_testing_divergence(rho, sigma, 0.1))

    def check_dh(res, ctx):
        value, test = res
        expect_close("D_H", value, dh(), VALUE_TOL)
        expect(abs(test.type1 - 0.1) <= 1e-10, f"type-I error {test.type1!r} != 0.1")
        t1, t2 = test.errors_against(rho, sigma)
        expect(abs(t1 - 0.1) <= 1e-10 and abs(t2 - test.type2) <= 1e-10,
               f"test errors {t1!r}, {t2!r} disagree with {test.type1!r}, {test.type2!r}")

    ops += [
        Op("relative_entropy", lambda: divergences.relative_entropy(pair.rho, pair.sigma),
           lambda got, ctx: expect_close("D", got, d(), VALUE_TOL), key=f"{tag}.D"),
        Op("relative_entropy_variance",
           lambda: divergences.relative_entropy_variance(pair.rho, pair.sigma),
           lambda got, ctx: expect_close("V", got, v(), VALUE_TOL), key=f"{tag}.V"),
        Op("d_max", lambda: divergences.d_max(pair.rho, pair.sigma),
           lambda got, ctx: expect_close("D_max", got, dm(), VALUE_TOL), key=f"{tag}.Dmax"),
        Op("hypothesis_testing_divergence",
           lambda: hypotest.hypothesis_testing_divergence(pair.rho, pair.sigma, 0.1), check_dh,
           key=f"{tag}.DH"),
    ]
    return ops


def _cq_ops(src, tag):
    p, r = src.probs, src.rhos
    ops = [
        Op("conditional_entropy", lambda: conditional.conditional_entropy(src.state),
           lambda got, ctx: expect_close("H(X|B)", got, src.h, VALUE_TOL), key=f"{tag}.H"),
    ]
    v = lazy(lambda: ref.conditional_variance(p, r))
    ops.append(Op("conditional_variance", lambda: conditional.conditional_variance(src.state),
                  lambda got, ctx: expect_close("V(X|B)", got, v(), VALUE_TOL), key=f"{tag}.V"))
    for alpha in ALPHAS:
        down = lazy(lambda a=alpha: ref.h_down(p, r, a, "petz"))
        up = lazy(lambda a=alpha: ref.h_up_petz(p, r, a))
        ops.append(Op("h_down.petz", lambda a=alpha: conditional.h_down(src.state, a, "petz"),
                      lambda got, ctx, w=down: expect_close("H_down", got, w(), VALUE_TOL),
                      key=f"{tag}.down.{alpha}"))
        ops.append(Op("h_up.petz", lambda a=alpha: conditional.h_up(src.state, a, "petz").value,
                      lambda got, ctx, w=up: expect_close("H_up", got, w(), VALUE_TOL),
                      key=f"{tag}.up.{alpha}"))
    return ops


def build_pointwise(seed, workdir):
    rng = np.random.default_rng(seed)
    ops, inputs = [], []
    for d in (2, 3, 4):
        for k in range(PAIRS_PER_DIM):
            rank = (d, 1, d, max(d - 1, 1))[k % 4]
            pair = Pair(ginibre_density(rng, d, rank), ginibre_density(rng, d, d))
            ops += _pair_ops(pair, rank == d, f"d{d}.{k}")
            inputs.append(pair)
        for j, (size_x, ranks) in enumerate(((2, (d, d)), (3, (1, max(d - 1, 1), d))) * 2):
            probs = rng.dirichlet(np.ones(size_x))
            rhos = [ginibre_density(rng, d, rk) for rk in ranks]
            state = states.CQState([str(i) for i in range(size_x)], probs, rhos)
            src = source(f"cq{size_x}", state)
            ops += _cq_ops(src, f"d{d}.cq{j}")
            inputs.append(src)
    pinned = np.random.default_rng(PINNED_SEED)
    pair = Pair(ginibre_density(pinned, 3, 1), ginibre_density(pinned, 3, 3))
    ops.append(_near_one_op(pair, 1.0 - NEAR_ONE, "flat",
                            "renyi_divergence.flat.near_one.rank1_pinned", "pinned"))
    inputs.append(pair)
    return ops, inputs


WORKLOADS = {
    "curves": build_curves,
    "blocklength": build_blocklength,
    "pointwise": build_pointwise,
}
