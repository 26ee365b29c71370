"""Command line front end: exponent curves, coding simulations, brute-force
optima, property verification, moderate-deviation ratios, and finite-length
rate windows.

Exit codes: 0 success, 1 property failure, 2 configuration error, 3 input
error. All CSV output uses a header row, LF line endings, `.` decimals and
`inf`/`-inf`/`nan` tokens; numbers are written with round-trip precision.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys

import numpy as np

from cqsw.errors import (
    CqswError,
    ParseError,
    ZeroVarianceError,
)
from cqsw.conditional import conditional_entropy, conditional_variance, petz_h0
from cqsw.coding import empirical_exponents, optimal_error_bruteforce
from cqsw.divergences import renyi_divergence
from cqsw.exponents import KINDS, exponent, exponent_family, moderate_ratio
from cqsw.hypotest import hypothesis_testing_divergence, rate_window
from cqsw.operators import random_density
from cqsw.states import DEFAULT_CAP, load_state


def _fmt(x: float) -> str:
    """Round-trip float formatting with bare inf/-inf/nan tokens."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return repr(float(x))


def _write(path, text: str) -> None:
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path):
    if not path:
        raise _ConfigError("state", "--state is required")
    try:
        return load_state(path)
    except FileNotFoundError as e:
        raise _InputError("state", f"cannot read state file: {e}") from e
    except ParseError as e:
        raise _InputError("state", f"invalid state file: {e}") from e


class _ConfigError(Exception):
    def __init__(self, field_name, message):
        super().__init__(f"config error in {field_name}: {message}")


class _InputError(Exception):
    def __init__(self, field_name, message):
        super().__init__(f"input error in {field_name}: {message}")


def cmd_exponents(args) -> int:
    s = _load(args.state)
    if args.rate_min >= args.rate_max:
        raise _ConfigError("rate-min", "rate-min must be below rate-max")
    if args.steps < 2:
        raise _ConfigError("steps", "need at least 2 grid points")
    rates = np.linspace(args.rate_min, args.rate_max, args.steps)
    # one curve per kind, so that its rates share their probes
    curves = {kind: exponent_family(s, rates, kind) for kind in KINDS}
    # alpha* of the sphere-packing saddle point, inside its window
    # (H(X|B), H_0) only
    inside = (conditional_entropy(s) < rates) & (rates < petz_h0(s))
    alpha_star = np.where(inside, curves["sphere_packing"].alpha_stars, math.nan)
    columns = np.array([curves[kind].values for kind in KINDS] + [alpha_star])
    lines = ["R,E_r_down,E_r,E_sp,E_sc_star,E_sc_flat,alpha_star"]
    for r, values in zip(rates, columns.T):
        lines.append(",".join(_fmt(v) for v in [float(r), *values]))
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_simulate(args) -> int:
    s = _load(args.state)
    if args.trials < 1:
        raise _ConfigError("trials", "need at least one trial")
    if args.n < 1:
        raise _ConfigError("n", "n must be positive")
    if args.rate is None:
        raise _ConfigError("rate", "--rate is required")
    e_hat, sc_hat = empirical_exponents(
        s, args.n, args.rate, "pgm", args.trials, args.seed, cap=args.cap
    )
    lines = [
        f"n {args.n}",
        f"rate {_fmt(args.rate)}",
        f"trials {args.trials}",
        f"seed {args.seed}",
        f"error_exponent {_fmt(e_hat)}",
        f"success_exponent {_fmt(sc_hat)}",
    ]
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_bruteforce(args) -> int:
    s = _load(args.state)
    if args.w_size < 1:
        raise _ConfigError("w-size", "need at least one bin")
    if args.n < 1:
        raise _ConfigError("n", "n must be positive")
    rep, code = optimal_error_bruteforce(s, args.n, args.w_size, cap=args.cap)
    lines = [
        f"n {args.n}",
        f"w_size {args.w_size}",
        f"rate {_fmt(code.rate)}",
        f"p_error {_fmt(rep.p_error)}",
        f"p_success {_fmt(rep.p_success)}",
        "encoder " + " ".join(str(int(w)) for w in code.encoder),
    ]
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _hash_inputs(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
    return h.hexdigest()[:12]


def cmd_verify(args) -> int:
    from cqsw import presets

    rng = np.random.default_rng(args.seed)
    failures = 0
    out = []

    def check(module, prop, ok, observed):
        nonlocal failures
        tag = "PASS" if ok else "FAIL"
        out.append(f"{tag} {module} {prop} inputs={_hash_inputs(args.seed, prop)}"
                   f" observed={observed}")
        if not ok:
            failures += 1

    # divergence family ordering on random full-rank qubit pairs
    worst = 0.0
    for _ in range(10):
        rho = random_density(rng, 2)
        sig = random_density(rng, 2)
        for alpha in (0.3, 0.7):
            ds = renyi_divergence(rho, sig, alpha, "sandwiched")
            dp = renyi_divergence(rho, sig, alpha, "petz")
            df = renyi_divergence(rho, sig, alpha, "flat")
            worst = max(worst, ds - dp, dp - df)
    check("divergences", "family_ordering", worst <= 1e-10, worst)

    # hypothesis testing exactness against itself
    rho = random_density(rng, 3)
    worst = 0.0
    for eps in (0.1, 0.4, 0.8):
        v, t = hypothesis_testing_divergence(rho, rho, eps)
        worst = max(worst, abs(v + math.log2(1.0 - eps)), abs(t.type1 - eps))
    check("hypothesis-testing", "self_test_exactness", worst <= 1e-10, worst)

    # derivative identity at s = 0 for a preset source
    s = presets.doubly_symmetric(0.11)
    from cqsw.exponents import e0
    h = 1e-4
    d1 = (e0(s, h) - e0(s, -h)) / (2.0 * h)
    dev = abs(d1 + conditional_entropy(s))
    check("exponent-functions", "slope_at_zero", dev <= 1e-4, dev)

    # classical collapse on a commuting source
    sc = presets.random_commuting_state(rng, 2, 2)
    hc = conditional_entropy(sc)
    worst = 0.0
    for r in (hc + 0.1, hc + 0.3):
        vals = [exponent(sc, r, "sphere_packing", variant=v)
                for v in ("petz", "sandwiched", "flat")]
        worst = max(worst, max(vals) - min(vals))
    check("exponent-functions", "classical_collapse", worst <= 1e-8, worst)

    # success-probability comparison with auxiliary states
    from cqsw.coding import dummy_state_inequality_check
    from cqsw.variational import DummyState
    _, code = optimal_error_bruteforce(s, 1, 1)
    ok = True
    for a in (0.1, 1.0, 3.0):
        d = DummyState(rng.dirichlet([1.0, 1.0]),
                       [random_density(rng, 2) for _ in range(2)])
        ok = ok and dummy_state_inequality_check(s, d, code, a)
    check("coding-sim", "auxiliary_state_inequality", ok, ok)

    _write(args.out, "\n".join(out) + "\n")
    return 1 if failures else 0


def cmd_moderate(args) -> int:
    s = _load(args.state)
    try:
        deltas = [float(d) for d in args.deltas.split(",")]
    except (AttributeError, ValueError) as e:
        raise _ConfigError("deltas", f"expected comma-separated floats: {e}")
    if not deltas or any(d <= 0 for d in deltas):
        raise _ConfigError("deltas", "deltas must be positive")
    try:
        v = conditional_variance(s)
        lines = ["delta,ratio,half_inverse_variance"]
        for d in deltas:
            lines.append(",".join(_fmt(x) for x in
                                  (d, moderate_ratio(s, d), 1.0 / (2.0 * v))))
    except ZeroVarianceError as e:
        raise _InputError("state", f"ZeroVariance: {e}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_rate_window(args) -> int:
    s = _load(args.state)
    if not 0.0 < args.epsilon < 1.0:
        raise _ConfigError("epsilon", "epsilon must lie in (0, 1)")
    if not 0.0 < args.alpha < 1.0:
        raise _ConfigError("alpha", "alpha must lie in (0, 1)")
    if args.n < 1:
        raise _ConfigError("n", "n must be positive")
    lo, hi = rate_window(s, args.n, args.epsilon, args.alpha, cap=args.cap)
    lines = [
        f"n {args.n}",
        f"epsilon {_fmt(args.epsilon)}",
        f"alpha {_fmt(args.alpha)}",
        f"lower {_fmt(lo)}",
        f"upper {_fmt(hi)}",
    ]
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cqsw")
    sub = p.add_subparsers(dest="command", required=True)

    shared = {"state": {}, "out": {}, "seed": {"type": int, "default": 0},
              "cap": {"type": int, "default": DEFAULT_CAP}}

    def common(sp, *names):
        """The shared flags, of those named, that the subcommand reads."""
        for name in names:
            sp.add_argument(f"--{name}", **shared[name])

    sp = sub.add_parser("exponents")
    common(sp, "state", "out")
    sp.add_argument("--rate-min", type=float, default=0.0)
    sp.add_argument("--rate-max", type=float, default=1.0)
    sp.add_argument("--steps", type=int, default=21)
    sp.set_defaults(fn=cmd_exponents)

    sp = sub.add_parser("simulate")
    common(sp, "state", "out", "seed", "cap")
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--rate", type=float)
    sp.add_argument("--trials", type=int, default=10)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("bruteforce")
    common(sp, "state", "out", "cap")
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--w-size", type=int, dest="w_size", default=1)
    sp.set_defaults(fn=cmd_bruteforce)

    sp = sub.add_parser("verify")
    common(sp, "out", "seed")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("moderate")
    common(sp, "state", "out")
    sp.add_argument("--deltas", default="0.05,0.02,0.01,0.005")
    sp.set_defaults(fn=cmd_moderate)

    sp = sub.add_parser("rate-window")
    common(sp, "state", "out", "cap")
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--epsilon", type=float, default=0.1)
    sp.add_argument("--alpha", type=float, default=0.5)
    sp.set_defaults(fn=cmd_rate_window)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except _ConfigError as e:
        print(str(e), file=sys.stderr)
        return 2
    except _InputError as e:
        print(str(e), file=sys.stderr)
        return 3
    except CqswError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
