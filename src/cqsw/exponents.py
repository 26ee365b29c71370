"""Error and strong-converse exponent functions of a classical-quantum
source, the sphere-packing saddle point, the critical rate, and the
moderate-deviation and second-order helpers.

Conventions: rates and exponents in bits; s and alpha related by
alpha = 1/(1+s). Each exponent is a Legendre transform: the supremum of
f(s) = E_0(s) + s R over the kind's bracket in `S_BRACKET`, with
E_0(s) = -s H_(1/(1+s))^up of the kind's Renyi family (random_coding_down:
E_0^down(s) = -s H_(1-s)^down). E_0 is concave, so f is unimodal. A probe
holds the pair (H(s), dH/ds), which gives f = s (R - H) and
f' = R - H - s dH/ds; dH/ds = -alpha^2 dH_alpha/dalpha, and by the
envelope theorem dH_alpha/dalpha is minus the alpha-partial of
D_alpha(rho_XB || 1 (x) sigma*) at the optimizer sigma* the probe already
holds (`h_up` with slope=True). Every bracket ends at s = 0, where f = 0
and f' = R - H(X|B), so that end costs nothing, and `golden_max` probes
the other end once and stops there if f' points out of the bracket
(random coding above the critical rate at s = 1, the strong converse at
the alpha = ALPHA_CAP cap); otherwise it searches for the root of f' by
Brent's root method and stops at the first probe whose value has converged
to 1e-12 relative (its Newton decrement), or at the root to a tolerance
relative to |s|, so a rate close to H(X|B), whose optimal s tends to 0,
finds it too. alpha* is the probe the search stopped at. H and its slope
do not depend on the rate, so the rates of one curve share their probes.
Rates on the far side of H(X|B) return an exact 0.0 without any search:
every H_alpha is nonincreasing in alpha and equals H(X|B) at alpha = 1, so
s (R - H_alpha) <= 0 on the whole bracket there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtri

from cqsw.errors import DomainError, RateOutOfWindowError, ZeroVarianceError
from cqsw.conditional import (
    _petz_down,
    _petz_sibson,
    _tabulated,
    conditional_entropy,
    conditional_variance,
    cq_relative_entropy,
    h_down,
    h_up,
    petz_sigma_star,
)
from cqsw.divergences import _check_variant, _divergence
from cqsw.operators import spectrum_of, support_contained
from cqsw.states import CQState, DensityOperator

_GOLDEN_TOL = 1e-8
# the absolute floor of golden_max's root tolerance, which is otherwise
# relative to the argument
_ROOT_FLOOR = 1e-16
# golden_max stops once the predicted gap to the maximum is at most this
# fraction of the value
_VALUE_TOL = 1e-12
ALPHA_CAP = 64.0
# V(X|B) at or below this is zero: no moderate-deviation or second-order
# expansion exists
_ZERO_VARIANCE = 1e-9

# The exponent kinds, each with the Renyi family used when no variant is
# given; the random_coding_down kind is petz by definition.
DEFAULT_VARIANT = {
    "random_coding_down": "petz",
    "random_coding": "petz",
    "sphere_packing": "petz",
    "strong_converse_star": "sandwiched",
    "strong_converse_flat": "flat",
}
KINDS = tuple(DEFAULT_VARIANT)
# The s bracket of each kind, looked up by the prefix of its name: random
# coding s in [0, 1] (alpha in [1/2, 1]), sphere packing s in [0, 99]
# (alpha in [0.01, 1]), the strong converse alpha in [1, ALPHA_CAP].
S_BRACKET = {
    "random_coding": (0.0, 1.0),
    "sphere_packing": (0.0, 99.0),
    "strong_converse": (1.0 / ALPHA_CAP - 1.0, 0.0),
}


class _Converged(Exception):
    """golden_max's way out of brentq at the point, its one argument, whose
    value has converged."""


def golden_max(f, lo: float, hi: float, tol: float = _GOLDEN_TOL, known=None):
    """Maximize a unimodal function on [lo, hi] from its slope; returns
    (x, f(x)[0]), x a point f was called at or a known one. f returns
    (value, slope) at x; known maps points of [lo, hi] to their (value,
    slope) where the caller has them without a probe.

    The maximum lies right of every point whose slope rises and left of
    every point whose slope falls, so the search starts from the tightest
    such bracket the known points give, and probes an end only where no
    known point bounds that side. An end whose slope points out of the
    bracket (slope <= 0 at lo, >= 0 at hi) is the maximum. Otherwise the
    maximum is the root of the slope inside, found by Brent's root method
    (scipy's brentq) on the points of the bracket. It stops at the first
    point x_k whose value has converged: with h = (g_k - g_(k-1)) /
    (x_k - x_(k-1)) the secant of the slope through the point before, the
    Newton decrement g_k^2 / (2 |h|), the predicted gap to the maximum, is
    at most `_VALUE_TOL` |f(x_k)| and h < 0. The value's error is quadratic
    in the error in x, so this comes long before x itself is known to
    tol |x| + 1e-16, where Brent's method stops otherwise: relative, so
    that the exponent searches, which put alpha = 1 at s = 0, place an
    optimum near alpha = 1 to a tolerance relative to its distance from
    it. Both tolerances are relative, so a function scaled by any factor
    is searched at the same points."""
    probes = dict(known or {})

    def probe(x):
        if x not in probes:
            probes[x] = f(x)
        return probes[x]

    def slope(x):
        return probe(x)[1]

    a = max((x for x, (_, g) in probes.items() if g > 0.0), default=lo)
    b = min((x for x, (_, g) in probes.items() if g < 0.0), default=hi)
    if a >= b:
        a, b = lo, hi  # slopes that contradict unimodality: start from the ends
    if slope(a) <= 0.0:
        return a, probe(a)[0]
    if slope(b) >= 0.0:
        return b, probe(b)[0]
    last = []  # brentq's previous point and its slope; it never repeats a point

    def stopping_slope(x):
        value, g = probe(x)
        if last:
            h = (g - last[1]) / (x - last[0])
            if h < 0.0 and g * g <= 2.0 * _VALUE_TOL * abs(value) * -h:
                raise _Converged(x)
        last[:] = x, g
        return g

    try:
        x = brentq(stopping_slope, a, b, xtol=_ROOT_FLOOR, rtol=tol, disp=False)
    except _Converged as done:
        x = done.args[0]
    return x, probe(x)[0]


def _legendre_max(h_pair, rate: float, kind: str, h_zero: float, known=None):
    """(s*, sup) of f(s) = E_0(s) + s R = s (R - H(s)) over the kind's
    `S_BRACKET`, where E_0(s) = -s H(s) and h_pair(s) = (H(s), dH/ds), so
    f'(s) = R - H(s) - s dH/ds; R - H is formed first, so that near the
    root f' keeps the precision of R - H. known maps s to its pair, which
    then costs no probe; s = 0 costs none either: f = 0, f' = R - h_zero.
    s* is the point `golden_max` stopped at, a probed or known s, so the
    solve behind it is on the state's table; sup is f there, predicted to
    lie within `_VALUE_TOL` |sup| of the supremum."""
    lo, hi = next(b for prefix, b in S_BRACKET.items() if kind.startswith(prefix))

    def f(x, pair):
        h, dh = pair
        return x * (rate - h), (rate - h) - x * dh

    start = {x: f(x, pair) for x, pair in (known or {}).items()}
    start[0.0] = 0.0, rate - h_zero
    return golden_max(lambda x: f(x, h_pair(x)), lo, hi, known=start)


class HUpEvaluator:
    """Counting view of h_up on one state and variant, at s = 1/alpha - 1,
    with its slope in s. The iterate solves are memoised on the state itself
    (`conditional._tabulated_solve`), so every view of a state shares them,
    and a view keeps what it returned (`probes`, s -> (H, dH/ds)), petz
    closed forms too. A view counts what its own calls did: solves, hits,
    optimizer objective evaluations and the largest optimizer residual
    (`report`). A hit is one `value` that the state's table answers
    without a solve, or one stored probe a search starts from (`stored`).
    The random_coding_down search keeps its H_(1-s)^down probes in
    `probes` too (`_exponent`) and never calls `value`.
    """

    def __init__(self, s: CQState, variant: str):
        self.state = s
        self.variant = _check_variant(variant)
        self.probes = {}
        self.solves = 0
        self.cache_hits = 0
        self.evaluations = 0
        self.residual = 0.0

    def value(self, sval: float) -> tuple[float, float]:
        """(H_alpha^up, dH_alpha^up/ds = -alpha^2 dH_alpha^up/dalpha) at
        alpha = 1/(1+s): from the state's table where it holds it, else
        from `h_up` with slope=True."""
        alpha = 1.0 / (1.0 + sval)
        rep = _tabulated(self.state, alpha, self.variant)
        if rep is not None:
            self.cache_hits += 1
            if rep.slope is None:
                rep = h_up(self.state, alpha, self.variant, slope=True)
        else:
            rep = h_up(self.state, alpha, self.variant, slope=True)
            self.solves += 1
            self.evaluations += rep.evaluations
            self.residual = max(self.residual, rep.residual)
        self.probes[sval] = rep.value, -alpha * alpha * rep.slope
        return self.probes[sval]

    def stored(self) -> dict:
        """The probes so far, s -> (H, dH/ds), for a search at a new rate
        to start from; each one counts as a hit."""
        self.cache_hits += len(self.probes)
        return dict(self.probes)

    def report(self) -> dict:
        """h_up solves, table hits, optimizer objective evaluations and the
        largest residual (gradient norm at the optimum) so far."""
        return {"h_up_solves": self.solves, "cache_hits": self.cache_hits,
                "evaluations": self.evaluations, "residual": self.residual}


def e0(s: CQState, sval: float, variant: str = "petz") -> float:
    """E_0(s) = -s H_(1/(1+s))^up; petz uses the Sibson closed form."""
    _check_variant(variant)
    if sval <= -1.0:
        raise DomainError(f"s must exceed -1, got {sval}")
    if sval == 0.0:
        return 0.0
    alpha = 1.0 / (1.0 + sval)
    if variant == "petz":
        # -log2 Tr acc^(1+s), acc = sum_x (p rho_x)^alpha, in the scaled form
        # that stays finite where acc^(1+s) itself overflows
        return -_petz_sibson(s, alpha)[1]
    return -sval * h_up(s, alpha, variant).value


def e0_down(s: CQState, sval: float) -> float:
    """E_0^down(s) = -s H_(1-s)^down for s in [0, 1]."""
    if not 0.0 <= sval <= 1.0:
        raise DomainError(f"s must lie in [0, 1], got {sval}")
    if sval == 0.0:
        return 0.0
    return -sval * h_down(s, 1.0 - sval, "petz")


def _evaluator(s: CQState, kind: str, variant: str | None) -> HUpEvaluator:
    """The view of a kind's search, in variant or the kind's default;
    refuses an unknown kind or variant, and random_coding_down in any
    family but petz."""
    if kind not in KINDS:
        raise ValueError(f"unknown exponent kind {kind!r}")
    if variant is None:
        variant = DEFAULT_VARIANT[kind]
    elif kind == "random_coding_down" and variant != "petz":
        raise ValueError(f"random_coding_down is petz only, got {variant!r}")
    return HUpEvaluator(s, variant)


def exponent(s: CQState, rate: float, kind: str, variant: str | None = None) -> float:
    """One exponent value at the given rate; +inf where the function diverges."""
    return _exponent(s, rate, kind, _evaluator(s, kind, variant))[0]


def _exponent(s: CQState, rate: float, kind: str, ev: HUpEvaluator):
    """(`exponent`, alpha*) of the variant of ev, whose counts and probes
    then include this call; alpha* is None where no search ran.

    H and its slope do not depend on the rate, so every s probed for an
    earlier rate gives f and f' at this one from the stored pair, without a
    probe, and the search starts from the bracket they give."""
    if not rate >= 0:
        raise DomainError(f"rate must be nonnegative, got {rate}")
    # far side of H(X|B): s (R - H_alpha) <= 0 on the whole bracket
    h1 = conditional_entropy(s)
    if kind.startswith("strong_converse"):
        if rate >= h1:
            return 0.0, None
    elif rate <= h1:
        return 0.0, None
    if math.isinf(rate):
        return math.inf, None  # s (R - H_alpha) is +inf at every s > 0
    if kind == "sphere_packing" and rate > h_up(s, 0.0, ev.variant).value + 1e-9:
        return math.inf, None
    if kind == "random_coding_down":
        def h_pair(x):
            if x not in ev.probes:
                h, dh = _petz_down(s, 1.0 - x)
                ev.probes[x] = h, -dh
            return ev.probes[x]
    else:
        h_pair = ev.value
    x, sup = _legendre_max(h_pair, rate, kind, h1, ev.stored())
    return (sup if sup > 0.0 else 0.0), 1.0 / (1.0 + x)


@dataclass
class ExponentCurve:
    """An exponent at each rate, with the alpha* its search found there
    (NaN where no search ran)."""

    rates: np.ndarray
    values: np.ndarray
    kind: str
    alpha_stars: np.ndarray
    metadata: dict = field(default_factory=dict)


def exponent_family(s: CQState, rates, kind: str,
                    variant: str | None = None) -> ExponentCurve:
    """The exponent at each rate. The metadata add to the `HUpEvaluator`
    counts cap_binding_rates: the rates whose supremum the alpha = ALPHA_CAP
    end of the bracket bounds (the slope there still rises), so that the
    value may lie below the supremum over all alpha > 1."""
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 1 or not np.all(np.diff(rates) > 0):
        raise DomainError("rates must be a strictly increasing 1-d array")
    ev = _evaluator(s, kind, variant)
    found = [_exponent(s, r, kind, ev) for r in rates]
    vals, alphas = np.array(found, dtype=float).reshape(-1, 2).T
    capped = [float(r) for r in rates[alphas == ALPHA_CAP]]
    return ExponentCurve(rates, vals, kind, alphas,
                         {"variant": ev.variant, "cap_binding_rates": capped, **ev.report()})


@dataclass
class SaddleReport:
    """The sphere-packing saddle point at one rate. value is the sup over
    s of the inf over sigma, the sphere-packing exponent; gap is
    sup_s f(s, sigma*) - value, the weak-duality bound at sigma*: it is at
    least the inf-sup gap, and nonnegative up to rounding."""

    s_star: float
    sigma_star: DensityOperator
    value: float
    gap: float

    @property
    def alpha_star(self) -> float:
        return 1.0 / (1.0 + self.s_star)


def _h_at(s: CQState, sigma_b):
    """s -> (H(s), dH/ds) of the sphere-packing objective at a fixed
    sigma_b, where E_0(s) = -s H(s): H = -D_alpha(rho_XB || 1 (x) sigma_b),
    alpha = 1/(1+s), and dH/ds = alpha^2 dD_alpha/dalpha."""
    blocks, (sw, sv) = s.block_spectra(), spectrum_of(sigma_b)

    def pair(x):
        alpha = 1.0 / (1.0 + x)
        d, dd = _divergence(blocks, sw, sv, alpha, "petz", slope=True)
        return -d, (math.nan if math.isinf(d) else alpha * alpha * dd)
    return pair


def saddle_point(s: CQState, rate: float) -> SaddleReport:
    """Saddle point of the sphere-packing objective: s* and sigma* from the
    sphere-packing search of `exponent`, certified by the sup over s of the
    objective at sigma*, found by the same search."""
    h1 = conditional_entropy(s)
    h0 = h_up(s, 0.0, "petz").value
    if not (h1 < rate < h0):
        raise RateOutOfWindowError(
            f"rate {rate} outside ({h1:.6f}, {h0:.6f})"
        )
    s_star, sup_inf = _legendre_max(HUpEvaluator(s, "petz").value, rate, "sphere_packing", h1)
    sigma_star = petz_sigma_star(s, 1.0 / (1.0 + s_star))
    _, sup_at_star = _legendre_max(_h_at(s, sigma_star), rate, "sphere_packing",
                                   -cq_relative_entropy(s, sigma_star))
    return SaddleReport(s_star, sigma_star, sup_inf, sup_at_star - sup_inf)


def critical_rate(s: CQState) -> float:
    """Rate where the random-coding exponent departs from the sphere packing
    curve: the negated slope of E_0 at s = 1. E_0(s) = -s H_(1/(1+s)), so
    -E_0'(1) = H_(1/2) - H'_(1/2) / 4, from one petz solve with its slope."""
    rep = h_up(s, 0.5, "petz", slope=True)
    return rep.value - rep.slope / 4.0


def _nonzero_variance(s: CQState) -> float:
    """V(X|B), or ZeroVarianceError where it is zero (`_ZERO_VARIANCE`)."""
    v = conditional_variance(s)
    if v <= _ZERO_VARIANCE:
        raise ZeroVarianceError("conditional information variance is zero")
    return v


def moderate_ratio(s: CQState, delta: float) -> float:
    """E_sp(H(X|B)+delta) / delta^2; approaches 1/(2V) as delta shrinks."""
    if not delta > 0:
        raise DomainError(f"delta must be positive, got {delta}")
    _nonzero_variance(s)
    h = conditional_entropy(s)
    return exponent(s, h + delta, "sphere_packing") / (delta * delta)


def second_order_reference(s: CQState, n: int, epsilon: float) -> float:
    """Gaussian-approximation reference code size exponent in bits:
    n H(X|B) - sqrt(n V(X|B)) * quantile(epsilon)."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0,1), got {epsilon}")
    v = _nonzero_variance(s)
    h = conditional_entropy(s)
    return n * h - math.sqrt(n * v) * float(ndtri(epsilon))


def saddle_sigma_support_ok(s: CQState, report: SaddleReport) -> bool:
    """Every side-information block must be supported inside sigma*."""
    return all(
        support_contained(r, report.sigma_star) for _, r in s.blocks()
    )
