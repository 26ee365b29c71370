"""Error and strong-converse exponent functions of a classical-quantum
source, the sphere-packing saddle point, the critical rate, and the
moderate-deviation and second-order helpers.

Conventions: rates and exponents in bits; s and alpha related by
alpha = 1/(1+s). Each exponent is a supremum over alpha of
f(alpha) = ((1 - alpha)/alpha)(R - H_alpha), unimodal by concavity of
s -> E_0(s), on the kind's bracket in `ALPHA_BRACKET`. Every bracket ends at
alpha = 1, where H_alpha = H(X|B), f = 0 and f' = H(X|B) - R, so that end
costs nothing. Every probe returns f' with f: by the envelope theorem
dH_alpha/dalpha is minus the alpha-partial of D_alpha(rho_XB || 1 (x)
sigma*) at the optimizer sigma* the probe already holds (`h_up` with
slope=True). So `golden_max` probes the other end once, and stops there if
f' points out of the bracket (random coding above the critical rate at
s = 1, the strong converse at the alpha = ALPHA_CAP cap); otherwise it
finds the root of f' by Brent's root method. The search runs on s, in
which f = E_0(s) + s R is concave, to a tolerance relative to |s|, so a
rate close to H(X|B), whose optimal alpha tends to 1, finds it too. H_alpha
and its slope do not depend on the rate, so the rates of one curve share
their probes.
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
from cqsw.divergences import _divergence
from cqsw.operators import spectrum_of, support_contained
from cqsw.states import CQState, DensityOperator

_GOLDEN_TOL = 1e-8
# the absolute floor of golden_max's root tolerance, which is otherwise
# relative to the argument
_ROOT_FLOOR = 1e-16
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
# The alpha bracket of each kind, looked up by the prefix of its name: both
# random-coding kinds search s in [0, 1], sphere packing s in [0, 99], the
# strong converse alpha in [1, ALPHA_CAP].
ALPHA_BRACKET = {
    "random_coding": (0.5, 1.0),
    "sphere_packing": (0.01, 1.0),
    "strong_converse": (1.0, ALPHA_CAP),
}


def golden_max(f, lo: float, hi: float, tol: float = _GOLDEN_TOL, known=None):
    """Maximize a unimodal function on [lo, hi] from its slope; returns
    (x, f(x)[0]). f returns (value, slope) at x; known maps points of
    [lo, hi] to their (value, slope) where the caller has them without a
    probe.

    The maximum lies right of every point whose slope rises and left of
    every point whose slope falls, so the search starts from the tightest
    such bracket the known points give, and probes an end only where no
    known point bounds that side. An end whose slope points out of the
    bracket (slope <= 0 at lo, >= 0 at hi) is the maximum. Otherwise the
    maximum is the root of the slope inside, found by Brent's root method
    (scipy's brentq), which probes the points it returns, to within
    tol |x| + 1e-16: relative, so that the exponent searches, which put
    alpha = 1 at x = 0, place an optimum near alpha = 1 to a tolerance
    relative to its distance from it."""
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
    x = brentq(slope, a, b, xtol=_ROOT_FLOOR, rtol=tol, disp=False)
    return x, probe(x)[0]


class HUpEvaluator:
    """Counting view of h_up on one state and variant, with its slope. The
    iterate solves are memoised on the state itself
    (`conditional._tabulated_solve`), so every view of a state shares them,
    and a view keeps what it returned (`probes`), petz closed forms too. A
    view counts what its own calls did: solves, hits, optimizer objective
    evaluations and the largest optimizer residual (`report`). A hit is a
    value from the state's table or the view's probes: one `value` answers
    without a solve, or one stored probe a search starts from (`stored`).
    The random_coding_down search keeps its H^down probes in `probes` too
    (`_alpha_search`) and never calls `value`.
    """

    def __init__(self, s: CQState, variant: str):
        self.state = s
        self.variant = variant
        self.probes = {}
        self.solves = 0
        self.cache_hits = 0
        self.evaluations = 0
        self.residual = 0.0

    def value(self, alpha: float) -> tuple[float, float]:
        """(H_alpha^up, dH_alpha^up/dalpha): from the view's probes or the
        state's table where they hold it, else from `h_up` with slope=True."""
        if alpha in self.probes:
            self.cache_hits += 1
            return self.probes[alpha]
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
        self.probes[alpha] = (rep.value, rep.slope)
        return self.probes[alpha]

    def stored(self) -> dict:
        """The probes so far, alpha -> (H, dH/dalpha), for a search at a new
        rate to start from; each one counts as a hit."""
        self.cache_hits += len(self.probes)
        return dict(self.probes)

    def report(self) -> dict:
        """h_up solves, table hits, optimizer objective evaluations and the
        largest residual (gradient norm at the optimum) so far."""
        return {"h_up_solves": self.solves, "cache_hits": self.cache_hits,
                "evaluations": self.evaluations, "residual": self.residual}


def e0(s: CQState, sval: float, variant: str = "petz") -> float:
    """E_0(s) = -s H_(1/(1+s))^up; petz uses the Sibson closed form."""
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


def _clamp(v: float) -> float:
    return v if v > 0.0 else 0.0


def exponent(s: CQState, rate: float, kind: str, variant: str | None = None) -> float:
    """One exponent value at the given rate; +inf where the function diverges."""
    if variant is None:
        variant = DEFAULT_VARIANT.get(kind)
    return _exponent(s, rate, kind, HUpEvaluator(s, variant))[0]


def _exponent(s: CQState, rate: float, kind: str, ev: HUpEvaluator):
    """(`exponent`, alpha*) of the variant of ev, whose counts and probes
    then include this call; alpha* is None where no search ran."""
    if not rate >= 0:
        raise DomainError(f"rate must be nonnegative, got {rate}")
    if kind not in KINDS:
        raise ValueError(f"unknown exponent kind {kind!r}")
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
    alpha, sup = _alpha_search(s, rate, kind, ev, h1)
    return _clamp(sup), alpha


def _sup_over_alpha(g, kind: str, slope_at_one: float, known=None):
    """(alpha*, sup) of alpha -> g(alpha) = (value, slope) over the kind's
    `ALPHA_BRACKET`, where g(1) = 0 with slope slope_at_one; known maps
    alphas to their g, which then costs no probe. `golden_max` runs on
    s = 1/alpha - 1, in which every exponent objective is concave
    (E_0(s) + s R), so its slope -alpha^2 g' falls through its root at a
    pace that does not depend on alpha; the end s = 0 and the known alphas
    are given."""
    lo, hi = next(b for prefix, b in ALPHA_BRACKET.items() if kind.startswith(prefix))

    def on_s(alpha, value, slope):
        return value, -alpha * alpha * slope

    start = {1.0 / a - 1.0: on_s(a, *ga) for a, ga in (known or {}).items()}
    start[0.0] = (0.0, -slope_at_one)

    def g_on_s(x):
        alpha = 1.0 / (1.0 + x)
        return on_s(alpha, *g(alpha))

    x, sup = golden_max(g_on_s, 1.0 / hi - 1.0, 1.0 / lo - 1.0, known=start)
    return 1.0 / (1.0 + x), sup


def _alpha_search(s: CQState, rate: float, kind: str, ev: HUpEvaluator, h1: float):
    """(alpha*, sup) of f(alpha) = s (R - H_alpha), s = (1 - alpha)/alpha,
    over the kind's `ALPHA_BRACKET`, with H_alpha and its slope from ev;
    random_coding_down takes H_(2 - 1/alpha)^down instead, keeping its
    probes in `ev.probes` too. h1 is H(X|B), which gives f'(1) = H(X|B) - R.

    H_alpha and its slope do not depend on the rate, so every alpha probed
    for an earlier rate gives f and f' at this one from the stored pair,
    without a probe, and the search starts from the bracket they give."""
    if kind == "random_coding_down":
        def h(alpha):
            if alpha not in ev.probes:
                value, slope = _petz_down(s, 2.0 - 1.0 / alpha)
                ev.probes[alpha] = value, slope / (alpha * alpha)
            return ev.probes[alpha]
    else:
        h = ev.value

    def obj(alpha, value, slope):
        pre = (1.0 - alpha) / alpha
        return pre * (rate - value), -(rate - value) / (alpha * alpha) - pre * slope

    known = {a: obj(a, *hv) for a, hv in ev.stored().items()}
    return _sup_over_alpha(lambda a: obj(a, *h(a)), kind, h1 - rate, known)


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
    if variant is None:
        variant = DEFAULT_VARIANT[kind]
    ev = HUpEvaluator(s, variant)
    found = [_exponent(s, r, kind, ev) for r in rates]
    vals, alphas = np.array(found, dtype=float).reshape(-1, 2).T
    capped = [float(r) for r in rates[alphas == ALPHA_CAP]]
    return ExponentCurve(rates, vals, kind, alphas,
                         {"variant": variant, "alpha_cap": ALPHA_CAP,
                          "cap_binding_rates": capped, **ev.report()})


@dataclass
class SaddleReport:
    """The sphere-packing saddle point at one rate. value is the sup over
    alpha of the inf over sigma, the sphere-packing exponent; gap is
    sup_alpha f(alpha, sigma*) - value, the weak-duality bound at sigma*:
    it is at least the inf-sup gap, and nonnegative up to rounding."""

    alpha_star: float
    sigma_star: DensityOperator
    value: float
    gap: float

    @property
    def s_star(self) -> float:
        return (1.0 - self.alpha_star) / self.alpha_star


def _f_rate(s: CQState, rate: float, alpha: float, sigma_b):
    """(f, f') at alpha of f(alpha) = ((1 - alpha)/alpha)(R + D_alpha(rho_XB
    || 1 (x) sigma_b)), the sphere-packing objective at a fixed sigma_b."""
    d, dd = _divergence(s.block_spectra(), *spectrum_of(sigma_b), alpha, "petz", slope=True)
    if math.isinf(d):
        return (math.inf if alpha < 1.0 else -math.inf), math.nan
    pre = (1.0 - alpha) / alpha
    return pre * (rate + d), -(rate + d) / (alpha * alpha) + pre * dd


def saddle_point(s: CQState, rate: float) -> SaddleReport:
    """Saddle point of the sphere-packing objective: alpha* and sigma* from
    the sphere-packing search of `exponent`, certified by the sup over alpha
    of the objective at sigma*, found by the same search."""
    h1 = conditional_entropy(s)
    h0 = h_up(s, 0.0, "petz").value
    if not (h1 < rate < h0):
        raise RateOutOfWindowError(
            f"rate {rate} outside ({h1:.6f}, {h0:.6f})"
        )
    alpha_star, sup_inf = _alpha_search(s, rate, "sphere_packing",
                                        HUpEvaluator(s, "petz"), h1)
    sigma_star = petz_sigma_star(s, alpha_star)
    _, sup_at_star = _sup_over_alpha(lambda a: _f_rate(s, rate, a, sigma_star),
                                     "sphere_packing",
                                     -(rate + cq_relative_entropy(s, sigma_star)))
    return SaddleReport(alpha_star, sigma_star, sup_inf, sup_at_star - sup_inf)


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
