"""Error and strong-converse exponent functions of a classical-quantum
source, the sphere-packing saddle point, the critical rate, and the
moderate-deviation and second-order helpers.

Conventions: rates and exponents in bits; s and alpha related by
alpha = 1/(1+s). Each supremum over alpha is a one-dimensional maximisation
of a smooth function, unimodal by concavity of s -> E_0(s), found by
Brent's bounded method (golden-section steps with parabolic interpolation)
on the kind's bracket in `ALPHA_BRACKET`. Every bracket ends at alpha = 1,
where H_alpha = H(X|B) and the prefactor s is 0, so the objective is finite
there and a rate close to H(X|B), whose optimal alpha tends to 1, finds it.
Rates on the far side of H(X|B) return an exact 0.0 without any search:
every H_alpha is nonincreasing in alpha and equals H(X|B) at alpha = 1, so
s (R - H_alpha) <= 0 on the whole bracket there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import ndtri

from cqsw.errors import DomainError, RateOutOfWindowError, ZeroVarianceError
from cqsw.conditional import (
    _petz_sibson,
    _tabulated,
    conditional_entropy,
    conditional_variance,
    cq_renyi,
    h_down,
    h_up,
    petz_sigma_star,
)
from cqsw.operators import support_contained
from cqsw.states import CQState, DensityOperator

_GOLDEN_TOL = 1e-8
_SQRT_EPS = math.sqrt(np.finfo(float).eps)
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


def golden_max(f, lo: float, hi: float, tol: float = _GOLDEN_TOL):
    """Maximize a unimodal function on [lo, hi] by Brent's bounded method
    (golden-section steps with parabolic interpolation) to an argument
    tolerance tol; returns (x, f(x)). The exponent searches run it on the
    brackets of `ALPHA_BRACKET`.

    Brent never evaluates the ends. It stops within 2 (sqrt(eps)|x| + tol/3)
    of a maximum at an end, so an end that close is evaluated too and kept
    if it is no lower."""
    res = minimize_scalar(lambda x: -f(x), bounds=(lo, hi), method="bounded",
                          options={"xatol": tol})
    x, fx = float(res.x), -float(res.fun)
    near = 2.0 * (_SQRT_EPS * abs(x) + tol / 3.0)
    for end in (lo, hi):
        if abs(x - end) <= near:
            fe = f(end)
            if fe >= fx:
                x, fx = end, fe
    return x, fx


class HUpEvaluator:
    """Counting view of h_up on one state and variant. The iterate solves
    are memoised on the state itself (`conditional._tabulated_solve`), so
    every view of a state shares them; a view counts what its own calls
    did: solves, table hits, optimizer objective evaluations and the largest
    optimizer residual (`report`). Petz solves are closed forms and never
    hit.
    """

    def __init__(self, s: CQState, variant: str):
        self.state = s
        self.variant = variant
        self.solves = 0
        self.cache_hits = 0
        self.evaluations = 0
        self.residual = 0.0

    def value(self, alpha: float) -> float:
        rep = _tabulated(self.state, alpha, self.variant)
        if rep is not None:
            self.cache_hits += 1
            return rep.value
        rep = h_up(self.state, alpha, self.variant)
        self.solves += 1
        self.evaluations += rep.evaluations
        self.residual = max(self.residual, rep.residual)
        return rep.value

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
    return _exponent(s, rate, kind, HUpEvaluator(s, variant))


def _exponent(s: CQState, rate: float, kind: str, ev: HUpEvaluator) -> float:
    """`exponent` of the variant of ev, whose counts then include this call."""
    if not rate >= 0:
        raise DomainError(f"rate must be nonnegative, got {rate}")
    if kind not in KINDS:
        raise ValueError(f"unknown exponent kind {kind!r}")
    # far side of H(X|B): s (R - H_alpha) <= 0 on the whole bracket
    h1 = conditional_entropy(s)
    if kind.startswith("strong_converse"):
        if rate >= h1:
            return 0.0
    elif rate <= h1:
        return 0.0
    if math.isinf(rate):
        return math.inf  # s (R - H_alpha) is +inf at every s > 0
    if kind == "sphere_packing" and rate > h_up(s, 0.0, ev.variant).value + 1e-9:
        return math.inf
    return _clamp(_alpha_search(s, rate, kind, ev)[1])


def _alpha_search(s: CQState, rate: float, kind: str, ev: HUpEvaluator):
    """(alpha*, sup) of s (R - H_alpha) over the kind's `ALPHA_BRACKET`, with
    H_alpha from ev; random_coding_down takes H_(2 - 1/alpha)^down instead."""
    if kind == "random_coding_down":
        def h(alpha):
            return h_down(s, 2.0 - 1.0 / alpha, "petz")
    else:
        h = ev.value

    def obj(alpha):
        return (1.0 - alpha) / alpha * (rate - h(alpha))

    bracket = next(b for prefix, b in ALPHA_BRACKET.items() if kind.startswith(prefix))
    x, fx = golden_max(obj, *bracket)
    # Brent places alpha only to about sqrt(eps) |alpha|, too coarse where
    # alpha* lies that close to 1 (rates within about 1e-8 of H(X|B)):
    # search the offset from alpha = 1 there instead
    near = 2.0 * (_SQRT_EPS + _GOLDEN_TOL / 3.0)
    if abs(x - 1.0) <= near:
        side = 1.0 if bracket[0] == 1.0 else -1.0
        u, fu = golden_max(lambda u: obj(1.0 + side * u), 0.0, 2.0 * near, 1e-3 * near)
        if fu > fx:
            x, fx = 1.0 + side * u, fu
    return x, fx


@dataclass
class ExponentCurve:
    rates: np.ndarray
    values: np.ndarray
    kind: str
    metadata: dict = field(default_factory=dict)


def exponent_family(s: CQState, rates, kind: str,
                    variant: str | None = None) -> ExponentCurve:
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 1 or not np.all(np.diff(rates) > 0):
        raise DomainError("rates must be a strictly increasing 1-d array")
    if variant is None:
        variant = DEFAULT_VARIANT[kind]
    ev = HUpEvaluator(s, variant)
    vals = np.array([_exponent(s, r, kind, ev) for r in rates])
    return ExponentCurve(rates, vals, kind,
                         {"variant": variant, "alpha_cap": ALPHA_CAP, **ev.report()})


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


def _f_rate(s: CQState, rate: float, alpha: float, sigma_b) -> float:
    d = cq_renyi(s, sigma_b, alpha, "petz")
    if math.isinf(d):
        return math.inf if alpha < 1.0 else -math.inf
    return ((1.0 - alpha) / alpha) * (rate - (-d))


def saddle_point(s: CQState, rate: float) -> SaddleReport:
    """Saddle point of the sphere-packing objective: alpha* and sigma* from
    the sphere-packing search of `exponent`, certified by the sup over alpha
    of the objective at sigma*."""
    h1 = conditional_entropy(s)
    h0 = h_up(s, 0.0, "petz").value
    if not (h1 < rate < h0):
        raise RateOutOfWindowError(
            f"rate {rate} outside ({h1:.6f}, {h0:.6f})"
        )
    alpha_star, sup_inf = _alpha_search(s, rate, "sphere_packing",
                                        HUpEvaluator(s, "petz"))
    sigma_star = petz_sigma_star(s, alpha_star)
    _, sup_at_star = golden_max(lambda a: _f_rate(s, rate, a, sigma_star),
                                *ALPHA_BRACKET["sphere_packing"])
    return SaddleReport(alpha_star, sigma_star, sup_inf, sup_at_star - sup_inf)


def critical_rate(s: CQState) -> float:
    """Rate where the random-coding exponent departs from the sphere packing
    curve: the negated slope of E_0 at s = 1, by Richardson-refined central
    differences."""
    def diff(h):
        return -(e0(s, 1.0 + h) - e0(s, 1.0 - h)) / (2.0 * h)

    h = 1e-5
    return (4.0 * diff(h / 2.0) - diff(h)) / 3.0


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
