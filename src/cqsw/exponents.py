"""Error and strong-converse exponent functions of a classical-quantum
source, the sphere-packing saddle point, the critical rate, and the
moderate-deviation and second-order helpers.

Conventions: rates and exponents in bits; s and alpha related by
alpha = 1/(1+s). Suprema over alpha use golden-section search, justified
by concavity of s -> E_0(s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.special import ndtri

from cqsw.errors import DomainError, RateOutOfWindowError, ZeroVarianceError
from cqsw.conditional import (
    _petz_acc_spectrum,
    _sigma_from_params,
    _traceless_basis,
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
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
ALPHA_CAP = 64.0

KINDS = (
    "random_coding_down",
    "random_coding",
    "sphere_packing",
    "strong_converse_star",
    "strong_converse_flat",
)


def golden_max(f, lo: float, hi: float, tol: float = _GOLDEN_TOL):
    """Maximize a unimodal function on [lo, hi]; returns (x, f(x))."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


class HUpEvaluator:
    """Memoized conditional-entropy evaluations with warm-started optimizer.

    Golden-section probes nearby alpha values repeatedly; reusing the last
    optimizer solution as the starting point makes the inner optimization
    cheap after the first call.
    """

    def __init__(self, s: CQState, variant: str, restarts_first: int = 5):
        self.state = s
        self.variant = variant
        self.restarts_first = restarts_first
        self._cache: dict[float, float] = {}
        self._warm = None

    def value(self, alpha: float) -> float:
        key = round(alpha, 12)
        if key in self._cache:
            return self._cache[key]
        if self.variant == "petz":
            val = h_up(self.state, alpha, "petz", "closed_form").value
        else:
            restarts = 1 if self._warm is not None else self.restarts_first
            rep = h_up(self.state, alpha, self.variant, "iterate",
                       restarts=restarts, sigma0_params=self._warm)
            self._warm = getattr(rep, "params", None)
            val = rep.value
        self._cache[key] = val
        return val


def e0(s: CQState, sval: float, variant: str = "petz",
       evaluator: HUpEvaluator | None = None) -> float:
    """E_0(s) = -s H_(1/(1+s))^up; petz uses the Sibson closed form."""
    if sval <= -1.0:
        raise DomainError(f"s must exceed -1, got {sval}")
    if sval == 0.0:
        return 0.0
    alpha = 1.0 / (1.0 + sval)
    if variant == "petz":
        # log2 Tr acc^(1+s) = (1+s) log2 w_max + log2 sum_i (w_i/w_max)^(1+s)
        # over the spectrum of acc = sum_x (p rho_x)^alpha; the scaled form
        # stays finite where acc^(1+s) itself overflows
        w, _ = _petz_acc_spectrum(s, alpha)
        top = float(w[-1])
        if top <= 0.0:
            return -math.inf
        on = w > 0.0
        scaled = float(np.sum((w[on] / top) ** (1.0 + sval)))
        return -((1.0 + sval) * math.log2(top) + math.log2(scaled))
    if evaluator is not None and evaluator.variant == variant:
        return -sval * evaluator.value(alpha)
    return -sval * h_up(s, alpha, variant, "iterate", restarts=5).value


def e0_down(s: CQState, sval: float) -> float:
    """E_0^down(s) = -s H_(1-s)^down for s in [0, 1]."""
    if not 0.0 <= sval <= 1.0:
        raise DomainError(f"s must lie in [0, 1], got {sval}")
    if sval == 0.0:
        return 0.0
    return -sval * h_down(s, 1.0 - sval, "petz")


def _clamp(v: float) -> float:
    return v if v > 0.0 else 0.0


def exponent(s: CQState, rate: float, kind: str, variant: str | None = None,
             evaluator: HUpEvaluator | None = None,
             alpha_cap: float = ALPHA_CAP) -> float:
    """One exponent value at the given rate; +inf where the function diverges."""
    if rate < 0:
        raise DomainError(f"rate must be nonnegative, got {rate}")
    if kind not in KINDS:
        raise ValueError(f"unknown exponent kind {kind!r}")

    if kind == "random_coding_down":
        def obj(alpha):
            sv = (1.0 - alpha) / alpha
            return sv * (rate - h_down(s, 2.0 - 1.0 / alpha, "petz"))
        _, val = golden_max(obj, 0.5, 1.0)
        return _clamp(val)

    if variant is None:
        variant = {"random_coding": "petz", "sphere_packing": "petz",
                   "strong_converse_star": "sandwiched",
                   "strong_converse_flat": "flat"}[kind]
    ev = evaluator if (evaluator is not None and evaluator.variant == variant) \
        else HUpEvaluator(s, variant)

    def obj(alpha):
        sv = (1.0 - alpha) / alpha
        return sv * (rate - ev.value(alpha))

    if kind == "random_coding":
        _, val = golden_max(obj, 0.5, 1.0)
        return _clamp(val)
    if kind == "sphere_packing":
        h1 = conditional_entropy(s)
        if rate <= h1:
            return 0.0
        h0 = h_up(s, 0.0, variant).value
        if rate > h0 + 1e-9:
            return math.inf
        _, val = golden_max(obj, 0.01, 0.999)
        return _clamp(val)
    # strong converse families: alpha above one, objective negative prefactor
    _, val = golden_max(obj, 1.001, alpha_cap)
    return _clamp(val)


@dataclass
class ExponentCurve:
    rates: np.ndarray
    values: np.ndarray
    kind: str
    metadata: dict = field(default_factory=dict)


def exponent_family(s: CQState, rates, kind: str,
                    variant: str | None = None) -> ExponentCurve:
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 1 or np.any(np.diff(rates) <= 0):
        raise DomainError("rates must be a strictly increasing 1-d array")
    if variant is None and kind in ("random_coding", "sphere_packing"):
        variant = "petz"
    if variant is None:
        variant = {"strong_converse_star": "sandwiched",
                   "strong_converse_flat": "flat",
                   "random_coding_down": "petz"}[kind]
    ev = HUpEvaluator(s, variant)
    vals = np.array([exponent(s, r, kind, variant, evaluator=ev) for r in rates])
    return ExponentCurve(rates, vals, kind,
                         {"variant": variant, "alpha_cap": ALPHA_CAP})


@dataclass
class SaddleReport:
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
    """Saddle point of the sphere-packing objective: alpha*, sigma*, gap."""
    h1 = conditional_entropy(s)
    h0 = h_up(s, 0.0, "petz").value
    if not (h1 < rate < h0):
        raise RateOutOfWindowError(
            f"rate {rate} outside ({h1:.6f}, {h0:.6f})"
        )
    ev = HUpEvaluator(s, "petz")

    def outer(alpha):
        return ((1.0 - alpha) / alpha) * (rate - ev.value(alpha))

    alpha_star, sup_inf = golden_max(outer, 0.01, 0.9999999)
    sigma_star = petz_sigma_star(s, alpha_star)

    # other optimization order: minimize over sigma the sup over alpha
    d = s.dim_b
    basis = _traceless_basis(d)
    sw, sv = sigma_star.spectrum()
    sw = np.clip(sw, 1e-14, None)
    logm = (sv * np.log(sw)) @ sv.conj().T
    logm -= np.trace(logm).real / d * np.eye(d)
    x0 = np.array([np.real(np.trace(b.conj().T @ logm)) / np.real(np.trace(b.conj().T @ b))
                   for b in basis])

    def inner_sup(x):
        sig = _sigma_from_params(x, basis, d)
        _, v = golden_max(lambda a: _f_rate(s, rate, a, sig), 0.001, 0.9999999,
                          tol=1e-9)
        return v

    res = minimize(inner_sup, x0, method="Nelder-Mead",
                   options={"xatol": 1e-7, "fatol": 1e-12, "maxiter": 2000})
    inf_sup = float(res.fun)
    gap = abs(sup_inf - inf_sup)
    return SaddleReport(alpha_star, sigma_star, float(sup_inf), gap)


def critical_rate(s: CQState) -> float:
    """Rate where the random-coding exponent departs from the sphere packing
    curve: the negated slope of E_0 at s = 1, by Richardson-refined central
    differences."""
    def diff(h):
        return -(e0(s, 1.0 + h) - e0(s, 1.0 - h)) / (2.0 * h)

    h = 1e-5
    return (4.0 * diff(h / 2.0) - diff(h)) / 3.0


def moderate_ratio(s: CQState, delta: float) -> float:
    """E_sp(H(X|B)+delta) / delta^2; approaches 1/(2V) as delta shrinks."""
    if delta <= 0:
        raise DomainError(f"delta must be positive, got {delta}")
    v = conditional_variance(s)
    if v <= 1e-9:
        raise ZeroVarianceError("conditional information variance is zero")
    h = conditional_entropy(s)
    return exponent(s, h + delta, "sphere_packing") / (delta * delta)


def second_order_reference(s: CQState, n: int, epsilon: float) -> float:
    """Gaussian-approximation reference code size exponent in bits:
    n H(X|B) - sqrt(n V(X|B)) * quantile(epsilon)."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0,1), got {epsilon}")
    v = conditional_variance(s)
    if v <= 1e-9:
        raise ZeroVarianceError("conditional information variance is zero")
    h = conditional_entropy(s)
    return n * h - math.sqrt(n * v) * float(ndtri(epsilon))


def saddle_sigma_support_ok(s: CQState, report: SaddleReport) -> bool:
    """Every side-information block must be supported inside sigma*."""
    return all(
        support_contained(r, report.sigma_star.matrix) for _, r in s.blocks()
    )
