"""Closed-form Gaussian quantities for the monotone-threshold sampling scheme.

The scheme classifies each cycle into one of four events depending on where
the normalized increment X/sqrt(L) ~ N(0,1) sits relative to the band
[-b, a]:

    1: above a            (caught by the rising sloped threshold)
    2: exits band at +a   (constant upper threshold)
    3: exits band at -b   (constant lower threshold)
    4: below -b           (caught by the falling sloped threshold)

Everything here reduces to the standard normal pdf phi and the upper tail
Q(x) = erfc(x/sqrt(2))/2.  All values are closed forms; an adaptive
quadrature oracle lives in the test suite and pins every one of them.

Closed forms used (derived by integration by parts; G_n(t) = int_t^inf x^n phi):

    G_2(t) = t*phi(t) + Q(t)
    G_4(t) = (t^3 + 3t)*phi(t) + 3*Q(t)
    A_0 = Q(a),  A_1 = phi(a) - a*Q(a)
    A_{k+1} = k*A_{k-1} - a*A_k          (k >= 1)

Band probabilities (gambler's-ruin weighting of the start point):

    p2 = [phi(b) - phi(a) + b*s] / (a+b),   s = (erf(a/sqrt2) + erf(b/sqrt2))/2
    p3 = [a*s - (phi(b) - phi(a))] / (a+b)

phi(b) - phi(a) is evaluated as phi(a)*expm1((a-b)(a+b)/2) to stay accurate
when a and b are both small (phi(b) alone once that exponent passes 700).
For a = b = 0 the band is empty and the band quantities are exactly 0 by
convention.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import ParameterError

__all__ = [
    "ThresholdConfig",
    "EventProbabilities",
    "PartialMoments",
    "SchemeConstants",
    "gauss_pdf",
    "gauss_tail",
    "event_probabilities",
    "scheme_constants",
]

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


def gauss_pdf(x: float) -> float:
    """Standard normal density phi(x)."""
    return math.exp(-0.5 * x * x) / _SQRT2PI


def gauss_tail(x: float) -> float:
    """Upper tail Q(x) = P(N(0,1) > x), via erfc (relative error <= 1e-14)."""
    return 0.5 * math.erfc(x / _SQRT2)


def _finite_real(name: str, v: object, inf_ok: bool = False) -> float:
    """v as a float if it is a finite real number, or +inf when inf_ok
    (numpy scalars too, bool not)."""
    if (isinstance(v, bool) or not isinstance(v, numbers.Real)
            or not (math.isfinite(v) or (inf_ok and v == math.inf))):
        raise ParameterError(f"{name} must be a finite number{' or inf' * inf_ok}, got {v!r}")
    return float(v)


def _integer(name: str, v: object, least: int) -> int:
    """v if it is an integer >= least (numpy integers too, bool not)."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {v!r}")
    return v


def _positive_fields(obj: object, *names: str) -> None:
    """Store the named fields of a frozen dataclass as floats, each finite and > 0."""
    for name in names:
        v = _finite_real(name, getattr(obj, name))
        if v <= 0:
            raise ParameterError(f"{type(obj).__name__}.{name} must be > 0, got {v}")
        object.__setattr__(obj, name, v)


@dataclass(frozen=True)
class ThresholdConfig:
    """Scheme parameters: band coefficients a, b, slope mu, process variance sigma2.

    Thresholds are +-a*sqrt(L) / -+b*sqrt(L) (constant part) and the sloped
    catch-up thresholds grow at rate mu.  mu = inf is the large-slope limit,
    where a sample beyond the band is caught at once.  mu = 0 is rejected:
    without a growing threshold the out-of-band hitting time has infinite mean.
    """

    a: float
    b: float
    mu: float
    sigma2: float = 1.0

    def __post_init__(self) -> None:
        for name in ("a", "b", "mu", "sigma2"):
            object.__setattr__(self, name, _finite_real(name, getattr(self, name), name == "mu"))
        if self.a < 0 or self.b < 0:
            raise ParameterError(f"thresholds must be non-negative, got a={self.a}, b={self.b}")
        if self.mu <= 0:
            raise ParameterError(f"slope mu must be > 0 (mu = 0 is unstable), got {self.mu}")
        if self.sigma2 <= 0:
            raise ParameterError(f"sigma2 must be > 0, got {self.sigma2}")


@dataclass(frozen=True)
class EventProbabilities:
    """Probabilities of the four sampling events; p1+p2+p3+p4 = 1."""

    p1: float
    p2: float
    p3: float
    p4: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p1, self.p2, self.p3, self.p4)


@dataclass(frozen=True)
class PartialMoments:
    """Upper/lower shifted tail moments A_k = int_a^inf (x-a)^k phi, k = 0..4."""

    upper: tuple[float, float, float, float, float]
    lower: tuple[float, float, float, float, float]


@dataclass(frozen=True)
class SchemeConstants:
    """Derived constants of the scheme at a given threshold pair.

    a_tilde/b_tilde are the tail second moments, x_tilde the band fourth
    moment, d the cycle-length normalizer, k the quadratic MSE coefficient,
    and p_tilde the length-weighting PMF (a_tilde/d, p2*a^2/d, p3*b^2/d,
    b_tilde/d).
    """

    probs: EventProbabilities
    moments: PartialMoments
    a_tilde: float
    b_tilde: float
    x_tilde: float
    d: float
    k: float
    p_tilde: tuple[float, float, float, float]


def event_probabilities(cfg: ThresholdConfig) -> EventProbabilities:
    """Event probabilities for the four stopping events.

    p1 = Q(a), p4 = Q(b); p2/p3 weight the band by the linear exit
    probabilities of driftless Brownian motion.  Empty band (a = b = 0)
    gives p2 = p3 = 0 exactly.
    """
    a, b = cfg.a, cfg.b
    p1 = gauss_tail(a)
    p4 = gauss_tail(b)
    if a + b == 0.0:
        return EventProbabilities(p1, 0.0, 0.0, p4)
    s = 0.5 * (math.erf(a / _SQRT2) + math.erf(b / _SQRT2))
    # phi(b) - phi(a); beyond x = 700 expm1 would overflow, and phi(a) is then
    # below 1e-304 * phi(b), so phi(b) alone is exact to double precision
    x = 0.5 * (a - b) * (a + b)
    dphi = gauss_pdf(a) * math.expm1(x) if x < 700.0 else gauss_pdf(b)
    p2 = (dphi + b * s) / (a + b)
    p3 = (a * s - dphi) / (a + b)
    return EventProbabilities(p1, p2, p3, p4)


def _shifted_tail_moments(a: float) -> tuple[float, float, float, float, float]:
    """A_0..A_4 by the two-term recursion A_{k+1} = k*A_{k-1} - a*A_k."""
    a0 = gauss_tail(a)
    a1 = gauss_pdf(a) - a * a0
    out = [a0, a1]
    for k in range(1, 4):
        out.append(k * out[k - 1] - a * out[k])
    return tuple(out)  # type: ignore[return-value]


def _tail_moment_2(t: float) -> float:
    return t * gauss_pdf(t) + gauss_tail(t)


def _tail_moment_4(t: float) -> float:
    return (t * t * t + 3.0 * t) * gauss_pdf(t) + 3.0 * gauss_tail(t)


def scheme_constants(cfg: ThresholdConfig) -> SchemeConstants:
    """All derived constants for a threshold pair.

    d > 0 always: for a = b = 0 the band terms vanish and d = 1 exactly
    (the two tail second moments are each 1/2).
    """
    probs = event_probabilities(cfg)
    a, b = cfg.a, cfg.b
    a_tilde = _tail_moment_2(a)
    b_tilde = _tail_moment_2(b)
    if a + b == 0.0:
        x_tilde = 0.0
    else:
        # int_{-b}^{a} x^4 phi = 3 - G4(a) - G4(b)
        x_tilde = 3.0 - _tail_moment_4(a) - _tail_moment_4(b)
    band2 = probs.p2 * a * a + probs.p3 * b * b
    try:
        band4 = probs.p2 * a ** 4 + probs.p3 * b ** 4
    except OverflowError:
        raise ParameterError(
            f"thresholds too large for the closed forms (a**4 overflows): a={a}, b={b}"
        ) from None
    d = band2 + a_tilde + b_tilde
    k = (3.0 + band4 - x_tilde) / (6.0 * d)
    p_tilde = (a_tilde / d, probs.p2 * a * a / d, probs.p3 * b * b / d, b_tilde / d)
    return SchemeConstants(
        probs=probs,
        moments=PartialMoments(_shifted_tail_moments(a), _shifted_tail_moments(b)),
        a_tilde=a_tilde,
        b_tilde=b_tilde,
        x_tilde=x_tilde,
        d=d,
        k=k,
        p_tilde=p_tilde,
    )
