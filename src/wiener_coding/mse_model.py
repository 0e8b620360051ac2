"""Analytical MSE and sampling rate of the monotone-threshold scheme.

``mse_exact`` assembles the closed form from the per-event conditional
moments.  The sloped-threshold events contribute 1/mu correction terms
through the shifted tail moments A_k, B_k:

    E[C(Y)Y^2] = (l1*At + l4*Bt + p2*l2*a^2 + p3*l3*b^2) * E[L]
                 + (l1*A1 + l4*B1)/mu * E[sqrt(L)]
    E[Y^4]     = (3 + p2*a^4 + p3*b^4 - Xt) * E[L^2]
                 + [6a^2*A1 + 12a*A2 + 6*A3 + (b terms)] * E[L^{3/2}]/mu
                 + [12a*A1 + 15*A2 + (b terms)] * E[L]/mu^2
                 + 15*(A1 + B1) * E[sqrt(L)]/mu^3
    E[tau+L]   = D * E[L] + (A1 + B1)/mu * E[sqrt(L)]
    mse        = (E[Y^4] + 6*E[C(Y)Y^2]) / (6*E[tau+L]),   sr = 1/E[tau+L]

The large-slope regime is mu = inf: every 1/mu term vanishes, leaving
mse = K * E_P[L^2]/E_P[L] + E_Ptilde[L] and sr = 1/(D * E_P[L]).  A
renewal-cycle Monte Carlo check of the underlying optional-stopping identity
E[int_0^tau W^2 dt] = E[W_tau^4]/6 is provided in ``mse_integral_oracle``.

A process variance sigma^2 != 1 is handled by canonicalization: the config
(a, b, mu, sigma2) is mapped to the unit-variance config (a/s, b/s, mu/s)
with s = sqrt(sigma2), which runs through identical cycles in time; the MSE
scales by sigma^2 and the sampling rate is unchanged.  Breakdown component
fields (ey4, ecy2, ...) are always reported in canonical (unit-variance)
terms; only ``mse`` carries the sigma^2 factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .gauss_stats import (
    SchemeConstants,
    ThresholdConfig,
    _finite_real,
    _integer,
    _positive_fields,
    scheme_constants,
)
from .hitting_times import _check_walk, _first_crossings, _span

__all__ = [
    "Codebook",
    "MseBreakdown",
    "IntegralCheck",
    "DeterministicStop",
    "BandStop",
    "SlopedStop",
    "mse_exact",
    "scale_to_sigma",
    "ideal_benchmark_mse",
    "mse_integral_oracle",
]

RELAXED = "relaxed-real"
INTEGER = "integer-prefix"


@dataclass(frozen=True)
class Codebook:
    """Code lengths for the four events, in bit-duration time units.

    ``integer-prefix`` mode requires integer lengths >= 1 satisfying the
    Kraft inequality (sum 2^-li <= 1), the design's constraint.
    ``relaxed-real`` mode allows any positive real lengths, infinity
    included -- analytics reject an infinite length unless its event has
    exactly zero probability weight.  The simulator runs either mode's
    lengths as the four delays, each a whole number of grid steps.
    """

    l1: float
    l2: float
    l3: float
    l4: float
    mode: str = RELAXED

    def __post_init__(self) -> None:
        if self.mode not in (RELAXED, INTEGER):
            raise ParameterError(f"unknown codebook mode {self.mode!r}")
        ls = []
        for name in ("l1", "l2", "l3", "l4"):
            v = _finite_real(name, getattr(self, name), inf_ok=True)
            ls.append(v)
            object.__setattr__(self, name, v)
        if self.mode == INTEGER:
            # infinity stands for a codeword that is never transmitted; it is
            # only legal for zero-probability events (checked at use sites)
            for name, v in zip(("l1", "l2", "l3", "l4"), ls):
                if not math.isinf(v) and not (v >= 1 and v == int(v)):
                    raise ParameterError(f"{name} must be a positive integer or inf, got {v}")
            kraft = sum(2.0 ** -v for v in ls)
            if kraft > 1.0 + 1e-12:
                raise ParameterError(f"lengths violate the Kraft inequality (sum 2^-l = {kraft})")
        else:
            for name, v in zip(("l1", "l2", "l3", "l4"), ls):
                if v <= 0:
                    raise ParameterError(f"{name} must be > 0, got {v}")

    @classmethod
    def relaxed(cls, l1: float, l2: float, l3: float, l4: float) -> "Codebook":
        return cls(l1, l2, l3, l4, mode=RELAXED)

    @classmethod
    def integer(cls, l1: int, l2: int, l3: int, l4: int) -> "Codebook":
        return cls(l1, l2, l3, l4, mode=INTEGER)

    @classmethod
    def uniform(cls, length: float, mode: str = RELAXED) -> "Codebook":
        return cls(length, length, length, length, mode=mode)

    @property
    def lengths(self) -> tuple[float, float, float, float]:
        return (self.l1, self.l2, self.l3, self.l4)


UNIT_DELAYS = Codebook.uniform(1.0)  # the ideal benchmark's: a sample arrives 1 time unit on


@dataclass(frozen=True)
class MseBreakdown:
    """MSE/SR with the intermediate expectations that build them.

    etau is the mean cycle duration E[tau + L]; sr = 1/etau always.
    Component fields are canonical (unit-variance) quantities; mse includes
    the sigma^2 factor of the configuration it was computed for.
    """

    mse: float
    sr: float
    ey4: float
    ecy2: float
    etau: float
    lbar: float
    l2bar: float
    lsqrtbar: float
    ltilde: float


def _weighted_sum(weights, values) -> float:
    """Sum w_i * v_i over the nonzero weights (0 * inf = 0), left to right:
    sum() compensates float additions from Python 3.12 on."""
    total = 0.0
    for w, v in zip(weights, values):
        if w != 0.0:
            total += w * v
    return total


def _pmf_length_moments(sc: SchemeConstants, cb: Codebook, cy2):
    """(E[L], E[L^2], E[sqrt L], E[L^1.5], E_Ptilde[L]) under the event PMFs.

    An infinite length is only admissible when every weight that multiplies
    it in the closed forms is exactly zero: its event probability, its
    length-weighting probability and its E[C(Y)Y^2] weight cy2 (which stays
    subnormal where p_tilde = cy2/d underflows); a finite one whose square
    overflows is rejected as too large.
    """
    p = sc.probs.as_tuple()
    pt = sc.p_tilde
    ls = cb.lengths
    cy2_names = ("a_tilde", "p2*a^2", "p3*b^2", "b_tilde")
    for i, li in enumerate(ls):
        if math.isinf(li) and (p[i] != 0.0 or pt[i] != 0.0 or cy2[i] != 0.0):
            weights = ((f"p{i + 1}", p[i]), (f"p_tilde{i + 1}", pt[i]), (cy2_names[i], cy2[i]))
            nonzero = ", ".join(f"{name}={w}" for name, w in weights if w != 0.0)
            raise ParameterError(
                f"l{i + 1} is infinite but its event has positive weight ({nonzero})"
            )
        if math.isinf(li * li) and p[i] != 0.0:
            raise ParameterError(
                f"l{i + 1} = {li} is too large for the closed forms (l**2 overflows)"
            )
    m1 = _weighted_sum(p, ls)
    m2 = _weighted_sum(p, [l * l for l in ls])
    mh = _weighted_sum(p, [math.sqrt(l) for l in ls])
    m32 = _weighted_sum(p, [l * math.sqrt(l) for l in ls])
    ltilde = _weighted_sum(pt, ls)
    return m1, m2, mh, m32, ltilde


def scale_to_sigma(cfg: ThresholdConfig) -> ThresholdConfig:
    """Unit-variance configuration equivalent to cfg.

    The sigma^2-variance process with thresholds (a, b) and slope mu runs
    through the same cycles as the unit process with (a/s, b/s, mu/s),
    s = sqrt(sigma2); its MSE is sigma^2 times the canonical MSE and its
    sampling rate is the canonical one.
    """
    s = math.sqrt(cfg.sigma2)
    if s == 1.0:
        return cfg
    return ThresholdConfig(cfg.a / s, cfg.b / s, cfg.mu / s, 1.0)


def mse_exact(cfg: ThresholdConfig, cb: Codebook) -> MseBreakdown:
    """MSE and sampling rate with all 1/mu correction terms.

    mu = inf gives the large-slope limit, where the correction terms are 0; so
    does a slope whose cube overflows (above about 5.6e102 in sigma units).
    Raises ParameterError instead of returning an overflowed value: for code
    lengths whose powers overflow, for a slope so small (about 1e-103 in
    sigma units or less) that a 1/mu term overflows or mu**3 underflows to 0,
    and for a sigma2 or code lengths at which the MSE or the rate overflows.
    """
    canon = scale_to_sigma(cfg)
    sc = scheme_constants(canon)
    a, b, mu = canon.a, canon.b, canon.mu
    p = sc.probs
    cy2 = (sc.a_tilde, p.p2 * a * a, p.p3 * b * b, sc.b_tilde)  # E[C(Y)Y^2] weights
    m1, m2, mh, m32, ltilde = _pmf_length_moments(sc, cb, cy2)
    try:
        mu3 = mu**3
    except OverflowError:  # 1/mu terms below double resolution (lengths > ~1e-170)
        mu = mu3 = math.inf
    if mu3 == 0.0:
        raise ParameterError(
            f"slope too small for the closed forms (mu**3 underflows to 0): mu={cfg.mu}"
        )
    A = sc.moments.upper
    B = sc.moments.lower

    ecy2 = _weighted_sum(cy2, cb.lengths) * m1
    ey4 = (3.0 + p.p2 * a**4 + p.p3 * b**4 - sc.x_tilde) * m2
    etau = sc.d * m1
    if not math.isfinite(ey4 + 6.0 * ecy2):
        raise ParameterError(
            f"code lengths too large for the closed forms (E[Y^4] overflows): {cb.lengths}"
        )
    if math.isinf(mu):
        # equal to (ey4 + 6*ecy2)/(6*etau) here, but that rounds differently
        # in the last bit; this is the form the optimizer's objective uses
        mse = sc.k * m2 / m1 + ltilde
    else:
        ecy2 += _weighted_sum((A[1], 0.0, 0.0, B[1]), cb.lengths) / mu * mh
        ey4 = (
            ey4
            + (
                (6 * a * a * A[1] + 12 * a * A[2] + 6 * A[3])
                + (6 * b * b * B[1] + 12 * b * B[2] + 6 * B[3])
            )
            * m32
            / mu
            + ((12 * a * A[1] + 15 * A[2]) + (12 * b * B[1] + 15 * B[2])) * m1 / mu**2
            + 15.0 * (A[1] + B[1]) * mh / mu3
        )
        etau += (A[1] + B[1]) / mu * mh
        mse = (ey4 + 6.0 * ecy2) / (6.0 * etau)
        if not (math.isfinite(ey4) and math.isfinite(etau) and math.isfinite(mse)):
            raise ParameterError(
                f"slope too small for the closed forms (a 1/mu term overflows): mu={cfg.mu}"
            )
    mse *= cfg.sigma2
    sr = 1.0 / etau
    if math.isinf(mse) or math.isinf(sr):
        raise ParameterError(
            f"the closed forms overflow at sigma2={cfg.sigma2} with code lengths "
            f"{cb.lengths}: mse={mse}, sr={sr}"
        )
    return MseBreakdown(
        mse=mse,
        sr=sr,
        ey4=ey4,
        ecy2=ecy2,
        etau=etau,
        lbar=m1,
        l2bar=m2,
        lsqrtbar=mh,
        ltilde=ltilde,
    )


def ideal_benchmark_mse(a: float) -> tuple[float, float]:
    """(mse, sr) of the ideal-sampling benchmark: real-valued samples, unit delay.

    The source samples whenever |W - West| >= a with the channel free, which
    is the scheme at b = a with unit delays at mu = inf.  tests/oracles.py
    derives it independently, from the exit value's moments.
    """
    bd = mse_exact(ThresholdConfig(a, a, math.inf), UNIT_DELAYS)
    return bd.mse, bd.sr


# ---------------------------------------------------------------------------
# Monte Carlo check of the optional-stopping identity E[int W^2] = E[W_tau^4]/6
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeterministicStop:
    """Stop at the fixed time t > 0."""

    t: float

    def __post_init__(self) -> None:
        _positive_fields(self, "t")


@dataclass(frozen=True)
class BandStop:
    """Stop when W leaves the band (-b_level, a_level); both levels > 0."""

    a_level: float
    b_level: float

    def __post_init__(self) -> None:
        _positive_fields(self, "a_level", "b_level")


@dataclass(frozen=True)
class SlopedStop:
    """Stop when W hits the falling line c - mu*t (drifted hitting-time law)."""

    c: float
    mu: float

    def __post_init__(self) -> None:
        _positive_fields(self, "c", "mu")


StopSpec = DeterministicStop | BandStop | SlopedStop


@dataclass(frozen=True)
class IntegralCheck:
    """Both sides of the stopping identity with per-path paired statistics."""

    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    diff: float
    diff_se: float
    n_paths: int
    n_truncated: int


def _summarize(lhs: np.ndarray, rhs: np.ndarray, n_truncated: int) -> IntegralCheck:
    n = lhs.size
    d = lhs - rhs
    return IntegralCheck(
        lhs=float(lhs.mean()),
        lhs_se=float(lhs.std(ddof=1) / math.sqrt(n)),
        rhs=float(rhs.mean()),
        rhs_se=float(rhs.std(ddof=1) / math.sqrt(n)),
        diff=float(d.mean()),
        diff_se=float(d.std(ddof=1) / math.sqrt(n)),
        n_paths=n,
        n_truncated=n_truncated,
    )


def mse_integral_oracle(
    stop: StopSpec,
    horizon: float = 1e4,
    n_paths: int = 20_000,
    step: float = 1e-3,
    seed: int = 0,
) -> IntegralCheck:
    """Monte Carlo estimates of E[int_0^tau W^2 dt] and E[W_tau^4]/6.

    The integral uses the left-Riemann sum plus the discrete-martingale
    compensator step*tau/2, which makes the two sides agree exactly in
    expectation for the simulated walk at any step size; tau is the time
    walked, k*step for a stop at grid step k.  Paths alive at the horizon
    are stopped there and counted in n_truncated (flagged, not raised).  A
    deterministic stop at t walks round(t/step) steps, at least one, and
    raises ParameterError when t > horizon.

    Every stop is a pair of lines for hitting_times' first-crossing kernel:
    a deterministic stop none, a band stop its two levels, a sloped stop one
    falling line; memory is a few tiles plus a few floats per path.  The
    kernel walks in spans of hitting_times._span's m grid steps, read from
    the gap g between 0 and the nearest line (min(a, b) for a band, c for a
    sloped stop, inf for a deterministic one): a span it skips adds its grid
    points' mean sum of squares given its ends, and every other span is
    walked step by step, so the sum keeps the grid walk's expectation and
    the two sides still agree exactly in expectation.  An
    n_paths that is not an integer >= 2 or a seed that is not an integer
    >= 0 raises ParameterError.
    """
    _integer("seed", seed, 0)
    _integer("n_paths", n_paths, 2)
    n_steps = _check_walk(n_paths, step, horizon)
    if isinstance(stop, DeterministicStop):
        if stop.t > horizon:
            raise ParameterError(f"a deterministic stop at t = {stop.t} is past the "
                                 f"horizon {horizon}")
        n_steps = max(1, round(stop.t / step))
        lines, gap = (np.inf, 0.0, -np.inf, 0.0), np.inf
    elif isinstance(stop, BandStop):
        lines, gap = (stop.a_level, 0.0, -stop.b_level, 0.0), min(stop.a_level, stop.b_level)
    elif isinstance(stop, SlopedStop):
        lines, gap = (stop.c, -stop.mu, -np.inf, 0.0), stop.c
    else:
        raise ParameterError(f"unknown stop spec {stop!r}")
    span = _span(np.array([gap * gap]), math.sqrt(step))  # from the gap to the nearest line
    k, w, sq, stuck = _first_crossings(np.random.default_rng(seed), np.zeros(n_paths), lines,
                                       n_steps, step, span=span)
    lhs = step * sq + 0.5 * step * (k * step)
    # a deterministic stop is no crossing: its paths all stop at n_steps
    truncated = 0 if isinstance(stop, DeterministicStop) else stuck.size
    return _summarize(lhs, w**4 / 6.0, truncated)
