"""Independent oracles used by the test suite.

Everything here is deliberately computed by a different route than the
library: adaptive quadrature on the defining integrals instead of closed
forms, a dense grid scan of the fractional objective instead of the
Dinkelbach/KKT machinery, and bisection on J(theta) instead of
Dinkelbach's update.  ``verify_ktilde_negative`` evaluates the
boundary-optimality constant Ktilde over a threshold grid, whose sign the
tests check.  The hitting-time helpers at the end are closed forms and a
wrapper that only the tests call.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import integrate

from wiener_coding import (
    Codebook,
    DriftHitSpec,
    ParameterError,
    ThresholdConfig,
    mse_exact,
    sample_hit_times,
    scheme_constants,
)
from wiener_coding.code_optimizer import build_qp, solve_qp

SQRT2PI = math.sqrt(2 * math.pi)


def phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / SQRT2PI


def quad(f, lo, hi) -> float:
    val, _ = integrate.quad(f, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=400)
    return val


def q_tail(a: float) -> float:
    return quad(phi, a, np.inf)


def q_band_up(a: float, b: float) -> float:
    if a + b == 0:
        return 0.0
    return quad(lambda x: (x + b) / (a + b) * phi(x), -b, a)


def q_band_dn(a: float, b: float) -> float:
    if a + b == 0:
        return 0.0
    return quad(lambda x: (a - x) / (a + b) * phi(x), -b, a)


def q_shifted_moment(a: float, k: int) -> float:
    return quad(lambda x: (x - a) ** k * phi(x), a, np.inf)


def q_tail_moment(a: float, n: int) -> float:
    return quad(lambda x: x**n * phi(x), a, np.inf)


def q_band_moment(a: float, b: float, n: int) -> float:
    if a + b == 0:
        return 0.0
    return quad(lambda x: x**n * phi(x), -b, a)


def oracle_constants(a: float, b: float) -> dict:
    """Scheme constants assembled purely from quadrature."""
    p = (q_tail(a), q_band_up(a, b), q_band_dn(a, b), q_tail(b))
    at = q_tail_moment(a, 2)
    bt = q_tail_moment(b, 2)
    xt = q_band_moment(a, b, 4)
    d = p[1] * a * a + p[2] * b * b + at + bt
    k = (3 + p[1] * a**4 + p[2] * b**4 - xt) / (6 * d)
    p_tilde = (at / d, p[1] * a * a / d, p[2] * b * b / d, bt / d)
    return {"p": p, "a_tilde": at, "b_tilde": bt, "x_tilde": xt, "d": d, "k": k,
            "p_tilde": p_tilde}


def oracle_mse_large_mu(a: float, b: float, lengths) -> tuple[float, float]:
    """(mse, sr) in the large-slope regime, assembled from quadrature."""
    c = oracle_constants(a, b)
    p, pt = c["p"], c["p_tilde"]
    m1 = sum(pi * li for pi, li in zip(p, lengths) if pi > 0)
    m2 = sum(pi * li * li for pi, li in zip(p, lengths) if pi > 0)
    lt = sum(qi * li for qi, li in zip(pt, lengths) if qi > 0)
    return c["k"] * m2 / m1 + lt, 1.0 / (c["d"] * m1)


def grid_search_theta(
    a: float,
    f_max: float = math.inf,
    l_lo: float = 1.0,
    l_hi: float = 24.0,
    coarse_step: float = 0.02,
    refinements: int = 2,
) -> tuple[float, float, float]:
    """Dense 2-D scan of the fractional objective over symmetric lengths.

    Returns (theta, l1, l2).  Coarse scan plus local x10 refinements reach an
    effective resolution well below 1e-3.
    """
    c = oracle_constants(a, a)
    p1, p2 = c["p"][0], c["p"][1]
    pt1, pt2 = c["p_tilde"][0], c["p_tilde"][1]
    k = c["k"]
    rate_floor = 0.0 if math.isinf(f_max) else 1.0 / (c["d"] * f_max)

    def scan(lo1, hi1, lo2, hi2, step):
        g1 = np.arange(lo1, hi1 + step / 2, step)
        g2 = np.arange(lo2, hi2 + step / 2, step)
        L1, L2 = np.meshgrid(g1, g2, indexing="ij")
        feasible = (2.0**-L1 + 2.0**-L2 <= 0.5 + 1e-12)
        m1 = 2 * (p1 * L1 + p2 * L2)
        feasible &= m1 >= rate_floor - 1e-12
        m2 = 2 * (p1 * L1**2 + p2 * L2**2)
        lt = 2 * (pt1 * L1 + pt2 * L2)
        with np.errstate(divide="ignore", invalid="ignore"):
            obj = k * m2 / m1 + lt
        obj[~feasible] = np.inf
        i = np.unravel_index(np.argmin(obj), obj.shape)
        return float(obj[i]), float(L1[i]), float(L2[i])

    theta, l1, l2 = scan(l_lo, l_hi, l_lo, l_hi, coarse_step)
    step = coarse_step
    for _ in range(refinements):
        w = 2 * step
        step /= 10
        theta, l1, l2 = scan(
            max(l_lo, l1 - w), l1 + w, max(l_lo, l2 - w), l2 + w, step
        )
    return theta, l1, l2


def bisection_theta(cfg, rc, width=1e-10, j_tol=1e-9):
    """Root of J(theta) = min l'Ql - q_theta'l by bisection on [0, 10*MSE_2].

    MSE_2 is the uniform-length-2 MSE.  Stops at |J| <= j_tol or a bracket
    narrower than width; returns (theta, QpSolution at theta).
    """
    inst = build_qp(cfg, 0.0, rc)

    def solve_at(theta):
        return solve_qp(replace(inst, q_theta=2.0 * theta * np.array(inst.p)))

    lo, hi = 0.0, 10.0 * mse_exact(replace(cfg, mu=math.inf), Codebook.uniform(2.0)).mse
    assert solve_at(lo).objective > 0.0 and solve_at(hi).objective < 0.0
    theta, sol = hi, None
    while hi - lo > width:
        theta = 0.5 * (lo + hi)
        sol = solve_at(theta)
        if abs(sol.objective) <= j_tol:
            break
        if sol.objective > 0:
            lo = theta
        else:
            hi = theta
    return theta, sol


@dataclass(frozen=True)
class KtildeReport:
    a_values: np.ndarray
    values: np.ndarray
    max_value: float
    argmax_a: float
    all_negative: bool


def verify_ktilde_negative(a_values) -> KtildeReport:
    """Evaluate Ktilde = sum_i p_i*(1 + (p_i - pt_i)/(2K p_i))^2 - (2K+1).

    Zero-probability terms (p_i = pt_i = 0, which happens only at a = 0 for
    the band events) are dropped by the zero-weight convention.
    """
    a_arr = np.asarray(list(a_values), dtype=float)
    if a_arr.size == 0:
        raise ParameterError("a_values must be non-empty")
    vals = np.empty_like(a_arr)
    for i, a in enumerate(a_arr):
        sc = scheme_constants(ThresholdConfig(float(a), float(a), math.inf))
        p = sc.probs.as_tuple()
        pt = sc.p_tilde
        k = sc.k
        total = 0.0
        for pi, qi in zip(p, pt):
            if pi == 0.0 and qi == 0.0:
                continue
            total += pi * (1.0 + (pi - qi) / (2.0 * k * pi)) ** 2
        vals[i] = total - (2.0 * k + 1.0)
    i_max = int(np.argmax(vals))
    return KtildeReport(
        a_values=a_arr,
        values=vals,
        max_value=float(vals[i_max]),
        argmax_a=float(a_arr[i_max]),
        all_negative=bool((vals < 0).all()),
    )


def markov_length_sequence(n: int, stay_prob: float, values, seed: int) -> np.ndarray:
    """Markov chain over length values with inflated self-transitions."""
    rng = np.random.default_rng(seed)
    k = len(values)
    seq = np.empty(n)
    state = int(rng.integers(k))
    for i in range(n):
        seq[i] = values[state]
        if rng.random() < stay_prob:
            continue
        state = int(rng.integers(k))
    return seq


def laplace_transform(spec: DriftHitSpec, lam: float) -> float:
    """Psi(lambda) = E[exp(-lambda*tau_c)] = exp(-c*(sqrt(mu^2 + 2*lambda) - mu))."""
    if lam < 0:
        raise ParameterError(f"lambda must be >= 0, got {lam}")
    mu = spec.mu
    return math.exp(-spec.c * (math.sqrt(mu * mu + 2.0 * lam) - mu))


def band_exit_upper_prob(x: float, a_level: float, b_level: float) -> float:
    """P(driftless BM from x exits [-b_level, a_level] at the top) = (x+b)/(a+b)."""
    if a_level + b_level <= 0:
        raise ParameterError("band must have positive width")
    if not (-b_level <= x <= a_level):
        raise ParameterError(f"start point {x} outside band [{-b_level}, {a_level}]")
    return (x + b_level) / (a_level + b_level)


def band_exit_lower_prob(x: float, a_level: float, b_level: float) -> float:
    """Complement of band_exit_upper_prob; the two sum to 1 exactly."""
    return 1.0 - band_exit_upper_prob(x, a_level, b_level)


def sample_hit_time(spec: DriftHitSpec, step: float, rng_seed: int, horizon=None) -> float:
    """Single-path wrapper around sample_hit_times."""
    return float(sample_hit_times(spec, step, 1, rng_seed, horizon=horizon)[0])
