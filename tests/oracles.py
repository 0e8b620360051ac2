"""Independent oracles used by the test suite.

Everything here is deliberately computed by a different route than the
library: adaptive quadrature on the defining integrals instead of closed
forms, the ideal benchmark from its exit value's moments instead of
mse_exact at unit delays, a dense grid scan of the fractional objective
instead of the Dinkelbach machinery, an enumeration of the QP's constraint-activity
patterns (KKT points from linear solves and 1-D root searches) instead of
the interior-point Newton solver, and bisection on J(theta), solved by that
enumeration, instead of Dinkelbach's update.  ``verify_ktilde_negative``
evaluates the boundary-optimality constant Ktilde over a threshold grid,
whose sign the tests check.  The hitting-time helpers are closed forms, a
wrapper that only the tests call and a reference walker that draws each
chunk whole where the kernel draws it in row tiles.  The sequential engine
at the end walks one long grid path per replication, step by step, where
the simulator runs many short chains and draws each transmission at once.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import integrate
from scipy.optimize import brentq

from wiener_coding import (
    LENGTH_CAP,
    Codebook,
    DriftHitSpec,
    InfeasibleError,
    ParameterError,
    SimConfig,
    ThresholdConfig,
    mse_exact,
    sample_hit_times,
    scheme_constants,
)
from wiener_coding import hitting_times
from wiener_coding.code_optimizer import QpInstance, QpSolution, build_qp

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


def ideal_benchmark(a: float) -> tuple[float, float]:
    """(mse, sr) of the ideal-sampling benchmark from the exit value's moments.

    The source samples whenever |W - West| >= a with the channel free and
    delivers the real value after one time unit.  With X ~ N(0,1) the error
    after a delivery, the exit value Y satisfies

        E[Y^2] = 2*G2(a) + a^2*(1 - 2Q(a)),  E[Y^4] = 2*G4(a) + a^4*(1 - 2Q(a))

    (G_n(t) = int_t^inf x^n phi), and by optional stopping mse = 1 +
    E[Y^4]/(6*E[Y^2]) and sr = 1/E[Y^2].  The library takes the same values
    from mse_exact at unit delays and mu = inf.
    """
    q = 0.5 * math.erfc(a / math.sqrt(2.0))
    g2 = a * phi(a) + q
    g4 = (a**3 + 3 * a) * phi(a) + 3 * q
    p_band = 1.0 - 2.0 * q
    ey2 = 2.0 * g2 + a * a * p_band
    ey4 = 2.0 * g4 + a**4 * p_band
    return 1.0 + ey4 / (6.0 * ey2), 1.0 / ey2


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


_LN2 = math.log(2.0)
_DUAL_TOL = 1e-9
_PRIMAL_TOL = 1e-9
_KRAFT_LO = 1.0 + 1e-9  # just above the reduced Kraft curve's floor l1 = 1
# where the Kraft pattern samples the sign of its derivative
_KRAFT_SAMPLES = np.concatenate(
    [_KRAFT_LO + np.logspace(-9, 0, 24), np.linspace(_KRAFT_LO + 1.0, LENGTH_CAP, 40)]
)


def _kraft_partner(l: float, bound: float) -> float:
    """Length pairing with l on the Kraft boundary; inf if it does not bind."""
    rem = bound - 2.0**-l
    if rem <= 0:
        return math.inf
    return -math.log2(rem)


def _grad(inst: QpInstance, l1: float, l2: float) -> np.ndarray:
    return 2.0 * inst.Q @ np.array([l1, l2]) - inst.q_theta


def _solve_fixed(inst: QpInstance, fixed_idx: int, fixed_val: float) -> QpSolution | None:
    """1-D convex solve with one length pinned (cap or degenerate p2 = 0)."""
    free_idx = 1 - fixed_idx
    p_free = inst.p[free_idx]
    p_fix = inst.p[fixed_idx]
    if p_free == 0.0:
        return None
    kmin = _kraft_partner(fixed_val, inst.kraft_bound)
    if math.isinf(kmin):
        return None
    rmin = (inst.rate_bound / 2.0 - p_fix * fixed_val) / p_free
    lo = max(kmin, rmin)
    if lo > LENGTH_CAP:
        return None
    qd = inst.Q[free_idx, free_idx]
    qo = inst.Q[free_idx, fixed_idx]
    qlin = inst.q_theta[free_idx]
    x = (qlin - 2 * qo * fixed_val) / (2 * qd) if qd > 0 else -math.inf
    x = min(max(x, lo), LENGTH_CAP)
    l = [0.0, 0.0]
    l[fixed_idx] = fixed_val
    l[free_idx] = x
    g = _grad(inst, l[0], l[1])
    lam = gamma = 0.0
    if abs(x - kmin) < 1e-12:
        lam = g[free_idx] / (_LN2 * 2.0**-x)
    elif abs(x - rmin) < 1e-12 and inst.rate_bound > 0:
        gamma = g[free_idx] / (2.0 * p_free)
    if lam < -_DUAL_TOL or gamma < -_DUAL_TOL:
        return None
    return QpSolution(
        l1=float(l[0]),
        l2=float(l[1]),
        lam=float(max(lam, 0.0)),
        gamma=float(max(gamma, 0.0)),
        objective=float(inst.objective(l[0], l[1])),
        capped=True,
    )


def _candidate(
    inst: QpInstance, l1: float, l2: float, lam: float, gamma: float
) -> QpSolution | None:
    """Filter a KKT candidate on primal and dual feasibility.

    A length above the cap is dropped: the Kraft pattern always offers the
    capped endpoints.
    """
    if not (0 < l1 <= LENGTH_CAP and 0 < l2 <= LENGTH_CAP):
        return None
    if inst.kraft_slack(l1, l2) < -_PRIMAL_TOL:
        return None
    if inst.rate_slack(l1, l2) < -_PRIMAL_TOL:
        return None
    if lam < -_DUAL_TOL or gamma < -_DUAL_TOL:
        return None
    return QpSolution(
        l1=float(l1),
        l2=float(l2),
        lam=float(max(lam, 0.0)),
        gamma=float(max(gamma, 0.0)),
        objective=float(inst.objective(l1, l2)),
        capped=False,
    )


def _pattern_interior(inst: QpInstance) -> QpSolution | None:
    try:
        l = np.linalg.solve(2.0 * inst.Q, inst.q_theta)
    except np.linalg.LinAlgError:
        return None
    return _candidate(inst, float(l[0]), float(l[1]), 0.0, 0.0)


def _pattern_rate(inst: QpInstance) -> QpSolution | None:
    if inst.rate_bound <= 0:
        return None
    p = np.array(inst.p)
    A = np.zeros((3, 3))
    A[:2, :2] = 2.0 * inst.Q
    A[:2, 2] = -2.0 * p
    A[2, :2] = 2.0 * p
    rhs = np.array([inst.q_theta[0], inst.q_theta[1], inst.rate_bound])
    try:
        x = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        return None
    return _candidate(inst, float(x[0]), float(x[1]), 0.0, float(x[2]))


def _pattern_kraft(inst: QpInstance) -> list[QpSolution]:
    """Minimize along the Kraft boundary, parametrized by l1.

    The boundary-restricted derivative can in principle change sign more
    than once, so every sign change is refined and the curve endpoints
    (one length at the cap) are always offered as capped candidates.
    """
    bound = inst.kraft_bound
    (q11, q12), (_, q22) = inst.Q
    qt1, qt2 = inst.q_theta

    def dphi(l1):
        w1 = 2.0 ** -np.asarray(l1)
        rem = bound - w1
        l2 = -np.log2(rem)
        g1 = 2.0 * (q11 * l1 + q12 * l2) - qt1
        g2 = 2.0 * (q12 * l1 + q22 * l2) - qt2
        return g1 + g2 * (-w1 / rem)

    ts = _KRAFT_SAMPLES
    vals = dphi(ts)
    out: list[QpSolution] = []
    for i in np.flatnonzero(vals[:-1] * vals[1:] <= 0)[:4]:
        if vals[i] == 0.0:
            root = float(ts[i])
        else:
            root = brentq(dphi, ts[i], ts[i + 1], xtol=1e-13, rtol=8.9e-16)
        l2 = _kraft_partner(root, bound)
        if l2 > LENGTH_CAP:
            continue
        g = _grad(inst, root, l2)
        w = _LN2 * np.array([2.0**-root, 2.0**-l2])
        cand = _candidate(inst, root, l2, float(w @ g / (w @ w)), 0.0)
        if cand is not None:
            out.append(cand)
    for fixed_idx in (0, 1):
        cand = _solve_fixed(inst, fixed_idx, LENGTH_CAP)
        if cand is not None:
            out.append(cand)
    return out


def _pattern_both(inst: QpInstance) -> list[QpSolution]:
    """Intersection of the Kraft curve and the rate line (0, 1 or 2 points)."""
    if inst.rate_bound <= 0:
        return []
    p1, p2 = inst.p
    r2 = inst.rate_bound / 2.0

    def l1_of(l2):
        return (r2 - p2 * np.asarray(l2)) / p1

    def h(l2):
        return 2.0 ** -l1_of(l2) + 2.0 ** -np.asarray(l2) - inst.kraft_bound

    hi = min(LENGTH_CAP, (r2 - 1e-12) / p2)
    lo = 1e-9
    if hi <= lo:
        return []
    # h is convex; locate its minimum, then bracket roots on each side
    ts = np.linspace(lo, hi, 200)
    hv = h(ts)
    i_min = int(np.argmin(hv))
    if hv[i_min] > 0:
        return []
    roots = []
    if i_min > 0 and hv[0] > 0:
        roots.append(brentq(h, ts[0], ts[i_min], xtol=1e-13))
    if i_min < len(ts) - 1 and hv[-1] > 0:
        roots.append(brentq(h, ts[i_min], ts[-1], xtol=1e-13))
    out = []
    for l2 in roots:
        l1 = l1_of(l2)
        if l1 <= 0 or l1 > LENGTH_CAP or l2 > LENGTH_CAP:
            continue
        g = _grad(inst, l1, l2)
        M = np.column_stack(
            [_LN2 * np.array([2.0**-l1, 2.0**-l2]), 2.0 * np.array([p1, p2])]
        )
        try:
            mult = np.linalg.solve(M, g)
        except np.linalg.LinAlgError:
            continue
        cand = _candidate(inst, l1, l2, float(mult[0]), float(mult[1]))
        if cand is not None:
            out.append(cand)
    return out


def kkt_solve_qp(inst: QpInstance) -> QpSolution:
    """Reference for code_optimizer.solve_qp: enumerate the KKT patterns.

    The patterns are both constraints slack (a linear solve), the rate floor
    alone (a 3x3 solve), the Kraft curve (a sign scan and brentq, plus the
    capped endpoints) and the Kraft-rate intersection (brentq on each side of
    a convex function's minimum).  Every primal- and dual-feasible candidate
    is kept and the one with the least objective returned; at p2 = 0 the
    band length is pinned to the cap.
    """
    p1, p2 = inst.p
    if 2.0 * (p1 + p2) * LENGTH_CAP < inst.rate_bound - 1e-12:
        raise InfeasibleError(
            f"rate floor E[L] >= {inst.rate_bound} unreachable with lengths <= {LENGTH_CAP}"
        )
    if p2 == 0.0:
        sol = _solve_fixed(inst, 1, LENGTH_CAP)
        if sol is None:
            raise InfeasibleError("degenerate instance has no feasible point")
        return sol
    candidates = [
        sol
        for sol in (
            _pattern_interior(inst),
            _pattern_rate(inst),
            *_pattern_kraft(inst),
            *_pattern_both(inst),
        )
        if sol is not None
    ]
    assert candidates, "no KKT pattern produced a feasible candidate"
    return min(candidates, key=lambda s: s.objective)


def bisection_theta(cfg, rc, width=1e-10, j_tol=1e-9):
    """Root of J(theta) = min l'Ql - q_theta'l by bisection on [0, 10*MSE_2].

    MSE_2 is the uniform-length-2 MSE.  Each J is solved by kkt_solve_qp.
    Stops at |J| <= j_tol or a bracket narrower than width; returns
    (theta, QpSolution at theta).
    """
    inst = build_qp(cfg, 0.0, rc)

    def solve_at(theta):
        return kkt_solve_qp(replace(inst, q_theta=2.0 * theta * np.array(inst.p)))

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


def chunked_walk(rng, start, lines, n_steps, step, sd):
    """The walk kernel's reference: hitting_times._first_crossings over one
    batch, drawn chunk by chunk on its schedule (_FIRST_CHUNK steps, then
    _next_chunk's), each chunk's whole (alive x s) block at once, each row's
    first crossing found with np.flatnonzero.

    Returns each row's first crossing index (-1 for none), its value there
    (its last value if none) and its sum of squares at the grid points
    before it, the start included (the whole path but its last point if
    none).
    """
    start = np.asarray(start, dtype=float)
    u0, su, d0, sl = (np.broadcast_to(np.asarray(v, dtype=float), start.shape) for v in lines)
    first = np.full(start.size, -1)
    value, sums = start.copy(), start * start
    alive, elapsed, s = np.arange(start.size), 0, hitting_times._FIRST_CHUNK
    while alive.size and elapsed < n_steps:
        s = min(s, n_steps - elapsed)
        t = (elapsed + 1 + np.arange(s)) * step
        steps = rng.standard_normal((alive.size, s)) * sd
        steps[:, 0] += value[alive]  # each row's start, summed in order with its steps
        paths = np.cumsum(steps, axis=1)
        left = []
        for i, path in zip(alive, paths):
            hit = np.flatnonzero((path >= u0[i] + su[i] * t) | (path <= d0[i] + sl[i] * t))
            end = hit[0] if hit.size else s
            sums[i] += np.sum(path[:end] ** 2)
            value[i] = path[min(end, s - 1)]
            if hit.size:
                first[i] = elapsed + end
            else:
                left.append(i)
        before, alive = alive.size, np.array(left, dtype=np.int64)
        elapsed += s
        if alive.size:
            s = hitting_times._next_chunk(s, before, alive.size)
    sums[alive] -= value[alive] ** 2
    return first, value, sums


# ------------------------------------------------------ sequential engine --
# The reference for the simulator's chain engine: one long grid path per
# replication, walked step by step through every waiting phase and every
# transmission, with the same crossing rule, decoded values and ledger.
# Complete cycles are measured after a burn-in of 1% of the horizon.

_BURN_IN_FRAC = 0.01
# Grid points in a fresh path window; doubled when one cycle spans more.
_BLOCK = 1 << 17


class _PathWindow:
    """Grid points of one replication's Wiener path, generated block by block.

    Holds w[base:end] in a reused buffer.  A read past ``end`` keeps only the
    points from the earliest index the caller still needs (the current cycle
    start; at least the last point, which carries the running sum), moves
    them to the front and refills the rest.  The buffer doubles only when one
    cycle spans all of it, so memory follows the longest cycle, not the
    horizon.  Refills draw and sum in the same order as one full-length draw
    and cumsum, so the path does not depend on the block size.
    """

    def __init__(self, rng, n_steps: int, step_sd: float):
        self.rng = rng
        self.last = n_steps
        self.step_sd = step_sd
        size = min(_BLOCK, n_steps + 1)
        self.buf = np.zeros(size)
        self.offsets = np.arange(size, dtype=float)  # steps j - d since the cycle start
        self.base = 0
        self.end = 1  # w[0] = 0
        self._fill()

    def _fill(self) -> None:
        n = self.end - self.base
        count = min(self.buf.size - n, self.last + 1 - self.end)
        if count == 0:
            return
        block = self.buf[n:n + count]
        self.rng.standard_normal(out=block)
        block *= self.step_sd
        block[0] += self.buf[n - 1]
        np.cumsum(block, out=block)
        self.end += count

    def _extend(self, keep: int) -> bool:
        """Drop points before ``keep`` and generate more; False past the horizon."""
        if self.end > self.last:
            return False
        keep = min(keep, self.end - 1)
        live = self.buf[keep - self.base:self.end - self.base]
        if live.size == self.buf.size:
            self.buf = np.empty(2 * live.size)
            self.offsets = np.arange(self.buf.size, dtype=float)
        self.buf[:live.size] = live
        self.base = keep
        self._fill()
        return True

    def at(self, i: int) -> float:
        while i >= self.end:
            self._extend(i)
        return float(self.buf[i - self.base])

    def span(self, lo: int, hi: int) -> np.ndarray:
        """View of w[lo:hi]."""
        while hi > self.end:
            self._extend(lo)
        return self.buf[lo - self.base:hi - self.base]

    def first(self, d: int, start: int, crossed) -> int:
        """First index j >= start where the path crosses; -1 past the horizon.

        ``crossed(seg, k)`` maps a chunk seg = w[j0:j1] and k = j - d for its
        points to a bool array.  Chunks grow from 512 to 2**16 points, and the
        points from the cycle start d on stay in the window.
        """
        j0, chunk = start, 512
        while True:
            while j0 >= self.end:
                if not self._extend(d):
                    return -1
            j1 = min(j0 + chunk, self.end)
            hit = crossed(self.buf[j0 - self.base:j1 - self.base], self.offsets[j0 - d:j1 - d])
            k = int(hit.argmax())
            if hit[k]:
                return j0 + k
            j0 = j1
            chunk = min(chunk * 2, 1 << 16)


def _run_once(sim: SimConfig, rng) -> tuple[float, float, int]:
    """One replication of any scheme: (summed reward, measured time, cycles).

    The ideal scheme is the band scan started at the cycle start itself, with
    +-a on every cycle, the real-valued sample decoded, and unit delay.
    """
    cfg, eps = sim.cfg, sim.eps
    ideal = sim.scheme == "ideal-benchmark"
    lens = sim.cb.lengths  # the ideal scheme's are unit delays
    n_steps = int(round(sim.horizon / eps))
    burn_idx = int(round(_BURN_IN_FRAC * n_steps))
    w = _PathWindow(rng, n_steps, math.sqrt(cfg.sigma2 * eps))
    a, b, mu = cfg.a, cfg.b, cfg.mu
    mu_eps = mu * eps
    len_idx = [int(round(l / eps)) if math.isfinite(l) else -1 for l in lens]

    ref = 0.0
    d = 0
    l_prev = lens[1]
    reward = 0.0
    duration = 0.0
    n_cycles = 0

    while d < n_steps:
        athr = a * math.sqrt(l_prev) if a > 0.0 else 0.0
        bthr = b * math.sqrt(l_prev) if b > 0.0 else 0.0
        x = w.at(d) - ref
        if ideal or -bthr < x < athr:
            # band exit (events 2/3); a tie (athr = bthr = 0) goes up
            up, dn = ref + athr, ref - bthr
            j = w.first(d, d if ideal else d + 1, lambda seg, k: (seg >= up) | (seg <= dn))
            if j < 0:
                break
            wj = w.at(j)
            event = 2 if wj >= up else 3
            z = wj - ref if ideal else (athr if event == 2 else -bthr)
        else:
            # the sloped line started at d catches the process (events 1/4); a
            # sample on the boundary is the sloped event (tau = 0 limit)
            upward = x >= athr
            thr = athr if upward else bthr
            if upward:
                j = w.first(d, d + 1, lambda seg, k: seg - ref <= thr + mu_eps * k)
            else:
                j = w.first(d, d + 1, lambda seg, k: seg - ref >= -(thr + mu_eps * k))
            if j < 0:
                break
            z = thr + mu * ((j - d) * eps)
            event, z = (1, z) if upward else (4, -z)
        d_new = j + len_idx[event - 1]
        if d_new > n_steps:
            break
        if d >= burn_idx:
            err = w.span(d, d_new) - ref
            reward += float(np.add.reduce(err * err)) * eps
            duration += (d_new - d) * eps
            n_cycles += 1
        ref += z
        l_prev = lens[event - 1]
        d = d_new
    return reward, duration, n_cycles


def sequential_engine(sim: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """rep_mse and rep_sr of the sequential engine, one replication per
    SeedSequence(sim.seed, spawn_key=(rep,)) stream."""
    mse, sr = [], []
    for rep in range(sim.replications):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=sim.seed, spawn_key=(rep,)))
        reward, duration, n_cycles = _run_once(sim, rng)
        mse.append(reward / duration)
        sr.append(n_cycles / duration)
    return np.array(mse), np.array(sr)
