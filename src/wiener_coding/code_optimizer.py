"""Optimal code lengths and threshold under Kraft and sampling-rate constraints.

The relaxed problem (real lengths, symmetric a = b so l1 = l4, l2 = l3) in
the large-slope regime mu = inf, whatever slope a configuration carries, is

    minimize   K * E_P[L^2]/E_P[L] + E_Ptilde[L]
    subject to 2^-l1 + 2^-l2 <= 1/2            (reduced Kraft)
               E_P[L] >= 1/(D*f_max)           (sampling-rate floor)

solved by Dinkelbach's method on the parametric problem
J(theta) = min  l'Ql - q_theta'l  with

    Q = [[2Kp1 + 4p1pt1, 2(p1pt2 + p2pt1)],
         [2(p1pt2 + p2pt1), 2Kp2 + 4p2pt2]],   q_theta = (2 theta p1, 2 theta p2).

Q is derived directly from the objective under the symmetry reduction (its
bottom-right entry is K*p2 + 2*p2*pt2 before the global factor 2, mirroring
the top-left) and is verified positive semi-definite at build time.  l'Ql is
E_P[L] times the fractional objective and q_theta'l is theta*E_P[L], so the
root of J is the optimal value theta*.

Each parametric QP is solved by enumerating the four constraint-activity
patterns; every pattern reduces to a linear solve or a 1-D convex
subproblem, and candidates are kept only when primal and dual feasible.
Relaxed lengths are capped at LENGTH_CAP = 64 with a flag when the cap
binds, so the l2 -> infinity limit at small thresholds stays finite.

The threshold search is an exhaustive grid scan (theta*(a) is multi-modal,
so the grid stage stays global) followed by golden-section refinement around
the best grid point; ties resolve to the smallest a.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InfeasibleError,
    ParameterError,
    SearchError,
    UnsupportedConfigurationError,
)
from .gauss_stats import ThresholdConfig, _finite_real, _integer, scheme_constants
from .mse_model import Codebook, mse_exact

__all__ = [
    "LENGTH_CAP",
    "RateConstraint",
    "QpInstance",
    "QpSolution",
    "DinkelbachResult",
    "OptimizationResult",
    "build_qp",
    "solve_qp",
    "dinkelbach_solve",
    "optimize_threshold",
    "integer_oracle",
]

LENGTH_CAP = 64.0

_LN2 = math.log(2.0)
_J_TOL = 1e-9
_MAX_DINKELBACH_STEPS = 50
_THETA_RISE_TOL = 1e-12
_MAX_GRID_POINTS = 10**6
_DUAL_TOL = 1e-9
_PRIMAL_TOL = 1e-9
_SLACK_TOL = 1e-6
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section ratio
_REFINE_WIDTH = 1e-5  # the threshold refinement stops at this bracket width
_BRENT_RTOL = 4.0 * sys.float_info.epsilon  # the smallest rtol scipy's brentq accepts
_KRAFT_BOUND = 0.5  # reduced Kraft bound: 2^-l1 + 2^-l2 <= 1/2
# where _pattern_kraft samples the sign of its derivative: l1 from just above
# the Kraft curve's floor -log2(_KRAFT_BOUND) to the cap
_KRAFT_LO = -math.log2(_KRAFT_BOUND) + 1e-9
_KRAFT_SAMPLES = np.concatenate(
    [_KRAFT_LO + np.logspace(-9, 0, 24), np.linspace(_KRAFT_LO + 1.0, LENGTH_CAP, 40)]
)


@dataclass(frozen=True)
class RateConstraint:
    """Maximum sampling rate f_max (samples per unit time); may be inf."""

    f_max: float = math.inf

    def __post_init__(self) -> None:
        f_max = _finite_real("f_max", self.f_max, inf_ok=True)
        if not f_max > 0:
            raise ParameterError(f"f_max must be > 0, got {f_max}")
        object.__setattr__(self, "f_max", f_max)

    @property
    def unconstrained(self) -> bool:
        return math.isinf(self.f_max)


@dataclass(frozen=True)
class QpInstance:
    """One parametric quadratic program at a fixed threshold and theta."""

    Q: np.ndarray
    q_theta: np.ndarray
    rate_bound: float  # 1/(D*f_max); 0 when unconstrained
    p: tuple[float, float]
    p_tilde: tuple[float, float]
    k: float

    def objective(self, l1: float, l2: float) -> float:
        l = np.array([l1, l2])
        return float(l @ self.Q @ l - self.q_theta @ l)

    def fractional(self, l1: float, l2: float) -> float:
        """The original fractional objective K*E[L^2]/E[L] + E_Ptilde[L]."""
        p1, p2 = self.p
        pt1, pt2 = self.p_tilde
        m1 = 2.0 * (p1 * l1 + p2 * l2)
        m2 = 2.0 * (p1 * l1 * l1 + p2 * l2 * l2)
        lt = 2.0 * (pt1 * l1 + pt2 * l2)
        return self.k * m2 / m1 + lt

    @property
    def kraft_bound(self) -> float:
        return _KRAFT_BOUND

    def kraft_slack(self, l1: float, l2: float) -> float:
        return self.kraft_bound - (2.0**-l1 + 2.0**-l2)

    def rate_slack(self, l1: float, l2: float) -> float:
        p1, p2 = self.p
        return 2.0 * (p1 * l1 + p2 * l2) - self.rate_bound


@dataclass(frozen=True)
class QpSolution:
    l1: float
    l2: float
    lam: float  # Kraft multiplier
    gamma: float  # rate multiplier
    objective: float
    capped: bool
    pattern: str


@dataclass(frozen=True)
class DinkelbachResult:
    theta_star: float
    lengths: Codebook
    capped: bool
    iterations: int
    kraft_slack: float
    rate_slack: float
    active: tuple[str, ...]  # of "kraft" and "rate", those with slack <= 1e-6


@dataclass(frozen=True)
class OptimizationResult:
    a_star: float
    lengths: Codebook
    theta_star: float
    mse: float
    sr: float
    kraft_slack: float
    rate_slack: float
    active: tuple[str, ...]
    capped: bool


def build_qp(cfg: ThresholdConfig, theta: float, rc: RateConstraint) -> QpInstance:
    """Assemble the parametric QP for a symmetric threshold configuration."""
    if cfg.a != cfg.b:
        raise UnsupportedConfigurationError(
            f"length optimization requires a = b, got a={cfg.a}, b={cfg.b}"
        )
    sc = scheme_constants(cfg)
    p1, p2 = sc.probs.p1, sc.probs.p2
    pt1, pt2 = sc.p_tilde[0], sc.p_tilde[1]
    k = sc.k
    Q = np.array(
        [
            [2 * k * p1 + 4 * p1 * pt1, 2 * (p1 * pt2 + p2 * pt1)],
            [2 * (p1 * pt2 + p2 * pt1), 2 * k * p2 + 4 * p2 * pt2],
        ]
    )
    if np.linalg.eigvalsh(Q).min() < -1e-10:
        raise ParameterError(f"Q not positive semi-definite at a={cfg.a}")
    rate_bound = 0.0 if rc.unconstrained else 1.0 / (sc.d * rc.f_max)
    return QpInstance(
        Q=Q,
        q_theta=np.array([2 * theta * p1, 2 * theta * p2]),
        rate_bound=rate_bound,
        p=(p1, p2),
        p_tilde=(pt1, pt2),
        k=k,
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
    rem = inst.kraft_bound - 2.0**-fixed_val
    if rem <= 0:
        return None
    kmin = -math.log2(rem)
    rmin = (inst.rate_bound / 2.0 - p_fix * fixed_val) / p_free
    lo = max(kmin, rmin)
    if lo > LENGTH_CAP:
        return None
    qd = inst.Q[free_idx, free_idx]
    qo = inst.Q[free_idx, fixed_idx]
    qlin = inst.q_theta[free_idx]
    # minimize qd*x^2 + 2*qo*fixed*x - qlin*x over [lo, CAP]
    if qd > 0:
        x = (qlin - 2 * qo * fixed_val) / (2 * qd)
    else:
        x = -math.inf
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
        pattern=f"fixed-l{fixed_idx + 1}",
    )


def _candidate(
    inst: QpInstance, l1: float, l2: float, lam: float, gamma: float, pattern: str
) -> QpSolution | None:
    """Filter a KKT candidate on primal and dual feasibility; cap long lengths."""
    if not (math.isfinite(l1) and math.isfinite(l2)):
        return None
    if l1 > LENGTH_CAP or l2 > LENGTH_CAP:
        idx = 0 if l1 > LENGTH_CAP else 1
        return _solve_fixed(inst, idx, LENGTH_CAP)
    if l1 <= 0 or l2 <= 0:
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
        pattern=pattern,
    )


def _brentq(
    f, xa: float, xb: float, xtol: float, rtol: float = _BRENT_RTOL, maxiter: int = 100
) -> float:
    """Root of f in [xa, xb] by Brent's method (Brent 1973).

    A step-for-step port of the C loop behind scipy.optimize.brentq, with the
    same expressions in the same order, so it returns scipy's root bit for
    bit without importing scipy.  Stops when the bracket half-width is below
    (xtol + rtol*|x|)/2.  Raises SearchError when f(xa) and f(xb) have the
    same sign, when f returns NaN, or after maxiter steps without converging.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise SearchError(f"root search: f({x:.6g}) is NaN")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise SearchError(f"root search: f({xpre:.6g}) and f({xcur:.6g}) have the same sign")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre
            fpre = fcur
            fcur = fblk
            fblk = fpre
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre = scur
                scur = stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise SearchError(f"root search did not converge in {maxiter} steps (last x = {xcur:.6g})")


def _pattern_interior(inst: QpInstance) -> QpSolution | None:
    try:
        l = np.linalg.solve(2.0 * inst.Q, inst.q_theta)
    except np.linalg.LinAlgError:
        return None
    return _candidate(inst, float(l[0]), float(l[1]), 0.0, 0.0, "interior")


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
    return _candidate(inst, float(x[0]), float(x[1]), 0.0, float(x[2]), "rate")


def _pattern_kraft(inst: QpInstance) -> list[QpSolution]:
    """Minimize along the Kraft boundary, parametrized by l1.

    The boundary-restricted derivative can in principle change sign more
    than once, so every sign change is refined and the curve endpoints
    (one length at the cap) are always offered as capped candidates.
    """
    bound = _KRAFT_BOUND
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
    sign_change = np.flatnonzero(vals[:-1] * vals[1:] <= 0)
    for i in sign_change[:4]:
        if vals[i] == 0.0:
            root = float(ts[i])
        else:
            root = _brentq(dphi, ts[i], ts[i + 1], xtol=1e-13, rtol=8.9e-16)
        l2 = _kraft_partner(root, bound)
        if l2 > LENGTH_CAP:
            continue
        g = _grad(inst, root, l2)
        w = _LN2 * np.array([2.0**-root, 2.0**-l2])
        lam = float(w @ g / (w @ w))
        cand = _candidate(inst, root, l2, lam, 0.0, "kraft")
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
    if p2 == 0.0:
        return []
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
        roots.append(_brentq(h, ts[0], ts[i_min], xtol=1e-13))
    if i_min < len(ts) - 1 and hv[-1] > 0:
        roots.append(_brentq(h, ts[i_min], ts[-1], xtol=1e-13))
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
        cand = _candidate(inst, l1, l2, float(mult[0]), float(mult[1]), "both")
        if cand is not None:
            out.append(cand)
    return out


def solve_qp(inst: QpInstance) -> QpSolution:
    """Global minimizer of the parametric QP over the constraint set.

    Raises InfeasibleError when even fully capped lengths cannot meet the
    sampling-rate floor.
    """
    p1, p2 = inst.p
    if 2.0 * (p1 + p2) * LENGTH_CAP < inst.rate_bound - 1e-12:
        raise InfeasibleError(
            f"rate floor E[L] >= {inst.rate_bound} unreachable with lengths <= {LENGTH_CAP}"
        )
    candidates: list[QpSolution] = []
    if p2 == 0.0:
        sol = _solve_fixed(inst, 1, LENGTH_CAP)
        if sol is None:
            raise InfeasibleError("degenerate instance has no feasible point")
        return sol
    for sol in (
        _pattern_interior(inst),
        _pattern_rate(inst),
        *_pattern_kraft(inst),
        *_pattern_both(inst),
    ):
        if sol is not None:
            candidates.append(sol)
    if not candidates:
        raise SearchError("no KKT pattern produced a feasible candidate")
    return min(candidates, key=lambda s: s.objective)


def dinkelbach_solve(cfg: ThresholdConfig, rc: RateConstraint) -> DinkelbachResult:
    """Dinkelbach's iteration on the parametric value J(theta).

    With N(l) = l'Ql and D(l) = E_P[L], the update theta <- N(l*)/D(l*) is
    the fractional objective at the last minimizer l*.  J is concave and
    strictly decreasing with J(0) > 0, so after a solve at theta = 0 the
    updates decrease theta monotonically to theta*, superlinearly
    (Dinkelbach's step is Newton's on J).  Stops at |J(theta)| <= 1e-9,
    typically 1-3 steps after theta = 0, so 2-4 QP solves in all.  Raises
    SearchError if theta rises or the iteration has not converged within 50
    steps, and checks that the fractional objective at the returned lengths
    reproduces theta*.
    """
    if cfg.sigma2 != 1.0:
        raise UnsupportedConfigurationError(
            "optimizer works in canonical units; apply scale_to_sigma first"
        )
    inst = build_qp(cfg, 0.0, rc)
    sol = solve_qp(inst)
    if sol.objective <= 0.0:
        raise SearchError("J(0) <= 0: the fractional objective is not positive")
    theta = inst.fractional(sol.l1, sol.l2)
    iterations = 0
    while True:
        inst = replace(inst, q_theta=2.0 * theta * np.array(inst.p))
        sol = solve_qp(inst)
        iterations += 1
        if abs(sol.objective) <= _J_TOL:
            break
        if iterations >= _MAX_DINKELBACH_STEPS:
            raise SearchError(
                f"Dinkelbach did not converge in {iterations} steps: J({theta}) = {sol.objective}"
            )
        theta_next = inst.fractional(sol.l1, sol.l2)
        if theta_next > theta + _THETA_RISE_TOL:
            raise SearchError(f"Dinkelbach theta rose from {theta} to {theta_next}")
        theta = theta_next
    frac = inst.fractional(sol.l1, sol.l2)
    if abs(frac - theta) > 1e-6:
        raise SearchError(
            f"Dinkelbach inconsistency: fractional objective {frac} vs theta* {theta}"
        )
    kraft_slack, rate_slack = inst.kraft_slack(sol.l1, sol.l2), inst.rate_slack(sol.l1, sol.l2)
    active = ("kraft",) if kraft_slack <= _SLACK_TOL else ()
    if not rc.unconstrained and rate_slack <= _SLACK_TOL:
        active += ("rate",)
    return DinkelbachResult(
        theta_star=theta,
        lengths=Codebook.relaxed(sol.l1, sol.l2, sol.l2, sol.l1),
        capped=sol.capped,
        iterations=iterations,
        kraft_slack=kraft_slack,
        rate_slack=rate_slack,
        active=active,
    )


def threshold_grid(a_grid: tuple[float, float, float]) -> list[float]:
    """The points lo + i*step up to hi, with hi appended when the steps miss it.

    Raises ParameterError unless 0 <= lo < hi and step > 0, and, before
    allocating, when the grid would have more than 10**6 points.
    """
    lo, hi, step = a_grid
    if not (0 <= lo < hi and step > 0):
        raise ParameterError(f"grid must satisfy 0 <= lo < hi, step > 0, got {a_grid}")
    span = (hi - lo) / step + 1e-9
    if not span < _MAX_GRID_POINTS:
        raise ParameterError(
            f"grid {a_grid} would have {span:.3g} points; the limit is {_MAX_GRID_POINTS}"
        )
    vals = [lo + i * step for i in range(int(math.floor(span)) + 1)]
    if vals[-1] < hi - 1e-12:
        vals.append(hi)
    return vals


def _theta_at(a: float, rc: RateConstraint) -> tuple[float, DinkelbachResult | None]:
    try:
        res = dinkelbach_solve(ThresholdConfig(a, a, math.inf), rc)
    except InfeasibleError:
        return math.inf, None
    return res.theta_star, res


def optimize_threshold(
    rc: RateConstraint, a_grid: tuple[float, float, float] = (0.0, 3.0, 0.01)
) -> OptimizationResult:
    """Exhaustive threshold scan with golden-section refinement.

    Every evaluated point is remembered; the returned a* is the best
    evaluated point, ties resolved to the smallest a (within 1e-9).
    """
    grid = threshold_grid(a_grid)
    evaluated: dict[float, float] = {}
    best_res: dict[float, DinkelbachResult] = {}

    def theta(a: float) -> float:
        evaluated[a], res = _theta_at(a, rc)
        if res is not None:
            best_res[a] = res
        return evaluated[a]

    def best() -> float:
        finite = {a: t for a, t in evaluated.items() if math.isfinite(t)}
        if not finite:
            raise InfeasibleError("every grid point is infeasible under the rate constraint")
        t_min = min(finite.values())
        return min(a for a, t in finite.items() if t <= t_min + 1e-9)

    for a in grid:
        theta(a)
    i = grid.index(best())
    lo = grid[max(0, i - 1)]
    hi = grid[min(len(grid) - 1, i + 1)]
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = theta(x1), theta(x2)
    while hi - lo > _REFINE_WIDTH:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = theta(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = theta(x2)
    a_best = best()
    res = best_res[a_best]
    bd = mse_exact(ThresholdConfig(a_best, a_best, math.inf), res.lengths)
    return OptimizationResult(
        a_star=a_best,
        lengths=res.lengths,
        theta_star=res.theta_star,
        mse=bd.mse,
        sr=bd.sr,
        kraft_slack=res.kraft_slack,
        rate_slack=res.rate_slack,
        active=res.active,
        capped=res.capped,
    )


def integer_oracle(
    cfg: ThresholdConfig, rc: RateConstraint, l_max: int = 12
) -> tuple[Codebook, float]:
    """Exhaustive integer search over symmetric (l1, l2) in [1, l_max]^2.

    Each codebook is scored by mse_exact at mu = inf, whatever cfg.mu is.
    Feasibility uses the four-term Kraft sum over codewords of events that
    can occur (a zero-probability event needs no codeword and its length is
    reported as inf) and the same rate floor as the relaxed problem.  Ties
    resolve lexicographically on (l1, l2).
    """
    if cfg.a != cfg.b:
        raise UnsupportedConfigurationError("integer oracle requires a = b")
    if _integer("l_max", l_max, 1) > 16:
        raise ParameterError(f"l_max must be in [1, 16], got {l_max}")
    sc = scheme_constants(cfg)
    large_slope = replace(cfg, mu=math.inf)
    rate_bound = 0.0 if rc.unconstrained else 1.0 / (sc.d * rc.f_max)
    p1, p2 = sc.probs.p1, sc.probs.p2
    band_dead = p2 == 0.0
    l2_range = [math.inf] if band_dead else range(1, l_max + 1)
    best: tuple[float, int, float] | None = None
    for l1 in range(1, l_max + 1):
        for l2 in l2_range:
            if 2.0 * (2.0**-l1 + 2.0**-l2) > 1.0 + 1e-12:
                continue
            epl = 2.0 * (p1 * l1 + (0.0 if band_dead else p2 * l2))
            if epl < rate_bound - 1e-12:
                continue
            mse = mse_exact(large_slope, Codebook.integer(l1, l2, l2, l1)).mse
            key = (mse, l1, l2)
            if best is None or key < best:
                best = key
    if best is None:
        raise InfeasibleError(f"no feasible integer lengths with l_max={l_max}")
    mse, l1, l2 = best
    return Codebook.integer(l1, l2, l2, l1), mse
