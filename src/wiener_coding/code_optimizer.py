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

Each parametric QP is convex.  A primal-dual interior-point method on the
Kraft and rate constraints finds those that bind, then Newton's method on
their KKT equations gives the lengths to machine precision; a violated
length cap joins the binding set there.  Relaxed lengths are capped at
LENGTH_CAP = 64 with a flag when the cap binds, so the l2 -> infinity limit
at small thresholds stays finite.

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
_KRAFT_BOUND = 0.5  # reduced Kraft bound: 2^-l1 + 2^-l2 <= 1/2
_IP_MU = 10.0  # each interior-point step aims at a duality gap this many times smaller
_IP_GAP = 1e-7  # the interior-point stage stops at this duality gap
_IP_FEAS = 1e-6  # and this dual residual
_IP_MAX_STEPS = 200
_IP_MIN_STEP = 1e-12  # a line search that shrinks the step below this has stalled
_POLISH_STEPS = 8
_POLISH_TOL = 4.0 * sys.float_info.epsilon * LENGTH_CAP  # a length step this small ends the polish
_ACTIVE_SET_ROUNDS = 4  # Newton solves, one per active set, before giving up


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


def solve_qp(inst: QpInstance) -> QpSolution:
    """Global minimizer of the parametric QP: interior point, then Newton.

    The constraints g <= 0 are, in order, Kraft 2^-l1 + 2^-l2 - 1/2, the
    rate floor R - 2(p1 l1 + p2 l2) and the caps l1 - 64, l2 - 64.  A
    primal-dual interior-point method (Boyd & Vandenberghe 2004, 11.7) on
    the first two starts on the diagonal one unit above their floor and
    stops at a loose duality gap.  Newton's method on the KKT equations of
    the constraints it found active (lam_i > -g_i) then gives the lengths to
    machine precision, and the active set, caps included, is corrected until
    the result meets the KKT conditions.  Raises InfeasibleError when only
    capped lengths meet the rate floor, and SearchError when a stage fails.
    """
    p1, p2 = inst.p
    if 2.0 * (p1 + p2) * LENGTH_CAP < inst.rate_bound - 1e-12:
        raise InfeasibleError(
            f"rate floor E[L] >= {inst.rate_bound} unreachable with lengths <= {LENGTH_CAP}"
        )
    (q11, q12), (_, q22) = inst.Q.tolist()
    qt1, qt2 = inst.q_theta.tolist()
    rate, kraft = inst.rate_bound, inst.kraft_bound
    d1, d2 = -2.0 * p1, -2.0 * p2
    floor = max(1.0 - math.log2(kraft), rate / (2.0 * (p1 + p2)))
    if not floor < LENGTH_CAP:
        raise InfeasibleError(f"only capped lengths meet the rate floor E[L] >= {rate}")

    def point(x1, x2, lam):
        """Constraint values and gradients, the Lagrangian's Hessian
        (h11, h12, h22) and its gradient, the dual residual (r1, r2)."""
        lk, lr, lc1, lc2 = lam
        e1, e2 = 2.0**-x1, 2.0**-x2
        k1, k2 = -_LN2 * e1, -_LN2 * e2
        g = (e1 + e2 - kraft, rate + d1 * x1 + d2 * x2, x1 - LENGTH_CAP, x2 - LENGTH_CAP)
        grads = ((k1, k2), (d1, d2), (1.0, 0.0), (0.0, 1.0))
        hess = (2.0 * q11 - lk * _LN2 * k1, 2.0 * q12, 2.0 * q22 - lk * _LN2 * k2)
        r1 = 2.0 * (q11 * x1 + q12 * x2) - qt1 + lk * k1 + lr * d1 + lc1
        r2 = 2.0 * (q12 * x1 + q22 * x2) - qt2 + lk * k2 + lr * d2 + lc2
        return g, grads, hess, r1, r2

    def interior_point(x1, x2):
        """Primal-dual steps on the Kraft and rate constraints to a loose gap."""
        g = point(x1, x2, (0.0,) * 4)[0]
        lam = (-1.0 / g[0], -1.0 / g[1], 0.0, 0.0)
        g, grads, (h11, h12, h22), r1, r2 = point(x1, x2, lam)
        for _ in range(_IP_MAX_STEPS):
            (gk, gr, _, _), (lk, lr, _, _), (k1, k2) = g, lam, grads[0]
            gap = -(lk * gk + lr * gr)
            if gap <= _IP_GAP and math.hypot(r1, r2) <= _IP_FEAS:
                return x1, x2, lam, g
            it = gap / (_IP_MU * 2.0)  # 1/t for the barrier parameter t
            # the Newton step (H + s_k k k' + s_r d d') dx = b, with k and d the
            # Kraft and rate gradients, s_i = lam_i / -g_i passing 1e10 near
            # an active constraint and b = -r + sum_i (lam_i + it/g_i) grad g_i.
            # Cramer's rule expanded in the s_i has no cancellation: with
            # c = k x d and adj(v v') = w w', w = (v2, -v1), det is
            # det H + s_k k'adj(H)k + s_r d'adj(H)d + s_k s_r c^2, det dx is
            # adj(H) b + s_k w_k (w_k.b) + s_r w_r (w_r.b), and k.dx drops its
            # s_k term exactly (k.w_k = 0), d.dx its s_r term
            sk, sr = lk / -gk, lr / -gr
            b1 = -r1 + (lk + it / gk) * k1 + (lr + it / gr) * d1
            b2 = -r2 + (lk + it / gk) * k2 + (lr + it / gr) * d2
            hb1, hb2 = h22 * b1 - h12 * b2, h11 * b2 - h12 * b1
            wk, wr, c = k2 * b1 - k1 * b2, d2 * b1 - d1 * b2, k1 * d2 - k2 * d1
            det = (h11 * h22 - h12 * h12 + sk * sr * c * c
                   + sk * (h22 * k1 * k1 - 2.0 * h12 * k1 * k2 + h11 * k2 * k2)
                   + sr * (h22 * d1 * d1 - 2.0 * h12 * d1 * d2 + h11 * d2 * d2))
            if not det > 0:
                raise SearchError(f"interior-point Newton matrix is not positive definite ({det})")
            dx1 = (hb1 + sk * k2 * wk + sr * d2 * wr) / det
            dx2 = (hb2 - sk * k1 * wk - sr * d1 * wr) / det
            dlk = sk * (k1 * hb1 + k2 * hb2 + sr * c * wr) / det - lk - it / gk
            dlr = sr * (d1 * hb1 + d2 * hb2 - sk * c * wk) / det - lr - it / gr
            # backtrack from the longest step that keeps the multipliers
            # positive until the lengths are strictly feasible and the
            # residual, dual and centrality, has fallen enough
            r0 = math.hypot(r1, r2, lk * gk + it, lr * gr + it)
            step = 0.99 * min([1.0] + [-li / dl for li, dl in ((lk, dlk), (lr, dlr)) if dl < 0])
            while True:
                lam = (lk + step * dlk, lr + step * dlr, 0.0, 0.0)
                g, grads, (h11, h12, h22), r1, r2 = point(x1 + step * dx1, x2 + step * dx2, lam)
                r = math.hypot(r1, r2, lam[0] * g[0] + it, lam[1] * g[1] + it)
                if g[0] < 0 and g[1] < 0 and r <= (1 - 0.01 * step) * r0:
                    break
                step *= 0.5
                if step < _IP_MIN_STEP:
                    raise SearchError(f"interior-point line search stalled at l = ({x1}, {x2})")
            x1, x2 = x1 + step * dx1, x2 + step * dx2
        raise SearchError(f"interior-point method did not converge in {_IP_MAX_STEPS} steps")

    def newton(x1, x2, lam, active):
        """Newton's method on the KKT equations of the active constraints."""
        jac = np.zeros((2 + len(active),) * 2)
        size = math.inf
        for _ in range(_POLISH_STEPS):
            g, grads, (h11, h12, h22), r1, r2 = point(x1, x2, lam)
            G = np.reshape([grads[i] for i in active], (-1, 2))
            jac[:2, :2] = (h11, h12), (h12, h22)
            jac[:2, 2:], jac[2:, :2] = G.T, G
            try:
                dx = np.linalg.solve(jac, [-r1, -r2] + [-g[i] for i in active]).tolist()
            except np.linalg.LinAlgError:
                raise SearchError(f"singular KKT system for the active set {active}") from None
            # a step that no longer halves has reached the rounding floor,
            # which a rate floor with a small p_i lifts to 1e-12 and more
            size, last = max(abs(dx[0]), abs(dx[1])), size
            if size > last / 2:
                break
            x1, x2 = x1 + dx[0], x2 + dx[1]
            for i, dl in zip(active, dx[2:]):
                lam[i] += dl
            if size <= _POLISH_TOL:
                break
        else:
            raise SearchError(f"no convergence in {_POLISH_STEPS} Newton steps on {active}")
        return (LENGTH_CAP if 2 in active else x1), (LENGTH_CAP if 3 in active else x2)

    if p2 == 0.0:
        # a = 0 only: l2 leaves the objective and is pinned to the cap, and l1
        # minimizes a 1-D quadratic above its Kraft and rate floors
        floors = [-math.log2(kraft - 2.0**-LENGTH_CAP), rate / -d1]
        x1 = max((qt1 - 2.0 * q12 * LENGTH_CAP) / (2.0 * q11), *floors)
        x2, lam = LENGTH_CAP, [0.0] * 4
        active = ([floors.index(x1)] if x1 in floors else []) + [3]
    else:
        x1, x2, lam, g = interior_point(floor + 1.0, floor + 1.0)
        active = [i for i in range(2) if lam[i] > -g[i]]
        lam = [lam[i] if i in active else 0.0 for i in range(4)]
    # a violated cap joins the active set, and so does a constraint whose
    # multiplier and slack were both below about sqrt(gap) and misjudged;
    # a negative multiplier leaves it; one change per round
    for _ in range(_ACTIVE_SET_ROUNDS):
        x1, x2 = newton(x1, x2, lam, active)
        g, _, _, r1, r2 = point(x1, x2, lam)
        leave = [i for i in active if lam[i] < -_DUAL_TOL]
        join = [i for i in range(4) if i not in active and g[i] > _PRIMAL_TOL]
        if not leave and not join:
            break
        active = sorted(set(active) - set(leave[:1]) | set(join[:1]))
        lam = [lam[i] if i in active else 0.0 for i in range(4)]
    else:
        raise SearchError(f"no KKT point after {_ACTIVE_SET_ROUNDS} active sets, the last {active}")
    if math.hypot(r1, r2) > _DUAL_TOL:
        raise SearchError(f"Newton steps on the active set {active} left residual ({r1}, {r2})")
    return QpSolution(l1=x1, l2=x2, lam=max(lam[0], 0.0), gamma=max(lam[1], 0.0),
                      objective=float(inst.objective(x1, x2)), capped=2 in active or 3 in active)


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
