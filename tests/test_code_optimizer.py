import math

import numpy as np
import pytest
from scipy.optimize import brentq

import oracles
from wiener_coding import (
    Codebook,
    InfeasibleError,
    ParameterError,
    RateConstraint,
    SearchError,
    ThresholdConfig,
    UnsupportedConfigurationError,
    dinkelbach_solve,
    integer_oracle,
    mse_exact,
    optimize_threshold,
    scheme_constants,
)
from wiener_coding import code_optimizer
from wiener_coding.cli import main
from wiener_coding.code_optimizer import QpSolution, _brentq, build_qp, solve_qp, threshold_grid

MU = math.inf
UNC = RateConstraint(math.inf)

# 20 thresholds from a = 0 x 5 rate limits: 100 points, 23 of them rate-active
SOLVER_POINTS = [
    (float(a), fmax)
    for a in np.round(np.linspace(0.0, 3.0, 20), 10)
    for fmax in (math.inf, 1.0, 0.5, 0.35, 0.2)
]


def sym_cfg(a):
    return ThresholdConfig(a, a, MU)


def _quadratic_part_first_principles(a, l1, l2):
    """K*E[L^2] + E[L]*E_Ptilde[L] assembled from PMF sums, no Q involved."""
    sc = scheme_constants(sym_cfg(a))
    p1, p2 = sc.probs.p1, sc.probs.p2
    pt1, pt2 = sc.p_tilde[0], sc.p_tilde[1]
    m1 = 2 * (p1 * l1 + p2 * l2)
    m2 = 2 * (p1 * l1**2 + p2 * l2**2)
    lt = 2 * (pt1 * l1 + pt2 * l2)
    return sc.k * m2 + m1 * lt


class TestBuildQp:
    def test_requires_symmetric_thresholds(self):
        with pytest.raises(UnsupportedConfigurationError):
            build_qp(ThresholdConfig(1, 2, MU), 1.0, UNC)

    def test_theta_zero_kills_linear_term(self):
        inst = build_qp(sym_cfg(1.0), 0.0, UNC)
        assert np.all(inst.q_theta == 0.0)

    @pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 2.0, 3.5])
    def test_q_psd(self, a):
        inst = build_qp(sym_cfg(a), 1.0, UNC)
        assert np.linalg.eigvalsh(inst.Q).min() >= -1e-10
        assert inst.Q[0, 1] == inst.Q[1, 0]

    @pytest.mark.parametrize("a", [0.3, 1.0, 2.2])
    def test_q_matches_fd_hessian(self, a):
        # the parametric objective is exactly quadratic, so a wide-step
        # second difference of the first-principles form is exact
        inst = build_qp(sym_cfg(a), 0.7, UNC)
        h = 0.25
        x = np.array([3.0, 3.0])

        def f(l1, l2):
            return _quadratic_part_first_principles(a, l1, l2)

        h11 = (f(x[0] + h, x[1]) - 2 * f(*x) + f(x[0] - h, x[1])) / h**2
        h22 = (f(x[0], x[1] + h) - 2 * f(*x) + f(x[0], x[1] - h)) / h**2
        h12 = (
            f(x[0] + h, x[1] + h)
            - f(x[0] + h, x[1] - h)
            - f(x[0] - h, x[1] + h)
            + f(x[0] - h, x[1] - h)
        ) / (4 * h**2)
        fd = np.array([[h11, h12], [h12, h22]])
        assert np.abs(fd / 2.0 - inst.Q).max() <= 1e-8

    def test_rate_bound_value(self):
        sc = scheme_constants(sym_cfg(1.0))
        inst = build_qp(sym_cfg(1.0), 1.0, RateConstraint(0.5))
        assert inst.rate_bound == pytest.approx(1.0 / (sc.d * 0.5), rel=1e-14)


class TestSolveQp:
    def test_unconstrained_fixed_point_identity(self):
        # with both constraints slack, lengths satisfy the stationarity
        # fixed point l_i = (1 + (p_i - pt_i)/(2K p_i)) * E_P[L]
        a, theta = 1.0, 60.0
        inst = build_qp(sym_cfg(a), theta, UNC)
        sol = solve_qp(inst)
        assert sol.pattern == "interior"
        sc = scheme_constants(sym_cfg(a))
        p = sc.probs.as_tuple()
        pt = sc.p_tilde
        lengths = (sol.l1, sol.l2, sol.l2, sol.l1)
        epl = sum(pi * li for pi, li in zip(p, lengths))
        for pi, qi, li in zip(p, pt, lengths):
            assert li == pytest.approx(
                (1 + (pi - qi) / (2 * sc.k * pi)) * epl, rel=1e-9
            )

    @pytest.mark.parametrize(
        "a,theta,fmax",
        [
            (0.5, 2.0, math.inf),
            (1.0, 2.8, math.inf),
            (2.0, 2.5, math.inf),
            (0.5, 2.0, 0.3),
            (1.0, 4.0, 0.2),
            (2.2, 1.0, 0.6),
        ],
    )
    def test_kkt_residuals_and_random_optimality(self, a, theta, fmax):
        inst = build_qp(sym_cfg(a), theta, RateConstraint(fmax))
        sol = solve_qp(inst)
        if not sol.capped:
            # stationarity residual of the full KKT system
            g = 2 * inst.Q @ np.array([sol.l1, sol.l2]) - inst.q_theta
            g -= sol.lam * math.log(2) * np.array([2.0**-sol.l1, 2.0**-sol.l2])
            g -= sol.gamma * 2 * np.array(inst.p)
            assert np.abs(g).max() <= 1e-8
            assert abs(sol.lam * inst.kraft_slack(sol.l1, sol.l2)) <= 1e-8
            assert abs(sol.gamma * inst.rate_slack(sol.l1, sol.l2)) <= 1e-8
        # no random feasible point does better
        rng = np.random.default_rng(12345)
        pts = rng.uniform(1.0, 30.0, size=(40_000, 2))
        feas = 2.0 ** -pts[:, 0] + 2.0 ** -pts[:, 1] <= inst.kraft_bound
        feas &= 2 * (inst.p[0] * pts[:, 0] + inst.p[1] * pts[:, 1]) >= inst.rate_bound
        pts = pts[feas][:10_000]
        assert pts.shape[0] > 1000
        objs = (
            pts[:, 0] ** 2 * inst.Q[0, 0]
            + 2 * pts[:, 0] * pts[:, 1] * inst.Q[0, 1]
            + pts[:, 1] ** 2 * inst.Q[1, 1]
            - pts @ inst.q_theta
        )
        assert objs.min() >= sol.objective - 1e-8

    def test_infeasible_rate_floor(self):
        with pytest.raises(InfeasibleError):
            solve_qp(build_qp(sym_cfg(1.0), 1.0, RateConstraint(1e-4)))


class TestDinkelbach:
    def test_origin_anchor(self):
        res = dinkelbach_solve(sym_cfg(0.0), UNC)
        assert res.theta_star == pytest.approx(1.5, abs=1e-6)
        assert res.lengths.l1 == pytest.approx(1.0, abs=1e-6)
        assert res.capped  # l2 pushed to the cap, standing in for infinity

    def test_sign_property(self):
        for a in (0.5, 1.5):
            res = dinkelbach_solve(sym_cfg(a), UNC)
            for delta, sign in ((-0.1, 1), (0.1, -1)):
                inst = build_qp(sym_cfg(a), res.theta_star + delta, UNC)
                assert math.copysign(1, solve_qp(inst).objective) == sign

    def test_matches_dense_grid(self):
        theta_grid, _, _ = oracles.grid_search_theta(1.0, math.inf)
        res = dinkelbach_solve(sym_cfg(1.0), UNC)
        assert res.theta_star == pytest.approx(theta_grid, abs=1e-3)

    def test_fractional_consistency(self):
        res = dinkelbach_solve(sym_cfg(0.8), RateConstraint(0.4))
        val = mse_exact(sym_cfg(0.8), res.lengths).mse
        assert val == pytest.approx(res.theta_star, abs=1e-6)

    def test_sigma_guard(self):
        with pytest.raises(UnsupportedConfigurationError):
            dinkelbach_solve(ThresholdConfig(1, 1, MU, sigma2=4), UNC)

    def test_band_codeword_diverges_at_small_thresholds(self):
        # shrinking a drives l1 to 1 and l2 toward infinity (capped + flagged)
        l2_seen = []
        for a in (0.2, 0.1, 0.05, 0.0):
            res = dinkelbach_solve(sym_cfg(a), UNC)
            l2_seen.append(res.lengths.l2)
        assert all(x < y for x, y in zip(l2_seen, l2_seen[1:]))
        res = dinkelbach_solve(sym_cfg(0.0), UNC)
        assert res.capped and res.lengths.l2 == 64.0
        assert res.lengths.l1 == pytest.approx(1.0, abs=1e-6)

    def test_matches_bisection(self):
        rate_active = 0
        for a, fmax in SOLVER_POINTS:
            rc = RateConstraint(fmax)
            res = dinkelbach_solve(sym_cfg(a), rc)
            theta, sol = oracles.bisection_theta(sym_cfg(a), rc)
            assert abs(res.theta_star - theta) <= 2e-9, (a, fmax)
            assert abs(res.lengths.l1 - sol.l1) <= 1e-8, (a, fmax)
            assert abs(res.lengths.l2 - sol.l2) <= 1e-8, (a, fmax)
            assert res.capped == sol.capped, (a, fmax)
            rate_active += (not rc.unconstrained) and res.rate_slack <= 1e-6
        assert rate_active >= 10

    def test_iteration_count(self):
        for a, fmax in SOLVER_POINTS:
            assert dinkelbach_solve(sym_cfg(a), RateConstraint(fmax)).iterations <= 6

    def test_non_convergence_raises(self, monkeypatch):
        stuck = QpSolution(3.0, 3.0, 0.0, 0.0, objective=1.0, capped=False, pattern="stub")
        monkeypatch.setattr("wiener_coding.code_optimizer.solve_qp", lambda inst: stuck)
        with pytest.raises(SearchError, match="did not converge"):
            dinkelbach_solve(sym_cfg(1.0), UNC)

    def test_rising_theta_raises(self, monkeypatch):
        # with l1 = l2 = l the fractional objective is (K + 1) * l, so growing
        # lengths drive theta up, which a correct QP solve never does
        calls = []

        def growing(inst):
            calls.append(None)
            l = 2.0 + len(calls)
            return QpSolution(l, l, 0.0, 0.0, objective=1.0, capped=False, pattern="stub")

        monkeypatch.setattr("wiener_coding.code_optimizer.solve_qp", growing)
        with pytest.raises(SearchError, match="rose"):
            dinkelbach_solve(sym_cfg(1.0), UNC)


class TestOptimizeThreshold:
    def test_unconstrained_optimum_at_zero(self):
        res = optimize_threshold(UNC, a_grid=(0.0, 1.0, 0.05))
        assert res.a_star == 0.0
        assert res.mse == pytest.approx(1.5, abs=1e-6)
        assert res.sr == pytest.approx(1.0, abs=1e-6)
        assert "kraft" in res.active

    def test_constrained_optimum_nonzero(self):
        res = optimize_threshold(RateConstraint(0.2), a_grid=(0.0, 3.0, 0.1))
        assert res.a_star > 0.0
        assert min(res.kraft_slack, res.rate_slack) <= 1e-6

    def test_one_constraint_always_tight(self):
        for fmax in (0.2, 0.5, math.inf):
            res = optimize_threshold(RateConstraint(fmax), a_grid=(0.0, 2.0, 0.25))
            assert min(res.kraft_slack, res.rate_slack) <= 1e-6
            assert res.mse == pytest.approx(
                mse_exact(sym_cfg(res.a_star), res.lengths).mse, abs=1e-9
            )

    def test_bad_grid(self):
        with pytest.raises(ParameterError):
            optimize_threshold(UNC, a_grid=(1.0, 0.5, 0.1))

    @pytest.mark.parametrize("f_max", ["x", True, 0, -1.0, math.nan, -math.inf, None])
    def test_rejects_bad_rate_constraint(self, f_max):
        with pytest.raises(ParameterError):
            RateConstraint(f_max)

    def test_rate_constraint_values(self):
        assert RateConstraint(np.float64(math.inf)).unconstrained
        assert type(RateConstraint(np.int64(2)).f_max) is float

    @pytest.mark.parametrize("a_grid", [(0.0, 1.0, 1e-300), (0.0, math.inf, 1.0), (0.0, 1.0, 1e-6)])
    def test_grid_size_capped(self, a_grid):
        with pytest.raises(ParameterError, match="limit"):
            threshold_grid(a_grid)

    def test_grid_points(self):
        assert threshold_grid((0.0, 1.0, 0.5)) == [0.0, 0.5, 1.0]
        # hi is appended when the steps miss it by more than 1e-12
        assert threshold_grid((0.0, 1.0, 0.3)) == [i * 0.3 for i in range(4)] + [1.0]
        assert threshold_grid((0.1, 1.0, 0.3)) == [0.1 + i * 0.3 for i in range(4)]
        assert len(threshold_grid((0.0, 1.0, 1e-5))) == 100_001

    def test_all_infeasible(self):
        with pytest.raises(InfeasibleError):
            optimize_threshold(RateConstraint(1e-4), a_grid=(0.5, 1.0, 0.25))


class TestIntegerOracle:
    def test_relaxation_bound(self):
        for a, fmax in [(0.5, math.inf), (1.0, 0.5), (2.0, 0.3)]:
            rc = RateConstraint(fmax)
            relaxed = dinkelbach_solve(sym_cfg(a), rc)
            _, int_mse = integer_oracle(sym_cfg(a), rc, l_max=12)
            assert relaxed.theta_star <= int_mse + 1e-9

    def test_origin_prefers_short_first_codeword(self):
        # dead band events carry no codeword (length inf), freeing l1 = 1
        cb, mse = integer_oracle(sym_cfg(0.0), UNC, l_max=12)
        assert cb.l1 == 1
        assert math.isinf(cb.l2)
        assert mse == pytest.approx(1.5, abs=1e-12)

    def test_longer_budget_weakly_improves(self):
        for a in (0.0, 0.3):
            _, mse8 = integer_oracle(sym_cfg(a), UNC, l_max=8)
            _, mse12 = integer_oracle(sym_cfg(a), UNC, l_max=12)
            assert mse12 <= mse8 + 1e-15

    def test_l_max_guard(self):
        for l_max in (20, 0, 2.5, True, np.float64(4.0)):
            with pytest.raises(ParameterError):
                integer_oracle(sym_cfg(1.0), UNC, l_max=l_max)

    def test_infeasible_reported(self):
        with pytest.raises(InfeasibleError):
            integer_oracle(sym_cfg(1.0), RateConstraint(0.01), l_max=4)


class TestKtilde:
    def test_negative_on_grid(self):
        rep = oracles.verify_ktilde_negative(np.arange(0.01, 4.001, 0.05))
        assert rep.all_negative
        assert rep.max_value < 0

    def test_zero_threshold_convention(self):
        # at a = 0 the band terms drop and Ktilde = -1 exactly
        rep = oracles.verify_ktilde_negative([0.0])
        assert rep.values[0] == pytest.approx(-1.0, abs=1e-12)

    def test_reports_argmax(self):
        rep = oracles.verify_ktilde_negative([0.5, 1.0, 2.0])
        assert rep.argmax_a in (0.5, 1.0, 2.0)
        assert rep.max_value == rep.values.max()

    def test_empty_grid(self):
        with pytest.raises(ParameterError):
            oracles.verify_ktilde_negative([])


# every QP solve of these runs; both KKT patterns that find roots take part
BRENTQ_RUNS = [
    ["optimize", "--fmax", "0.5", "--grid", "0:3:0.01"],
    ["optimize", "--fmax", "inf", "--grid", "0:3:0.01"],
    ["optimize", "--fmax", "0.2", "--grid", "0:3:0.01"],
    ["sweep", "--grid", "0:2:0.05", "--fmax", "inf,0.5,0.35,0.2"],
]


class TestBrentq:
    def test_matches_scipy_on_cli_grids(self, monkeypatch, tmp_path):
        calls = []

        def recording(f, xa, xb, **kw):
            root = _brentq(f, xa, xb, **kw)
            calls.append((f, xa, xb, kw, root))
            return root

        monkeypatch.setattr(code_optimizer, "_brentq", recording)
        for i, argv in enumerate(BRENTQ_RUNS):
            assert main(argv + ["--out", str(tmp_path / f"{i}.csv")]) == 0
        assert len(calls) > 1000
        assert {f.__name__ for f, *_ in calls} == {"dphi", "h"}
        for f, xa, xb, kw, root in calls:
            assert type(root) is float
            assert root == brentq(f, xa, xb, **kw)

    @pytest.mark.parametrize("f,xa,xb,xtol", [
        (math.cos, 0.0, 3.0, 1e-13),
        (lambda x: x**3 - 2.0, 0.0, 10.0, 1e-13),
        (lambda x: math.exp(x) - 5.0, -3.0, 4.0, 2e-12),
        (lambda x: math.atan(x - 0.3), 5.0, -5.0, 1e-6),
        (lambda x: (x - 1.0) ** 3, 0.0, 1.5, 1e-8),  # triple root: slow, bisection-led
    ])
    def test_matches_scipy(self, f, xa, xb, xtol):
        assert _brentq(f, xa, xb, xtol) == brentq(f, xa, xb, xtol=xtol)
        assert _brentq(f, xa, xb, xtol, rtol=1e-10) == brentq(f, xa, xb, xtol=xtol, rtol=1e-10)

    @pytest.mark.parametrize("xa,xb", [(1.0, 2.0), (0.0, 1.0)])
    def test_root_at_endpoint(self, xa, xb):
        assert _brentq(lambda x: x - 1.0, xa, xb, 1e-13) == 1.0

    def test_same_sign_raises(self):
        with pytest.raises(SearchError, match="same sign"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-13)

    @pytest.mark.parametrize("f", [
        lambda x: math.nan,
        lambda x: x - 0.5 if x in (0.0, 1.0) else math.nan,  # NaN at the first step
    ])
    def test_nan_raises(self, f):
        with pytest.raises(SearchError, match="NaN"):
            _brentq(f, 0.0, 1.0, 1e-13)

    def test_maxiter_exhausted_raises(self):
        f = lambda x: x**3 - 2.0  # noqa: E731
        with pytest.raises(RuntimeError):
            brentq(f, 0.0, 10.0, xtol=1e-13, maxiter=3)
        with pytest.raises(SearchError, match="did not converge in 3 steps"):
            _brentq(f, 0.0, 10.0, 1e-13, maxiter=3)
