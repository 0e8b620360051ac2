import math
from dataclasses import replace

import numpy as np
import pytest

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
from wiener_coding import LENGTH_CAP, code_optimizer
from wiener_coding.code_optimizer import QpSolution, build_qp, solve_qp, threshold_grid

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
        assert sol.lam == sol.gamma == 0.0  # both constraints slack
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

    def test_empty_strict_interior_is_infeasible(self):
        # a rate floor that only l1 = l2 = LENGTH_CAP meets passes the
        # pre-check, but the interior-point method needs a strict interior
        inst = build_qp(sym_cfg(1.0), 1.0, UNC)
        inst = replace(inst, rate_bound=2.0 * sum(inst.p) * LENGTH_CAP)
        with pytest.raises(InfeasibleError, match="only capped lengths"):
            solve_qp(inst)

    @pytest.mark.parametrize("a", [0.05, 1.0, 1.6, 2.5])
    @pytest.mark.parametrize("floor", [63.0, 63.5, 63.9, 64.0 - 1e-7, 64.0 - 1e-10])
    def test_rate_floor_just_below_the_cap(self, a, floor):
        # E[L] >= floor with floor in [63, 64): the interior-point start one
        # unit above the floor lies past the caps, and at 64 - 1e-10 the
        # feasible set is thinner than the loose gap
        for theta in (0.0, 5.0, 200.0):
            inst = build_qp(sym_cfg(a), theta, UNC)
            inst = replace(inst, rate_bound=2.0 * sum(inst.p) * floor)
            sol, ref = solve_qp(inst), oracles.kkt_solve_qp(inst)
            assert abs(sol.l1 - ref.l1) <= 1e-8 and abs(sol.l2 - ref.l2) <= 1e-8, theta
            assert sol.capped == ref.capped
            assert sol.gamma == pytest.approx(ref.gamma, rel=1e-6, abs=1e-9)

    def test_misjudged_rate_floor_leaves_the_active_set(self, monkeypatch):
        # a rate floor 1e-6 below the rate-free optimum's E[L]: its slack and
        # multiplier are both below sqrt(gap), the interior-point stage calls
        # it active, and Newton's method on it gives a negative multiplier
        inst = build_qp(sym_cfg(1.0), 60.0, UNC)
        free = solve_qp(inst)
        inst = replace(inst, rate_bound=2 * (inst.p[0] * free.l1 + inst.p[1] * free.l2) - 1e-6)
        sol, ref = solve_qp(inst), oracles.kkt_solve_qp(inst)
        assert abs(sol.l1 - ref.l1) <= 1e-12 and abs(sol.l2 - ref.l2) <= 1e-12
        assert sol.gamma == ref.gamma == 0.0
        monkeypatch.setattr(code_optimizer, "_ACTIVE_SET_ROUNDS", 1)
        with pytest.raises(SearchError, match="no KKT point after 1 active sets"):
            solve_qp(inst)

    def test_caps_join_the_active_set_one_per_round(self, monkeypatch):
        # the optimum under Kraft and the rate floor, (62.8, 66.1), lies past
        # the l2 cap; with l2 capped l1 moves to 64.1, past its own cap, so
        # the optimum l1 = l2 = 64 takes three rounds (found by random search)
        inst = build_qp(sym_cfg(3.2451451660109276), 364.42368653822155, UNC)
        inst = replace(inst, rate_bound=2.0 * sum(inst.p) * 63.99997453637672)
        sol, ref = solve_qp(inst), oracles.kkt_solve_qp(inst)
        assert (sol.l1, sol.l2, sol.capped) == (ref.l1, ref.l2, ref.capped) == (64.0, 64.0, True)
        assert sol.objective == pytest.approx(ref.objective, rel=1e-12)
        monkeypatch.setattr(code_optimizer, "_ACTIVE_SET_ROUNDS", 2)
        with pytest.raises(SearchError, match="no KKT point after 2 active sets"):
            solve_qp(inst)

    def test_rate_floor_just_below_the_cap_on_a_grid(self):
        # f_max = 0.005 puts 1/(D f_max) in (63, 64) at a = 1.73 and 1.74
        rc = RateConstraint(0.005)
        floors = [1.0 / (scheme_constants(sym_cfg(a)).d * rc.f_max)
                  for a in threshold_grid((1.7, 1.9, 0.01))]
        assert any(63.0 < f < LENGTH_CAP for f in floors)
        assert optimize_threshold(rc, (1.7, 1.9, 0.01)).active == ("rate",)

    @pytest.mark.parametrize("name,value,message", [
        ("_IP_MAX_STEPS", 3, "did not converge in 3 steps"),
        ("_IP_MIN_STEP", 1.0, "line search stalled"),
        ("_POLISH_STEPS", 1, "no convergence in 1 Newton steps"),
    ])
    def test_stalled_solver_raises_search_error(self, monkeypatch, name, value, message):
        monkeypatch.setattr(code_optimizer, name, value)
        with pytest.raises(SearchError, match=message):
            solve_qp(build_qp(sym_cfg(1.0), 2.8, RateConstraint(0.5)))
        with pytest.raises(SearchError, match=message):
            dinkelbach_solve(sym_cfg(1.0), RateConstraint(0.5))

    def test_diverging_newton_steps_raise_search_error(self, monkeypatch):
        # steps three times too long stop at once and leave a dual residual
        solve = np.linalg.solve
        monkeypatch.setattr(code_optimizer.np.linalg, "solve", lambda a, b: 3.0 * solve(a, b))
        with pytest.raises(SearchError, match="left residual"):
            solve_qp(build_qp(sym_cfg(1.0), 2.8, RateConstraint(0.5)))

    @pytest.mark.parametrize("fmax", [math.inf, 0.5, 0.2])
    @pytest.mark.parametrize("a", [0.0, 0.05, 0.5, 1.0, 2.0, 3.0])
    def test_matches_kkt_reference(self, a, fmax):
        # theta from 0 to far above theta*: rate-free, Kraft-only, rate-only,
        # Kraft-and-rate and capped solutions all occur, a capped l2 both at
        # a = 0 (p2 = 0) and at 20 theta* (a = 0.05 and 0.5 with f_max = 0.2)
        rc = RateConstraint(fmax)
        theta_star = dinkelbach_solve(sym_cfg(a), rc).theta_star
        for theta in (0.0, 0.5 * theta_star, theta_star, 1.5 * theta_star, 20 * theta_star):
            inst = build_qp(sym_cfg(a), theta, rc)
            sol, ref = solve_qp(inst), oracles.kkt_solve_qp(inst)
            assert abs(sol.l1 - ref.l1) <= 1e-8 and abs(sol.l2 - ref.l2) <= 1e-8, theta
            assert sol.objective == pytest.approx(ref.objective, rel=1e-12, abs=1e-12)
            assert sol.capped == ref.capped
            assert sol.lam == pytest.approx(ref.lam, rel=1e-6, abs=1e-9)
            assert sol.gamma == pytest.approx(ref.gamma, rel=1e-6, abs=1e-9)


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

    def test_agrees_with_kkt_reference_on_cli_grid(self, monkeypatch):
        # a in 0:3:0.01 at six rate limits, 1806 points; the reference runs
        # the same Dinkelbach iteration with the KKT enumeration as its QP
        points = [(i * 0.01, fmax) for fmax in (math.inf, 1.0, 0.5, 0.35, 0.3, 0.2)
                  for i in range(301)]
        new = [dinkelbach_solve(sym_cfg(a), RateConstraint(fmax)) for a, fmax in points]
        monkeypatch.setattr(code_optimizer, "solve_qp", oracles.kkt_solve_qp)
        for (a, fmax), res in zip(points, new):
            ref = dinkelbach_solve(sym_cfg(a), RateConstraint(fmax))
            assert abs(res.theta_star - ref.theta_star) <= 1e-9, (a, fmax)
            assert abs(res.lengths.l1 - ref.lengths.l1) <= 1e-8, (a, fmax)
            assert abs(res.lengths.l2 - ref.lengths.l2) <= 1e-8, (a, fmax)
            assert (res.capped, res.active) == (ref.capped, ref.active), (a, fmax)
            assert res.iterations == ref.iterations <= 6, (a, fmax)
        assert len(points) == 1806
        assert sum(res.capped for res in new) == 6  # a = 0 at each rate limit
        assert sum(res.active == ("kraft", "rate") for res in new) >= 50
        assert sum(res.active == ("rate",) for res in new) >= 50

    def test_non_convergence_raises(self, monkeypatch):
        stuck = QpSolution(3.0, 3.0, 0.0, 0.0, objective=1.0, capped=False)
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
            return QpSolution(l, l, 0.0, 0.0, objective=1.0, capped=False)

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
