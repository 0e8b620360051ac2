"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line
(visible with `pytest -s`).  Criteria with pinned runtimes assert their
process CPU time as well, so that other load on the host cannot fail them.
"""

import itertools
import math
import time

import numpy as np
import pytest

import oracles
from wiener_coding import (
    BandStop,
    Codebook,
    DeterministicStop,
    RateConstraint,
    SimConfig,
    SlopedStop,
    ThresholdConfig,
    dinkelbach_solve,
    event_probabilities,
    hit_moments,
    integer_oracle,
    length_independence_test,
    mse_exact,
    mse_integral_oracle,
    run,
    sample_hit_times,
    scheme_constants,
)
from wiener_coding.code_optimizer import build_qp
from wiener_coding.hitting_times import DriftHitSpec
from wiener_coding.mse_model import INTEGER

UNC = RateConstraint(math.inf)


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"CRITERION {num:2d} [{status}] {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_zero_threshold_anchor():
    t0 = time.process_time()
    res = dinkelbach_solve(ThresholdConfig(0, 0, math.inf), UNC)
    bd = mse_exact(ThresholdConfig(0, 0, math.inf), res.lengths)
    elapsed = time.process_time() - t0
    ok = (
        abs(res.lengths.l1 - 1.0) <= 1e-6
        and abs(bd.mse - 1.5) <= 1e-6
        and abs(bd.sr - 1.0) <= 1e-6
        and elapsed < 1.0
    )
    _report(
        1,
        "zero-threshold optimum: l1 -> 1, MSE 3/2, SR 1",
        ok,
        f"l1={res.lengths.l1:.9f}, mse={bd.mse:.9f}, sr={bd.sr:.9f}, {elapsed:.3f}s",
    )


@pytest.mark.slow
def test_criterion_02_simulation_matches_analytics():
    t0 = time.process_time()
    cb = Codebook.uniform(2, mode=INTEGER)
    worst_mse = worst_sr = 0.0
    for a in (0.25, 0.5, 1.0, 1.5):
        cfg = ThresholdConfig(a, a, 10)
        rep = run(
            SimConfig(eps=1e-2, horizon=1e5, cfg=cfg, cb=cb, seed=7, replications=20)
        )
        ex = mse_exact(cfg, cb)
        worst_mse = max(worst_mse, abs(rep.mse_hat - ex.mse) / ex.mse)
        worst_sr = max(worst_sr, abs(rep.sr_hat - ex.sr) / ex.sr)
    elapsed = time.process_time() - t0
    ok = worst_mse <= 0.05 and worst_sr <= 0.05 and elapsed < 300.0
    _report(
        2,
        "simulated MSE/SR within 5% of finite-slope analytics",
        ok,
        f"worst mse {worst_mse:.2%}, worst sr {worst_sr:.2%}, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_03_hitting_time_moments():
    t0 = time.process_time()
    worst = 0.0
    for c, mu in ((1, 1), (2, 1), (1, 10)):
        spec = DriftHitSpec(c, mu)
        times = sample_hit_times(spec, 1e-4, 100_000, rng_seed=11)
        m1, m2, _, _ = hit_moments(spec)
        worst = max(
            worst,
            abs(float(times.mean()) - m1) / m1,
            abs(float((times**2).mean()) - m2) / m2,
        )
    elapsed = time.process_time() - t0
    ok = worst <= 0.02 and elapsed < 120.0
    _report(
        3,
        "hitting-time sampler matches first two moments within 2%",
        ok,
        f"worst dev {worst:.2%}, {elapsed:.0f}s",
    )


def test_criterion_04_stopping_identity():
    checks = []
    r = mse_integral_oracle(DeterministicStop(1.0), n_paths=20_000, step=1e-3, seed=3)
    checks.append(abs(r.lhs - 0.5) <= 1.96 * r.lhs_se)  # exact value t^2/2
    checks.append(abs(r.rhs - 0.5) <= 1.96 * r.rhs_se)
    checks.append(abs(r.diff) <= 1.96 * r.diff_se)
    zs = [abs(r.diff) / r.diff_se]
    for stop in (BandStop(1, 1), SlopedStop(1, 2)):
        r = mse_integral_oracle(stop, n_paths=20_000, step=1e-3, seed=3)
        checks.append(abs(r.diff) <= 1.96 * r.diff_se)
        zs.append(abs(r.diff) / r.diff_se)
    _report(
        4,
        "integral identity holds for deterministic/band/sloped stops",
        all(checks),
        "z-scores " + ", ".join(f"{z:.2f}" for z in zs),
    )


def test_criterion_05_tight_constraints_and_two_regions():
    a_grid = np.round(np.arange(0.1, 3.001, 0.1), 10)
    worst_slack = 0.0
    structure_ok = True
    for fmax in (0.2, 0.5, math.inf):
        rc = RateConstraint(fmax)
        rate_active, kraft_active = [], []
        for a in a_grid:
            res = dinkelbach_solve(ThresholdConfig(float(a), float(a), math.inf), rc)
            worst_slack = max(worst_slack, min(res.kraft_slack, res.rate_slack))
            kraft_active.append(res.kraft_slack <= 1e-6)
            rate_active.append((not rc.unconstrained) and res.rate_slack <= 1e-6)
        if math.isfinite(fmax):
            r = np.array(rate_active, dtype=int)
            k = np.array(kraft_active, dtype=int)
            structure_ok &= bool(np.all(np.diff(r) <= 0))  # rate region is a prefix
            structure_ok &= bool(np.all(np.diff(k) >= 0))  # Kraft region is a suffix
            structure_ok &= bool(r[0] == 1 and k[-1] == 1)
    ok = worst_slack <= 1e-6 and structure_ok
    _report(
        5,
        "one constraint always tight; finite rate cap splits into two regions",
        ok,
        f"worst min-slack {worst_slack:.2e}",
    )


def test_criterion_06_ktilde_and_psd():
    grid = np.round(np.arange(0.01, 4.001, 0.01), 10)
    rep = oracles.verify_ktilde_negative(grid)
    min_eig = math.inf
    for a in grid:
        inst = build_qp(ThresholdConfig(float(a), float(a), math.inf), 1.0, UNC)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(inst.Q).min()))
    ok = rep.all_negative and min_eig >= -1e-10
    _report(
        6,
        "Ktilde < 0 and Q PSD across the threshold grid",
        ok,
        f"max Ktilde {rep.max_value:.4f} at a={rep.argmax_a:.2f}, min eig {min_eig:.2e}",
    )


def test_criterion_07_dinkelbach_vs_dense_grid():
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        theta_grid, _, _ = oracles.grid_search_theta(a, math.inf)
        res = dinkelbach_solve(ThresholdConfig(a, a, math.inf), UNC)
        worst = max(worst, abs(res.theta_star - theta_grid))
    ok = worst <= 1e-3
    _report(7, "Dinkelbach optimum matches dense grid search", ok, f"worst gap {worst:.2e}")


def test_criterion_08_relaxation_bound():
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(50):
        a = float(rng.uniform(0.05, 2.5))
        fmax = math.inf if rng.random() < 0.3 else float(rng.uniform(0.2, 2.0))
        rc = RateConstraint(fmax)
        cfg = ThresholdConfig(a, a, math.inf)
        relaxed = dinkelbach_solve(cfg, rc)
        _, int_mse = integer_oracle(cfg, rc, l_max=12)
        if int_mse < relaxed.theta_star - 1e-9:
            violations += 1
    _report(
        8,
        "integer codebooks never beat the relaxed optimum (50 draws)",
        violations == 0,
        f"{violations} violations",
    )


def test_criterion_09_independent_lengths():
    # fine grid: crossing overshoot (O(sqrt(eps)), zero in continuous time)
    # couples consecutive events and must stay below the test's power
    cfg = ThresholdConfig(1, 1, 10)
    cb = Codebook.integer(1, 3, 4, 5)
    rep = run(SimConfig(eps=1e-3, horizon=6e4, cfg=cfg, cb=cb, seed=23, replications=1))
    res = length_independence_test(rep, min_cycles=10_000)
    p = np.array(event_probabilities(cfg).as_tuple())
    n = rep.n_cycles
    sigma = np.sqrt(n * p * (1 - p))
    marginal_ok = bool(np.all(np.abs(rep.event_counts - n * p) <= 3 * sigma))
    ok = res.p_value > 0.01 and marginal_ok
    _report(
        9,
        "consecutive code lengths independent; marginals match within 3 sigma",
        ok,
        f"chi2 p={res.p_value:.3f} on {res.n_pairs} pairs, marginals ok={marginal_ok}",
    )


def test_criterion_10_sigma_scaling():
    cb = Codebook.uniform(2, mode=INTEGER)
    base = run(
        SimConfig(eps=1e-2, horizon=3e4, cfg=ThresholdConfig(1, 1, 10), cb=cb,
                  seed=77, replications=6)
    )
    scaled = run(
        SimConfig(eps=1e-2, horizon=3e4, cfg=ThresholdConfig(2, 2, 20, sigma2=4.0),
                  cb=cb, seed=77, replications=6)
    )
    ratio = scaled.mse_hat / base.mse_hat
    ok = abs(ratio - 4.0) / 4.0 <= 0.05
    _report(10, "doubling sigma with scaled thresholds quadruples the MSE", ok,
            f"ratio {ratio:.3f}")


def test_criterion_11_identity_suite():
    worst_norm = worst_dual = worst_quartic = worst_gap = 0.0
    for a in np.arange(0, 4.001, 0.25):
        for b in np.arange(0, 4.001, 0.25):
            cfg = ThresholdConfig(float(a), float(b), 1e4)
            pr = event_probabilities(cfg)
            worst_norm = max(worst_norm, abs(sum(pr.as_tuple()) - 1.0))
            sc = scheme_constants(cfg)
            m = sc.moments.upper
            dual = pr.p1 * a * a + 2 * a * m[1] + m[2]
            worst_dual = max(worst_dual, abs(dual - sc.a_tilde))
            quartic = (
                pr.p1 * a**4 + 4 * a**3 * m[1] + 6 * a * a * m[2] + 4 * a * m[3] + m[4]
            )
            worst_quartic = max(
                worst_quartic, abs(quartic - oracles.q_tail_moment(float(a), 4))
            )
    for a in (0.0, 0.5, 1.0, 2.0):
        cfg = ThresholdConfig(a, a, 1e4)
        large_slope = ThresholdConfig(a, a, math.inf)
        for ls in itertools.product((1, 2, 3, 4), repeat=2):
            cb = Codebook.relaxed(ls[0], ls[1], ls[1], ls[0])
            gap = abs(mse_exact(cfg, cb).mse - mse_exact(large_slope, cb).mse)
            worst_gap = max(worst_gap, gap)
    ok = (
        worst_norm <= 1e-12
        and worst_dual <= 1e-10
        and worst_quartic <= 1e-9
        and worst_gap <= 1e-3
    )
    _report(
        11,
        "identity suite: normalization, dual forms, quartic expansion, mu-gap",
        ok,
        f"norm {worst_norm:.1e}, dual {worst_dual:.1e}, quartic {worst_quartic:.1e}, "
        f"gap {worst_gap:.1e}",
    )
