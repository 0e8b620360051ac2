import csv
import hashlib
import io
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import oracles
from wiener_coding import (
    Codebook,
    HorizonError,
    ParameterError,
    SimConfig,
    SimulationReport,
    ThresholdConfig,
    event_probabilities,
    ideal_benchmark_mse,
    length_independence_test,
    mse_exact,
    run,
    run_benchmark,
)
from wiener_coding import hitting_times, simulator
from wiener_coding.mse_model import INTEGER

UNIT2 = Codebook.uniform(2, mode=INTEGER)


def sim_cfg(a=1.0, b=1.0, mu=10.0, sigma2=1.0, **kw):
    defaults = dict(
        eps=1e-2,
        horizon=2000.0,
        cfg=ThresholdConfig(a, b, mu, sigma2),
        cb=UNIT2,
        seed=101,
        replications=1,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


class TestSimConfigValidation:
    def test_bad_scheme(self):
        with pytest.raises(ParameterError):
            sim_cfg(scheme="round-robin")

    def test_monotone_needs_codebook(self):
        with pytest.raises(ParameterError):
            sim_cfg(cb=None)

    def test_codebook_must_be_integer_mode(self):
        with pytest.raises(ParameterError):
            sim_cfg(cb=Codebook.uniform(2.0))

    def test_horizon_floor(self):
        with pytest.raises(ParameterError):
            sim_cfg(horizon=150.0)  # 100 * max length = 200

    def test_infinite_length_needs_dead_event(self):
        with pytest.raises(ParameterError):
            sim_cfg(cb=Codebook.integer(1, math.inf, math.inf, 1))  # a=b=1: p2 > 0

    def test_ideal_rejects_codebook(self):
        with pytest.raises(ParameterError):
            sim_cfg(scheme="ideal-benchmark", horizon=500.0)

    @pytest.mark.parametrize("scheme,cb", [
        ("monotone", UNIT2), ("uniform-benchmark", None), ("ideal-benchmark", None),
    ])
    def test_infinite_slope_rejected(self, scheme, cb):
        # mu = inf is the closed forms' limit; a grid cannot catch up at that slope
        with pytest.raises(ParameterError, match="finite slope"):
            sim_cfg(mu=math.inf, scheme=scheme, cb=cb)

    def test_ideal_requires_symmetric_band(self):
        # the ideal scheme samples on a +-a band; a different b would be ignored
        with pytest.raises(ParameterError, match="b = a"):
            sim_cfg(b=0.2, scheme="ideal-benchmark", cb=None)
        assert sim_cfg(a=0.2, b=0.2, scheme="ideal-benchmark", cb=None).cfg.b == 0.2

    def test_uniform_default_codebook(self):
        s = sim_cfg(scheme="uniform-benchmark", cb=None)
        assert s.cb.lengths == (2.0, 2.0, 2.0, 2.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_eps(self, eps):
        with pytest.raises(ParameterError):
            sim_cfg(eps=eps)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_non_finite_horizon(self, horizon):
        with pytest.raises(ParameterError):
            sim_cfg(horizon=horizon)

    def test_grid_steps_below_2_pow_53(self):
        with pytest.raises(ParameterError):
            sim_cfg(eps=1e-300)

    @pytest.mark.parametrize("kw", [
        dict(eps=10.0),  # L = 2 would span 0 grid steps
        dict(eps=3.0),  # L = 2 would round to 3
        dict(eps=0.3, cb=Codebook.integer(1, 2, 3, 3)),
        dict(eps=0.3, scheme="ideal-benchmark", cb=None),  # unit delay = 3.33 steps
    ])
    def test_lengths_whole_grid_steps(self, kw):
        with pytest.raises(ParameterError, match="grid steps"):
            sim_cfg(horizon=5000.0, **kw)

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 2e-3, 0.5, 1.0])
    def test_lengths_whole_grid_steps_accepted(self, eps):
        mu = min(10.0, 1.0 / eps)  # the coarse grids need a slope with mu*eps <= 1
        sim_cfg(eps=eps, mu=mu, cb=Codebook.integer(1, 2, 3, 3))
        sim_cfg(eps=eps, scheme="ideal-benchmark", cb=None)

    @pytest.mark.parametrize("scheme,cb", [("monotone", UNIT2), ("uniform-benchmark", None)])
    def test_slope_times_grid_step_at_most_one(self, scheme, cb):
        # decoded sloped values are multiples of mu*eps; at mu*eps = 10 the
        # MSE estimate is off by +960%
        sim_cfg(mu=100.0, scheme=scheme, cb=cb)  # mu*eps = 1 is accepted
        with pytest.raises(ParameterError, match=r"mu\*eps = 10 > 1"):
            sim_cfg(mu=1000.0, scheme=scheme, cb=cb)

    def test_ideal_scheme_has_no_slope_bound(self):
        assert sim_cfg(mu=1000.0, scheme="ideal-benchmark", cb=None).cfg.mu == 1000.0

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ParameterError):
            sim_cfg(seed=seed)

    @pytest.mark.parametrize("reps", [0, -1, 2.5, True, np.float64(2.0), "2"])
    def test_replications_must_be_positive_integer(self, reps):
        with pytest.raises(ParameterError, match="replications"):
            sim_cfg(replications=reps)


class TestDeterminism:
    def test_same_seed_identical(self):
        a = run(sim_cfg(replications=2))
        b = run(sim_cfg(replications=2))
        assert a.mse_hat == b.mse_hat
        assert a.sr_hat == b.sr_hat
        assert np.array_equal(a.event_counts, b.event_counts)
        assert all(
            np.array_equal(x, y)
            for x, y in zip(a.length_sequences, b.length_sequences)
        )

    def test_different_seeds_differ(self):
        a = run(sim_cfg(seed=1))
        b = run(sim_cfg(seed=2))
        assert a.mse_hat != b.mse_hat


def _digest(seqs) -> str:
    h = hashlib.sha256()
    for seq in seqs:
        h.update(np.asarray(seq, dtype=np.float64).tobytes())
        h.update(b"|")
    return h.hexdigest()


GOLDEN_CONFIGS = {
    "monotone": dict(horizon=600.0, cb=Codebook.integer(1, 3, 4, 5), seed=11, replications=2),
    "ideal": dict(horizon=300.0, scheme="ideal-benchmark", cb=None, seed=12, replications=2),
    "origin": dict(a=0.0, b=0.0, horizon=200.0, cb=Codebook.integer(1, math.inf, math.inf, 1),
                   seed=13, replications=2),
}


def _golden_run(name, **kw):
    sim = sim_cfg(**{**GOLDEN_CONFIGS[name], **kw})
    return (run_benchmark if sim.scheme == "ideal-benchmark" else run)(sim)


class TestGolden:
    """Reports pinned to exact values: any change to the walk, the chain
    count, the crossing rule or the accumulation order shows here."""

    SPEC = dict(a=1.0, b=1.0, burn_in_cycles=2, eps=0.01, mu=10.0, replications=2,
                sigma2=1.0)
    EXPECTED = {
        "monotone": (
            dict(horizon=600.0, lengths=[1.0, 3.0, 4.0, 5.0], scheme="monotone", seed=11),
            {
                "event_counts": {"1": 48, "2": 77, "3": 86, "4": 38},
                "mse_ci": 1.5771444882256613,
                "mse_hat": 4.789314869180225,
                "n_cycles": 249,
                "rep_mse": [3.9846493139630508, 5.593980424397399],
                "rep_sr": [0.19977026419617439, 0.21434980558971123],
                "sr_ci": 0.014287950565666105,
                "sr_hat": 0.2070600348929428,
                "total_time": 1202.51,
            },
            [120, 129],
            "8dbf21bfb58a7573aa32091579ee67e0ee00bc21b450fe82bb9415b3ea5a1afc",
        ),
        "ideal": (
            dict(horizon=300.0, lengths=None, scheme="ideal-benchmark", seed=12),
            {
                "event_counts": {"1": 0, "2": 193, "3": 185, "4": 0},
                "mse_ci": 0.17836946761943687,
                "mse_hat": 1.2548141280146616,
                "n_cycles": 378,
                "rep_mse": [1.3458189584327416, 1.1638092975965815],
                "rep_sr": [0.6515515482575932, 0.5901832846978592],
                "sr_ci": 0.06014089828853933,
                "sr_hat": 0.6208674164777261,
                "total_time": 608.8799999999999,
            },
            [198, 180],
            "c26b7485a1b5e4ed800841f7e1cc9d73a9205c88788a19d4d597dccf63620221",
        ),
        "origin": (
            dict(a=0.0, b=0.0, horizon=200.0, lengths=[1.0, None, None, 1.0], scheme="monotone",
                 seed=13),
            {
                "event_counts": {"1": 185, "2": 0, "3": 0, "4": 187},
                "mse_ci": 0.10561844538541511,
                "mse_hat": 1.455635514603537,
                "n_cycles": 372,
                "rep_mse": [1.4017485526722027, 1.5095224765348711],
                "rep_sr": [0.9219787845742042, 0.9222988049784302],
                "sr_ci": 0.00031361999614144316,
                "sr_hat": 0.9221387947763172,
                "total_time": 403.41,
            },
            [186, 186],
            "40e3fdcc418d8bd029ae1efdc5e97a93a2800c9c3f251676f06c2e89497d5763",
        ),
    }

    @pytest.mark.parametrize("name", list(GOLDEN_CONFIGS))
    def test_report_and_lengths(self, name):
        spec, results, n_lengths, digest = self.EXPECTED[name]
        rep = _golden_run(name)
        assert rep.to_json_dict() == {"spec": {**self.SPEC, **spec}, "results": results}
        assert [len(seq) for seq in rep.length_sequences] == n_lengths
        assert _digest(rep.length_sequences) == digest


class TestPathWindowFirst:
    """The walk kernel's first crossings (hitting_times._first_crossings over
    each path's lines) against np.flatnonzero over the fully drawn paths."""

    N, STEP, SD, SEED = 400, 1e-2, 0.1, 5
    INF = math.inf
    ROWS = {  # (start, u0, su, d0, sd): crossed at w >= u0 + su*t or w <= d0 + sd*t
        "band": [(0.0, 1.5, 0.0, -1.2, 0.0), (0.3, 1.4, 0.0, -1.4, 0.0),
                 (-0.2, 1.6, 0.0, -1.3, 0.0)],
        "sloped-up": [(0.9, INF, 0.0, 0.5, 1.0), (1.5, INF, 0.0, 1.0, 0.2),
                      (0.0, INF, 0.0, -0.6, 0.5)],  # the line rises to the path
        "sloped-down": [(-0.9, -0.5, -1.0, -INF, 0.0), (-1.2, -1.0, -0.3, -INF, 0.0),
                        (0.0, 0.6, -0.5, -INF, 0.0)],
    }

    def walk(self, rows, chunk):
        """Each row's first crossing index (-1 for none), its value there (its
        last value if none), its left sum of squares and the survivors, walked
        in chunks of `chunk` steps."""
        start, *lines = (np.array(c, dtype=float) for c in zip(*rows))
        k, w, sq, stuck = hitting_times._first_crossings(
            np.random.default_rng(self.SEED), start, lines, self.N, start.size, chunk,
            self.STEP, sd=self.SD)
        got = np.where(k < self.N, k - 1, -1)
        got[stuck] = -1
        return got, w, sq, stuck

    def brute(self, rows):
        """The rows' full paths, drawn as one tile draws them, their first
        crossing indices (-1 for none) and their left sums of squares up to
        the crossing (the whole path but its last point if none)."""
        start, u0, su, d0, sl = (np.array(c, dtype=float) for c in zip(*rows))
        t = (1 + np.arange(self.N)) * self.STEP
        steps = np.random.default_rng(self.SEED).standard_normal((start.size, self.N))
        paths = start[:, None] + np.cumsum(steps * self.SD, axis=1)
        want, sums = [], []
        for i, path in enumerate(paths):
            hit = np.flatnonzero((path >= u0[i] + su[i] * t) | (path <= d0[i] + sl[i] * t))
            want.append(int(hit[0]) if hit.size else -1)
            sums.append(start[i] ** 2 + np.sum(path[: hit[0] if hit.size else -1] ** 2))
        return paths, np.array(want), np.array(sums)

    @pytest.mark.parametrize("kind", list(ROWS))
    def test_matches_brute_force(self, kind):
        # all rows in one tile walked in one chunk draw exactly the full paths;
        # one row walked in 7-step chunks draws its full path chunk by chunk
        rows = self.ROWS[kind]
        paths, want, sums = self.brute(rows)
        got, values, sq, stuck = self.walk(rows, self.N)
        assert got.tolist() == want.tolist() and stuck.size == 0 and min(want) > 0
        assert values.tolist() == paths[np.arange(len(rows)), want].tolist()
        assert sq == pytest.approx(sums, rel=1e-12)
        for row in rows:
            path, (k,), (total,) = self.brute([row])
            got, values, sq, _ = self.walk([row], 7)
            assert got.tolist() == [k] and k > 7  # crossed past the first chunk
            assert values[0] == pytest.approx(path[0, k], rel=1e-12, abs=1e-12)
            assert sq[0] == pytest.approx(total, rel=1e-12)

    def test_lines_equal_the_two_line_test(self):
        # paths that stand still (sd = 0) cross first where w >= u0 + su*t |
        # w <= d0 + sd*t first holds: band rows compared as levels and sloped
        # rows on their one line, on values that tie with a line at a grid
        # point, at signed zeros and with infinite levels; in tiles that mix
        # band and sloped rows and in tiles whose every row is sloped
        n = 64
        t = (1 + np.arange(n)) * self.STEP
        rows = [r[1:] for kind in self.ROWS.values() for r in kind]
        rows += [(0.0, 0.0, -0.0, 0.0), (-0.0, 0.0, 0.0, 0.0),
                 (self.INF, 0.0, 0.0, 0.0), (0.0, 0.0, -self.INF, 0.0)]
        cases = []
        for u0, su, d0, sl in rows:
            ties = [level + slope * t[c] for level, slope in ((u0, su), (d0, sl))
                    for c in (0, 8, 17, 63)]
            for v in [0.0, -0.0, 1.0, -1.0, 2.5, -2.5] + ties:
                if math.isfinite(v):
                    cases.append((v, u0, su, d0, sl))
        pos, u0, su, d0, sl = (np.array(c, dtype=float) for c in zip(*cases))
        crossed = ((pos[:, None] >= u0[:, None] + su[:, None] * t)
                   | (pos[:, None] <= d0[:, None] + sl[:, None] * t))
        want = np.where(crossed.any(axis=1), crossed.argmax(axis=1) + 1, n)
        assert 0 < (want == 1).sum() and (want == n).sum() < want.size
        for subset in (np.arange(want.size), np.flatnonzero(su), np.flatnonzero(sl)):
            lines = [line[subset] for line in (u0, su, d0, sl)]
            k, w, _, stuck = hitting_times._first_crossings(
                np.random.default_rng(3), pos[subset].copy(), lines, n, subset.size, n,
                self.STEP, sd=0.0)
            assert k.tolist() == want[subset].tolist()
            assert stuck.tolist() == np.flatnonzero(~crossed[subset].any(axis=1)).tolist()
            assert np.array_equal(w, pos[subset])

    def test_crossing_at_start(self):
        # rows that cross on the first column: together in one chunk, and each
        # alone in 1-step chunks
        rows = [(0.95, self.INF, 0.0, 0.5, 500.0), (-0.95, -0.5, -500.0, -self.INF, 0.0),
                (2.0, 0.0, 0.0, -self.INF, 0.0), (-2.0, self.INF, 0.0, 0.0, 0.0)]
        paths, want, _ = self.brute(rows)
        assert want.tolist() == [0] * len(rows)
        got, values, sq, stuck = self.walk(rows, self.N)
        assert got.tolist() == want.tolist() and stuck.size == 0
        assert values.tolist() == paths[:, 0].tolist()
        assert sq == pytest.approx([r[0] ** 2 for r in rows], rel=1e-12)  # the start alone
        for row in rows:
            path, _, _ = self.brute([row])
            got, values, _, _ = self.walk([row], 1)
            assert got.tolist() == [0] and values.tolist() == [path[0, 0]]

    def test_no_crossing(self):
        # a row that never crosses survives the walk with its last value; the
        # crossing row beside it does not
        rows = [(0.0, 1e9, 0.0, -1e9, 0.0), self.ROWS["band"][0]]
        paths, want, sums = self.brute(rows)
        assert want[0] == -1 and want[1] > 0
        got, values, sq, stuck = self.walk(rows, self.N)
        assert got.tolist() == want.tolist() and stuck.tolist() == [0]
        assert values[0] == paths[0, -1]
        assert sq == pytest.approx(sums, rel=1e-12)


class TestChainEngine:
    """The lockstep chains: the kernel's per-row lines, and what a report
    does and does not depend on."""

    @pytest.mark.parametrize("name", list(GOLDEN_CONFIGS))
    def test_tile_size_does_not_change_reports(self, name, monkeypatch):
        # 64-double tiles split every chunk into many partial row tiles
        def snapshot():
            rep = _golden_run(name, log_cycles=True)
            return rep.to_json_dict(), _digest(rep.length_sequences), rep.cycles

        want = snapshot()
        monkeypatch.setattr(hitting_times, "_TILE", 64)
        assert snapshot() == want

    def test_replications_are_independent(self):
        # replication r draws from its own stream, so a 3-rep run repeats the
        # 1- and 2-rep runs' replications, and replication 0's cycle log
        reps = [_golden_run("monotone", replications=k, log_cycles=True) for k in (1, 2, 3)]
        for k, rep in enumerate(reps):
            for r in range(k + 1):
                assert rep.rep_mse[r] == reps[-1].rep_mse[r]
                assert rep.rep_sr[r] == reps[-1].rep_sr[r]
                assert np.array_equal(rep.length_sequences[r], reps[-1].length_sequences[r])
            assert rep.cycles == reps[-1].cycles

    def test_replication_stops_at_horizon(self):
        # a replication ends after the first generation whose chains' summed
        # measured time reaches the horizon; a generation is one cycle per chain
        sim = sim_cfg(cb=Codebook.integer(1, 3, 4, 5), horizon=3000.0, log_cycles=True)
        rep = run(sim)
        m = simulator._chain_count(sim)
        assert m > 1 and rep.n_cycles % m == 0
        last = sum(rep.cycles.duration[rep.n_cycles // m - 1::rep.n_cycles // m])
        assert rep.total_time - last < sim.horizon <= rep.total_time

    def test_chain_count_is_capped(self):
        # the chain state does not grow with the horizon past _MAX_CHAINS
        assert simulator._chain_count(sim_cfg(horizon=1e12)) == simulator._MAX_CHAINS
        assert simulator._chain_count(sim_cfg(horizon=200.0)) == 3

    def test_memory_does_not_grow_with_horizon(self, monkeypatch):
        # the chain state grows with the chain count up to its cap; with both
        # horizons at the cap, the engine's working memory (the peak less the
        # returned length sequences, 8 bytes a cycle) must not grow
        monkeypatch.setattr(simulator, "_MAX_CHAINS", 64)

        def working(horizon):
            tracemalloc.start()
            try:
                rep = run(sim_cfg(horizon=horizon))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert simulator._chain_count(rep.config) == 64
            return peak - sum(seq.nbytes for seq in rep.length_sequences)

        short, long = working(1e4), working(1e5)
        assert long <= 1.25 * short

    def test_ideal_origin_is_the_grid_bridge_mean(self):
        # at a = 0 every cycle samples at its start and is all transmission:
        # X ~ N(0, 1) and the grid's left sum over one time unit has mean
        # eps * sum(1 + i*eps for i < 1/eps) = 1 + (1 - eps)/2, here 1.495
        rep = run_benchmark(sim_cfg(a=0.0, b=0.0, scheme="ideal-benchmark", cb=None,
                                    horizon=1e5, replications=8, seed=8))
        assert rep.sr_hat == 1.0 and rep.n_cycles > 500_000
        assert rep.mse_hat == pytest.approx(1.495, abs=0.012)  # about 4 standard errors

    @pytest.mark.parametrize("kw", [
        dict(a=0.25, b=0.25),
        dict(a=1.5, b=1.5),
        dict(a=1.5, b=1.5, scheme="ideal-benchmark", cb=None),
    ], ids=["uniform-0.25", "uniform-1.5", "ideal-1.5"])
    def test_agrees_with_sequential_engine(self, kw):
        sim = sim_cfg(**kw, horizon=1e4, replications=8, seed=41)
        rep = (run_benchmark if sim.scheme == "ideal-benchmark" else run)(sim)
        ref_mse, ref_sr = oracles.sequential_engine(sim)
        for got, want in ((rep.rep_mse, ref_mse), (rep.rep_sr, ref_sr)):
            se = math.hypot(got.std(ddof=1), want.std(ddof=1)) / math.sqrt(sim.replications)
            assert abs(got.mean() - want.mean()) <= 4.0 * se


@pytest.fixture(scope="module")
def logged():
    cb = Codebook.integer(1, 3, 4, 5)
    return run(sim_cfg(cb=cb, horizon=3000.0, log_cycles=True)), cb


def _chains(rep) -> list[range]:
    """The cycle log's rows of each chain (the log is chain-major)."""
    m = simulator._chain_count(rep.config)
    g = len(rep.cycles) // m
    assert m > 1 and g * m == len(rep.cycles)
    return [range(c * g, (c + 1) * g) for c in range(m)]


class TestCycleInvariants:
    def test_decoder_ledger_exact(self, logged):
        # every delivery bumps the estimate by exactly the decoded value
        rep, _ = logged
        log = rep.cycles
        for rows in _chains(rep):
            for i in rows[1:]:
                assert log.w_hat[i] == log.w_hat[i - 1] + log.z[i]
                assert log.s_idx[i] > log.d_idx[i - 1]  # the sample follows the delivery

    def test_decoder_full_sum_without_burn_in(self, monkeypatch):
        monkeypatch.setattr(simulator, "_BURN_IN_CYCLES", 0)
        rep = run(sim_cfg(horizon=1000.0, log_cycles=True))
        log = rep.cycles
        for rows in _chains(rep):
            acc = 0.0
            for i in rows:
                acc += log.z[i]
                assert log.w_hat[i] == acc  # bit-exact from the chain's start, no drift

    def test_band_events_zero_quantization(self, logged):
        # L_n is the previous row's length, so each chain's first row is skipped
        rep, _ = logged
        log = rep.cycles
        for rows in _chains(rep):
            for i in rows[1:]:
                l_prev = log.length[i - 1]
                if log.event[i] == 2:
                    assert log.z[i] == 1.0 * math.sqrt(l_prev)
                elif log.event[i] == 3:
                    assert log.z[i] == -1.0 * math.sqrt(l_prev)

    def test_delivery_index_identity(self, logged):
        rep, _ = logged
        log = rep.cycles
        eps = log.eps
        for i in range(len(log)):
            assert log.d_idx[i] == log.s_idx[i] + int(round(log.length[i] / eps))
        r = next(log.records())
        assert r.d_n == r.d_idx * eps
        assert r.s_n == r.s_idx * eps

    def test_csv_matches_records(self, logged, tmp_path):
        rep, _ = logged
        out = tmp_path / "cycles.csv"
        rep.cycles.to_csv(out)
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["s_n", "d_n", "event", "z_n", "length"])
        for r in rep.cycles.records():
            writer.writerow([r.s_n, r.d_n, r.event, r.z_n, r.length])
        assert out.read_bytes() == want.getvalue().encode()

    def test_renewal_reward_identity(self, logged):
        rep, _ = logged
        log = rep.cycles
        per_cycle = sum(log.reward) / sum(log.duration)
        assert per_cycle == pytest.approx(rep.rep_mse[0], abs=1e-9)

    def test_event_counts_sum_to_cycles(self, logged):
        rep, _ = logged
        assert int(rep.event_counts.sum()) == rep.n_cycles


class TestAgainstAnalytics:
    def test_mse_and_sr_smoke(self):
        # light version of the acceptance sweep: one point, short horizon
        cfg = ThresholdConfig(1, 1, 10)
        rep = run(sim_cfg(horizon=1e4, replications=4))
        ex = mse_exact(cfg, UNIT2)
        assert rep.mse_hat == pytest.approx(ex.mse, rel=0.08)
        assert rep.sr_hat == pytest.approx(ex.sr, rel=0.08)

    def test_unit_sampling_rate_at_origin(self):
        # only timing matters for SR, so a barely-resolved slope is fine here
        cb = Codebook.integer(1, math.inf, math.inf, 1)
        rep = run(sim_cfg(a=0.0, b=0.0, mu=100.0, cb=cb, horizon=2000.0, replications=2))
        assert rep.sr_hat == pytest.approx(1.0, rel=0.03)

    def test_uniform_benchmark_origin_mse(self):
        # mu large enough for the 3/2*l limit, small enough that the grid
        # resolves the catch-up times (mu*eps = 0.3)
        rep = run_benchmark(
            sim_cfg(a=0.0, b=0.0, mu=30.0, scheme="uniform-benchmark", cb=None,
                    horizon=1e4, replications=4)
        )
        assert rep.mse_hat == pytest.approx(3.0, rel=0.05)

    def test_ideal_matches_monotone_at_origin(self):
        # large slope: the monotone scheme with unit codewords degenerates to
        # ideal zero-wait sampling; fine grid keeps mu*eps = 0.1
        mono = run(
            sim_cfg(a=0.0, b=0.0, mu=100.0, cb=Codebook.integer(1, math.inf, math.inf, 1),
                    eps=1e-3, horizon=5000.0, replications=6)
        )
        ideal = run_benchmark(
            sim_cfg(a=0.0, b=0.0, mu=100.0, scheme="ideal-benchmark", cb=None,
                    eps=1e-3, horizon=5000.0, replications=6, seed=33)
        )
        gap = abs(mono.mse_hat - ideal.mse_hat)
        joint = math.hypot(mono.mse_ci, ideal.mse_ci)
        assert gap <= max(joint, 0.03 * ideal.mse_hat)

    def test_ideal_against_closed_form(self):
        for a in (0.0, 1.0):
            rep = run_benchmark(
                sim_cfg(a=a, b=a, mu=10.0, scheme="ideal-benchmark", cb=None,
                        horizon=5000.0, replications=4)
            )
            mse, sr = ideal_benchmark_mse(a)
            assert rep.mse_hat == pytest.approx(mse, rel=0.06)
            assert rep.sr_hat == pytest.approx(sr, rel=0.06)

    def test_exact_model_at_slow_slope(self):
        # mu = 1 exercises every 1/mu correction term; fine grid keeps the
        # crossing bias well below the replication CI
        cfg = ThresholdConfig(0, 0, 1)
        cb = Codebook.uniform(2, mode=INTEGER)
        rep = run(
            sim_cfg(a=0.0, b=0.0, mu=1.0, eps=2e-3, horizon=2e4, replications=8)
        )
        ex = mse_exact(cfg, cb)
        assert abs(rep.mse_hat - ex.mse) <= rep.mse_ci
        assert abs(rep.sr_hat - ex.sr) <= max(rep.sr_ci, 0.01 * ex.sr)

    def test_sigma_scaling(self):
        base = run(sim_cfg(horizon=1e4, replications=4))
        scaled = run(
            sim_cfg(a=2.0, b=2.0, mu=20.0, sigma2=4.0, horizon=1e4, replications=4)
        )
        assert scaled.mse_hat == pytest.approx(4.0 * base.mse_hat, rel=0.05)
        assert scaled.sr_hat == pytest.approx(base.sr_hat, rel=0.05)

    def test_event_frequencies(self):
        rep = run(sim_cfg(horizon=1e4, replications=2))
        p = np.array(event_probabilities(ThresholdConfig(1, 1, 10)).as_tuple())
        freq = rep.event_counts / rep.n_cycles
        sigma = np.sqrt(p * (1 - p) / rep.n_cycles)
        assert np.all(np.abs(freq - p) <= 4 * sigma)


class TestHorizonErrors:
    def test_no_cycles_raises(self):
        # band so wide the first exit exceeds the whole horizon
        cb = Codebook.integer(8, 8, 8, 8)
        with pytest.raises(HorizonError):
            run(sim_cfg(cb=cb, horizon=800.0, mu=0.01, a=40.0, b=40.0, seed=3))


class TestIndependence:
    def test_needs_enough_cycles(self):
        rep = run(sim_cfg(cb=Codebook.integer(1, 3, 4, 5), horizon=2000.0))
        with pytest.raises(ParameterError):
            length_independence_test(rep, min_cycles=10_000)

    def test_needs_two_categories(self):
        rep = run(sim_cfg(horizon=2000.0))  # uniform lengths
        with pytest.raises(ParameterError):
            length_independence_test(rep, min_cycles=10)

    @staticmethod
    def _with_lengths(rep, seqs):
        return SimulationReport(
            mse_hat=rep.mse_hat, mse_ci=rep.mse_ci, sr_hat=rep.sr_hat, sr_ci=rep.sr_ci,
            event_counts=rep.event_counts, n_cycles=sum(len(s) for s in seqs),
            total_time=rep.total_time, rep_mse=rep.rep_mse, rep_sr=rep.rep_sr,
            length_sequences=seqs, cycles=None, config=rep.config,
        )

    @pytest.mark.parametrize("min_cycles", [2, 10])
    def test_no_pair_raises_parameter_error(self, min_cycles):
        # two one-cycle replications: enough cycles for min_cycles = 2, but no pair
        base = run(sim_cfg(cb=Codebook.integer(1, 3, 4, 5), horizon=2000.0))
        rep = self._with_lengths(base, [np.array([1.0]), np.array([3.0])])
        with pytest.raises(ParameterError):
            length_independence_test(rep, min_cycles=min_cycles)

    @pytest.mark.parametrize("min_cycles", [1, 0, -5, 2.5, True, "10"])
    def test_min_cycles_must_be_integer_at_least_two(self, min_cycles):
        rep = run(sim_cfg(cb=Codebook.integer(1, 3, 4, 5), horizon=2000.0))
        with pytest.raises(ParameterError, match="min_cycles"):
            length_independence_test(rep, min_cycles=min_cycles)

    def test_pairs_within_each_replication(self):
        # each replication's chain-major sequence gives len - 1 pairs
        rep = run(sim_cfg(cb=Codebook.integer(1, 3, 4, 5), horizon=2000.0, replications=3))
        res = length_independence_test(rep, min_cycles=10)
        assert res.n_pairs == rep.n_cycles - 3

    def test_detects_markov_dependence(self):
        seq = oracles.markov_length_sequence(
            20_000, stay_prob=0.2, values=(1.0, 3.0, 4.0, 5.0), seed=9
        )
        base = run(sim_cfg(cb=Codebook.integer(1, 3, 4, 5), horizon=2000.0))
        res = length_independence_test(self._with_lengths(base, [seq]))
        assert res.p_value < 0.01

    def test_simulated_lengths_pass(self):
        # eps fine enough that crossing-overshoot coupling stays below power
        rep = run(
            sim_cfg(cb=Codebook.integer(1, 3, 4, 5), eps=1e-3, horizon=30_000.0,
                    seed=23)
        )
        res = length_independence_test(rep, min_cycles=5000)
        assert res.p_value > 0.01
        assert res.dof == 9
        assert res.p_value == pytest.approx(stats.chi2.sf(res.statistic, res.dof), rel=1e-12)

    def test_chi2_tail_matches_scipy(self):
        xs = np.concatenate([[0.0, 1e-300, 1e-9], np.linspace(0.01, 60.0, 400),
                             np.geomspace(60.0, 4000.0, 200)])
        checked = 0
        for dof in [*range(1, 37), 2000, 2001]:  # at the large dof e^(-x/2) underflows
            for x in xs:
                ref = stats.chi2.sf(x, dof)
                if ref > 1e-250:
                    assert simulator._chi2_sf(float(x), dof) == pytest.approx(ref, rel=1e-12)
                    checked += 1
        assert checked > 15_000

    def test_runs_without_scipy(self, fresh_python):
        # scipy is a test dependency only: block it and run the test
        code = """if True:
            import json, sys
            sys.modules["scipy"] = None  # any scipy import now fails
            from wiener_coding import Codebook, SimConfig, ThresholdConfig, run
            from wiener_coding import length_independence_test
            rep = run(SimConfig(eps=1e-2, horizon=2000.0, cfg=ThresholdConfig(1, 1, 10),
                                cb=Codebook.integer(1, 3, 4, 5), seed=101))
            res = length_independence_test(rep, min_cycles=300)
            print(json.dumps([res.statistic, res.dof, res.p_value]))
        """
        statistic, dof, p_value = fresh_python(code)
        assert dof == 9 and 0.0 < p_value < 1.0
        assert p_value == pytest.approx(stats.chi2.sf(statistic, dof), rel=1e-12)
