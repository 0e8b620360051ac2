import csv
import dataclasses
import hashlib
import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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

    def test_codebook_takes_whole_step_delays(self):
        # Kraft is the design's constraint, not the run's: a relaxed codebook
        # runs when each delay is a whole number of grid steps, 0.5 included
        assert sim_cfg(cb=Codebook.uniform(2.0)).cb == Codebook.uniform(2.0)
        sim_cfg(eps=0.1, cb=Codebook.relaxed(0.5, 1.5, 1.5, 3.0))
        with pytest.raises(ParameterError, match="grid steps"):
            sim_cfg(eps=0.1, cb=Codebook.relaxed(0.5, 1.55, 1.5, 3.0))

    @pytest.mark.parametrize("scheme,cb,mu", [
        ("monotone", Codebook.integer(1, 3, 4, 5), 10.0),
        ("uniform-benchmark", None, 10.0),
        ("ideal-benchmark", None, 10.0),
        ("ideal-benchmark", Codebook.uniform(1.0), math.inf),
    ])
    def test_replace_round_trips(self, scheme, cb, mu):
        # a built config, its benchmark codebook and slope filled in, builds again
        sim = sim_cfg(scheme=scheme, cb=cb, mu=mu)
        assert dataclasses.replace(sim) == sim
        assert dataclasses.replace(sim, seed=5).cb == sim.cb

    @pytest.mark.parametrize("kw", [
        dict(eps=0.1, cb=Codebook.relaxed(0.5, 1.5, 1.5, 3.0)),
        dict(scheme="ideal-benchmark", cb=None),
    ], ids=["half-unit", "ideal"])
    def test_report_validates(self, kw):
        # a delay is any whole number of grid steps, here below 1
        jsonschema = pytest.importorskip("jsonschema")
        report = run(sim_cfg(horizon=500.0, **kw)).to_json_dict()
        schema = Path(simulator.__file__).parent / "schemas" / "report.schema.json"
        jsonschema.validate(report, json.loads(schema.read_text()))
        assert report["spec"]["lengths"] == list(sim_cfg(**kw).cb.lengths)

    def test_horizon_floor(self):
        with pytest.raises(ParameterError):
            sim_cfg(horizon=150.0)  # 100 * max length = 200

    def test_infinite_length_needs_dead_event(self):
        with pytest.raises(ParameterError):
            sim_cfg(cb=Codebook.integer(1, math.inf, math.inf, 1))  # a=b=1: p2 > 0

    def test_ideal_rejects_codebook(self):
        # the ideal benchmark takes unit delays or none, which it fills in
        for cb in (UNIT2, Codebook.relaxed(1, 1, 1, 2), Codebook.uniform(0.5),
                   Codebook.relaxed(1, math.inf, math.inf, 1)):
            with pytest.raises(ParameterError, match="unit delays"):
                sim_cfg(a=0.0, b=0.0, scheme="ideal-benchmark", cb=cb, horizon=500.0)

    @pytest.mark.parametrize("scheme,cb", [
        ("monotone", UNIT2), ("uniform-benchmark", None), ("ideal-benchmark", None),
    ])
    def test_infinite_slope_accepted(self, scheme, cb):
        # mu = inf samples beyond the band at the cycle start, so no grid bound
        # applies, even at an eps whose mu*eps would be 10 at mu = 1000
        rep = run(sim_cfg(mu=math.inf, scheme=scheme, cb=cb, horizon=500.0))
        assert rep.n_cycles > 0 and rep.config.cfg.mu == math.inf
        assert rep.to_json_dict()["spec"]["mu"] is None
        sim_cfg(mu=math.inf, eps=0.5, scheme=scheme, cb=cb)

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
        # the ideal scheme is unit delays at mu = inf, whatever slope it is given
        sim = sim_cfg(mu=1000.0, sigma2=2.0, scheme="ideal-benchmark", cb=None)
        assert sim.cfg == ThresholdConfig(1.0, 1.0, math.inf, 2.0)
        assert sim.cb.lengths == (1.0, 1.0, 1.0, 1.0)

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
    # bands 32 to 71 step sds wide: the kernel walks spans of 11 to 16 steps
    "span": dict(eps=1e-3, horizon=2000.0, cb=Codebook.integer(1, 3, 4, 5), seed=11,
                 replications=2),
}


def _golden_run(name, **kw):
    return run(sim_cfg(**{**GOLDEN_CONFIGS[name], **kw}))


class TestGolden:
    """Reports pinned to exact values: any change to the walk, the bit
    generator, the chain count, the crossing rule or the accumulation order
    shows here."""

    SPEC = dict(a=1.0, b=1.0, burn_in_cycles=2, eps=0.01, mu=10.0, replications=2,
                sigma2=1.0)
    EXPECTED = {
        "monotone": (
            dict(horizon=600.0, lengths=[1.0, 3.0, 4.0, 5.0], scheme="monotone", seed=11),
            {
                "event_counts": {"1": 39, "2": 77, "3": 71, "4": 38},
                "mse_ci": 0.7888603945418031,
                "mse_hat": 4.7251109644997005,
                "n_cycles": 225,
                "rep_mse": [4.322631171366127, 5.127590757633273],
                "rep_sr": [0.1715686274509804, 0.1989323961407115],
                "sr_ci": 0.026816493315936493,
                "sr_hat": 0.18525051179584595,
                "total_time": 1215.22,
            },
            [105, 120],
            "a697dc72b9311ef9b55c78d8a359ed519b66ddcc474d6187b288fda8864a0b17",
        ),
        # the ideal scheme is unit delays at mu = inf: a cycle that starts on
        # or beyond +-a is event 1 or 4
        "ideal": (
            dict(horizon=300.0, lengths=[1.0, 1.0, 1.0, 1.0], mu=None, scheme="ideal-benchmark",
                 seed=12),
            {
                "event_counts": {"1": 52, "2": 134, "3": 131, "4": 61},
                "mse_ci": 0.1645829126131042,
                "mse_hat": 1.3230073950130101,
                "n_cycles": 378,
                "rep_mse": [1.4069782687952062, 1.239036521230814],
                "rep_sr": [0.6568907172715813, 0.5889281507656066],
                "sr_ci": 0.06660331517585526,
                "sr_hat": 0.6229094340185939,
                "total_time": 607.06,
            },
            [198, 180],
            "c26b7485a1b5e4ed800841f7e1cc9d73a9205c88788a19d4d597dccf63620221",
        ),
        "origin": (
            dict(a=0.0, b=0.0, horizon=200.0, lengths=[1.0, None, None, 1.0], scheme="monotone",
                 seed=13),
            {
                "event_counts": {"1": 173, "2": 0, "3": 0, "4": 199},
                "mse_ci": 0.23069733953041727,
                "mse_hat": 1.7741320544902086,
                "n_cycles": 372,
                "rep_mse": [1.6564293302399957, 1.8918347787404215],
                "rep_sr": [0.9201088300766755, 0.9070073633393476],
                "sr_ci": 0.012839437402581366,
                "sr_hat": 0.9135580967080116,
                "total_time": 407.22,
            },
            [186, 186],
            "40e3fdcc418d8bd029ae1efdc5e97a93a2800c9c3f251676f06c2e89497d5763",
        ),
        "span": (
            dict(eps=0.001, horizon=2000.0, lengths=[1.0, 3.0, 4.0, 5.0], scheme="monotone",
                 seed=11),
            {
                "event_counts": {"1": 145, "2": 273, "3": 282, "4": 116},
                "mse_ci": 0.6192540903023469,
                "mse_hat": 4.420351721003131,
                "n_cycles": 816,
                "rep_mse": [4.7362976854431045, 4.104405756563159],
                "rep_sr": [0.20347290344362925, 0.19977691577738194],
                "sr_ci": 0.0036220679129223723,
                "sr_hat": 0.2016249096105056,
                "total_time": 4047.459,
            },
            [408, 408],
            "71d45918c0534d99ee0de7b88f08e46d6d2f402e6bf44104aab6483e51764905",
        ),
    }

    @pytest.mark.parametrize("name", list(GOLDEN_CONFIGS))
    def test_report_and_lengths(self, name):
        spec, results, n_lengths, digest = self.EXPECTED[name]
        rep = _golden_run(name)
        assert rep.to_json_dict() == {"spec": {**self.SPEC, **spec}, "results": results}
        assert [len(seq) for seq in rep.length_sequences] == n_lengths
        assert _digest(rep.length_sequences) == digest

    CSV = {  # run: (golden config, overrides, SHA-256 of its CycleLog.to_csv)
        "monotone": ("monotone", {},
                     "2f09fc2fee5fea11d26958f6a7adc41e64b23ff56ac9663bde90042587c582c4"),
        "ideal": ("ideal", {}, "989b35545d4002942ff77c1ccaf5cdf688938b3da2de3bbdd92d544f202c7a93"),
        "origin": ("origin", {},
                   "7a859742d42ce3bf9d62585f0666d79f1f218d89def5ee3129235fdd8e353827"),
        "span": ("span", {}, "1eb71e923d970fc19f175136c6eba96bb333f4c876de0fd7cd1636c602528c1a"),
        # at b = 0 event 3 decodes to -b*sqrt(L) = -0.0, and the CSV keeps its sign
        "monotone-b0": ("monotone", dict(b=0.0),
                        "b5bb160fe01a71b14012bc0a7db6a1e164079b12ef1abc4660f69f1fba11299d"),
    }

    @pytest.mark.parametrize("name", list(CSV))
    def test_cycle_csv(self, name, tmp_path):
        config, kw, digest = self.CSV[name]
        _golden_run(config, log_cycles=True, **kw).cycles.to_csv(tmp_path / "cycles.csv")
        data = (tmp_path / "cycles.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
        assert (b",3,-0.0," in data) == (name == "monotone-b0")


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

    def test_run_benchmark_is_run(self):
        # the benchmarks' former entry point takes every scheme, as run does
        sim = sim_cfg(**GOLDEN_CONFIGS["monotone"])
        assert run_benchmark(sim).to_json_dict() == run(sim).to_json_dict()

    def test_generation_is_one_batch(self):
        # a generation's walk is one kernel batch, so its draws follow the rows
        # in order whatever the chain count
        assert simulator._MAX_CHAINS <= hitting_times._PATH_BATCH

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
        # C9's codebook at eps = 1e-3: its bands are 32 to 71 step sds wide,
        # so the walk skips spans (see TestSpanRule)
        dict(cb=Codebook.integer(1, 3, 4, 5), eps=1e-3, horizon=2000.0),
    ], ids=["uniform-0.25", "uniform-1.5", "ideal-1.5", "c9-spans"])
    def test_agrees_with_sequential_engine(self, kw):
        sim = sim_cfg(**{"horizon": 1e4, **kw}, replications=8, seed=41)
        rep = run(sim)
        ref_mse, ref_sr = oracles.sequential_engine(sim)
        for got, want in ((rep.rep_mse, ref_mse), (rep.rep_sr, ref_sr)):
            se = math.hypot(got.std(ddof=1), want.std(ddof=1)) / math.sqrt(sim.replications)
            assert abs(got.mean() - want.mean()) <= 4.0 * se


class TestSpanRule:
    """hitting_times._span, the simulator's rule: the walk's steps per span,
    from a call's band rows and step alone."""

    def spans(self, sim, monkeypatch):
        """The span of every kernel call of one run of sim."""
        seen = []
        kernel = hitting_times._first_crossings

        def walk(*args, span=1, **kw):
            seen.append(span)
            return kernel(*args, span=span, **kw)

        monkeypatch.setattr(simulator, "_first_crossings", walk)
        run(sim)
        return seen

    @pytest.mark.parametrize("kw", [
        dict(cb=UNIT2, horizon=1e4),  # the README quick start: bands 14 step sds wide
        dict(cb=Codebook.integer(1, 3, 4, 5)),  # TestGolden's monotone codebook
        dict(a=0.25, b=0.25, eps=1e-3),
        dict(a=0.0, b=0.0, cb=Codebook.integer(1, math.inf, math.inf, 1)),  # no band row
    ], ids=["readme", "golden", "narrow", "origin"])
    def test_narrow_bands_walk_every_step(self, kw, monkeypatch):
        assert set(self.spans(sim_cfg(**kw), monkeypatch)) == {1}

    def test_wide_bands_walk_in_spans(self, monkeypatch):
        # C9's bands at eps = 1e-3; the rule reads neither the horizon nor the
        # replications, so every call of every replication agrees
        sim = sim_cfg(cb=Codebook.integer(1, 3, 4, 5), eps=1e-3, horizon=600.0)
        got = [self.spans(dataclasses.replace(sim, replications=r), monkeypatch)
               for r in (1, 2)]
        assert max(got[1]) >= 8  # a generation without a band row walks every step
        span, lo, hi = hitting_times._span, hitting_times._MIN_SPAN, hitting_times._MAX_SPAN
        assert all(m == 1 or lo <= m <= hi for m in got[1])
        assert got[1][: len(got[0])] == got[0]
        half2 = np.array([1.0, 3.0, 4.0, 5.0])
        assert span(half2, math.sqrt(1e-3)) == 14
        assert span(half2[:0], 0.01) == 1
        assert span(np.array([1e6]), 1e-3) == hi
        assert span(np.full(8, 1e308), 1e-3) == hi  # mean is inf
        assert span(half2, 0.0) == 1  # a step of sd 0 has nothing to span

    def test_tile_size_does_not_change_spans(self, monkeypatch):
        # spans are filled in once every row drew its ends, so the tiles do not
        # order the draws
        sim = sim_cfg(cb=Codebook.integer(1, 3, 4, 5), eps=1e-3, horizon=600.0, replications=2,
                      log_cycles=True)
        want = run(sim)
        monkeypatch.setattr(hitting_times, "_TILE", 64)
        got = run(sim)
        assert got.to_json_dict() == want.to_json_dict() and got.cycles == want.cycles


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


def _csv_reference(log) -> bytes:
    """The cycle log as csv.writer writes it, the format CycleLog.to_csv keeps."""
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["s_n", "d_n", "event", "z_n", "length"])
    for r in log.records():
        writer.writerow([r.s_n, r.d_n, r.event, r.z_n, r.length])
    return want.getvalue().encode()


def _hand_log(eps, s_idx, d_idx, event, z, length) -> simulator.CycleLog:
    zeros = [0.0] * len(s_idx)
    return simulator.CycleLog(eps, s_idx, d_idx, event, z, length, zeros, zeros, zeros)


HAND_LOGS = {
    # a = b = 0 decodes both +0.0 (event 2) and -0.0 (event 3)
    "signed-zeros": _hand_log(1e-2, [0, 3, 5, 9, 12], [2, 5, 7, 11, 14], [2, 3, 3, 2, 1],
                              [0.0, -0.0, -0.0, 0.0, 0.5], [2.0, 2.0, 2.0, 2.0, 2.0]),
    "one-row": _hand_log(1e-2, [7], [9], [4], [-1.25], [2.0]),
    "four-lengths": _hand_log(0.5, [1, 4, 9, 15], [3, 10, 17, 25], [1, 2, 3, 4],
                              [1.5, 1.0, -1.0, -2.5], [1.0, 3.0, 4.0, 5.0]),
    # two chains whose grid indices both count from their own start
    "repeated-indices": _hand_log(1e-2, [3, 8, 3, 8, 3], [5, 10, 5, 10, 5], [2, 3, 2, 3, 2],
                                  [1.0, -1.0, 1.0, -1.0, 1.0], [2.0, 2.0, 2.0, 2.0, 2.0]),
    # repr switches to exponent form at >= 1e16 and below 1e-4
    "large": _hand_log(1e3, [10 ** 13, 3 * 10 ** 13], [10 ** 13 + 1, 3 * 10 ** 13 + 2], [1, 4],
                       [2.5e17, -1e16], [1e-5, 3e-7]),
    "small": _hand_log(1e-7, [3, 900], [5, 1200], [2, 3], [4e-5, -9.999e-5], [2e-7, 3e-5]),
    "empty": _hand_log(1e-2, [], [], [], [], []),
}


class TestCsvFormat:
    """to_csv formats each distinct value once; its bytes stay csv.writer's."""

    @pytest.mark.parametrize("log", HAND_LOGS.values(), ids=list(HAND_LOGS))
    def test_same_bytes_as_csv_writer(self, log, tmp_path):
        out = tmp_path / "cycles.csv"
        log.to_csv(out)
        assert out.read_bytes() == _csv_reference(log)

    @given(st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_random_logs(self, data):
        n = data.draw(st.integers(0, 40))
        index = st.integers(0, 2 ** 53 - 1)
        # a few values that repeat, as a log's do, and any float
        value = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 1e-5, 1e16]), st.floats())
        eps = data.draw(st.floats(1e-12, 1e6))
        columns = [data.draw(st.lists(s, min_size=n, max_size=n))
                   for s in (index, index, st.integers(1, 4), value, value)]
        log = _hand_log(eps, *columns)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "cycles.csv"
            log.to_csv(out)
            assert out.read_bytes() == _csv_reference(log)


def _records_reference(log) -> list[simulator.CycleRecord]:
    """The log's records read row by row from its columns, as Python scalars."""
    return [simulator.CycleRecord(int(log.s_idx[i]), int(log.d_idx[i]), int(log.event[i]),
                                  float(log.z[i]), float(log.length[i]), float(log.w_hat[i]),
                                  log.eps)
            for i in range(len(log))]


class TestCycleLogColumns:
    """The log keeps numpy columns and converts them to Python scalars a
    block of rows at a time."""

    @pytest.mark.parametrize("s_idx,event", [
        ([0, 3, 5], [2, 3]),
        ([[0], [3], [5]], [[2], [3], [3]]),
    ], ids=["unequal", "2-d"])
    def test_bad_columns_refused(self, s_idx, event):
        with pytest.raises(ParameterError, match="1-D of one length"):
            simulator.CycleLog(1e-2, s_idx, [2, 5, 7], event, [1.0, 1.0, 1.0],
                               [2.0, 2.0, 2.0], [0.0] * 3, [0.0] * 3, [0.0] * 3)

    @pytest.mark.parametrize("name", [*HAND_LOGS, "logged"])
    def test_block_boundaries(self, name, logged, monkeypatch):
        # 3-row blocks split every log of more than 3 rows
        log = logged[0].cycles if name == "logged" else HAND_LOGS[name]
        want_csv, want_records = _csv_reference(log), _records_reference(log)
        monkeypatch.setattr(simulator, "_CSV_BLOCK", 3)
        got = list(log.records())
        assert got == want_records
        assert {type(v) for r in got for v in (r.s_idx, r.d_idx, r.event)} <= {int}
        assert {type(v) for r in got for v in (r.z_n, r.length, r.w_hat)} <= {float}
        assert _csv_reference(log) == want_csv
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "cycles.csv"
            log.to_csv(out)
            assert out.read_bytes() == want_csv

    def test_dtypes_and_memory(self):
        # the README config at horizon 1e5: the columns hold 57 bytes a cycle
        # and the run peaks near 80; the same log in Python lists peaks
        # above 300 bytes a cycle
        tracemalloc.start()
        try:
            rep = run(sim_cfg(horizon=1e5, seed=7, log_cycles=True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        log = rep.cycles
        columns = {name: getattr(log, name) for name in (
            "s_idx", "d_idx", "event", "z", "length", "w_hat", "reward", "duration")}
        assert {name: col.dtype for name, col in columns.items()} == {
            "s_idx": np.int64, "d_idx": np.int64, "event": np.uint8, "z": np.float64,
            "length": np.float64, "w_hat": np.float64, "reward": np.float64,
            "duration": np.float64}
        assert len(log) == rep.n_cycles > 30_000
        assert sum(col.nbytes for col in columns.values()) <= 64 * len(log)
        assert peak <= 150 * len(log)


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
        # ideal zero-wait sampling; fine grid keeps mu*eps = 0.1. The scheme
        # still sits 0.8% above the ideal (mse_exact 1.5121 against 1.5), so
        # the 3% allowance leaves 2.2% for noise: 24 replications a side keep
        # the gap's spread near 0.009, where 6 left it near 0.018
        mono = run(
            sim_cfg(a=0.0, b=0.0, mu=100.0, cb=Codebook.integer(1, math.inf, math.inf, 1),
                    eps=1e-3, horizon=5000.0, replications=24)
        )
        ideal = run_benchmark(
            sim_cfg(a=0.0, b=0.0, mu=100.0, scheme="ideal-benchmark", cb=None,
                    eps=1e-3, horizon=5000.0, replications=24, seed=33)
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


class TestInfiniteSlope:
    """mu = inf: a cycle that starts on or beyond its band samples at once
    (events 1 and 4 with no wait), and only the cycles inside walk."""

    def test_ideal_is_the_unit_codebook_at_origin(self):
        # at a = 0 every cycle samples at its start, so the ideal scheme and the
        # unit codebook draw one stream and decode the same samples
        origin = dict(a=0.0, b=0.0, mu=math.inf, horizon=500.0, replications=2)
        ideal = run(sim_cfg(**origin, scheme="ideal-benchmark", cb=None))
        unit = run(sim_cfg(**origin, cb=Codebook.integer(1, math.inf, math.inf, 1)))
        assert (ideal.mse_hat, ideal.sr_hat) == (unit.mse_hat, unit.sr_hat)
        assert ideal.event_counts.tolist() == unit.event_counts.tolist()
        assert ideal.event_counts[1:3].sum() == 0
        assert _digest(ideal.length_sequences) == _digest(unit.length_sequences)

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5])
    def test_ideal_event_frequencies(self, a):
        # the ideal scheme runs at mu = inf whatever slope it is given (10
        # here); C9's gate of 5 standard deviations per event
        rep = run(sim_cfg(a=a, b=a, scheme="ideal-benchmark", cb=None, horizon=1e4,
                          replications=2))
        p = np.array(event_probabilities(ThresholdConfig(a, a, math.inf)).as_tuple())
        n = rep.n_cycles
        dev = np.abs(rep.event_counts - n * p) / np.sqrt(n * p * (1 - p))
        assert np.all(dev <= 5.0), dev

    @pytest.mark.parametrize("a", [0.5, 1.0])
    @pytest.mark.parametrize("lengths", [(2, 2, 2, 2), (1, 3, 4, 5)])
    def test_against_closed_form(self, lengths, a):
        # C2's 5% at mu = inf.  Over 8 seeds at half this horizon the SR read
        # -3.80% (sd 0.40%) at a = 1, lengths 2, the worst of the four; the MSE
        # stayed within 1.4%
        cfg, cb = ThresholdConfig(a, a, math.inf), Codebook.integer(*lengths)
        rep = run(sim_cfg(a=a, b=a, mu=math.inf, cb=cb, horizon=1e5, replications=2))
        ex = mse_exact(cfg, cb)
        assert rep.mse_hat == pytest.approx(ex.mse, rel=0.05)
        assert rep.sr_hat == pytest.approx(ex.sr, rel=0.05)


class TestHorizonErrors:
    def test_no_cycles_raises(self):
        # band so wide the first exit exceeds the whole horizon
        cb = Codebook.integer(8, 8, 8, 8)
        with pytest.raises(HorizonError):
            run(sim_cfg(cb=cb, horizon=800.0, mu=0.01, a=40.0, b=40.0, seed=3))

    @pytest.mark.parametrize("kw", [
        dict(a=1e154, mu=math.inf), dict(a=1e200, mu=math.inf), dict(a=1e300, mu=math.inf),
        dict(a=1e200), dict(sigma2=5e-324),  # sigma2*eps underflows: the step sd is 0
    ], ids=["a1e154", "a1e200", "a1e300", "a1e200-mu10", "sigma2-5e-324"])
    def test_unreachable_threshold_raises(self, kw):
        # a band whose squared half-width or bridge bound overflows, or a step
        # of sd 0, walks to the horizon without a RuntimeWarning
        with pytest.raises(HorizonError):
            run(sim_cfg(**{"horizon": 300.0, **kw}))


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
