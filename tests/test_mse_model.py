import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from wiener_coding import hitting_times
from wiener_coding.code_optimizer import threshold_grid
from wiener_coding import (
    BandStop,
    Codebook,
    DeterministicStop,
    ParameterError,
    SlopedStop,
    ThresholdConfig,
    ideal_benchmark_mse,
    mse_exact,
    mse_integral_oracle,
    scale_to_sigma,
)

INF = math.inf


def large_slope(cfg: ThresholdConfig) -> ThresholdConfig:
    return dataclasses.replace(cfg, mu=INF)


class TestCodebook:
    def test_integer_kraft_violation(self):
        with pytest.raises(ParameterError):
            Codebook.integer(1, 1, 2, 2)

    def test_integer_requires_integers(self):
        with pytest.raises(ParameterError):
            Codebook.integer(1.5, 3, 3, 3)
        with pytest.raises(ParameterError):
            Codebook.integer(0, 3, 3, 3)

    def test_integer_allows_inf_for_dead_events(self):
        cb = Codebook.integer(1, INF, INF, 1)
        assert sum(2.0 ** -l for l in cb.lengths) == 1.0

    def test_relaxed_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            Codebook.relaxed(1, 2, 0.0, 2)

    def test_unknown_mode(self):
        with pytest.raises(ParameterError):
            Codebook(1, 2, 3, 4, mode="huffman")

    def test_accepts_numpy_scalars(self):
        cb = Codebook.integer(*[np.int64(2)] * 4)
        assert cb.lengths == (2.0, 2.0, 2.0, 2.0)
        assert all(type(v) is float for v in cb.lengths)
        assert Codebook.relaxed(*[np.float32(1.5)] * 4).l1 == 1.5

    def test_rejects_nan_and_non_numbers(self):
        for bad in (np.float64("nan"), "2", True, -math.inf, None):
            with pytest.raises(ParameterError):
                Codebook.relaxed(1, bad, 2, 2)
            with pytest.raises(ParameterError):
                Codebook.integer(bad, 2, 2, 2)


class TestLargeMu:
    def test_zero_threshold_anchor(self):
        cfg = ThresholdConfig(0, 0, INF)
        bd = mse_exact(cfg, Codebook.relaxed(1, INF, INF, 1))
        assert bd.mse == pytest.approx(1.5, abs=1e-12)
        assert bd.sr == pytest.approx(1.0, abs=1e-12)

    def test_uniform_two_at_origin(self):
        bd = mse_exact(ThresholdConfig(0, 0, INF), Codebook.uniform(2.0))
        assert bd.mse == pytest.approx(3.0, abs=1e-12)
        assert bd.sr == pytest.approx(0.5, abs=1e-12)

    def test_frozen_unit_band_uniform(self):
        bd = mse_exact(ThresholdConfig(1, 1, INF), Codebook.uniform(2.0))
        assert bd.mse == pytest.approx(2.8020053204014825, abs=1e-12)
        assert bd.sr == pytest.approx(0.33694051764915667, abs=1e-12)

    def test_matches_quadrature_oracle(self):
        for a, b, ls in [
            (1, 1, (2, 2, 2, 2)),
            (0.5, 1.5, (1, 3, 4, 2)),
            (2, 2, (3.5, 1.2, 1.2, 3.5)),
        ]:
            bd = mse_exact(ThresholdConfig(a, b, INF), Codebook.relaxed(*ls))
            mse, sr = oracles.oracle_mse_large_mu(a, b, ls)
            assert bd.mse == pytest.approx(mse, abs=1e-10)
            assert bd.sr == pytest.approx(sr, abs=1e-10)

    def test_constant_delay_reduction(self):
        # uniform lengths L0 collapse the formula to (K + 1) * L0 exactly
        for a in (0.0, 0.7, 1.3, 2.5):
            cfg = ThresholdConfig(a, a, INF)
            from wiener_coding import scheme_constants

            k = scheme_constants(cfg).k
            for l0 in (1.0, 2.0, 3.7):
                bd = mse_exact(cfg, Codebook.uniform(l0))
                assert bd.mse == pytest.approx(k * l0 + l0, abs=1e-12)

    def test_age_form_symmetry(self):
        cfg = ThresholdConfig(1.2, 1.2, INF)
        m1 = mse_exact(cfg, Codebook.relaxed(1.5, 3, 2.5, 4)).mse
        m2 = mse_exact(cfg, Codebook.relaxed(4, 2.5, 3, 1.5)).mse
        assert m1 == pytest.approx(m2, abs=1e-12)

    def test_infinite_length_with_weight_rejected(self):
        cfg = ThresholdConfig(1, 1, INF)
        with pytest.raises(ParameterError):
            mse_exact(cfg, Codebook.relaxed(1, INF, INF, 1))

    def test_same_bits_as_the_removed_large_slope_function(self):
        # SHA-256 of every MseBreakdown field, captured from the separate
        # large-slope function that mse_exact at mu = inf replaced
        fields = ("mse", "sr", "ey4", "ecy2", "etau", "lbar", "l2bar", "lsqrtbar", "ltilde")
        books = ((2, 2, 2, 2), (1, 3, 4, 5), (1.5, 2.25, 7.5, 3.125))
        cases = [
            (a, b, s2, ls)
            for a in threshold_grid((0.0, 3.0, 0.01))
            for b in (a, 1.5 - 0.5 * a)
            for s2 in (1.0, 4.0)
            for ls in books
        ]
        cases += [
            (0.0, 0.0, s2, ls)
            for s2 in (1.0, 4.0)
            for ls in ((1, INF, INF, 1), (2.5, INF, INF, 0.75))
        ]
        h = hashlib.sha256()
        for a, b, s2, ls in cases:
            bd = mse_exact(ThresholdConfig(a, b, INF, s2), Codebook.relaxed(*ls))
            h.update(("|".join(repr(getattr(bd, f)) for f in fields) + "\n").encode())
        assert len(cases) == 3616
        assert h.hexdigest() == "aa36e7fb24719ca5afe0f33f889c1dd309d2007e9ad9e315c0f35eb3dd7da503"

    def test_positivity(self):
        bd = mse_exact(ThresholdConfig(0.8, 1.4, INF), Codebook.relaxed(2, 3, 1, 4))
        for f in ("mse", "sr", "ey4", "ecy2", "etau", "lbar", "l2bar", "lsqrtbar", "ltilde"):
            assert getattr(bd, f) > 0


class TestExact:
    def test_huge_mu_agrees_with_large_mu(self):
        for a, b in [(0, 0), (1, 1), (0.4, 2.1)]:
            cfg = ThresholdConfig(a, b, 1e6)
            cb = Codebook.relaxed(2, 3, 3, 2)
            assert mse_exact(cfg, cb).mse == pytest.approx(
                mse_exact(large_slope(cfg), cb).mse, abs=1e-3
            )

    def test_gap_bound_at_mu_1e4(self):
        # |exact - large| <= 10/mu over the full small-integer codebook grid
        mu = 1e4
        for a in (0.0, 0.5, 1.0, 2.0):
            cfg = ThresholdConfig(a, a, mu)
            for ls in itertools.product((1, 2, 3, 4), repeat=4):
                cb = Codebook.relaxed(*ls)
                gap = abs(mse_exact(cfg, cb).mse - mse_exact(large_slope(cfg), cb).mse)
                assert gap <= 10.0 / mu

    def test_gap_decreasing_in_mu(self):
        cb = Codebook.uniform(2.0)
        gaps = []
        for mu in (1, 3, 10, 30, 100, 1000):
            cfg = ThresholdConfig(1, 1, mu)
            gaps.append(abs(mse_exact(cfg, cb).mse - mse_exact(large_slope(cfg), cb).mse))
        assert all(x > y for x, y in zip(gaps, gaps[1:]))

    def test_etau_is_reciprocal_sr(self):
        cfg = ThresholdConfig(0.6, 1.1, 5)
        bd = mse_exact(cfg, Codebook.relaxed(1, 2, 3, 4))
        assert bd.etau == pytest.approx(1.0 / bd.sr, rel=1e-14)

    @pytest.mark.parametrize("mu,sigma2", [(1e-110, 1.0), (1e-300, 1.0), (1e-100, 1e20)])
    def test_underflowing_slope_raises(self, mu, sigma2):
        # mu**3 of the unit-variance slope mu/sigma underflows to 0
        with pytest.raises(ParameterError, match="too small"):
            mse_exact(ThresholdConfig(1, 1, mu, sigma2), Codebook.uniform(2.0))

    @pytest.mark.parametrize("mu", [1e-105, 2e-108, 1e-104])
    def test_overflowing_slope_raises(self, mu):
        # mu**3 is tiny but not 0, so 15*(A1 + B1)*E[sqrt L]/mu**3 overflows
        with pytest.raises(ParameterError, match="too small.*overflows"):
            mse_exact(ThresholdConfig(1, 1, mu), Codebook.uniform(2.0))

    @pytest.mark.parametrize("mu", [INF, 10.0])
    @pytest.mark.parametrize("length", [1e200, 1e154])
    def test_overflowing_lengths_raise(self, mu, length):
        # finite lengths whose square (1e200) or fourth moment (1e154) overflows
        # are too large, not infinite
        with pytest.raises(ParameterError, match="too large"):
            mse_exact(ThresholdConfig(1, 1, mu), Codebook.uniform(length))

    @pytest.mark.parametrize("mu", [INF, 1e155])
    def test_overflowing_variance_raises(self, mu):
        # canonically a = b = 1 and mu = inf or 10; only the sigma2 multiple overflows
        with pytest.raises(ParameterError, match="overflow at sigma2=1e[+]308.*mse=inf"):
            mse_exact(ThresholdConfig(1e154, 1e154, mu, 1e308), Codebook.uniform(2.0))

    def test_overflowing_rate_raises(self):
        # E[tau + L] = D * 1e-320 at mu = inf, whose reciprocal overflows
        with pytest.raises(ParameterError, match="overflow.*sr=inf"):
            mse_exact(ThresholdConfig(1, 1, INF), Codebook.uniform(1e-320))

    @pytest.mark.parametrize("mu,sigma2", [(6e102, 1), (1e200, 1), (1e308, 1), (1e102, 1e-2)])
    def test_slope_whose_cube_overflows_is_large_slope(self, mu, sigma2):
        # the unit-variance slope's cube overflows; every 1/mu term is below
        # double resolution there
        cfg = ThresholdConfig(1, 1, mu, sigma2)
        cb = Codebook.relaxed(1, 3, 4, 5)
        assert mse_exact(cfg, cb) == mse_exact(large_slope(cfg), cb)

    def test_exact_has_positive_mu_corrections(self):
        # finite mu lengthens cycles and grows the MSE at the origin config
        cfg_small = ThresholdConfig(0, 0, 1)
        cfg_big = ThresholdConfig(0, 0, 1e8)
        cb = Codebook.uniform(2.0)
        assert mse_exact(cfg_small, cb).mse > mse_exact(cfg_big, cb).mse


class TestSamplingRate:
    def test_unit_rate_anchor(self):
        cfg = ThresholdConfig(0, 0, INF)
        assert mse_exact(cfg, Codebook.relaxed(1, INF, INF, 1)).sr == (
            pytest.approx(1.0, abs=1e-12)
        )


class TestSigmaScaling:
    def test_identity_at_unit_variance(self):
        cfg = ThresholdConfig(1, 1, 10)
        assert scale_to_sigma(cfg) is cfg

    def test_canonical_mapping(self):
        cfg = ThresholdConfig(2, 2, 20, sigma2=4)
        canon = scale_to_sigma(cfg)
        assert canon.a == pytest.approx(1.0)
        assert canon.mu == pytest.approx(10.0)
        assert canon.sigma2 == 1.0

    def test_mse_scales_by_sigma2(self):
        # scaled thresholds on the sigma process quadruple the MSE at sigma=2
        cb = Codebook.uniform(2.0)
        for mu in (INF, 10.0):
            base = ThresholdConfig(1, 1, mu)
            scaled = ThresholdConfig(2, 2, 2 * mu, sigma2=4)
            assert mse_exact(scaled, cb).mse == pytest.approx(
                4 * mse_exact(base, cb).mse, rel=1e-12
            )
            assert mse_exact(scaled, cb).sr == pytest.approx(mse_exact(base, cb).sr, rel=1e-12)


class TestIdealBenchmark:
    def test_zero_threshold(self):
        mse, sr = ideal_benchmark_mse(0.0)
        assert mse == pytest.approx(1.5, abs=1e-12)
        assert sr == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative(self):
        # a**4 overflows above about 1.3e77
        for a in (-0.5, "x", True, math.nan, math.inf, None, 1e78, 1e103):
            with pytest.raises(ParameterError):
                ideal_benchmark_mse(a)

    def test_nonzero_minimum(self):
        # the benchmark's best threshold is strictly positive
        grid = np.arange(0, 2.01, 0.05)
        mses = [ideal_benchmark_mse(a)[0] for a in grid]
        assert min(mses) < mses[0]


class TestIdealBenchmarkOracle:
    """ideal_benchmark_mse is mse_exact at unit delays and mu = inf; the
    oracle derives the same curve from the exit value's moments."""

    def test_matches_exit_moments(self):
        # the two routes round apart by at most 5 ulp over these points
        for a in [*threshold_grid((0.0, 3.0, 0.01)), 4.0, 8.0, 38.5, 1e3, 1e6, 1e20, 1e70]:
            mse, sr = ideal_benchmark_mse(a)
            bd = mse_exact(ThresholdConfig(a, a, INF), Codebook.uniform(1.0))
            assert (mse, sr) == (bd.mse, bd.sr)
            ref_mse, ref_sr = oracles.ideal_benchmark(a)
            assert abs(mse - ref_mse) <= 8 * math.ulp(ref_mse), a
            assert abs(sr - ref_sr) <= 8 * math.ulp(ref_sr), a


class TestIntegralOracle:
    def test_deterministic_exact_value(self):
        r = mse_integral_oracle(DeterministicStop(1.0), n_paths=20_000, step=1e-3, seed=3)
        # both sides are t^2/2 analytically
        assert abs(r.lhs - 0.5) <= 1.96 * r.lhs_se
        assert abs(r.rhs - 0.5) <= 1.96 * r.rhs_se
        assert abs(r.diff) <= 1.96 * r.diff_se
        assert r.n_truncated == 0

    def test_band_exit_sides_agree(self):
        r = mse_integral_oracle(BandStop(1, 1), n_paths=20_000, step=1e-3, seed=3)
        assert abs(r.diff) <= 1.96 * r.diff_se

    def test_sloped_sides_agree(self):
        r = mse_integral_oracle(SlopedStop(1, 2), n_paths=20_000, step=1e-3, seed=3)
        assert abs(r.diff) <= 1.96 * r.diff_se

    def test_bad_specs(self):
        with pytest.raises(ParameterError):
            mse_integral_oracle(DeterministicStop(-1))
        with pytest.raises(ParameterError):
            mse_integral_oracle(BandStop(0, 1))
        with pytest.raises(ParameterError):
            mse_integral_oracle(SlopedStop(1, 0))

    def test_truncation_flagged(self):
        # an absurdly tight horizon leaves paths unfinished but still reports
        r = mse_integral_oracle(BandStop(3, 3), horizon=0.05, n_paths=500, step=1e-3, seed=1)
        assert r.n_truncated > 0
        assert math.isfinite(r.lhs) and math.isfinite(r.rhs)

    @pytest.mark.parametrize("kw", [
        dict(step=math.nan), dict(step=math.inf), dict(horizon=math.nan),
        dict(horizon=math.inf), dict(n_paths=2.5), dict(n_paths=True),
        dict(seed=-1), dict(seed=1.5), dict(seed="3"), dict(seed=True), dict(seed=None),
        dict(n_paths=1),
    ])
    @pytest.mark.parametrize("stop", [DeterministicStop(1.0), BandStop(1, 1), SlopedStop(1, 2)])
    def test_non_finite_or_non_integer_args(self, stop, kw):
        with pytest.raises(ParameterError):
            mse_integral_oracle(stop, **kw)

    @pytest.mark.parametrize("make", [
        lambda: DeterministicStop(math.nan), lambda: DeterministicStop(math.inf),
        lambda: BandStop(math.nan, 1), lambda: BandStop(1, math.nan),
        lambda: SlopedStop(math.nan, 2), lambda: SlopedStop(1, math.nan),
        lambda: BandStop(True, 1),
    ])
    def test_nan_stop_rejected(self, make):
        with pytest.raises(ParameterError):
            make()


# IntegralCheck fields at small n, seed 3, step 1e-3: C4's three stops, a
# band stop truncated at a tight horizon, and a deterministic stop of 50000
# steps.  Re-captured when the oracle began to walk in spans: 64 steps for the
# deterministic stops (the 1000-step one is 15 spans of 64 and one of 40, all
# skipped), 7 for C4's band and sloped stops and 23 for the (3, 3) band.
GOLDEN_CHECKS = [
    (DeterministicStop(1.0), {}, dict(
        lhs=0.5037745641348201, lhs_se=0.02656849619610435, rhs=0.5386180965365646,
        rhs_se=0.11129930508031624, diff=-0.03484353240174449, diff_se=0.09903128805341307,
        n_paths=450, n_truncated=0)),
    (BandStop(1, 1), {}, dict(
        lhs=0.1761720386793469, lhs_se=0.006206510344460219, rhs=0.17997953877016964,
        rhs_se=0.000585546666018103, diff=-0.0038075000908227175, diff_se=0.006226315324103565,
        n_paths=450, n_truncated=0)),
    (SlopedStop(1, 2), {}, dict(
        lhs=0.5689457286521752, lhs_se=0.1873666411197458, rhs=0.9106610739983944,
        rhs_se=0.6372479574215477, diff=-0.34171534534621933, diff_se=0.4606651572220189,
        n_paths=450, n_truncated=0)),
    (BandStop(3, 3), dict(horizon=0.05), dict(
        lhs=0.0012852733109098974, lhs_se=6.359063159040802e-05, rhs=0.0013557597558161278,
        rhs_se=0.0002493716317012512, diff=-7.04864449062303e-05,
        diff_se=0.000211077749319136, n_paths=450, n_truncated=450)),
    (DeterministicStop(50.0), {}, dict(
        lhs=1218.3409422721365, lhs_se=76.89505616966125, rhs=1309.663736530086,
        rhs_se=193.91565846736106, diff=-91.32279425794931, diff_se=134.3918463229552,
        n_paths=450, n_truncated=0)),
]
# The band and sloped stops' fields at 300 paths, seed 3, step 1e-3, walked
# in blocks of 128 rows (hitting_times._FILL_ROWS), the last partial: each
# block fills in its spans, and sums their squares, before the next one
# draws its span ends.
GOLDEN_CHECKS_BLOCKS_128 = [
    (BandStop(1, 1), dict(
        lhs=0.1922893121268961, lhs_se=0.00971002389162519, rhs=0.17968410149592595,
        rhs_se=0.0006363154903024416, diff=0.012605210630970132, diff_se=0.00971836428259654,
        n_paths=300, n_truncated=0)),
    (SlopedStop(1, 2), dict(
        lhs=0.3317146397993783, lhs_se=0.06513704113881934, rhs=0.2228407970203095,
        rhs_se=0.09701991963538996, diff=0.1088738427790688, diff_se=0.04712376325714942,
        n_paths=300, n_truncated=0)),
]


class TestIntegralOracleKernel:
    @pytest.mark.parametrize("stop,kw,want", GOLDEN_CHECKS, ids=[
        "deterministic", "band", "sloped", "band-truncated", "deterministic-long"])
    def test_golden_fields(self, stop, kw, want):
        r = mse_integral_oracle(stop, n_paths=450, step=1e-3, seed=3, **kw)
        assert dataclasses.asdict(r) == want

    @pytest.mark.parametrize("tile", [1, 3000])
    def test_tile_size_does_not_change_output(self, monkeypatch, tile):
        # 1 -> one row per tile; 3000 -> 3000 // s rows of each s-span chunk
        # (187 of the first, 16-span one) and 200 of the deterministic stop's
        # first, 15-span chunk, so partial tiles occur
        monkeypatch.setattr(hitting_times, "_TILE", tile)
        for stop, kw, want in GOLDEN_CHECKS[:4]:
            r = mse_integral_oracle(stop, n_paths=450, step=1e-3, seed=3, **kw)
            assert dataclasses.asdict(r) == want

    @pytest.mark.parametrize("tile", [1, 3000])
    def test_golden_across_fill_blocks(self, monkeypatch, tile):
        # the sums of squares of spans filled in and skipped, gathered block
        # by block, whatever the tile size
        monkeypatch.setattr(hitting_times, "_FILL_ROWS", 128)
        monkeypatch.setattr(hitting_times, "_TILE", tile)
        for stop, want in GOLDEN_CHECKS_BLOCKS_128:
            r = mse_integral_oracle(stop, n_paths=300, step=1e-3, seed=3)
            assert dataclasses.asdict(r) == want

    def test_tile_visits_do_not_fault_pages(self, fresh_python):
        # a 256 KiB temporary per tile is mapped and unmapped by the allocator
        # on every tile in a process whose heap no earlier import has grown:
        # 92,227 (band) and 65,319 (sloped) minor faults per call that way.
        # The span walks' bookkeeping in fresh arrays per tile faulted 9,309
        # (band), 3,473 (sloped) and 762 (hits) pages a call
        pytest.importorskip("resource")
        faults = fresh_python("""if True:
            import json, resource, sys
            from wiener_coding.hitting_times import DriftHitSpec, sample_hit_times
            from wiener_coding.mse_model import BandStop, SlopedStop, mse_integral_oracle

            out = {"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}
            for name, walk in (
                ("BandStop", lambda: mse_integral_oracle(BandStop(1, 1), n_paths=20_000,
                                                         step=1e-3)),
                ("SlopedStop", lambda: mse_integral_oracle(SlopedStop(1, 2), n_paths=20_000,
                                                           step=1e-3)),
                ("hits", lambda: sample_hit_times(DriftHitSpec(1, 10), 1e-4, 16_000, 1)),
            ):
                walk()  # warm-up
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                walk()
                after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                out[name] = after - before
            print(json.dumps(out))
        """)
        assert faults.pop("scipy") == []
        assert faults["BandStop"] < 5000 and faults["SlopedStop"] < 5000, faults
        assert faults["hits"] < 5000, faults

    def test_long_deterministic_row_rejected_before_allocating(self):
        # a deterministic stop past the horizon is rejected before any walk
        tracemalloc.start()
        try:
            for t in (1e6, 10_000.001, 1e308):
                with pytest.raises(ParameterError, match="horizon"):
                    mse_integral_oracle(DeterministicStop(t), step=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # a stop at the horizon is accepted, one just past it is not
        assert mse_integral_oracle(DeterministicStop(1.0), horizon=1.0, n_paths=4,
                                   step=1e-3).n_paths == 4
        with pytest.raises(ParameterError, match="horizon"):
            mse_integral_oracle(DeterministicStop(1.0000001), horizon=1.0, n_paths=4, step=1e-3)

    def test_deterministic_stop_walks_whole_steps(self):
        # t = 1.0004 and t = 1.0 both walk 1000 steps, so the compensator
        # step*tau/2 takes the time walked and the checks are the same
        a, b = (mse_integral_oracle(DeterministicStop(t), n_paths=100, step=1e-3, seed=3)
                for t in (1.0004, 1.0))
        assert a == b

    def test_memory_is_a_few_tiles(self):
        # the old full (paths x chunk) matrices peaked at 489.5 MiB here
        tracemalloc.start()
        try:
            mse_integral_oracle(BandStop(1, 1), n_paths=20_000, step=1e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize("stop", [DeterministicStop(1.0), BandStop(1, 1), SlopedStop(1, 2)],
                             ids=["deterministic", "band", "sloped"])
    def test_memory_is_a_few_tiles_in_spans(self, stop):
        # at step 1e-3 C4's stops walk in spans (step 1e-2 above walks at
        # m = 1): the span tiles' buffers and the fill queue of one block
        # of rows, a few tiles in all
        tracemalloc.start()
        try:
            mse_integral_oracle(stop, n_paths=20_000, step=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20
