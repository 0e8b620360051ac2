import hashlib
import math
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    band_exit_lower_prob,
    band_exit_upper_prob,
    laplace_transform,
    sample_hit_time,
)
from wiener_coding import hitting_times, mse_model, simulator
from wiener_coding import (
    BandStop,
    Codebook,
    DriftHitSpec,
    HorizonError,
    ParameterError,
    SimConfig,
    SlopedStop,
    ThresholdConfig,
    hit_moments,
    mse_integral_oracle,
    run,
    sample_hit_times,
)


class TestLaplaceTransform:
    def test_at_zero(self):
        assert laplace_transform(DriftHitSpec(1, 1), 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_closed_form_points(self):
        # sqrt(1 + 2*1.5) = 2, so the exponent is -c
        assert laplace_transform(DriftHitSpec(1, 1), 1.5) == pytest.approx(
            math.exp(-1), rel=1e-14
        )
        assert laplace_transform(DriftHitSpec(2, 1), 1.5) == pytest.approx(
            math.exp(-2), rel=1e-14
        )

    def test_negative_lambda_rejected(self):
        with pytest.raises(ParameterError):
            laplace_transform(DriftHitSpec(1, 1), -0.1)

    @pytest.mark.parametrize("c,mu", [(0.5, 0.7), (1, 1), (2, 3)])
    def test_derivatives_match_moments(self, c, mu):
        # finite-difference derivatives of Psi at 0 reproduce the first two
        # moments; the transform's domain starts at 0, so the stencils are
        # second-order one-sided rather than centered
        spec = DriftHitSpec(c, mu)
        h = 1e-4
        f = [laplace_transform(spec, k * h) for k in range(4)]
        m1, m2, _, _ = hit_moments(spec)
        d1 = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * h)
        d2 = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / (h * h)
        assert -d1 == pytest.approx(m1, rel=1e-4)
        assert d2 == pytest.approx(m2, rel=1e-4)


class TestHitMoments:
    def test_closed_form_values(self):
        m = hit_moments(DriftHitSpec(2, 1))
        assert m[0] == 2.0
        assert m[1] == 6.0
        m = hit_moments(DriftHitSpec(1, 10))
        assert m[0] == pytest.approx(0.1, rel=1e-15)
        assert m[1] == pytest.approx(0.011, rel=1e-15)

    def test_variance_nonnegative(self):
        for c in (0.1, 1, 5):
            for mu in (0.2, 1, 8):
                m = hit_moments(DriftHitSpec(c, mu))
                assert m[1] >= m[0] ** 2

    @pytest.mark.parametrize("c,mu,want", [
        (1, 1e200, (1e-200, 0.0, 0.0, 0.0)),  # every term but c/mu underflows
        (1e200, 1e200, (1.0, 1.0, 1.0, 1.0)),  # c**4 and mu**7 overflow, not the ratios
        (1e-100, 1e-47, (1e-53, 1e41, 3e135, 1.5e230)),  # mu**7 underflows to 0
    ])
    def test_powers_outside_the_double_range(self, c, mu, want):
        assert hit_moments(DriftHitSpec(c, mu)) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("c,mu", [(1e200, 1), (1, 1e-200)])
    def test_overflowing_moments_raise(self, c, mu):
        with pytest.raises(ParameterError, match="overflow"):
            hit_moments(DriftHitSpec(c, mu))

    def test_invalid_spec(self):
        with pytest.raises(ParameterError):
            DriftHitSpec(0, 1)
        with pytest.raises(ParameterError):
            DriftHitSpec(1, -1)


class TestBandExit:
    def test_symmetry_point(self):
        assert band_exit_upper_prob(0.0, 1.0, 1.0) == 0.5

    def test_boundary(self):
        assert band_exit_upper_prob(1.0, 1.0, 1.0) == 1.0
        assert band_exit_upper_prob(-1.0, 1.0, 1.0) == 0.0

    def test_linear_interpolation(self):
        assert band_exit_upper_prob(0.3, 1, 1) == pytest.approx(0.65, abs=1e-15)

    def test_complement_exact(self):
        for x in (-0.8, 0.0, 0.4):
            up = band_exit_upper_prob(x, 1.2, 0.9)
            dn = band_exit_lower_prob(x, 1.2, 0.9)
            assert up + dn == 1.0

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            band_exit_upper_prob(2.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            band_exit_upper_prob(0.0, 0.0, 0.0)


class TestSampler:
    def test_deterministic_given_seed(self):
        a = sample_hit_times(DriftHitSpec(1, 2), 1e-3, 500, rng_seed=7)
        b = sample_hit_times(DriftHitSpec(1, 2), 1e-3, 500, rng_seed=7)
        assert np.array_equal(a, b)

    def test_strong_drift_limit(self):
        # mu=1000, c=1: hitting is essentially deterministic at t = 1e-3
        t = sample_hit_time(DriftHitSpec(1, 1000), 1e-6, rng_seed=3)
        assert t == pytest.approx(1e-3, abs=2e-4)

    def test_single_path_wraps_batch(self):
        t = sample_hit_time(DriftHitSpec(1, 1), 1e-3, rng_seed=11)
        assert t > 0 and math.isfinite(t)

    def test_moments_smoke(self):
        # light version of the acceptance check; tolerances sized ~4 MC sigma
        spec = DriftHitSpec(1, 1)
        times = sample_hit_times(spec, 1e-4, 20_000, rng_seed=5)
        m1, m2, _, _ = hit_moments(spec)
        assert float(times.mean()) == pytest.approx(m1, rel=0.03)
        assert float((times**2).mean()) == pytest.approx(m2, rel=0.09)

    def test_invalid_args(self):
        with pytest.raises(ParameterError):
            sample_hit_times(DriftHitSpec(1, 1), 0.0, 10, rng_seed=0)
        with pytest.raises(ParameterError):
            sample_hit_times(DriftHitSpec(1, 1), 1e-3, 0, rng_seed=0)

    def test_horizon_cap_is_loud(self):
        from wiener_coding import HorizonError

        with pytest.raises(HorizonError):
            sample_hit_times(DriftHitSpec(5, 0.1), 1e-3, 50, rng_seed=2, horizon=0.5)

    @pytest.mark.parametrize("kw", [
        dict(step=math.nan), dict(step=math.inf), dict(horizon=math.nan),
        dict(horizon=math.inf), dict(n_paths=2.5), dict(n_paths=True),
        dict(rng_seed=-1), dict(rng_seed=1.5), dict(rng_seed="3"), dict(rng_seed=True),
        dict(rng_seed=None),
    ])
    def test_non_finite_or_non_integer_args(self, kw):
        args = dict(step=1e-3, n_paths=10, horizon=10.0, rng_seed=0) | kw
        with pytest.raises(ParameterError):
            sample_hit_times(DriftHitSpec(1, 1), args["step"], args["n_paths"],
                             rng_seed=args["rng_seed"], horizon=args["horizon"])

    def test_numpy_integer_sizes_accepted(self):
        a = sample_hit_times(DriftHitSpec(1, 2), 1e-3, np.int64(50), rng_seed=7)
        assert np.array_equal(a, sample_hit_times(DriftHitSpec(1, 2), 1e-3, 50, rng_seed=7))


class TestSpecTypes:
    def test_accepts_numpy_scalars(self):
        assert DriftHitSpec(np.int64(1), np.float32(2)) == DriftHitSpec(1.0, 2.0)

    @pytest.mark.parametrize("c,mu", [(True, 1), (1, True), (math.nan, 1), ("1", 1)])
    def test_rejects_bool_nan_and_non_numbers(self, c, mu):
        with pytest.raises(ParameterError):
            DriftHitSpec(c, mu)


# SHA-256 of sample_hit_times output at C3's three (c, mu), rng_seed=11, sizes
# whose longest paths span many chunks; re-captured when the kernel began to
# size its chunks from the crossings it sees.
GOLDEN_HITS = {
    (1, 1, 1e-3, 300): "2fb74fd831bfd3b8aeb773e3d3545255b33b7296f7471404328c34cb90252c21",
    (2, 1, 1e-3, 200): "156c06b104f62cd8fe8a4a8a04ffd83c3de178c20d295c30b7b1e0340cea3db2",
    (1, 10, 1e-4, 500): "326127d18b74323d3cefd1c6ea0e558f8febd9531e7899b1efe8a23ddf356574",
}
GOLDEN_HITS_BATCH_128 = "d468be0f45b397d7cde75976fc71e5d0ef1f39ab58da3567ce30cbf2cdd4a64c"


def _sha(times: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(times).tobytes()).hexdigest()


class TestKernel:
    @pytest.mark.parametrize("key", list(GOLDEN_HITS))
    def test_golden_hit_times(self, key):
        c, mu, step, n = key
        assert _sha(sample_hit_times(DriftHitSpec(c, mu), step, n, rng_seed=11)) == GOLDEN_HITS[key]

    def test_golden_across_path_batches(self, monkeypatch):
        monkeypatch.setattr(hitting_times, "_PATH_BATCH", 128)  # 3 batches, the last partial
        times = sample_hit_times(DriftHitSpec(1, 1), 1e-3, 300, rng_seed=11)
        assert _sha(times) == GOLDEN_HITS_BATCH_128

    @pytest.mark.parametrize("tile", [1, 3000])
    def test_tile_size_does_not_change_output(self, monkeypatch, tile):
        # 1 -> one row per tile; 3000 -> 3000 // s rows of each s-step chunk
        # (187 of the first, 16-step one), so most chunks split into several
        # tiles and end on a partial one
        monkeypatch.setattr(hitting_times, "_TILE", tile)
        for key, digest in GOLDEN_HITS.items():
            c, mu, step, n = key
            assert _sha(sample_hit_times(DriftHitSpec(c, mu), step, n, rng_seed=11)) == digest

    INF = math.inf
    MIXED = [(0.5, 0.0, -0.5, 0.0), (INF, 0.0, -0.4, 0.6), (0.4, -0.6, -INF, 0.0)]
    WALKS = {  # (lines, grid steps): each path crosses at w >= u0 + su*t or w <= d0 + sd*t
        "band": ((0.6, 0.0, -0.6, 0.0), 5000),
        "sloped": ((0.6, -1.0, -INF, 0.0), 5000),
        "mixed": (tuple(np.array(v) for v in zip(*(MIXED * 100))), 5000),  # band, rising, falling
        "none": ((INF, 0.0, -INF, 0.0), 700),  # a fixed-time stop
    }

    @pytest.mark.parametrize("tile", [1, 3000])
    @pytest.mark.parametrize("kind", list(WALKS))
    def test_walk_without_squares_is_the_same_walk(self, monkeypatch, kind, tile):
        # squares=False skips only the sums: same stops, values and survivors
        monkeypatch.setattr(hitting_times, "_TILE", tile)
        lines, n_steps = self.WALKS[kind]
        start = np.random.default_rng(4).normal(0.0, 0.1, 300)
        summed, bare = (hitting_times._first_crossings(
            np.random.default_rng(9), start.copy(), lines, n_steps, 128, 1e-3, squares=squares)
            for squares in (True, False))
        assert summed[2] is not None and bare[2] is None
        for i in (0, 1, 3):  # k, w, stuck
            np.testing.assert_array_equal(bare[i], summed[i])

    def test_memory_is_a_few_tiles(self):
        # the old full (paths x chunk) draws peaked at 71.3 MiB here
        tracemalloc.start()
        try:
            sample_hit_times(DriftHitSpec(1, 10), 1e-3, 16_000, rng_seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


class TestChunkSchedule:
    """hitting_times._next_chunk: the length of a batch's next chunk from the
    crossings seen in its last one."""

    CAP = hitting_times._MAX_CHUNK
    CASES = [(s, before, after) for s in (8, 9, 16, 100, 512, 4096, 1 << 14, 1 << 15)
             for before in (1, 2, 7, 1000, 20_000, 1 << 62)
             for after in sorted({1, before // 3 + 1, before - 1, before}) if after >= 1]

    def test_doubles_after_no_crossing(self):
        for s in (8, 16, 1000, self.CAP // 2):
            for n in (1, 500, 20_000):
                assert hitting_times._next_chunk(s, n, n) == 2 * s
        assert hitting_times._next_chunk(self.CAP, 40, 40) == self.CAP

    def test_bounds(self):
        # at most twice the last chunk and at most the cap; never below
        # isqrt(8*s) >= 8, since a row's cost alone asks for that much
        for s, before, after in self.CASES:
            n = hitting_times._next_chunk(s, before, after)
            assert 8 <= min(math.isqrt(8 * s), self.CAP) <= n <= min(2 * s, self.CAP), (
                s, before, after, n)

    def test_follows_the_hazard(self):
        # more crossings in the last chunk give a shorter next one; a walk
        # whose paths barely cross grows its chunks to the cap
        lengths = [hitting_times._next_chunk(512, 1000, 1000 - c) for c in (1, 10, 100, 500)]
        assert lengths == sorted(lengths, reverse=True) and lengths[0] > lengths[-1]
        s = 16
        for _ in range(20):
            s = hitting_times._next_chunk(s, 10_000, 9_999)
        assert s == self.CAP

    def test_integers_only(self):
        # floor(sqrt(x)) == isqrt(floor(x)) for a rational x >= 0, so the rule
        # in exact rationals gives the same lengths, also where a float would
        # round (counts near 2**62)
        cost, row = hitting_times._CHUNK_COST, hitting_times._ROW_COST
        for s, before, after in self.CASES:
            n = hitting_times._next_chunk(s, before, after)
            assert type(n) is int
            if after < before:
                hazard = Fraction(before - after, before * s)
                x = 2 * (Fraction(cost, after) + row) / hazard
                want = min(math.isqrt(math.floor(x)), 2 * s, self.CAP)
                assert n == want, (s, before, after)


class _CountingRng:
    """A generator that counts the normals drawn through it."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, 0

    def standard_normal(self, size=None, out=None):
        self.drawn += out.size if out is not None else int(np.prod(size))
        return self.rng.standard_normal(size, out=out)


class TestDrawCount:
    """A walk draws little more than the grid steps its paths walk: a chunk
    of s steps is drawn for every path alive in it, so a path that crosses
    at its step j wastes s - j normals."""

    @pytest.fixture
    def counted(self, monkeypatch):
        seen = {"drawn": 0, "used": 0}
        kernel = hitting_times._first_crossings

        def walk(rng, pos, lines, n_steps, *args, **kw):
            counting = _CountingRng(rng)
            out = kernel(counting, pos, lines, n_steps, *args, **kw)
            seen["drawn"] += counting.drawn
            seen["used"] += int(out[0].sum())
            return out

        for module in (hitting_times, mse_model, simulator):
            monkeypatch.setattr(module, "_first_crossings", walk)
        return seen

    @pytest.mark.parametrize("call,bound", [
        (lambda: mse_integral_oracle(SlopedStop(1, 2), n_paths=2000, step=1e-3, seed=1), 1.15),
        (lambda: mse_integral_oracle(BandStop(1, 1), n_paths=2000, step=1e-3, seed=1), 1.15),
        (lambda: run(SimConfig(1e-2, 1e5, ThresholdConfig(1.0, 1.0, 10.0),
                               Codebook.uniform(2, mode="integer-prefix"), seed=7)), 1.3),
    ], ids=["sloped", "band", "readme-simulate"])
    def test_drawn_over_used(self, counted, call, bound):
        # fixed chunks (1024 steps for the oracle, 100 for this simulation,
        # longer for stragglers) drew 2.18, 1.52 and 1.64 times the steps used
        call()
        assert counted["used"] > 0
        assert counted["drawn"] / counted["used"] <= bound, counted


class TestWalkThreads:
    """Every walk runs on the caller's thread and leaves no thread behind."""

    @pytest.mark.parametrize("walk,error", [
        (lambda: sample_hit_times(DriftHitSpec(1, 2), 1e-3, 300, rng_seed=3), None),
        (lambda: mse_integral_oracle(BandStop(1, 1), n_paths=100, step=1e-2, seed=1), None),
        (lambda: run(SimConfig(1e-2, 600.0, ThresholdConfig(1.0, 1.0, 10.0),
                               Codebook.integer(1, 3, 4, 5), seed=3)), None),
        (lambda: sample_hit_times(DriftHitSpec(5, 0.1), 1e-3, 50, rng_seed=2, horizon=0.5),
         HorizonError),
        (lambda: run(SimConfig(1e-2, 800.0, ThresholdConfig(40.0, 40.0, 0.01, 1.0),
                               Codebook.integer(8, 8, 8, 8), seed=3)), HorizonError),
    ], ids=["return", "oracle-return", "simulator-return", "hit-horizon", "simulator-horizon"])
    def test_no_thread_outlives_a_walk(self, walk, error):
        before = threading.enumerate()
        if error is None:
            walk()
        else:
            with pytest.raises(error):
                walk()
        assert threading.enumerate() == before
