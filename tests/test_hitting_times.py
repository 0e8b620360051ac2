import hashlib
import math
import threading
import tracemalloc

import numpy as np
import pytest

from oracles import (
    band_exit_lower_prob,
    band_exit_upper_prob,
    laplace_transform,
    sample_hit_time,
)
from wiener_coding import hitting_times
from wiener_coding import (
    BandStop,
    Codebook,
    DriftHitSpec,
    HorizonError,
    ParameterError,
    SimConfig,
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
# whose longest paths span 10-20 chunks; captured before the row-tile kernel,
# so the kernel consumes the random stream exactly as the old full draws did.
GOLDEN_HITS = {
    (1, 1, 1e-3, 300): "829c0da97dc475d20294fe280f0a16589a06c4afe9c916593624bfe9b07280cf",
    (2, 1, 1e-3, 200): "7cc5a3ae8dca33b5bdfe87328d55ad60335eda5e6bd77a9918b5bbf45b1b16fd",
    (1, 10, 1e-4, 500): "8cac7d9f0a6b2045cef32f89c76e7b88f417ccd0868f56818342045b33c59675",
}
GOLDEN_HITS_BATCH_128 = "2184f169348fe07bb1a4b688eae0a14a86557686f546afb65e927ce62acf3f11"


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
        # 1 -> one row per tile; 3000 -> 5 rows of a 512-step chunk, so most
        # chunks end on a partial tile
        monkeypatch.setattr(hitting_times, "_TILE", tile)
        for key, digest in GOLDEN_HITS.items():
            c, mu, step, n = key
            assert _sha(sample_hit_times(DriftHitSpec(c, mu), step, n, rng_seed=11)) == digest

    def test_memory_is_a_few_tiles(self):
        # the old full (paths x chunk) draws peaked at 71.3 MiB here
        tracemalloc.start()
        try:
            sample_hit_times(DriftHitSpec(1, 10), 1e-3, 16_000, rng_seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


class _Boom(Exception):
    pass


def _walk_with_failing_visit():
    def visit(w, idx, hit, j, t):
        raise _Boom("visit failed")

    hitting_times._first_crossings(np.random.default_rng(1), np.zeros(10), 100, 10, 50, 1e-2,
                                   0.0, None, visit)


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
        (lambda: _walk_with_failing_visit(), _Boom),
    ], ids=["return", "oracle-return", "simulator-return", "hit-horizon", "simulator-horizon",
            "visit-raises"])
    def test_no_thread_outlives_a_walk(self, walk, error):
        before = threading.enumerate()
        if error is None:
            walk()
        else:
            with pytest.raises(error):
                walk()
        assert threading.enumerate() == before
