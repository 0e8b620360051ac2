import hashlib
import math
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from oracles import (
    band_exit_lower_prob,
    band_exit_upper_prob,
    chunked_walk,
    laplace_transform,
    sample_hit_time,
)
from wiener_coding import hitting_times, mse_model, simulator
from wiener_coding import (
    BandStop,
    Codebook,
    DeterministicStop,
    DriftHitSpec,
    HorizonError,
    ParameterError,
    SimConfig,
    SlopedStop,
    ThresholdConfig,
    hit_moments,
    mse_integral_oracle,
    run,
    run_benchmark,
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
# whose longest paths span many chunks; re-captured when the sampler began to
# walk in spans (7, 15 and 25 steps here).
GOLDEN_HITS = {
    (1, 1, 1e-3, 300): "a675cce5fff8b374ec5f743ddb293e1c447f236de37b4967b30536bd60d5c253",
    (2, 1, 1e-3, 200): "d0bc84a1dbda153f7fa8fd94577e76753076503382d642a26404849d24fcbf07",
    (1, 10, 1e-4, 500): "2b54b50a85f6bf87a67224f77bfca2612b15857e2c2950696ea81d8c742ddbe2",
}
GOLDEN_HITS_BATCH_128 = "170cbab391a0c4fd73872398fe0254e5fdc03762581db7d32b8a95f14647f18b"
GOLDEN_HITS_BLOCKS_128 = "3c8281eb0910d7421753bb9edd04b2d8ef5ba6bf5b4d6c2e5105aa0ccd74ccb4"


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
    def test_golden_across_fill_blocks(self, monkeypatch, tile):
        # 300 paths in blocks of 128 rows, the last partial: each block fills
        # in its spans before the next one draws its span ends, whatever the
        # tile size
        monkeypatch.setattr(hitting_times, "_FILL_ROWS", 128)
        monkeypatch.setattr(hitting_times, "_TILE", tile)
        times = sample_hit_times(DriftHitSpec(1, 1), 1e-3, 300, rng_seed=11)
        assert _sha(times) == GOLDEN_HITS_BLOCKS_128

    def test_simulator_calls_are_one_fill_block(self):
        # a simulator call walks at most _MAX_CHAINS rows, so the blocks never
        # split one, and its draws are those of a walk without blocks
        assert simulator._MAX_CHAINS <= hitting_times._FILL_ROWS

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
        monkeypatch.setattr(hitting_times, "_PATH_BATCH", 128)  # 3 batches, the last partial
        lines, n_steps = self.WALKS[kind]
        start = np.random.default_rng(4).normal(0.0, 0.1, 300)
        summed, bare = (hitting_times._first_crossings(
            np.random.default_rng(9), start.copy(), lines, n_steps, 1e-3, squares=squares)
            for squares in (True, False))
        assert summed[2] is not None and bare[2] is None
        for i in (0, 1, 3):  # k, w, stuck
            np.testing.assert_array_equal(bare[i], summed[i])

    @pytest.mark.parametrize("tile", [1, 3000])
    @pytest.mark.parametrize("kind", ["band", "sloped", "none"])
    def test_scalar_lines_walk_as_per_path_arrays(self, monkeypatch, kind, tile):
        # shared lines are compared as one row; the same values given per path
        # must walk the same paths
        monkeypatch.setattr(hitting_times, "_TILE", tile)
        monkeypatch.setattr(hitting_times, "_PATH_BATCH", 128)  # 3 batches, the last partial
        lines, n_steps = self.WALKS[kind]
        start = np.random.default_rng(4).normal(0.0, 0.1, 300)
        shared, per_path = (hitting_times._first_crossings(
            np.random.default_rng(9), start.copy(), given, n_steps, 1e-3)
            for given in (lines, tuple(np.full(start.size, v) for v in lines)))
        for got, want in zip(per_path, shared):  # k, w, sq, stuck
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("per_path", [False, True], ids=["shared", "per-path"])
    @pytest.mark.parametrize("kind", ["band", "sloped", "none"])
    def test_zero_paths(self, kind, per_path):
        # a walk of no paths (an ideal-scheme generation with no row inside its
        # band) draws nothing and returns empty arrays
        lines, n_steps = self.WALKS[kind]
        if per_path:
            lines = tuple(np.full(0, v) for v in lines)
        rng = np.random.default_rng(9)
        k, w, sq, stuck = hitting_times._first_crossings(rng, np.zeros(0), lines, n_steps, 1e-3)
        for got in (k, w, sq, stuck):
            assert got.shape == (0,)
        assert k.dtype == stuck.dtype == np.int64
        assert rng.bit_generator.state == np.random.default_rng(9).bit_generator.state

    def test_memory_is_a_few_tiles(self):
        # the old full (paths x chunk) draws peaked at 71.3 MiB here
        tracemalloc.start()
        try:
            sample_hit_times(DriftHitSpec(1, 10), 1e-3, 16_000, rng_seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_memory_is_a_few_tiles_in_spans(self):
        # at step 1e-4 the sampler walks in spans of 25 steps; the spans it
        # queues to fill in are those of at most _FILL_ROWS rows at a time
        # (one queue for all 16,000 rows peaked at 8.1 MiB, 4.1 in blocks)
        tracemalloc.start()
        try:
            sample_hit_times(DriftHitSpec(1, 10), 1e-4, 16_000, rng_seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


class TestKernelFirstCrossings:
    """The walk kernel's first crossings (hitting_times._first_crossings over
    each path's lines) against np.flatnonzero over the drawn paths: several
    rows against chunked_walk, one row against its whole path."""

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

    def walk(self, rows):
        """Each row's first crossing index (-1 for none), its value there (its
        last value if none), its left sum of squares and the survivors."""
        start, *lines = (np.array(c, dtype=float) for c in zip(*rows))
        k, w, sq, stuck = hitting_times._first_crossings(
            np.random.default_rng(self.SEED), start, lines, self.N, self.STEP, sd=self.SD)
        got = np.where(k < self.N, k - 1, -1)
        got[stuck] = -1
        return got, w, sq, stuck

    def reference(self, rows):
        """chunked_walk over the rows on the kernel's chunk schedule."""
        start, *lines = (np.array(c, dtype=float) for c in zip(*rows))
        return chunked_walk(np.random.default_rng(self.SEED), start, lines, self.N,
                                    self.STEP, self.SD)

    def brute(self, row):
        """One row's full path, drawn at once with its start folded into the
        first step as the kernel folds it, its first crossing index (-1 for
        none) and its left sum of squares up to the crossing (the whole path
        but its last point if none).  A single row draws the same normals in
        any chunking, and sums them in the same order."""
        start, u0, su, d0, sl = row
        t = (1 + np.arange(self.N)) * self.STEP
        steps = np.random.default_rng(self.SEED).standard_normal(self.N) * self.SD
        steps[0] += start
        path = np.cumsum(steps)
        hit = np.flatnonzero((path >= u0 + su * t) | (path <= d0 + sl * t))
        k = int(hit[0]) if hit.size else -1
        return path, k, start**2 + np.sum(path[: k if hit.size else -1] ** 2)

    @pytest.mark.parametrize("kind", list(ROWS))
    def test_matches_brute_force(self, kind):
        # the rows together cross where the chunk-by-chunk reference says; each
        # row alone crosses where its whole path does, past the first chunk
        rows = self.ROWS[kind]
        want, values, sums = self.reference(rows)
        got, w, sq, stuck = self.walk(rows)
        assert got.tolist() == want.tolist() and stuck.size == 0 and min(want) > 0
        assert w.tolist() == values.tolist()
        assert sq == pytest.approx(sums, rel=1e-12)
        for row in rows:
            path, k, total = self.brute(row)
            got, w, sq, _ = self.walk([row])
            assert got.tolist() == [k] and k >= hitting_times._FIRST_CHUNK
            assert w.tolist() == [path[k]]
            assert sq[0] == pytest.approx(total, rel=1e-12)

    def test_lines_equal_the_two_line_test(self):
        # paths that stand still (sd = 0) cross first where w >= u0 + su*t |
        # w <= d0 + sd*t first holds: band rows compared as levels and sloped
        # rows on their one line, on values that tie with a line at a grid
        # point, at signed zeros and with infinite levels; in tiles that mix
        # band and sloped rows and in tiles whose every row is sloped; and in
        # spans of 1, 4 and 7 steps, where the span ends and the filled-in
        # spans must give the same booleans (at 7 the walk ends in a 1-step span)
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
        for span in (1, 4, 7):
            for subset in (np.arange(want.size), np.flatnonzero(su), np.flatnonzero(sl)):
                lines = [line[subset] for line in (u0, su, d0, sl)]
                k, w, _, stuck = hitting_times._first_crossings(
                    np.random.default_rng(3), pos[subset].copy(), lines, n, self.STEP, sd=0.0,
                    span=span)
                assert k.tolist() == want[subset].tolist()
                assert stuck.tolist() == np.flatnonzero(~crossed[subset].any(axis=1)).tolist()
                assert np.array_equal(w, pos[subset])

    def test_crossing_at_start(self):
        # rows that cross on the first column: together, and each alone
        rows = [(0.95, self.INF, 0.0, 0.5, 500.0), (-0.95, -0.5, -500.0, -self.INF, 0.0),
                (2.0, 0.0, 0.0, -self.INF, 0.0), (-2.0, self.INF, 0.0, 0.0, 0.0)]
        want, values, _ = self.reference(rows)
        assert want.tolist() == [0] * len(rows)
        got, w, sq, stuck = self.walk(rows)
        assert got.tolist() == want.tolist() and stuck.size == 0
        assert w.tolist() == values.tolist()
        assert sq == pytest.approx([r[0] ** 2 for r in rows], rel=1e-12)  # the start alone
        for row in rows:
            path, _, _ = self.brute(row)
            got, w, _, _ = self.walk([row])
            assert got.tolist() == [0] and w.tolist() == [path[0]]

    def test_no_crossing(self):
        # a row that never crosses survives the walk with its last value; the
        # crossing row beside it does not
        rows = [(0.0, 1e9, 0.0, -1e9, 0.0), self.ROWS["band"][0]]
        want, values, sums = self.reference(rows)
        assert want[0] == -1 and want[1] > 0
        got, w, sq, stuck = self.walk(rows)
        assert got.tolist() == want.tolist() and stuck.tolist() == [0]
        assert w.tolist() == values.tolist()
        assert sq == pytest.approx(sums, rel=1e-12)


class TestSpans:
    """The walk in spans of m grid steps (_first_crossings' span): its law is
    the grid walk's, and so are its stops, values and sums."""

    EPS, N = 1e-3, 4000
    INF = math.inf
    MIXED = [(1.0, 0.0, -1.5, 0.0), (INF, 0.0, 0.5, 2.0), (-0.3, -3.0, -INF, 0.0)]
    ROW = np.arange(N) % 3  # band, rising line and falling line rows in turn
    CASES = {  # (lines, starts): each row crosses at w >= u0 + su*t or w <= d0 + sl*t
        "band": ((2.0, 0.0, -2.0, 0.0), np.zeros(N)),
        "sloped": ((INF, 0.0, 0.5, 1.0), np.full(N, 1.0)),  # a line rising to the path
        "mixed": (tuple(np.array(MIXED).T[:, ROW]), np.array([0.0, 1.2, -1.0])[ROW]),
    }

    def walk(self, kind, span, seed):
        lines, start = self.CASES[kind]
        k, w, sq, stuck = hitting_times._first_crossings(
            np.random.default_rng(seed), start.copy(), lines, 10**7, self.EPS, span=span)
        assert stuck.size == 0
        u0, su = (np.broadcast_to(np.asarray(v, dtype=float), start.shape) for v in lines[:2])
        return k, w >= u0 + su * (k * self.EPS), sq

    @pytest.mark.parametrize("span", [4, 16])
    @pytest.mark.parametrize("kind", list(CASES))
    def test_law_is_the_grid_walks(self, kind, span):
        # a skipped span crosses with probability below 1e-15 and a filled-in
        # one is the grid walk's own bridge, so the stop steps, the side each
        # row stops on and the sums of squares follow the grid walk's law
        (k1, up1, sq1), (km, upm, sqm) = self.walk(kind, 1, 1), self.walk(kind, span, 2)
        assert stats.ks_2samp(k1, km).pvalue > 0.01
        for a, b in ((up1, upm), (sq1, sqm)):
            se = math.hypot(a.std(), b.std()) / math.sqrt(self.N)
            assert abs(a.mean() - b.mean()) <= 4.0 * se + 1e-12

    def test_sampler_law_is_the_grid_walks(self, monkeypatch):
        # sample_hit_times walks C3's (1, 1) at step 1e-3 in spans of 7 steps;
        # its times follow the law of the grid walk (the kernel at m = 1)
        spec, seen = DriftHitSpec(1, 1), []
        kernel = hitting_times._first_crossings

        def walk(*args, span=1, **kw):
            seen.append(span)
            return kernel(*args, span=span, **kw)

        monkeypatch.setattr(hitting_times, "_first_crossings", walk)
        spans = sample_hit_times(spec, self.EPS, self.N, rng_seed=1)
        monkeypatch.setattr(hitting_times, "_span", lambda half2, sd: 1)
        grid = sample_hit_times(spec, self.EPS, self.N, rng_seed=2)
        assert seen == [7, 1]
        assert stats.ks_2samp(spans, grid).pvalue > 0.01
        se = math.hypot(spans.std(), grid.std()) / math.sqrt(self.N)
        assert abs(spans.mean() - grid.mean()) <= 4.0 * se

    @pytest.mark.parametrize("stop", [BandStop(1, 1), SlopedStop(1, 2)], ids=["band", "sloped"])
    def test_oracle_law_is_the_grid_walks(self, monkeypatch, stop):
        # mse_integral_oracle walks C4's band and sloped stops at step 1e-3 in
        # spans of 7 steps, here in 32 blocks of 128 rows; its stop steps and
        # both sides of the identity follow the grid walk's law (the kernel at
        # m = 1), so each block's sums of squares are gathered right.  The
        # band's two sides also agree path by path, within 4 paired SEs (with
        # the skipped sum before a row's stopping span left out, z read -5.7);
        # the sloped stop's W_tau**4 is too heavy-tailed for its paired SE
        monkeypatch.setattr(hitting_times, "_FILL_ROWS", 128)
        seen, stops = [], []
        kernel = hitting_times._first_crossings

        def walk(*args, span=1, **kw):
            seen.append(span)
            out = kernel(*args, span=span, **kw)
            stops.append(out[0])
            return out

        monkeypatch.setattr(mse_model, "_first_crossings", walk)
        spans = mse_integral_oracle(stop, n_paths=self.N, step=self.EPS, seed=1)
        monkeypatch.setattr(mse_model, "_span", lambda half2, sd: 1)
        grid = mse_integral_oracle(stop, n_paths=self.N, step=self.EPS, seed=2)
        assert seen == [7, 1]
        assert stats.ks_2samp(*stops).pvalue > 0.01
        for side in ("lhs", "rhs"):
            a, b = (getattr(r, side) for r in (spans, grid))
            se = math.hypot(*(getattr(r, side + "_se") for r in (spans, grid)))
            assert abs(a - b) <= 4.0 * se, (side, a, b, se)
        if isinstance(stop, BandStop):
            assert abs(spans.diff) <= 4.0 * spans.diff_se

    def test_oracle_span_rule(self, monkeypatch):
        # C4's stops at step 1e-3: the gap 1 to the band's or the sloped
        # line's nearest point gives 7 steps, and a deterministic stop, with
        # no line, _MAX_SPAN
        seen = []
        kernel = hitting_times._first_crossings

        def walk(*args, span=1, **kw):
            seen.append(span)
            return kernel(*args, span=span, **kw)

        monkeypatch.setattr(mse_model, "_first_crossings", walk)
        for stop in (DeterministicStop(1.0), BandStop(1, 1), SlopedStop(1, 2)):
            mse_integral_oracle(stop, n_paths=2, step=self.EPS, seed=1)
        assert seen == [hitting_times._MAX_SPAN, 7, 7] == [64, 7, 7]

    def test_far_spans_draw_one_normal(self):
        # the +-2 band at step sd 0.032 is 63 step sds wide: the walk draws
        # one normal per 16-step span and fills in few spans
        counting = _CountingRng(np.random.default_rng(3))
        lines, start = self.CASES["band"]
        k, *_ = hitting_times._first_crossings(counting, start[:500].copy(), lines, 10**7,
                                               self.EPS, span=16)
        assert counting.drawn <= 0.2 * k.sum()

    def test_fixed_time_stop_sums_the_bridge_mean(self):
        # no line: every span is skipped.  700 steps are one chunk of 43 spans
        # of 16 steps and one of a 12-step span, one normal each, and no step
        # past 700; each span adds the mean of its grid points' squares given
        # its ends, sum_j (x0 + (x1 - x0)*j/m)**2 + sd**2*j*(m - j)/m over
        # j = 1..m, and the path's last point is not summed
        n, n_steps, sd = 2000, 700, math.sqrt(self.EPS)
        start = np.random.default_rng(4).normal(0.0, 1.0, n)
        counting = _CountingRng(np.random.default_rng(5))
        k, w, sq, stuck = hitting_times._first_crossings(
            counting, start.copy(), (self.INF, 0.0, -self.INF, 0.0), n_steps, self.EPS, span=16)
        assert counting.drawn == 44 * n and (k == n_steps).all() and stuck.size == n
        rng = np.random.default_rng(5)
        steps = np.hstack((rng.standard_normal((n, 43)) * (4 * sd),
                           rng.standard_normal((n, 1)) * (math.sqrt(12) * sd)))
        ends = np.cumsum(np.hstack((start[:, None], steps)), axis=1)
        np.testing.assert_allclose(w, ends[:, -1], rtol=1e-12)
        want = start**2 - ends[:, -1] ** 2
        for c, m in enumerate([16] * 43 + [12]):
            j = np.arange(1, m + 1)
            x0, x1 = ends[:, c, None], ends[:, c + 1, None]
            want += ((x0 + (x1 - x0) * j / m) ** 2 + sd * sd * j * (m - j) / m).sum(axis=1)
        np.testing.assert_allclose(sq, want, rtol=1e-11)

    @pytest.mark.parametrize("tile", [1, 64, 3000])
    @pytest.mark.parametrize("kind", list(TestKernel.WALKS))
    def test_tile_size_does_not_change_spans(self, monkeypatch, kind, tile):
        # at span 1 (the grid walk) and span 8: spans are filled in after every
        # row of a chunk drew its ends, in the rows' order, so tiles of any
        # size draw the same stream; squares=False walks the same paths and
        # skips only the sums; shared lines are compared as one row, and the
        # same values given per path walk the same paths with the same sums
        lines, n_steps = TestKernel.WALKS[kind]
        start = np.random.default_rng(4).normal(0.0, 0.1, 300)
        monkeypatch.setattr(hitting_times, "_PATH_BATCH", 128)  # 3 batches, the last partial
        default = hitting_times._TILE
        for span in (1, 8):
            def walk(given=lines, squares=True):
                return hitting_times._first_crossings(np.random.default_rng(9), start.copy(),
                                                      given, n_steps, 1e-3, squares=squares,
                                                      span=span)

            monkeypatch.setattr(hitting_times, "_TILE", default)
            want = walk()
            monkeypatch.setattr(hitting_times, "_TILE", tile)
            summed, bare = walk(), walk(squares=False)
            assert summed[2] is not None and bare[2] is None
            runs = [summed, bare]
            if all(np.ndim(v) == 0 for v in lines):
                runs.append(walk(tuple(np.full(start.size, v) for v in lines)))
            for got in runs:
                for i in (0, 1, 3):  # k, w, stuck
                    np.testing.assert_array_equal(got[i], want[i])
            for got in runs[::2]:  # the walks with sums: summed and per-path
                np.testing.assert_array_equal(got[2], want[2])
            if kind != "none":
                assert (want[0] < n_steps).any()

    # SHA-256 of (k, w, sq, stuck) of each of TestKernel's walks at span 8,
    # with the starts and seed of the test above and one path batch: a change
    # to the span walk's stream, stops or sums shows here.  The 700-step
    # "none" walk ends in a shortened 4-step span.
    GOLDEN = {
        "band": "9613c95ff1c39d24201675c24252764d4ccb3a95ea2d42e33c1fae71caed4f66",
        "sloped": "e96a60eb4dab7e8d46c7205812ca21da8483119907095e975d0651be87d4fe26",
        "mixed": "588758fa0749c71d0620b7770b3e847eec044e3d1a11ca1abec8738be4ab7079",
        "none": "c402f70e9559820465b8cd2c00f37fc5bd35ed33aa52e09f723ea46b001845e1",
    }

    @pytest.mark.parametrize("kind", list(GOLDEN))
    def test_golden_span_walks(self, kind):
        lines, n_steps = TestKernel.WALKS[kind]
        start = np.random.default_rng(4).normal(0.0, 0.1, 300)
        out = hitting_times._first_crossings(np.random.default_rng(9), start, lines, n_steps,
                                             1e-3, span=8)
        h = hashlib.sha256()
        for a in out:
            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest() == self.GOLDEN[kind]

    def test_zero_paths_draw_nothing(self):
        rng = np.random.default_rng(9)
        k, w, sq, stuck = hitting_times._first_crossings(
            rng, np.zeros(0), (0.6, 0.0, -0.6, 0.0), 100, 1e-3, span=8)
        assert k.shape == w.shape == sq.shape == stuck.shape == (0,)
        assert rng.bit_generator.state == np.random.default_rng(9).bit_generator.state


class TestSkipPredicate:
    """hitting_times._skips: a span is skipped when its bridge bound, summed
    over its lines, is below 1e-15 and every gap is positive."""

    VAR = 1e-2
    INF = math.inf

    def skips(self, *pairs):
        """Whether one span with end gaps (g0, g1) to each line is skipped."""
        return bool(hitting_times._skips([np.array([g], dtype=float) for g in pairs],
                                         self.VAR)[0])

    def boundary(self):
        """The least product g0*g1 whose bound exp(-2*g0*g1/var) is below
        1e-15, and the product before it, whose bound is at or above it."""
        q = -0.5 * self.VAR * math.log(1e-15)
        while math.exp(-2.0 * q / self.VAR) < 1e-15:
            q = math.nextafter(q, 0.0)
        while math.exp(-2.0 * q / self.VAR) >= 1e-15:
            q = math.nextafter(q, math.inf)
        return q, math.nextafter(q, 0.0)

    def test_far_spans_are_skipped(self):
        assert self.skips((1.0, 1.0), (2.0, 0.9))

    @pytest.mark.parametrize("g0,g1", [(1.0, 0.0), (1.0, -0.5), (0.0, 1.0), (-1.0, -1.0),
                                       (1.0, -0.0), (math.nan, 1.0)])
    def test_gap_at_or_past_a_line_is_refused(self, g0, g1):
        # a span that ends on or past a line is walked, whatever the other line
        assert not self.skips((g0, g1), (self.INF, self.INF))
        assert not self.skips((self.INF, self.INF), (g0, g1))

    def test_bound_at_the_tolerance_is_refused(self):
        below, at = self.boundary()
        assert math.exp(-2.0 * at / self.VAR) >= 1e-15 > math.exp(-2.0 * below / self.VAR)
        assert self.skips((1.0, below), (self.INF, self.INF))
        assert not self.skips((1.0, at), (self.INF, self.INF))
        assert not self.skips((at, 1.0))

    def test_bounds_are_summed_over_the_lines(self):
        # two lines each bounded at 0.6e-15 sum to 1.2e-15: refused; at 0.4e-15
        # each, 0.8e-15: skipped; at 0.3e-15 and 0.6e-15, 0.9e-15: skipped,
        # whichever line comes first
        q = {b: -0.5 * self.VAR * math.log(b) for b in (0.3e-15, 0.4e-15, 0.6e-15)}
        assert not self.skips((1.0, q[0.6e-15]), (q[0.6e-15], 1.0))
        assert self.skips((1.0, q[0.4e-15]), (q[0.4e-15], 1.0))
        assert self.skips((1.0, q[0.3e-15]), (q[0.6e-15], 1.0))
        assert self.skips((q[0.6e-15], 1.0), (1.0, q[0.3e-15]))

    def test_infinite_lines_are_skipped(self):
        assert self.skips((self.INF, self.INF), (self.INF, self.INF))
        assert self.skips((self.INF, self.INF))
        assert bool(hitting_times._skips([], self.VAR))  # no line at all


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
    at its step j wastes s - j normals.  A walk in spans draws far fewer."""

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
        (lambda: mse_integral_oracle(SlopedStop(1, 2), n_paths=2000, step=1e-3, seed=1), 0.45),
        (lambda: mse_integral_oracle(BandStop(1, 1), n_paths=2000, step=1e-3, seed=1), 0.45),
        (lambda: mse_integral_oracle(DeterministicStop(1.0), n_paths=2000, step=1e-3, seed=1),
         0.05),
        (lambda: run(SimConfig(1e-2, 1e5, ThresholdConfig(1.0, 1.0, 10.0),
                               Codebook.uniform(2, mode="integer-prefix"), seed=7)), 1.3),
        (lambda: sample_hit_times(DriftHitSpec(1, 1), 1e-4, 1600, rng_seed=1), 0.2),
    ], ids=["sloped", "band", "deterministic", "readme-simulate", "hit-spans"])
    def test_drawn_over_used(self, counted, call, bound):
        # fixed chunks (1024 steps for the oracle, 100 for this simulation,
        # longer for stragglers) drew 2.18, 1.52 and 1.64 times the steps used;
        # the hit sampler's spans of 25 steps draw 0.093 (1.03 at m = 1), and
        # the oracle's spans of 7 steps 0.37 (sloped) and 0.31 (band) and of
        # 64 steps 0.016 (deterministic), against 1.09, 1.06 and 1 at m = 1
        call()
        assert counted["used"] > 0
        assert counted["drawn"] / counted["used"] <= bound, counted

    def test_c9_config_draws(self, counted):
        # perfbench's C9 run (codebook (1, 3, 4, 5), a = b = 1, mu = 10,
        # eps = 1e-3, horizon 6e4, seed 5): the grid walk drew 2.40e7 normals
        # for 2.19e7 steps; its bands, 32 to 71 step sds wide, walk in spans
        run(SimConfig(1e-3, 6e4, ThresholdConfig(1.0, 1.0, 10.0), Codebook.integer(1, 3, 4, 5),
                      seed=5, replications=1))
        assert counted["used"] > 2e7
        assert counted["drawn"] <= 0.35 * 2.40e7, counted


class TestBitGenerator:
    """The hit sampler and the stopping-identity oracle draw from PCG64, the
    streams their acceptance checks were judged on; the simulator draws from
    SFC64, whose normals are cheaper."""

    @pytest.mark.parametrize("call,want", [
        (lambda: sample_hit_times(DriftHitSpec(1, 2), 1e-3, 50, rng_seed=3), np.random.PCG64),
        (lambda: mse_integral_oracle(BandStop(1, 1), n_paths=100, step=1e-2, seed=1),
         np.random.PCG64),
        (lambda: run(SimConfig(1e-2, 600.0, ThresholdConfig(1.0, 1.0, 10.0),
                               Codebook.integer(1, 3, 4, 5), seed=3, replications=2)),
         np.random.SFC64),
        (lambda: run_benchmark(SimConfig(1e-2, 300.0, ThresholdConfig(1.0, 1.0, 10.0), None,
                                         seed=3, scheme="ideal-benchmark")), np.random.SFC64),
        (lambda: run_benchmark(SimConfig(1e-2, 300.0, ThresholdConfig(1.0, 1.0, 10.0), None,
                                         seed=3, scheme="uniform-benchmark")), np.random.SFC64),
    ], ids=["sample_hit_times", "mse_integral_oracle", "run", "run_benchmark-ideal",
            "run_benchmark-uniform"])
    def test_walks_draw_from(self, monkeypatch, call, want):
        seen = set()
        kernel = hitting_times._first_crossings

        def walk(rng, *args, **kw):
            seen.add(type(rng.bit_generator))
            return kernel(rng, *args, **kw)

        for module in (hitting_times, mse_model, simulator):
            monkeypatch.setattr(module, "_first_crossings", walk)
        call()
        assert seen == {want}


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
