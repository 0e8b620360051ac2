"""Hitting times of drifted Brownian motion and their grid Monte Carlo sampler.

For mu*t + B(t) rooted at zero and a level c > 0, the hitting time tau_c has
Laplace transform

    Psi(lambda) = exp(-c*(sqrt(mu^2 + 2*lambda) - mu))

and moments

    E[tau_c]   = c/mu
    E[tau_c^2] = c^2/mu^2 + c/mu^3
    E[tau_c^3] = c^3/mu^3 + 3c^2/mu^4 + 3c/mu^5
    E[tau_c^4] = c^4/mu^4 + 6c^3/mu^5 + 15c^2/mu^6 + 15c/mu^7

A grid Monte Carlo sampler is included as the test oracle for these moments.
It detects the first grid index at or beyond the level, which carries the
usual O(sqrt(step)) threshold bias; oracle tests budget for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HorizonError, ParameterError
from .gauss_stats import _finite_real, _integer, _positive_fields

__all__ = [
    "DriftHitSpec",
    "hit_moments",
    "sample_hit_times",
]

# Batched walks (this sampler, mse_model's stopping-identity oracle and the
# simulator's waiting phases) run their paths in batches, each batch in
# chunks of grid steps over the paths still alive, and each chunk in row
# tiles of about _TILE doubles (256 KiB) drawn into one reused buffer, so
# drawing, summing, crossing detection and the caller's accumulation all run
# while the tile is in cache.  Peak memory is a few tiles plus O(n_paths)
# per-path state.  Row tiles drawn in order consume the generator's stream
# exactly as one (alive paths x chunk) draw would, so the tile size never
# changes a result.  The batch and chunk sizes do (they fix the order in
# which the stream is consumed), so they are part of what a seed means.
_PATH_BATCH = 20_000
_STEP_CHUNK = 512
_TILE = 1 << 15


@dataclass(frozen=True)
class DriftHitSpec:
    """Threshold level c > 0 and drift mu > 0 for the hitting problem."""

    c: float
    mu: float

    def __post_init__(self) -> None:
        _positive_fields(self, "c", "mu")


def hit_moments(spec: DriftHitSpec) -> tuple[float, float, float, float]:
    """First four moments of tau_c; ParameterError when one overflows.

    A term k*c**i/mu**j whose powers leave the double range is formed on the
    frexp mantissas of c and mu instead; a term that underflows counts as 0.
    """
    c, mu = spec.c, spec.mu
    (cm, ce), (mm, me) = math.frexp(c), math.frexp(mu)

    def t(k: int, i: int, j: int) -> float:
        try:
            return k * c**i / mu**j
        except (OverflowError, ZeroDivisionError):
            try:
                return math.ldexp(k * cm**i / mm**j, i * ce - j * me)
            except OverflowError:
                return math.inf

    m1 = c / mu
    m2 = t(1, 2, 2) + t(1, 1, 3)
    m3 = t(1, 3, 3) + t(3, 2, 4) + t(3, 1, 5)
    m4 = t(1, 4, 4) + t(6, 3, 5) + t(15, 2, 6) + t(15, 1, 7)
    if math.isinf(max(m1, m2, m3, m4)):
        raise ParameterError(f"hitting-time moments overflow at c={c}, mu={mu}")
    return (m1, m2, m3, m4)


def _check_walk(n_paths: int, step: float, horizon: float) -> int:
    """Validate a batched walk's size; return its grid steps up to horizon."""
    _integer("n_paths", n_paths, 1)
    for name, v in (("step", step), ("horizon", horizon)):
        if _finite_real(name, v) <= 0:
            raise ParameterError(f"{name} must be > 0, got {v}")
    if horizon / step >= 2.0**53:
        # grid times are computed in floats; beyond 2**53 steps they are inexact
        raise ParameterError(f"horizon / step = {horizon / step:g} grid steps; need < 2**53")
    return math.ceil(horizon / step)


def _tile_buffer(chunk: int) -> np.ndarray:
    """An uninitialized buffer that holds any row tile of a chunk of `chunk` steps."""
    return np.empty(max(_TILE, chunk))


def _first_crossings(rng, pos, n_steps, batch, chunk, step, drift, crossed, visit, sd=None,
                     fill=0):
    """Walk len(pos) grid paths from pos until each first crosses its boundary.

    Each grid step adds sd*Z + drift, Z standard normal from rng and sd
    sqrt(step) unless given; batches, chunks and row tiles as described at
    _TILE.  A chunk spans `chunk` steps, or fill // (paths alive) when that
    is more, so that a few stragglers walk in long chunks.  ``crossed(w, idx,
    t)`` maps a tile w (rows = paths idx, columns = grid points at times t
    since the start) to a bool array, or is None for no boundary.
    ``visit(w, idx, hit, j, t)`` then sees the tile before the buffer is
    reused: hit marks rows that crossed and j their first crossing column.
    pos is set in place to each surviving path's last value.  Returns the
    indices of the paths still alive after n_steps.
    """
    n = pos.size
    scale = math.sqrt(step) if sd is None else sd
    buf = _tile_buffer(max(chunk, fill))
    stuck = []
    for start in range(0, n, batch):
        alive = np.arange(start, min(start + batch, n))
        elapsed = 0
        while alive.size and elapsed < n_steps:
            s = min(max(chunk, fill // alive.size), n_steps - elapsed)
            t = (elapsed + 1 + np.arange(s)) * step
            rows = max(1, _TILE // s)
            live = np.empty(alive.size, dtype=bool)
            for r0 in range(0, alive.size, rows):
                idx = alive[r0 : r0 + rows]
                w = buf[: idx.size * s].reshape(idx.size, s)
                rng.standard_normal(out=w)
                w *= scale
                if drift:
                    w += drift
                np.cumsum(w, axis=1, out=w)
                w += pos[idx, None]
                if crossed is None:
                    hit, j = np.zeros(idx.size, dtype=bool), None
                else:
                    c = crossed(w, idx, t)
                    j = c.argmax(axis=1)  # a row's first crossing, or 0 if none
                    hit = c[np.arange(idx.size), j]
                visit(w, idx, hit, j, t)
                left = ~hit
                pos[idx[left]] = w[left, -1]
                live[r0 : r0 + rows] = left
            alive = alive[live]
            elapsed += s
        stuck.append(alive)
    return np.concatenate(stuck)


def sample_hit_times(
    spec: DriftHitSpec,
    step: float,
    n_paths: int,
    rng_seed: int,
    horizon: float | None = None,
) -> np.ndarray:
    """Simulate n_paths of mu*t + B(t) on a grid; return first grid times >= c.

    Deterministic given rng_seed.  Paths still alive at the horizon
    (default 1e6/mu) raise HorizonError: truncation is loud, never silent.
    A step or horizon that is not finite and > 0, an n_paths that is not
    an integer >= 1, or an rng_seed that is not an integer >= 0 raises
    ParameterError.
    """
    _integer("rng_seed", rng_seed, 0)
    if horizon is None:
        horizon = 1e6 / spec.mu
    n_steps = _check_walk(n_paths, step, horizon)
    times = np.full(n_paths, np.nan)

    def record(w, idx, hit, j, t):
        times[idx[hit]] = t[j[hit]]

    stuck = _first_crossings(
        np.random.default_rng(rng_seed), np.zeros(n_paths), n_steps, _PATH_BATCH, _STEP_CHUNK,
        step, spec.mu * step, lambda w, idx, t: w >= spec.c, record,
    )
    if stuck.size:
        raise HorizonError(
            f"{stuck.size} path(s) exceeded the horizon cap {horizon} "
            f"(c={spec.c}, mu={spec.mu}, step={step})"
        )
    return times
