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
It walks B(t) against the falling line c - mu*t and detects the first grid
index at or beyond it, which carries the usual O(sqrt(step)) threshold bias;
oracle tests budget for it.
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

# Every batched walk (this sampler, mse_model's stopping-identity oracle and
# the simulator's waiting phases) runs through _first_crossings: its paths in
# batches of _PATH_BATCH, each batch in chunks of grid steps over the paths
# still alive, and each chunk in row tiles of about _TILE doubles (256 KiB)
# drawn into one reused buffer, so drawing, summing, the crossing test and, for
# callers that read them, the left sums of squares all run while the tile is in
# cache.  Peak memory is a few tiles plus O(n_paths) per-path state.  Row tiles
# drawn in order consume the generator's stream exactly as one (alive paths x
# chunk) draw would, so the tile size never changes a result.  The fixed batch
# size (a simulator generation is one batch) and the chunk lengths (_next_chunk,
# in integers) fix the stream's order on any platform.
_PATH_BATCH = 20_000
_TILE = 1 << 15
_FIRST_CHUNK, _MAX_CHUNK = 16, 1 << 15  # chunk lengths, in grid steps
_CHUNK_COST, _ROW_COST = 2048, 4  # fixed costs of a chunk and of a row in it, in draws


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


def _next_chunk(s: int, before: int, after: int) -> int:
    """Steps in the chunk after one of s that left `after` > 0 of `before` paths alive:
    2*s if none crossed, else sqrt(2*(_CHUNK_COST/after + _ROW_COST)/h) for the hazard
    h = (before - after)/(before*s), which trades the h*s/2 draws wasted past a crossing
    per step against the fixed costs per step, capped at 2*s and _MAX_CHUNK."""
    if after == before:
        return min(2 * s, _MAX_CHUNK)
    n = math.isqrt(2 * (_CHUNK_COST + _ROW_COST * after) * before * s // (after * (before - after)))
    return min(n, 2 * s, _MAX_CHUNK)


def _first_crossings(rng, pos, lines, n_steps, step, sd=None, squares=True):
    """Walk len(pos) grid paths from pos until each first crosses one of its lines.

    Each grid step adds sd*Z, Z standard normal from rng and sd sqrt(step)
    unless given; batches of _PATH_BATCH paths and row tiles as described at
    _TILE, and chunks of _FIRST_CHUNK steps and then _next_chunk's (_MAX_CHUNK
    if no path can cross).  lines = (u0, su, d0, sl), all scalars (shared by
    every path) or all per-path float arrays: a path crosses at the first grid
    point where w >= u0 + su*t or w <= d0 + sl*t, t the time since the start.
    A line of slope 0 is compared as its level, which equals u0 + 0*t exactly,
    so a band path costs two comparisons, only the paths of a sloped line
    evaluate it, and a side no path can cross is not tested.

    Returns (k, w, sq, stuck): each path's stop step (its first crossing, or
    n_steps), its value there, its sum of squares at the grid points before
    that step (the start included; None unless squares), and the indices of
    the paths that never crossed.  w is pos, set in place.  squares=False
    walks the same paths and skips only the sums.  Zero paths return empty
    arrays at once, before any line or buffer is built or any draw made.
    """
    n = pos.size
    k = np.full(n, n_steps, dtype=np.int64)
    sq = pos * pos if squares else None
    if not n:  # no paths: no lines, buffers or draws
        return k, pos, sq, np.arange(0)
    # shared lines are held as one row, which every tile is compared with
    shared = all(np.ndim(v) == 0 for v in lines)
    u0, su, d0, sl = (np.asarray(v, dtype=float).reshape(-1) for v in lines)
    row0 = np.zeros(1, dtype=np.intp)  # the row of shared lines
    ge, le = np.greater_equal, np.less_equal
    # the sides that can be crossed: levels of lines of slope 0, and sloped
    # lines with the mask of their paths (None: every path, for shared lines)
    levels = [(v, cross) for v, cross in ((np.where(su == 0.0, u0, np.inf), ge),
                                          (np.where(sl == 0.0, d0, -np.inf), le))
              if np.isfinite(v).any()]
    sloped = [(slope, v, cross, None if shared else slope != 0.0)
              for slope, v, cross in ((su, u0, ge), (sl, d0, le)) if slope.any()]
    scale = math.sqrt(step) if sd is None else sd
    size = max(_TILE, _MAX_CHUNK)  # holds any row tile
    # two allocations, not four: the allocator maps each large one afresh per call
    (buf, spare), (above, below) = (np.empty((2, size), dtype=d) for d in (float, bool))
    stuck = []
    for start in range(0, n, _PATH_BATCH):
        alive = np.arange(start, min(start + _PATH_BATCH, n))
        elapsed, s = 0, _FIRST_CHUNK if levels or sloped else _MAX_CHUNK
        while alive.size and elapsed < n_steps:
            s = min(s, n_steps - elapsed)
            cols = np.arange(s)
            t = (elapsed + 1 + cols) * step
            rows = max(1, _TILE // s)
            live = np.empty(alive.size, dtype=bool)
            tile_rows = np.arange(min(rows, alive.size))
            for r0 in range(0, alive.size, rows):
                idx = alive[r0 : r0 + rows]
                w, line, up, dn = (b[: idx.size * s].reshape(idx.size, s)
                                   for b in (buf, spare, above, below))
                rng.standard_normal(out=w)
                w *= scale
                w[:, 0] += pos[idx]  # each row's start, summed in order with its steps
                np.add.accumulate(w, axis=1, out=w)  # cumsum's values, less call overhead
                at = row0 if shared else idx
                # the first level writes up; every later side is or'ed into it
                for later, (level, cross) in enumerate(levels):
                    cross(w, level[at, None], out=dn if later else up)
                    if later:
                        up |= dn
                if not levels:
                    up.fill(False)
                for slope, level, cross, mask in sloped:
                    sel, i, c = slice(None), at, dn
                    if mask is not None:
                        on = mask[idx].nonzero()[0]
                        if not on.size:
                            continue
                        if on.size < idx.size:  # a tile whose every row is sloped is not copied
                            sel, i, c = on, idx[on], dn[: on.size]
                    v = line[: i.size]
                    np.multiply(slope[i, None], t, out=v)
                    v += level[i, None]
                    cross(w[sel], v, out=c)
                    up[sel] |= c
                j = up.argmax(axis=1)  # a row's first crossing, or 0 if none
                hit = up[tile_rows[: idx.size], j]
                if squares:
                    sq[idx] += np.einsum("ij,ij->i", w, w)
                pos[idx] = w[:, -1]  # each row's last value; a crossing row's is set below
                on = hit.nonzero()[0]
                if on.size:
                    jr, i = j[on], idx[on]
                    if squares:
                        # take back the crossing's column and the ones after it, in
                        # reused buffers (take buffers a fresh copy unless mode="clip")
                        tail, head = line[: on.size], dn[: on.size]
                        w.take(on, axis=0, out=tail, mode="clip")
                        np.less(cols, jr[:, None], out=head)
                        np.copyto(tail, 0.0, where=head)
                        sq[i] -= np.einsum("ij,ij->i", tail, tail)
                    k[i] = elapsed + 1 + jr
                    pos[i] = w[on, jr]
                np.logical_not(hit, out=live[r0 : r0 + rows])
            before, alive = alive.size, alive[live]
            elapsed += s
            s = _next_chunk(s, before, alive.size) if alive.size else s
        if squares:
            sq[alive] -= pos[alive] ** 2  # a path that never crossed stops at its last point
        stuck.append(alive)
    return k, pos, sq, np.concatenate(stuck)


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
    k, _, _, stuck = _first_crossings(np.random.default_rng(rng_seed), np.zeros(n_paths),
                                      (spec.c, -spec.mu, -np.inf, 0.0), n_steps, step,
                                      squares=False)
    if stuck.size:
        raise HorizonError(
            f"{stuck.size} path(s) exceeded the horizon cap {horizon} "
            f"(c={spec.c}, mu={spec.mu}, step={step})"
        )
    return k * step
