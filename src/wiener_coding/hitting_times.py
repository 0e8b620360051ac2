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

The walk kernel, _first_crossings, walks a path m grid steps at a time: one
normal per span gives the path at the span ends, a span whose Brownian
bridge reaches no line with probability 1e-15 or more (summed over its
lines) is not walked, and every other span is filled in with the grid
walk's own bridge, so the stops keep the grid walk's law.  At m = 1 the
span ends are the grid points and the walk is the plain grid walk.  One
rule, _span, picks m from the gap between the path and its nearest line at
the start and the step: the simulator applies it to each waiting phase's
band rows, this sampler to the gap c at t = 0 (spans of 25 steps at c = 1
and step 1e-4, drawing about a tenth of a normal per grid step), and
mse_model's stopping-identity oracle to the gap from 0 to its nearest line
(spans of 7 steps for its band and sloped stops at step 1e-3, and of
_MAX_SPAN for a deterministic stop, whose spans are all skipped).
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
# in integers) fix the stream's order on any platform.  Each tile draws its
# rows' span ends (the grid points at span 1); at span m > 1 it queues the
# spans it must fill in, and once every row of a block of _FILL_ROWS rows has
# drawn its ends, the block's queue is filled _TILE // m spans at a time in
# the rows' order, so there too the tile size changes nothing; the queue adds
# a few numbers per queued span of at most _FILL_ROWS rows.  The blocks split
# no simulator call, which has at most simulator._MAX_CHAINS = _FILL_ROWS
# rows, and change no draw at span 1, where nothing is queued.  A span tile's
# bookkeeping (its path with the start, gaps, products, masks and bridge
# means) and the queue live in buffers made at their first use in a call, and
# again only when a later tile needs more, and every tile reuses them, as it
# reuses the draws' buffer: no tile allocates a tile-sized array.
_PATH_BATCH = 20_000
_FILL_ROWS = 4096
_TILE = 1 << 15
_FIRST_CHUNK, _MAX_CHUNK = 16, 1 << 15  # chunk lengths, in spans (grid steps at span 1)
_CHUNK_COST, _ROW_COST = 2048, 4  # fixed costs of a chunk and of a row in it, in draws
_SKIP_TOL = 1e-15  # the most a skipped span's bridge may cross its lines with
# the span rule (_span): steps near a line per step of span, and the least and
# most steps per span
_SPAN_NEAR, _MIN_SPAN, _MAX_SPAN = 16.0, 6, 64


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
    """Spans (grid steps at span 1) in the chunk after one of s that left
    `after` > 0 of `before` paths alive:
    2*s if none crossed, else sqrt(2*(_CHUNK_COST/after + _ROW_COST)/h) for the hazard
    h = (before - after)/(before*s), which trades the h*s/2 draws wasted past a crossing
    per span against the fixed costs per span, capped at 2*s and _MAX_CHUNK."""
    if after == before:
        return min(2 * s, _MAX_CHUNK)
    n = math.isqrt(2 * (_CHUNK_COST + _ROW_COST * after) * before * s // (after * (before - after)))
    return min(n, 2 * s, _MAX_CHUNK)


def _span(half2: np.ndarray, sd: float) -> int:
    """Grid steps per span for a walk whose rows start at squared gaps half2
    from their nearest line (a band row's squared half-width), at step sd.

    A row z step sds from its line waits about z**2 steps, of which about
    _SPAN_NEAR*m lie near enough to the line to be filled in; drawing one
    normal per span for the rest, the walk costs about z**2/m + _SPAN_NEAR*m
    per row, least at m = sqrt(mean(z**2)/_SPAN_NEAR).  Below _MIN_SPAN the
    spans' own work outweighs the draws they save, so the walk keeps m = 1,
    as it does at sd = 0, where there is nothing to span.  A mean past the
    double range is inf, and gives _MAX_SPAN.
    """
    if not half2.size or not sd:
        return 1
    with np.errstate(over="ignore"):
        m = math.sqrt(float(half2.mean()) / _SPAN_NEAR) / sd
    return int(min(m, _MAX_SPAN)) if m >= _MIN_SPAN else 1


def _bridge_squares(x, d, n, step, sigma2, out=None, tmp=None):
    """Mean of step * sum_{i<n} B_i**2 over a discrete Brownian bridge of n
    steps of variance sigma2*step each, from B_0 = x to B_n = x + d, given
    both ends: span*(x^2 + x*d*r + d^2*r*(1 + r)/6) + sigma2*(span^2 - step^2)/6
    with span = n*step and r = 1 - 1/n (Glasserman 2004, Monte Carlo Methods
    in Financial Engineering, 3.1).  Read backwards (x the far end, d the
    step back) it is the sum over B_1..B_n.  Written into out, with tmp for
    the terms (fresh arrays unless given), in the formula's order."""
    span = n * step
    r = 1.0 - 1.0 / n
    out = np.multiply(x, x, out=out)
    tmp = np.multiply(x, d, out=tmp)
    tmp *= r
    out += tmp
    np.multiply(d, d, out=tmp)
    tmp *= r * (1.0 + r) / 6.0
    out += tmp
    out *= span
    out += sigma2 * (span * span - step * step) / 6.0
    return out


def _lined(shape, dtype=float):
    """An empty array of shape whose data starts on a 64-byte cache line.  A
    large block from the allocator starts 16 bytes past one, where numpy's
    vector loops split their loads: a product of two 7,000-double arrays
    took 2.3 us on lines and 5-6 us off them (x86-64 with AVX-512)."""
    n = math.prod(shape) * np.dtype(dtype).itemsize
    raw = np.empty(n + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + n].view(dtype).reshape(shape)


def _fresh(name, shape, dtype=float):
    """A new array of shape: the scratch of a caller that keeps no buffers."""
    return np.empty(shape, dtype=dtype)


def _skips(gaps, var, scratch=_fresh):
    """Which spans a walk observed at their ends may skip, for the lines of
    `gaps`: one array per line of its gaps (the distance from the path to the
    line, > 0 on the path's side) at a row's span ends, n + 1 of them on the
    last axis for n spans; each is clipped at 0 in place.  A Brownian bridge
    of variance var over a span whose end gaps to a straight line are
    g0, g1 > 0 crosses it in between with probability exp(-2*g0*g1/var)
    (Glasserman 2004, 6.4); a span is skipped when that bound, summed over
    the lines, is below _SKIP_TOL.  A gap <= 0 (or NaN) at either end bounds
    nothing, and an infinite line's gap bounds 0.  The exponentials are taken
    only for spans whose nearest line alone does not decide the sum.  Its
    span-sized arrays come from scratch(name, shape, dtype): each line's
    products ("q", i), their least ("least", with two lines or more) and
    the masks "near" and "skip", which is returned."""
    # q = g0*g1 of each line, and the least of them: a span whose least q
    # alone bounds the sum at or above the tolerance, or all of them below
    # it, needs no exponential
    cut = -0.5 * var * math.log(_SKIP_TOL)
    # (a NaN gap stays NaN and fails every test below; a product past the
    # double range is inf, and its span is skipped)
    with np.errstate(over="ignore"):
        q = [np.multiply(np.maximum(g, 0.0, out=g)[..., :-1], g[..., 1:],
                         out=scratch(("q", i), g[..., 1:].shape)) for i, g in enumerate(gaps)]
    if not q:  # no line: nothing to cross
        return np.True_
    least = q[0]
    for v in q[1:]:
        least = np.minimum(least, v, out=scratch("least", v.shape))
    # 1e-9 margins keep the exponentials' rounding off the decided spans
    skip = np.greater(least, (cut + 0.5 * var * math.log(len(q))) * (1.0 + 1e-9),
                      out=scratch("skip", least.shape, bool))
    near = np.greater(least, cut * (1.0 - 1e-9), out=scratch("near", least.shape, bool))
    near ^= skip
    if near.any():
        bound = sum(np.exp(v[near] * (-2.0 / var)) for v in q)
        skip[near] = bound < _SKIP_TOL
    return skip


def _runs(r):
    """The mask of each run's first entry in the sorted array r."""
    first = np.empty(r.size, dtype=bool)
    first[:1] = True
    np.not_equal(r[1:], r[:-1], out=first[1:])
    return first


def _first_crossings(rng, pos, lines, n_steps, step, sd=None, squares=True, span=1):
    """Walk len(pos) grid paths from pos until each first crosses one of its lines.

    Each grid step adds sd*Z, Z standard normal from rng and sd sqrt(step)
    unless given; batches of _PATH_BATCH paths and row tiles as described at
    _TILE, and chunks of _FIRST_CHUNK spans and then _next_chunk's (_MAX_CHUNK
    if no path can cross).  lines = (u0, su, d0, sl), all scalars (shared by
    every path) or all per-path float arrays: a path crosses at the first grid
    point where w >= u0 + su*t or w <= d0 + sl*t, t the time since the start.
    A line of slope 0 is compared as its level, which equals u0 + 0*t exactly,
    so a band path costs two comparisons, only the paths of a sloped line
    evaluate it, and a side no path can cross is not tested.

    Each row walks span = m grid steps at a time (a chunk's last spans are
    shortened to fit, so no step past n_steps is walked).  One normal of
    sd*sqrt(m) per span gives the path at the span ends, which are tested as
    grid points; a row that crosses at an end stops there, unless the walk
    in between crosses first.  At m = 1 the ends are the grid points, so
    this is the plain grid walk, and a row's sum of squares is its ends'.
    At m > 1 a span whose Brownian bridge cannot reach a line (_skips: a
    bound below _SKIP_TOL per span) is not walked; its grid points add their
    mean sum of squares given its ends (_bridge_squares) and no crossing.
    Every other span up to the row's first crossing end is filled in with
    the grid walk's own bridge given its ends, once every row of the
    chunk's block of _FILL_ROWS rows has drawn its ends (the ends test's
    sloped line values serve _skips' gaps too): m normals of sd, S_j their
    cumsum,
    B_j = x0 + S_j - (j/m)*(S_m - (x1 - x0)), B_m = x1, tested with the
    ends' test.  A row stops at the first grid crossing in its first
    filled-in span that has one, and its sum of squares is summed directly
    up to there.

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
    sloped = [(slope, v, cross, None if shared else slope != 0.0, upper)
              for slope, v, cross, upper in ((su, u0, ge, True), (sl, d0, le, False))
              if slope.any()]
    # a span's bridge is bounded against the lines of each side with one:
    # (level, slope, upper side)
    bounded = [(v, slope, upper) for v, slope, upper in ((u0, su, True), (d0, sl, False))
               if span > 1 and np.isfinite(v).any()]
    scale = math.sqrt(step) if sd is None else sd
    size = max(_TILE, _MAX_CHUNK)  # holds any row tile
    # two allocations, not four: the allocator maps each large one afresh per call
    (buf, spare), (above, below) = (_lined((2, size), d) for d in (float, bool))
    pool = {}  # the span tiles' own buffers, by name
    # _skips' products and their least, spent once it returns: the bridge means'
    # steps back, means and terms, and fill_in's temporaries reuse them
    spent = (("q", 0), ("q", 1), "least")

    def scratch(name, shape, dtype=float):
        """A view of shape on the call's buffer `name`, made at its first use
        and made again only for a larger shape, so that a span tile's
        bookkeeping allocates no tile-sized array.  (Made at its shape, not at
        a full tile: the simulator's many small calls then touch less memory.)"""
        need = math.prod(shape)
        b = pool.get(name)
        if b is None or b.size < need:
            b = pool[name] = _lined((need,), dtype)
        return b[:need].reshape(shape)

    def queue(n0, n):
        """The fill queue's columns at [n0, n0 + n): each queued span's index
        in its block (row * spans + span), its start and end values and the
        skipped spans' mean sum before it.  Full columns are made again at
        twice the length they need, keeping their first n0 entries."""
        cols = pool.get("queue")
        if cols is None or cols[0].size < n0 + n:
            grown = [np.empty(2 * (n0 + n), dtype=d) for d in (np.intp, float, float, float)]
            for new, old in zip(grown, cols or ()):
                new[:n0] = old[:n0]
            cols = pool["queue"] = grown
        return [c[n0 : n0 + n] for c in cols]

    def lines_at(slope, level, i, t, out):
        """The sloped line of rows i at times t (a row, or one row per row)."""
        np.multiply(slope[i, None], t, out=out)
        out += level[i, None]
        return out

    def crossed(w, at, idx, t, seen=None):
        """up[r, c]: w[r, c] is on or past a line of row at[r] (idx[r] for a
        sloped row's mask) at time t[c], or at t(rows)[r, c] when t maps the
        rows whose lines are sloped to their times; a view of `above`.  A
        dict `seen` receives, for each upper (True) or lower sloped side that
        some row tests, (sel, i, own): the rows of w that test it, their line
        rows and a scratch array whose columns 1: hold the line there at t."""
        up, dn, line = (b[: w.size].reshape(w.shape) for b in (above, below, spare))
        # the first level writes up; every later side is or'ed into it
        for later, (level, cross) in enumerate(levels):
            cross(w, level[at, None], out=dn if later else up)
            if later:
                up |= dn
        if not levels:
            up.fill(False)
        for slope, level, cross, mask, upper in sloped:
            sel, i, c = slice(None), at, dn
            if mask is not None:
                on = mask[idx].nonzero()[0]
                if not on.size:
                    continue
                if on.size < idx.size:  # a tile whose every row is sloped is not copied
                    sel, i, c = on, idx[on], dn[: on.size]
            tt = t if isinstance(t, np.ndarray) else t(sel)
            v = line[: i.size if tt.ndim == 1 else tt.shape[0]]
            if seen is not None:  # column 0 is left for the caller
                own = scratch(("own", upper), (v.shape[0], v.shape[1] + 1))
                v, seen[upper] = own[:, 1:], (sel, i, own)
            lines_at(slope, level, i, tt, v)
            cross(w[sel], v, out=c)
            up[sel] |= c
        return up

    def fill_in(total, skipped, alive, live, elapsed, m, spans):
        """Fill in the queued spans of a block of a chunk's rows, alive, and
        find each row's stop: the queue's first total entries are the spans
        to fill in, in row-major order, and skipped (with sums) each row's
        whole skipped sum.  Spans are filled _TILE // m at a time in that
        order, so the draws do not depend on the tile size.  Sets live, and
        k, pos and sq of the alive rows."""
        at, x0, x1, prior = queue(0, total)
        first = np.full(alive.size, total)  # each row's stopping span, among the fills
        summed = np.zeros(alive.size) if squares else None
        steps = np.arange(1, m + 1)
        frac = steps / m
        per = max(1, _TILE // m)
        for f0 in range(0, total, per):
            f = slice(f0, f0 + per)
            (fr, fc), a0, a1 = np.divmod(at[f], spans), x0[f], x1[f]
            b = buf[: fr.size * m].reshape(fr.size, m)
            rng.standard_normal(out=b)
            b *= scale
            np.add.accumulate(b, axis=1, out=b)
            b -= np.multiply(frac, (b[:, -1] - (a1 - a0))[:, None],
                             out=scratch(spent[2], b.shape))
            b += a0[:, None]
            b[:, -1] = a1  # the end crosses as it did when tested

            def times(sel):
                """The filled spans' grid times, for their rows sel."""
                begin = elapsed + fc[sel] * m
                t = np.add(begin[:, None], steps, out=scratch(spent[2], (begin.size, m)))
                t *= step
                return t

            idx = alive[fr]
            up = crossed(b, row0 if shared else idx, idx, times)
            j = up.argmax(axis=1)
            on = up[np.arange(fr.size), j].nonzero()[0]
            if on.size:  # the first stopping span of each row not stopped before
                on = on[_runs(fr[on])]
                on = on[first[fr[on]] == total]
                r = fr[on]
                first[r] = f0 + on
                k[alive[r]] = elapsed + fc[on] * m + j[on] + 1
                pos[alive[r]] = b[on, j[on]]
            if squares:
                sums = np.einsum("ij,ij->i", b, b)
                if on.size:  # a stopping span is summed up to its crossing
                    head = b.take(on, axis=0, out=scratch(spent[2], (on.size, m)), mode="clip")
                    np.copyto(head, 0.0, where=np.arange(m) >= j[on, None])
                    sums[on] = np.einsum("ij,ij->i", head, head)
                keep = f0 + np.arange(fr.size) <= first[fr]  # not past the row's stop
                np.add.at(summed, fr[keep], sums[keep])
        hit = first < total
        np.logical_not(hit, out=live)
        if squares:
            skipped[hit] = prior[first[hit]]
            sq[alive] += skipped + summed

    stuck = []
    for start in range(0, n, _PATH_BATCH):
        alive = np.arange(start, min(start + _PATH_BATCH, n))
        # chunk lengths count spans: whole spans of m steps, or one shorter span at the end
        elapsed, spans = 0, _FIRST_CHUNK if levels or sloped else _MAX_CHUNK
        while alive.size and elapsed < n_steps:
            m = min(span, n_steps - elapsed)
            spans = min(spans, (n_steps - elapsed) // m)
            s = spans * m
            ends = np.arange(elapsed, elapsed + s + 1, m)  # grid steps of the start and span ends
            tp = ends * step
            t, ends = tp[1:], ends[1:]  # the span ends alone
            rows = max(1, _TILE // spans)
            tile_rows = np.arange(min(rows, alive.size))
            live = np.empty(alive.size, dtype=bool)
            var = m * scale * scale  # a span's variance
            # the rows in blocks of _FILL_ROWS, each drawn in tiles; at m > 1 a
            # block's queued spans are filled in once all its rows drew their ends
            for b0 in range(0, alive.size, _FILL_ROWS):
                block, queued = alive[b0 : b0 + _FILL_ROWS], 0
                skipped = np.empty(block.size) if squares and m > 1 else None
                for r0 in range(0, block.size, rows):
                    idx = block[r0 : r0 + rows]
                    w = buf[: idx.size * spans].reshape(idx.size, spans)
                    rng.standard_normal(out=w)
                    w *= scale * math.sqrt(m)
                    x0 = pos[idx]
                    w[:, 0] += x0  # each row's start, summed in order with its steps
                    np.add.accumulate(w, axis=1, out=w)  # cumsum's values, less call overhead
                    at = row0 if shared else idx
                    seen = {} if m > 1 else None  # the sloped lines at the span ends
                    up = crossed(w, at, idx, t, seen)
                    j = up.argmax(axis=1)  # a row's first crossing end, or 0 if none
                    hit = up[tile_rows[: idx.size], j]
                    if squares and m == 1:
                        sq[idx] += np.einsum("ij,ij->i", w, w)
                    pos[idx] = w[:, -1]  # each row's last value; a crossing row's is set below
                    on = hit.nonzero()[0]
                    if on.size:
                        jr, i = j[on], idx[on]
                        ki = ends[jr]
                        if squares and m == 1:
                            # take back the crossing's column and the ones after it, in
                            # reused buffers (take buffers a fresh copy unless mode="clip")
                            tail, head = (b[: on.size * s].reshape(on.size, s)
                                          for b in (spare, below))
                            w.take(on, axis=0, out=tail, mode="clip")
                            np.less(ends, ki[:, None], out=head)
                            np.copyto(tail, 0.0, where=head)
                            sq[i] -= np.einsum("ij,ij->i", tail, tail)
                        k[i] = ki
                        pos[i] = w[on, jr]
                    np.logical_not(hit, out=live[b0 + r0 : b0 + r0 + idx.size])
                    if m == 1:
                        continue
                    # the spans up to each row's first crossing end that its bridge
                    # may cross inside, queued to fill in; fill_in stops a row
                    # earlier where one does
                    path = scratch("path", (idx.size, spans + 1))
                    path[:, 0] = x0
                    path[:, 1:] = w
                    gaps = []
                    for level, slope, upper in bounded:
                        line, sel = level[at, None], None
                        if upper in seen:  # sloped rows: the ends test's lines, and the start
                            sel, i, own = seen[upper]
                            lines_at(slope, level, i, tp[:1], own[:, :1])
                            if isinstance(sel, slice):  # every row is sloped
                                line, sel = own, None
                        g = scratch(("gap", upper), path.shape)
                        np.subtract(*((line, path) if upper else (path, line)), out=g)
                        if sel is not None:  # only the sloped rows take their own lines
                            x = path[sel]
                            g[sel] = np.subtract(*((own, x) if upper else (x, own)), out=own)
                        gaps.append(g)
                    skip = _skips(gaps, var, scratch)
                    if not skip.ndim:  # no line: every span is skipped
                        skip = scratch("skip", w.shape, bool)
                        skip.fill(True)
                    fill = np.logical_not(skip, out=scratch("fill", w.shape, bool))
                    if on.size:  # nothing past a row's first crossing end is walked
                        upto = ends <= ki[:, None]
                        skip[on] &= upto
                        fill[on] &= upto
                    # row-major: each row's spans in order, as indices into the
                    # tile's (row, span) array and into the block's
                    at_fill = np.flatnonzero(fill)
                    into, start0, end0, prior = queue(queued, at_fill.size)
                    np.add(at_fill, r0 * spans, out=into)
                    at_path = at_fill // spans  # the rows, then each span's start in path
                    at_path += at_fill
                    for col in (start0, end0):
                        path.take(at_path, out=col, mode="clip")
                        at_path += 1
                    if squares:
                        # each skipped span's mean sum, summed over each row, and
                        # before each span to fill
                        x1 = path[:, 1:]
                        back, means, tmp = (scratch(name, w.shape) for name in spent)
                        means = _bridge_squares(x1, np.subtract(path[:, :-1], x1, out=back), m,
                                                1.0, scale * scale, out=means, tmp=tmp)
                        means *= skip
                        np.add.reduce(means, axis=1, out=skipped[r0 : r0 + idx.size])
                        if at_fill.size:
                            np.cumsum(means, axis=1, out=means)
                            means.take(at_fill, out=prior, mode="clip")
                    queued += at_fill.size
                if m > 1:
                    fill_in(queued, skipped, block, live[b0 : b0 + block.size], elapsed, m, spans)
            before, alive = alive.size, alive[live]
            elapsed += s
            spans = _next_chunk(spans, before, alive.size) if alive.size else spans
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

    The paths are walked in spans of _span's m grid steps, filled in step by
    step only where the line may be crossed, so the times have the grid
    walk's law.  Deterministic given rng_seed.  Paths still alive at the horizon
    (default 1e6/mu) raise HorizonError: truncation is loud, never silent.
    A step or horizon that is not finite and > 0, an n_paths that is not
    an integer >= 1, or an rng_seed that is not an integer >= 0 raises
    ParameterError.
    """
    _integer("rng_seed", rng_seed, 0)
    if horizon is None:
        horizon = 1e6 / spec.mu
    n_steps = _check_walk(n_paths, step, horizon)
    span = _span(np.array([spec.c * spec.c]), math.sqrt(step))  # from the gap c at t = 0
    k, _, _, stuck = _first_crossings(np.random.default_rng(rng_seed), np.zeros(n_paths),
                                      (spec.c, -spec.mu, -np.inf, 0.0), n_steps, step,
                                      squares=False, span=span)
    if stuck.size:
        raise HorizonError(
            f"{stuck.size} path(s) exceeded the horizon cap {horizon} "
            f"(c={spec.c}, mu={spec.mu}, step={step})"
        )
    return k * step
