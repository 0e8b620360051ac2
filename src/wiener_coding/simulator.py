"""Discrete-time Monte Carlo simulation of the sampling and coding protocol.

A cycle starts at a delivery with the error X = W - ref between the process
and the decoded estimate ref, and the previous code length L:

* X strictly inside (-b*sqrt(L), a*sqrt(L)): wait for the error to exit the
  constant band (events 2/3), decoded value exactly +-threshold.
* X beyond (or exactly on) a boundary: wait for the sloped threshold
  a*sqrt(L) + mu*t (or its mirror) started at the cycle start to catch the
  error (events 1/4); the decoded value is threshold + mu*tau.  A sample on
  a boundary is the sloped event (tau = 0), so a = b = 0 runs with infinite
  band codewords.  At mu = inf, the closed forms' and the optimizer's
  large-slope regime, the line catches the error at once: the cycle samples
  at its start (tau = 0) and decodes the sample X itself.

The waiting phase is walked on a grid of step eps, one call of
hitting_times' first-crossing kernel per generation, and a crossing is the
first grid point past a line (O(sqrt(eps)) overshoot accepted).  At a finite
slope every chain walks in place on its own lines (the band's two levels or
one sloped line); at mu = inf only the chains strictly inside their band
walk, on its two levels.  The kernel returns each walked chain's stop step,
its error there and its left sum of squared errors: the sample time, the
sample and the waiting phase's reward.  The decoder uses the
protocol-implied value, so estimator and monitor agree exactly.  SimConfig
rejects a finite mu with mu*eps > 1, since decoded sloped values are
multiples of mu*eps (at a = b = 1, lengths 2, the MSE is off by +0.25% at
mu*eps = 0.1, +3.5% at 1 and +960% at 10).  The benchmarks are codebooks.
The uniform benchmark fixes all lengths to 2.  The ideal benchmark (b = a)
is unit delays (L = 1) at mu = inf, to which SimConfig sets its codebook
and slope: a chain with |X| >= a samples at once, a chain inside walks to
+-a, and either way the decoder receives the sample's real value.

No event can fire during a transmission, so it is not walked: the error at
the delivery is y = x + sqrt(sigma2*l)*N(0, 1), x the error at the sample,
and the grid's left sum of squared errors over its l/eps steps is replaced
by its mean given x and y, the discrete Brownian bridge's
l*(x^2 + x*d*r + d^2*r*(1 + r)/6) + sigma2*(l^2 - eps^2)/6, d = y - x,
r = 1 - eps/l, which tends to l*(x^2 + x*y + y^2)/3 + sigma2*l^2/6
(Glasserman 2004, Monte Carlo Methods in Financial Engineering, 3.1).
SimConfig takes any four delays (Kraft is the design's constraint, not the
run's), but requires every finite one to be a whole number >= 1 of grid
steps (to within 1e-9 relative).

Chains.  A cycle starts from X ~ N(0, sigma2*L) whatever came before, on
thresholds that scale with sqrt(L), so cycles are independent but for the
grid overshoot carried into the next X.  A replication therefore runs M
short chains in lockstep, one cycle per chain per generation, and estimates
MSE and sampling rate by the regenerative ratio sum(reward)/sum(time) over
the measured cycles (Asmussen & Glynn 2007, Stochastic Simulation, ch. IV).
A chain starts at X = 0 with previous length l2 and is measured after
_BURN_IN_CYCLES cycles (the second still scales with the first's length).
A replication stops after the first generation at which its chains' summed
measured time reaches `horizon`.  M = horizon/(32 * longest length), capped
at _MAX_CHAINS: a chain forgets its start in one cycle, so it can be short,
and many chains share a generation's Python work.  M depends on the config
alone and the walk's chunks on its own draws, so replication k, drawn from
an SFC64 generator seeded by SeedSequence(seed, spawn_key=(k,)), does not
depend on `replications`.  SFC64 draws normals cheaper than numpy's default
PCG64; hitting_times' and mse_model's Monte Carlo oracles keep PCG64, the
streams their acceptance checks were judged on.
Length sequences and the cycle log are chain-major, with grid indices
counted from each chain's start.  A waiting phase longer than
round(horizon/eps) steps raises HorizonError.  Memory is O(M) plus a few
tiles of the walk, and 8 bytes per measured cycle for the length sequences;
a cycle log adds 57 bytes per logged cycle in numpy columns (see CycleLog).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .errors import HorizonError, ParameterError, WienerCodingError
from .gauss_stats import ThresholdConfig, _integer, event_probabilities
from .hitting_times import _first_crossings
from .mse_model import INTEGER, UNIT_DELAYS, Codebook

__all__ = [
    "SimConfig",
    "CycleRecord",
    "CycleLog",
    "SimulationReport",
    "IndependenceResult",
    "run",
    "run_benchmark",
    "length_independence_test",
]

MONOTONE = "monotone"
UNIFORM = "uniform-benchmark"
IDEAL = "ideal-benchmark"

_CSV_COLUMNS = ("s_n", "d_n", "event", "z_n", "length")
_CSV_BLOCK = 4096  # rows converted to Python scalars and formatted at a time
_LOG_DTYPES = {"s_idx": np.int64, "d_idx": np.int64, "event": np.uint8, "z": np.float64,
               "length": np.float64, "w_hat": np.float64, "reward": np.float64,
               "duration": np.float64}
# The chain count orders a seed's draws, so it is part of what a seed means.
_BURN_IN_CYCLES = 2  # cycles each chain runs before it is measured
_MAX_CHAINS = 4096  # bounds the chain state whatever the horizon
_CHAIN_SPAN = 32.0  # measured time per chain, in longest code lengths


@dataclass(frozen=True)
class SimConfig:
    """One simulation: grid step eps, horizon, thresholds and slope cfg, and
    cb, the delays after events 1..4.  An ideal-benchmark config is built
    with cb None or unit delays, and a uniform-benchmark one with cb None or
    lengths 2; either is filled in, the ideal one at mu = inf."""

    eps: float
    horizon: float
    cfg: ThresholdConfig
    cb: Codebook | None
    seed: int
    scheme: str = MONOTONE
    replications: int = 1
    log_cycles: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ParameterError(f"eps must be finite and > 0, got {self.eps}")
        if not math.isfinite(self.horizon):
            raise ParameterError(f"horizon must be finite, got {self.horizon}")
        if self.horizon / self.eps >= 2.0 ** 53:
            # grid indices and times are computed in floats; beyond 2**53 they are inexact
            raise ParameterError(
                f"horizon / eps = {self.horizon / self.eps:g} grid steps; need < 2**53"
            )
        _integer("seed", self.seed, 0)
        _integer("replications", self.replications, 1)
        if self.scheme not in (MONOTONE, UNIFORM, IDEAL):
            raise ParameterError(f"unknown scheme {self.scheme!r}")
        if self.scheme == IDEAL:
            # real-valued samples, each delivered after one time unit, and a
            # sample at once beyond the band: unit delays at mu = inf
            if self.cb is not None and self.cb.lengths != UNIT_DELAYS.lengths:
                raise ParameterError(f"ideal benchmark delivers after unit delays; got code "
                                     f"lengths {self.cb.lengths}")
            if self.cfg.b != self.cfg.a:
                raise ParameterError(
                    f"ideal benchmark samples on a symmetric band; need b = a, "
                    f"got a={self.cfg.a}, b={self.cfg.b}"
                )
            object.__setattr__(self, "cb", UNIT_DELAYS)
            object.__setattr__(self, "cfg", replace(self.cfg, mu=math.inf))
        elif self.scheme == UNIFORM:
            if self.cb is None:
                object.__setattr__(self, "cb", Codebook.uniform(2, mode=INTEGER))
            elif self.cb.lengths != (2.0, 2.0, 2.0, 2.0):
                raise ParameterError(f"uniform benchmark fixes code lengths to 2, got "
                                     f"{self.cb.lengths}")
        elif self.cb is None:
            raise ParameterError("monotone scheme requires a codebook of code lengths")
        lengths = self.cb.lengths
        probs = event_probabilities(self.cfg).as_tuple()
        for i, (p, l) in enumerate(zip(probs, lengths)):
            if math.isinf(l) and p > 0.0:
                raise ParameterError(
                    f"l{i + 1} is infinite but event {i + 1} has probability {p}"
                )
        # a transmission occupies round(l/eps) grid steps, so every finite
        # length must be a whole number >= 1 of them, or the run would
        # silently change it
        for l in lengths:
            n = l / self.eps
            if math.isfinite(l) and (round(n) < 1 or abs(n - round(n)) > 1e-9 * n):
                raise ParameterError(
                    f"length {l} is {n:g} grid steps of eps = {self.eps}; "
                    f"need a whole number >= 1"
                )
        if math.isfinite(self.cfg.mu) and self.cfg.mu * self.eps > 1.0:
            raise ParameterError(
                f"mu*eps = {self.cfg.mu * self.eps:g} > 1: the grid of step eps = {self.eps} "
                f"cannot resolve the sloped thresholds of slope mu = {self.cfg.mu}"
            )
        max_len = max(l for l in lengths if math.isfinite(l))
        if self.horizon < 100.0 * max_len:
            raise ParameterError(
                f"horizon {self.horizon} too short; need >= 100 * max length = {100 * max_len}"
            )


@dataclass(frozen=True)
class CycleRecord:
    s_idx: int
    d_idx: int
    event: int
    z_n: float
    length: float
    w_hat: float  # decoded estimate in effect after this delivery
    eps: float

    @property
    def s_n(self) -> float:
        return self.s_idx * self.eps

    @property
    def d_n(self) -> float:
        return self.d_idx * self.eps


class _Memo(dict):
    """A dict that fills a missing key with fn(key) on its first lookup."""

    def __init__(self, fn) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


@dataclass
class CycleLog:
    """Columnar log of every measured cycle of replication 0, chain-major.

    s_idx (the sample) and d_idx (the delivery) are grid indices counted from
    the start of the cycle's chain.  Each column is a numpy array: s_idx and
    d_idx int64, event uint8, the rest float64, 57 bytes per cycle.  Lists
    are converted; columns that are not 1-D or not of one length are a
    ParameterError.  records() and to_csv convert _CSV_BLOCK rows at a time
    to Python scalars, so the log never exists whole as Python objects.  Two
    logs are equal when their eps and every column are (a NaN equals nothing).
    """

    eps: float
    s_idx: np.ndarray
    d_idx: np.ndarray
    event: np.ndarray
    z: np.ndarray
    length: np.ndarray
    w_hat: np.ndarray  # decoded estimate in effect after the delivery
    reward: np.ndarray
    duration: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in _LOG_DTYPES.items():
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))
        shapes = {name: getattr(self, name).shape for name in _LOG_DTYPES}
        if len(set(shapes.values())) > 1 or self.s_idx.ndim != 1:
            raise ParameterError(f"cycle log columns must be 1-D of one length; got {shapes}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycleLog):
            return NotImplemented
        return self.eps == other.eps and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _LOG_DTYPES)

    def __len__(self) -> int:
        return len(self.s_idx)

    def _blocks(self, *columns: np.ndarray) -> Iterator[list[list]]:
        """The columns as Python scalars, _CSV_BLOCK rows at a time."""
        for lo in range(0, len(self), _CSV_BLOCK):
            yield [col[lo : lo + _CSV_BLOCK].tolist() for col in columns]

    def records(self) -> Iterator[CycleRecord]:
        eps = self.eps
        for block in self._blocks(self.s_idx, self.d_idx, self.event, self.z, self.length,
                                  self.w_hat):
            for row in zip(*block):
                yield CycleRecord(*row, eps)

    def to_csv(self, path) -> None:
        """Write the columns s_n, d_n, event, z_n and length, one row per cycle.

        The bytes are those of csv.writer's default dialect: a header row of
        the column names, then one row per cycle of replication 0 in the
        log's chain-major order, every row ending in CRLF.  Each float is its
        Python repr (s_n = s_idx * eps and d_n = d_idx * eps) and the event a
        decimal int.  Each distinct value is formatted on its first row, and
        rows are converted and written _CSV_BLOCK at a time.
        """
        eps = self.eps
        grid = _Memo(lambda i: repr(i * eps))
        events = _Memo(str)
        # 0.0 and -0.0 are one dict key but print apart, and a NaN matches no
        # key, so zeros and NaNs are formatted per row
        z_text, length_text = _Memo(repr), _Memo(repr)
        with open(path, "w", newline="") as fh:
            fh.write(",".join(_CSV_COLUMNS) + "\r\n")
            for s, d, e, z, length in self._blocks(self.s_idx, self.d_idx, self.event, self.z,
                                                   self.length):
                rows = zip(map(grid.__getitem__, s),
                           map(grid.__getitem__, d),
                           map(events.__getitem__, e),
                           [z_text[v] if v and v == v else repr(v) for v in z],
                           [length_text[v] if v and v == v else repr(v) for v in length])
                fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


@dataclass
class SimulationReport:
    mse_hat: float
    mse_ci: float
    sr_hat: float
    sr_ci: float
    event_counts: np.ndarray  # counts for events 1..4
    n_cycles: int
    total_time: float
    rep_mse: np.ndarray
    rep_sr: np.ndarray
    length_sequences: list[np.ndarray]
    cycles: CycleLog | None
    config: SimConfig

    def to_json_dict(self) -> dict:
        cb = self.config.cb
        cfg = self.config.cfg

        def _num(x):
            return None if (x is None or not math.isfinite(x)) else float(x)

        return {
            "spec": {
                "scheme": self.config.scheme,
                "eps": self.config.eps,
                "horizon": self.config.horizon,
                "a": cfg.a,
                "b": cfg.b,
                "mu": _num(cfg.mu),
                "sigma2": cfg.sigma2,
                "lengths": [_num(l) for l in cb.lengths],
                "seed": self.config.seed,
                "replications": self.config.replications,
                "burn_in_cycles": _BURN_IN_CYCLES,
            },
            "results": {
                "mse_hat": float(self.mse_hat),
                "mse_ci": _num(self.mse_ci),
                "sr_hat": float(self.sr_hat),
                "sr_ci": _num(self.sr_ci),
                "n_cycles": int(self.n_cycles),
                "total_time": float(self.total_time),
                "event_counts": {str(i + 1): int(c) for i, c in enumerate(self.event_counts)},
                "rep_mse": [float(x) for x in self.rep_mse],
                "rep_sr": [float(x) for x in self.rep_sr],
            },
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


@dataclass(frozen=True)
class IndependenceResult:
    statistic: float
    dof: int
    p_value: float
    n_pairs: int


@dataclass
class _RepOutcome:
    reward: float
    duration: float
    event_counts: np.ndarray
    lengths: np.ndarray  # chain-major
    log: CycleLog | None


def _chain_count(sim: SimConfig) -> int:
    max_len = max(l for l in sim.cb.lengths if math.isfinite(l))
    return min(_MAX_CHAINS, max(1, int(sim.horizon / (_CHAIN_SPAN * max_len))))


def _run_chains(sim: SimConfig, rng, log_cycles: bool) -> _RepOutcome:
    """One replication: M chains in lockstep, one cycle each per generation.

    A generation's waiting phases are one kernel call on its rows' own
    lines: at a finite slope on every row, in place; at mu = inf on the rows
    strictly inside their band, with its two levels, while each other row
    samples at its cycle start (k = 0, z = x, event 1 or 4).
    """
    cfg, eps = sim.cfg, sim.eps
    ideal = sim.scheme == IDEAL
    a, b, sigma2 = cfg.a, cfg.b, cfg.sigma2
    mu = cfg.mu
    at_once = math.isinf(mu)  # a row beyond its band samples at its cycle start
    lens = np.array(sim.cb.lengths)
    len_steps = np.array([round(l / eps) if math.isfinite(l) else -1 for l in lens])
    # the thresholds a*sqrt(L) and b*sqrt(L) after each event; a zero factor
    # stays 0 at L = inf (the empty band before a = b = 0's first cycle)
    a_tab, b_tab = (v * np.sqrt(lens) if v > 0.0 else np.zeros(4) for v in (a, b))
    m = _chain_count(sim)
    n_steps = int(round(sim.horizon / eps))
    step_sd = math.sqrt(sigma2 * eps)

    x = np.zeros(m)  # error W - ref at the cycle start
    prev = np.full(m, 1)  # the previous event, less 1
    ref = np.zeros(m)  # decoded estimate
    start = np.zeros(m, dtype=np.int64)  # grid index of the cycle start
    reward = duration = 0.0
    codes: list[np.ndarray] = []  # event codes of the measured generations
    # the log's s_idx, d_idx, z, w_hat, reward and duration, per measured generation
    columns: tuple[list[np.ndarray], ...] = tuple([] for _ in range(6))
    generation = 0
    while True:
        athr, bthr = a_tab[prev], b_tab[prev]
        inside = (-bthr < x) & (x < athr)
        upward = x >= athr  # on or above the band (at a = b = 0, x = 0 goes up)
        if at_once:  # only the rows inside walk, on their band levels
            walk = inside.nonzero()[0]
            lines = (athr[walk], np.zeros(walk.size), -bthr[walk], np.zeros(walk.size))
        else:  # every row walks in place, on its band levels or its sloped line
            walk, downward = slice(None), ~(inside | upward)
            lines = (np.where(downward, -bthr, np.where(upward, np.inf, athr)),
                     np.where(downward, -mu, 0.0),
                     np.where(upward, athr, np.where(downward, -np.inf, -bthr)),
                     np.where(upward, mu, 0.0))

        # the waiting phase (see hitting_times._first_crossings): each walked
        # row's grid steps k to its sample, its error e there (x, set in place)
        # and its sum of squared errors at the grid points before it; a row
        # not walked samples at its cycle start
        k, wait = np.zeros(m, dtype=np.int64), np.zeros(m)
        k[walk], x[walk], wait[walk], stuck = _first_crossings(rng, x[walk], lines, n_steps,
                                                               eps, sd=step_sd)
        if stuck.size:
            raise HorizonError(f"a waiting phase passed the horizon {sim.horizon}")
        e = x
        if at_once:  # the sloped line passes the sample at the cycle start
            caught = e
        else:
            climb = mu * (k * eps)  # the sloped lines' rise since the cycle start
            caught = np.where(upward, athr + climb, -(bthr + climb))

        event = np.where(inside, np.where(e >= athr, 2, 3), np.where(upward, 1, 4))
        level = e if ideal else np.where(event == 2, athr, -bthr)
        z = np.where(inside, level, caught)
        prev = event - 1  # the next cycle's previous event
        n = len_steps[prev]
        if (n < 0).any():
            raise WienerCodingError(
                f"event {event[n < 0][0]} with infinite code length occurred"
            )
        # the transmission: no event can fire, so only its end is drawn, and
        # its grid reward is the discrete Brownian bridge's mean between the
        # errors e at the sample and y at the delivery
        span = n * eps
        y = e + np.sqrt(sigma2 * span) * rng.standard_normal(m)
        r = 1.0 - 1.0 / n
        dy = y - e
        tx = span * (e * e + e * dy * r + dy * dy * (r * (1.0 + r) / 6.0))
        tx += sigma2 * (span * span - eps * eps) / 6.0
        cycle_reward = wait * eps + tx
        cycle_duration = (k + n) * eps
        w_hat = ref + z
        if generation >= _BURN_IN_CYCLES:
            reward += float(cycle_reward.sum())
            duration += float(cycle_duration.sum())
            codes.append(event.astype(np.uint8))
            if log_cycles:
                for col, value in zip(columns, (start + k, start + k + n, z, w_hat,
                                                cycle_reward, cycle_duration)):
                    col.append(value)
            if duration >= sim.horizon:
                break
        x = y - z
        ref = w_hat
        start += k + n
        generation += 1

    events = _chain_major(codes)
    lengths = lens[events - 1]
    log = None
    if log_cycles:
        s_idx, d_idx, z, w_hat, cycle_reward, cycle_duration = map(_chain_major, columns)
        log = CycleLog(eps, s_idx, d_idx, events, z, lengths.copy(), w_hat, cycle_reward,
                       cycle_duration)
    return _RepOutcome(reward, duration, np.bincount(events, minlength=5)[1:], lengths, log)


def _chain_major(generations: list[np.ndarray]) -> np.ndarray:
    """One value per chain per generation, as one chain-major array; empties
    the list, so each column's pieces are freed once it is built."""
    column = np.stack(generations, axis=1).ravel()
    generations.clear()
    return column


def _run_replicated(sim: SimConfig) -> SimulationReport:
    outcomes: list[_RepOutcome] = []
    for rep in range(sim.replications):
        seq = np.random.SeedSequence(entropy=sim.seed, spawn_key=(rep,))
        rng = np.random.Generator(np.random.SFC64(seq))
        outcomes.append(_run_chains(sim, rng, sim.log_cycles and rep == 0))
    rep_mse = np.array([o.reward / o.duration for o in outcomes])
    rep_sr = np.array([o.lengths.size / o.duration for o in outcomes])
    n = len(outcomes)
    mse_ci = sr_ci = math.nan
    if n > 1:
        mse_ci = 1.96 * float(rep_mse.std(ddof=1)) / math.sqrt(n)
        sr_ci = 1.96 * float(rep_sr.std(ddof=1)) / math.sqrt(n)
    return SimulationReport(
        mse_hat=float(rep_mse.mean()),
        mse_ci=mse_ci,
        sr_hat=float(rep_sr.mean()),
        sr_ci=sr_ci,
        event_counts=sum(o.event_counts for o in outcomes),
        n_cycles=sum(o.lengths.size for o in outcomes),
        total_time=sum(o.duration for o in outcomes),
        rep_mse=rep_mse,
        rep_sr=rep_sr,
        length_sequences=[o.lengths for o in outcomes],
        cycles=outcomes[0].log,
        config=sim,
    )


def run(sim: SimConfig) -> SimulationReport:
    """Simulate sim's scheme: monotone, uniform benchmark or ideal benchmark."""
    return _run_replicated(sim)


def run_benchmark(sim: SimConfig) -> SimulationReport:
    """The same as run; the benchmarks' former entry point, kept for its callers."""
    return _run_replicated(sim)


def _chi2_sf(x: float, dof: int) -> float:
    """P(chi2_dof > x) for an integer dof, by the finite series.

    With h = x/2 it is sum_{i<dof/2} e^-h h^i/i! for even dof, and
    erfc(sqrt h) + sum_{i<(dof-1)/2} e^-h h^(i+1/2)/Gamma(i+3/2) for odd
    dof.  Each term is exponentiated from its logarithm, so e^-h may
    underflow while the sum does not.
    """
    h = 0.5 * x
    if h == 0.0:
        return 1.0
    s = 0.5 * (dof % 2)  # the exponent offset of the odd series
    tail = math.erfc(math.sqrt(h)) if s else 0.0
    return tail + math.fsum(math.exp((i + s) * math.log(h) - h - math.lgamma(i + s + 1.0))
                            for i in range(dof // 2))


def length_independence_test(
    report: SimulationReport, min_cycles: int = 10_000
) -> IndependenceResult:
    """Chi-square contingency test on consecutive code-length pairs.

    Pairs are formed within each replication's chain-major sequence, so a
    chain's last cycle pairs with the next chain's first (chains are
    independent) but no pair crosses replications.  Needs an integer
    min_cycles >= 2, at least min_cycles cycles, at least one pair and at
    least two distinct length values.
    """
    _integer("min_cycles", min_cycles, 2)
    total = sum(len(seq) for seq in report.length_sequences)
    if total < min_cycles:
        raise ParameterError(f"need >= {min_cycles} cycles for the test, got {total}")
    seqs = [seq for seq in report.length_sequences if len(seq) >= 2]
    if not seqs:
        raise ParameterError("independence test needs a replication of >= 2 cycles")
    pooled = np.concatenate(seqs)
    categories = np.unique(pooled)
    k = categories.size
    if k < 2:
        raise ParameterError("independence test needs >= 2 distinct code lengths")
    table = np.zeros((k, k), dtype=np.int64)
    for seq in seqs:
        ia = np.searchsorted(categories, seq[:-1])
        ib = np.searchsorted(categories, seq[1:])
        np.add.at(table, (ia, ib), 1)
    n_pairs = int(table.sum())
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row * col / n_pairs
    mask = expected > 0
    statistic = float((((table - expected) ** 2)[mask] / expected[mask]).sum())
    dof = (k - 1) * (k - 1)
    p_value = _chi2_sf(statistic, dof)
    return IndependenceResult(
        statistic=statistic,
        dof=dof,
        p_value=p_value,
        n_pairs=n_pairs,
    )
