"""Discrete-time Monte Carlo simulation of the sampling and coding protocol.

A cycle starts at a delivery with the error X = W - ref between the process
and the decoded estimate ref, and the previous code length L:

* X strictly inside (-b*sqrt(L), a*sqrt(L)): wait for the error to exit the
  constant band (events 2/3), decoded value exactly +-threshold.
* X beyond (or exactly on) a boundary: wait for the sloped threshold
  a*sqrt(L) + mu*t (or its mirror) started at the cycle start to catch the
  error (events 1/4); the decoded value is threshold + mu*tau.  A sample on
  a boundary is the sloped event (tau = 0), so a = b = 0 runs with infinite
  band codewords.

The waiting phase is walked on a grid of step eps through hitting_times'
first-crossing kernel, each chain with its own lines (the band's two levels
or one sloped line), and a crossing is the first grid point past a line
(O(sqrt(eps)) overshoot accepted).  The kernel returns each chain's stop
step, its error there and its left sum of squared errors, which give the
sample time, the sample and the waiting phase's reward.  The decoder uses the protocol-implied
value, so estimator and monitor agree exactly.  SimConfig rejects mu*eps > 1
for the sloped schemes, whose decoded values are multiples of mu*eps (at
a = b = 1, lengths 2, the MSE is off by +0.25% at mu*eps = 0.1, +3.5% at 1
and +960% at 10).  The ideal benchmark (b = a) samples the real value once
|X| >= a, testing the cycle start itself, and delivers it after one time
unit; the uniform benchmark fixes all lengths to 2.

No event can fire during a transmission, so it is not walked: the error at
the delivery is y = x + sqrt(sigma2*l)*N(0, 1), x the error at the sample,
and the grid's left sum of squared errors over its l/eps steps is replaced
by its mean given x and y, the discrete Brownian bridge's
l*(x^2 + x*d*r + d^2*r*(1 + r)/6) + sigma2*(l^2 - eps^2)/6, d = y - x,
r = 1 - eps/l, which tends to l*(x^2 + x*y + y^2)/3 + sigma2*l^2/6
(Glasserman 2004, Monte Carlo Methods in Financial Engineering, 3.1).
SimConfig requires every finite length, and the ideal unit delay, to be a
whole number >= 1 of grid steps (to within 1e-9 relative).

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
and many chains share a generation's Python work.  M and the walk chunk
depend on the config alone, so replication k, drawn from
SeedSequence(seed, spawn_key=(k,)), does not depend on `replications`.
Length sequences and the cycle log are chain-major, with grid indices
counted from each chain's start.  A waiting phase longer than
round(horizon/eps) steps raises HorizonError.  Memory is O(M) plus a few
tiles of the walk, and 8 bytes per measured cycle for the length sequences.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import HorizonError, ParameterError, WienerCodingError
from .gauss_stats import ThresholdConfig, _integer, event_probabilities
from .hitting_times import _TILE, _first_crossings
from .mse_model import INTEGER, Codebook

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
# The chain count, chunk and fill fix the order in which a seed's stream is
# drawn, so they are part of what a seed means.
_BURN_IN_CYCLES = 2  # cycles each chain runs before it is measured
_MAX_CHAINS = 4096  # bounds the chain state whatever the horizon
_CHAIN_SPAN = 32.0  # measured time per chain, in longest code lengths
_CHUNK_SPAN = 0.5  # grid steps per walk chunk, in shortest code lengths
_WALK_FILL = 1 << 13  # least steps x paths alive per chunk: longer chunks for stragglers


@dataclass(frozen=True)
class SimConfig:
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
        if math.isinf(self.cfg.mu):
            raise ParameterError("the simulator needs a finite slope mu; mu = inf is the "
                                 "closed forms' large-slope limit")
        cb = self.cb
        if self.scheme == UNIFORM:
            if cb is None:
                cb = Codebook.uniform(2, mode=INTEGER)
                object.__setattr__(self, "cb", cb)
            elif cb.lengths != (2.0, 2.0, 2.0, 2.0):
                raise ParameterError(f"uniform benchmark fixes code lengths to 2, got {cb.lengths}")
        elif self.scheme == IDEAL:
            if cb is not None:
                raise ParameterError("ideal benchmark transmits real values; no code lengths")
            if self.cfg.b != self.cfg.a:
                raise ParameterError(
                    f"ideal benchmark samples on a symmetric band; need b = a, "
                    f"got a={self.cfg.a}, b={self.cfg.b}"
                )
        elif cb is None:
            raise ParameterError("monotone scheme requires a codebook of code lengths")
        if cb is not None:
            if cb.mode != INTEGER:
                raise ParameterError("simulator requires an integer-prefix codebook")
            probs = event_probabilities(self.cfg).as_tuple()
            for i, (p, l) in enumerate(zip(probs, cb.lengths)):
                if math.isinf(l) and p > 0.0:
                    raise ParameterError(
                        f"l{i + 1} is infinite but event {i + 1} has probability {p}"
                    )
        # a transmission occupies round(l/eps) grid steps, so every finite
        # length (the ideal scheme's unit delay included) must be a whole
        # number >= 1 of them, or the run would silently change it
        for l in (1.0,) if cb is None else cb.lengths:
            n = l / self.eps
            if math.isfinite(l) and (round(n) < 1 or abs(n - round(n)) > 1e-9 * n):
                raise ParameterError(
                    f"length {l} is {n:g} grid steps of eps = {self.eps}; "
                    f"need a whole number >= 1"
                )
        if self.scheme != IDEAL and self.cfg.mu * self.eps > 1.0:
            raise ParameterError(
                f"mu*eps = {self.cfg.mu * self.eps:g} > 1: the grid of step eps = {self.eps} "
                f"cannot resolve the sloped thresholds of slope mu = {self.cfg.mu}"
            )
        max_len = 1.0 if cb is None else max(l for l in cb.lengths if math.isfinite(l))
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


@dataclass
class CycleLog:
    """Columnar log of every measured cycle of replication 0, chain-major.

    s_idx (the sample) and d_idx (the delivery) are grid indices counted from
    the start of the cycle's chain.
    """

    eps: float
    s_idx: list[int]
    d_idx: list[int]
    event: list[int]
    z: list[float]
    length: list[float]
    w_hat: list[float]  # decoded estimate in effect after the delivery
    reward: list[float]
    duration: list[float]

    def __len__(self) -> int:
        return len(self.s_idx)

    def records(self) -> Iterator[CycleRecord]:
        for i in range(len(self)):
            yield CycleRecord(
                s_idx=self.s_idx[i],
                d_idx=self.d_idx[i],
                event=self.event[i],
                z_n=self.z[i],
                length=self.length[i],
                w_hat=self.w_hat[i],
                eps=self.eps,
            )

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            eps = self.eps
            s_n = [s * eps for s in self.s_idx]
            d_n = [d * eps for d in self.d_idx]
            writer.writerows(zip(s_n, d_n, self.event, self.z, self.length))


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
                "mu": cfg.mu,
                "sigma2": cfg.sigma2,
                "lengths": None if cb is None else [_num(l) for l in cb.lengths],
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


def _lengths(sim: SimConfig) -> tuple[float, ...]:
    """Code lengths of events 1..4; the ideal scheme's unit delay."""
    return (1.0, 1.0, 1.0, 1.0) if sim.scheme == IDEAL else sim.cb.lengths


def _chain_count(sim: SimConfig) -> int:
    max_len = max(l for l in _lengths(sim) if math.isfinite(l))
    return min(_MAX_CHAINS, max(1, int(sim.horizon / (_CHAIN_SPAN * max_len))))


def _run_chains(sim: SimConfig, rng, log_cycles: bool) -> _RepOutcome:
    """One replication: M chains in lockstep, one cycle each per generation.

    The ideal scheme is the band test started at the cycle start itself,
    with +-a on every cycle, the real-valued sample decoded, and unit delay.
    """
    cfg, eps = sim.cfg, sim.eps
    ideal = sim.scheme == IDEAL
    a, b, mu, sigma2 = cfg.a, cfg.b, cfg.mu, cfg.sigma2
    lens = np.array(_lengths(sim))
    len_steps = np.array([round(l / eps) if math.isfinite(l) else -1 for l in lens])
    m = _chain_count(sim)
    chunk = min(_TILE, max(1, round(_CHUNK_SPAN * min(lens) / eps)))
    n_steps = int(round(sim.horizon / eps))
    step_sd = math.sqrt(sigma2 * eps)

    x = np.zeros(m)  # error W - ref at the cycle start
    l_prev = np.full(m, lens[1])
    ref = np.zeros(m)  # decoded estimate
    start = np.zeros(m, dtype=np.int64)  # grid index of the cycle start
    reward = duration = 0.0
    codes: list[np.ndarray] = []  # event codes of the measured generations
    counts = np.zeros(4, dtype=np.int64)
    columns: list[tuple] = []  # the log's columns, per measured generation
    generation = 0
    while True:
        sq = np.sqrt(l_prev)  # infinite before a = b = 0's first cycle: the band is empty
        athr = a * sq if a > 0.0 else np.zeros(m)
        bthr = b * sq if b > 0.0 else np.zeros(m)
        inside = (-bthr < x) & (x < athr)
        band = np.ones(m, dtype=bool) if ideal else inside
        upward = ~band & (x >= athr)
        downward = ~band & ~upward
        # each row's lines (see hitting_times._first_crossings), t the time
        # since the cycle start: the band's two levels, or one sloped line
        u0 = np.where(downward, -bthr, np.where(upward, np.inf, athr))
        su = np.where(downward, -mu, 0.0)
        d0 = np.where(upward, athr, np.where(downward, -np.inf, -bthr))
        sd = np.where(upward, mu, 0.0)

        # the waiting phase; ideal rows outside the band sample at once
        e = x.copy()  # the error at the sample
        k = np.zeros(m, dtype=np.int64)  # its grid steps
        wait = np.zeros(m)  # squared errors at the grid points before the sample
        walk = np.flatnonzero(inside) if ideal else np.arange(m)
        if walk.size:
            lines = (u0[walk], su[walk], d0[walk], sd[walk])
            k[walk], e[walk], wait[walk], stuck = _first_crossings(
                rng, x[walk], lines, n_steps, walk.size, chunk, eps, sd=step_sd, fill=_WALK_FILL)
            if stuck.size:
                raise HorizonError(f"a waiting phase passed the horizon {sim.horizon}")
        t_hit = k * eps

        event = np.where(band, np.where(e >= athr, 2, 3), np.where(upward, 1, 4))
        level = e if ideal else np.where(event == 2, athr, -bthr)
        z = np.where(band, level, np.where(upward, athr + mu * t_hit, -(bthr + mu * t_hit)))
        n = len_steps[event - 1]
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
            counts += np.bincount(event, minlength=5)[1:]
            if log_cycles:
                columns.append((start + k, start + k + n, event, z, lens[event - 1], w_hat,
                                cycle_reward, cycle_duration))
            if duration >= sim.horizon:
                break
        x = y - z
        ref = w_hat
        l_prev = lens[event - 1]
        start += k + n
        generation += 1

    lengths = np.empty((m, len(codes)))  # chain-major
    for g, c in enumerate(codes):
        lengths[:, g] = lens[c - 1]
    log = None
    if log_cycles:
        log = CycleLog(eps, *(np.stack(col, axis=1).ravel().tolist() for col in zip(*columns)))
    return _RepOutcome(reward, duration, counts, lengths.ravel(), log)


def _run_replicated(sim: SimConfig) -> SimulationReport:
    outcomes: list[_RepOutcome] = []
    for rep in range(sim.replications):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=sim.seed, spawn_key=(rep,)))
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
    """Simulate the monotone-threshold scheme."""
    if sim.scheme != MONOTONE:
        raise ParameterError(f"run() handles the monotone scheme; got {sim.scheme!r}")
    return _run_replicated(sim)


def run_benchmark(sim: SimConfig) -> SimulationReport:
    """Simulate a benchmark scheme (uniform length-2 code or ideal sampling)."""
    if sim.scheme not in (UNIFORM, IDEAL):
        raise ParameterError(f"run_benchmark() needs a benchmark scheme; got {sim.scheme!r}")
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
