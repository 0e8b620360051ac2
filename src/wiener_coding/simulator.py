"""Discrete-time Monte Carlo simulation of the sampling and coding protocol.

The engine walks a Wiener path on a grid of step eps and runs the monitor's
state machine.  A cycle starts at a delivery time D_n with the decoded
estimate ref and the previous code length L_n:

* X_n = W(D_n) - ref strictly inside (-b*sqrt(L_n), a*sqrt(L_n)): wait for
  the increment process to exit the constant band (events 2/3), decoded
  value exactly +-threshold.
* X_n beyond (or exactly on) a boundary: wait for the sloped threshold
  a*sqrt(L_n) + mu*t (or its mirror) started at D_n to catch the process
  (events 1/4); the monitor reconstructs tau from timestamps, so the
  decoded value is threshold + mu*tau_hat.

Crossings are detected at the first grid index satisfying the condition
(O(sqrt(eps)) overshoot accepted); the decoder always uses the
protocol-implied value, and thresholds are referenced to the decoded ledger
ref, so estimator and monitor agree exactly and discretization error never
accumulates across cycles.

A sample on a threshold boundary is classified as the sloped event: the
sloped hitting time from the boundary is zero in continuous time, so the
conventions agree up to a null event.  This also makes the a = b = 0
configuration runnable with infinite band codewords (the band is never
entered; the very first cycle starts from X = 0, i.e. on the boundary).

Transmission of length l occupies round(l/eps) grid indices, so SimConfig
requires every finite length (and the ideal scheme's unit delay) to be a
whole number >= 1 of grid steps, to within 1e-9 relative; the estimate
updates at delivery.  Measurement covers complete cycles starting after the
burn-in prefix of 1% of the horizon (the first cycle's previous length is
initialized to l2).

The grid must resolve the catch-up dynamics: decoded sloped values are
multiples of mu*eps, so keep mu*eps well below the process scale (the
reference experiments use mu*eps ~ 0.1).

Benchmarks: the uniform scheme is the same engine with all lengths 2; the
ideal scheme (which requires b = a) samples the exact real value whenever
|W - ref| >= a with the channel free and delivers it after exactly one time
unit.  All three schemes run through one cycle loop.

The path is never held in full: it is generated in blocks into a reused
window that keeps only the points from the current cycle start on, so memory
is bounded by the longest cycle, not by the horizon.  The block size does not
change any result.  The window only stores the path: its one scan takes a
``crossed(values, steps)`` predicate, like the hitting_times walker, and
_run_once holds every event's crossing rule (band levels, sloped lines).
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
_BURN_IN_FRAC = 0.01  # the share of the horizon before the first measured cycle


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


class CycleLog:
    """Columnar per-cycle log (measured cycles of one replication)."""

    def __init__(self, eps: float):
        self.eps = eps
        self.s_idx: list[int] = []
        self.d_idx: list[int] = []
        self.event: list[int] = []
        self.z: list[float] = []
        self.length: list[float] = []
        self.w_hat: list[float] = []
        self.reward: list[float] = []
        self.duration: list[float] = []

    def append(self, s_idx, d_idx, event, z, length, w_hat, reward, duration) -> None:
        self.s_idx.append(s_idx)
        self.d_idx.append(d_idx)
        self.event.append(event)
        self.z.append(z)
        self.length.append(length)
        self.w_hat.append(w_hat)
        self.reward.append(reward)
        self.duration.append(duration)

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
                "burn_in_frac": _BURN_IN_FRAC,
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
    n_cycles: int
    event_counts: np.ndarray
    lengths: np.ndarray
    log: CycleLog | None


# Grid points in a fresh path window; doubled when one cycle spans more.
_BLOCK = 1 << 17


class _PathWindow:
    """Grid points of one replication's Wiener path, generated block by block.

    Holds w[base:end] in a reused buffer.  A read past ``end`` keeps only the
    points from the earliest index the caller still needs (the current cycle
    start; at least the last point, which carries the running sum), moves
    them to the front and refills the rest.  The buffer doubles only when one
    cycle spans all of it, so memory follows the longest cycle, not the
    horizon.  Refills draw and sum in the same order as one full-length draw
    and cumsum, so the path does not depend on the block size.
    """

    def __init__(self, rng, n_steps: int, step_sd: float):
        self.rng = rng
        self.last = n_steps
        self.step_sd = step_sd
        size = min(_BLOCK, n_steps + 1)
        self.buf = np.zeros(size)
        self.offsets = np.arange(size, dtype=float)  # steps j - d since the cycle start
        self.base = 0
        self.end = 1  # w[0] = 0
        self._fill()

    def _fill(self) -> None:
        n = self.end - self.base
        count = min(self.buf.size - n, self.last + 1 - self.end)
        if count == 0:
            return
        block = self.buf[n:n + count]
        self.rng.standard_normal(out=block)
        block *= self.step_sd
        block[0] += self.buf[n - 1]
        np.cumsum(block, out=block)
        self.end += count

    def _extend(self, keep: int) -> bool:
        """Drop points before ``keep`` and generate more; False past the horizon."""
        if self.end > self.last:
            return False
        keep = min(keep, self.end - 1)
        live = self.buf[keep - self.base:self.end - self.base]
        if live.size == self.buf.size:
            self.buf = np.empty(2 * live.size)
            self.offsets = np.arange(self.buf.size, dtype=float)
        self.buf[:live.size] = live
        self.base = keep
        self._fill()
        return True

    def at(self, i: int) -> float:
        while i >= self.end:
            self._extend(i)
        return float(self.buf[i - self.base])

    def span(self, lo: int, hi: int) -> np.ndarray:
        """View of w[lo:hi]."""
        while hi > self.end:
            self._extend(lo)
        return self.buf[lo - self.base:hi - self.base]

    def first(self, d: int, start: int, crossed) -> int:
        """First index j >= start where the path crosses; -1 past the horizon.

        ``crossed(seg, k)`` maps a chunk seg = w[j0:j1] and k = j - d for its
        points to a bool array.  Chunks grow from 512 to 2**16 points, and the
        points from the cycle start d on stay in the window.
        """
        j0, chunk = start, 512
        while True:
            while j0 >= self.end:
                if not self._extend(d):
                    return -1
            j1 = min(j0 + chunk, self.end)
            hit = crossed(self.buf[j0 - self.base:j1 - self.base], self.offsets[j0 - d:j1 - d])
            k = int(hit.argmax())
            if hit[k]:
                return j0 + k
            j0 = j1
            chunk = min(chunk * 2, 1 << 16)


def _run_once(sim: SimConfig, rng, log_cycles: bool) -> _RepOutcome:
    """One replication of any scheme.

    The ideal scheme is the band scan started at the cycle start itself, with
    +-a on every cycle, the real-valued sample decoded, and unit delay.
    """
    cfg, eps = sim.cfg, sim.eps
    ideal = sim.scheme == IDEAL
    lens = (1.0, 1.0, 1.0, 1.0) if ideal else sim.cb.lengths
    n_steps = int(round(sim.horizon / eps))
    burn_idx = int(round(_BURN_IN_FRAC * n_steps))
    w = _PathWindow(rng, n_steps, math.sqrt(cfg.sigma2 * eps))
    a, b, mu = cfg.a, cfg.b, cfg.mu
    mu_eps = mu * eps
    len_idx = [int(round(l / eps)) if math.isfinite(l) else -1 for l in lens]

    ref = 0.0
    d = 0
    l_prev = lens[1]
    reward = 0.0
    duration = 0.0
    events = bytearray()
    log = CycleLog(eps) if log_cycles else None

    while d < n_steps:
        athr = a * math.sqrt(l_prev) if a > 0.0 else 0.0
        bthr = b * math.sqrt(l_prev) if b > 0.0 else 0.0
        x = w.at(d) - ref
        if ideal or -bthr < x < athr:
            # band exit (events 2/3); a tie (athr = bthr = 0) goes up
            up, dn = ref + athr, ref - bthr
            j = w.first(d, d if ideal else d + 1, lambda seg, k: (seg >= up) | (seg <= dn))
            if j < 0:
                break
            wj = w.at(j)
            event = 2 if wj >= up else 3
            z = wj - ref if ideal else (athr if event == 2 else -bthr)
        else:
            # the sloped line started at d catches the process (events 1/4); a
            # sample on the boundary is the sloped event (tau = 0 limit)
            upward = x >= athr
            thr = athr if upward else bthr
            if upward:
                j = w.first(d, d + 1, lambda seg, k: seg - ref <= thr + mu_eps * k)
            else:
                j = w.first(d, d + 1, lambda seg, k: seg - ref >= -(thr + mu_eps * k))
            if j < 0:
                break
            z = thr + mu * ((j - d) * eps)
            event, z = (1, z) if upward else (4, -z)
        steps = len_idx[event - 1]
        if steps < 0:
            raise WienerCodingError(
                f"event {event} with infinite code length occurred at index {j}"
            )
        d_new = j + steps
        if d_new > n_steps:
            break
        if d >= burn_idx:
            err = w.span(d, d_new) - ref
            sq = float(np.add.reduce(err * err)) * eps
            dur = (d_new - d) * eps
            reward += sq
            duration += dur
            events.append(event)
            if log is not None:
                log.append(j, d_new, event, z, lens[event - 1], ref + z, sq, dur)
        ref += z
        l_prev = lens[event - 1]
        d = d_new
    codes = np.frombuffer(events, dtype=np.uint8)
    counts = np.bincount(codes, minlength=5)[1:]
    lengths = np.array(lens)[codes - 1]
    return _RepOutcome(reward, duration, len(events), counts, lengths, log)


def _run_replicated(sim: SimConfig) -> SimulationReport:
    outcomes: list[_RepOutcome] = []
    for rep in range(sim.replications):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=sim.seed, spawn_key=(rep,)))
        out = _run_once(sim, rng, sim.log_cycles and rep == 0)
        if out.n_cycles == 0:
            raise HorizonError(
                f"replication {rep}: no complete cycle after burn-in; horizon too short"
            )
        outcomes.append(out)
    rep_mse = np.array([o.reward / o.duration for o in outcomes])
    rep_sr = np.array([o.n_cycles / o.duration for o in outcomes])
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
        n_cycles=sum(o.n_cycles for o in outcomes),
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


def length_independence_test(
    report: SimulationReport, min_cycles: int = 10_000
) -> IndependenceResult:
    """Chi-square contingency test on consecutive code-length pairs.

    Pairs are formed within each replication (no cross-replication pairs).
    Needs at least min_cycles cycles and at least two distinct length values.
    The one scipy function the package uses is imported here, on first call,
    so no CLI command loads scipy.
    """
    from scipy.special import chdtrc

    total = sum(len(seq) for seq in report.length_sequences)
    if total < min_cycles:
        raise ParameterError(f"need >= {min_cycles} cycles for the test, got {total}")
    seqs = [seq for seq in report.length_sequences if len(seq) >= 2]
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
    p_value = float(chdtrc(dof, statistic))
    return IndependenceResult(
        statistic=statistic,
        dof=dof,
        p_value=p_value,
        n_pairs=n_pairs,
    )
