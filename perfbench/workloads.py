"""The benchmark's workloads and the checks on every operation's output.

Four parts (design, simulate, validate, oracles) each run a fixed list of
operations, each timed on its own and then checked; the two workloads at
the end run them in pairs.  Checks run outside the timed region.  An
operation that raises, or whose output fails a check, counts as failed.
Why each workload exists is written in README.md beside this file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

from wiener_coding import cli, hitting_times, mse_model, simulator
from wiener_coding.gauss_stats import ThresholdConfig, event_probabilities
from wiener_coding.hitting_times import DriftHitSpec

# ---------------------------------------------------------------- harness --


class CheckFailed(Exception):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def derive_seed(seed: int, *keys: int) -> int:
    """Replication seed for (iteration, operation, ...) from the workload seed."""
    return int(np.random.SeedSequence(seed, spawn_key=keys).generate_state(1)[0])


class Reference:
    """A fixed piece of work, timed just before every operation: one
    `standard_normal` fill of 2**20 doubles (array work) and a pure-Python
    loop (interpreter work), the two kinds of work the package does.  The
    shared host's speed swings by up to 2x over minutes; the reference's
    time follows those swings, so an operation's time over the reference's
    moves with them much less than the operation's time alone."""

    LOOP = 300_000

    def __init__(self) -> None:
        self._rng = np.random.default_rng(0)
        self._buf = np.empty(1 << 20)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self._rng.standard_normal(out=self._buf)
        s = 0
        for i in range(self.LOOP):
            s += i * i % 7
        return time.perf_counter() - t0


REFERENCE = Reference()


@dataclass
class Iteration:
    """Timings, work counts and check outcomes of one pass over a workload."""

    seed: int
    index: int
    tracer: object = None
    op_s: dict = field(default_factory=dict)  # operation -> seconds, checks excluded
    ref_s: dict = field(default_factory=dict)  # operation -> REFERENCE's seconds before it
    work: dict = field(default_factory=dict)  # operation -> (kind, count), if it passed
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    sr_dev: list[float] = field(default_factory=list)  # simulated / closed form - 1
    mse_dev: list[float] = field(default_factory=list)

    def op(self, name: str, fn, check=None, work=None):
        """Time REFERENCE, run `fn()` timed, then `check(out)`.  `name` is unique within an
        iteration.  `work` is (kind, count), the count possibly a function
        of the output.  Returns the output, or None on failure."""
        self.attempted += 1
        self.ref_s[name] = REFERENCE()
        try:
            if self.tracer is not None:
                self.tracer.active = True
            t0 = time.perf_counter()
            try:
                out = fn()
            finally:
                dt = time.perf_counter() - t0
                if self.tracer is not None:
                    self.tracer.active = False
            self.op_s[name] = dt
            if check is not None:
                check(out)
        except Exception:  # noqa: BLE001 - one failed operation must not end the run
            self.failures.append(f"{name}: {traceback.format_exc(limit=3).strip()}")
            return None
        if work is not None:
            kind, count = work
            self.work[name] = (kind, count(out) if callable(count) else count)
        return out


def cli_call(argv: list[str]) -> tuple[int, str]:
    """`main(argv)` with stdout captured; looked up on the module at call
    time so that the traced run reaches the wrapper."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse rejects argv by exiting
            rc = e.code
    return rc, buf.getvalue()


def csv_rows(text: str) -> list[dict]:
    require(bool(text.strip()), "command wrote no output")
    return list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))


# ----------------------------------------------------------------- design --
# The optimizer grids are coarser than the CLI's default 0.01 so that one
# iteration takes a few seconds and a run holds several.  Values printed by
# the seed commit.
# Tolerances are no tighter than the solvers': theta and MSE 1e-8
# (bisection stops at |J| <= 1e-9), a* 1e-4 (golden-section refinement
# stops at width 1e-5).  Closed forms get 1e-6 relative, which also absorbs
# the O(1/mu) terms at the CLI's default mu.

_ANALYZE_GRID, _OPT_GRID, _SWEEP_GRID = "0:3:0.01", "0:3:0.03", "0:2:0.1"
_ANALYZE_A1 = {
    "mse_large_mu": 2.8020053204014825,
    "sr_large_mu": 0.33694051764915667,
    "mse_exact": 2.802005876725298,
    "sr_exact": 0.3369404908958734,
}
_OPTIMUM = {  # fmax -> (a*, theta*, mse, active set)
    "0.5": (2.053725421878943, 2.46214718992422, 2.4621471901409393, "kraft"),
    "inf": (0.0, 1.499999999650754, 1.5, "kraft"),
}
_SWEEP_MIN_MSE = {"inf": 1.499999999650754, "0.5": 2.463132453478207, "0.2": 2.463132453478207}
_MSE_UNIFORM_A1 = 2.8020053204014825


def _check_analyze(out) -> None:
    rc, text = out
    require(rc == 0, f"exit code {rc}")
    rows = csv_rows(text)
    require(len(rows) == 301, f"{len(rows)} rows, want 301")
    require(all(math.isfinite(float(r["mse_exact"])) for r in rows), "non-finite MSE")
    row = next(r for r in rows if float(r["a"]) == 1.0)
    for key, want in _ANALYZE_A1.items():
        require(math.isclose(float(row[key]), want, rel_tol=1e-6), f"{key} at a=1: {row[key]}")


def _check_optimize(fmax: str):
    a_star, theta, mse, active = _OPTIMUM[fmax]

    def check(out) -> None:
        rc, text = out
        require(rc == 0, f"exit code {rc}")
        (row,) = csv_rows(text)
        require(math.isclose(float(row["a_star"]), a_star, abs_tol=1e-4), f"a* {row['a_star']}")
        require(math.isclose(float(row["theta_star"]), theta, abs_tol=1e-8),
                f"theta* {row['theta_star']}")
        require(math.isclose(float(row["mse"]), mse, abs_tol=1e-8), f"mse {row['mse']}")
        require(row["active"] == active, f"active set {row['active']}")

    return check


def _check_sweep(out) -> None:
    rc, text = out
    require(rc == 0, f"exit code {rc}")
    rows = csv_rows(text)
    require(len(rows) == 63, f"{len(rows)} rows, want 3 x 21")
    for fmax, want in _SWEEP_MIN_MSE.items():
        got = min(float(r["mse_opt"]) for r in rows if r["fmax"] == fmax)
        require(math.isclose(got, want, abs_tol=1e-8), f"min mse_opt at fmax {fmax}: {got}")
    uni = [float(r["mse_uniform"]) for r in rows if float(r["a"]) == 1.0]
    require(all(math.isclose(u, _MSE_UNIFORM_A1, rel_tol=1e-6) for u in uni), "mse_uniform at a=1")


DESIGN_OPS = (  # argv, threshold points, check
    (["analyze", "--l", "2,2,2,2", "--grid", _ANALYZE_GRID], 301, _check_analyze),
    (["optimize", "--fmax", "0.5", "--grid", _OPT_GRID], 101, _check_optimize("0.5")),
    (["optimize", "--fmax", "inf", "--grid", _OPT_GRID], 101, _check_optimize("inf")),
    (["sweep", "--grid", _SWEEP_GRID, "--fmax", "inf,0.5,0.2"], 63, _check_sweep),
)


def design(it: Iteration, workdir: Path) -> None:
    """Inputs are fixed; the seed plays no part."""
    for argv, points, check in DESIGN_OPS:
        it.op(" ".join(argv[:3]), lambda: cli_call(argv), check, work=("points", points))


# --------------------------------------------------------------- simulate --
# The README invocation, with 2 replications in place of 20 so that one
# iteration takes a few seconds and a run holds several iterations.

SIM_REPS = 2
_SIM_CFG = ThresholdConfig(1.0, 1.0, 10.0)
_SIM_CB = mse_model.Codebook(2.0, 2.0, 2.0, 2.0, mode=mse_model.INTEGER)
_SIM_EPS, _SIM_HORIZON = 1e-2, 1e5
_CSV_HEADER = ["s_n", "d_n", "event", "z_n", "length"]


def simulate_config(seed: int, reps: int = SIM_REPS) -> simulator.SimConfig:
    """The SimConfig the CLI builds from the simulate argv below."""
    return simulator.SimConfig(_SIM_EPS, _SIM_HORIZON, _SIM_CFG, _SIM_CB, seed,
                               replications=reps, log_cycles=True)


def _sim_argv(seed: int, report: Path, cycles: Path) -> list[str]:
    return ["simulate", "--a", "1", "--b", "1", "--mu", "10", "--l", "2,2,2,2",
            "--eps", repr(_SIM_EPS), "--horizon", repr(_SIM_HORIZON), "--seed", str(seed),
            "--reps", str(SIM_REPS), "--out", str(report), "--cycles-out", str(cycles)]


def _record_dev(it: Iteration, sr: float, mse: float, ref_mse: float, ref_sr: float) -> None:
    it.sr_dev.append(sr / ref_sr - 1.0)
    it.mse_dev.append(mse / ref_mse - 1.0)


def _check_first_outputs(doc: dict, seed: int, cycles: Path, schema_path: Path) -> None:
    jsonschema.validate(doc, json.loads(schema_path.read_text()))
    require(doc["spec"]["seed"] == seed and doc["spec"]["replications"] == SIM_REPS,
            "report spec does not echo the argv")
    res = doc["results"]
    require(sum(res["event_counts"].values()) == res["n_cycles"] > 0, "event counts")
    # replication 0 alone, through the API, must give the logged rows
    ref = simulator.run(simulate_config(seed, reps=1))
    with open(cycles, newline="") as fh:
        rows = list(csv.reader(fh))
    require(rows[0] == _CSV_HEADER, f"CSV header {rows[0]}")
    want = [[r.s_n, r.d_n, r.event, r.z_n, r.length] for r in ref.cycles.records()]
    got = [[float(r[0]), float(r[1]), int(r[2]), float(r[3]), float(r[4])] for r in rows[1:]]
    require(got == want, f"{len(got)} CSV rows differ from the {len(want)} logged cycles")
    require(res["rep_mse"][0] == ref.rep_mse[0], "replication 0 MSE differs from the API")


def simulate(it: Iteration, workdir: Path) -> None:
    """Every iteration runs the same seed.  Iteration 0's outputs get the
    full check; later outputs must be byte-identical to them, which checks
    determinism and leaves more of the run for measuring."""
    seed = derive_seed(it.seed, 0)
    outputs = (workdir / "report.json", workdir / "cycles.csv")
    firsts = tuple(p.with_name("first-" + p.name) for p in outputs)
    for p in outputs:
        p.unlink(missing_ok=True)
    schema_path = Path(simulator.__file__).parent / "schemas" / "report.schema.json"

    def check(out) -> None:
        rc, _ = out
        require(rc == 0, f"exit code {rc}")
        require(all(p.is_file() for p in outputs), "--out or --cycles-out not written")
        doc = json.loads(outputs[0].read_text())
        if it.index == 0:
            _check_first_outputs(doc, seed, outputs[1], schema_path)
            for p, first in zip(outputs, firsts):
                shutil.copyfile(p, first)
        else:
            require(all(p.read_bytes() == first.read_bytes() for p, first in zip(outputs, firsts)),
                    "outputs differ from iteration 0's for the same seed")
        ex = mse_model.mse_exact(_SIM_CFG, _SIM_CB)
        _record_dev(it, doc["results"]["sr_hat"], doc["results"]["mse_hat"], ex.mse, ex.sr)

    steps = SIM_REPS * round(_SIM_HORIZON / _SIM_EPS)
    it.op("simulate", lambda: cli_call(_sim_argv(seed, *outputs)), check,
          work=("grid_steps", steps))


# --------------------------------------------------------------- validate --
# Simulation against the analytics through the API.  The deviations are
# recorded as measured values; the 15% gate only catches gross errors (the
# ideal scheme's SR bias is about -6% at a = 1.5 and eps = 1e-2).

VAL_A = (0.25, 0.5, 1.0, 1.5)
VAL_EPS, VAL_HORIZON, VAL_REPS = 1e-2, 1e4, 2
_UNIFORM_CB = mse_model.Codebook.uniform(2, mode=mse_model.INTEGER)
C9_CFG = ThresholdConfig(1.0, 1.0, 10.0)
C9_CB = mse_model.Codebook.integer(1, 3, 4, 5)
C9_EPS, C9_HORIZON = 1e-3, 6e4  # the independence test needs 10000 cycles
GROSS_DEV = 0.15


def _check_report(it: Iteration, ref_mse: float, ref_sr: float):
    def check(rep) -> None:
        require(rep.n_cycles > 0 and int(rep.event_counts.sum()) == rep.n_cycles, "event counts")
        require(math.isfinite(rep.mse_hat) and math.isfinite(rep.sr_hat), "non-finite estimate")
        _record_dev(it, rep.sr_hat, rep.mse_hat, ref_mse, ref_sr)
        require(abs(it.sr_dev[-1]) <= GROSS_DEV, f"SR off by {it.sr_dev[-1]:.1%}")
        require(abs(it.mse_dev[-1]) <= GROSS_DEV, f"MSE off by {it.mse_dev[-1]:.1%}")

    return check


def _check_c9_marginals(it: Iteration, ref_mse: float, ref_sr: float):
    base = _check_report(it, ref_mse, ref_sr)

    def check(rep) -> None:
        base(rep)
        p = np.array(event_probabilities(C9_CFG).as_tuple())
        n = rep.n_cycles
        dev = np.abs(rep.event_counts - n * p) / np.sqrt(n * p * (1 - p))
        require(bool(np.all(dev <= 5.0)), f"event marginals off by {dev.max():.1f} sigma")

    return check


def _check_independence(rep):
    def check(res) -> None:
        require(0.0 <= res.p_value <= 1.0, f"p-value {res.p_value}")
        require(res.dof == 9 and res.n_pairs == rep.n_cycles - 1, "contingency table shape")

    return check


def validate(it: Iteration, workdir: Path) -> None:
    steps = VAL_REPS * round(VAL_HORIZON / VAL_EPS)
    for k, a in enumerate(VAL_A):
        cfg = ThresholdConfig(a, a, 10.0)
        seed = derive_seed(it.seed, it.index, k)
        ex = mse_model.mse_exact(cfg, _UNIFORM_CB)
        it.op(f"run a={a}", lambda: simulator.run(simulator.SimConfig(
            VAL_EPS, VAL_HORIZON, cfg, _UNIFORM_CB, seed, replications=VAL_REPS)),
            _check_report(it, ex.mse, ex.sr), work=("grid_steps", steps))
        ideal_mse, ideal_sr = mse_model.ideal_benchmark_mse(a)
        it.op(f"ideal a={a}", lambda: simulator.run_benchmark(simulator.SimConfig(
            VAL_EPS, VAL_HORIZON, cfg, None, seed, scheme=simulator.IDEAL,
            replications=VAL_REPS)),
            _check_report(it, ideal_mse, ideal_sr), work=("grid_steps", steps))
    ex = mse_model.mse_exact(C9_CFG, C9_CB)
    rep = it.op("run C9", lambda: simulator.run(c9_config(derive_seed(it.seed, it.index, 9))),
                _check_c9_marginals(it, ex.mse, ex.sr),
                work=("grid_steps", round(C9_HORIZON / C9_EPS)))
    if rep is not None:
        it.op("independence", lambda: simulator.length_independence_test(rep),
              _check_independence(rep))


def c9_config(seed: int) -> simulator.SimConfig:
    return simulator.SimConfig(C9_EPS, C9_HORIZON, C9_CFG, C9_CB, seed, replications=1)


# ---------------------------------------------------------------- oracles --
# C3's (c, mu) pairs at step 1e-4, each path count chosen so the three cost
# about the same number of path steps (1.6e7), and C4's three stops at C4's
# size.  C3's 2% bound is a bias budget: at these sizes one standard error of
# the second moment is about 6% for (1,1) and (2,1), so the gate is 2% plus 5
# standard errors.  C4's identity is exact in expectation, so its gate is
# |z| <= 5 (C4 uses 1.96, which fails one seed in twenty by chance).

HIT_STEP = 1e-4
HIT_SPECS = ((1.0, 1.0, 1_600), (2.0, 1.0, 800), (1.0, 10.0, 16_000))
C4_STOPS = (mse_model.DeterministicStop(1.0), mse_model.BandStop(1, 1), mse_model.SlopedStop(1, 2))
C4_PATHS, C4_STEP = 20_000, 1e-3
Z_GATE = 5.0
# The sloped stop's per-path values are heavy-tailed, so one call's own
# standard error of the paired difference is mostly too small: over 200 seeds
# at C4's size its median was 0.032, the spread of the difference itself
# 0.039 (mean -0.001), and |z| by the call's own error reached 5.3.  Its gate
# uses the larger of the two.
SLOPED_DIFF_SD = 0.039


def _check_moments(spec: DriftHitSpec, n: int):
    def check(times) -> None:
        require(times.shape == (n,) and bool(np.all(times > 0)), "hit times missing or <= 0")
        m = hitting_times.hit_moments(spec)
        for k in (1, 2):
            x = times**k
            gate = 0.02 * m[k - 1] + Z_GATE * float(x.std(ddof=1)) / math.sqrt(n)
            require(abs(float(x.mean()) - m[k - 1]) <= gate,
                    f"moment {k} of {spec}: {x.mean()} vs {m[k - 1]}")

    return check


def _check_identity(stop):
    def check(r) -> None:
        require(r.n_truncated == 0, f"{r.n_truncated} paths truncated")
        se = max(r.diff_se, SLOPED_DIFF_SD) if isinstance(stop, mse_model.SlopedStop) else r.diff_se
        require(abs(r.diff) <= Z_GATE * se, f"paired z {r.diff / se:.2f}")
        if isinstance(stop, mse_model.DeterministicStop):  # both sides equal t^2/2
            want = stop.t**2 / 2
            require(abs(r.lhs - want) <= Z_GATE * r.lhs_se, f"lhs {r.lhs}")
            require(abs(r.rhs - want) <= Z_GATE * r.rhs_se, f"rhs {r.rhs}")

    return check


def oracles(it: Iteration, workdir: Path) -> None:
    for k, (c, mu, n) in enumerate(HIT_SPECS):
        spec = DriftHitSpec(c, mu)
        seed = derive_seed(it.seed, it.index, k)
        it.op(f"hit c={c} mu={mu}",
              lambda: hitting_times.sample_hit_times(spec, HIT_STEP, n, seed),
              _check_moments(spec, n), work=("path_steps", lambda t: float(t.sum()) / HIT_STEP))
    for k, stop in enumerate(C4_STOPS):
        seed = derive_seed(it.seed, it.index, 10 + k)
        it.op(type(stop).__name__,
              lambda: mse_model.mse_integral_oracle(stop, n_paths=C4_PATHS, step=C4_STEP,
                                                    seed=seed),
              _check_identity(stop))


# ------------------------------------------------------------- workloads --
# The four parts above are run as two workloads, in pairs.  On
# a shared 2-core VM, interpreter-bound timings (design, simulate) spread by
# 25-40% over ten runs, while the numpy-bound parts (validate, oracles) stay
# near 5-15%; each pair mixes one of each so that every run meets its bound.
# Each pair still leaves one side untouched by a change: an optimizer change
# moves only `analytics`, and a simulator change moves only `simulation`.


def analytics(it: Iteration, workdir: Path) -> None:
    """Closed forms, optimizer and CLI (design), then the Monte Carlo
    oracles.  No simulator call."""
    design(it, workdir)
    oracles(it, workdir)


def simulation(it: Iteration, workdir: Path) -> None:
    """The README simulate command, then simulation against the analytics
    through the API.  No optimizer call."""
    simulate(it, workdir)
    validate(it, workdir)


# workload -> (iteration function, kind of work its work_per_ref counts,
# config of the simulator call whose memory peak the traced run reports:
# the README simulate run's)
WORKLOADS = {
    "analytics": (analytics, "path_steps", None),
    "simulation": (simulation, "grid_steps", lambda seed: simulate_config(derive_seed(seed, 0))),
}
