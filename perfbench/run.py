"""Benchmark for wiener-coding: two workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload analytics|simulation|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`, never from an installed copy.  `--trace 0` measures the end-to-end
metrics with no instrumentation; workload times are given in units of a
fixed reference piece of work timed in the same run (`workloads.Reference`),
because the shared host's speed swings.  `--trace 1` gives the per-layer
metrics: it installs span wrappers on the package's public functions, alternates
traced and untraced iterations on the same inputs, and writes the spans to
`perfbench/out/spans-<workload>.csv`.  Metric names and units come from
BENCHMARK.json.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it are a
table for people, which also shows the failure share.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("analytics", "simulation")
MIN_ITERATIONS = 5  # untraced iterations per run, even past --seconds
MIN_TRACED_PAIRS = 2
SETUP_SAMPLES = 5  # fresh interpreters per run, for setup_s and the import profile
IMPORT_CMD = "from wiener_coding.cli import main"
MIB = 1 << 20


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter that runs
    `from wiener_coding.cli import main`, which every CLI call pays.  The
    caller has imported the package already, so the bytecode cache is
    written and the import is timed as a user's second call sees it."""
    cmd = [sys.executable, "-c", IMPORT_CMD]
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=child_env(), check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_profile(modules: tuple[str, ...]) -> dict:
    """`tracing.import_shares` of IMPORT_CMD under `-X importtime` in a fresh
    interpreter, median over SETUP_SAMPLES."""
    import tracing

    cmd = [sys.executable, "-X", "importtime", "-c", IMPORT_CMD]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(tracing.import_shares(proc.stderr, modules))
    return {m: statistics.median(s[m] for s in samples) for m in modules}


def normal_ns(seed: int) -> float:
    """Cost of one `Generator.standard_normal` draw into a preallocated
    buffer: the floor under the simulator's and sampler's per-step cost."""
    import numpy as np

    rng = np.random.default_rng(seed)
    buf = np.empty(1 << 20)
    times = []
    for _ in range(9):
        t0 = time.perf_counter()
        rng.standard_normal(out=buf)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / buf.size * 1e9


def worst_abs_pct(devs_per_iteration: list[list[float]]) -> float:
    """Median over iterations of the largest |deviation|, in percent."""
    worst = [100.0 * max(abs(d) for d in devs) for devs in devs_per_iteration if devs]
    return statistics.median(worst) if worst else 0.0


def op_time(it, name: str, rel: bool) -> float:
    """An operation's seconds, or with `rel` its seconds over the median
    seconds of the reference work timed before each of the iteration's
    operations.  A median over the iteration follows the host's swings as
    closely as the sample just before the operation does, and is steadier."""
    return it.op_s[name] / statistics.median(it.ref_s.values()) if rel else it.op_s[name]


def op_medians(its: list, rel: bool) -> dict:
    """Each operation's median time over the iterations it completed in.
    Bursts of host contention that hit different operations in different
    iterations are then all left out, as is a slow first iteration."""
    names = {n for it in its for n in it.op_s}
    return {n: statistics.median(op_time(it, n, rel) for it in its if n in it.op_s)
            for n in names}


def work_rates(its: list, rel: bool) -> dict:
    """Work per unit of time for each kind of work: the operations' median
    counts over their median times, both over the iterations the operation
    passed."""
    done: dict[str, list[float]] = {}
    for name in {n for it in its for n in it.work}:
        passed = [it for it in its if name in it.work]
        d = done.setdefault(passed[0].work[name][0], [0.0, 0.0])
        d[0] += statistics.median(it.work[name][1] for it in passed)
        d[1] += statistics.median(op_time(it, name, rel) for it in passed)
    return {kind: count / secs for kind, (count, secs) in done.items()}


def more(done: int, least: int, end: float, last: float) -> bool:
    """Start another iteration while the last one's length still fits
    before `end`, and always until `least` are done."""
    return done < least or time.perf_counter() + last <= end


def run_untraced(fn, seed: int, seconds: float) -> list:
    from workloads import Iteration

    its, end, last = [], time.perf_counter() + seconds, 0.0
    while more(len(its), MIN_ITERATIONS, end, last):
        t0 = time.perf_counter()
        it = Iteration(seed, len(its))
        fn(it, OUT)
        its.append(it)
        last = time.perf_counter() - t0
    return its


def end_to_end(name: str, seed: int, seconds: float) -> tuple[list, dict, dict]:
    from workloads import WORKLOADS

    fn, kind, _ = WORKLOADS[name]
    setup = setup_seconds()
    its = run_untraced(fn, seed, seconds)
    metrics = {
        "setup_s": setup,
        "wall_ref": sum(op_medians(its, rel=True).values()),
        # a kind whose operations all failed is absent
        "work_per_ref": work_rates(its, rel=True).get(kind, 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    refs = [r for it in its for r in it.ref_s.values()]
    shown = {
        "wall_s": (sum(op_medians(its, rel=False).values()), "s"),
        **{f"{k}_per_s": (v, "1/s") for k, v in work_rates(its, rel=False).items()},
        "ref_ms": (statistics.median(refs) * 1e3, "ms"),
    }
    if any(it.sr_dev for it in its):
        shown["sr_bias_pct"] = (worst_abs_pct([it.sr_dev for it in its]), "%")
    return its, metrics, shown


def _sim_counts(args, rep) -> dict:
    c = rep.config
    return {"steps": c.replications * round(c.horizon / c.eps), "cycles": rep.n_cycles}


ANNOTATE = {
    "simulator.run": _sim_counts,
    "simulator.run_benchmark": _sim_counts,
    "hitting_times.sample_hit_times": lambda args, times: {"steps": float(times.sum()) / args[1]},
}


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when the layer was not called."""
    if not values:
        return 0.0
    return sorted(values)[max(0, math.ceil(q / 100.0 * len(values)) - 1)]


def per_layer(name: str, seed: int, seconds: float) -> tuple[list, dict, dict]:
    import tracing
    from wiener_coding import simulator
    from workloads import WORKLOADS, Iteration

    fn, _, peak_config = WORKLOADS[name]
    imports = import_profile(("wiener_coding", "scipy.stats", "scipy.optimize"))
    ref_normal_ns = normal_ns(seed)
    tracer = tracing.Tracer(name, ANNOTATE)
    warmup = Iteration(seed, 0)  # first calls are slower; kept out of the overhead ratio
    fn(warmup, OUT)
    plain, traced, end, last = [], [], time.perf_counter() + seconds, 0.0
    while more(len(traced), MIN_TRACED_PAIRS, end, last):
        t0 = time.perf_counter()
        it = Iteration(seed, len(traced))
        fn(it, OUT)
        plain.append(it)
        it = Iteration(seed, len(traced), tracer)
        tracer.install()
        try:
            fn(it, OUT)
        finally:
            tracer.uninstall()
        traced.append(it)
        last = time.perf_counter() - t0
    tracer.write(OUT / f"spans-{name}.csv")

    peak_mib = path_mib = 0.0
    if peak_config is not None:
        cfg = peak_config(seed)
        tracemalloc.start()
        try:
            simulator.run(cfg)
            peak_mib = tracemalloc.get_traced_memory()[1] / MIB
        finally:
            tracemalloc.stop()
        path_mib = 8 * cfg.replications * round(cfg.horizon / cfg.eps) / MIB

    spans, n = tracer.spans, len(traced)

    def of(span_name: str) -> list:
        return [s for s in spans if s.name == span_name]

    def calls(span_name: str) -> float:
        return len(of(span_name)) / n

    def seconds_in(span_name: str) -> float:
        return sum(s.duration for s in of(span_name)) / n

    def attr(span_name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0.0) for s in of(span_name)) / n

    def dur(span_name: str, q: float, scale: float) -> float:
        return _pct([s.duration * scale for s in of(span_name)], q)

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    inside_optimize = [s for s in of("code_optimizer.dinkelbach_solve")
                       if _has_ancestor(spans, s, "code_optimizer.optimize_threshold")]
    sim_s = seconds_in("simulator.run") + seconds_in("simulator.run_benchmark")
    steps = attr("simulator.run", "steps") + attr("simulator.run_benchmark", "steps")
    cycles = attr("simulator.run", "cycles") + attr("simulator.run_benchmark", "cycles")
    plain_wall = sum(op_medians(plain, rel=True).values())
    traced_wall = sum(op_medians(traced, rel=True).values())
    both = [warmup, *plain, *traced]
    metrics = {
        "import.wiener_coding_ms": imports["wiener_coding"],
        "import.scipy_stats_ms": imports["scipy.stats"],
        "import.scipy_optimize_ms": imports["scipy.optimize"],
        "cli.self_ms": sum(tracing.self_times(spans, "cli.main")) * 1e3 / n,
        "gauss_stats.scheme_constants.calls": calls("gauss_stats.scheme_constants"),
        "gauss_stats.scheme_constants.us_p50": dur("gauss_stats.scheme_constants", 50, 1e6),
        "mse_model.mse_large_mu.calls": calls("mse_model.mse_large_mu"),
        "mse_model.mse_large_mu.us_p50": dur("mse_model.mse_large_mu", 50, 1e6),
        "mse_model.mse_exact.us_p50": dur("mse_model.mse_exact", 50, 1e6),
        "code_optimizer.solve_qp.calls": calls("code_optimizer.solve_qp"),
        "code_optimizer.solve_qp.us_p50": dur("code_optimizer.solve_qp", 50, 1e6),
        "code_optimizer.dinkelbach_solve.calls": calls("code_optimizer.dinkelbach_solve"),
        "code_optimizer.dinkelbach_solve.ms_p50": dur("code_optimizer.dinkelbach_solve", 50, 1e3),
        "code_optimizer.dinkelbach_solve.ms_p99": dur("code_optimizer.dinkelbach_solve", 99, 1e3),
        "code_optimizer.qp_per_dinkelbach": per(calls("code_optimizer.solve_qp"),
                                                calls("code_optimizer.dinkelbach_solve")),
        "code_optimizer.evals_per_optimize": per(len(inside_optimize),
                                                 len(of("code_optimizer.optimize_threshold"))),
        "code_optimizer.infeasible": sum(s.error == "InfeasibleError"
                                         for s in of("code_optimizer.dinkelbach_solve")) / n,
        "simulator.run.s": seconds_in("simulator.run"),
        "simulator.run_benchmark.s": seconds_in("simulator.run_benchmark"),
        "simulator.steps": steps,
        "simulator.cycles": cycles,
        "simulator.ns_per_step": per(sim_s, steps, 1e9),
        "simulator.us_per_cycle": per(sim_s, cycles, 1e6),
        "simulator.peak_mb": peak_mib,
        "simulator.path_mb": path_mib,
        "simulator.to_json_ms": seconds_in("simulator.to_json") * 1e3,
        "simulator.cycles_to_csv_ms": seconds_in("simulator.cycles_to_csv") * 1e3,
        "simulator.independence_ms": seconds_in("simulator.length_independence_test") * 1e3,
        "simulator.sr_bias_pct": worst_abs_pct([it.sr_dev for it in both]),
        "simulator.mse_bias_pct": worst_abs_pct([it.mse_dev for it in both]),
        "hitting_times.sample_hit_times.s": seconds_in("hitting_times.sample_hit_times"),
        "hitting_times.ns_per_path_step": per(seconds_in("hitting_times.sample_hit_times"),
                                              attr("hitting_times.sample_hit_times", "steps"),
                                              1e9),
        "mse_model.mse_integral_oracle.s": seconds_in("mse_model.mse_integral_oracle"),
        "ref.normal_ns": ref_normal_ns,
        "trace.overhead_pct": 100.0 * (traced_wall / plain_wall - 1.0),
    }
    return both, metrics, {"traced_iterations": (n, ""), "spans": (len(spans), "")}


def _has_ancestor(spans, span, name: str) -> bool:
    p = span.parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def run_one(args, spec: dict) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    its, metrics, shown = measure(args.workload, args.seed, args.seconds)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(units) != set(metrics):
        raise SystemExit(f"metrics {sorted(set(units) ^ set(metrics))} are not both "
                         "computed and listed in BENCHMARK.json")
    attempted = sum(it.attempted for it in its)
    failures = [f for it in its for f in it.failures]
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  iterations {len(its)}  "
          f"trace {args.trace}")
    for key, (value, unit) in {**{k: (v, units[k]) for k, v in metrics.items()},
                               **shown}.items():
        print(f"  {key:<42} {value:>16.6g} {unit}")
    print(f"  {'fail_rate':<42} {len(failures) / attempted:>16.6g} "
          f"({len(failures)} of {attempted} operations)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "wiener_coding" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no package source under {SRC} or no {spec_path.name}; run from the "
              "root of a wiener-coding checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args, json.loads(spec_path.read_text()))


if __name__ == "__main__":
    sys.exit(main())
