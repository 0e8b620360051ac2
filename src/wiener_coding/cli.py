"""Command-line front end: analyze / optimize / simulate / sweep.

Value resolution: command-line flags override config-file entries, which
override built-in defaults.  The config file is flat ``key = value`` text
(keys are the long flag names without dashes, # starts a comment).

Relative --out paths are placed under $WIENER_CODING_OUTDIR when it is set.
Existing output files are never overwritten without --force.  Outputs embed
the resolved parameter set and contain nothing non-deterministic, so the
same invocation always produces byte-identical files.

Exit codes: 0 success, 2 usage/parameter error, 3 infeasible, 4 runtime.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .code_optimizer import (
    RateConstraint,
    dinkelbach_solve,
    integer_oracle,
    optimize_threshold,
    threshold_grid,
)
from .errors import (
    HorizonError,
    InfeasibleError,
    ParameterError,
    WienerCodingError,
)
from .gauss_stats import ThresholdConfig, scheme_constants
from .mse_model import INTEGER, Codebook, ideal_benchmark_mse, mse_exact
from .simulator import IDEAL, MONOTONE, UNIFORM, SimConfig, run, run_benchmark

__all__ = ["main", "entry"]

ENV_OUTDIR = "WIENER_CODING_OUTDIR"

_DEFAULTS = {
    "a": None,
    "b": None,
    "mu": "inf",
    "sigma2": "1",
    "l": None,
    "fmax": "inf",
    "grid": "0:3:0.01",
    "eps": "1e-2",
    "horizon": "1e5",
    "seed": "0",
    "reps": None,
    "format": "csv",
    "scheme": MONOTONE,
    "out": None,
}


def _parse_lengths(text: str) -> tuple[float, float, float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ParameterError(f"--l: expected four comma-separated lengths, got {text!r}")
    try:
        vals = tuple(float(p) for p in parts)
    except ValueError as e:
        raise ParameterError(f"--l: could not parse {text!r}: {e}") from None
    return vals  # type: ignore[return-value]


def _parse_grid(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParameterError(f"--grid: expected lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as e:
        raise ParameterError(f"--grid: could not parse {text!r}: {e}") from None
    return lo, hi, step


def _parse_float(name: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParameterError(f"--{name}: could not parse {text!r} as a number") from None


def _parse_int(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"--{name}: could not parse {text!r} as an integer") from None


def _parse_fmax_list(text: str) -> list[float]:
    out = []
    for part in text.split(","):
        out.append(_parse_float("fmax", part.strip()))
    return out


def _read_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as e:
        raise ParameterError(f"--config: cannot read {path!r}: {e}") from None
    for i, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"--config: line {i} is not 'key = value': {raw!r}")
        key, value = line.split("=", 1)
        cfg[key.strip().lower()] = value.strip()
    return cfg


class _Resolver:
    """flags > config file > defaults; raises when a required key is absent."""

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        self.config = _read_config(args.config) if getattr(args, "config", None) else {}

    def raw(self, key: str) -> str | None:
        v = self.args.get(key)
        if v is not None:
            return str(v)
        if key in self.config:
            return self.config[key]
        return _DEFAULTS.get(key)

    def require(self, key: str) -> str:
        v = self.raw(key)
        if v is None:
            raise ParameterError(f"missing required parameter --{key}")
        return v


def _resolve_out(path: str | None) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    outdir = os.environ.get(ENV_OUTDIR)
    if outdir and not p.is_absolute():
        p = Path(outdir) / p
    return p


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit(rows: list[dict], meta: dict, fmt: str, out: Path | None, force: bool) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        for key in sorted(meta):
            buf.write(f"# {key}={meta[key]}\n")
        writer = csv.writer(buf)
        if rows:
            cols = list(rows[0].keys())
            writer.writerow(cols)
            for row in rows:
                writer.writerow([_fmt_cell(row[c]) for c in cols])
        text = buf.getvalue()
    elif fmt == "json":
        def _clean(v):
            if isinstance(v, float) and not math.isfinite(v):
                return None if math.isnan(v) else ("inf" if v > 0 else "-inf")
            return v

        payload = {
            "spec": meta,
            "rows": [{k: _clean(v) for k, v in row.items()} for row in rows],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        raise ParameterError(f"--format must be csv or json, got {fmt!r}")
    if out is None:
        sys.stdout.write(text)
        return
    if out.exists() and not force:
        raise ParameterError(f"refusing to overwrite {out} (pass --force)")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)


def _cfg_from(res: _Resolver, a: float, b: float) -> ThresholdConfig:
    return ThresholdConfig(
        a, b, _parse_float("mu", res.require("mu")), _parse_float("sigma2", res.require("sigma2"))
    )


def _require_finite_mu(mu: float) -> None:
    if math.isinf(mu):
        raise ParameterError(
            "--mu: the simulator needs a finite slope; the default mu = inf is the "
            "closed forms' large-slope limit"
        )


def cmd_analyze(res: _Resolver, force: bool) -> int:
    lengths = _parse_lengths(res.require("l"))
    cb = Codebook.relaxed(*lengths)
    if res.raw("a") is not None or res.raw("b") is not None:
        a = _parse_float("a", res.require("a"))
        b = _parse_float("b", res.require("b"))
        points = [(a, b)]
    else:
        points = [(a, a) for a in threshold_grid(_parse_grid(res.require("grid")))]
    rows = []
    for a, b in points:
        cfg = _cfg_from(res, a, b)
        sc = scheme_constants(cfg)
        exact = mse_exact(cfg, cb)
        large = mse_exact(replace(cfg, mu=math.inf), cb)
        rows.append(
            {
                "a": a,
                "b": b,
                "mu": cfg.mu,
                "sigma2": cfg.sigma2,
                "p1": sc.probs.p1,
                "p2": sc.probs.p2,
                "p3": sc.probs.p3,
                "p4": sc.probs.p4,
                "K": sc.k,
                "D": sc.d,
                "mse_large_mu": large.mse,
                "sr_large_mu": large.sr,
                "mse_exact": exact.mse,
                "sr_exact": exact.sr,
            }
        )
    meta = {
        "command": "analyze",
        "l": ",".join(repr(x) for x in lengths),
        "mu": res.require("mu"),
        "sigma2": res.require("sigma2"),
    }
    _emit(rows, meta, res.require("format"), _resolve_out(res.raw("out")), force)
    return 0


def cmd_optimize(res: _Resolver, force: bool) -> int:
    fmax = _parse_float("fmax", res.require("fmax"))
    grid = _parse_grid(res.require("grid"))
    result = optimize_threshold(RateConstraint(fmax), a_grid=grid)
    rows = [
        {
            "a_star": result.a_star,
            "l1": result.lengths.l1,
            "l2": result.lengths.l2,
            "l3": result.lengths.l3,
            "l4": result.lengths.l4,
            "theta_star": result.theta_star,
            "mse": result.mse,
            "sr": result.sr,
            "kraft_slack": result.kraft_slack,
            "rate_slack": result.rate_slack,
            "active": "|".join(result.active),
            "capped": result.capped,
        }
    ]
    meta = {"command": "optimize", "fmax": res.require("fmax"), "grid": res.require("grid")}
    _emit(rows, meta, res.require("format"), _resolve_out(res.raw("out")), force)
    return 0


def _sim_config(res: _Resolver, scheme: str, log_cycles: bool) -> SimConfig:
    a = _parse_float("a", res.require("a"))
    b = _parse_float("b", res.require("b"))
    cfg = _cfg_from(res, a, b)
    _require_finite_mu(cfg.mu)
    cb = None
    if scheme == MONOTONE:
        cb = Codebook(*_parse_lengths(res.require("l")), mode=INTEGER)
    reps_raw = res.raw("reps")
    kwargs = {} if reps_raw is None else {"replications": _parse_int("reps", reps_raw)}
    return SimConfig(
        eps=_parse_float("eps", res.require("eps")),
        horizon=_parse_float("horizon", res.require("horizon")),
        cfg=cfg,
        cb=cb,
        seed=_parse_int("seed", res.require("seed")),
        scheme=scheme,
        log_cycles=log_cycles,
        **kwargs,
    )


def cmd_simulate(res: _Resolver, force: bool, cycles_out: str | None) -> int:
    scheme = res.require("scheme")
    sim = _sim_config(res, scheme, log_cycles=cycles_out is not None)
    report = run(sim) if scheme == MONOTONE else run_benchmark(sim)
    out = _resolve_out(res.raw("out"))
    if out is None:
        sys.stdout.write(json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
    else:
        if out.exists() and not force:
            raise ParameterError(f"refusing to overwrite {out} (pass --force)")
        out.parent.mkdir(parents=True, exist_ok=True)
        report.to_json(out)
    if cycles_out is not None:
        cpath = _resolve_out(cycles_out)
        if cpath.exists() and not force:
            raise ParameterError(f"refusing to overwrite {cpath} (pass --force)")
        report.cycles.to_csv(cpath)
    return 0


def cmd_sweep(res: _Resolver, force: bool, simulate: bool) -> int:
    grid = threshold_grid(_parse_grid(res.require("grid")))
    fmaxes = _parse_fmax_list(res.require("fmax"))
    mu = _parse_float("mu", res.require("mu"))
    if simulate:
        _require_finite_mu(mu)
    rows = []
    any_feasible = False
    for fmax in fmaxes:
        rc = RateConstraint(fmax)
        for a in grid:
            cfg = ThresholdConfig(a, a, mu)
            large = replace(cfg, mu=math.inf)  # the closed-form columns are large-slope
            row: dict = {"fmax": fmax, "a": a}
            try:
                din = dinkelbach_solve(large, rc)
                bd = mse_exact(large, din.lengths)
                row.update(
                    mse_opt=din.theta_star,
                    sr_opt=bd.sr,
                    l1_opt=din.lengths.l1,
                    l2_opt=din.lengths.l2,
                    kraft_active=din.kraft_slack <= 1e-6,
                    rate_active=(not rc.unconstrained) and din.rate_slack <= 1e-6,
                    capped=din.capped,
                )
                any_feasible = True
            except InfeasibleError:
                row.update(
                    mse_opt=math.inf,
                    sr_opt=math.nan,
                    l1_opt=math.nan,
                    l2_opt=math.nan,
                    kraft_active=False,
                    rate_active=False,
                    capped=False,
                )
            uni = mse_exact(large, Codebook.uniform(2.0))
            row["mse_uniform"] = uni.mse
            row["sr_uniform"] = uni.sr
            ideal_mse, ideal_sr = ideal_benchmark_mse(a)
            row["mse_ideal"] = ideal_mse
            row["sr_ideal"] = ideal_sr
            if simulate:
                row.update(_sweep_sim_columns(res, cfg, rc))
            rows.append(row)
    if not any_feasible:
        raise InfeasibleError("no feasible sweep point under the given rate constraints")
    meta = {
        "command": "sweep",
        "grid": res.require("grid"),
        "fmax": res.require("fmax"),
        "mu": res.require("mu"),
        "simulate": simulate,
    }
    _emit(rows, meta, res.require("format"), _resolve_out(res.raw("out")), force)
    return 0


def _sweep_sim_columns(res: _Resolver, cfg: ThresholdConfig, rc: RateConstraint) -> dict:
    """Simulation overlays: uniform and ideal benchmarks plus the best
    integer codebook (relaxed optima have non-integer lengths)."""
    eps = _parse_float("eps", res.require("eps"))
    horizon = _parse_float("horizon", res.require("horizon"))
    seed = _parse_int("seed", res.require("seed"))
    reps_raw = res.raw("reps")
    reps = 3 if reps_raw is None else _parse_int("reps", reps_raw)
    out: dict = {}
    uni = run_benchmark(
        SimConfig(eps, horizon, cfg, Codebook.uniform(2, mode=INTEGER), seed,
                  scheme=UNIFORM, replications=reps)
    )
    out["sim_mse_uniform"] = uni.mse_hat
    out["sim_sr_uniform"] = uni.sr_hat
    ideal = run_benchmark(
        SimConfig(eps, horizon, cfg, None, seed, scheme=IDEAL, replications=reps)
    )
    out["sim_mse_ideal"] = ideal.mse_hat
    out["sim_sr_ideal"] = ideal.sr_hat
    try:
        icb, _ = integer_oracle(cfg, rc)
        rep = run(SimConfig(eps, horizon, cfg, icb, seed, scheme=MONOTONE, replications=reps))
        out["sim_mse_integer"] = rep.mse_hat
        out["sim_sr_integer"] = rep.sr_hat
        out["l1_integer"] = icb.l1
        out["l2_integer"] = icb.l2
    except InfeasibleError:
        out["sim_mse_integer"] = math.nan
        out["sim_sr_integer"] = math.nan
        out["l1_integer"] = math.nan
        out["l2_integer"] = math.nan
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wiener-coding",
        description="Event-driven sampling and source coding of a Wiener process",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--a", help="upper threshold coefficient")
        p.add_argument("--b", help="lower threshold coefficient")
        p.add_argument("--mu", help="threshold slope (default inf, the large-slope limit; "
                       "simulations need a finite value)")
        p.add_argument("--sigma2", help="process variance (default 1)")
        p.add_argument("--l", help="code lengths l1,l2,l3,l4 (inf allowed)")
        p.add_argument("--fmax", help="max sampling rate; number or inf")
        p.add_argument("--grid", help="threshold grid lo:hi:step")
        p.add_argument("--eps", help="simulation time step")
        p.add_argument("--horizon", help="simulation horizon")
        p.add_argument("--seed", help="base RNG seed")
        p.add_argument("--reps", help="independent replications")
        p.add_argument("--format", choices=["csv", "json"], help="output format")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--force", action="store_true", help="allow overwriting --out")

    p_an = sub.add_parser("analyze", help="evaluate analytics at a point or over a grid")
    common(p_an)
    p_opt = sub.add_parser("optimize", help="optimal threshold and code lengths")
    common(p_opt)
    p_sim = sub.add_parser("simulate", help="run the discrete-time simulator")
    common(p_sim)
    p_sim.add_argument("--scheme", choices=[MONOTONE, UNIFORM, IDEAL])
    p_sim.add_argument("--cycles-out", help="optional CSV cycle log path")
    p_sw = sub.add_parser("sweep", help="benchmark sweep over thresholds and rate constraints")
    common(p_sw)
    p_sw.add_argument("--simulate", action="store_true", help="add simulation overlay columns")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        res = _Resolver(args)
        if args.command == "analyze":
            return cmd_analyze(res, args.force)
        if args.command == "optimize":
            return cmd_optimize(res, args.force)
        if args.command == "simulate":
            return cmd_simulate(res, args.force, args.cycles_out)
        if args.command == "sweep":
            return cmd_sweep(res, args.force, args.simulate)
        raise ParameterError(f"unknown command {args.command!r}")
    except ParameterError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InfeasibleError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 3
    except (HorizonError, WienerCodingError, OSError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
