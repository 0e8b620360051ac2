"""Command-line front end: analyze / optimize / simulate / sweep.

Each command accepts exactly the flags its handler reads (``_TABLE``), plus
--config and --force.  Value resolution: command-line flags override
config-file entries, which override the command's defaults.  The config
file is flat ``key = value`` text: keys are the command's long flag names
without the leading dashes (config and force are command-line only), and #
starts a comment.  A key the command does not read is an error, and so is a
flag given in a run that would not read it.

Relative --out paths are placed under $WIENER_CODING_OUTDIR when it is set.
Existing output files are never overwritten without --force, and are refused
before the command computes anything.  Outputs embed
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
from .simulator import IDEAL, MONOTONE, UNIFORM, SimConfig, run

__all__ = ["main", "entry"]

ENV_OUTDIR = "WIENER_CODING_OUTDIR"

_HELP = {
    "a": "upper threshold coefficient",
    "b": "lower threshold coefficient",
    "mu": "threshold slope (default inf, the large-slope limit: a sample "
          "beyond the band is taken at once)",
    "sigma2": "process variance (default 1)",
    "l": "code lengths l1,l2,l3,l4 (inf allowed)",
    "fmax": "max sampling rate; number or inf (sweep: a comma-separated list)",
    "grid": "threshold grid lo:hi:step",
    "eps": "simulation time step",
    "horizon": "simulation horizon",
    "seed": "base RNG seed",
    "reps": "independent replications",
    "format": "output format",
    "scheme": "simulated scheme",
    "out": "output path (default stdout)",
    "cycles-out": "optional CSV cycle log path",
    "simulate": "add simulation overlay columns",
}
_CHOICES = {"format": ["csv", "json"], "scheme": [MONOTONE, UNIFORM, IDEAL]}


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


def _read_config(path: str, command: str, row: dict) -> dict[str, str]:
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
        key = key.strip().lower()
        if key not in row:
            raise ParameterError(f"--config: line {i}: {command} has no parameter {key!r}")
        cfg[key] = value.strip()
    return cfg


class _Resolver:
    """flags > config file > the command's defaults, for the flags in its row.

    Reading a flag outside the row is a bug in the handler, so it raises
    KeyError rather than a ParameterError.
    """

    def __init__(self, args: argparse.Namespace):
        self.command, self.force = args.command, args.force
        self.row = _TABLE[args.command][2]
        flags = {k: str(v) for k, v in vars(args).items() if k in self.row and v is not None}
        config = _read_config(args.config, self.command, self.row) if args.config else {}
        self.given = {**config, **flags}
        # argparse checks the choices of flags; a config file's are checked here
        for key, choices in _CHOICES.items():
            if key in self.given and self.given[key] not in choices:
                raise ParameterError(f"--{key} must be one of {', '.join(choices)}, "
                                     f"got {self.given[key]!r}")
        # every output is resolved, and refused, before the command does any work
        self.outputs = {key: self._path(key) for key in ("out", "cycles-out") if key in self.row}
        paths = [p.resolve() for p in self.outputs.values() if p is not None]
        if len(set(paths)) < len(paths):
            raise ParameterError(f"--out and --cycles-out both name {paths[0]}")

    def raw(self, key: str) -> str | None:
        if key not in self.row:
            raise KeyError(f"{self.command} does not accept --{key}")
        return self.given.get(key, self.row[key])

    def require(self, key: str) -> str:
        v = self.raw(key)
        if v is None:
            raise ParameterError(f"missing required parameter --{key}")
        return v

    def unread(self, keys: tuple[str, ...], when: str) -> None:
        """Reject any of keys given in a run that does not read them."""
        for key in keys:
            if key in self.given:
                raise ParameterError(f"--{key} is not used {when}")

    def _path(self, key: str) -> Path | None:
        """The path given for key, under $WIENER_CODING_OUTDIR when relative;
        refused when it exists and --force is absent."""
        path = self.raw(key)
        if path is None:
            return None
        p = Path(path)
        outdir = os.environ.get(ENV_OUTDIR)
        if outdir and not p.is_absolute():
            p = Path(outdir) / p
        if p.exists() and not self.force:
            raise ParameterError(f"refusing to overwrite {p} (pass --force)")
        return p

    def output(self, key: str) -> Path | None:
        """The path resolved for key, with its directory made."""
        p = self.outputs[key]
        if p is not None:
            p.parent.mkdir(parents=True, exist_ok=True)
        return p


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit(rows: list[dict], meta: dict, res: _Resolver) -> None:
    fmt = res.require("format")
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
    else:
        def _clean(v):
            if isinstance(v, float) and not math.isfinite(v):
                return None if math.isnan(v) else ("inf" if v > 0 else "-inf")
            return v

        payload = {
            "spec": meta,
            "rows": [{k: _clean(v) for k, v in row.items()} for row in rows],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    out = res.output("out")
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _cfg_from(res: _Resolver, a: float, b: float) -> ThresholdConfig:
    return ThresholdConfig(
        a, b, _parse_float("mu", res.require("mu")), _parse_float("sigma2", res.require("sigma2"))
    )


def cmd_analyze(res: _Resolver) -> int:
    lengths = _parse_lengths(res.require("l"))
    cb = Codebook.relaxed(*lengths)
    if res.raw("a") is not None or res.raw("b") is not None:
        res.unread(("grid",), "with --a/--b")
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
    _emit(rows, meta, res)
    return 0


def cmd_optimize(res: _Resolver) -> int:
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
    _emit(rows, meta, res)
    return 0


def cmd_simulate(res: _Resolver) -> int:
    cfg = _cfg_from(res, _parse_float("a", res.require("a")), _parse_float("b", res.require("b")))
    lengths = res.raw("l")
    sim = SimConfig(
        eps=_parse_float("eps", res.require("eps")),
        horizon=_parse_float("horizon", res.require("horizon")),
        cfg=cfg,
        cb=None if lengths is None else Codebook(*_parse_lengths(lengths), mode=INTEGER),
        seed=_parse_int("seed", res.require("seed")),
        scheme=res.require("scheme"),
        replications=_parse_int("reps", res.require("reps")),
        log_cycles=res.raw("cycles-out") is not None,
    )
    report = run(sim)
    out, cycles_out = res.output("out"), res.output("cycles-out")
    if out is None:
        sys.stdout.write(json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
    else:
        report.to_json(out)
    if cycles_out is not None:
        report.cycles.to_csv(cycles_out)
    return 0


def cmd_sweep(res: _Resolver) -> int:
    grid = threshold_grid(_parse_grid(res.require("grid")))
    fmaxes = [_parse_float("fmax", part.strip()) for part in res.require("fmax").split(",")]
    mu = _parse_float("mu", res.require("mu"))
    flag = res.require("simulate")
    if flag not in ("true", "false"):
        raise ParameterError(f"--simulate: expected true or false, got {flag!r}")
    simulate = flag == "true"
    if not simulate:
        res.unread(("eps", "horizon", "seed", "reps"), "without --simulate")
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
                    kraft_active="kraft" in din.active,
                    rate_active="rate" in din.active,
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
    _emit(rows, meta, res)
    return 0


def _sweep_sim_columns(res: _Resolver, cfg: ThresholdConfig, rc: RateConstraint) -> dict:
    """Simulation overlays: uniform and ideal benchmarks plus the best
    integer codebook (relaxed optima have non-integer lengths)."""
    eps = _parse_float("eps", res.require("eps"))
    horizon = _parse_float("horizon", res.require("horizon"))
    seed = _parse_int("seed", res.require("seed"))
    reps = _parse_int("reps", res.require("reps"))
    out: dict = {}
    uni = run(SimConfig(eps, horizon, cfg, Codebook.uniform(2, mode=INTEGER), seed,
                        scheme=UNIFORM, replications=reps))
    out["sim_mse_uniform"] = uni.mse_hat
    out["sim_sr_uniform"] = uni.sr_hat
    ideal = run(SimConfig(eps, horizon, cfg, None, seed, scheme=IDEAL, replications=reps))
    out["sim_mse_ideal"] = ideal.mse_hat
    out["sim_sr_ideal"] = ideal.sr_hat
    try:
        icb, _ = integer_oracle(cfg, rc)
        rep = run(SimConfig(eps, horizon, cfg, icb, seed, replications=reps))
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


# command: (handler, help, {flag its handler reads: default, None for none}).
# A command accepts exactly these flags, on the command line or as config
# keys, plus --config and --force.
_TABLE = {
    "analyze": (cmd_analyze, "evaluate analytics at a point or over a grid", {
        "a": None, "b": None, "mu": "inf", "sigma2": "1", "l": None, "grid": "0:3:0.01",
        "format": "csv", "out": None}),
    "optimize": (cmd_optimize, "optimal threshold and code lengths", {
        "fmax": "inf", "grid": "0:3:0.01", "format": "csv", "out": None}),
    "simulate": (cmd_simulate, "run the discrete-time simulator", {
        "a": None, "b": None, "mu": "inf", "sigma2": "1", "l": None, "eps": "1e-2",
        "horizon": "1e5", "seed": "0", "reps": "1", "scheme": MONOTONE, "out": None,
        "cycles-out": None}),
    "sweep": (cmd_sweep, "benchmark sweep over thresholds and rate constraints", {
        "grid": "0:3:0.01", "fmax": "inf", "mu": "inf", "eps": "1e-2", "horizon": "1e5",
        "seed": "0", "reps": "3", "format": "csv", "out": None, "simulate": "false"}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wiener-coding",
        description="Event-driven sampling and source coding of a Wiener process",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, row) in _TABLE.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--force", action="store_true", help="allow overwriting outputs")
        for flag in row:
            # --simulate is a switch; as a config key it reads true or false
            kind = ({"action": "store_const", "const": "true"} if flag == "simulate"
                    else {"choices": _CHOICES.get(flag)})
            p.add_argument(f"--{flag}", dest=flag, help=_HELP[flag], **kind)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _TABLE[args.command][0](_Resolver(args))
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
