import csv
import hashlib
import importlib
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import types
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wiener_coding
from wiener_coding import (
    Codebook,
    RateConstraint,
    SimConfig,
    ThresholdConfig,
    cli,
    dinkelbach_solve,
    mse_exact,
    run,
)
from wiener_coding.cli import _Resolver, _build_parser, main
from wiener_coding.mse_model import INTEGER


def read_csv(path: Path):
    rows = []
    with open(path) as fh:
        data = [line for line in fh if not line.startswith("#")]
    for row in csv.DictReader(data):
        rows.append(row)
    return rows


class TestAnalyze:
    def test_origin_anchor(self, tmp_path):
        out = tmp_path / "a.csv"
        rc = main(
            ["analyze", "--a", "0", "--b", "0", "--l", "1,8,8,1", "--mu", "1e6",
             "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["mse_large_mu"]) == pytest.approx(1.5, abs=1e-12)
        assert float(rows[0]["mse_exact"]) == pytest.approx(1.5, abs=1e-4)

    def test_matches_library_bit_exact(self, tmp_path):
        out = tmp_path / "a.csv"
        assert main(["analyze", "--a", "1", "--b", "1", "--l", "2,2,2,2",
                     "--out", str(out)]) == 0
        row = read_csv(out)[0]
        lib = mse_exact(ThresholdConfig(1, 1, math.inf), Codebook.uniform(2.0))
        assert float(row["mse_large_mu"]) == lib.mse
        assert float(row["sr_large_mu"]) == lib.sr

    def test_malformed_lengths_no_partial_output(self, tmp_path):
        out = tmp_path / "a.csv"
        rc = main(["analyze", "--a", "1", "--b", "1", "--l", "2,2,zz,2",
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_missing_parameter_named(self, tmp_path, capsys):
        rc = main(["analyze", "--a", "1", "--b", "1"])
        assert rc == 2
        assert "--l" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
        (["--a", "1", "--b", "1", "--l", "1,inf,inf,1"], "l2"),
        # p1 and p_tilde1 underflow to 0 here, the E[C(Y)Y^2] weight a_tilde does not
        (["--a", "38.47625", "--b", "1000", "--l", "inf,1,1,1"], "l1"),
    ], ids=["band", "subnormal-tail"])
    def test_infinite_length_with_weight_exit_code(self, tmp_path, capsys, argv, name):
        out = tmp_path / "a.csv"
        assert main(["analyze", *argv, "--out", str(out)]) == 2
        assert f"{name} is infinite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--a", "1", "--b", "1", "--mu", "6e102"],
        ["--grid", "0:1:0.5", "--mu", "1e200"],
    ])
    def test_slope_whose_cube_overflows_is_large_slope(self, tmp_path, argv):
        out = tmp_path / "a.csv"
        assert main(["analyze", "--l", "2,2,2,2", *argv, "--out", str(out)]) == 0
        for row in read_csv(out):
            assert row["mse_exact"] == row["mse_large_mu"]
            assert row["sr_exact"] == row["sr_large_mu"]

    def test_grid_mode(self, tmp_path):
        out = tmp_path / "g.json"
        rc = main(["analyze", "--grid", "0:1:0.5", "--l", "2,2,2,2",
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert [r["a"] for r in payload["rows"]] == [0.0, 0.5, 1.0]


# every command at a tiny size; the optimize and sweep grids include
# rate-limited points, so the rate floor binds in some QP solves
TINY_COMMANDS = [
    ["analyze", "--l", "2,2,2,2", "--grid", "0:1:0.5", "--mu", "10"],
    ["optimize", "--fmax", "0.5", "--grid", "0:1.5:0.25"],
    ["optimize", "--fmax", "0.2", "--grid", "0:1.5:0.25"],
    ["sweep", "--grid", "0:1:0.5", "--fmax", "inf,0.2"],
    ["simulate", "--a", "1", "--b", "1", "--mu", "10", "--l", "2,2,2,2",
     "--eps", "1e-2", "--horizon", "300", "--seed", "1", "--reps", "1"],
]

SWEEP_ARGV = ["sweep", "--grid", "0:2:0.05", "--fmax", "inf,0.5,0.35,0.2"]

# SHA-256 of stdout.  The optimize runs bind the Kraft and rate constraints
# alone and together; the optimize-0.2 and sweep digests were re-captured
# with the interior-point QP solver, whose last digits differ.  The sweep ran
# at the old default slope 1e6; its digest was re-captured again when the
# ideal columns became mse_exact at unit delays, which moved mse_ideal and
# sr_ideal by at most 3 ulp at 15 of its 41 thresholds and nothing else.  The
# three were re-captured once more when Dinkelbach's iteration came to stop
# where theta stops falling, not at |J| <= 1e-9: theta* moved by at most
# 1.4e-10, the lengths by at most 6.2e-12, a* and the optimize MSE not at
# all.  The analyze run pins the finite-slope closed form; the simulate run pins the
# chain engine's report.
GOLDEN_STDOUT = [
    (["optimize", "--fmax", "0.5", "--grid", "0:3:0.01"],
     "0a217e292cbf09fd46b88c1f0c51de62c63ca41ba411c3ae6cbb4219dfa5ef95"),
    (["optimize", "--fmax", "0.2", "--grid", "0:3:0.01"],
     "9eff768446cbe2a30869ffbcd969685e271b3aa4b4d13dd083e68ec2f8590e00"),
    (SWEEP_ARGV + ["--mu", "1e6"],
     "d16c169b1bd1235382054ad694d3a75f91331e494734fbb06d4142e0f02e273f"),
    (["analyze", "--l", "1,3,4,5", "--grid", "0:3:0.01", "--mu", "10"],
     "dd71db2d0534367363a7db1e9c157b537481118a4704db053d47f846bea1e870"),
    (["simulate", "--a", "1", "--b", "1", "--mu", "10", "--l", "2,2,2,2", "--eps", "1e-2",
      "--horizon", "1000", "--seed", "5", "--reps", "2"],
     "49443d2b00436259ab1497f1f2e3782b8dad8eb208adb4d2e50c6af4b80c0f8e"),
]


class TestGoldenStdout:
    @pytest.mark.parametrize("argv,digest", GOLDEN_STDOUT,
                             ids=["optimize-0.5", "optimize-0.2", "sweep", "analyze-mu10",
                                  "simulate"])
    def test_stdout_digest(self, argv, digest, capsys):
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_default_slope_changes_only_the_mu_header(self, capsys):
        # the closed-form columns are large-slope at any --mu
        assert main(SWEEP_ARGV) == 0
        default = capsys.readouterr().out.splitlines()
        assert main(SWEEP_ARGV + ["--mu", "1e6"]) == 0
        old = capsys.readouterr().out.splitlines()
        diff = [(x, y) for x, y in zip(default, old) if x != y]
        assert len(default) == len(old) and diff == [("# mu=inf", "# mu=1e6")]


class TestGrid:
    @pytest.mark.parametrize("command", [
        ["analyze", "--l", "2,2,2,2"], ["optimize", "--fmax", "inf"], ["sweep", "--fmax", "inf"],
    ])
    @pytest.mark.parametrize("grid", ["0:1:1e-300", "0:inf:1"])
    def test_oversized_grid_exit_code(self, tmp_path, command, grid, capsys):
        # rejected before any grid point is built or evaluated
        out = tmp_path / "g.csv"
        assert main(command + ["--grid", grid, "--out", str(out)]) == 2
        assert "limit" in capsys.readouterr().err
        assert not out.exists()

    def test_import_leaves_scipy_optimize_unloaded(self, fresh_python, tmp_path):
        # no CLI command loads scipy: neither the import nor any command's run
        code = f"""if True:
            import json, sys
            import wiener_coding.cli

            def scipy_modules():
                return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

            loaded = {{"import": scipy_modules(), "optimize": "scipy.optimize" in sys.modules}}
            for i, argv in enumerate({TINY_COMMANDS!r}):
                rc = wiener_coding.cli.main(argv + ["--out", {str(tmp_path)!r} + f"/{{i}}.out"])
                loaded[argv[0] + str(i)] = [rc, scipy_modules()]
            print(json.dumps(loaded))
        """
        loaded = fresh_python(code)
        assert loaded.pop("optimize") is False
        assert loaded.pop("import") == []
        assert loaded == {argv[0] + str(i): [0, []] for i, argv in enumerate(TINY_COMMANDS)}


def test_every_export_is_in_its_modules_all():
    # the benchmark's traced run wraps the functions named in each layer
    # module's __all__ by getattr, so a stale name would break it
    listed = {}
    for layer in ("cli", "code_optimizer", "errors", "gauss_stats", "hitting_times",
                  "mse_model", "simulator"):
        module = importlib.import_module(f"wiener_coding.{layer}")
        for name in module.__all__:
            assert hasattr(module, name), f"{layer}.__all__ names missing {name!r}"
            listed[name] = getattr(module, name)
    for name, obj in vars(wiener_coding).items():
        if not name.startswith("_") and not isinstance(obj, types.ModuleType):
            assert listed.get(name) is obj, f"wiener_coding.{name} is in no module's __all__"


class TestHugeThresholds:
    @pytest.mark.parametrize("argv", [
        ["analyze", "--l", "2,2,2,2", "--a", "1e308", "--b", "1e308"],
        ["optimize", "--fmax", "inf", "--grid", "0:1e308:1e303"],
    ])
    def test_overflow_exit_code(self, tmp_path, argv, capsys):
        # a**4 overflows above about 1.3e77: a usage error, not a traceback
        out = tmp_path / "h.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert "too large" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_length_exit_code(self, tmp_path, capsys):
        # the length is finite; only its square overflows
        out = tmp_path / "h.csv"
        assert main(["analyze", "--a", "1", "--b", "1", "--l", "1e200,1e200,1e200,1e200",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "too large" in err and "infinite" not in err
        assert not out.exists()

    def test_far_asymmetric_band(self, tmp_path):
        out = tmp_path / "a.csv"
        assert main(["analyze", "--l", "2,2,2,2", "--a", "38", "--b", "0",
                     "--out", str(out)]) == 0
        assert float(read_csv(out)[0]["p2"]) == pytest.approx(0.3989422804014327 / 38, rel=1e-14)


class TestTinySlope:
    @pytest.mark.parametrize("mu", ["1e-110", "1e-300"])
    def test_underflowing_slope_exit_code(self, tmp_path, mu, capsys):
        # mu**3 underflows to 0 below about 1.35e-108: a usage error, not a traceback
        out = tmp_path / "a.csv"
        assert main(["analyze", "--l", "2,2,2,2", "--a", "1", "--b", "1", "--mu", mu,
                     "--out", str(out)]) == 2
        assert "too small" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_slope_exit_code(self, tmp_path, capsys):
        # above 1.35e-108 mu**3 is not 0, but the 1/mu**3 term overflows to inf
        out = tmp_path / "a.csv"
        assert main(["analyze", "--l", "2,2,2,2", "--a", "1", "--b", "1", "--mu", "1e-105",
                     "--out", str(out)]) == 2
        assert "overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_small_slope_evaluated(self, tmp_path):
        out = tmp_path / "a.csv"
        assert main(["analyze", "--l", "2,2,2,2", "--a", "1", "--b", "1", "--mu", "1e-100",
                     "--out", str(out)]) == 0
        assert float(read_csv(out)[0]["mse_exact"]) == pytest.approx(2.5e200, rel=1e-12)


class TestOptimize:
    def test_unconstrained(self, tmp_path):
        out = tmp_path / "opt.json"
        rc = main(["optimize", "--fmax", "inf", "--grid", "0:0.5:0.1",
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["a_star"] == 0.0
        assert row["mse"] == pytest.approx(1.5, abs=1e-6)
        assert "kraft" in row["active"]

    def test_infeasible_exit_code(self, tmp_path):
        rc = main(["optimize", "--fmax", "1e-4", "--grid", "0.5:1:0.25"])
        assert rc == 3

    def test_grid_past_the_tail(self, tmp_path):
        # past a = 6.6 the tail length runs to the cap; the scan crosses it
        out = tmp_path / "opt.csv"
        assert main(["optimize", "--fmax", "0.5", "--grid", "0:8:0.1", "--out", str(out)]) == 0
        assert float(read_csv(out)[0]["a_star"]) == pytest.approx(2.0537, abs=1e-4)


class TestSimulate:
    ARGS = [
        "simulate", "--a", "1", "--b", "1", "--mu", "10", "--l", "2,2,2,2",
        "--eps", "1e-2", "--horizon", "1000", "--seed", "5", "--reps", "2",
    ]

    def test_report_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        out = tmp_path / "rep.json"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        import wiener_coding

        schema_path = (
            Path(wiener_coding.__file__).parent / "schemas" / "report.schema.json"
        )
        schema = json.loads(schema_path.read_text())
        jsonschema.validate(json.loads(out.read_text()), schema)

    def test_deterministic_files(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(self.ARGS + ["--out", str(out1)]) == 0
        assert main(self.ARGS + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_overwrite_protection(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        assert main(self.ARGS + ["--out", str(out)]) == 2
        assert main(self.ARGS + ["--out", str(out), "--force"]) == 0

    def test_cycle_log_export(self, tmp_path):
        out = tmp_path / "rep.json"
        cyc = tmp_path / "cycles.csv"
        rc = main(self.ARGS + ["--out", str(out), "--cycles-out", str(cyc)])
        assert rc == 0
        rows = read_csv(cyc)
        assert list(rows[0].keys()) == ["s_n", "d_n", "event", "z_n", "length"]
        assert len(rows) > 50

    def test_cycle_log_is_the_api_log(self, tmp_path):
        # the file holds replication 0's log, byte for byte as the API writes it
        cyc, ref = tmp_path / "cycles.csv", tmp_path / "ref.csv"
        assert main(self.ARGS + ["--out", str(tmp_path / "rep.json"),
                                 "--cycles-out", str(cyc)]) == 0
        sim = SimConfig(1e-2, 1000.0, ThresholdConfig(1, 1, 10),
                        Codebook(2, 2, 2, 2, mode=INTEGER), 5, replications=2)
        run(replace(sim, replications=1, log_cycles=True)).cycles.to_csv(ref)
        assert cyc.read_bytes() == ref.read_bytes()

    def test_coarse_grid_for_slope_exit_code(self, capsys):
        # mu*eps = 10: the run would report mse_hat 30 against an analytic 2.80
        rc = main(["simulate", "--a", "1", "--b", "1", "--mu", "1000", "--l", "2,2,2,2",
                   "--eps", "1e-2", "--horizon", "2e4", "--seed", "1", "--reps", "1"])
        assert rc == 2
        assert "mu*eps = 10 > 1" in capsys.readouterr().err

    def test_horizon_too_short_exit_code(self, tmp_path):
        rc = main(
            ["simulate", "--a", "40", "--b", "40", "--mu", "0.01",
             "--l", "8,8,8,8", "--eps", "1e-2", "--horizon", "800",
             "--seed", "3", "--reps", "1"]
        )
        assert rc == 4

    @pytest.mark.parametrize("extra", [
        ["--a", "1e154"], ["--a", "1e200"], ["--a", "1e300"],
        ["--a", "1", "--mu", "10", "--sigma2", "5e-324"],  # the step sd underflows to 0
    ], ids=["a1e154", "a1e200", "a1e300", "sigma2-5e-324"])
    def test_unreachable_threshold_exit_code(self, extra, capsys):
        # no waiting phase ends within the horizon: a runtime error, not a
        # traceback (a RuntimeWarning would fail the test)
        rc = main(["simulate", "--b", "1", "--l", "2,2,2,2", "--horizon", "300", *extra])
        assert rc == 4
        err = capsys.readouterr().err
        assert "runtime error: a waiting phase passed the horizon" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag,value", [
        ("--eps", "nan"), ("--eps", "inf"), ("--eps", "1e-300"), ("--horizon", "nan"),
        ("--horizon", "inf"), ("--seed", "-1"), ("--eps", "10"), ("--eps", "3"),
    ])
    def test_bad_numbers_exit_code(self, tmp_path, flag, value, capsys):
        args = list(self.ARGS)
        args[args.index(flag) + 1] = value
        out = tmp_path / "rep.json"
        assert main(args + ["--out", str(out)]) == 2
        assert flag[2:] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("module", ["wiener_coding", "wiener_coding.cli"])
    def test_python_dash_m(self, tmp_path, module):
        via_main = tmp_path / "main.json"
        assert main(self.ARGS + ["--out", str(via_main)]) == 0
        out = tmp_path / "m.json"
        src = str(Path(wiener_coding.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-m", module, *self.ARGS, "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == via_main.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--a", "1", "--b", "1", "--l", "2,2,2,2", "--horizon", "300"],
        ["simulate", "--a", "1", "--b", "1", "--scheme", "ideal-benchmark", "--horizon", "300"],
        ["sweep", "--grid", "0:1:0.5", "--fmax", "0.5", "--simulate", "--horizon", "300"],
    ])
    def test_default_slope_is_simulated(self, tmp_path, argv):
        # the default mu = inf, the closed forms' large-slope limit, samples a
        # cycle that starts beyond its band at once; its report writes mu as null
        out = tmp_path / "s.out"
        assert main(argv + ["--out", str(out)]) == 0
        if argv[0] == "sweep":
            assert "# mu=inf" in out.read_text().splitlines()
            assert len(read_csv(out)) == 3
        else:
            report = json.loads(out.read_text())
            assert report["spec"]["mu"] is None
            jsonschema = pytest.importorskip("jsonschema")
            schema_path = Path(wiener_coding.__file__).parent / "schemas" / "report.schema.json"
            jsonschema.validate(report, json.loads(schema_path.read_text()))

    def test_benchmark_scheme(self, tmp_path):
        # one replication's MSE spreads by about 0.07 here, so 8 of them put
        # the 10% bound about 6 standard errors out
        out = tmp_path / "ideal.json"
        rc = main(
            ["simulate", "--a", "0", "--b", "0", "--mu", "10", "--scheme",
             "ideal-benchmark", "--eps", "1e-2", "--horizon", "1000",
             "--seed", "4", "--reps", "8", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["results"]["mse_hat"] == pytest.approx(1.5, rel=0.1)

    def test_ideal_asymmetric_band_exit_code(self, tmp_path, capsys):
        out = tmp_path / "ideal.json"
        rc = main(
            ["simulate", "--a", "1", "--b", "0.2", "--mu", "10", "--scheme",
             "ideal-benchmark", "--eps", "1e-2", "--horizon", "1000",
             "--seed", "4", "--reps", "1", "--out", str(out)]
        )
        assert rc == 2
        assert "b = a" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_unconstrained_ordering(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--grid", "0:1:0.25", "--fmax", "inf",
                   "--out", str(out)])
        assert rc == 0
        for row in read_csv(out):
            assert float(row["mse_opt"]) <= float(row["mse_uniform"]) + 1e-9

    def test_two_region_flags(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--grid", "0.1:3:0.29", "--fmax", "0.2",
                   "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        rate = [row["rate_active"] == "true" for row in rows]
        kraft = [row["kraft_active"] == "true" for row in rows]
        assert all(r or k for r, k in zip(rate, kraft))
        assert rate[0] and not rate[-1]
        assert kraft[-1]

    def test_columns_match_cold_solves(self, tmp_path):
        # each column is a continuation along a; every point is its cold solve
        out = tmp_path / "sweep.csv"
        assert main(SWEEP_ARGV + ["--out", str(out)]) == 0
        for row in read_csv(out):
            a, fmax = float(row["a"]), float(row["fmax"])
            ref = dinkelbach_solve(ThresholdConfig(a, a, math.inf), RateConstraint(fmax))
            assert float(row["mse_opt"]) == pytest.approx(ref.theta_star, rel=1e-12, abs=0)
            assert float(row["l1_opt"]) == pytest.approx(ref.lengths.l1, rel=1e-12, abs=0)
            assert float(row["l2_opt"]) == pytest.approx(ref.lengths.l2, rel=1e-12, abs=0)
            assert row["capped"] == str(ref.capped).lower()

    def test_large_thresholds(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", "0:40:0.5", "--fmax", "inf,0.5", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 162 and all(math.isfinite(float(r["mse_opt"])) for r in rows)
        # l2 capped at a = 0, l1 capped once a >= 9.6
        assert all((r["capped"] == "true") == (float(r["a"]) == 0.0 or float(r["a"]) >= 9.6)
                   for r in rows)

    def test_simulate_runs_each_distinct_run_once(self, tmp_path, monkeypatch):
        # the uniform and ideal runs depend on a alone, and integer_oracle's
        # codebook runs as the uniform one when its finite lengths are all 2:
        # 15 runs for 5 thresholds at 3 rates, where each point ran 3
        calls = []
        monkeypatch.setattr(cli, "run", lambda sim: calls.append(sim) or run(sim))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", "0:2:0.5", "--fmax", "inf,0.5,0.2", "--simulate",
                     "--horizon", "1000", "--reps", "1", "--out", str(out)]) == 0
        assert len(calls) == len(set(calls)) == 15
        # each row holds the runs each point made on its own
        for row in read_csv(out):
            a, cfg = float(row["a"]), ThresholdConfig(float(row["a"]), float(row["a"]), math.inf)
            icb = cli.integer_oracle(cfg, cli.RateConstraint(float(row["fmax"])))[0]
            for name, sim in (("uniform", SimConfig(1e-2, 1000.0, cfg, None, 0,
                                                    scheme="uniform-benchmark")),
                              ("ideal", SimConfig(1e-2, 1000.0, cfg, None, 0,
                                                  scheme="ideal-benchmark")),
                              ("integer", SimConfig(1e-2, 1000.0, cfg, icb, 0))):
                rep = run(sim)
                assert row[f"sim_mse_{name}"] == repr(rep.mse_hat), (a, name)
                assert row[f"sim_sr_{name}"] == repr(rep.sr_hat), (a, name)

    def test_deterministic_files(self, tmp_path):
        args = ["sweep", "--grid", "0:0.5:0.25", "--fmax", "inf,0.5"]
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestConfigPrecedence:
    def test_flag_beats_config_beats_default(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("a = 1\nb = 1\nl = 2,2,2,2\nmu = 50  # finite slope\n")
        out = tmp_path / "o.csv"
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        row = read_csv(out)[0]
        assert float(row["mu"]) == 50.0  # config beats the inf default
        out2 = tmp_path / "o2.csv"
        assert main(["analyze", "--config", str(cfg), "--mu", "25",
                     "--out", str(out2)]) == 0
        assert float(read_csv(out2)[0]["mu"]) == 25.0  # flag beats config

    @pytest.mark.parametrize("argv,key,called", [
        (["optimize", "--fmax", "0.5", "--grid", "0:3:0.01"], "format", "optimize_threshold"),
        (["sweep", "--grid", "0:1:0.5"], "format", "dinkelbach_solve"),
        (TestSimulate.ARGS, "scheme", "run"),
    ], ids=["optimize-format", "sweep-format", "simulate-scheme"])
    def test_bad_choice_refused_before_any_work(self, tmp_path, monkeypatch, argv, key, called,
                                                capsys):
        calls = []
        monkeypatch.setattr(cli, called, lambda *args, **kw: calls.append(called))
        cfg = tmp_path / "c.txt"
        cfg.write_text(f"{key} = xml\n")
        assert main(argv + ["--config", str(cfg)]) == 2
        assert calls == []
        assert f"--{key} must be one of" in capsys.readouterr().err

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("this is not a key value line\n")
        assert main(["analyze", "--config", str(cfg), "--a", "1", "--b", "1",
                     "--l", "2,2,2,2"]) == 2


class TestOutputDirEnv:
    def test_env_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WIENER_CODING_OUTDIR", str(tmp_path / "results"))
        rc = main(["analyze", "--a", "1", "--b", "1", "--l", "2,2,2,2",
                   "--out", "table.csv"])
        assert rc == 0
        assert (tmp_path / "results" / "table.csv").exists()

    def test_absolute_path_ignores_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WIENER_CODING_OUTDIR", str(tmp_path / "results"))
        out = tmp_path / "direct.csv"
        rc = main(["analyze", "--a", "1", "--b", "1", "--l", "2,2,2,2",
                   "--out", str(out)])
        assert rc == 0
        assert out.exists()


# the flags each command reads, besides --config and --force
ROWS = {
    "analyze": ["a", "b", "mu", "sigma2", "l", "grid", "format", "out"],
    "optimize": ["fmax", "grid", "format", "out"],
    "simulate": ["a", "b", "mu", "sigma2", "l", "eps", "horizon", "seed", "reps", "scheme",
                 "out", "cycles-out"],
    "sweep": ["grid", "fmax", "mu", "eps", "horizon", "seed", "reps", "format", "out",
              "simulate"],
}
ALL_FLAGS = sorted({f for row in ROWS.values() for f in row})
OUTSIDE = [(c, f) for c, row in ROWS.items() for f in ALL_FLAGS if f not in row]


def write_config(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


class TestFlagTable:
    def test_each_parser_has_exactly_its_row(self):
        sub = _build_parser()._subparsers._group_actions[0]
        options = {command: sorted(o[2:] for a in p._actions for o in a.option_strings
                                   if o != "--help" and o.startswith("--"))
                   for command, p in sub.choices.items()}
        assert options == {c: sorted(row + ["config", "force"]) for c, row in ROWS.items()}
        assert sum(len(o) for o in options.values()) == 42

    @pytest.mark.parametrize("command,flag", OUTSIDE)
    def test_flag_outside_row_is_usage_error(self, command, flag, capsys):
        with pytest.raises(SystemExit) as e:
            main([command, f"--{flag}", "1"])
        assert e.value.code == 2
        assert f"--{flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", OUTSIDE + [
        (c, k) for c in ROWS for k in ("config", "force", "sigmaa2", "foo")])
    def test_config_key_outside_row(self, tmp_path, command, flag, capsys):
        cfg = write_config(tmp_path / "c.txt", f"# comment\n{flag} = 1\n")
        out = tmp_path / "o.txt"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert repr(flag) in err and "line 2" in err
        assert not out.exists()

    @pytest.mark.parametrize("command,flag", OUTSIDE)
    def test_handler_cannot_read_outside_row(self, command, flag):
        res = _Resolver(_build_parser().parse_args([command]))
        with pytest.raises(KeyError):
            res.raw(flag)

    @pytest.mark.parametrize("argv,flag", [
        (["optimize", "--fmax", "0.3", "--grid", "0:1:0.25", "--mu", "1", "--sigma2", "4",
          "--a", "7", "--l", "1,1,1,1", "--seed", "9"], "--mu"),
        (["analyze", "--l", "2,2,2,2", "--a", "1", "--b", "1", "--fmax", "0.1", "--eps", "3",
          "--horizon", "1", "--reps", "9"], "--fmax"),
        (["sweep", "--grid", "0:1:0.5", "--fmax", "inf", "--sigma2", "4", "--a", "3", "--b", "3",
          "--l", "9,9,9,9"], "--sigma2"),
        (["simulate", "--a", "1", "--b", "1", "--mu", "10", "--l", "2,2,2,2",
          "--horizon", "300", "--format", "csv"], "--format"),
    ])
    def test_flags_of_other_commands_rejected(self, argv, flag, capsys):
        # flag names the first argument outside the command's row
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert flag in capsys.readouterr().err


def _readme_commands() -> list[str]:
    """The `wiener-coding ...` examples of the README's "Command line" block,
    each with its backslash continuations joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("wiener-coding ")]


README_COMMANDS = _readme_commands()


class TestReadmeExamples:
    def test_every_command_has_an_example(self):
        assert {line.split()[1] for line in README_COMMANDS} == set(ROWS)

    @pytest.mark.parametrize("line", README_COMMANDS)
    def test_example_parses(self, line):
        args = _build_parser().parse_args(shlex.split(line)[1:])
        assert args.command == line.split()[1]


class TestFlagsReadOnlyInSomeRuns:
    @pytest.mark.parametrize("argv,flag", [
        (["analyze", "--a", "1", "--b", "1", "--grid", "0:1:0.5", "--l", "2,2,2,2"], "--grid"),
        (["analyze", "--a", "1", "--grid", "0:1:0.5", "--l", "2,2,2,2"], "--grid"),
        (["sweep", "--grid", "0:1:0.5", "--fmax", "inf", "--eps", "nan"], "--eps"),
        (["sweep", "--grid", "0:1:0.5", "--fmax", "inf", "--horizon", "300"], "--horizon"),
        (["sweep", "--grid", "0:1:0.5", "--fmax", "inf", "--seed", "3"], "--seed"),
        (["sweep", "--grid", "0:1:0.5", "--fmax", "inf", "--reps", "3"], "--reps"),
    ])
    def test_given_but_unread_flag(self, tmp_path, argv, flag, capsys):
        out = tmp_path / "o.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,text,flag", [
        (["analyze", "--a", "1", "--b", "1", "--l", "2,2,2,2"], "grid = 0:1:0.5", "--grid"),
        (["sweep", "--grid", "0:1:0.5"], "seed = 3", "--seed"),
        (["sweep", "--grid", "0:1:0.5"], "simulate = maybe", "--simulate"),
    ])
    def test_given_in_config_counts(self, tmp_path, argv, text, flag, capsys):
        cfg = write_config(tmp_path / "c.txt", text + "\n")
        assert main(argv + ["--config", cfg]) == 2
        assert flag in capsys.readouterr().err

    def test_defaults_do_not_count(self, capsys):
        assert main(["analyze", "--a", "1", "--b", "1", "--l", "2,2,2,2"]) == 0
        assert main(["sweep", "--grid", "0:1:0.5", "--fmax", "inf"]) == 0

    def test_simulate_as_config_key(self, tmp_path, capsys):
        # the default --reps of sweep --simulate is 3
        argv = ["sweep", "--grid", "0:1:1", "--fmax", "0.5", "--mu", "2", "--eps", "0.5",
                "--horizon", "1500"]
        assert main(argv + ["--simulate", "--reps", "3"]) == 0
        by_flag = capsys.readouterr().out
        cfg = write_config(tmp_path / "c.txt", "simulate = true\n")
        assert main(argv + ["--config", cfg]) == 0
        assert capsys.readouterr().out == by_flag
        assert "sim_mse_integer" in by_flag and "# simulate=True" in by_flag

    SIM = ["simulate", "--a", "1", "--b", "1", "--mu", "10", "--horizon", "300", "--seed", "2"]

    @pytest.mark.parametrize("extra", [
        ["--scheme", "uniform-benchmark", "--l", "1,3,4,5"],
        ["--scheme", "ideal-benchmark", "--l", "2,2,2,2"],
        [],  # the monotone scheme needs --l
    ])
    def test_benchmark_lengths_go_to_the_simulator(self, extra, capsys):
        # --l reaches SimConfig for every scheme, which checks it against the scheme
        assert main(self.SIM + extra) == 2
        assert "code lengths" in capsys.readouterr().err

    def test_uniform_lengths_of_two_accepted(self, capsys):
        assert main(self.SIM + ["--scheme", "uniform-benchmark"]) == 0
        default = capsys.readouterr().out
        assert main(self.SIM + ["--scheme", "uniform-benchmark", "--l", "2,2,2,2"]) == 0
        assert capsys.readouterr().out == default


class TestOverwrite:
    def test_cycle_log_checked_before_any_output(self, tmp_path):
        out, cyc = tmp_path / "rep.json", tmp_path / "cycles.csv"
        cyc.write_text("keep\n")
        argv = TestSimulate.ARGS + ["--out", str(out), "--cycles-out", str(cyc)]
        assert main(argv) == 2
        assert not out.exists() and cyc.read_text() == "keep\n"
        assert main(argv + ["--force"]) == 0
        assert read_csv(cyc)

    @pytest.mark.parametrize("argv", [
        TestSimulate.ARGS + ["--out", "old.txt"],
        TestSimulate.ARGS + ["--out", "new.json", "--cycles-out", "old.txt"],
        ["sweep", "--grid", "0:1:0.5", "--fmax", "0.5", "--mu", "10", "--simulate",
         "--horizon", "300", "--out", "old.txt"],
    ], ids=["simulate-out", "simulate-cycles-out", "sweep-simulate-out"])
    def test_existing_output_refused_before_any_work(self, tmp_path, monkeypatch, argv):
        calls = []

        def never(name):
            def call(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} ran before the outputs were checked")
            return call

        for name in ("run", "dinkelbach_solve"):
            monkeypatch.setattr(cli, name, never(name))
        monkeypatch.setenv("WIENER_CODING_OUTDIR", str(tmp_path))
        old = tmp_path / "old.txt"
        old.write_text("keep\n")
        assert main(argv) == 2
        assert old.read_text() == "keep\n"
        assert calls == []
        assert not (tmp_path / "new.json").exists()

    @pytest.mark.parametrize("names", [("same.txt", "same.txt"), ("same.txt", "./same.txt"),
                                       ("same.txt", None)], ids=["equal", "dot", "relative"])
    @pytest.mark.parametrize("force", [[], ["--force"]])
    def test_one_file_for_two_outputs_refused(self, tmp_path, monkeypatch, names, force):
        # the cycle CSV would overwrite the report; None: the absolute path
        # that --out resolves to under $WIENER_CODING_OUTDIR
        monkeypatch.setattr(cli, "run", lambda sim: pytest.fail("the simulator ran"))
        monkeypatch.setenv("WIENER_CODING_OUTDIR", str(tmp_path))
        out, cycles = names
        cycles = cycles or str(tmp_path / out)
        assert main(TestSimulate.ARGS + ["--out", out, "--cycles-out", cycles] + force) == 2
        assert list(tmp_path.iterdir()) == []

    def test_output_directory_made(self, tmp_path):
        cyc = tmp_path / "new" / "cycles.csv"
        assert main(TestSimulate.ARGS + ["--out", str(tmp_path / "r.json"),
                                         "--cycles-out", str(cyc)]) == 0
        assert cyc.exists()


# small values only: grids of at most 5 points, horizons <= 300, reps <= 2;
# per flag, values a run accepts (for some other flags), then values it rejects
FUZZ_VALUES = {
    "a": (["1", "0", "0.5", "40"], ["-1", "nan", "x"]),
    "b": (["1", "0", "0.2"], ["inf", "-0.5"]),
    "mu": (["10", "1", "0.01", "inf"], ["0", "-1", "1e-110"]),
    "sigma2": (["1", "4"], ["0", "nan"]),
    "l": (["2,2,2,2", "1,2,3,3", "1,inf,inf,1", "1.5,2,2,2"],
          ["1,3,4,5", "0,1,1,1", "2,2", "x,2,2,2", "1e200,1,1,1"]),
    "fmax": (["0.5", "inf", "0.2", "inf,0.2"], ["1e-4", "0", "nan", "-inf", "x"]),
    "grid": (["0:1:0.25", "0:1:0.5", "0.5:1:0.25", "0:0.5:0.5"],
             ["1:0:0.5", "0:1", "0:inf:1", "0:1:1e-300", "a:b:c"]),
    "eps": (["1e-2", "0.5", "1"], ["nan"]),
    "horizon": (["300", "200"], ["100", "0", "-5", "nan"]),
    "seed": (["0", "3"], ["-1", "1.5"]),
    "reps": (["1", "2"], ["0", "2.5"]),
    "format": (["csv", "json"], ["xml"]),
    "scheme": (["monotone", "uniform-benchmark", "ideal-benchmark"], ["other"]),
    "out": (["out.txt", "sub/out.txt"], []),
    "cycles-out": (["cycles.csv"], ["out.txt"]),
    "simulate": (["true", "false"], ["maybe"]),  # a switch on the command line
}
FUZZ_FLAGS = sorted(FUZZ_VALUES) + ["config", "force"]
MOSTLY = (True, True, True, False)


@st.composite
def invocations(draw):
    """A command and a subset of all flags: each of its own with probability 3/4,
    and one outside its row a quarter of the time; a value a run accepts three
    times in four, so that runs get past the checks and run."""
    command = draw(st.sampled_from(sorted(ROWS)))
    own = ROWS[command] + ["config", "force"]
    flags = [f for f in own if draw(st.sampled_from(MOSTLY))]
    # the default grid (301 points) and horizon (1e5) are too large to run here
    if "grid" in own and not {"a", "b"} & set(flags):
        flags.append("grid")
    if command == "simulate" or "simulate" in flags:
        flags.append("horizon")
    if not draw(st.sampled_from(MOSTLY)):
        flags.append(draw(st.sampled_from([f for f in FUZZ_FLAGS if f not in own])))
    flags = list(dict.fromkeys(flags))
    values = {}
    for f in flags:
        if f in FUZZ_VALUES:
            good, bad = FUZZ_VALUES[f]
            values[f] = draw(st.sampled_from(good if draw(st.sampled_from(MOSTLY)) or not bad
                                             else bad))
    in_config = (draw(st.sets(st.sampled_from([f for f in flags if f != "config"])))
                 if "config" in flags else set())
    return command, flags, values, in_config


class TestFuzzMain:
    @given(invocations())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_exit_codes(self, invocation):
        command, flags, values, in_config = invocation
        row = ROWS[command]
        with tempfile.TemporaryDirectory() as tmp:
            argv, lines = [command], []
            for f in flags:
                value = values.get(f, "true")
                if f.endswith("out"):  # outputs stay in the example's directory
                    value = str(Path(tmp) / value)
                if f in in_config:
                    lines.append(f"{f} = {value}")
                elif f == "config":
                    argv += ["--config", str(Path(tmp) / "c.txt")]
                elif f in ("force", "simulate"):
                    argv.append(f"--{f}")
                else:
                    argv += [f"--{f}", value]
            if "config" in flags:
                write_config(Path(tmp) / "c.txt", "".join(line + "\n" for line in lines))
            try:
                rc = main(argv)
            except SystemExit as e:
                assert e.code == 2
                rc = "usage"
        if any(f not in row + ["config", "force"] for f in flags if f not in in_config):
            assert rc == "usage"
        elif any(f not in row for f in in_config):
            assert rc in (2, "usage")  # "usage": a bad --format or --scheme choice
        else:
            assert rc in (0, 2, 3, 4, "usage")
