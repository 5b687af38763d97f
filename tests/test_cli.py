import dataclasses
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rayflow.cli
from rayflow.cli import CSV_HEADER, main
from rayflow.config import load_config
from rayflow.errors import ConfigError
from rayflow.iterate import rough_mu
from rayflow.oracles import OracleMethod, OracleResult, direct_rayleigh_min
from rayflow.problems import MAX_N, PDirichlet1D, Steklov1D, assemble, start_vector

MATRIX_COMPARE = """
[instance]
kind = matrix
diag = 1 4

[iterate]
rtol = 1e-13
dtol = 1e-9
grad_tol = 1e-12

[flow]
tau = 1e-3
t_end = 40.0
rtol = 1e-12
dtol = 1e-7
grad_tol = 1e-11

[compare]
lambda_rtol = 1e-8
"""

PD_ITERATE = """
[instance]
kind = pdirichlet1d
p = 3.0
n = 9
L = 1.0

[iterate]
rtol = 1e-11
dtol = 1e-8
"""


NEAR_ONE = "[instance]\nkind = pdirichlet1d\np = 1.1\nn = 31\n"
#: t_end/tau overflows to inf: the flow has no step count
OVERFLOW = "[instance]\nkind = pdirichlet1d\np = 3\nn = 9\n[flow]\ntau = 1e-300\nt_end = 1e300\n"
#: tau^(p-1) at p = 3 overflows, or underflows, the doubles
TAU_OVERFLOW, TAU_UNDERFLOW = "tau = 1e300\nt_end = 1e300\n", "tau = 1e-200\nt_end = 1e-199\n"
#: Phi overflows at every start on this domain, even at unit scale
TINY_DOMAIN = "[instance]\nkind = pdirichlet1d\np = 3\nn = 15\nL = 1e-200\n"
#: the start's quotient is finite, but mu = lambda^(1/(p-1)) overflows
MU_OVERFLOW = {
    "p1.1": "[instance]\nkind = pdirichlet1d\np = 1.1\nn = 7\nL = 1e-30\n",
    "p1.05": "[instance]\nkind = pdirichlet1d\np = 1.05\nn = 15\nL = 1e-20\n",
}
#: compare at CLI defaults: every space kind but sup, both sides of p = 2
CLI_DEFAULT_CELLS = {
    "fractional1d": "kind = fractional1d\np = 1.5\nn = 15\n",
    "neumann1d": "kind = neumann1d\np = 3\nn = 11\n",
    "matrix": "kind = matrix\ndiag = 3 1 2\n",
    "steklov1d": "kind = steklov1d\np = 1.5\nn = 15\n",
    "pdirichlet2d": "kind = pdirichlet2d\np = 3\nn = 7\n",
    "pdirichlet1d": "kind = pdirichlet1d\np = 2\nn = 31\n",
}
#: instances past memory, each with the start of its error: past MAX_N the
#: grid is refused outright, below it numpy refuses the first allocation
#: under a 2 GiB address space
PAST_MEMORY = [
    ("kind = pdirichlet1d\np = 3\nn = 1e12\n", "n: must be at most "),
    (f"kind = fractional1d\np = 3\nn = {MAX_N + 1}\n", "n: must be at most "),
    ("kind = pdirichlet1d\np = 3\nn = 6e8\n", "n: kind 'pdirichlet1d' does not fit in memory: "),
    ("kind = fractional1d\np = 3\nn = 100000\n", "n: kind 'fractional1d' does not fit in memory: "),
    (f"kind = pdirichlet2d\np = 3\nn = {MAX_N}\n", "n: kind 'pdirichlet2d' does not fit in memory: "),
    ("kind = matrix\ndiag =" + " 1" * 20000 + "\n", "diag: kind 'matrix' does not fit in memory: "),
]
#: runs that fail for memory after assembly: a solve's vectors, then the oracle's starts
AFTER_ASSEMBLY = [
    ("iterate", "kind = pdirichlet1d\np = 3\nn = 30000000\n"),
    ("oracle", "kind = pdirichlet1d\np = 3\nn = 5\n[oracle]\nrestarts = 1000000000\n"),
]
#: a child's script: ``main`` runs each (command, config) pair it is given, and prints each exit code
MAIN_EACH = """import sys
from rayflow.cli import main
for command, cfg in zip(sys.argv[1::2], sys.argv[2::2]):
    print(main([command, "--config", cfg, "--out", cfg + ".out"]))
"""


def main_in_2gib(runs):
    """``MAIN_EACH`` on (command, config) pairs, in a child limited to 2 GiB of
    address space, so that no run here can touch gigabytes whatever the
    host's overcommit policy."""
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", MAIN_EACH, *(arg for run in runs for arg in run)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(Path(rayflow.cli.__file__).parents[1])},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)),
    )


#: every JSON file's keys, in the order they are written
JSON_KEYS = {
    "iterate_summary.json": ["command", "lambda_hat", "mu_hat", "iters", "converged", "stop_reason", "limit_vec"],
    "flow_summary.json": ["command", "lambda_hat", "mu_hat", "steps", "tau", "converged", "stop_reason", "limit_vec"],
    "oracle_result.json": ["command", "lambda_star", "lambda_lower", "method", "certificate", "minimizer"],
    "compare.json": [
        "command",
        "lambda_iterate",
        "lambda_flow",
        "lambda_oracle",
        "lambda_lower",
        "gap_iterate_oracle",
        "gap_flow_oracle",
        "gap_iterate_flow",
        "lambda_rtol",
        "pass",
    ],
}


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestCompare:
    def test_matrix_agreement_within_1e8(self, tmp_path):
        cfg = write(tmp_path, MATRIX_COMPARE)
        code = main(["compare", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        assert code == 0
        data = json.loads((tmp_path / "compare.json").read_text())
        assert data["pass"] is True
        for key in ("gap_iterate_oracle", "gap_flow_oracle", "gap_iterate_flow"):
            assert abs(data[key]) <= 1e-8
        assert data["lambda_oracle"] == pytest.approx(1.0, abs=1e-12)
        assert data["lambda_lower"] is None  # the Jacobi oracle gives no lower bound

    def test_scheme_below_the_lower_bound_fails(self, tmp_path, monkeypatch):
        # every R(u) is >= lambda >= lambda_lo: a scheme's lambda under the
        # oracle's lower bound, by more than 64 ulp, is a bug
        cfg = write(tmp_path, "[instance]\nkind = matrix\ndiag = 1 4\n")
        oracle = rayflow.cli.oracle_lambda
        lower = [1.5]

        def bounded(*args, **kwargs):
            return dataclasses.replace(oracle(*args, **kwargs), lambda_lower=lower[0])

        monkeypatch.setattr(rayflow.cli, "oracle_lambda", bounded)
        assert main(["compare", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
        data = json.loads((tmp_path / "compare.json").read_text())
        assert data["pass"] is False and data["lambda_lower"] == 1.5
        assert max(data[k] for k in ("gap_iterate_oracle", "gap_flow_oracle", "gap_iterate_flow")) <= 1e-8
        assert data["lambda_iterate"] >= 1.0 and data["lambda_flow"] >= 1.0
        least = min(data["lambda_iterate"], data["lambda_flow"])
        for ulps, code in ((32, 0), (128, 1)):
            lower[0] = least * (1.0 + ulps * sys.float_info.epsilon)
            assert main(["compare", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == code
            assert json.loads((tmp_path / "compare.json").read_text())["pass"] is (code == 0)

    @pytest.mark.parametrize("cell", list(CLI_DEFAULT_CELLS))
    def test_compare_passes_at_cli_defaults(self, tmp_path, cell):
        # both schemes agree with the oracle with no option set, and each
        # limit_vec is the scheme's last state rescaled by s^K at its last
        # step K: s = mu_hat for iterate, 1 + tau mu_hat for the flow
        cfg = write(tmp_path, "[instance]\n" + CLI_DEFAULT_CELLS[cell])
        assert main(["compare", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        assert json.loads((tmp_path / "compare.json").read_text())["pass"] is True
        if cell == "matrix":
            oracle = json.loads((tmp_path / "oracle_result.json").read_text())
            assert oracle["lambda_star"] == 1.0 and oracle["method"] == "jacobi_eig"
        space = assemble(load_config(cfg).instance).space
        for scheme, count, log_rate in (
            ("iterate", "iters", lambda s: math.log(s["mu_hat"])),
            ("flow", "steps", lambda s: math.log1p(s["tau"] * s["mu_hat"])),
        ):
            summary = json.loads((tmp_path / f"{scheme}_summary.json").read_text())
            norm = float((tmp_path / f"{scheme}_trace.csv").read_text().splitlines()[-1].split(",")[1])
            scale = math.exp(summary[count] * log_rate(summary) + math.log(norm))
            assert space.norm(np.array(summary["limit_vec"])) == pytest.approx(scale, rel=1e-12, abs=0.0), scheme

    def test_one_instance_per_run(self, tmp_path, monkeypatch):
        cfg = write(tmp_path, MATRIX_COMPARE)
        calls = []
        monkeypatch.setattr(rayflow.cli, "assemble", lambda c: calls.append(c) or assemble(c))
        assert main(["compare", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        assert len(calls) == 1


class TestConfigErrors:
    def test_bad_p_exits_2_naming_key(self, tmp_path, capsys):
        cfg = write(tmp_path, "[instance]\nkind = pdirichlet1d\np = 0.5\nn = 4\n")
        code = main(["iterate", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "p" in capsys.readouterr().err

    def test_unknown_section(self, tmp_path, capsys):
        cfg = write(tmp_path, "[instance]\nkind = pdirichlet1d\np = 2.0\nn = 4\n[turbo]\nx = 1\n")
        code = main(["iterate", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "turbo" in capsys.readouterr().err

    def test_unknown_key_in_section(self, tmp_path, capsys):
        cfg = write(tmp_path, "[instance]\nkind = pdirichlet1d\np = 2.0\nn = 4\nwavelength = 8\n")
        code = main(["iterate", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "wavelength" in capsys.readouterr().err

    def test_missing_config_flag(self, tmp_path, capsys):
        code = main(["iterate", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize(
        "key, text",
        [("config", None), ("config", "kind = matrix\n"), ("instance", "[iterate]\nrtol = 1e-9\n")],
        ids=["missing-file", "parse-error", "no-instance"],
    )
    def test_unusable_config_file_exits_2(self, tmp_path, capsys, key, text):
        cfg = write(tmp_path, text) if text is not None else str(tmp_path / "absent.cfg")
        assert main(["iterate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key}:")
        assert [f.name for f in tmp_path.iterdir()] == ([] if text is None else ["run.cfg"])

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "[instance]\nkind = matrix\ndiag = 1 2\n")
        assert main(["iterate", "--config", cfg, "--out", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: out:")

    def test_numeric_failure_outside_a_scheme_exits_1(self, tmp_path, capsys):
        cfg = write(tmp_path, "[instance]\nkind = pdirichlet1d\np = 3\nn = 300\n")
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "numeric failure: direct oracle is limited to dim <= 256\n"

    @pytest.mark.parametrize("command", ["iterate", "flow", "compare"])
    def test_overflowing_start_exits_1_before_any_solve(self, tmp_path, capsys, command):
        # a numeric failure naming Phi, not a config error about the auto
        # tau; no RuntimeWarning (the test configuration makes one an error)
        cfg = write(tmp_path, TINY_DOMAIN)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "numeric failure: Phi at the start is not finite\n"
        assert [f.name for f in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize(
        "command, options", [("iterate", ""), ("flow", "tau = 0.01\nt_end = 1\n")], ids=["iterate", "flow"]
    )
    def test_zero_start_exits_1_before_any_solve(self, tmp_path, capsys, command, options):
        # all-ones is the zero class of the quotient space; with an explicit
        # tau the flow used to exit 0 with a null lambda_hat
        cfg = write(tmp_path, f"[instance]\nkind = neumann1d\np = 3\nn = 9\n[{command}]\nu0 = ones\n{options}")
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "numeric failure: u0 must have nonzero norm\n"
        assert [f.name for f in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("case", sorted(MU_OVERFLOW))
    @pytest.mark.parametrize("command", ["iterate", "flow"])
    def test_overflowing_mu_exits_1(self, tmp_path, capsys, command, case):
        cfg = write(tmp_path, MU_OVERFLOW[case])
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("numeric failure: mu = lambda^(1/(p-1)) overflows at lambda = ")
        assert [f.name for f in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize(
        "key, body",
        [
            ("diag", "kind = matrix\ndiag = 1 x\n"),
            ("diag", "kind = matrix\ndiag =\n"),
            ("matrix", "kind = matrix\nmatrix = 2 1; 1 x\n"),
            ("matrix", "kind = matrix\nmatrix = 2 1; 1 2 3\n"),
            ("n", "kind = pdirichlet1d\np = 2.0\nn = inf\n"),
            ("n", "kind = pdirichlet1d\np = 2.0\nn = nan\n"),
            ("L", "kind = pdirichlet1d\np = 2.0\nn = 4\nL = nan\n"),
            ("L", "kind = pdirichlet1d\np = 2.0\nn = 4\nL = inf\n"),
            ("seed", "kind = pdirichlet1d\np = 2.0\nn = 4\nseed = 3\n"),
            ("eps", "kind = matrix\ndiag = 1 2\neps = 0.7\n"),
            ("matrix", "kind = matrix\ndiag = 1 2\nmatrix = 2 1; 1 2\n"),
            ("matrix", "kind = matrix\n"),
            ("n", "kind = pdirichlet1d\np = 2.0\nn = 0\n"),
            ("L", "kind = pdirichlet1d\np = 2.0\nn = 4\nL = -1\n"),
            ("p", "kind = pdirichlet1d\nn = 4\n"),
            ("diag", "kind = matrix\ndiag = 1 nan\n"),
        ],
        ids=[
            "diag-word",
            "diag-empty",
            "matrix-word",
            "matrix-ragged",
            "n-inf",
            "n-nan",
            "L-nan",
            "L-inf",
            "seed",
            "matrix-eps",
            "matrix-and-diag",
            "matrix-missing",
            "n-0",
            "L-neg",
            "p-missing",
            "diag-nan",
        ],
    )
    def test_bad_instance_value_exits_2_naming_key(self, tmp_path, capsys, key, body):
        cfg = write(tmp_path, "[instance]\n" + body)
        code = main(["iterate", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {key}:")

    @pytest.mark.parametrize(
        "body",
        ["kind = pdirichlet1d\np = 3\nn = 1e300\n", "kind = pdirichlet2d\np = 3\nn = 1e10\n"],
        ids=["pdirichlet1d-1e300", "pdirichlet2d-1e10"],
    )
    def test_grid_past_the_index_range_exits_2_naming_n(self, tmp_path, capsys, body):
        # numpy cannot index the grid: refused before any array is built
        # (numpy itself would refuse these too, so they can run in-process)
        cfg = write(tmp_path, "[instance]\n" + body)
        assert main(["iterate", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: n: must be at most {MAX_N}, ") and "Traceback" not in err

    def test_instance_past_memory_exits_2_naming_its_key(self, tmp_path):
        cfgs = [write(tmp_path, "[instance]\n" + body, f"{i}.cfg") for i, (body, _) in enumerate(PAST_MEMORY)]
        run = main_in_2gib([("iterate", cfg) for cfg in cfgs])
        assert run.returncode == 0 and "Traceback" not in run.stderr, run.stderr
        assert run.stdout.splitlines() == ["2"] * len(PAST_MEMORY)
        for line, (_, start) in zip(run.stderr.splitlines(), PAST_MEMORY, strict=True):
            assert line.startswith("error: " + start), line

    def test_out_of_memory_after_assembly_exits_1(self, tmp_path):
        # the instance fits; a solve or the oracle's starts do not
        runs = [(command, write(tmp_path, "[instance]\n" + body, f"{command}.cfg")) for command, body in AFTER_ASSEMBLY]
        run = main_in_2gib(runs)
        assert run.returncode == 0 and "Traceback" not in run.stderr, run.stderr
        assert run.stdout.splitlines() == ["1"] * len(AFTER_ASSEMBLY)
        for line, _ in zip(run.stderr.splitlines(), AFTER_ASSEMBLY, strict=True):
            assert line.startswith("numeric failure: out of memory: "), line

    @pytest.mark.parametrize(
        "kind", ["pdirichlet1d", "pdirichlet2d", "fractional1d", "robin1d", "neumann1d", "supdirichlet1d", "steklov1d"]
    )
    def test_eps_is_no_instance_key(self, tmp_path, capsys, kind):
        # every energy is p-homogeneous: no kind takes a smoothing parameter
        with pytest.raises(ConfigError, match="^eps: "):
            assemble({"kind": kind, "p": 2.0, "n": 4, "eps": 0.1})
        cfg = write(tmp_path, f"[instance]\nkind = {kind}\np = 2.0\nn = 4\neps = 0.1\n")
        assert main(["iterate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: eps:")

    @pytest.mark.parametrize(
        "command, key, body",
        [
            ("iterate", "max_iters", "[iterate]\nmax_iters = 0\n"),
            ("iterate", "max_iters", "[iterate]\nmax_iters = -5\n"),
            ("iterate", "grad_tol", "[iterate]\ngrad_tol = 0\n"),
            ("iterate", "grad_tol", "[iterate]\ngrad_tol = auto\n"),
            ("iterate", "rtol", "[iterate]\nrtol = -1e-9\n"),
            ("iterate", "dtol", "[iterate]\ndtol = nan\n"),
            ("flow", "tau", "[flow]\ntau = 0\nt_end = 1.0\n"),
            ("flow", "tau", "[flow]\ntau = none\nt_end = 1.0\n"),
            ("flow", "t_end", "[flow]\ntau = 0.5\nt_end = 0.1\n"),
            ("flow", "t_end", "[flow]\ntau = 0.5\nt_end = inf\n"),
            ("flow", "grad_tol", "[flow]\ngrad_tol = 0\ntau = 0.1\nt_end = 1.0\n"),
            ("flow", "rtol", "[flow]\nrtol = 0\ntau = 0.1\nt_end = 1.0\n"),
            ("oracle", "tol", "[oracle]\ntol = 0\n"),
            ("oracle", "tol", "[oracle]\ntol = nan\n"),
            ("oracle", "restarts", "[oracle]\nrestarts = -2\n"),
            ("compare", "lambda_rtol", "[compare]\nlambda_rtol = -1\n"),
            ("compare", "tol", "[oracle]\ntol = 0\n"),
            ("compare", "rtol", "[flow]\nrtol = 0\n"),
            ("compare", "tau", "[flow]\ntau = -1\n"),
            ("compare", "t_end", "[flow]\ntau = 0.5\nt_end = 0.1\n"),
            ("compare", "u0", "[flow]\nu0 = bogus\n"),
            ("flow", "tau", NEAR_ONE + "[flow]\ntau = 0\n"),
            ("flow", "t_end", OVERFLOW),
            ("compare", "t_end", OVERFLOW),
        ],
        ids=[
            "max_iters-0",
            "max_iters-neg",
            "grad_tol-0",
            "grad_tol-auto",
            "rtol-neg",
            "dtol-nan",
            "tau-0",
            "tau-none",
            "t_end-below-tau",
            "t_end-inf",
            "flow-grad_tol-0",
            "flow-rtol-0",
            "oracle-tol-0",
            "oracle-tol-nan",
            "restarts-neg",
            "lambda_rtol-neg",
            "compare-oracle-tol-0",
            "compare-flow-rtol-0",
            "compare-tau-neg",
            "compare-t_end-below-tau",
            "compare-u0-bogus",
            "tau-0-before-auto-t_end",
            "t_end-overflow",
            "compare-t_end-overflow",
        ],
    )
    def test_bad_option_exits_2_naming_key(self, tmp_path, capsys, command, key, body):
        # a body with its own [instance] replaces the default one; near p = 1
        # an auto t_end's rough_mu solve would fail if it ran first
        head = "" if body.startswith("[instance]") else "[instance]\nkind = pdirichlet1d\np = 2.0\nn = 4\n"
        cfg = write(tmp_path, head + body)
        code = main([command, "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {key}:")
        # rejected before any solve: nothing but the config in the output directory
        assert [f.name for f in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("command", ["flow", "compare"])
    @pytest.mark.parametrize("step", [TAU_OVERFLOW, TAU_UNDERFLOW], ids=["overflow", "underflow"])
    def test_unrepresentable_penalty_exits_2_naming_tau(self, tmp_path, capsys, command, step):
        # tau^(p-1), the movement penalty's divisor, leaves the normal doubles
        cfg = write(tmp_path, "[instance]\nkind = pdirichlet1d\np = 3\nn = 5\n[flow]\n" + step)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: tau: tau^(p-1) must be a normal double, got tau = ")
        assert [f.name for f in tmp_path.iterdir()] == ["run.cfg"]

    def test_unrepresentable_auto_penalty_exits_2_naming_tau(self, tmp_path, capsys, monkeypatch):
        # an automatic tau = 0.01/mu is checked like an explicit one
        monkeypatch.setattr(rayflow.cli, "rough_mu", lambda inst, u0: 1e-200)
        cfg = write(tmp_path, "[instance]\nkind = pdirichlet1d\np = 3\nn = 5\n")
        assert main(["flow", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: tau: tau^(p-1) must be a normal double, got tau = 1e+198 at p = 3.0 (in [flow])\n"
        )
        assert [f.name for f in tmp_path.iterdir()] == ["run.cfg"]


class TestExtremeMagnitudes:
    """Runs whose terms leave the double range end in a documented exit code, never a traceback."""

    def test_prediction_of_zero_norm_starts_at_the_anchor(self, tmp_path, capsys):
        # the start's quotient, about 1e200, divides each predicted state by
        # s = 1 + tau mu, about 1e98: the third prediction underflows to norm 0
        cfg = write(tmp_path, "[instance]\nkind = robin1d\np = 3\nn = 4\nbeta = 1e200\n")
        assert main(["flow", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
        assert capsys.readouterr().err == "numeric failure: non-finite gradient entry at index 0\n"

    @pytest.mark.parametrize("command", ["iterate", "flow"])
    def test_non_finite_minimizer_exits_1_naming_the_step(self, tmp_path, capsys, command):
        # lambda is about 1e-99: the state grows about 1e99-fold per step
        # until step 4's minimizer is nan, in the run or in the automatic
        # step's rough_mu; the failure names the step
        cfg = write(tmp_path, "[instance]\nkind = pdirichlet1d\np = 2\nn = 5\nL = 1e50\n")
        with np.errstate(all="ignore"):
            assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
        [line] = [line for line in capsys.readouterr().out.splitlines() if line.startswith(f"{command}: ")]
        assert line.endswith("pdirichlet1d: minimizer at outer step 4 is not finite")
        assert len((tmp_path / f"{command}_trace.csv").read_text().splitlines()) == (5 if command == "iterate" else 1)

    @pytest.mark.parametrize(
        "body, lam",
        [
            ("kind = matrix\ndiag = 1e300 2e300\n", 1.0000000268715645e300),
            ("kind = robin1d\np = 3\nn = 2\nbeta = 1e300\n", 9.9999999999999976e299),
        ],
        ids=["matrix", "robin1d"],
    )
    def test_energy_identity_terms_past_the_double_range(self, tmp_path, body, lam):
        # speed^p/p and slope^q/q overflow: the residual column reads nan, the run goes on
        cfg = write(tmp_path, "[instance]\n" + body)
        assert main(["flow", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        assert json.loads((tmp_path / "flow_summary.json").read_text())["lambda_hat"] == pytest.approx(lam, rel=1e-12)
        rows = (tmp_path / "flow_trace.csv").read_text().splitlines()[1:]
        assert all(row.endswith(",nan") for row in rows)


class TestOutputs:
    def test_iterate_files_and_schema(self, tmp_path):
        cfg = write(tmp_path, PD_ITERATE)
        code = main(["iterate", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        assert code == 0
        csv_text = (tmp_path / "iterate_trace.csv").read_text()
        lines = csv_text.split("\n")
        assert lines[0] == CSV_HEADER
        assert csv_text.endswith("\n") and "\r" not in csv_text
        summary = json.loads((tmp_path / "iterate_summary.json").read_text())
        assert summary["command"] == "iterate"
        assert summary["converged"] is True
        assert summary["mu_hat"] == pytest.approx(summary["lambda_hat"] ** (1 / 2), rel=1e-12)
        assert len(summary["limit_vec"]) == 9

    def test_flow_and_oracle_files(self, tmp_path):
        cfg = write(tmp_path, MATRIX_COMPARE)
        assert main(["flow", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        flow = json.loads((tmp_path / "flow_summary.json").read_text())
        assert flow["tau"] == pytest.approx(1e-3)
        oracle = json.loads((tmp_path / "oracle_result.json").read_text())
        assert oracle["method"] == "jacobi_eig"
        assert oracle["lambda_lower"] is None
        assert (tmp_path / "flow_trace.csv").read_text().split("\n")[0] == CSV_HEADER

    @pytest.mark.parametrize(
        "u0, command",
        [
            pytest.param(u0, command, id=u0 if command == "iterate" else f"{u0}-{command}")
            for command in ("iterate", "flow", "compare")
            for u0 in ("ones", "random")
        ],
    )
    def test_determinism_byte_identical(self, tmp_path, capsys, u0, command):
        cfg = write(tmp_path, PD_ITERATE + f"u0 = {u0}\n\n[flow]\nu0 = {u0}\n")
        runs = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert main([command, "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
            runs.append(({f.name: f.read_bytes() for f in out.iterdir()}, capsys.readouterr().out))
        assert runs[0] == runs[1]
        files = runs[0][0]
        schemes = ["iterate", "flow"] if command == "compare" else [command]
        written = [f"{s}_{kind}" for s in schemes for kind in ("trace.csv", "summary.json")]
        written += ["oracle_result.json", "compare.json"] if command == "compare" else []
        assert sorted(files) == sorted(written)
        for name in written:
            if name.endswith(".json"):
                assert list(json.loads(files[name])) == JSON_KEYS[name], name

    def test_oracle_brackets_the_fractional_lambda(self, tmp_path):
        # the fractional kernel's Picone bracket through main, the console script's entry point
        cfg = write(tmp_path, "[instance]\nkind = fractional1d\np = 3\nn = 31\n")
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        oracle = json.loads((tmp_path / "oracle_result.json").read_text())
        assert oracle["lambda_lower"] <= oracle["lambda_star"] and oracle["certificate"] <= 1e-8
        assert list(oracle) == JSON_KEYS["oracle_result.json"]

    def test_uncertified_oracle_exits_1_and_keeps_result(self, tmp_path, monkeypatch):
        cfg = write(tmp_path, MATRIX_COMPARE + "\n[oracle]\ntol = 1e-8\n")

        def uncertified(inst, restarts, tol):
            return OracleResult(1.5, np.array([1.0, 0.0]), OracleMethod.JACOBI_EIG, 0.52)

        monkeypatch.setattr(rayflow.cli, "oracle_lambda", uncertified)
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
        oracle = json.loads((tmp_path / "oracle_result.json").read_text())
        assert oracle["certificate"] == 0.52
        assert oracle["lambda_star"] == 1.5

    @pytest.mark.parametrize("factor, code", [(2.0, 1), (1.0, 0)])
    def test_oracle_exit_code_is_gated_at_tol(self, tmp_path, monkeypatch, factor, code):
        # a certificate of 2 tol fails the gate; one of exactly tol passes
        cfg = write(tmp_path, MATRIX_COMPARE + "\n[oracle]\ntol = 1e-8\n")
        result = OracleResult(1.5, np.array([1.0, 0.0]), OracleMethod.JACOBI_EIG, factor * 1e-8)
        monkeypatch.setattr(rayflow.cli, "oracle_lambda", lambda inst, restarts, tol: result)
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == code

    def test_oracle_reads_no_run_seed(self, tmp_path):
        # lambda depends on Phi and the norm alone: a random restart must not move with --seed
        cfg = write(tmp_path, "[instance]\nkind = steklov1d\np = 1.5\nn = 15\n")
        files = []
        for seed in ("0", "7"):
            out = tmp_path / seed
            assert main(["oracle", "--config", cfg, "--out", str(out), "--seed", seed, "--quiet"]) == 0
            files.append((out / "oracle_result.json").read_bytes())
        assert files[0] == files[1]
        assert json.loads(files[0])["lambda_star"] == direct_rayleigh_min(Steklov1D(1.5, 15)).lambda_star

    def test_random_start_takes_a_negative_seed(self, tmp_path):
        cfg = write(tmp_path, PD_ITERATE + "u0 = random\n")
        assert main(["iterate", "--config", cfg, "--out", str(tmp_path), "--seed", "-1", "--quiet"]) == 0
        inst = PDirichlet1D(3.0, 9)
        start = (tmp_path / "iterate_trace.csv").read_text().split("\n")[1].split(",")
        assert float(start[1]) == inst.space.norm(start_vector(inst, "random", -1))

    @pytest.mark.parametrize("u0", ["ramp", "random"])
    def test_start_policy_and_run_seed(self, tmp_path, u0):
        # the first trace row is the start; a random start draws from [run] seed
        cfg = write(tmp_path, PD_ITERATE + f"u0 = {u0}\n\n[run]\nseed = 11\n")
        assert main(["iterate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        inst = PDirichlet1D(3.0, 9)
        start = (tmp_path / "iterate_trace.csv").read_text().split("\n")[1].split(",")
        assert float(start[1]) == inst.space.norm(start_vector(inst, u0, 11))
        if u0 == "random":
            assert float(start[1]) != inst.space.norm(start_vector(inst, u0, 0))

    def test_disabled_rq_stop_runs_to_max_iters(self, tmp_path):
        cfg = write(tmp_path, PD_ITERATE.replace("rtol = 1e-11", "rtol = none") + "max_iters = 12\n")
        assert main(["iterate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        summary = json.loads((tmp_path / "iterate_summary.json").read_text())
        assert summary["iters"] == 12 and summary["stop_reason"] == "max_iters"

    @pytest.mark.parametrize("tau, t_end", [("auto", "0.05"), ("0.25", "auto")])
    def test_auto_step_and_horizon_from_rough_mu(self, tmp_path, tau, t_end):
        flow = f"[flow]\ntau = {tau}\nt_end = {t_end}\nrtol = none\ndtol = none\n"
        cfg = write(tmp_path, "[instance]\nkind = pdirichlet1d\np = 3.0\nn = 9\n" + flow)
        assert main(["flow", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        summary = json.loads((tmp_path / "flow_summary.json").read_text())
        mu = rough_mu(PDirichlet1D(3.0, 9), np.ones(9))
        if tau == "auto":
            assert summary["tau"] == 0.01 / mu
            assert summary["steps"] == round(0.05 / (0.01 / mu))
        else:
            assert summary["steps"] == round(50.0 / mu / 0.25)

    @pytest.mark.parametrize("command", ["flow", "compare"])
    def test_failed_auto_step_exits_1_with_empty_flow_trace(self, tmp_path, capsys, command):
        # the loose inverse iteration behind tau = auto fails near p = 1; the
        # flow reports it as its own failure, before its first row
        cfg = write(tmp_path, "[instance]\nkind = pdirichlet1d\np = 1.1\nn = 31\n[oracle]\nrestarts = 0\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out.splitlines()
        [line] = [line for line in out if line.startswith("flow: ")]
        assert line.startswith("flow: automatic step: pdirichlet1d: inner solve failed to converge at outer step 1")
        assert (tmp_path / "flow_trace.csv").read_text() == CSV_HEADER + "\n"
        assert not (tmp_path / "flow_summary.json").exists() and not (tmp_path / "compare.json").exists()

    @pytest.mark.parametrize(
        "command, section", [("iterate", ""), ("flow", "[flow]\ntau = 0.001\nt_end = 0.01\n")], ids=["iterate", "flow"]
    )
    def test_numeric_failure_exits_1_keeping_start_row(self, tmp_path, command, section):
        # near p = 1 the first inner solve fails: the trace keeps the start
        # row, and no summary is written
        cfg = write(tmp_path, "[instance]\nkind = pdirichlet1d\np = 1.1\nn = 31\n" + section)
        assert main([command, "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
        lines = (tmp_path / f"{command}_trace.csv").read_text().split("\n")
        assert lines[0] == CSV_HEADER and lines[1].startswith("0,") and lines[2:] == [""]
        assert not (tmp_path / f"{command}_summary.json").exists()
