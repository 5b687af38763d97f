"""Batch front end: run the schemes from a config file, emit traces and summaries.

Commands:

* ``iterate``    inverse iteration -> trace CSV + summary JSON
* ``flow``       minimizing-movement flow -> trace CSV + summary JSON
* ``oracle``     independent ground truth -> result JSON
* ``compare``    all three, with pairwise relative gaps and a check against
                 the oracle's lower bound on lambda -> joint JSON

Outputs are deterministic for a fixed config and seed: floats are written
with 17 significant digits, field order is fixed, line endings are \\n.
Exit codes: 0 all good, 1 numeric failure (trace retained), 2 config error.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config, start_vector
from .errors import ConfigError, DegenerateInputError, NumericsError
from .flow import FlowOptions, check_step, run_flow
from .iterate import IterOptions, SchemeFailure, Trace, iterate, rough_mu
from .oracles import DEFAULT_SEED, oracle_lambda
from .problems import assemble
from .util import derive_seed

__all__ = ["main"]

CSV_HEADER = "k_or_t,norm,phi,rq,ratio_or_speed,slope,residual"
#: relative slack, 64 ulp, under the oracle's lower bound before compare fails
BOUND_SLACK = 64.0 * sys.float_info.epsilon


def _g17(x) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def _json_value(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return _g17(x) if math.isfinite(float(x)) else "null"
    if isinstance(x, str):
        return '"' + x.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(x, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_value(v) for v in x) + "]"
    if isinstance(x, dict):
        items = (f'"{k}": {_json_value(v)}' for k, v in x.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(x)}")


def _write_json(path: Path, obj: dict):
    path.write_text(_json_value(obj) + "\n", encoding="utf-8", newline="")


def _write_trace_csv(path: Path, rows):
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_g17(x) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


def _iterate_rows(trace):
    return [(r.k, r.norm, r.phi, r.rq, r.ratio, math.nan, r.residual) for r in trace.rows]


def _flow_rows(trace):
    return [(r.t, r.norm, r.phi, r.rq, r.speed, r.slope, r.energy_residual) for r in trace.rows]


@contextmanager
def _options_of(section):
    """Option values the schemes reject are config errors of ``section``."""
    try:
        yield
    except DegenerateInputError as e:
        raise ConfigError(f"{e} (in [{section}])") from None


def _positive(section, key, x) -> float:
    if not (0.0 < x < math.inf):
        raise ConfigError(f"{key}: must be a positive finite number, got {x} (in [{section}])")
    return float(x)


def _oracle_params(cfg: RunConfig):
    """(restarts, tol) of the [oracle] section, range-checked."""
    restarts = cfg.oracle.get("restarts", 16)
    if restarts < 0:
        raise ConfigError(f"restarts: must be >= 0, got {restarts} (in [oracle])")
    return int(restarts), _positive("oracle", "tol", cfg.oracle.get("tol", 1e-8))


def _scheme_options(cls, section: str, c: dict):
    """``cls`` from the keys that ``section`` sets; the rest keep their
    dataclass defaults."""
    names = {f.name for f in fields(cls)}
    with _options_of(section):
        return cls(**{k: v for k, v in c.items() if k in names})


def _iterate_solve(cfg: RunConfig):
    """The iterate run's solve, with its start and options built now."""
    inst = assemble(cfg.instance)
    u0 = start_vector(inst, cfg.iterate.get("u0"), cfg.seed)
    opts = _scheme_options(IterOptions, "iterate", cfg.iterate)
    return lambda: (*iterate(inst, u0, opts), {})


def _flow_solve(cfg: RunConfig):
    """The flow run's solve, with its start, options and explicit tau and
    t_end checked now.  An ``auto`` value comes from ``rough_mu`` inside the
    solve: its failure is the flow's own SchemeFailure, with an empty trace,
    and an auto t_end below an explicit tau is rejected only then."""
    c = cfg.flow
    inst = assemble(cfg.instance)
    u0 = start_vector(inst, c.get("u0"), cfg.seed)
    opts = _scheme_options(FlowOptions, "flow", c)
    tau, t_end = c.get("tau", "auto"), c.get("t_end", "auto")
    with _options_of("flow"):
        if "auto" not in (tau, t_end):
            check_step(tau, t_end)
    for key, x in (("tau", tau), ("t_end", t_end)):
        if x != "auto":
            _positive("flow", key, x)

    def solve():
        step, horizon = tau, t_end
        if "auto" in (tau, t_end):
            try:
                mu = rough_mu(inst, u0)
            except SchemeFailure as e:
                raise SchemeFailure(f"automatic step: {e}", Trace(inst.p)) from None
            step = 0.01 / mu if tau == "auto" else tau
            horizon = 50.0 / mu if t_end == "auto" else t_end
            with _options_of("flow"):
                check_step(step, horizon)
        return (*run_flow(inst, u0, step, horizon, opts), {"tau": step})

    return solve


def _run_scheme(name, count_key, solve, rows, out: Path, say):
    """Run one scheme and write ``<name>_trace.csv`` and ``<name>_summary.json``.

    ``solve()`` returns (trace, summary, extra_json_keys); the extra keys
    follow ``count_key``, which carries ``summary.steps``.  A SchemeFailure
    keeps its partial trace and writes no summary.  Returns (exit code,
    summary or None).
    """
    try:
        trace, summary, extra = solve()
    except SchemeFailure as e:
        _write_trace_csv(out / f"{name}_trace.csv", rows(e.trace))
        say(f"{name}: {e}")
        return 1, None
    _write_trace_csv(out / f"{name}_trace.csv", rows(trace))
    _write_json(
        out / f"{name}_summary.json",
        {
            "command": name,
            "lambda_hat": summary.lambda_hat,
            "mu_hat": summary.mu_hat,
            count_key: summary.steps,
            **extra,
            "converged": summary.converged,
            "stop_reason": summary.stop_reason.value,
            "limit_vec": summary.limit_vec,
        },
    )
    say(f"{name}: lambda_hat={_g17(summary.lambda_hat)} ({summary.stop_reason.value}, {summary.steps} steps)")
    return 0, summary


def _run_oracle(cfg: RunConfig, out: Path, say):
    restarts, tol = _oracle_params(cfg)
    inst = assemble(cfg.instance)
    seed = derive_seed(cfg.seed, "oracle") ^ DEFAULT_SEED
    result = oracle_lambda(inst, restarts=restarts, tol=tol, seed=seed)
    _write_json(
        out / "oracle_result.json",
        {
            "command": "oracle",
            "lambda_star": result.lambda_star,
            "lambda_lower": result.lambda_lower,
            "method": result.method.value,
            "certificate": result.certificate,
            "minimizer": result.minimizer,
        },
    )
    say(f"oracle: lambda_star={_g17(result.lambda_star)} (cert {_g17(result.certificate)})")
    if not result.certificate <= tol:
        say(f"oracle: certificate {_g17(result.certificate)} exceeds tol {_g17(tol)}")
        return 1, result
    return 0, result


def _run_compare(cfg: RunConfig, out: Path, say):
    rtol = _positive("compare", "lambda_rtol", cfg.compare.get("lambda_rtol", 1e-3))
    _oracle_params(cfg)  # reject a bad [oracle] section before the solves run
    solve_it, solve_fl = _iterate_solve(cfg), _flow_solve(cfg)
    code_i, s_it = _run_scheme("iterate", "iters", solve_it, _iterate_rows, out, say)
    code_f, s_fl = _run_scheme("flow", "steps", solve_fl, _flow_rows, out, say)
    code_o, res = _run_oracle(cfg, out, say)
    if code_i or code_f or code_o:
        return 1
    lam_o, lower = res.lambda_star, res.lambda_lower
    gap_io = abs(s_it.lambda_hat - lam_o) / lam_o
    gap_fo = abs(s_fl.lambda_hat - lam_o) / lam_o
    gap_if = abs(s_it.lambda_hat - s_fl.lambda_hat) / lam_o
    # every R(u) is >= lambda >= lambda_lo: a scheme's lambda below the bound is a bug
    below = lower is not None and min(s_it.lambda_hat, s_fl.lambda_hat) < lower - BOUND_SLACK * abs(lower)
    ok = gap_io <= rtol and gap_fo <= rtol and gap_if <= 2.0 * rtol and not below
    _write_json(
        out / "compare.json",
        {
            "command": "compare",
            "lambda_iterate": s_it.lambda_hat,
            "lambda_flow": s_fl.lambda_hat,
            "lambda_oracle": lam_o,
            "lambda_lower": lower,
            "gap_iterate_oracle": gap_io,
            "gap_flow_oracle": gap_fo,
            "gap_iterate_flow": gap_if,
            "lambda_rtol": rtol,
            "pass": ok,
        },
    )
    if below:
        say(f"compare: a scheme's lambda lies below the oracle's lower bound {_g17(lower)}")
    say(f"compare: {'pass' if ok else 'FAIL'} (gaps {_g17(gap_io)}, {_g17(gap_fo)}, {_g17(gap_if)})")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rayflow",
        description="Approximate least Rayleigh quotients by inverse iteration and maximal-slope flows.",
    )
    parser.add_argument("command", choices=["iterate", "flow", "oracle", "compare"])
    parser.add_argument("--config", help="path to the run configuration file")
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    parser.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    def say(msg):
        if not args.quiet:
            print(msg)

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"error: out: {e}", file=sys.stderr)
        return 2

    if not args.config:
        print("error: config: --config is required for this command", file=sys.stderr)
        return 2
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        dispatch = {
            "iterate": lambda: _run_scheme("iterate", "iters", _iterate_solve(cfg), _iterate_rows, out, say)[0],
            "flow": lambda: _run_scheme("flow", "steps", _flow_solve(cfg), _flow_rows, out, say)[0],
            "oracle": lambda: _run_oracle(cfg, out, say)[0],
            "compare": lambda: _run_compare(cfg, out, say),
        }
        return dispatch[args.command]()
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (NumericsError, DegenerateInputError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
