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
from .flow import FlowOptions, FlowTrace, check_step, run_flow
from .iterate import IterOptions, SchemeFailure, iterate, rough_mu
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


def _flow_params(cfg: RunConfig, inst, u0):
    """(tau, t_end, options) of [flow]; a failed ``auto`` estimate is the
    flow's own SchemeFailure, with an empty trace."""
    c = cfg.flow
    opts = _scheme_options(FlowOptions, "flow", c)
    tau, t_end = c.get("tau", "auto"), c.get("t_end", "auto")
    if tau == "auto" or t_end == "auto":
        try:
            mu = rough_mu(inst, u0)
        except SchemeFailure as e:
            raise SchemeFailure(f"automatic step: {e}", FlowTrace(inst.p)) from None
        if tau == "auto":
            tau = 0.01 / mu
        if t_end == "auto":
            t_end = 50.0 / mu
    with _options_of("flow"):
        check_step(tau, t_end)
    return float(tau), float(t_end), opts


def _run_iterate(cfg: RunConfig, out: Path, say):
    inst = assemble(cfg.instance)
    u0 = start_vector(inst, cfg.iterate.get("u0"), cfg.seed)
    try:
        trace, summary = iterate(inst, u0, _scheme_options(IterOptions, "iterate", cfg.iterate))
    except SchemeFailure as e:
        _write_trace_csv(out / "iterate_trace.csv", _iterate_rows(e.trace))
        say(f"iterate: {e}")
        return 1, None
    _write_trace_csv(out / "iterate_trace.csv", _iterate_rows(trace))
    _write_json(
        out / "iterate_summary.json",
        {
            "command": "iterate",
            "lambda_hat": summary.lambda_hat,
            "mu_hat": summary.mu_hat,
            "iters": summary.iters,
            "converged": summary.converged,
            "stop_reason": summary.stop_reason.value,
            "limit_vec": summary.limit_vec,
        },
    )
    say(f"iterate: lambda_hat={_g17(summary.lambda_hat)} ({summary.stop_reason.value}, {summary.iters} steps)")
    return 0, summary


def _run_flow(cfg: RunConfig, out: Path, say):
    inst = assemble(cfg.instance)
    u0 = start_vector(inst, cfg.flow.get("u0"), cfg.seed)
    try:
        tau, t_end, opts = _flow_params(cfg, inst, u0)
        trace, summary = run_flow(inst, u0, tau, t_end, opts)
    except SchemeFailure as e:
        _write_trace_csv(out / "flow_trace.csv", _flow_rows(e.trace))
        say(f"flow: {e}")
        return 1, None
    _write_trace_csv(out / "flow_trace.csv", _flow_rows(trace))
    _write_json(
        out / "flow_summary.json",
        {
            "command": "flow",
            "lambda_hat": summary.lambda_hat,
            "mu_hat": summary.mu_hat,
            "steps": summary.steps,
            "tau": tau,
            "converged": summary.converged,
            "stop_reason": summary.stop_reason.value,
            "limit_vec": summary.limit_vec,
        },
    )
    say(f"flow: lambda_hat={_g17(summary.lambda_hat)} ({summary.stop_reason.value}, {summary.steps} steps)")
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
    code_i, s_it = _run_iterate(cfg, out, say)
    code_f, s_fl = _run_flow(cfg, out, say)
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
            "iterate": lambda: _run_iterate(cfg, out, say)[0],
            "flow": lambda: _run_flow(cfg, out, say)[0],
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
