"""rayflow benchmark: time to a checked lambda on fixed CLI workloads.

    python3 perfbench/run.py --workload inverse-1d --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; rayflow is imported from ``src/``.
Each case of the workload is one in-process ``rayflow.cli.main`` call on a
generated config, checked against its reference lambda.  The whole case list
(a pass) repeats until ``--seconds`` is used up, at least twice.  The CLI
gets ``--seed`` as given; it also draws the matrix case's SPD matrix.

``--trace 0`` reports the end-to-end metrics: ``solve_s`` (median pass time
at reference host speed, see speed.py), ``setup_s`` (median time, likewise
rescaled, for a fresh interpreter to import rayflow and load and assemble
every config), ``passed_frac``, ``lambda_digits.min`` and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  A table with medians, quartiles and sample counts
precedes the last line, which is one JSON object; the full report and the
spans of the last traced pass go to ``.perfbench_out/``.  See NOTES.md.
"""

from __future__ import annotations

import os

# one process, one thread: pin BLAS/OpenMP before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedSampler, Timing
from tracing import LAYER_UNITS, Tracer, layer_metrics
from workloads import WORKLOADS, check_case, load_refs, reference_lambda

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"
MIN_PASSES = 2
#: set-up probes before each untraced pass, so they sample the whole run
SETUP_PER_PASS = 4
SETUP_TIMEOUT_S = 60

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "passed_frac": "ratio",
    "lambda_digits.min": "digits",
    "peak_rss_mb": "MB",
}
ALL_CASES = [c.name for cases in WORKLOADS.values() for c in cases]


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = dict(LAYER_UNITS)
    units["cli.out_bytes"] = "bytes"
    units.update({f"case.{c}.s": "s" for c in ALL_CASES})
    units["trace.overhead"] = "ratio"
    return units


def import_cli():
    """rayflow.cli from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import rayflow.cli as cli
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import rayflow from {src}: {e}")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: rayflow was imported from {cli.__file__}, not {src}")
    return cli


def write_configs(cases, work: Path, seed: int) -> list[Path]:
    """Write each case's config for this seed; returns their paths."""
    (work / "configs").mkdir(parents=True)
    paths = [work / "configs" / f"{case.name}.ini" for case in cases]
    for case, path in zip(cases, paths):
        path.write_text(case.config_text(seed), encoding="utf-8")
    return paths


def pin_to_one_cpu():
    """Keep this process and its set-up probes on one CPU, so the speed
    sampler runs where the measured work runs."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # not supported here: measure unpinned


def measure_setup(configs, reps: int) -> list[Timing]:
    """Times of fresh interpreters importing rayflow and assembling every config."""
    probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(ROOT)] + [str(c) for c in configs]
    sampler = SpeedSampler()
    timings = []
    for _ in range(reps):
        with sampler.timing() as t:
            done = subprocess.run(probe, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        timings.append(t)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
    return timings


def run_case(cli, case, config, out: Path, seed: int):
    """One CLI call; returns its exit code, or the traceback text if it raised."""
    if out.exists():
        shutil.rmtree(out)
    argv = [case.command, "--config", str(config), "--out", str(out), "--seed", str(seed), "--quiet"]
    try:
        return cli.main(argv)
    except SystemExit as e:  # argparse exits on bad arguments
        return 0 if e.code is None else e.code if isinstance(e.code, int) else 1
    except Exception:  # a crash is a failed case; keep its traceback in the report
        return traceback.format_exc()


def run_pass(cli, cases, configs, refs, work: Path, seed: int, sampler: SpeedSampler) -> dict:
    """Run every case once, time it (see speed.py) and check it."""
    out = {"cases": {}, "solve_s": 0.0, "wall_s": 0.0, "out_bytes": 0}
    for case, config in zip(cases, configs):
        case_out = work / "out" / case.name
        with sampler.timing() as t:
            code = run_case(cli, case, config, case_out, seed)
        v = check_case(case, code, case_out, refs[case.name])
        out["solve_s"] += t.ref_s
        out["wall_s"] += t.wall_s
        out["out_bytes"] += sum(f.stat().st_size for f in case_out.glob("*") if f.is_file())
        out["cases"][case.name] = {
            "s": t.ref_s,
            "wall_s": t.wall_s,
            "failed": v.failed,
            "incorrect": v.incorrect,
            "digits": v.digits,
            "reason": v.reason,
        }
    return out


def summarize(values) -> dict:
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_cli()
    pin_to_one_cpu()
    cases = WORKLOADS[args.workload]
    work = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if work.exists():
        shutil.rmtree(work)

    configs = write_configs(cases, work, args.seed)
    stored = load_refs()
    refs = {case.name: reference_lambda(case, args.seed, stored) for case in cases}

    plain, traced, layers, setup = [], [], [], []
    tracer = None
    t_start = time.perf_counter()
    while True:
        if args.trace == 0:
            setup += measure_setup(configs, SETUP_PER_PASS)
        plain.append(run_pass(cli, cases, configs, refs, work, args.seed, SpeedSampler()))
        if args.trace:
            sampler = SpeedSampler()
            tracer = Tracer(clock=sampler.clock)
            with tracer:
                traced.append(run_pass(cli, cases, configs, refs, work, args.seed, sampler))
            layers.append(layer_metrics(tracer, scale=traced[-1]["solve_s"] / traced[-1]["wall_s"]))
        elapsed = time.perf_counter() - t_start
        per_round = elapsed / len(plain)
        if len(plain) >= MIN_PASSES - args.trace and elapsed + per_round > args.seconds:
            break

    runs = [c for p in plain + traced for c in p["cases"].values()]
    attempted = len(runs)
    failed = sum(c["failed"] for c in runs)
    correct = not any(c["incorrect"] for c in runs)

    if args.trace == 0:
        digits = [min((c["digits"] for c in p["cases"].values() if not c["failed"]), default=0.0) for p in plain]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
        stats = {
            "solve_s": summarize(p["solve_s"] for p in plain),
            "setup_s": summarize(t.ref_s for t in setup),
            "passed_frac": summarize([(attempted - failed) / attempted]),
            "lambda_digits.min": summarize(digits),
            "peak_rss_mb": summarize([rss_mb]),
            "solve_wall_s": summarize(p["wall_s"] for p in plain),
            "setup_wall_s": summarize(t.wall_s for t in setup),
        }
    else:
        units = per_layer_units()
        stats = {name: summarize(m[name] for m in layers) for name in LAYER_UNITS}
        stats["cli.out_bytes"] = summarize(p["out_bytes"] for p in traced)
        for name in ALL_CASES:
            stats[f"case.{name}.s"] = summarize(p["cases"][name]["s"] if name in p["cases"] else 0.0 for p in plain)
        overhead = statistics.median(p["solve_s"] for p in traced) / statistics.median(p["solve_s"] for p in plain) - 1.0
        stats["trace.overhead"] = summarize([overhead])
        tracer.spans.save(work / "spans.npz")

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and {len(traced)} traced passes")
    for name, c in plain[-1]["cases"].items():
        print(f"  {name:<22} {c['wall_s']:8.3f} s wall  {c['s']:8.3f} s ref  {c['reason']}")
    print(f"  failed_frac {failed / attempted:.4f} ({failed} of {attempted} case runs)")
    print(f"  {'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}  unit")
    for name, s in stats.items():
        unit = units.get(name, "s")
        print(f"  {name:<34} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} {s['n']:3d}  {unit}")

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "stats": stats, "passes": plain, "traced_passes": traced}
    (work / "report.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    metrics = {name: {"value": stats[name]["median"], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
