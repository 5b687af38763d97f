"""Tests of the benchmark itself: span arithmetic, tracer and sampler
transparency, restoration, repeatable counts, and the correctness check.

    python3 -m pytest -q perfbench
"""

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Case  # noqa: E402

COUNT_KEYS = [k for k, unit in tracing.LAYER_UNITS.items() if unit == "count"]
SMALL_CASES = [
    Case("sup1d-p3-n5", "compare", {"kind": "supdirichlet1d", "p": 3, "n": 5}),
    Case("neumann1d-p3-n7", "flow", {"kind": "neumann1d", "p": 3, "n": 7}),
]


def test_self_times_on_synthetic_tree():
    s = tracing.Spans()
    root = s.add("root", 0.0, 10.0)
    a = s.add("a", 1.0, 4.0, root)
    s.add("a.child", 2.0, 3.0, a)
    s.add("b", 5.0, 7.0, root)
    s.add("c", 6.0, 8.0, root)  # overlaps b: the union [5, 8] is covered once
    s.add("d", 9.0, 12.0, root)  # runs past its parent: only [9, 10] counts
    own = tracing.self_times(s)
    assert own.tolist() == pytest.approx([10.0 - 3.0 - 3.0 - 1.0, 2.0, 1.0, 2.0, 2.0, 3.0])


def _run(cli, case, tmp_path, label, traced):
    """One CLI call, bare or as a traced benchmark pass runs it (tracer and
    speed sampler both active)."""
    cfg = tmp_path / f"{case.name}.ini"
    cfg.write_text(case.config_text(0), encoding="utf-8")
    out = tmp_path / f"{case.name}-{label}"
    if not traced:
        assert run.run_case(cli, case, cfg, out, seed=0) == 0
        return out, None
    sampler = speed.SpeedSampler()
    tracer = tracing.Tracer(clock=sampler.clock)
    with tracer, sampler.timing():
        assert run.run_case(cli, case, cfg, out, seed=0) == 0
    assert len(sampler._samples) > 1  # the sampler interrupted the call
    return out, tracer


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    cli = run.import_cli()
    tmp = tmp_path_factory.mktemp("runs")
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in tracing.targets()]
    dicts = {owner: set(vars(owner)) for owner, _, _ in originals}
    runs = {}
    for case in SMALL_CASES:
        plain, _ = _run(cli, case, tmp, "plain", traced=False)
        first, t1 = _run(cli, case, tmp, "traced1", traced=True)
        _, t2 = _run(cli, case, tmp, "traced2", traced=True)
        runs[case.name] = (plain, first, t1, t2)
    return runs, originals, dicts


@pytest.mark.parametrize("case", [c.name for c in SMALL_CASES])
def test_tracing_leaves_outputs_byte_identical(traced_runs, case):
    plain, traced, _, _ = traced_runs[0][case]
    names = sorted(p.name for p in plain.iterdir())
    assert names and names == sorted(p.name for p in traced.iterdir())
    assert any(n.endswith(".csv") for n in names) and any(n.endswith(".json") for n in names)
    for n in names:
        assert (plain / n).read_bytes() == (traced / n).read_bytes(), n


def test_every_wrapped_attribute_is_restored(traced_runs):
    _, originals, dicts = traced_runs
    assert len(originals) > len(tracing.MODULE_TARGETS)
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner}.{attr}"
    for owner, names in dicts.items():
        assert set(vars(owner)) == names


@pytest.mark.parametrize("case", [c.name for c in SMALL_CASES])
def test_counts_repeat_exactly(traced_runs, case):
    _, _, t1, t2 = traced_runs[0][case]
    m1, m2 = tracing.layer_metrics(t1), tracing.layer_metrics(t2)
    assert {k: m1[k] for k in COUNT_KEYS} == {k: m2[k] for k in COUNT_KEYS}
    for key in ("inner.solves", "problems.value.calls", "problems.gradient.calls", "flow.steps"):
        assert m1[key] > 0, key


def test_box_solves_counted_apart_from_iterations(traced_runs):
    _, _, t1, _ = traced_runs[0]["sup1d-p3-n5"]
    m = tracing.layer_metrics(t1)
    assert m["inner.box_solves"] > 0
    assert m["iterate.outer_steps"] > 0 and m["oracles.oracle_lambda.s"] > 0


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.per_layer_units().items())


def test_speed_sampler_excludes_its_kernel_time():
    sampler = speed.SpeedSampler()
    t0 = time.perf_counter()
    with sampler.timing() as t:
        time.sleep(0.3)
    elapsed = time.perf_counter() - t0
    assert len(sampler._samples) >= 3 and sampler.kernel_s > 0.0
    # the first sample runs before the block; the rest interrupt it
    assert t.wall_s == pytest.approx(elapsed - sampler._samples[0] - sampler.kernel_s, abs=0.01)
    assert t.ref_s > 0.0


def _write_result(tmp_path, case, payload):
    tmp_path.mkdir(exist_ok=True)
    (tmp_path / workloads.RESULT_FILE[case.command]).write_text(json.dumps(payload), encoding="utf-8")
    return tmp_path


def test_check_flags_silent_wrong_lambda_as_incorrect(tmp_path):
    case = Case("x", "iterate", {"kind": "pdirichlet1d", "p": 2, "n": 7})
    out = _write_result(tmp_path, case, {"lambda_hat": 1.01, "converged": True})
    v = workloads.check_case(case, 0, out, 1.0)
    assert v.failed and v.incorrect


def test_check_counts_uncertified_oracle_as_failed(tmp_path):
    case = Case("x", "oracle", {"kind": "matrix"})
    out = _write_result(tmp_path, case, {"lambda_star": 1.41, "certificate": 0.53})
    v = workloads.check_case(case, 0, out, 1.00004)
    assert v.failed and not v.incorrect and "certificate" in v.reason


def test_check_passes_agreeing_lambda_with_digits(tmp_path):
    case = Case("x", "compare", {"kind": "fractional1d", "p": 3, "n": 7})
    out = _write_result(
        tmp_path, case, {"lambda_iterate": 2.0, "lambda_flow": 2.0 + 2e-9, "lambda_oracle": 2.0, "pass": True}
    )
    v = workloads.check_case(case, 0, out, 2.0)
    assert not v.failed and v.digits == pytest.approx(9.0)


def test_matrix_case_is_seeded():
    a0, a1 = workloads.spd_matrix(0), workloads.spd_matrix(1)
    assert (a0 == workloads.spd_matrix(0)).all() and not (a0 == a1).all()
    assert (a0 == a0.T).all()
