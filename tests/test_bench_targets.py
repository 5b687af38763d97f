"""The benchmark's tracer finds every name it wraps where it looks it up,
and reads real counts off their return values; the solve paths the
benchmark times enter none of numpy's Python-level wrappers; each module's
public names are where its ``__all__`` says.

``perfbench/tracing.py`` wraps rayflow functions by module and attribute
name and counts iterations and steps from the reports they return; a rename
or a dropped import in ``src`` would show there only as an error inside a
traced run.
"""

import dataclasses
import importlib
import json
import os
import pkgutil
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np

from rayflow import cli, oracles, problems
from rayflow.inner import SolveReport, minimize_movement, minimize_phi_minus_linear
from rayflow.iterate import IterOptions, iterate
from rayflow.problems import FractionalSeminorm1D, NeumannQuotient1D, PDirichlet1D, Steklov1D

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    # executed from its source text, so nothing is written next to it
    mod = types.ModuleType("perfbench_tracing")
    mod.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), mod.__dict__)
    return mod


def test_every_traced_name_is_where_the_tracer_looks():
    targets = _tracing().targets()
    assert len(targets) > 10
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr, _ in targets if attr not in vars(owner)]
    assert missing == []


def test_a_submodule_import_binds_the_module():
    # the package root re-exports nothing, so no name there shadows a module
    import rayflow.iterate as m

    assert m is sys.modules["rayflow.iterate"]


def test_every_listed_public_name_resolves():
    # each module's __all__ is the one declaration of its public names
    import rayflow

    modules = [importlib.import_module(f"rayflow.{info.name}") for info in pkgutil.iter_modules(rayflow.__path__)]
    listed = [m for m in modules if hasattr(m, "__all__")]
    assert len(listed) >= 8
    missing = [(m.__name__, name) for m in listed for name in m.__all__ if not hasattr(m, name)]
    assert missing == []


def test_every_field_the_tracer_reads_exists(tmp_path):
    missing = [name for name in ("iters", "converged") if name not in {f.name for f in dataclasses.fields(SolveReport)}]
    assert missing == []
    # the scheme counts come off what the CLI's scheme calls return, so they
    # must equal the summaries' counts; an explicit tau and t_end keep
    # rough_mu's inverse iteration out of the iterate count
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[instance]\nkind = matrix\ndiag = 1 4\n[flow]\ntau = 0.01\nt_end = 1.0\n", encoding="utf-8")
    with _tracing().Tracer() as tracer:
        for command in ("iterate", "flow"):
            assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    summary = {name: json.loads((tmp_path / f"{name}_summary.json").read_text()) for name in ("iterate", "flow")}
    assert summary["iterate"]["iters"] > 0 and summary["flow"]["steps"] > 0
    assert tracer.counts["iterate.outer_steps"] == summary["iterate"]["iters"]
    assert tracer.counts["flow.steps"] == summary["flow"]["steps"]


def test_one_call_is_one_span_for_every_kind():
    # the tracer wraps value and gradient on every class that defines them;
    # an override that called super() would count one call twice
    tracing = _tracing()
    for kind in problems._KINDS:
        cfg = {"kind": kind, "diag": [1.0, 2.0]} if kind == "matrix" else {"kind": kind, "p": 3.0, "n": 4}
        inst = problems.assemble(cfg)
        u = np.linspace(0.5, 1.0, inst.space.dim)
        with tracing.Tracer() as tracer:
            inst.value(u)
            after_value = Counter(tracer.spans.names[i] for i in tracer.spans.name)
            inst.gradient(u)
            after_gradient = Counter(tracer.spans.names[i] for i in tracer.spans.name)
        assert (after_value["problems.value"], after_value["problems.gradient"]) == (1, 0), kind
        assert (after_gradient["problems.value"], after_gradient["problems.gradient"]) == (1, 1), kind


#: numpy's Python-level wrapper modules (numpy 1.x and 2.x file names)
WRAPPER_FILES = {
    "fromnumeric.py",
    "numeric.py",
    "function_base.py",
    "_function_base_impl.py",
    "twodim_base.py",
    "_twodim_base_impl.py",
}


def _wrapper_calls(call):
    """Counter of the numpy wrapper functions entered while ``call()`` runs."""
    entered = Counter()

    def profile(frame, event, arg):
        if event == "call" and os.path.basename(frame.f_code.co_filename) in WRAPPER_FILES:
            entered[f"{os.path.basename(frame.f_code.co_filename)}:{frame.f_code.co_name}"] += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return entered


def _hot_calls():
    """(label, call) for each solve path the schemes and the sphere oracle repeat."""
    frac, neu, stek = FractionalSeminorm1D(3.0, 15), NeumannQuotient1D(3.0, 15), Steklov1D(1.5, 15)
    x = np.linspace(0.0, 1.0, 15)
    bump, ramp = np.sin(np.pi * (x + 0.1) / 1.2), np.linspace(-1.0, 1.0, 15)

    def movement(inst, g):
        return lambda: minimize_movement(inst, g, 0.01)

    def phi_minus_linear(inst):  # exact path for PDirichlet1D, descent for Steklov1D
        return lambda: minimize_phi_minus_linear(inst, inst.space.duality_map(bump))

    def sphere(inst, u0):
        return lambda: oracles._spg(inst, u0, 1e-5, 50)

    return [
        ("movement fractional1d", movement(frac, bump)),
        ("movement neumann1d", movement(neu, ramp)),
        ("movement steklov1d", movement(stek, bump)),
        ("phi_minus_linear pdirichlet1d", phi_minus_linear(PDirichlet1D(3.0, 15))),
        ("phi_minus_linear steklov1d", phi_minus_linear(stek)),
        ("two iterate steps neumann1d", lambda: iterate(neu, ramp, IterOptions(rtol=None, dtol=None, max_iters=2))),
        ("sphere descent fractional1d", sphere(frac, bump)),
        ("sphere descent neumann1d", sphere(neu, ramp)),
    ]


def test_hot_paths_skip_numpy_dispatch():
    """Per-evaluation code calls ndarray methods and ufuncs, not numpy's
    Python-level wrappers (``np.sum``, ``np.max``, ``np.diff``, ``np.diag``,
    ``np.zeros_like``, ``np.array_equal``, ...).  At n <= 127 a wrapper's
    dispatch costs more than its arithmetic, and the method runs the same C
    reduction.  The sup movement step (``inner._box_kkt``, ``solve_box``,
    ``inner._sup_movement``) is exempt: perfbench's traced ``sup1d-p3-n5``
    case already comes close to the 50 ms sampler period that its test
    asserts on, so that path waits for the sampler fix (ROADMAP item 1)."""
    entered = {label: _wrapper_calls(call) for label, call in _hot_calls()}
    assert {label: dict(c) for label, c in entered.items() if c} == {}
