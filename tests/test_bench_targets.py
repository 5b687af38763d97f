"""The benchmark's tracer finds every name it wraps where it looks it up,
and every field it reads off their return values.

``perfbench/tracing.py`` wraps rayflow functions by module and attribute
name and counts iterations and steps from the reports they return; a rename
or a dropped import in ``src`` would show there only as an error inside a
traced run.
"""

import dataclasses
import types
from collections import Counter
from pathlib import Path

import numpy as np

from rayflow import problems
from rayflow.flow import FlowSummary
from rayflow.inner import SolveReport
from rayflow.iterate import RunSummary

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


def test_every_field_the_tracer_reads_exists():
    read = {SolveReport: ("iters", "converged"), RunSummary: ("iters",), FlowSummary: ("steps",)}
    missing = [
        (cls.__name__, name)
        for cls, names in read.items()
        for name in names
        if name not in {f.name for f in dataclasses.fields(cls)}
    ]
    assert missing == []


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
