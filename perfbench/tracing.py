"""Spans around rayflow's public functions, installed from outside the package.

``Tracer.install()`` replaces each traced name where the caller looks it up
(a module global or a class attribute) with a wrapper that records a span:
name, start, end and the enclosing span.  Spans stay in flat in-memory arrays
and are written out once, at the end.  ``Tracer.restore()`` puts every
original object back.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

import numpy as np

#: (module, global name, span name) for every function wrapped where it is
#: looked up; ``rayflow.iterate`` is named via its module because the package
#: re-exports the function under the same name
MODULE_TARGETS = [
    ("rayflow.cli", "main", "cli.main"),
    ("rayflow.cli", "load_config", "config.load_config"),
    ("rayflow.cli", "assemble", "problems.assemble"),
    ("rayflow.cli", "iterate", "iterate.iterate"),
    ("rayflow.cli", "run_flow", "flow.run_flow"),
    ("rayflow.cli", "rough_mu", "flow.rough_mu"),
    ("rayflow.cli", "oracle_lambda", "oracles.oracle_lambda"),
    ("rayflow.iterate", "iterate", "iterate.iterate"),
    ("rayflow.iterate", "minimize_phi_minus_linear", "inner.minimize_phi_minus_linear"),
    ("rayflow.flow", "minimize_movement", "inner.minimize_movement"),
    ("rayflow.spaces", "optimal_shift", "spaces.optimal_shift"),
    ("rayflow.oracles", "optimal_shift", "spaces.optimal_shift"),
    ("rayflow.oracles", "symmetric_eigs", "oracles.symmetric_eigs"),
]
SPACE_METHODS = ("norm", "dual_norm", "duality_map")
PROBLEM_METHODS = ("value", "gradient", "rayleigh")
#: inner solves whose reports count iterations, and the sup-space movement
#: solve, whose report counts box sub-solves instead
ITER_SPANS = ("inner.minimize_phi_minus_linear", "inner.minimize_movement")
BOX_SPAN = "inner.minimize_movement.box"
INNER_SPANS = ITER_SPANS + (BOX_SPAN,)
#: per-layer metrics read from one traced pass, with their units
LAYER_UNITS = {
    "problems.value.calls": "count",
    "problems.value.self_s": "s",
    "problems.value.us_per_call": "us",
    "problems.gradient.calls": "count",
    "problems.gradient.self_s": "s",
    "problems.rayleigh.calls": "count",
    "spaces.norm.calls": "count",
    "spaces.norm.self_s": "s",
    "spaces.dual_norm.calls": "count",
    "spaces.dual_norm.self_s": "s",
    "spaces.duality_map.calls": "count",
    "spaces.optimal_shift.calls": "count",
    "spaces.optimal_shift.self_s": "s",
    "inner.solves": "count",
    "inner.iters": "count",
    "inner.box_solves": "count",
    "inner.unconverged": "count",
    "inner.self_s": "s",
    "inner.evals_per_iter": "ratio",
    "iterate.outer_steps": "count",
    "iterate.self_s": "s",
    "flow.steps": "count",
    "flow.self_s": "s",
    "flow.rough_mu_s": "s",
    "oracles.oracle_lambda.s": "s",
    "oracles.self_s": "s",
    "oracles.symmetric_eigs.s": "s",
    "config.load_config.s": "s",
    "cli.main.self_s": "s",
}


def targets():
    """Every (owner, attribute, span name) the tracer wraps."""
    out = [(importlib.import_module(m), attr, span) for m, attr, span in MODULE_TARGETS]
    spaces = importlib.import_module("rayflow.spaces")
    problems = importlib.import_module("rayflow.problems")
    out += [(spaces.SpaceDescriptor, m, f"spaces.{m}") for m in SPACE_METHODS]
    classes = [c for c in vars(problems).values() if isinstance(c, type) and issubclass(c, problems.ProblemInstance)]
    # wrap each method where it is defined; subclasses inherit the wrapper
    out += [(c, m, f"problems.{m}") for c in classes for m in PROBLEM_METHODS if m in vars(c)]
    return out


class Spans:
    """Flat span storage: parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span (used to build synthetic trees)."""
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def __len__(self):
        return len(self.start)

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int_),
            parent=np.frombuffer(self.parent, dtype=np.int_),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def self_times(spans: Spans) -> np.ndarray:
    """Per-span self time: duration minus the part its children cover.

    Children are recorded in start order, so their union inside the parent
    is accumulated in one pass; overlapping children are counted once and
    any part of a child outside its parent is ignored.
    """
    n = len(spans)
    start, end, parent = spans.start, spans.end, spans.parent
    covered = [0.0] * n
    reach = list(start)  # end of the covered part of each span so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    dur = np.frombuffer(end) - np.frombuffer(start)
    return dur - np.array(covered)


class Tracer:
    """Installs span-recording wrappers and reads counts off return values."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = Spans()
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span: str, on_return=None, name_for=None):
        spans, stack, clock = self.spans, self._stack, self.clock
        nid = spans.name_id(span)
        names, parents, starts, ends = spans.name, spans.parent, spans.start, spans.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid if name_for is None else name_for(args))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, out)
            return out

        return wrapper

    def _hooks(self, span: str):
        """Return-value readers and span renaming for one traced name."""
        c = self.counts
        if span == "inner.minimize_phi_minus_linear":
            def on_return(args, rep):
                c["inner.iters"] += rep.iters
                c["inner.unconverged"] += not rep.converged
            return on_return, None
        if span == "inner.minimize_movement":
            box_id = self.spans.name_id(BOX_SPAN)
            plain_id = self.spans.name_id(span)
            sup = importlib.import_module("rayflow.spaces").SpaceKind.SUP

            def name_for(args):
                return box_id if args[0].space.kind is sup else plain_id

            def on_return(args, rep):
                # on sup spaces the report counts box sub-solves, not iterations
                key = "inner.box_solves" if args[0].space.kind is sup else "inner.iters"
                c[key] += rep.iters
                c["inner.unconverged"] += not rep.converged
            return on_return, name_for
        if span == "iterate.iterate":
            def on_return(args, out):
                c["iterate.outer_steps"] += out[1].iters
            return on_return, None
        if span == "flow.run_flow":
            def on_return(args, out):
                c["flow.steps"] += out[1].steps
            return on_return, None
        return None, None

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, span in targets():
            original = vars(owner)[attr]
            on_return, name_for = self._hooks(span)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, on_return, name_for))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def layer_metrics(tracer: Tracer, scale: float = 1.0) -> dict:
    """Per-layer counts and times from one traced pass; times are multiplied
    by ``scale`` (the pass's reference-speed over wall-time ratio)."""
    spans = tracer.spans
    names = spans.names
    name = np.frombuffer(spans.name, dtype=np.int_)
    dur = np.frombuffer(spans.end) - np.frombuffer(spans.start)
    own = self_times(spans)

    def ids(*wanted):
        return np.isin(name, [names.index(w) for w in wanted if w in names])

    def calls(*wanted):
        return int(np.count_nonzero(ids(*wanted)))

    def self_s(*wanted):
        return scale * float(own[ids(*wanted)].sum())

    def total_s(*wanted):
        return scale * float(dur[ids(*wanted)].sum())

    # problems.value calls with a non-box inner solve among their ancestors
    plain_inner = {names.index(w) for w in ITER_SPANS if w in names}
    under = np.zeros(len(spans), dtype=bool)
    parent = spans.parent
    for i in range(len(spans)):
        p = parent[i]
        if p >= 0:
            under[i] = under[p] or name[p] in plain_inner
    value_in_inner = int(np.count_nonzero(under & ids("problems.value")))

    c = tracer.counts
    value_calls = calls("problems.value")
    value_self = self_s("problems.value")
    return {
        "problems.value.calls": value_calls,
        "problems.value.self_s": value_self,
        "problems.value.us_per_call": 1e6 * value_self / value_calls if value_calls else 0.0,
        "problems.gradient.calls": calls("problems.gradient"),
        "problems.gradient.self_s": self_s("problems.gradient"),
        "problems.rayleigh.calls": calls("problems.rayleigh"),
        "spaces.norm.calls": calls("spaces.norm"),
        "spaces.norm.self_s": self_s("spaces.norm"),
        "spaces.dual_norm.calls": calls("spaces.dual_norm"),
        "spaces.dual_norm.self_s": self_s("spaces.dual_norm"),
        "spaces.duality_map.calls": calls("spaces.duality_map"),
        "spaces.optimal_shift.calls": calls("spaces.optimal_shift"),
        "spaces.optimal_shift.self_s": self_s("spaces.optimal_shift"),
        "inner.solves": calls(*INNER_SPANS),
        "inner.iters": c["inner.iters"],
        "inner.box_solves": c["inner.box_solves"],
        "inner.unconverged": c["inner.unconverged"],
        "inner.self_s": self_s(*INNER_SPANS),
        "inner.evals_per_iter": value_in_inner / c["inner.iters"] if c["inner.iters"] else 0.0,
        "iterate.outer_steps": c["iterate.outer_steps"],
        "iterate.self_s": self_s("iterate.iterate"),
        "flow.steps": c["flow.steps"],
        "flow.self_s": self_s("flow.run_flow"),
        "flow.rough_mu_s": total_s("flow.rough_mu"),
        "oracles.oracle_lambda.s": total_s("oracles.oracle_lambda"),
        "oracles.self_s": self_s("oracles.oracle_lambda", "oracles.symmetric_eigs"),
        "oracles.symmetric_eigs.s": total_s("oracles.symmetric_eigs"),
        "config.load_config.s": total_s("config.load_config"),
        "cli.main.self_s": self_s("cli.main"),
    }
