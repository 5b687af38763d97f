"""The benchmark's tracer finds every name it wraps where it looks it up.

``perfbench/tracing.py`` wraps rayflow functions by module and attribute
name; a rename or a dropped import in ``src`` would show there only as an
error inside a traced run.
"""

import types
from pathlib import Path

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
