"""Digest every output file the benchmark cases write, to compare two checkouts.

    python3 tools/output_digest.py 1 3 13 29
    python3 tools/output_digest.py --case steklov1d-p1.5-n31 1

Run from anywhere; rayflow is imported from this checkout's ``src/`` and the
cases from its ``perfbench/workloads.py``.  Each case of
``workloads.WORKLOADS`` (or only the ``--case`` ones) runs once per seed
through ``rayflow.cli.main`` on ``config_text(seed)``, as the benchmark
runs it, into a temporary directory.  One ``seed/case/file sha256`` line is
printed per output file, in order; equal printouts mean byte-identical
outputs.  Nothing is written inside the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_workloads() -> types.ModuleType:
    """``perfbench/workloads.py``, executed from its source text so that no
    bytecode cache is written next to it."""
    path = ROOT / "perfbench" / "workloads.py"
    mod = types.ModuleType("perfbench_workloads")
    mod.__file__ = str(path)
    sys.modules[mod.__name__] = mod  # dataclasses look their module up here
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), mod.__dict__)
    return mod


def digest_lines(seeds, names=None) -> list[str]:
    """The ``seed/case/file sha256`` lines for these seeds and case names
    (every case if None).  An unknown name raises ValueError."""
    sys.path.insert(0, str(ROOT / "src"))
    from rayflow import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"rayflow was imported from {cli.__file__}, not from {ROOT / 'src'}")

    cases = [c for cases in load_workloads().WORKLOADS.values() for c in cases]
    unknown = set(names or ()) - {c.name for c in cases}
    if unknown:
        raise ValueError(f"unknown case(s): {', '.join(sorted(unknown))}")
    lines = []
    for seed in seeds:
        for case in cases:
            if names is not None and case.name not in names:
                continue
            with tempfile.TemporaryDirectory() as tmp:
                config, out = Path(tmp) / "run.ini", Path(tmp) / "out"
                config.write_text(case.config_text(seed), encoding="utf-8")
                cli.main([case.command, "--config", str(config), "--out", str(out), "--seed", str(seed), "--quiet"])
                for f in sorted(out.iterdir()):
                    lines.append(f"{seed}/{case.name}/{f.name} {hashlib.sha256(f.read_bytes()).hexdigest()}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="+", type=int, help="workload seeds, passed to the CLI as --seed")
    parser.add_argument("--case", action="append", help="run only this case (repeatable)")
    args = parser.parse_args(argv)
    try:
        lines = digest_lines(args.seeds, args.case)
    except ValueError as e:
        parser.error(str(e))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
