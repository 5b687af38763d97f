"""``tools/output_digest.py`` digests exactly the files the CLI writes for a
benchmark case, so a same-outputs comparison between two checkouts can rest
on it."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from rayflow.cli import main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def _tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_digest_lines_are_the_cli_outputs_sha256(tmp_path, capsys):
    tool = _tool()
    case = next(c for c in tool.load_workloads().WORKLOADS["flow-nonsmooth"] if c.name == "steklov1d-p1.5-n31")
    config, out = tmp_path / "run.ini", tmp_path / "out"
    config.write_text(case.config_text(3), encoding="utf-8")
    assert main([case.command, "--config", str(config), "--out", str(out), "--seed", "3", "--quiet"]) == 0
    want = [f"3/{case.name}/{f.name} {hashlib.sha256(f.read_bytes()).hexdigest()}" for f in sorted(out.iterdir())]
    assert [line.split("/", 2)[2].split()[0] for line in want] == ["flow_summary.json", "flow_trace.csv"]
    assert tool.main(["--case", case.name, "3"]) == 0
    assert capsys.readouterr().out.splitlines() == want


def test_unknown_case_is_refused(capsys):
    with pytest.raises(SystemExit) as e:
        _tool().main(["--case", "no-such-case", "1"])
    assert e.value.code == 2
    assert "unknown case(s): no-such-case" in capsys.readouterr().err
