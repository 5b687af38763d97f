"""Run configuration: flat sectioned key-value files.

The CLI reads an INI-style file with one section per concern:

    [instance]
    kind = pdirichlet1d
    p = 2.0
    n = 31
    L = 1.0

    [iterate]
    rtol = 1e-10
    dtol = 1e-8
    max_iters = 500
    grad_tol = 1e-9
    u0 = ones

    [flow]
    tau = auto
    t_end = auto

    [oracle]
    restarts = 16
    tol = 1e-8

    [compare]
    lambda_rtol = 1e-3

    [run]
    seed = 0        # seeds u0 = random only, never the oracle

``SECTIONS`` is the one table of what a file may set: section -> key ->
reader.  A reader takes a number, an integer, a word, a number or ``none``
(``rtol`` and ``dtol``: disable the stop), or a number or ``auto`` (the
flow's ``tau`` and ``t_end``).  The instance keys are the constructors'
parameters (``problems.INSTANCE_KEYS``); matrix instances take
``diag = 1 2 5`` or ``matrix = 2 1; 1 2``.  Unknown sections or keys, and
values of the wrong type, are rejected with an error naming the key.  It only
parses: ``problems.assemble``, ``problems.start_vector`` (``u0``), the scheme
and oracle options and ``inner.check_step`` check the values they use.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .problems import INSTANCE_KEYS

__all__ = ["RunConfig", "load_config"]


@dataclass
class RunConfig:
    instance: dict
    iterate: dict = field(default_factory=dict)
    flow: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)
    compare: dict = field(default_factory=dict)
    seed: int = 0


def _number(section, key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number in [{section}], got {raw!r}") from None


def _integer(section, key, raw):
    x = _number(section, key, raw)
    if not (math.isfinite(x) and x == int(x)):
        raise ConfigError(f"{key}: expected an integer in [{section}], got {raw!r}")
    return int(x)


def _word(section, key, raw):
    return raw.strip()


def _number_or_none(section, key, raw):
    return None if raw.strip().lower() == "none" else _number(section, key, raw)


def _number_or_auto(section, key, raw):
    return "auto" if raw.strip() == "auto" else _number(section, key, raw)


def _numbers(section, key, raw):
    return [_number(section, key, x) for x in raw.split()]


def _rows(section, key, raw):
    return [_numbers(section, key, r) for r in raw.split(";") if r.strip()]


_INSTANCE_READERS = {"kind": _word, "n": _integer, "diag": _numbers, "matrix": _rows}
_STOP = {"rtol": _number_or_none, "dtol": _number_or_none, "grad_tol": _number, "u0": _word}
#: section -> key -> reader(section, key, raw) of every key a config may set
SECTIONS = {
    "instance": {key: _INSTANCE_READERS.get(key, _number) for key in INSTANCE_KEYS},
    "iterate": {**_STOP, "max_iters": _integer},
    "flow": {**_STOP, "tau": _number_or_auto, "t_end": _number_or_auto},
    "oracle": {"restarts": _integer, "tol": _number},
    "compare": {"lambda_rtol": _number},
    "run": {"seed": _integer},
}


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as e:
        raise ConfigError(f"config: cannot read {path}: {e}") from None
    except configparser.Error as e:
        raise ConfigError(f"config: parse error in {path}: {e}") from None

    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"{section}: unknown section")
    if not parser.has_section("instance"):
        raise ConfigError("instance: missing [instance] section")

    read = {}
    for section, readers in SECTIONS.items():
        raw = dict(parser.items(section)) if parser.has_section(section) else {}
        # configparser lowercases keys; L is the only cased key we use
        if section == "instance" and "l" in raw:
            raw["L"] = raw.pop("l")
        for key in raw:
            if key not in readers:
                raise ConfigError(f"{key}: unknown key in section [{section}]")
        read[section] = {key: readers[key](section, key, val) for key, val in raw.items()}
    run = read.pop("run")
    return RunConfig(**read, seed=run.get("seed", 0))

