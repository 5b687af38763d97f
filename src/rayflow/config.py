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

Matrix instances take ``diag = 1 2 5`` or ``matrix = 2 1; 1 2``.  Unknown
sections or keys, and values of the wrong type, are rejected with an error
naming the key.  ``auto`` is accepted for the flow's ``tau`` and ``t_end``,
``none`` (disable the stop) for ``rtol`` and ``dtol``.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .problems import INSTANCE_KEYS
from .util import rng_from

__all__ = ["RunConfig", "load_config"]

_ITERATE_KEYS = {"rtol", "dtol", "max_iters", "grad_tol", "u0"}
_FLOW_KEYS = {"tau", "t_end", "rtol", "dtol", "grad_tol", "u0"}
_ORACLE_KEYS = {"restarts", "tol"}
_COMPARE_KEYS = {"lambda_rtol"}
_RUN_KEYS = {"seed"}


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


def _numbers(key, raw):
    return [_number("instance", key, x) for x in raw.split()]


def _check_keys(section, given, allowed):
    for key in given:
        if key not in allowed:
            raise ConfigError(f"{key}: unknown key in section [{section}]")


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

    known = {"instance", "iterate", "flow", "oracle", "compare", "run"}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"{section}: unknown section")
    if not parser.has_section("instance"):
        raise ConfigError("instance: missing [instance] section")

    inst_raw = dict(parser.items("instance"))
    # configparser lowercases keys by default; L is the only cased key we use
    if "l" in inst_raw:
        inst_raw["L"] = inst_raw.pop("l")
    _check_keys("instance", inst_raw, INSTANCE_KEYS)
    instance: dict = {}
    for key, raw in inst_raw.items():
        if key == "kind":
            instance[key] = raw.strip()
        elif key == "n":
            instance[key] = _integer("instance", key, raw)
        elif key == "diag":
            instance[key] = _numbers(key, raw)
        elif key == "matrix":
            instance[key] = [_numbers(key, r) for r in raw.split(";") if r.strip()]
        else:
            instance[key] = _number("instance", key, raw)

    def section_dict(name, allowed, ints=(), strings=(), auto=(), nullable=()):
        if not parser.has_section(name):
            return {}
        raw = dict(parser.items(name))
        _check_keys(name, raw, allowed)
        out = {}
        for key, val in raw.items():
            if key in ints:
                out[key] = _integer(name, key, val)
            elif key in strings:
                out[key] = val.strip()
            elif key in auto and val.strip() == "auto":
                out[key] = "auto"
            elif key in nullable and val.strip().lower() == "none":
                out[key] = None
            else:
                out[key] = _number(name, key, val)
        return out

    stops = {"rtol", "dtol"}
    cfg = RunConfig(
        instance=instance,
        iterate=section_dict("iterate", _ITERATE_KEYS, ints={"max_iters"}, strings={"u0"}, nullable=stops),
        flow=section_dict("flow", _FLOW_KEYS, strings={"u0"}, auto={"tau", "t_end"}, nullable=stops),
        oracle=section_dict("oracle", _ORACLE_KEYS, ints={"restarts"}),
        compare=section_dict("compare", _COMPARE_KEYS),
    )
    if parser.has_section("run"):
        raw = dict(parser.items("run"))
        _check_keys("run", raw, _RUN_KEYS)
        if "seed" in raw:
            cfg.seed = _integer("run", "seed", raw["seed"])
    return cfg


def start_vector(inst, policy, seed) -> np.ndarray:
    """Resolve the configured start-vector policy for an instance.

    ``auto`` (the default) picks a generic start per space kind: a linear
    ramp on quotient spaces (constants are the zero element there), a
    centered parabolic bump on sup spaces, and all-ones otherwise.  On sup
    spaces the all-ones vector lies on an invariant ray of the set-valued
    duality map: both schemes keep its direction and stop, converged, at a
    critical value far above the least quotient (the flow at 2 h^(1-p)).
    """
    dim = inst.space.dim
    kind = inst.space.kind.value
    if policy in (None, "auto"):
        policy = {"quotient_lp": "ramp", "sup": "bump"}.get(kind, "ones")
    if policy == "ones":
        return np.ones(dim)
    if policy == "ramp":
        return np.linspace(-1.0, 1.0, dim)
    if policy == "bump":
        t = (np.arange(dim) + 0.5) / dim
        return t * (1.0 - t)
    if policy == "random":
        return rng_from(seed, "u0").standard_normal(dim)
    raise ConfigError(f"u0: unknown start policy {policy!r}")
