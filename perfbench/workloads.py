"""Workload definitions, generated configs and the per-case correctness check.

A workload is a fixed list of cases.  Each case is one call to
``rayflow.cli.main`` on a generated INI config; the workload seed goes to the
CLI as ``--seed`` and also draws the SPD matrix of the matrix case.

Every case has a reference lambda: a closed form where one exists,
``np.linalg.eigvalsh`` for the matrix case, and otherwise a tight-tolerance
oracle value stored in ``refs.json`` (see ``make_refs.py``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

#: a reported lambda passes when its relative error to the reference is at
#: most this; the digits metric measures how far below it a case lands
LAMBDA_RTOL = 1e-6
#: digits are capped here: double precision resolves nothing finer
MAX_DIGITS = 15.0

ORACLE_TOL = 1e-8
#: the CLI defaults, written out so the benchmark pins what it measures
SECTIONS = {
    "iterate": {"rtol": 1e-10, "dtol": 1e-8, "grad_tol": 1e-9},
    "flow": {"tau": "auto", "t_end": "auto", "rtol": 1e-9, "dtol": 1e-8, "grad_tol": 1e-9},
    "oracle": {"restarts": 16, "tol": ORACLE_TOL},
    "compare": {"lambda_rtol": 1e-3},
}
#: config sections each command reads
COMMAND_SECTIONS = {
    "iterate": ["iterate"],
    "flow": ["flow"],
    "oracle": ["oracle"],
    "compare": ["iterate", "flow", "oracle", "compare"],
}
#: output file that carries each command's result
RESULT_FILE = {
    "iterate": "iterate_summary.json",
    "flow": "flow_summary.json",
    "oracle": "oracle_result.json",
    "compare": "compare.json",
}
#: result keys holding each command's lambdas
LAMBDA_KEYS = {
    "iterate": ["lambda_hat"],
    "flow": ["lambda_hat"],
    "oracle": ["lambda_star"],
    "compare": ["lambda_iterate", "lambda_flow", "lambda_oracle"],
}
MATRIX_DIM = 32


@dataclass(frozen=True)
class Case:
    name: str
    command: str
    instance: dict = field(hash=False)
    #: per-section overrides of SECTIONS
    options: dict = field(default_factory=dict, hash=False)

    def config_text(self, seed: int) -> str:
        inst = dict(self.instance)
        if inst["kind"] == "matrix":
            inst["matrix"] = "; ".join(" ".join(repr(float(x)) for x in row) for row in spd_matrix(seed))
        blocks = [("instance", inst)]
        blocks += [(sec, {**SECTIONS[sec], **self.options.get(sec, {})}) for sec in COMMAND_SECTIONS[self.command]]
        return "\n".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) for sec, keys in blocks)


def _case(name, command, kind, options=None, **params):
    return Case(name, command, {"kind": kind, **params}, options or {})


WORKLOADS = {
    # cold inner solves on weighted-Lp 1D spaces; no quotient shift, no
    # movement step, no oracle
    "inverse-1d": [
        _case("pd1d-p2-n127", "iterate", "pdirichlet1d", p=2, n=127),
        _case("pd1d-p3-n127", "iterate", "pdirichlet1d", p=3, n=127),
        _case("pd1d-p1.5-n63", "iterate", "pdirichlet1d", p=1.5, n=63),
        _case("robin1d-p3-n63", "iterate", "robin1d", p=3, n=63),
    ],
    # many small warm-started movement solves: box reformulation, quotient
    # shift in every norm, trace space with the eps-smoothed penalty
    "flow-nonsmooth": [
        _case("sup1d-p3-n15", "flow", "supdirichlet1d", p=3, n=15),
        _case("neumann1d-p3-n31", "flow", "neumann1d", p=3, n=31),
        _case("steklov1d-p1.5-n31", "flow", "steklov1d", p=1.5, n=31),
    ],
    # dense kernel, quotient shift inside SPG, Jacobi eigensolver; the neumann
    # oracle's cost is set by its random starts and is heavy-tailed over
    # seeds, so it draws 4 of them instead of 16 to keep the spread low
    "oracle-dense": [
        _case("frac1d-p3-n31", "compare", "fractional1d", p=3, n=31),
        _case("neumann1d-p3-n11", "oracle", "neumann1d", {"oracle": {"restarts": 4}}, p=3, n=11),
        _case("matrix-spd-d32", "oracle", "matrix"),
    ],
}


def spd_matrix(seed: int) -> np.ndarray:
    """Dense SPD test matrix B'B/dim + I drawn from the workload seed."""
    b = np.random.default_rng([seed % 2**64, MATRIX_DIM]).standard_normal((MATRIX_DIM, MATRIX_DIM))
    a = b.T @ b / MATRIX_DIM + np.eye(MATRIX_DIM)
    return 0.5 * (a + a.T)


def load_refs() -> dict:
    return json.loads((HERE / "refs.json").read_text(encoding="utf-8"))["lambda"]


def reference_lambda(case: Case, seed: int, refs: dict) -> float:
    """Closed form, eigvalsh, or the stored oracle lambda ``refs[case.name]``."""
    inst = case.instance
    p, L = float(inst.get("p", 2.0)), float(inst.get("L", 1.0))
    if inst["kind"] == "pdirichlet1d" and p == 2.0:
        h = L / (inst["n"] + 1)
        return 4.0 / h**2 * math.sin(math.pi * h / (2.0 * L)) ** 2
    if inst["kind"] == "supdirichlet1d" and L == 1.0 and inst["n"] % 2 == 1:
        return 2.0**p
    if inst["kind"] == "matrix":
        return float(np.linalg.eigvalsh(spd_matrix(seed))[0])
    return float(refs[case.name])


def lambda_digits(lam: float, ref: float) -> float:
    err = abs(lam - ref) / abs(ref)
    return MAX_DIGITS if err == 0.0 else min(MAX_DIGITS, -math.log10(err))


@dataclass
class Verdict:
    """Outcome of one case.

    ``failed``: the case raised, exited non-zero, or reported (or was shown
    to have) a wrong or uncertified result.  ``incorrect``: the program
    signalled success (exit 0, converged, pass, certificate within tol) but
    its output is missing or its lambda misses the reference.
    """

    failed: bool
    incorrect: bool
    digits: float | None
    reason: str


def check_case(case: Case, code, out: Path, ref: float) -> Verdict:
    """Classify one finished case from its exit code (or traceback text) and output files."""
    if code != 0:
        reason = code.strip().splitlines()[-1] if isinstance(code, str) else f"exit {code}"
        return Verdict(True, False, None, reason)
    path = out / RESULT_FILE[case.command]
    try:
        res = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        return Verdict(True, True, None, f"unreadable {path.name}: {e}")
    flagged = []
    if res.get("converged") is False:
        flagged.append("converged=false")
    if res.get("pass") is False:
        flagged.append("pass=false")
    if case.command == "oracle":
        cert = res.get("certificate")
        if not (isinstance(cert, (int, float)) and cert <= ORACLE_TOL):
            flagged.append(f"certificate {cert} > tol {ORACLE_TOL}")
    lams = [res.get(k) for k in LAMBDA_KEYS[case.command]]
    # a missing or wrong lambda that the program did not flag is an incorrect output
    if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in lams):
        return Verdict(True, not flagged, None, "; ".join(flagged + [f"no finite lambda in {path.name}"]))
    digits = min(lambda_digits(x, ref) for x in lams)
    if digits < -math.log10(LAMBDA_RTOL):
        return Verdict(True, not flagged, None, "; ".join(flagged + [f"lambda off reference ({digits:.2f} digits)"]))
    if flagged:
        return Verdict(True, False, None, "; ".join(flagged))
    return Verdict(False, False, digits, "ok")
