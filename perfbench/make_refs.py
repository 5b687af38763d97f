"""Regenerate ``refs.json``: reference lambdas for cases without a closed form.

    python3 perfbench/make_refs.py

Each such case is run through ``rayflow compare`` at tight tolerances.  The
oracle lambda is stored once the iterate and flow lambdas agree with it to
``AGREE_RTOL``; otherwise the script exits non-zero and writes nothing.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from rayflow.cli import main as rayflow_main  # noqa: E402
from workloads import WORKLOADS, Case, reference_lambda  # noqa: E402

AGREE_RTOL = 1e-8
SEED = 0
#: tight tolerances: about the tightest at which every case still converges
TIGHT = {
    "iterate": {"rtol": 1e-12, "dtol": 1e-10, "grad_tol": 1e-11},
    "flow": {"rtol": 1e-11, "dtol": 1e-9, "grad_tol": 1e-10},
    "oracle": {"restarts": 16, "tol": 1e-10},
    "compare": {"lambda_rtol": AGREE_RTOL},
}


def main():
    lam, detail = {}, {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for case in (c for cases in WORKLOADS.values() for c in cases):
            try:
                reference_lambda(case, SEED, {})
                continue  # closed form or eigvalsh
            except KeyError:
                pass
            cfg = Path(tmp) / f"{case.name}.ini"
            cfg.write_text(Case(case.name, "compare", case.instance, TIGHT).config_text(SEED), encoding="utf-8")
            out = Path(tmp) / case.name
            print(f"== {case.name}", flush=True)
            code = rayflow_main(["compare", "--config", str(cfg), "--out", str(out), "--seed", str(SEED)])
            if code != 0:
                sys.exit(f"{case.name}: a tight-tolerance run failed, or the lambdas disagree beyond {AGREE_RTOL}")
            res = json.loads((out / "compare.json").read_text(encoding="utf-8"))
            lam[case.name] = res["lambda_oracle"]
            detail[case.name] = {k: res[k] for k in res if k.startswith(("lambda_", "gap_"))}
    doc = {
        "about": "tight-tolerance oracle lambdas; iterate and flow agree within lambda_rtol (make_refs.py)",
        "seed": SEED,
        "lambda": lam,
        "compare": detail,
    }
    (HERE / "refs.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
