"""Set-up probe, run in a fresh interpreter: import rayflow, then load and
assemble every given config.  Exits non-zero if any step fails.

    python3 perfbench/setup_probe.py <checkout root> <config.ini> [...]
"""

import os
import sys

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"


def main(root, configs):
    sys.path.insert(0, os.path.join(root, "src"))
    import rayflow.cli as cli

    for path in configs:
        cli.assemble(cli.load_config(path).instance)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
