"""Set-up probe: import numpy, scipy and chaostomo, resolve a workload's configs.

``run.py`` spawns this in a fresh interpreter (with the BLAS thread
variables already pinned in the environment) and times it until the
``ready`` line: that interval is one sample of ``setup_s``.

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(workload: str, seed: int) -> None:
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import chaostomo  # noqa: F401
    import workloads

    for cell in workloads.WORKLOADS[workload]:
        cell.config(workloads.config_seed(seed))
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
