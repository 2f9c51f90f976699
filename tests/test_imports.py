import os
import subprocess
import sys
from pathlib import Path

import chaostomo


def test_runtime_loads_no_scipy():
    # the runtime needs only numpy, click and pyyaml: importing the package
    # and the CLI, then running both unitary eigenbasis users, loads no scipy
    code = (
        "import sys, numpy as np, chaostomo, chaostomo.cli\n"
        "from chaostomo.dynamics import KickedTop, angular_momentum_ops, kicked_top_floquet\n"
        "from chaostomo.krylov import arnoldi_unitary_dim\n"
        "from chaostomo.perturbation import fractional_unitary_power\n"
        "u = kicked_top_floquet(KickedTop(j=2, lam=3.0, alpha=1.4))\n"
        "assert arnoldi_unitary_dim(u, angular_momentum_ops(2)[1]) > 1\n"
        "fractional_unitary_power(u, 0.5)\n"
        "print(','.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(chaostomo.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == ""
