import os
import subprocess
import sys
from pathlib import Path

import chaostomo

HEAVY = ("scipy.linalg", "scipy.special")


def test_package_import_keeps_heavy_scipy_submodules_out():
    # structural cold-start guard: these submodules cost ~0.4 s of import
    # and are imported only at their one call site
    code = (
        "import sys, chaostomo, chaostomo.cli; "
        f"print(','.join(m for m in {HEAVY!r} if m in sys.modules))"
    )
    src = str(Path(chaostomo.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == ""
