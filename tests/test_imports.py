import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import chaostomo

ROOT = Path(__file__).resolve().parent.parent


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


def test_benchmark_tracer_targets_resolve():
    # bench/run.py --trace 1 wraps every (owner, attribute) of layers.TARGETS
    # through owner.__dict__, so each must exist where it is listed, and the
    # tracer must put every original back when it exits
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    sites = [(owner, attr) for targets in layers.TARGETS.values() for owner, attr in targets]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in sites
               if attr not in owner.__dict__]
    assert not missing
    originals = [owner.__dict__[attr] for owner, attr in sites]
    eigh = np.linalg.eigh
    with layers.Tracer():
        assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in zip(sites, originals))
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in zip(sites, originals))
    assert np.linalg.eigh is eigh


def test_runtime_imports_no_private_names():
    # a private name has one home: only checks and cli, which sit outside the
    # runtime, may reach into another chaostomo module for one
    package = Path(chaostomo.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.stem in ("checks", "cli"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "chaostomo":
                continue
            found += [f"{path.stem}: {node.module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    assert not found
