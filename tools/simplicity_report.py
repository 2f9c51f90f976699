"""The two size-and-identity measures of the source tree.

    python tools/simplicity_report.py lines [SRC_DIR]
    python tools/simplicity_report.py hashes [--full] [PRESET ...]

``lines`` prints, for each module of the package (``src/chaostomo`` unless
SRC_DIR is given), its total lines and its code lines: non-blank lines that
are neither comment-only (by ``tokenize``) nor part of a docstring (by
``ast``).  It also prints how many names the modules' ``__all__`` lists hold,
how many config fields a run of each experiment mode of ``MODES`` takes:
the ones it reads, any other field being a config error unless left at its
default, and how many knobs each model kind takes: the fields of its
``dynamics`` spec.

``hashes`` runs every preset, or the named ones, and prints the sha256 of
each CSV, the sha256 of its body (the lines after the ``#`` header, so a
relabelled header shows apart from a moved number) and its run time.  By default each preset runs the small recipe of
``RECIPES``; ``--full`` runs the preset as it stands.  The CSVs depend on the
BLAS thread count, so OpenBLAS, OpenMP and MKL are pinned to one thread
before numpy is imported.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import hashlib
import io
import os
import sys
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "chaostomo"

# preset name -> overrides of its small run: one state, two ensemble samples and
# a stride of 300, each where the preset's run reads that field
_STRIDE = dict(eval_stride=300)
_STATES = dict(n_states=1, eval_stride=300)
RECIPES = {
    "fig2.1-phase-space": {},
    "fig2.3-krylov-complexity": _STRIDE,
    "fig2.4-lanczos": {},
    "fig3.1-coherent": _STATES,
    "fig3.1-random": _STATES,
    "fig3.3-ordered-bloch": dict(n_states=1),
    "fig3.6-husimi": _STRIDE,
    "fig4.2-tki-quantifiers": _STATES,
    "fig4.6-rmt-compare": dict(n_samples=2, eval_stride=300),
    "fig4.8-xxz": _STATES,
    "fig5.2-perturb": _STATES,
    "fig5.3-perturbed-basis": dict(n_states=1),
}
# (experiment, mode) -> the config fields that select the mode
MODES = {
    ("phase-space", "portrait"): {},
    ("phase-space", "husimi"): dict(mode="husimi"),
    ("tomo", "haar"): {},
    ("tomo", "coherent"): dict(state="coherent"),
    ("krylov", "Floquet model"): dict(model={"kind": "kicked_ising"}),
    ("krylov", "Hamiltonian, steps 0"): dict(model={"kind": "tilted_ising"}),
    ("krylov", "Hamiltonian, steps > 0"): dict(model={"kind": "tilted_ising"}, steps=1),
    ("perturb", "haar"): {},
    ("perturb", "coherent"): dict(state="coherent"),
    ("rmt-compare", "-"): {},
    ("ordered-bloch", "haar"): {},
    ("ordered-bloch", "coherent"): dict(state="coherent"),
}
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def code_lines(source: str) -> int:
    """Lines that a non-comment token touches, less those of docstrings."""
    code = set()
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                code.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(code)


def all_names(source: str) -> int:
    """Length of the module's ``__all__`` list, 0 when it has none."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return len(node.value.elts)
    return 0


def report_lines(src: Path) -> None:
    totals = [0, 0, 0]
    print(f"{'module':<20} {'lines':>6} {'code':>6} {'__all__':>8}")
    for path in sorted(src.glob("*.py")):
        source = path.read_text()
        row = [len(source.splitlines()), code_lines(source), all_names(source)]
        totals = [a + b for a, b in zip(totals, row)]
        print(f"{path.name:<20} {row[0]:>6} {row[1]:>6} {row[2]:>8}")
    print(f"{'total':<20} {totals[0]:>6} {totals[1]:>6} {totals[2]:>8}")
    counts = settable_fields(src)
    if counts is None:
        print("\nno per-mode read rule (experiments._reads) in this tree")
        return
    print(f"\n{'experiment':<15} {'mode':<24} {'settable fields':>15}")
    for (name, mode), count in counts.items():
        print(f"{name:<15} {mode:<24} {count:>15}")
    knobs = model_knobs(src)
    if knobs is None:
        print("\nno table of spec classes (experiments.MODELS) in this tree")
        return
    print(f"\n{'model kind':<15} {'settable knobs':>15}")
    for kind, count in knobs.items():
        print(f"{kind:<15} {count:>15}")


def _experiments(src: Path):
    sys.path.insert(0, str(src.parent))
    from chaostomo import experiments

    return experiments


def settable_fields(src: Path):
    """Config fields a run of each (experiment, mode) of ``MODES`` takes in the package at
    ``src``, by its read rule; None for a tree without that rule."""
    experiments = _experiments(src)
    reads = getattr(experiments, "_reads", None)
    if reads is None:
        return None
    return {(name, mode): len(reads(experiments.ExperimentConfig(experiment=name, **over)))
            for (name, mode), over in MODES.items()}


def model_knobs(src: Path):
    """Knobs of each model kind in the package at ``src``: the fields of its spec; None
    for a tree whose ``experiments.MODELS`` maps a kind to more than its spec class."""
    models = _experiments(src).MODELS
    if not all(dataclasses.is_dataclass(spec) for spec in models.values()):
        return None
    return {kind: len(dataclasses.fields(spec)) for kind, spec in models.items()}


def report_hashes(names, full: bool) -> None:
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC.parent))
    from chaostomo.experiments import config_from_preset, run_experiment

    for name in names or RECIPES:
        cfg = config_from_preset(name) if full else config_from_preset(name, **RECIPES[name])
        start = time.perf_counter()
        csv = run_experiment(cfg).to_csv()
        took = time.perf_counter() - start
        digest = hashlib.sha256(csv.encode()).hexdigest()
        body = "".join(line for line in csv.splitlines(keepends=True) if not line.startswith("#"))
        print(f"{name:<26} {digest}  {hashlib.sha256(body.encode()).hexdigest()}  {took:8.2f} s",
              flush=True)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    lines = sub.add_parser("lines", help="total and code lines per module, and __all__ names")
    lines.add_argument("src", nargs="?", type=Path, default=SRC)
    hashes = sub.add_parser("hashes", help="sha256 of each preset CSV and of its body, and "
                                            "its run time")
    hashes.add_argument("--full", action="store_true", help="run the full presets")
    hashes.add_argument("presets", nargs="*", metavar="PRESET")
    args = parser.parse_args(argv)
    unknown = set(getattr(args, "presets", ())) - set(RECIPES)
    if unknown:
        parser.error(f"unknown presets {sorted(unknown)}; known: {list(RECIPES)}")
    if args.command == "lines":
        report_lines(args.src)
    else:
        report_hashes(args.presets, args.full)


if __name__ == "__main__":
    main()
