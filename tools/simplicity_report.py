"""The size, identity and traffic measures of the source tree.

    python tools/simplicity_report.py lines [SRC_DIR]
    python tools/simplicity_report.py hashes [--full] [PRESET ...]
    python tools/simplicity_report.py traffic [PRESET ...]
    python tools/simplicity_report.py peak [--full] [PRESET ...]

``lines`` prints, for each module of the package (``src/chaostomo`` unless
SRC_DIR is given), its total lines and its code lines: non-blank lines that
are neither comment-only (by ``tokenize``) nor part of a docstring (by
``ast``).  It also prints how many names the modules' ``__all__`` lists hold,
how many config fields and model knobs a run of each experiment mode of
``MODES`` takes, per model kind: the ones it reads, any other field or knob
being a config error unless left at its default, and how many knobs each
model kind has: the fields of its ``dynamics`` spec.

``hashes`` runs every preset, or the named ones, and prints the sha256 of
each CSV, the sha256 of its body (the lines after the ``#`` header, so a
relabelled header shows apart from a moved number) and its run time.  By default each preset runs the small recipe of
``RECIPES``; ``--full`` runs the preset as it stands.  The CSVs depend on the
BLAS thread count, so OpenBLAS, OpenMP and MKL are pinned to one thread
before numpy is imported.

``traffic`` runs the small recipes of every preset, or of the named ones,
under ``sys.settrace`` (imports included) at one BLAS thread, and prints,
module by module, each statement of the package that none of them
executes: the code a simplicity change can delete or must justify.

``peak`` runs every preset, or the named ones, each in a fresh child process
(``hashes`` on that one preset, so at one BLAS thread, small recipe unless
``--full``), and prints the child's peak resident set size, its
``ru_maxrss`` as ``os.wait4`` reports it, in MB of 1024 kB.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import hashlib
import io
import os
import subprocess
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
# (experiment, mode) -> the config fields that select the mode, and the model kinds
# it runs on (None: every kind the experiment takes)
_FLOQUET, _HAMILTONIAN = ("kicked_top", "kicked_ising"), ("tilted_ising", "xxz")
MODES = {
    ("phase-space", "portrait"): ({}, None),
    ("phase-space", "husimi"): (dict(mode="husimi"), None),
    ("tomo", "haar"): ({}, None),
    ("tomo", "coherent"): (dict(state="coherent"), None),
    ("krylov", "Floquet model"): ({}, _FLOQUET),
    ("krylov", "Hamiltonian, steps 0"): ({}, _HAMILTONIAN),
    ("krylov", "Hamiltonian, steps > 0"): (dict(steps=1), _HAMILTONIAN),
    ("perturb", "haar"): ({}, None),
    ("perturb", "coherent"): (dict(state="coherent"), None),
    ("rmt-compare", "-"): ({}, None),
    ("ordered-bloch", "haar"): ({}, None),
    ("ordered-bloch", "coherent"): (dict(state="coherent"), None),
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
    counts = settable(src)
    if counts is None:
        print("\nno per-mode read rule (experiments._reads) in this tree")
        return
    print(f"\n{'experiment':<15} {'mode':<24} {'settable fields':>15}  settable knobs")
    for (name, mode), (count, knobs) in counts.items():
        print(f"{name:<15} {mode:<24} {count:>15}  {knob_column(knobs)}")
    knobs = model_knobs(src)
    if knobs is None:
        print("\nno table of spec classes (experiments.MODELS) in this tree")
        return
    print(f"\n{'model kind':<15} {'spec knobs':>15}")
    for kind, count in knobs.items():
        print(f"{kind:<15} {count:>15}")


def _experiments(src: Path):
    sys.path.insert(0, str(src.parent))
    from chaostomo import experiments

    return experiments


def settable(src: Path):
    """(experiment, mode) of ``MODES`` -> (its settable config fields, {model kind: its
    settable knobs}) in the package at ``src``, by the tree's read rule; None for a tree
    without that rule.  A tree whose rule names no knob (``model.<key>``) takes every
    knob of the kind."""
    experiments = _experiments(src)
    reads = getattr(experiments, "_reads", None)
    if reads is None:
        return None
    out = {}
    for (name, mode), (over, kinds) in MODES.items():
        per_kind = {kind: reads(experiments.ExperimentConfig(experiment=name, model={"kind": kind},
                                                             **over))
                    for kind in kinds or experiments._EXPERIMENTS[name][1]}
        fields = {len({r for r in read if not r.startswith("model.")}) for read in per_kind.values()}
        assert len(fields) == 1, (name, mode, fields)  # a mode's fields do not depend on the kind
        out[name, mode] = (fields.pop(), {kind: sum(r.startswith("model.") for r in read)
                                          for kind, read in per_kind.items()})
    if not any(any(knobs.values()) for _, knobs in out.values()):  # every knob is settable
        out = {key: (count, {kind: len(dataclasses.fields(experiments.MODELS[kind]))
                             for kind in knobs}) for key, (count, knobs) in out.items()}
    return out


def knob_column(knobs: dict) -> str:
    return ", ".join(f"{kind} {count}" for kind, count in knobs.items())


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


def report_peak(names, full: bool) -> None:
    for name in names or RECIPES:
        command = [sys.executable, __file__, "hashes", *(["--full"] if full else []), name]
        child = subprocess.Popen(command, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode:
            raise subprocess.CalledProcessError(child.returncode, command)
        print(f"{name:<26} {usage.ru_maxrss / 1024:8.1f} MB", flush=True)


def executable_lines(source: str, path: str) -> set:
    """Lines the compiled module can report to a line tracer: those of its code objects."""
    todo, lines = [compile(source, path, "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def statements(tree: ast.AST, lines: set) -> list:
    """The statements whose own lines (a compound statement's header) hold one of ``lines``,
    by first line; the innermost statement claims a line."""
    owner = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            body = getattr(node, "body", None)
            last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
            for line in range(node.lineno, last + 1):
                if line in lines and owner.get(line, 0) <= node.lineno:
                    owner[line] = node.lineno
    return sorted(set(owner.values()))


def report_traffic(names) -> None:
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC.parent))
    prefix, executed = str(SRC) + os.sep, {}

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        seen = executed.setdefault(frame.f_code.co_filename, set())
        seen.add(frame.f_lineno)

        def line(frame, event, arg):
            seen.add(frame.f_lineno)
            return line

        return line

    sys.settrace(tracer)
    try:
        from chaostomo.experiments import config_from_preset, run_experiment

        for name in names or RECIPES:
            run_experiment(config_from_preset(name, **RECIPES[name])).to_csv()
    finally:
        sys.settrace(None)
    total = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        missed = executable_lines(source, str(path)) - executed.get(str(path), set())
        unrun = statements(ast.parse(source), missed)
        total += len(unrun)
        if str(path) not in executed:
            print(f"{path.name}: not imported, none of its {len(unrun)} statements executed")
            continue
        print(f"{path.name}: {len(unrun)} statements not executed")
        text = source.splitlines()
        for lineno in unrun:
            print(f"  {lineno:>4}  {text[lineno - 1].strip()}")
    print(f"total: {total} statements not executed")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    lines = sub.add_parser("lines", help="total and code lines per module, __all__ names, and "
                                          "the settable fields and knobs of each mode")
    lines.add_argument("src", nargs="?", type=Path, default=SRC)
    hashes = sub.add_parser("hashes", help="sha256 of each preset CSV and of its body, and "
                                            "its run time")
    hashes.add_argument("--full", action="store_true", help="run the full presets")
    hashes.add_argument("presets", nargs="*", metavar="PRESET")
    traffic = sub.add_parser("traffic", help="statements of the package that no small recipe "
                                             "executes")
    traffic.add_argument("presets", nargs="*", metavar="PRESET")
    peak = sub.add_parser("peak", help="peak RSS of each preset, each run in a fresh process")
    peak.add_argument("--full", action="store_true", help="run the full presets")
    peak.add_argument("presets", nargs="*", metavar="PRESET")
    args = parser.parse_args(argv)
    unknown = set(getattr(args, "presets", ())) - set(RECIPES)
    if unknown:
        parser.error(f"unknown presets {sorted(unknown)}; known: {list(RECIPES)}")
    if args.command == "lines":
        report_lines(args.src)
    elif args.command == "traffic":
        report_traffic(args.presets)
    elif args.command == "peak":
        report_peak(args.presets, args.full)
    else:
        report_hashes(args.presets, args.full)


if __name__ == "__main__":
    main()
