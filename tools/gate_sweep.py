"""Run every benchmark cell on every config seed through the correctness gate.

    python tools/gate_sweep.py [--seeds N ...] [WORKLOAD ...]

For each named workload of ``bench/workloads.py`` (default: all of them)
and each of its ``POOL_SIZE`` config seeds (or the ones ``--seeds`` names),
every cell runs once and its table goes through ``bench/gate.py`` against
``bench/reference.json``.  One line per cell gives the workload, config
seed, cell, the gate's problem count and the largest deviation of a gated
fidelity from its reference (``-`` where the cell gates none); a cell that
raises counts as one problem.  The exit status is 1 when any cell has a
problem.  The tables depend on the BLAS thread count, so OpenBLAS, OpenMP
and MKL are pinned to one thread before numpy is imported.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import argparse  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402
from chaostomo.experiments import run_experiment  # noqa: E402


def fidelity_deviation(rows, ref: dict):
    """Largest |F - F_ref| over the gated fidelities of a table, None when none is gated."""
    have = gate.series(rows).get("fidelity", {})
    gaps = [abs(have[step] - want) for step, want in ref.get("fidelity", {}).items()
            if step in have]
    return max(gaps) if gaps else None


def sweep(workload: str, seeds, reference: dict) -> int:
    """Gate every cell of one workload on each config seed; returns the problem count."""
    total = 0
    for seed in seeds:
        for cell in workloads.WORKLOADS[workload]:
            cfg = cell.config(seed)
            ref = gate.cell_reference(reference, workload, cell.label, seed)
            try:
                rows = run_experiment(cfg).rows
            except Exception as exc:  # a failing cell is a problem, not the end of the sweep
                problems, deviation = [f"{type(exc).__name__}: {exc}"], None
            else:
                problems = gate.check(rows, workloads.dim(cfg), ref)
                deviation = fidelity_deviation(rows, ref)
            shown = "-" if deviation is None else f"{deviation:.2e}"
            print(f"{workload:<14} {seed:>4}  {cell.label:<22} {len(problems):>8}  {shown:>10}",
                  flush=True)
            for problem in problems[:3]:
                print(f"    {problem}", flush=True)
            total += len(problems)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    parser.add_argument("--seeds", nargs="+", type=int, metavar="N",
                        default=list(range(workloads.POOL_SIZE)))
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(workloads.WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}; known: {list(workloads.WORKLOADS)}")
    reference = gate.load_reference()
    print(f"{'workload':<14} {'seed':>4}  {'cell':<22} {'problems':>8}  {'max |dF|':>10}")
    total = sum(sweep(name, args.seeds, reference)
                for name in args.workloads or workloads.WORKLOADS)
    print(f"{total} problems")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
