"""Self-test of the benchmark itself.

1. Tampered outputs are counted as failed operations: a fidelity of 1.5,
   a NaN, a Krylov dimension above d^2 - d + 1, a rank that moved.
2. The exact per-layer counts repeat between two traced runs of the same
   seed (DR iterations, eigh calls, SVD calls, Krylov dimensions, ...).

    python3 bench/selftest.py
"""

import math
import sys

import run

COUNT_UNITS = ("count", "B")


def tampered_outputs_fail() -> list:
    from chaostomo import experiments

    errors = []
    cases = [
        ("kt-tomo", "lambda=7.0", "fidelity", lambda v: 1.5),
        ("kt-tomo", "lambda=7.0", "shannon", lambda v: math.nan),
        ("kt-tomo", "lambda=7.0", "rank", lambda v: v - 1),
        ("spread-diag", "lanczos L=4", "krylov_dim", lambda v: 242),
        ("spread-diag", "husimi lambda=7.0", "husimi_entropy", lambda v: v * (1 + 1e-4)),
    ]
    tables = {}
    for workload, label, metric, tamper in cases:
        runner = run.Runner(workload, seed=0, rotate=False)
        cell, cfg, d, ref = next(c for c in runner.cells(0) if c[0].label == label)
        if label not in tables:
            tables[label] = experiments.run_experiment(cfg)
        rows = list(tables[label].rows)
        runner.record(cell, cfg, d, ref, tables[label], tables[label].to_csv(), None, 0.0, 0)
        if runner.failed:
            errors.append(f"{workload} [{label}] fails untampered")
        i = next(i for i, r in enumerate(rows) if r[3] == metric)
        rows[i] = rows[i][:4] + (tamper(rows[i][4]),) + rows[i][5:]
        bad = experiments.ResultTable(header=[], rows=rows)
        runner.record(cell, cfg, d, ref, bad, bad.to_csv(), None, 0.0, 0)
        if runner.failed != 1 or not runner.incorrect:
            errors.append(f"{workload} [{label}] tampered {metric} not counted as failed")
        else:
            print(f"ok: tampered {metric} in {workload} [{label}] counted as failed")
    return errors


def traced_counts(workload: str, seconds: int) -> dict:
    metrics = run.run_in_subprocess(workload, 3, seconds, trace=1)["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] in COUNT_UNITS}


def counts_repeat() -> list:
    errors = []
    # kt-tomo runs long enough for two traced passes, spread-diag for one
    for workload, seconds in (("kt-tomo", 20), ("spread-diag", 1)):
        first, second = traced_counts(workload, seconds), traced_counts(workload, seconds)
        differ = sorted(k for k in first if first[k] != second[k])
        if differ:
            errors.append(f"{workload}: counts differ between traced runs: {differ}")
        else:
            shown = {k: first[k] for k in ("psd_project.iters", "psd_project.eigh_calls",
                                           "CovarianceData.svd.calls", "lanczos_full_orth.dim_k")}
            print(f"ok: {workload} {len(first)} counts repeat exactly, e.g. {shown}")
    return errors


def main() -> int:
    run.import_library()
    errors = tampered_outputs_fail() + counts_repeat()
    for e in errors:
        print(f"FAIL: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
