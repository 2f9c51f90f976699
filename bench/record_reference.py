"""Record the reference values the correctness gate compares against.

Runs every cell of every workload once for each config seed of the pool
and stores the solver-independent outputs (``gate.reference_values``) in
``reference.json``.  A cell whose values are the same for every seed is
stored once, under ``"any"``.  Cells that raise are left out.  Rerun only
when the workloads change, never to make a failing gate pass:

    python3 bench/record_reference.py
"""

import json
import sys

import run


def main() -> int:
    run.import_library()
    from chaostomo import experiments

    import gate
    import workloads

    reference = {}
    for name, cells in workloads.WORKLOADS.items():
        reference[name] = {}
        for cell in cells:
            by_seed = {}
            for config_seed in range(workloads.POOL_SIZE):
                cfg = cell.config(config_seed)
                try:
                    rows = experiments.run_experiment(cfg).rows
                except Exception as exc:  # run.py counts it as a failed operation
                    print(f"{name} [{cell.label}] raises {type(exc).__name__}", file=sys.stderr)
                    break
                by_seed[str(config_seed)] = gate.reference_values(
                    rows, workloads.dim(cfg), cell.unique_fidelity)
            values = list(by_seed.values())
            if not values or not any(values[0].values()):
                continue
            if all(v == values[0] for v in values):
                reference[name][cell.label] = {"any": values[0]}
            else:
                reference[name][cell.label] = by_seed
            print(f"{name} [{cell.label}] recorded", file=sys.stderr)
    with open(gate.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
