"""Run every workload and print its metrics, with spreads over seeds.

For each workload of ``BENCHMARK.json``: ``RUNS`` untraced runs (seeds
1..RUNS) give each end-to-end metric's median and quartile spread
(IQR / median, as ``statistics.quantiles(values, n=4)`` gives the
quartiles) next to its bound; ``TRACE_RUNS`` traced runs of seed 1 give the
per-layer table.  The same numbers are written as JSON, by default to
``bench/baseline.json``.

    python3 bench/report.py [--out PATH]
"""

import argparse
import json
import statistics
import sys

import run

RUNS = 10
TRACE_RUNS = 2


def summary(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "values": values, "spread": (q3 - q1) / abs(med) if med else 0.0}


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(run.BENCH / "baseline.json"))
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {"seconds": seconds, "runs": RUNS, "workloads": {}}
    for w in names:
        plain = [run.run_in_subprocess(w, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        traced = [run.run_in_subprocess(w, 1, seconds, 1) for _ in range(TRACE_RUNS)]
        entry = {
            "correct": all(r["correct"] for r in plain + traced),
            "attempted": [r["attempted"] for r in plain],
            "failed": [r["failed"] for r in plain],
            "end_to_end": {}, "per_layer": {},
        }
        for name, bound in bounds.items():
            s = summary([r["metrics"][name]["value"] for r in plain])
            entry["end_to_end"][name] = s
            unit = plain[0]["metrics"][name]["unit"]
            print(f"{w:14s} {name:14s} {s['median']:12.6g} {unit:9s} "
                  f"spread {s['spread']:.4f} bound {bound}", flush=True)
        for name in traced[0]["metrics"]:
            entry["per_layer"][name] = summary([r["metrics"][name]["value"] for r in traced])
        result["workloads"][w] = entry

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print(f"\n{'per-layer (traced, median)':36s}{'unit':>9s}"
          + "".join(f"{w:>15s}" for w in names))
    for name, unit in units.items():
        row = [result["workloads"][w]["per_layer"][name]["median"] for w in names]
        print(f"{name:36s}{unit:>9s}" + "".join(f"{v:15.6g}" for v in row))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
