"""Correctness gate for one operation's result table.

Every operation must return finite numbers that respect the hard bounds
(fidelity in [0, 1], rank <= min(n, d^2 - 1), Krylov dimension <=
d^2 - d + 1).  Outputs that do not depend on solver settings must also
match the values recorded in ``reference.json`` at the commit that
defined the benchmark.  Fidelities are compared only where the estimator
is unique; elsewhere they are only bounds-checked, because a change of
estimator is expected to move them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# metrics that do not depend on solver settings, with (rtol, atol)
EXACT_METRICS = {
    "shannon": (1e-6, 1e-9),
    "fisher": (1e-6, 1e-9),
    "rank": (0.0, 0.0),
    "mutual_info": (1e-6, 1e-9),
    "lanczos_b": (1e-6, 1e-9),
    "husimi_entropy": (1e-6, 1e-9),
    "loschmidt_echo": (1e-6, 1e-9),
    "relative_entropy": (1e-6, 1e-9),
    "incompatibility": (1e-6, 1e-9),
}
# solver-dependent, compared at full-row-rank lambda=7 prefixes only
FIDELITY_TOL = (0.0, 1e-4)


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cell_reference(reference: dict, workload: str, label: str, config_seed: int) -> dict:
    """Reference values {metric: {step: value}} for one cell and config seed."""
    entry = reference.get(workload, {}).get(label, {})
    return entry.get("any", entry.get(str(config_seed), {}))


def series(rows) -> dict:
    """{metric: {step: mean}} from a table's rows, steps as strings."""
    out: dict = {}
    for _, _, step, metric, mean, _, _ in rows:
        out.setdefault(metric, {})[str(step)] = float(mean)
    return out


def reference_values(rows, d: int, unique_fidelity: bool) -> dict:
    """The part of a table that later commits must reproduce."""
    got = series(rows)
    ref = {m: v for m, v in got.items() if m in EXACT_METRICS}
    if unique_fidelity:
        ref["fidelity"] = {
            step: f for step, f in got["fidelity"].items()
            if got["rank"][step] == min(int(step), d * d - 1)
        }
    return ref


def check(rows, d: int, ref: dict) -> list:
    """Problems found in one result table; empty when it passes."""
    problems = []
    cap_rank, cap_k = d * d - 1, d * d - d + 1
    for _, _, step, metric, mean, stderr, _ in rows:
        mean, stderr = float(mean), float(stderr)
        where = f"{metric}[{step}]"
        if not (math.isfinite(mean) and math.isfinite(stderr)):
            problems.append(f"{where} not finite ({mean}, {stderr})")
        elif metric == "fidelity" and not 0.0 <= mean <= 1.0:
            problems.append(f"{where} = {mean} outside [0, 1]")
        elif metric == "rank" and mean > min(int(step), cap_rank):
            problems.append(f"{where} = {mean} above min(n, d^2-1) = {min(int(step), cap_rank)}")
        elif metric == "krylov_dim" and mean > cap_k:
            problems.append(f"{where} = {mean} above d^2-d+1 = {cap_k}")
    got = series(rows)
    for metric, expected in ref.items():
        rtol, atol = EXACT_METRICS.get(metric, FIDELITY_TOL)
        have = got.get(metric, {})
        for step, want in expected.items():
            if step not in have:
                problems.append(f"{metric}[{step}] missing")
            elif not abs(have[step] - want) <= atol + rtol * abs(want):
                problems.append(f"{metric}[{step}] = {have[step]!r}, reference {want!r}")
    return problems
