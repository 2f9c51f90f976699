"""Spans around the public functions of each chaostomo layer.

The tracer wraps module attributes and class methods from the outside; the
library itself is not modified.  Each span is ``[name, start, end, parent,
extra]`` with ``parent`` the index of the enclosing span (-1 for a root).
Spans stay in memory and are written once, when the run ends.

Aliases matter: a runner reaches a function through whichever module
namespace it imported it into (``tomography.heisenberg_timeline``,
``perturbation.reconstruct_series``, ...), so every such alias is wrapped
under the one span name.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from chaostomo import (
    dynamics,
    experiments,
    krylov,
    operator_space,
    perturbation,
    phase_space,
    quantifiers,
    tomography,
)

# span name -> [(owner, attribute), ...], grouped by layer (module)
TARGETS = {
    # tomography
    "psd_project": [(tomography, "psd_project")],
    "ml_estimate": [(tomography, "ml_estimate")],
    "reconstruct_series": [(tomography, "reconstruct_series"),
                           (perturbation, "reconstruct_series")],
    "generate_record": [(tomography, "generate_record")],
    "build_covariance": [(tomography, "build_covariance")],
    "CovarianceData.svd": [(tomography.CovarianceData, "svd")],
    # quantifiers
    "quantifier_series": [(quantifiers, "quantifier_series")],
    # dynamics
    "build_propagator": [(dynamics, "build_propagator"), (tomography, "build_propagator")],
    "heisenberg_timeline": [(dynamics, "heisenberg_timeline"),
                            (tomography, "heisenberg_timeline")],
    # operator_space
    "bloch_encode_batch": [(operator_space, "bloch_encode_batch"),
                           (tomography, "bloch_encode_batch")],
    "gell_mann_basis": [(operator_space, "gell_mann_basis"), (experiments, "gell_mann_basis")],
    # krylov
    "lanczos_full_orth": [(krylov, "lanczos_full_orth")],
    "krylov_amplitudes": [(krylov, "krylov_amplitudes")],
    "evolve_operator": [(krylov, "evolve_operator")],
    "arnoldi_unitary_dim": [(krylov, "arnoldi_unitary_dim")],
    # phase_space
    "husimi_entropy": [(phase_space, "husimi_entropy")],
    "coherent_state_frame": [(phase_space, "coherent_state_frame")],
    "husimi_q": [(phase_space, "husimi_q")],
    # perturbation
    "operator_relative_entropy": [(perturbation, "operator_relative_entropy")],
    "operator_incompatibility": [(perturbation, "operator_incompatibility")],
    "operator_loschmidt_echo": [(perturbation, "operator_loschmidt_echo")],
    # experiments
    "run_experiment": [(experiments, "run_experiment")],
    "ResultTable.to_csv": [(experiments.ResultTable, "to_csv")],
}


def _psd_extra(args, out):
    diag = out[2]
    return {"iters": int(diag.iters), "converged": bool(diag.converged)}


def _lanczos_extra(args, out):
    d = round(np.sqrt(np.asarray(args[1]).size))
    return {"dim_k": int(out.dim_k), "over_bound": out.dim_k > d * d - d + 1}


def _csv_extra(args, out):
    return {"bytes": len(out.encode())}


EXTRACTORS = {
    "psd_project": _psd_extra,
    "lanczos_full_orth": _lanczos_extra,
    "ResultTable.to_csv": _csv_extra,
}


class Tracer:
    """Installs span wrappers on enter and restores the originals on exit."""

    OP = "op"  # root span the benchmark opens around each operation

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []
        self._in_psd = False
        self._eigh = 0  # numpy.linalg.eigh calls inside the open psd_project span

    def span(self, name, fn, extract=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[4] = {"error": True}
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if extract is not None:
                rec[4] = extract(args, out)
            return out

        return wrapper

    def _psd_wrapper(self, fn):
        inner = self.span("psd_project", fn, _psd_extra)

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self._in_psd, self._eigh = True, 0
            try:
                return inner(*args, **kwargs)
            finally:
                self._in_psd = False
                rec = self.spans[idx]
                rec[4] = {**(rec[4] or {}), "eigh": self._eigh}

        return wrapper

    def _eigh_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            if self._in_psd:
                self._eigh += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self):
        for name, sites in TARGETS.items():
            for owner, attr in sites:
                fn = owner.__dict__[attr]
                if name == "psd_project":
                    new = self._psd_wrapper(fn)
                else:
                    new = self.span(name, fn, EXTRACTORS.get(name))
                self._patch(owner, attr, new)
        self._patch(np.linalg, "eigh", self._eigh_wrapper(np.linalg.eigh))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False


def _metric_names():
    names = []
    for name in TARGETS:
        names += [f"{name}.calls", f"{name}.s"]
    names += ["reconstruct_series.self_s", "quantifier_series.self_s", "run_experiment.self_s"]
    names += [f"psd_project.{k}" for k in
              ("iters", "eigh_calls", "active", "unconverged", "converged_ratio")]
    names += ["lanczos_full_orth.dim_k", "lanczos_full_orth.dim_k_over_bound",
              "krylov_amplitudes.failed", "run_experiment.warnings",
              "ResultTable.to_csv.bytes", "trace.coverage", "trace.overhead_s"]
    return names


METRIC_NAMES = _metric_names()


def pass_metrics(spans: list, first: int, warnings_count: int) -> dict:
    """Per-layer counts and inclusive/self seconds for the spans of one pass.

    The pass's spans are ``spans[first:]``; parents are absolute indices.
    """
    out = {name: 0 for name in METRIC_NAMES}
    child_s = [0.0] * len(spans)
    for rec in spans[first:]:
        if rec[3] >= 0:
            child_s[rec[3]] += rec[2] - rec[1]
    op_s = covered = 0.0
    psd_conv = 0
    for i in range(first, len(spans)):
        name, start, end, _, extra = spans[i]
        dur = end - start
        extra = extra or {}
        if name == Tracer.OP:
            op_s += dur
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += dur
        if f"{name}.self_s" in out:
            out[f"{name}.self_s"] += dur - child_s[i]
        if name == "run_experiment":
            covered += child_s[i]
        elif name == "psd_project":
            out["psd_project.eigh_calls"] += extra["eigh"]
            if "iters" in extra:  # absent when the call raised
                out["psd_project.iters"] += extra["iters"]
                out["psd_project.active"] += extra["iters"] > 0
                out["psd_project.unconverged"] += not extra["converged"]
                psd_conv += extra["converged"]
        elif name == "lanczos_full_orth" and "dim_k" in extra:
            out["lanczos_full_orth.dim_k"] += extra["dim_k"]
            out["lanczos_full_orth.dim_k_over_bound"] += extra["over_bound"]
        elif name == "krylov_amplitudes":
            out["krylov_amplitudes.failed"] += bool(extra.get("error"))
        elif name == "ResultTable.to_csv":
            out["ResultTable.to_csv.bytes"] += extra.get("bytes", 0)
    calls = out["psd_project.calls"]
    out["psd_project.converged_ratio"] = psd_conv / calls if calls else 0.0
    out["run_experiment.warnings"] = warnings_count
    out["trace.coverage"] = covered / op_s if op_s else 0.0
    return out


def median_metrics(per_pass: list) -> dict:
    """Median over passes of each per-layer metric; a count that repeats stays exact."""
    out = {}
    for k in per_pass[0]:
        values = [p[k] for p in per_pass]
        out[k] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out
