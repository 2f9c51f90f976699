"""Benchmark workloads: which preset cells one pass runs, and why.

One operation is one ``experiments.run_experiment`` call on a single sweep
value of a preset, followed by the CSV emission of its table.  A workload
is an ordered list of such cells; one pass runs every cell once.

The workload seed picks the first of the ``POOL_SIZE`` config seeds a
run uses (untraced runs take the next one on each pass), so the same seed
always yields the same inputs and every input the benchmark can run has
reference values recorded in ``reference.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from chaostomo import experiments

POOL_SIZE = 16


@dataclass(frozen=True)
class Cell:
    """One operation: a preset, overrides, and the single sweep value it runs."""

    label: str
    preset: str | None  # None: ``overrides`` is the whole config
    value: object
    overrides: dict = field(default_factory=dict)
    # fidelities are compared with reference values only where the estimator
    # is unique: full-row-rank prefixes of the lambda=7 kicked top
    unique_fidelity: bool = False

    def config(self, seed: int) -> experiments.ExperimentConfig:
        if self.preset is None:
            cfg = experiments.ExperimentConfig(**self.overrides)
        else:
            cfg = experiments.config_from_preset(self.preset, **self.overrides)
        cfg.sweep = {"param": cfg.sweep["param"], "values": [self.value]}
        cfg.seed = seed
        return cfg.validate()


def dim(cfg: experiments.ExperimentConfig) -> int:
    """Hilbert-space dimension of the model a config describes."""
    model = cfg.model
    param, value = cfg.sweep["param"], cfg.sweep["values"][0]
    if model["kind"] == "kicked_top":
        return round(2 * model.get("j", 10)) + 1
    return 2 ** int(value if param == "L" else model.get("L", 5))


_TI_L4 = {"kind": "tilted_ising", "L": 4, "J": 1.0, "hx": 1.4, "dt": 1.0}
# Floquet orbit dimension of the kicked Ising chain (arnoldi_unitary_dim)
_ORBIT_L4 = dict(
    experiment="krylov", observable="s1y", sweep={"param": "hz", "values": [1.4]},
    model={"kind": "kicked_ising", "L": 4, "J": 1.0, "hx": 1.4, "hz": 1.4},
)

# Sizes are cut from the paper presets so that one pass takes 2-7 s on one
# core and a run holds several passes: the host's speed varies between
# passes, and the input cost varies between config seeds, so the medians
# need many passes.
WORKLOADS = {
    # Consistent records; the positivity projection is >90% of wall.  Three
    # states share each prefix covariance, so batching the projection
    # across states shows here.
    "kt-tomo": [
        Cell(f"lambda={lam}", "fig3.1-random", lam,
             {"n_states": 3, "eval_stride": 20}, unique_fidelity=(lam == 7.0))
        for lam in (0.5, 2.5, 7.0)
    ],
    # Record from the true dynamics, inverted with the model design: the ML
    # vector is systematically infeasible, so the projection runs a
    # different regime than on kt-tomo.
    "kt-perturb": [
        Cell(f"lambda={lam}", "fig5.2-perturb", lam, {"n_states": 3, "eval_stride": 10})
        for lam in (0.5, 2.5, 7.0)
    ],
    # d=32 kicked Ising, 1200-row design over 1023 directions: prefix SVDs
    # dominate, and with one state there is nothing to batch.
    "chain-spectra": [
        Cell(f"hz={hz}", "fig4.2-tki-quantifiers", hz, {"n_states": 1, "eval_stride": 300})
        for hz in (0.0, 0.4, 1.4)
    ],
    # Krylov, orbit dimension, Husimi and portrait layers.  The fig2.3 cells
    # fail at this commit (imaginary Lanczos residue); they stay in and
    # count as failed.  One runs at the preset size L=5, where the Lanczos
    # build costs seconds; the others at L=4, where the same defect shows.
    # The fig2.4 cells emit the lanczos_b values the gate compares.
    "spread-diag": [
        Cell("krylov L=5 hz=1.4", "fig2.3-krylov-complexity", 1.4),
        *(Cell(f"krylov L=4 hz={hz}", "fig2.3-krylov-complexity", hz, {"model": _TI_L4})
          for hz in (0.0, 0.4, 1.4)),
        *(Cell(f"lanczos L={L}", "fig2.4-lanczos", L) for L in (2, 3, 4)),
        Cell("orbit L=4", None, 1.4, _ORBIT_L4),
        *(Cell(f"husimi lambda={lam}", "fig3.6-husimi", lam, {"steps": 8})
          for lam in (0.5, 7.0)),
        Cell("portrait lambda=0.5", "fig2.1-phase-space", 0.5),
    ],
}


def config_seed(seed: int) -> int:
    """Config seed a workload seed selects from the recorded pool."""
    return seed % POOL_SIZE
