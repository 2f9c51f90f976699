"""Config-driven experiment runner emitting deterministic CSV tables.

Each experiment composes the library modules into one of the standard
studies: reconstruction-fidelity sweeps, perturbed-dynamics decay,
Krylov dimensions and complexity, classical phase-space portraits or
Husimi-entropy growth, random-matrix comparison, and ordered-measurement
analysis.  Output is a long-format CSV, one row per
(sweep value, step, metric), preceded by ``#`` comment lines recording
the tool version, a hash of the resolved configuration, and the seed, so
identical configs reproduce byte-identical files.

Randomness discipline: the single config seed feeds a SeedSequence whose
children are assigned by fixed position - child 0 randomizes observables,
child 1 covers auxiliary draws (trajectory starts, perturbation
unitaries), and child 2 + i belongs to work cell i, where cells enumerate
(sweep value, repetition) pairs in row-major order.  Cell results are
merged by index, so any parallel execution schedule yields the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import dynamics, krylov, perturbation, phase_space, quantifiers, rmt, tomography
from .operator_space import gell_mann_basis
from .tomography import DEFAULT_SIGMA

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ResultTable",
    "run_experiment",
    "PRESETS",
]

TOOL_VERSION = "0.1.0"

EXPERIMENTS = ("phase-space", "tomo", "krylov", "perturb", "rmt-compare", "ordered-bloch")
# Each model kind: its spec type, and the config keys it takes with their
# defaults.  The xxz impurity site defaults to the middle of the chain.
MODELS = {
    "kicked_top": (dynamics.KickedTop, {"j": 10, "lambda": 3.0, "alpha": np.pi / 2}),
    "kicked_ising": (dynamics.KickedIsing, {"L": 5, "J": 1.0, "hx": 1.4, "hz": 1.4}),
    "tilted_ising": (dynamics.TiltedIsing, {"L": 5, "J": 1.0, "hx": 1.4, "hz": 0.1, "dt": 1.0}),
    "xxz": (dynamics.XXZChain, {"L": 5, "Jxy": 1.0, "Jzz": 1.1, "g": 0.0, "site": None,
                                "dt": 1.0, "impurity_axis": "z"}),
    "haar": (dynamics.HaarSteps, {"dim": 8, "seed": 0}),
}
MODEL_KINDS = tuple(MODELS)
# Knobs that set the Hilbert-space dimension, and the experiments whose
# runner builds the observable and basis once, for the first sweep value.
SIZE_KNOBS = ("L", "j", "dim")
FIXED_SIZE_EXPERIMENTS = ("tomo", "perturb", "rmt-compare", "phase-space")
# The model kinds an experiment takes, where that is not every kind;
# ordered-bloch may omit the kind and give only the spin j.
EXPERIMENT_KINDS = {
    "perturb": ("kicked_top",),
    "phase-space": ("kicked_top",),
    "rmt-compare": ("kicked_ising", "tilted_ising"),
    "ordered-bloch": (None,) + MODEL_KINDS,
}
ORDERED_BLOCH_SWEEPS = ("direction", "eta")
# Integer config fields with their least value, and the real-valued fields.
_INTEGER_FIELDS = {"steps": 0, "n_states": 1, "seed": 0, "eval_stride": 1, "n_samples": 1,
                   "n_trajectories": 1}
_REAL_FIELDS = ("sigma", "theta", "phi", "delta_lambda")


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite real number: a NaN sigma would silently add no noise."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _check_value(fieldname: str, key: str, value):
    """Raise ConfigError unless ``value`` fits the model knob or ordered-bloch sweep ``key``."""
    if key == "direction":
        ok, want = value in ("descending", "ascending"), "'descending' or 'ascending'"
    elif key in ("L", "dim", "seed", "site"):  # a null site is the middle of the chain
        ok = (_is_integer(value) and value >= 0) or (key == "site" and value is None)
        want = "an integer >= 0"
    else:  # impurity_axis is a string that its model checks
        ok, want = key == "impurity_axis" or _is_real(value), "a finite real number"
    if not ok:
        raise ConfigError(fieldname, f"{key} must be {want}, got {value!r}")


class ConfigError(ValueError):
    """Invalid experiment configuration; carries the offending field."""

    def __init__(self, fieldname: str, message: str):
        self.fieldname = fieldname
        super().__init__(f"config field '{fieldname}': {message}")


@dataclass
class ExperimentConfig:
    experiment: str
    model: dict = field(default_factory=dict)
    observable: str = "J_y"
    steps: int = 0  # 0 means the 2 d^2 artifact default, resolved at run time
    sigma: float = DEFAULT_SIGMA
    n_states: int = 1
    sweep: dict = field(default_factory=dict)
    seed: int = 0
    output_path: Optional[str] = None
    eval_stride: int = 1
    # experiment-specific knobs
    state: str = "haar"  # or "coherent"
    theta: float = 0.0
    phi: float = 0.0
    delta_lambda: float = 0.01
    n_samples: int = 10
    n_trajectories: int = 20
    mode: str = "portrait"  # phase-space: portrait | husimi
    provenance: str = ""

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError("experiment", f"must be one of {EXPERIMENTS}, got {self.experiment!r}")
        for name in ("model", "sweep"):
            if not isinstance(getattr(self, name), dict):
                raise ConfigError(name, "must be a mapping")
        for name, least in _INTEGER_FIELDS.items():
            value = getattr(self, name)
            if not _is_integer(value) or value < least:
                raise ConfigError(name, f"must be an integer >= {least}, got {value!r}")
        for name in _REAL_FIELDS:
            if not _is_real(getattr(self, name)):
                raise ConfigError(name, f"must be a finite real number, "
                                        f"got {getattr(self, name)!r}")
        kind = self.model.get("kind")
        kinds = EXPERIMENT_KINDS.get(self.experiment, MODEL_KINDS)
        if kind not in kinds:
            raise ConfigError("model.kind", f"{self.experiment} takes one of {kinds}, "
                                            f"got {kind!r}")
        if self.experiment == "krylov" and kind == "haar":
            raise ConfigError("model.kind", "krylov needs a fixed generator, and haar draws "
                                            "a fresh unitary every step")
        param, values = self.sweep.get("param"), self.sweep.get("values")
        if not isinstance(param, str) or not isinstance(values, list) or not values:
            raise ConfigError("sweep", "a sweep with 'param' and a nonempty 'values' list "
                                       "is required")
        known = MODELS[kind][1] if kind is not None else {"j": None}
        for key, value in self.model.items():
            if key == "kind":
                continue
            if key not in known:
                raise ConfigError(f"model.{key}",
                                  f"not a parameter of {kind}; known: {sorted(known)}")
            _check_value(f"model.{key}", key, value)
        if kind is None:  # ordered-bloch sized by j alone, under the kicked top's rule
            try:
                dynamics.KickedTop(self.model.get("j", MODELS["kicked_top"][1]["j"]), 0.0, 0.0)
            except ValueError as exc:
                raise ConfigError("model.j", str(exc)) from None
        if self.experiment == "ordered-bloch":
            if param not in ORDERED_BLOCH_SWEEPS:
                raise ConfigError("sweep.param", f"ordered-bloch sweeps one of "
                                                 f"{ORDERED_BLOCH_SWEEPS}, got {param!r}")
        elif param not in known:
            raise ConfigError("sweep", f"param {param!r} is not a parameter of {kind}; "
                                       f"known: {sorted(known)}")
        for value in values:
            _check_value("sweep.values", param, value)
        if self.experiment in FIXED_SIZE_EXPERIMENTS and param in SIZE_KNOBS:
            raise ConfigError("sweep.param", f"{self.experiment} runs at one Hilbert-space "
                                             f"size, so it cannot sweep {param!r}")
        if self.sigma < 0:
            raise ConfigError("sigma", "must be >= 0")
        if self.state not in ("haar", "coherent"):
            raise ConfigError("state", "must be 'haar' or 'coherent'")
        if self.mode not in ("portrait", "husimi"):
            raise ConfigError("mode", "must be 'portrait' or 'husimi'")
        return self

    def resolved(self) -> dict:
        """Every field that can change the numbers; ``config_hash`` digests it."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("output_path", "provenance")}
        out["model"] = dict(self.model)
        out["sweep"] = {"param": self.sweep.get("param"),
                        "values": list(self.sweep.get("values", []))}
        return out

    def config_hash(self) -> str:
        payload = json.dumps(self.resolved(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _build_model(model: dict, override: Optional[tuple] = None) -> dynamics.ModelSpec:
    spec = dict(model)
    kind = spec.pop("kind", None)
    if kind not in MODELS:
        raise ConfigError("model.kind", f"unknown kind {kind!r}")
    if override is not None:
        spec[override[0]] = override[1]
    model_type, defaults = MODELS[kind]
    params = {**defaults, **spec}
    if kind == "kicked_top":
        params["lam"] = params.pop("lambda")
    if kind == "xxz" and params["site"] is None:
        params["site"] = (params["L"] + 1) // 2
    try:
        return model_type(**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError("model", str(exc)) from exc


KNOWN_OBSERVABLES = (
    "J_x", "J_y", "J_z",
    "Sx", "Sy", "Sz",
    "s<i><axis> (e.g. s1y), sums like s2y+s4y",
    "random-local",
)


def _build_observable(name: str, model: dynamics.ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Resolve a named observable for the model's Hilbert space."""
    d = model.dim
    spin_like = isinstance(model, (dynamics.KickedTop, dynamics.HaarSteps))
    if name in ("J_x", "J_y", "J_z"):
        return dynamics.angular_momentum_ops((d - 1) / 2.0)["xyz".index(name[-1])]
    if name == "random-local":
        # spin models: J_x under a Haar unitary; chains: s1y under a Haar unitary on site 1
        if spin_like:
            w, op = rmt.haar_unitary(d, rng), _build_observable("J_x", model, rng)
        else:
            w = np.kron(rmt.haar_unitary(2, rng), np.eye(2 ** (model.L - 1)))
            op = dynamics.pauli_site("y", 1, model.L) / 2.0
        return w.conj().T @ op @ w
    if spin_like:
        raise ConfigError(
            "observable", f"{name!r} is not defined for this model; known: {KNOWN_OBSERVABLES}"
        )
    L = model.L
    if name in ("Sx", "Sy", "Sz"):
        return dynamics.collective_spin(name[-1].lower(), L)
    try:
        terms = []
        for part in name.split("+"):
            part = part.strip()
            if not (part.startswith("s") and part[-1] in "xyz"):
                raise ValueError(part)
            site = int(part[1:-1])
            terms.append(dynamics.pauli_site(part[-1], site, L) / 2.0)
        return sum(terms)
    except (ValueError, IndexError):
        raise ConfigError(
            "observable", f"unknown observable {name!r}; known: {KNOWN_OBSERVABLES}"
        ) from None


@dataclass
class ResultTable:
    """Long-format rows, tuples (sweep_param, sweep_value, step, metric, mean, stderr, n)."""

    header: list
    rows: list
    solver_converged: bool = True

    def to_csv(self) -> str:
        lines = [f"# {h}" for h in self.header]
        lines.append("sweep_param,sweep_value,step,metric,mean,stderr,n")
        # one C-level format per row; %.10g of a number is format(float(x), ".10g")
        lines += ["%s,%s,%s,%s,%.10g,%.10g,%s" % row for row in self.rows]
        return "\n".join(lines) + "\n"

    def write(self, path: str):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())


def _mean_stderr(samples: np.ndarray) -> tuple:
    m = float(np.mean(samples))
    if len(samples) < 2:
        return m, 0.0
    return m, float(np.std(samples, ddof=1) / np.sqrt(len(samples)))


@dataclass
class _Rows:
    """Rows of one sweep parameter; the only place a sweep value is formatted."""

    param: str
    rows: list = field(default_factory=list)

    @staticmethod
    def _label(value) -> str:
        return format(value, ".10g") if isinstance(value, float) else str(value)

    def add_steps(self, value, steps, columns: dict):
        """Step by step, one row per metric; ``columns`` maps metric -> value per step."""
        param, label, items = self.param, self._label(value), columns.items()
        self.rows.extend((param, label, step, metric, column[i], 0.0, 1)
                         for i, step in enumerate(steps) for metric, column in items)

    def add_means(self, value, steps, columns: dict):
        """Like :meth:`add_steps` for (samples, steps) arrays: mean and standard error."""
        param, label, items = self.param, self._label(value), columns.items()
        self.rows.extend((param, label, step, metric, *_mean_stderr(samples[:, i]), len(samples))
                         for i, step in enumerate(steps) for metric, samples in items)

    def table(self, solver_converged: bool = True) -> ResultTable:
        return ResultTable(header=[], rows=self.rows, solver_converged=solver_converged)


def _eval_steps(n_rows: int, stride: int) -> list:
    steps = list(range(stride, n_rows + 1, stride))
    if not steps or steps[-1] != n_rows:
        steps.append(n_rows)
    return steps


def _record_steps(cfg: ExperimentConfig, d: int) -> tuple:
    """Record length (``steps``, or 2 d^2 when 0) and the prefix lengths evaluated."""
    n_rows = cfg.steps if cfg.steps > 0 else 2 * d * d
    return n_rows, _eval_steps(n_rows, cfg.eval_stride)


def _cell_streams(cfg: ExperimentConfig, n_cells: int):
    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(2 + n_cells)
    obs_rng = np.random.default_rng(children[0])
    aux_rng = np.random.default_rng(children[1])
    cells = [np.random.default_rng(c) for c in children[2:]]
    return obs_rng, aux_rng, cells


def _draw_records(cfg: ExperimentConfig, timeline, rngs) -> tuple:
    """One reference state per stream in ``rngs``, and its record from ``timeline``."""
    d = timeline.dim
    states, records = [], []
    for rng in rngs:
        if cfg.state == "coherent":
            psi0 = phase_space.spin_coherent((d - 1) / 2.0, cfg.theta, cfg.phi)
        else:
            psi0 = tomography.haar_random_pure(d, rng)
        states.append(psi0)
        records.append(tomography.generate_record(psi0, timeline, cfg.sigma, rng))
    return states, records


def _fidelity_rows(rows: _Rows, value, run, eval_steps) -> bool:
    """Mean reconstruction fidelity of a run; returns whether every projection converged."""
    rows.add_means(value, eval_steps, {"fidelity": run.fidelities})
    return all(diag.converged for diags in run.results for diag in diags)


def _run_tomo(cfg: ExperimentConfig) -> ResultTable:
    param = cfg.sweep["param"]
    rows = _Rows(param)
    converged = True
    obs_rng, aux_rng, cells = _cell_streams(cfg, len(cfg.sweep["values"]) * cfg.n_states)
    first_model = _build_model(cfg.model, (param, cfg.sweep["values"][0]))
    basis = gell_mann_basis(first_model.dim)
    n_rows, eval_steps = _record_steps(cfg, first_model.dim)
    observable = _build_observable(cfg.observable, first_model, obs_rng)
    for iv, value in enumerate(cfg.sweep["values"]):
        model = _build_model(cfg.model, (param, value))
        timeline = tomography.model_timeline(model, observable, n_rows)
        cov = tomography.build_covariance(timeline, basis)
        states, records = _draw_records(cfg, timeline,
                                        cells[iv * cfg.n_states:(iv + 1) * cfg.n_states])
        del timeline  # the reconstruction reads only the design
        run = tomography.reconstruct_series(records, cov, basis, states, eval_steps)
        rows.add_steps(value, eval_steps, quantifiers.quantifier_series(cov, run.spectra))
        converged &= _fidelity_rows(rows, value, run, eval_steps)
    return rows.table(converged)


def _run_perturb(cfg: ExperimentConfig) -> ResultTable:
    param = cfg.sweep["param"]
    rows = _Rows(param)
    converged = True
    obs_rng, aux_rng, cells = _cell_streams(cfg, len(cfg.sweep["values"]) * cfg.n_states)
    base = _build_model(cfg.model, (param, cfg.sweep["values"][0]))
    j = base.j
    basis = gell_mann_basis(base.dim)
    n_rows, eval_steps = _record_steps(cfg, base.dim)
    observable = _build_observable(cfg.observable, base, obs_rng)
    for iv, value in enumerate(cfg.sweep["values"]):
        model = _build_model(cfg.model, (param, value))
        u_true, u_model = perturbation.perturbed_kicked_top(j, model.lam, model.alpha,
                                                            cfg.delta_lambda)
        tl_true = dynamics.heisenberg_timeline(observable, u_true, n_rows - 1)
        tl_model = dynamics.heisenberg_timeline(observable, u_model, n_rows - 1)
        # operator metrics compare the timeline entries measured at row n
        pairs = [(tl_true.steps[n - 1], tl_model.steps[n - 1]) for n in eval_steps]
        rows.add_steps(value, eval_steps, {
            "loschmidt_echo": [perturbation.operator_loschmidt_echo(t, m, observable)
                               for t, m in pairs],
            "relative_entropy": [perturbation.operator_relative_entropy(t, m) for t, m in pairs],
            "incompatibility": [perturbation.operator_incompatibility(t, m, j=j)
                                for t, m in pairs],
        })
        cov_model = tomography.build_covariance(tl_model, basis)
        states, records = _draw_records(cfg, tl_true,
                                        cells[iv * cfg.n_states:(iv + 1) * cfg.n_states])
        del tl_true, tl_model, pairs  # the reconstruction reads only the model design
        run = tomography.reconstruct_series(records, cov_model, basis, states, eval_steps)
        converged &= _fidelity_rows(rows, value, run, eval_steps)
    return rows.table(converged)


def _run_krylov(cfg: ExperimentConfig) -> ResultTable:
    param = cfg.sweep["param"]
    rows = _Rows(param)
    obs_rng, aux_rng, _ = _cell_streams(cfg, 0)
    for value in cfg.sweep["values"]:
        model = _build_model(cfg.model, (param, value))
        observable = _build_observable(cfg.observable, model, obs_rng)
        if isinstance(model, (dynamics.TiltedIsing, dynamics.XXZChain)):
            h = dynamics.hamiltonian(model)
            kb = krylov.lanczos_full_orth(krylov.liouvillian(h), observable)
            rows.add_steps(value, [0], {"krylov_dim": [kb.dim_k]})
            rows.add_steps(value, range(1, kb.dim_k), {"lanczos_b": kb.lanczos_b})
            if cfg.steps > 0:
                steps = _eval_steps(cfg.steps, cfg.eval_stride)
                phi = krylov.krylov_amplitudes(observable, kb, np.array(steps) * model.dt)
                rows.add_steps(value, steps, {
                    "krylov_complexity": krylov.krylov_complexity(phi),
                    "krylov_entropy": krylov.krylov_entropy(phi),
                })
        else:
            u = dynamics.build_propagator(model)
            rows.add_steps(value, [0], {"krylov_dim": [krylov.arnoldi_unitary_dim(u, observable)]})
    return rows.table()


def _run_phase_space(cfg: ExperimentConfig) -> ResultTable:
    param = cfg.sweep["param"]
    rows = _Rows(param)
    obs_rng, aux_rng, _ = _cell_streams(cfg, 0)
    n_steps = cfg.steps if cfg.steps > 0 else 200
    if cfg.mode == "portrait":
        # shared random starts on the unit sphere so panels are comparable
        z0 = aux_rng.uniform(-1.0, 1.0, cfg.n_trajectories)
        ph0 = aux_rng.uniform(0.0, 2 * np.pi, cfg.n_trajectories)
        s0 = np.sqrt(1.0 - z0**2)
        for value in cfg.sweep["values"]:
            model = _build_model(cfg.model, (param, value))
            x, y, z = s0 * np.cos(ph0), s0 * np.sin(ph0), z0.copy()
            theta, phi = np.empty((2, n_steps, cfg.n_trajectories))
            for n in range(n_steps):
                x, y, z = dynamics.classical_kicked_top_step(x, y, z, model.lam, model.alpha)
                theta[n] = np.arccos(np.clip(z, -1, 1))
                phi[n] = np.mod(np.arctan2(y, x), 2 * np.pi)
            columns = {}
            for t in range(cfg.n_trajectories):
                columns[f"theta.{t:02d}"] = theta[:, t].tolist()
                columns[f"phi.{t:02d}"] = phi[:, t].tolist()
            rows.add_steps(value, range(1, n_steps + 1), columns)
        return rows.table()
    # husimi mode: Wehrl entropy of the evolved observable
    grid = phase_space.sphere_grid()
    base = _build_model(cfg.model, (param, cfg.sweep["values"][0]))
    observable = _build_observable(cfg.observable, base, obs_rng)
    steps = _eval_steps(n_steps, cfg.eval_stride)
    for value in cfg.sweep["values"]:
        model = _build_model(cfg.model, (param, value))
        u = dynamics.build_propagator(model)
        tl = dynamics.heisenberg_timeline(observable, u, n_steps)
        rows.add_steps(value, steps, {
            "husimi_entropy": [phase_space.husimi_entropy(tl.steps[n], grid) for n in steps]})
    return rows.table()


def _spectrum_series(timeline, basis, eval_steps) -> dict:
    """Quantifier columns of a timeline's record prefixes, read off singular values alone."""
    cov = tomography.build_covariance(timeline, basis)
    return quantifiers.quantifier_series(cov, [cov.truncated(n) for n in eval_steps])


def _run_rmt_compare(cfg: ExperimentConfig) -> ResultTable:
    param = cfg.sweep["param"]
    rows = _Rows(param)
    metrics = ("shannon", "fisher", "rank")
    obs_rng, aux_rng, _ = _cell_streams(cfg, 0)
    base = _build_model(cfg.model, (param, cfg.sweep["values"][0]))
    d = base.dim
    basis = gell_mann_basis(d)
    observable = _build_observable(cfg.observable, base, obs_rng)
    n_rows, eval_steps = _record_steps(cfg, d)
    for value in cfg.sweep["values"]:
        model = _build_model(cfg.model, (param, value))
        timeline = tomography.model_timeline(model, observable, n_rows)
        series = _spectrum_series(timeline, basis, eval_steps)
        rows.add_steps(value, eval_steps, {metric: series[metric] for metric in metrics})
    # ensemble baseline, block diagonal in the reflection eigenbasis
    vbasis, block_dims = rmt.reflection_eigenbasis(base.L)
    ens_kind = "COE" if cfg.model["kind"] == "kicked_ising" else "GOE"
    samples = []
    for _ in range(cfg.n_samples):
        mat = rmt.block_diagonal_sample(ens_kind, block_dims, vbasis, aux_rng)
        # a GOE draw is a Hamiltonian evolved for dt = 1, a COE draw the step itself
        u = dynamics.expm_hermitian(mat) if ens_kind == "GOE" else mat
        tl = dynamics.heisenberg_timeline(observable, u, n_rows - 1)
        samples.append(_spectrum_series(tl, basis, eval_steps))
    for metric in metrics:
        column = np.array([s[metric] for s in samples], dtype=float)
        rows.add_means("rmt", eval_steps, {metric: column})
    return rows.table()


def _run_ordered_bloch(cfg: ExperimentConfig) -> ResultTable:
    param = cfg.sweep["param"]
    rows = _Rows(param)
    obs_rng, aux_rng, cells = _cell_streams(cfg, cfg.n_states)
    model = _build_model(cfg.model) if cfg.model.get("kind") else None
    d = model.dim if model is not None else round(2 * cfg.model.get("j", 10)) + 1
    basis = gell_mann_basis(d)
    j = (d - 1) / 2.0
    states = []
    for i_state in range(cfg.n_states):
        if cfg.state == "coherent":
            states.append(phase_space.spin_coherent(j, cfg.theta, cfg.phi))
        else:
            states.append(tomography.haar_random_pure(d, cells[i_state]))
    u_r = rmt.haar_unitary(d, aux_rng)
    ks = range(1, d * d)  # number of basis elements measured
    for value in cfg.sweep["values"]:
        if param == "direction":
            per_state = [quantifiers.ordered_bloch_values(np.outer(psi, psi.conj()), basis,
                                                          direction=value) for psi in states]
            rows.add_means(value, ks, {
                "bloch_value": np.array([part for part, _ in per_state]),
                "fidelity_bound": np.array([bound for _, bound in per_state]),
            })
        else:  # eta sweep: fidelity with a perturbed measured basis
            value = float(value)
            w = perturbation.fractional_unitary_power(u_r, value)
            fid = np.array([perturbation.ordered_perturbed_fidelity(psi, basis, w)
                            for psi in states])
            rows.add_means(value, ks, {"fidelity": fid})
    return rows.table()


_RUNNERS = {
    "tomo": _run_tomo,
    "perturb": _run_perturb,
    "krylov": _run_krylov,
    "phase-space": _run_phase_space,
    "rmt-compare": _run_rmt_compare,
    "ordered-bloch": _run_ordered_bloch,
}


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Dispatch, run, stamp the header, and write the CSV if requested."""
    cfg.validate()
    table = _RUNNERS[cfg.experiment](cfg)
    header = [
        f"chaostomo {TOOL_VERSION}",
        f"config_hash: {cfg.config_hash()}",
        f"seed: {cfg.seed}",
        "units: ensemble size N_s = 1; sigma is the per-sample noise spread,"
        " so Fisher information is dimensionless",
    ]
    if cfg.provenance:
        header.insert(3, f"provenance: {cfg.provenance}")
    table.header = header
    if cfg.output_path:
        table.write(cfg.output_path)
    return table


PRESETS = {
    "fig2.1-phase-space": dict(
        experiment="phase-space", mode="portrait",
        model={"kind": "kicked_top", "j": 10, "alpha": np.pi / 2, "lambda": 0.5},
        sweep={"param": "lambda", "values": [0.5, 2.5, 3.0, 6.5]},
        steps=300, n_trajectories=20,
        provenance="Fig. 2.1 parameter set: classical kicked top, alpha=pi/2, lambda in {0.5, 2.5, 3.0, 6.5}",
    ),
    "fig2.3-krylov-complexity": dict(
        experiment="krylov", observable="Sz",
        model={"kind": "tilted_ising", "L": 5, "J": 1.0, "hx": 1.4, "dt": 1.0},
        sweep={"param": "hz", "values": [0.0, 0.4, 1.4]},
        steps=60, eval_stride=1,
        provenance="Fig. 2.3 parameter set: tilted-field Ising L=5, J=1, hx=1.4, O=Sz, hz sweep",
    ),
    "fig2.4-lanczos": dict(
        experiment="krylov", observable="s1y",
        model={"kind": "tilted_ising", "J": 1.0, "hx": 1.4, "hz": 1.4, "dt": 1.0, "L": 2},
        sweep={"param": "L", "values": [2, 3, 4]},
        provenance="Fig. 2.4 parameter set: tilted-field Ising, J=1, hx=hz=1.4, O=s1y, L sweep",
    ),
    "fig3.1-coherent": dict(
        experiment="tomo", observable="J_y", state="coherent", theta=2.04, phi=2.42,
        model={"kind": "kicked_top", "j": 20, "alpha": np.pi / 2, "lambda": 0.5},
        sweep={"param": "lambda", "values": [0.5, 2.5, 7.0]},
        steps=100, sigma=0.1, n_states=10, eval_stride=2,
        provenance="Fig. 3.1a/c parameter set: kicked top j=20, coherent state theta=2.04 phi=2.42,"
                   " O=J_y; steps/sigma/averaging are artifact defaults",
    ),
    "fig3.1-random": dict(
        experiment="tomo", observable="J_y", state="haar",
        model={"kind": "kicked_top", "j": 10, "alpha": np.pi / 2, "lambda": 0.5},
        sweep={"param": "lambda", "values": [0.5, 2.5, 7.0]},
        steps=100, sigma=0.1, n_states=50, eval_stride=2,
        provenance="Fig. 3.1b/d parameter set: kicked top j=10, 50 Haar states, O=J_y;"
                   " steps/sigma are artifact defaults",
    ),
    "fig3.3-ordered-bloch": dict(
        experiment="ordered-bloch", state="coherent", theta=2.04, phi=2.42,
        model={"kind": "kicked_top", "j": 20, "alpha": np.pi / 2, "lambda": 0.5},
        sweep={"param": "direction", "values": ["descending", "ascending"]},
        provenance="Fig. 3.3 parameter set: ordered Bloch components, coherent state j=20",
    ),
    "fig3.6-husimi": dict(
        experiment="phase-space", mode="husimi", observable="J_y",
        model={"kind": "kicked_top", "j": 20, "alpha": np.pi / 2, "lambda": 0.5},
        sweep={"param": "lambda", "values": [0.5, 2.5, 7.0]},
        steps=50, eval_stride=1,
        provenance="Fig. 3.6 parameter set: Husimi entropy of evolved J_y, kicked top j=20",
    ),
    "fig4.2-tki-quantifiers": dict(
        experiment="tomo", observable="s1y",
        model={"kind": "kicked_ising", "L": 5, "J": 1.0, "hx": 1.4, "hz": 0.0},
        sweep={"param": "hz", "values": [0.0, 0.4, 1.4]},
        steps=1200, sigma=0.1, n_states=8, eval_stride=60,
        provenance="Fig. 4.2 parameter set: kicked Ising L=5, J=1, hx=1.4, O=s1y, hz sweep;"
                   " averaging reduced for runtime (reference scale: 80 states)",
    ),
    "fig4.6-rmt-compare": dict(
        experiment="rmt-compare", observable="random-local",
        model={"kind": "kicked_ising", "L": 5, "J": 1.0, "hx": 1.4, "hz": 1.4},
        sweep={"param": "hz", "values": [0.0, 0.4, 1.4]},
        steps=1500, n_samples=10, eval_stride=100,
        provenance="Fig. 4.6 parameter set: kicked Ising L=5 vs reflection-block COE,"
                   " random local observable, 10 ensemble samples",
    ),
    "fig4.8-xxz": dict(
        experiment="tomo", observable="s2y+s4y",
        model={"kind": "xxz", "L": 5, "Jxy": 1.0, "Jzz": 1.1, "site": 3, "dt": 1.0, "g": 0.0},
        sweep={"param": "g", "values": [0.0, 0.16, 0.94]},
        steps=1200, sigma=0.1, n_states=8, eval_stride=60,
        provenance="Fig. 4.8 parameter set: XXZ L=5, Jxy=1, Jzz=1.1, impurity at site 3,"
                   " g in {0, 0.16, 0.94}; impurity axis z per the Hamiltonian definition",
    ),
    "fig5.2-perturb": dict(
        experiment="perturb", observable="random-local",
        model={"kind": "kicked_top", "j": 10, "alpha": 1.4, "lambda": 0.5},
        sweep={"param": "lambda", "values": [0.5, 2.5, 7.0]},
        steps=100, sigma=0.1, n_states=100, delta_lambda=0.01, eval_stride=2,
        provenance="Fig. 5.2 parameter set: kicked top j=10, alpha=1.4, delta_lambda=0.01,"
                   " 100 Haar states, random initial observable",
    ),
    "fig5.3-perturbed-basis": dict(
        experiment="ordered-bloch", state="haar",
        model={"kind": "kicked_top", "j": 10, "alpha": 1.4, "lambda": 7.0},
        sweep={"param": "eta", "values": [0.0, 0.05, 0.1, 0.2]},
        n_states=20,
        provenance="Fig. 5.3 parameter set: ordered measurements in a basis perturbed by a"
                   " fractional random-unitary power; j=10, eta sweep is an artifact choice",
    ),
}


def config_from_preset(name: str, **overrides) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError("preset", f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    params = dict(PRESETS[name])
    params.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**params)
