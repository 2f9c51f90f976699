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
child 1 covers auxiliary draws (trajectory starts, perturbation unitaries,
ensemble samples), and child 2 + iv * n_states + i draws the state and the
record noise of repetition i at sweep value iv.  ordered-bloch measures the
same states at every sweep value, those of the first value's children
2 ... 2 + n_states - 1.  Cells run serially in that index order, and no
cell's draws depend on another's.  ``_Sweep`` is the one place that spawns
the children.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import typing
from dataclasses import dataclass, field, fields, replace
from typing import Literal, Optional

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

# Each model kind's spec type.  Its fields are the knobs the kind takes, with their
# defaults and annotations; the first one sets the Hilbert-space size.
MODELS = {
    "kicked_top": dynamics.KickedTop,
    "kicked_ising": dynamics.KickedIsing,
    "tilted_ising": dynamics.TiltedIsing,
    "xxz": dynamics.XXZChain,
    "haar": dynamics.HaarSteps,
}
MODEL_KINDS = tuple(MODELS)
# Each kind's knobs by config key, (spec field, annotation); the kicked top's ``lam``
# is written ``lambda``.
_KNOBS = {kind: {{"lam": "lambda"}.get(name, name): (name, hint)
                 for name, hint in typing.get_type_hints(spec).items()}
          for kind, spec in MODELS.items()}
# ordered-bloch builds one model and sweeps none of its knobs, but one of these
ORDERED_BLOCH_SWEEPS = {"direction": Literal["descending", "ascending"], "eta": float}
# The integer config fields whose least value is 1; every other integer's is 0.
_COUNTS = ("n_states", "eval_stride", "n_samples", "n_trajectories")
# Config fields every experiment reads; ``_EXPERIMENTS`` names the others each one reads.
_ALWAYS_READ = ("experiment", "model", "sweep", "seed", "output_path", "provenance")
_WANT = {float: "a finite real number", str: "a string", dict: "a mapping"}


def _check(fieldname: str, hint, value, key: str = "", least: int = 0):
    """Raise ConfigError unless ``value`` fits the annotation ``hint`` of a config field,
    or of the model knob or sweep param ``key``.

    ``float`` takes a finite real (a NaN sigma would silently add no noise) and
    ``int`` an integer >= ``least``, neither a bool; ``str`` takes a string,
    ``dict`` a mapping, a ``Literal`` one of its words, and ``Optional[...]``
    also null.
    """
    args = typing.get_args(hint)
    if typing.get_origin(hint) is Literal:
        ok, want = value in args, " or ".join(map(repr, args))
    else:
        optional = type(None) in args  # Optional[T] is Union[T, None]
        base = args[0] if optional else hint
        want = f"an integer >= {least}" if base is int else _WANT[base]
        if value is None or isinstance(value, bool):
            ok = value is None and optional
        elif base is float:
            ok = isinstance(value, numbers.Real) and math.isfinite(value)
        elif base is int:
            ok = isinstance(value, numbers.Integral) and value >= least
        else:
            ok = isinstance(value, base)
    if not ok:
        raise ConfigError(fieldname, (f"{key} " if key else "") + f"must be {want}, got {value!r}")


def _hash_form(hint, value):
    """``value`` as the config hash reads it: a float where its annotation is ``float``."""
    return float(value) if hint is float else value


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
    # 0 means: 2 d^2 for tomo, perturb and rmt-compare; 200 for phase-space; no complexity
    # or entropy rows for krylov
    steps: int = 0
    sigma: float = DEFAULT_SIGMA
    n_states: int = 1
    sweep: dict = field(default_factory=dict)
    seed: int = 0
    output_path: Optional[str] = None
    eval_stride: int = 1
    # experiment-specific knobs
    state: Literal["haar", "coherent"] = "haar"
    theta: float = 0.0
    phi: float = 0.0
    delta_lambda: float = 0.01
    n_samples: int = 10
    n_trajectories: int = 20
    mode: Literal["portrait", "husimi"] = "portrait"  # of phase-space
    provenance: str = ""

    def validate(self):
        for name, hint in _FIELDS.items():
            _check(name, hint, getattr(self, name), least=1 if name in _COUNTS else 0)
        if self.experiment not in _EXPERIMENTS:
            raise ConfigError("experiment", f"must be one of {tuple(_EXPERIMENTS)}, "
                                            f"got {self.experiment!r}")
        _, kinds, fixed_size, _ = _EXPERIMENTS[self.experiment]
        kind = self.model.get("kind")
        if kind not in kinds:
            raise ConfigError("model.kind", f"{self.experiment} takes one of {kinds}, "
                                            f"got {kind!r}")
        param, values = self.sweep.get("param"), self.sweep.get("values")
        if not isinstance(param, str) or not isinstance(values, list) or not values:
            raise ConfigError("sweep", "a sweep with 'param' and a nonempty 'values' list "
                                       "is required")
        # a field or knob the run does not read must keep its default (for a knob, the
        # class attribute of its spec)
        knobs, reads = _KNOBS[kind], _reads(self)
        for key, value in self.model.items():
            name = f"model.{key}"
            if key == "kind":
                continue
            if key not in knobs:
                raise ConfigError(name, f"not a parameter of {kind}; known: {sorted(knobs)}")
            _check(name, knobs[key][1], value, key)
            if value != getattr(MODELS[kind], knobs[key][0]) and name not in reads:
                raise ConfigError(name, f"{self.experiment} does not read it; leave it unset")
        hint = _param_type(self)
        for value in values:
            _check("sweep.values", hint, value, param)
        if self.sigma < 0:
            raise ConfigError("sigma", "must be >= 0")
        for f in fields(self):
            if getattr(self, f.name) != f.default and f.name not in reads:
                raise ConfigError(f.name, f"{self.experiment} does not read it; leave it unset")
        # build every model the run builds (ordered-bloch sweeps no model knob), and on each
        # the observable the run reads; random-local, J_x or s1y under a Haar unitary, exists
        # on every model and stays unbuilt, so validation draws from no stream
        overrides = [None] if self.experiment == "ordered-bloch" else [(param, v) for v in values]
        models = [_build_model(self.model, override) for override in overrides]
        if fixed_size and len({model.dim for model in models}) > 1:
            raise ConfigError("sweep.param", f"{self.experiment} runs at one Hilbert-space "
                                             f"size, so it cannot sweep {param!r} over sizes")
        if "observable" in reads and self.observable != "random-local":
            for model in models:
                _build_observable(self.observable, model, rng=None)
        return self

    def resolved(self) -> dict:
        """What ``config_hash`` digests: the run as it reads it, once ``validate`` passes.

        An invalid config raises its ConfigError here.  Every field but the
        labels output_path and provenance, in its hash form (:func:`_hash_form`):
        a float where its annotation is ``float``, so ``theta: 0`` and
        ``theta: 0.0``, or ``j: 10`` and ``j: 10.0``, hash alike.  The model is hashed as the run builds it: its kind and the
        knobs the run reads (:func:`_reads`) with their defaults filled in,
        spelled as in the config (``lambda``), less the swept knob and any
        knob the sweep moves (an xxz ``site`` left null under an ``L``
        sweep); for ordered-bloch, which reads only the size, its ``dim``
        alone.  A valid config leaves each field and knob its run does not
        read at its default, so two configs of one experiment whose hashes
        differ differ in a value the run reads.
        """
        self.validate()
        out = {name: _hash_form(hint, getattr(self, name)) for name, hint in _FIELDS.items()
               if name not in ("output_path", "provenance")}
        kind, param, values = self.model["kind"], self.sweep["param"], self.sweep["values"]
        if self.experiment == "ordered-bloch":
            out["model"] = {"dim": _build_model(self.model).dim}
        else:
            built, reads = [vars(_build_model(self.model, (param, v))) for v in values], _reads(self)
            out["model"] = {"kind": kind}
            for key, (name, hint) in _KNOBS[kind].items():
                if key != param and f"model.{key}" in reads and len({b[name] for b in built}) == 1:
                    out["model"][key] = _hash_form(hint, built[0][name])
        hint = _param_type(self)
        out["sweep"] = {"param": param, "values": [_hash_form(hint, v) for v in values]}
        return out

    def config_hash(self) -> str:
        payload = json.dumps(self.resolved(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


# Each config field's annotation, which types its value (_check) and its hash form.
_FIELDS = typing.get_type_hints(ExperimentConfig)


def _param_type(cfg: ExperimentConfig):
    """The annotation of the sweep param of ``cfg``: a knob of its model that its run
    reads, or for ordered-bloch one of ``ORDERED_BLOCH_SWEEPS``.  Raises ConfigError
    for any other param."""
    param, kind, reads = cfg.sweep["param"], cfg.model["kind"], _reads(cfg)
    if cfg.experiment != "ordered-bloch" and param not in _KNOBS[kind]:
        raise ConfigError("sweep.param", f"param {param!r} is not a parameter of {kind}; "
                                         f"known: {sorted(_KNOBS[kind])}")
    sweeps = ORDERED_BLOCH_SWEEPS if cfg.experiment == "ordered-bloch" else {
        key: hint for key, (_, hint) in _KNOBS[kind].items() if f"model.{key}" in reads}
    if param not in sweeps:
        raise ConfigError("sweep.param", f"{cfg.experiment} sweeps one of {tuple(sweeps)}, "
                                         f"got {param!r}")
    return sweeps[param]


def _build_model(model: dict, override: Optional[tuple] = None) -> dynamics.ModelSpec:
    params = dict(model)
    if override is not None:
        params[override[0]] = override[1]
    kind = params.pop("kind")
    try:
        return MODELS[kind](**{_KNOBS[kind][key][0]: value for key, value in params.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError("model", str(exc)) from exc


KNOWN_OBSERVABLES = (
    "J_x", "J_y", "J_z",
    "Sx", "Sy", "Sz",
    "s<i><axis> (e.g. s1y), sums like s2y+s4y",
    "random-local",
)


def _build_observable(name: str, model: dynamics.ModelSpec,
                      rng: Optional[np.random.Generator]) -> np.ndarray:
    """Resolve a named observable for the model's Hilbert space; ``rng`` draws the Haar
    unitary of random-local, and no other name reads it."""
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


def _eval_steps(n_rows: int, stride: int) -> list:
    steps = list(range(stride, n_rows + 1, stride))
    if not steps or steps[-1] != n_rows:
        steps.append(n_rows)
    return steps


class _Sweep:
    """The sweep of one run: its seed streams, its rows and its convergence flag.

    The only code that knows the SeedSequence layout of the module docstring.
    Iterating yields (value, model, rngs) per sweep value, ``rngs`` being that
    value's ``n_states`` cell streams.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.param, self.values = cfg.sweep["param"], cfg.sweep["values"]
        children = np.random.SeedSequence(cfg.seed).spawn(2 + len(self.values) * cfg.n_states)
        self.obs_rng, self.aux_rng, *self.cells = map(np.random.default_rng, children)
        self.rows = _Rows(self.param)
        self.converged = True

    def model(self, value) -> dynamics.ModelSpec:
        return _build_model(self.cfg.model, (self.param, value))

    def __iter__(self):
        n = self.cfg.n_states
        for iv, value in enumerate(self.values):
            yield value, self.model(value), self.cells[iv * n:(iv + 1) * n]

    def fixed_size(self) -> tuple:
        """The first value's model, the basis, the observable, the record length (``steps``,
        or 2 d^2 when 0) and the prefix lengths evaluated, shared by every sweep value."""
        cfg, model = self.cfg, self.model(self.values[0])
        basis = gell_mann_basis(model.dim)
        n_rows = cfg.steps if cfg.steps > 0 else 2 * model.dim ** 2
        observable = _build_observable(cfg.observable, model, self.obs_rng)
        return model, basis, observable, n_rows, _eval_steps(n_rows, cfg.eval_stride)

    def add_fidelities(self, value, run, eval_steps):
        """Mean reconstruction fidelity of a run; the flag notes any projection left unconverged."""
        self.rows.add_means(value, eval_steps, {"fidelity": run.fidelities})
        self.converged &= all(diag.converged for diags in run.results for diag in diags)


def _draw_states(cfg: ExperimentConfig, d: int, rngs) -> list:
    """One reference state per stream in ``rngs``; its record noise comes later from the same stream."""
    if cfg.state == "coherent":
        return [phase_space.spin_coherent((d - 1) / 2.0, cfg.theta, cfg.phi) for _ in rngs]
    return [tomography.haar_random_pure(d, rng) for rng in rngs]


def _records(cfg: ExperimentConfig, expected, rngs) -> list:
    """Each noiseless record with its noise, drawn from the stream that drew its state."""
    return [tomography.generate_record(e, cfg.sigma, rng) for e, rng in zip(expected, rngs)]


def _run_tomo(cfg: ExperimentConfig, sweep: _Sweep):
    _, basis, observable, n_rows, eval_steps = sweep.fixed_size()
    for value, model, rngs in sweep:
        states = _draw_states(cfg, basis.dim, rngs)
        cov, expected, _ = tomography.read_timeline(observable, n_rows,
                                                    tomography.model_step(model), basis, states)
        run = tomography.reconstruct_series(_records(cfg, expected, rngs), cov, basis, states,
                                            eval_steps)
        sweep.rows.add_steps(value, eval_steps,
                             quantifiers.quantifier_series(run.spectra, len(basis)))
        sweep.add_fidelities(value, run, eval_steps)


def _run_perturb(cfg: ExperimentConfig, sweep: _Sweep):
    _, basis, observable, n_rows, eval_steps = sweep.fixed_size()
    # operator metrics compare the timeline entries measured at row n
    at = [n - 1 for n in eval_steps]
    for value, model, rngs in sweep:
        # the record's top kicks with lam + delta_lambda, the estimator's with lam
        u_true = dynamics.build_propagator(replace(model, lam=model.lam + cfg.delta_lambda))
        u_model = dynamics.build_propagator(model)
        states = _draw_states(cfg, basis.dim, rngs)
        _, expected, true_ops = tomography.read_timeline(observable, n_rows, u_true,
                                                         states=states, keep=at)
        cov_model, _, model_ops = tomography.read_timeline(observable, n_rows, u_model, basis,
                                                           keep=at)
        pairs = list(zip(true_ops, model_ops))
        sweep.rows.add_steps(value, eval_steps, {
            "loschmidt_echo": [perturbation.operator_loschmidt_echo(t, m, observable)
                               for t, m in pairs],
            "relative_entropy": [perturbation.operator_relative_entropy(t, m) for t, m in pairs],
            "incompatibility": [perturbation.operator_incompatibility(t, m, j=model.j)
                                for t, m in pairs],
        })
        del true_ops, model_ops, pairs  # the reconstruction reads only the model design
        run = tomography.reconstruct_series(_records(cfg, expected, rngs), cov_model, basis,
                                            states, eval_steps)
        sweep.add_fidelities(value, run, eval_steps)


def _run_krylov(cfg: ExperimentConfig, sweep: _Sweep):
    rows = sweep.rows
    for value, model, _ in sweep:
        observable = _build_observable(cfg.observable, model, sweep.obs_rng)
        if isinstance(model, (dynamics.TiltedIsing, dynamics.XXZChain)):
            h = dynamics.hamiltonian(model)
            kb = krylov.lanczos_full_orth(krylov.liouvillian(h), observable)
            rows.add_steps(value, [0], {"krylov_dim": [kb.dim_k]})
            rows.add_steps(value, range(1, kb.dim_k), {"lanczos_b": kb.lanczos_b})
            if cfg.steps > 0:
                steps = _eval_steps(cfg.steps, cfg.eval_stride)
                phi = krylov.krylov_amplitudes(kb, np.array(steps) * model.dt)
                rows.add_steps(value, steps, {
                    "krylov_complexity": krylov.krylov_complexity(phi),
                    "krylov_entropy": krylov.krylov_entropy(phi),
                })
        else:
            u = dynamics.build_propagator(model)
            rows.add_steps(value, [0], {"krylov_dim": [krylov.arnoldi_unitary_dim(u, observable)]})


def _run_phase_space(cfg: ExperimentConfig, sweep: _Sweep):
    n_steps = cfg.steps if cfg.steps > 0 else 200
    if cfg.mode == "portrait":
        # shared random starts on the unit sphere so panels are comparable
        z0 = sweep.aux_rng.uniform(-1.0, 1.0, cfg.n_trajectories)
        ph0 = sweep.aux_rng.uniform(0.0, 2 * np.pi, cfg.n_trajectories)
        s0 = np.sqrt(1.0 - z0**2)
        for value, model, _ in sweep:
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
            sweep.rows.add_steps(value, range(1, n_steps + 1), columns)
        return
    # husimi mode: Wehrl entropy of the evolved observable
    grid = phase_space.sphere_grid()
    observable = _build_observable(cfg.observable, sweep.model(sweep.values[0]), sweep.obs_rng)
    steps = _eval_steps(n_steps, cfg.eval_stride)
    for value, model, _ in sweep:
        # O_n at the evaluated steps, read one block of the timeline at a time
        kept = tomography.read_timeline(observable, n_steps + 1, dynamics.build_propagator(model),
                                        keep=steps)[2]
        sweep.rows.add_steps(value, steps, {
            "husimi_entropy": [phase_space.husimi_entropy(op, grid) for op in kept]})


def _spectrum_series(observable, n_rows, step, basis, eval_steps) -> dict:
    """Quantifier columns of a timeline's record prefixes, read off singular values alone."""
    cov = tomography.read_timeline(observable, n_rows, step, basis)[0]
    return quantifiers.quantifier_series([cov.truncated(n).singular_values() for n in eval_steps],
                                         len(basis))


def _run_rmt_compare(cfg: ExperimentConfig, sweep: _Sweep):
    metrics = ("shannon", "fisher", "rank")
    base, basis, observable, n_rows, eval_steps = sweep.fixed_size()
    for value, model, _ in sweep:
        series = _spectrum_series(observable, n_rows, tomography.model_step(model), basis,
                                  eval_steps)
        sweep.rows.add_steps(value, eval_steps, {metric: series[metric] for metric in metrics})
    # ensemble baseline, block diagonal in the reflection eigenbasis
    vbasis, block_dims = rmt.reflection_eigenbasis(base.L)
    ens_kind = "COE" if cfg.model["kind"] == "kicked_ising" else "GOE"
    samples = []
    for _ in range(cfg.n_samples):
        mat = rmt.block_diagonal_sample(ens_kind, block_dims, vbasis, sweep.aux_rng)
        # a GOE draw is a Hamiltonian evolved for dt = 1, a COE draw the step itself
        u = dynamics.expm_hermitian(mat) if ens_kind == "GOE" else mat
        samples.append(_spectrum_series(observable, n_rows, u, basis, eval_steps))
    for metric in metrics:
        column = np.array([s[metric] for s in samples], dtype=float)
        sweep.rows.add_means("rmt", eval_steps, {metric: column})


def _run_ordered_bloch(cfg: ExperimentConfig, sweep: _Sweep):
    d = _build_model(cfg.model).dim
    basis = gell_mann_basis(d)
    # every sweep value measures the same states, those of the first value's cells
    states = _draw_states(cfg, d, sweep.cells[:cfg.n_states])
    u_r = rmt.haar_unitary(d, sweep.aux_rng)
    ks = range(1, d * d)  # number of basis elements measured
    for value in sweep.values:
        if sweep.param == "direction":
            per_state = [quantifiers.ordered_bloch_values(np.outer(psi, psi.conj()), basis,
                                                          direction=value) for psi in states]
            sweep.rows.add_means(value, ks, {
                "bloch_value": np.array([part for part, _ in per_state]),
                "fidelity_bound": np.array([bound for _, bound in per_state]),
            })
        else:  # eta sweep: fidelity with a perturbed measured basis
            value = float(value)
            w = perturbation.fractional_unitary_power(u_r, value)
            fid = np.array([quantifiers.ordered_perturbed_fidelity(psi, basis, w)
                            for psi in states])
            sweep.rows.add_means(value, ks, {"fidelity": fid})


# Each experiment: its runner, the model kinds it takes, whether it runs at one
# Hilbert-space size (its runner builds the observable and basis once, for the first
# sweep value), and the config fields it reads besides _ALWAYS_READ, some only under
# a condition (_reads).
_RECORD = ("observable", "steps", "eval_stride")
_STATES = ("n_states", "state", "theta", "phi")
_EXPERIMENTS = {
    "phase-space": (_run_phase_space, ("kicked_top",), True, _RECORD + ("mode", "n_trajectories")),
    "tomo": (_run_tomo, MODEL_KINDS, True, _RECORD + ("sigma",) + _STATES),
    # haar draws a fresh unitary every step, and krylov needs a fixed generator
    "krylov": (_run_krylov, ("kicked_top", "kicked_ising", "tilted_ising", "xxz"), False,
               _RECORD),
    "perturb": (_run_perturb, ("kicked_top",), True,
                _RECORD + ("sigma",) + _STATES + ("delta_lambda",)),
    "rmt-compare": (_run_rmt_compare, ("kicked_ising", "tilted_ising"), True,
                    _RECORD + ("n_samples",)),
    "ordered-bloch": (_run_ordered_bloch, MODEL_KINDS, False, _STATES),
}


def _reads(cfg: ExperimentConfig) -> set:
    """The fields a run of ``cfg`` reads, and the knobs of its model it reads, written
    ``model.<key>``: _ALWAYS_READ, its experiment's fields and every knob of its model
    kind, less those it reads only under a condition that ``cfg`` does not meet.  The
    classical portrait has no ``j``; krylov on a Floquet model gives only the orbit
    dimension, and on a Hamiltonian with steps 0 only the Lanczos coefficients of H,
    so no complexity rows and no ``dt``; ordered-bloch reads only its model's size, the
    first knob of each spec."""
    knobs = tuple(f"model.{key}" for key in _KNOBS[cfg.model["kind"]])
    unread = set() if cfg.state == "coherent" else {"theta", "phi"}
    if cfg.experiment == "phase-space":
        unread |= {"n_trajectories"} if cfg.mode == "husimi" else {"observable", "eval_stride",
                                                                    "model.j"}
    elif cfg.experiment == "krylov" and cfg.model["kind"] not in ("tilted_ising", "xxz"):
        unread |= {"steps", "eval_stride"}
    elif cfg.experiment == "krylov" and cfg.steps == 0:
        unread |= {"eval_stride", "model.dt"}
    elif cfg.experiment == "ordered-bloch":
        unread.update(knobs[1:])
    return set(_ALWAYS_READ + _EXPERIMENTS[cfg.experiment][3] + knobs) - unread


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Validate, dispatch, run, stamp the header, and write the CSV if requested.

    A config error raises ConfigError before any cell runs, and so does an
    output path that names a directory or lies in a directory that does not
    exist.
    """
    config_hash = cfg.config_hash()  # validates
    out = cfg.output_path
    if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
        raise ConfigError("output_path", f"{out!r} is not a file in an existing directory")
    sweep = _Sweep(cfg)
    _EXPERIMENTS[cfg.experiment][0](cfg, sweep)
    header = [
        f"chaostomo {TOOL_VERSION}",
        f"config_hash: {config_hash}",
        f"seed: {cfg.seed}",
        "units: ensemble size N_s = 1; sigma is the per-sample noise spread,"
        " so Fisher information is dimensionless",
    ]
    if cfg.provenance:
        header.insert(3, f"provenance: {cfg.provenance}")
    table = ResultTable(header, sweep.rows.rows, sweep.converged)
    if cfg.output_path:
        table.write(cfg.output_path)
    return table


PRESETS = {
    "fig2.1-phase-space": dict(
        experiment="phase-space", mode="portrait",
        model={"kind": "kicked_top", "alpha": np.pi / 2, "lambda": 0.5},
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
        model={"kind": "tilted_ising", "J": 1.0, "hx": 1.4, "hz": 1.4, "L": 2},
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
        model={"kind": "kicked_top", "j": 20},
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
        model={"kind": "kicked_top", "j": 10},
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
