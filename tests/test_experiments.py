import importlib.util
import sys
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from chaostomo import dynamics, experiments, krylov, quantifiers, tomography
from chaostomo.cli import main
from chaostomo.dynamics import angular_momentum_ops, classical_kicked_top_step
from chaostomo.experiments import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    ResultTable,
    _Rows,
    config_from_preset,
    run_experiment,
)
from chaostomo.rmt import haar_unitary


def series(table, sweep_value: str, metric: str) -> np.ndarray:
    """Mean column of one (formatted sweep value, metric), in step order."""
    return np.array([r[4] for r in table.rows if r[1] == sweep_value and r[3] == metric])


# configs whose every field passes its own check but whose model its spec rejects,
# with the spec call that raises the run's message
_KRYLOV = dict(experiment="krylov", observable="Sz", sweep={"param": "hz", "values": [0.1]})
BAD_MODELS = {
    "L-1": (dict(experiment="tomo", observable="s1y", model={"kind": "kicked_ising", "L": 1},
                 sweep={"param": "hz", "values": [1.4]}), lambda: dynamics.KickedIsing(L=1)),
    "krylov-L-sweep": (dict(_KRYLOV, model={"kind": "tilted_ising"},
                            sweep={"param": "L", "values": [5, 1]}),
                       lambda: dynamics.TiltedIsing(L=1)),
    "site-7-at-L-3": (dict(_KRYLOV, model={"kind": "xxz", "L": 3, "site": 7},
                           sweep={"param": "g", "values": [0.1]}),
                      lambda: dynamics.XXZChain(L=3, site=7)),
    "j-0.3": (dict(experiment="tomo", model={"kind": "kicked_top", "j": 0.3},
                   sweep={"param": "lambda", "values": [3.0]}),
              lambda: dynamics.KickedTop(j=0.3)),
    "dt-negative": (dict(_KRYLOV, model={"kind": "tilted_ising", "dt": -1}, steps=4),
                    lambda: dynamics.TiltedIsing(dt=-1)),
}


def tiny_tomo_config(**over):
    base = dict(
        experiment="tomo",
        model={"kind": "kicked_top", "j": 2, "alpha": np.pi / 2, "lambda": 0.5},
        observable="J_y",
        steps=15,
        sigma=0.1,
        n_states=3,
        sweep={"param": "lambda", "values": [0.5, 7.0]},
        seed=5,
        eval_stride=5,
    )
    base.update(over)
    return ExperimentConfig(**base)


class TestValidation:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            tiny_tomo_config(experiment="nope").validate()

    def test_unknown_model_kind(self):
        with pytest.raises(ConfigError, match="model.kind"):
            tiny_tomo_config(model={"kind": "bogus"}).validate()

    def test_empty_sweep(self):
        with pytest.raises(ConfigError, match="sweep"):
            tiny_tomo_config(sweep={}).validate()

    def test_unknown_observable_lists_names(self):
        cfg = tiny_tomo_config(observable="Qfoo")
        with pytest.raises(ConfigError, match="known"):
            run_experiment(cfg)

    def test_observable_checked_for_every_model_before_any_cell(self, monkeypatch):
        # s3y exists at L=5 but not at L=2; validation finds it before the L=5 Lanczos
        def fail(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(krylov, "lanczos_full_orth", fail)
        cfg = ExperimentConfig(experiment="krylov", observable="s3y",
                               model={"kind": "tilted_ising"},
                               sweep={"param": "L", "values": [5, 2]})
        with pytest.raises(ConfigError, match="field 'observable': unknown observable 's3y'"):
            cfg.validate()
        with pytest.raises(ConfigError, match="'observable'"):
            run_experiment(cfg)

    def test_run_validates_once(self, monkeypatch):
        calls = []
        real = ExperimentConfig.validate

        def counted(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(ExperimentConfig, "validate", counted)
        run_experiment(tiny_tomo_config(n_states=1, steps=5, eval_stride=5))
        assert len(calls) == 1

    @pytest.mark.parametrize("out", ["missing/x.csv", "."], ids=["missing-directory", "directory"])
    def test_bad_output_path_before_any_cell(self, tmp_path, monkeypatch, out):
        def fail(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setitem(experiments._EXPERIMENTS, "tomo",
                            (fail, *experiments._EXPERIMENTS["tomo"][1:]))
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigError, match="config field 'output_path': .* is not a file in an "
                                              "existing directory"):
            run_experiment(tiny_tomo_config(output_path=out))
        assert list(tmp_path.iterdir()) == []

    def test_negative_sigma(self):
        with pytest.raises(ConfigError, match="sigma"):
            tiny_tomo_config(sigma=-1).validate()

    @pytest.mark.parametrize("key", ["lamda", "lam"])
    def test_unknown_model_key(self, key):
        model = {"kind": "kicked_top", "j": 2, "alpha": np.pi / 2, key: 7.0}
        with pytest.raises(ConfigError, match=f"model.{key}"):
            run_experiment(tiny_tomo_config(model=model))

    def test_every_documented_knob_validates(self):
        # the README model table, plus j and L
        knobs = {
            "kicked_top": ["j", "lambda", "alpha"],
            "kicked_ising": ["L", "J", "hx", "hz"],
            "tilted_ising": ["L", "J", "hx", "hz", "dt"],
            "xxz": ["L", "Jxy", "Jzz", "g", "site", "dt"],
            "haar": ["dim", "seed"],
        }
        # krylov rebuilds the model for each sweep value, so it takes every
        # knob as a sweep param, the size knobs included, and dt where it times
        # complexity rows (steps > 0); it rejects haar, whose knobs tomo takes as
        # model keys (its dim sweep is rejected below).  Validation builds each
        # model, and no spec takes one spin or a 1 x 1 space.
        value = {"L": 2, "dim": 2}
        for kind, keys in knobs.items():
            for key in keys:
                experiment, param = ("tomo", "seed") if kind == "haar" else ("krylov", key)
                model = {"kind": kind, key: value.get(key, 1)}
                ExperimentConfig(experiment=experiment, model=model, steps=int(key == "dt"),
                                 sweep={"param": param, "values": [value.get(param, 1)]}).validate()

    def test_model_defaults_are_the_spec_fields(self):
        # the defaults table that experiments.MODELS held, the xxz site at the middle
        assert {kind: experiments._build_model({"kind": kind}) for kind in experiments.MODELS} == {
            "kicked_top": dynamics.KickedTop(j=10, lam=3.0, alpha=np.pi / 2),
            "kicked_ising": dynamics.KickedIsing(L=5, J=1.0, hx=1.4, hz=1.4),
            "tilted_ising": dynamics.TiltedIsing(L=5, J=1.0, hx=1.4, hz=0.1, dt=1.0),
            "xxz": dynamics.XXZChain(L=5, Jxy=1.0, Jzz=1.1, g=0.0, site=3, dt=1.0),
            "haar": dynamics.HaarSteps(dim=8, seed=0),
        }
        assert experiments._build_model({"kind": "xxz", "L": 4}).site == 2

    @pytest.mark.parametrize("case", BAD_MODELS)
    def test_model_rejected_with_its_spec_message(self, case):
        config, spec = BAD_MODELS[case]
        with pytest.raises(ValueError) as want:
            spec()
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**config).validate()
        assert err.value.fieldname == "model"
        assert str(err.value) == f"config field 'model': {want.value}"

    def test_size_sweep_fails_before_its_first_value(self, monkeypatch):
        calls = []
        monkeypatch.setattr(krylov, "lanczos_full_orth", lambda *args: calls.append(args))
        with pytest.raises(ConfigError, match="need at least 2 spins, got L=1"):
            run_experiment(ExperimentConfig(**BAD_MODELS["krylov-L-sweep"][0]))
        assert calls == []

    def test_kindless_ordered_bloch_rejected(self):
        cfg = ExperimentConfig(experiment="ordered-bloch", model={"j": 2}, state="coherent",
                               sweep={"param": "direction", "values": ["descending"]})
        with pytest.raises(ConfigError, match="ordered-bloch takes one of") as err:
            cfg.validate()
        assert err.value.fieldname == "model.kind"

    @pytest.mark.parametrize("name", [*(name for name, hint in experiments._FIELDS.items()
                                         if hint in (int, float)), "provenance"])
    def test_field_types(self, name):
        bad = {int: (1.5, True, "3", -1), float: (True, "0.1", None, float("nan"), np.inf),
               str: (5,)}[experiments._FIELDS[name]]
        for value in bad:
            with pytest.raises(ConfigError, match="must be") as err:
                tiny_tomo_config(**{name: value}).validate()
            assert err.value.fieldname == name

    def test_single_size_sweep_accepted(self):
        # one value keeps one Hilbert-space size, so a fixed-size experiment takes it
        ExperimentConfig(experiment="tomo", observable="Sz", model={"kind": "tilted_ising"},
                         sweep={"param": "L", "values": [3]}).validate()

    def test_knob_types(self):
        for model, sweep, fieldname in [
            ({"kind": "xxz", "L": 3.0}, {"param": "g", "values": [0.1]}, "model.L"),
            ({"kind": "xxz", "site": 1.5}, {"param": "g", "values": [0.1]}, "model.site"),
            ({"kind": "xxz"}, {"param": "site", "values": [None, "2"]}, "sweep.values"),
            ({"kind": "xxz"}, {"param": "g", "values": [0.1, float("inf")]}, "sweep.values"),
            ({"kind": "tilted_ising"}, {"param": "hz", "values": [np.nan]}, "sweep.values"),
            ({"kind": "xxz"}, {"param": "g", "values": 0.5}, "sweep"),
            ({"kind": "xxz"}, {"param": ["g"], "values": [0.5]}, "sweep"),
        ]:
            with pytest.raises(ConfigError) as err:
                ExperimentConfig(experiment="krylov", model=model, sweep=sweep).validate()
            assert err.value.fieldname == fieldname
        # site may be null
        ExperimentConfig(experiment="krylov", model={"kind": "xxz", "site": None},
                         sweep={"param": "g", "values": [0.1]}).validate()
        cfg = ExperimentConfig(experiment="tomo", model={"kind": "haar", "dim": 3},
                               sweep={"param": "seed", "values": [2, -1]})
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            cfg.validate()

    def test_krylov_rejects_haar(self):
        cfg = ExperimentConfig(experiment="krylov", model={"kind": "haar", "dim": 3},
                               observable="J_z", sweep={"param": "seed", "values": [1]})
        with pytest.raises(ConfigError, match="model.kind") as err:
            cfg.validate()
        assert err.value.fieldname == "model.kind"

    @pytest.mark.parametrize("key", ["lamda", "lam"])
    def test_unknown_sweep_param(self, key):
        cfg = tiny_tomo_config(sweep={"param": key, "values": [0.5, 7.0]})
        with pytest.raises(ConfigError, match=f"'{key}'") as err:
            run_experiment(cfg)
        assert err.value.fieldname == "sweep.param"

    @pytest.mark.parametrize("experiment,model,param", [
        ("tomo", {"kind": "tilted_ising", "L": 2}, "L"),
        ("tomo", {"kind": "kicked_top", "j": 2}, "j"),
        ("tomo", {"kind": "haar", "dim": 3}, "dim"),
        ("rmt-compare", {"kind": "kicked_ising", "L": 2}, "L"),
        ("perturb", {"kind": "kicked_top", "j": 2}, "j"),
        ("phase-space", {"kind": "kicked_top", "j": 2}, "j"),
    ])
    def test_size_knob_sweep_rejected(self, experiment, model, param):
        # these runners build the observable and basis for the first value only;
        # phase-space reads j in husimi mode (the classical portrait has none)
        mode = "husimi" if experiment == "phase-space" else "portrait"
        cfg = ExperimentConfig(experiment=experiment, model=model, steps=4, mode=mode,
                               sweep={"param": param, "values": [2, 3]})
        with pytest.raises(ConfigError, match="sweep.param") as err:
            run_experiment(cfg)
        assert err.value.fieldname == "sweep.param" and f"'{param}'" in str(err.value)


# one valid config of each experiment, a field its run does not read set off its
# default, and for a field read only under a condition, the change that meets it
_KT = dict(model={"kind": "kicked_top"}, sweep={"param": "lambda", "values": [3.0]})
_KT2 = {**_KT, "model": {"kind": "kicked_top", "j": 2}}
_TI2 = dict(observable="Sz", model={"kind": "tilted_ising", "L": 2},
            sweep={"param": "hz", "values": [1.4]})
_KI2 = {**_TI2, "model": {"kind": "kicked_ising", "L": 2}}
_OB = dict(model={"kind": "kicked_top", "j": 2}, sweep={"param": "eta", "values": [0.1]})
_COHERENT = {"state": "coherent"}
UNREAD = {
    "phase-space": ("phase-space", _KT, "sigma", 0.5, None),
    "tomo": ("tomo", _KT2, "n_samples", 3, None),
    "krylov": ("krylov", _TI2, "n_states", 3, None),
    "perturb": ("perturb", _KT2, "mode", "husimi", None),
    "rmt-compare": ("rmt-compare", {**_KI2, "observable": "s1y"}, "delta_lambda", 0.1, None),
    "ordered-bloch": ("ordered-bloch", _OB, "steps", 4, None),
    "tomo-haar-theta": ("tomo", _KT2, "theta", 0.5, _COHERENT),
    "perturb-haar-phi": ("perturb", _KT2, "phi", 0.5, _COHERENT),
    "ordered-bloch-haar-theta": ("ordered-bloch", _OB, "theta", 0.5, _COHERENT),
    "husimi-n_trajectories": ("phase-space", {**_KT, "mode": "husimi"}, "n_trajectories", 3,
                              {"mode": "portrait"}),
    "portrait-observable": ("phase-space", _KT, "observable", "J_x", {"mode": "husimi"}),
    "portrait-eval_stride": ("phase-space", _KT, "eval_stride", 2, {"mode": "husimi"}),
    "krylov-floquet-steps": ("krylov", _KI2, "steps", 4, {"model": _TI2["model"]}),
    "krylov-floquet-eval_stride": ("krylov", _KI2, "eval_stride", 2,
                                   {"model": _TI2["model"], "steps": 4}),
    "krylov-steps-0-eval_stride": ("krylov", _TI2, "eval_stride", 2, {"steps": 4}),
}
CONDITIONAL = [case for case, (*_, read_when) in UNREAD.items() if read_when]
# the same for model knobs: a knob the run does not read set off its spec default
_XXZ2 = dict(observable="Sz", model={"kind": "xxz", "L": 2}, sweep={"param": "g", "values": [0.1]})
UNREAD_KNOBS = {
    "portrait-j": ("phase-space", _KT, "j", 2, {"mode": "husimi"}),
    "krylov-steps-0-tilted-dt": ("krylov", _TI2, "dt", 2.0, {"steps": 4}),
    "krylov-steps-0-xxz-dt": ("krylov", _XXZ2, "dt", 2.0, {"steps": 4}),
    "ordered-bloch-lambda": ("ordered-bloch", _OB, "lambda", 7.0, None),
    "ordered-bloch-alpha": ("ordered-bloch", _OB, "alpha", 1.4, None),
    "ordered-bloch-chain-J": ("ordered-bloch", {**_OB, "model": {"kind": "kicked_ising", "L": 2}},
                              "J", 0.5, None),
    "ordered-bloch-xxz-site": ("ordered-bloch", {**_OB, "model": {"kind": "xxz", "L": 2}},
                               "site", 1, None),
    "ordered-bloch-haar-seed": ("ordered-bloch", {**_OB, "model": {"kind": "haar", "dim": 3}},
                                "seed", 1, None),
}


def with_knob(base: dict, key: str, value) -> dict:
    return {**base, "model": {**base["model"], key: value}}


def load_workloads():
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


class TestReadFields:
    @pytest.mark.parametrize("case", UNREAD)
    def test_unread_field_rejected(self, case):
        experiment, base, name, value, _ = UNREAD[case]
        ExperimentConfig(experiment=experiment, **base).validate()
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(experiment=experiment, **base, **{name: value}).validate()
        assert err.value.fieldname == name
        assert str(err.value) == (f"config field '{name}': {experiment} does not read it; "
                                  f"leave it unset")

    @pytest.mark.parametrize("case", CONDITIONAL)
    def test_conditional_field_accepted_where_read(self, case):
        experiment, base, name, value, read_when = UNREAD[case]
        ExperimentConfig(experiment=experiment, **{**base, name: value, **read_when}).validate()

    def test_first_unread_field_in_field_order(self):
        _, base, _, _, _ = UNREAD["krylov"]
        cfg = ExperimentConfig(experiment="krylov", n_samples=3, sigma=0.5, **base)
        with pytest.raises(ConfigError, match="'sigma'"):
            cfg.validate()

    def test_unread_field_at_its_default_accepted(self):
        _, base, _, _, _ = UNREAD["krylov"]
        ExperimentConfig(experiment="krylov", n_states=1, sigma=tomography.DEFAULT_SIGMA,
                         **base).validate()

    def test_lanczos_preset_with_state_fields(self):
        # the same rows as the preset, so it may not carry another config_hash
        with pytest.raises(ConfigError, match="krylov does not read it") as err:
            config_from_preset("fig2.4-lanczos", n_states=3, sigma=0.5).validate()
        assert err.value.fieldname == "sigma"

    def test_every_benchmark_cell_validates(self):
        # a rejected cell would count as a failed benchmark operation; the
        # presets themselves validate in TestPresets
        workloads = load_workloads()
        for cells in workloads.WORKLOADS.values():
            for cell in cells:
                for seed in range(workloads.POOL_SIZE):
                    cell.config(seed)  # validates


class TestReadKnobs:
    @pytest.mark.parametrize("case", UNREAD_KNOBS)
    def test_unread_knob_rejected(self, case):
        experiment, base, key, value, _ = UNREAD_KNOBS[case]
        ExperimentConfig(experiment=experiment, **base).validate()
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(experiment=experiment, **with_knob(base, key, value)).validate()
        assert err.value.fieldname == f"model.{key}"
        assert str(err.value) == (f"config field 'model.{key}': {experiment} does not read it; "
                                  f"leave it unset")

    @pytest.mark.parametrize("case", [case for case, (*_, when) in UNREAD_KNOBS.items() if when])
    def test_conditional_knob_accepted_where_read(self, case):
        experiment, base, key, value, read_when = UNREAD_KNOBS[case]
        ExperimentConfig(experiment=experiment, **with_knob(base, key, value),
                         **read_when).validate()

    @pytest.mark.parametrize("name,key,value", [("fig2.4-lanczos", "dt", 2.0),
                                                ("fig2.1-phase-space", "j", 20)])
    def test_preset_with_unread_knob(self, name, key, value):
        # the preset's rows, so it may not carry another config_hash; at the
        # spec default the knob is accepted and not hashed
        with pytest.raises(ConfigError, match="does not read it") as err:
            config_from_preset(name, model={**PRESETS[name]["model"], key: value}).validate()
        assert err.value.fieldname == f"model.{key}"
        default = getattr(experiments.MODELS[PRESETS[name]["model"]["kind"]], key)
        cfg = config_from_preset(name, model={**PRESETS[name]["model"], key: default}).validate()
        assert cfg.config_hash() == PRESET_HASHES[name]

    @pytest.mark.parametrize("experiment,base,param", [
        ("phase-space", _KT, "j"),
        ("krylov", _TI2, "dt"),
        ("krylov", _XXZ2, "dt"),
        ("ordered-bloch", _OB, "lambda"),
    ])
    def test_unread_knob_sweep_rejected(self, experiment, base, param):
        cfg = ExperimentConfig(experiment=experiment, **{**base, "sweep": {
            "param": param, "values": [2.0, 3.0]}})
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert err.value.fieldname == "sweep.param"
        assert str(err.value).endswith(f", got {param!r}")

    def test_ordered_bloch_hashes_its_size_only(self):
        # the same rows from every model of one dim: the measured states and
        # the perturbing unitary draw only on d
        def run(model):
            cfg = ExperimentConfig(experiment="ordered-bloch", model=model,
                                   sweep={"param": "eta", "values": [0.1]}).validate()
            return cfg.config_hash(), run_experiment(cfg).to_csv()

        (hash_a, csv_a), (hash_b, csv_b) = run({"kind": "haar", "dim": 5}), run(
            {"kind": "kicked_top", "j": 2})
        assert hash_a == hash_b and csv_a == csv_b
        assert run({"kind": "kicked_top", "j": 3})[0] != hash_a


class TestDeterminism:
    def test_identical_bytes(self):
        a = run_experiment(tiny_tomo_config()).to_csv()
        b = run_experiment(tiny_tomo_config()).to_csv()
        assert a == b

    def test_seed_changes_noise_not_schema(self):
        a = run_experiment(tiny_tomo_config())
        b = run_experiment(tiny_tomo_config(seed=6))
        assert [r[:4] for r in a.rows] == [r[:4] for r in b.rows]
        assert a.to_csv() != b.to_csv()

    def test_seed_independent_means(self):
        # two disjoint seeds agree within 3 combined standard errors
        a = run_experiment(tiny_tomo_config(n_states=12, seed=1))
        b = run_experiment(tiny_tomo_config(n_states=12, seed=2))

        def final_fid(table):
            rows = [r for r in table.rows if r[3] == "fidelity" and r[1] == "7" and r[2] == 15]
            assert len(rows) == 1
            return rows[0][4], rows[0][5]

        (ma, sa), (mb, sb) = final_fid(a), final_fid(b)
        assert abs(ma - mb) <= 3 * np.hypot(sa, sb)


class TestTable:
    def test_header_and_schema(self, tmp_path):
        cfg = tiny_tomo_config(output_path=str(tmp_path / "out.csv"))
        table = run_experiment(cfg)
        text = (tmp_path / "out.csv").read_text()
        lines = text.splitlines()
        assert lines[0].startswith("# chaostomo ")
        assert any(l.startswith("# config_hash: ") for l in lines[:5])
        assert any(l == "# seed: 5" for l in lines[:5])
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "sweep_param,sweep_value,step,metric,mean,stderr,n"
        assert len(lines) == header_idx + 1 + len(table.rows)
        assert text.endswith("\n")

    def test_series_helper(self):
        table = run_experiment(tiny_tomo_config())
        fid = series(table, "7", "fidelity")
        assert len(fid) == 3  # eval steps 5, 10, 15
        assert np.all((fid >= 0) & (fid <= 1))


class OldRows(_Rows):
    """The row emitter that formatted the sweep label once per row."""

    def add(self, value, step, metric, mean, stderr=0.0, count=1):
        label = format(value, ".10g") if isinstance(value, float) else str(value)
        self.rows.append((self.param, label, step, metric, mean, stderr, count))

    def add_steps(self, value, steps, columns):
        for i, step in enumerate(steps):
            for metric, column in columns.items():
                self.add(value, step, metric, column[i])

    def add_means(self, value, steps, columns):
        for i, step in enumerate(steps):
            for metric, samples in columns.items():
                self.add(value, step, metric,
                         *experiments._mean_stderr(samples[:, i]), len(samples))


def old_to_csv(table):
    """ResultTable.to_csv as it formatted every field of every row."""
    lines = [f"# {h}" for h in table.header]
    lines.append("sweep_param,sweep_value,step,metric,mean,stderr,n")
    for sweep_param, sweep_value, step, metric, mean, stderr, n in table.rows:
        lines.append(
            f"{sweep_param},{sweep_value},{step},{metric},"
            f"{format(float(mean), '.10g')},{format(float(stderr), '.10g')},{n}"
        )
    return "\n".join(lines) + "\n"


class TestRowEmitter:
    """Rows and CSV bytes against the per-row emitter they replaced."""

    @pytest.mark.parametrize("case", ["fig2.1", "tomo", "ordered-bloch"])
    def test_csv_matches_old_emitter(self, case, monkeypatch):
        if case == "fig2.1":
            cfg = config_from_preset("fig2.1-phase-space")
        elif case == "tomo":
            cfg = tiny_tomo_config()
        else:
            cfg = ExperimentConfig(
                experiment="ordered-bloch", state="haar", n_states=3, seed=3,
                model={"kind": "kicked_top", "j": 2},
                sweep={"param": "direction", "values": ["descending", "ascending"]})
        table = run_experiment(cfg)
        with monkeypatch.context() as m:
            m.setattr(experiments, "_Rows", OldRows)
            old = run_experiment(cfg)
        assert table.rows == old.rows
        assert table.to_csv() == old_to_csv(old)
        if case == "tomo":
            assert any(r[5] > 0 for r in table.rows)
        if case == "ordered-bloch":
            assert {r[1] for r in table.rows} == {"descending", "ascending"}

    def test_labels_and_signed_zeros(self):
        values = [-0.0, 0.0, 0.5, 1e-20, np.float64(2.5), 3, np.int64(4), "rmt"]
        column = [0.0, -0.0, np.float64(-0.0), 7, np.int64(-2), 1.25e300, float("nan")]
        samples = np.array([[1.0, -0.0, 2.0], [1.0, -0.0, 2.5]])
        new, old = _Rows("p"), OldRows("p")
        for rows in (new, old):
            for v in values:
                rows.add_steps(v, [0], {"scalar": [-0.0]})
                rows.add_steps(v, range(1, len(column) + 1), {"a": column, "b": column[::-1]})
                rows.add_means(v, [1, 2, 3], {"m": samples, "one": samples[:1]})
        assert new.rows == old.rows
        assert ResultTable(["h"], new.rows).to_csv() == old_to_csv(ResultTable(["h"], old.rows))


# config_hash of every preset, recorded when the hash payload became the model
# knobs each run reads, as it builds them: a change here re-labels every CSV a
# preset has written
PRESET_HASHES = {
    "fig2.1-phase-space": "51e7bf45adc8ff31",
    "fig2.3-krylov-complexity": "b382bbf3439f2e91",
    "fig2.4-lanczos": "11fda35e99592f4f",
    "fig3.1-coherent": "467093648c2aa2c3",
    "fig3.1-random": "868d530fd82b278c",
    "fig3.3-ordered-bloch": "87b6272cbfcdffc9",
    "fig3.6-husimi": "665efdce423e2a00",
    "fig4.2-tki-quantifiers": "a1f4216737d8f5c6",
    "fig4.6-rmt-compare": "f77fb38268d2305f",
    "fig4.8-xxz": "a9c48b923be20c82",
    "fig5.2-perturb": "a58cd8a568b75f25",
    "fig5.3-perturbed-basis": "c57739a152e10600",
}


class TestConfigHash:
    def test_preset_hashes_unchanged(self):
        assert {name: config_from_preset(name).config_hash() for name in PRESETS} == PRESET_HASHES

    def test_every_field_but_labels_enters_hash(self):
        # each field moved, one at a time, in a valid config of a run that reads it
        haar, coherent = tiny_tomo_config(), tiny_tomo_config(state="coherent")
        perturb = tiny_tomo_config(experiment="perturb")
        rmt = ExperimentConfig(experiment="rmt-compare", model={"kind": "kicked_ising", "L": 2},
                               sweep={"param": "hz", "values": [0.0]})
        portrait = ExperimentConfig(experiment="phase-space", model={"kind": "kicked_top"},
                                    sweep={"param": "lambda", "values": [0.5]})
        moves = {
            "experiment": (haar, "perturb"), "model": (haar, {**haar.model, "j": 3}),
            "observable": (haar, "J_x"), "steps": (haar, 16), "sigma": (haar, 0.2),
            "n_states": (haar, 4), "sweep": (haar, {"param": "lambda", "values": [0.5]}),
            "seed": (haar, 6), "output_path": (haar, "elsewhere.csv"), "eval_stride": (haar, 6),
            "state": (haar, "coherent"), "theta": (coherent, 1.0), "phi": (coherent, 1.0),
            "delta_lambda": (perturb, 0.02), "n_samples": (rmt, 11),
            "n_trajectories": (portrait, 21), "mode": (portrait, "husimi"),
            "provenance": (haar, "a note"),
        }
        assert moves.keys() == {f.name for f in fields(ExperimentConfig)}
        for name, (base, value) in moves.items():
            other = ExperimentConfig(**{**base.__dict__, name: value})
            same = name in ("output_path", "provenance")
            assert (other.config_hash() == base.config_hash()) == same, name

    @pytest.mark.parametrize("over,fieldname", [
        (dict(experiment="tomo-other"), "experiment"),
        (dict(model={"j": 2}), "model.kind"),
    ], ids=["unknown-experiment", "no-kind"])
    def test_hash_of_invalid_config_raises(self, over, fieldname):
        # config_hash validates first, so a config never validated gets no bare KeyError
        with pytest.raises(ConfigError) as err:
            tiny_tomo_config(**over).config_hash()
        assert err.value.fieldname == fieldname

    def test_hash_reads_the_built_model(self):
        # each gives the preset's rows: a knob left to its default, the swept knob's
        # model value left out, a site left null, and for ordered-bloch, which reads
        # only the size, another model kind of the same dim
        def digest(name, **model):
            return ExperimentConfig(**{**PRESETS[name], "model": model}).validate().config_hash()

        def preset_model(name, *dropped):
            return {k: v for k, v in PRESETS[name]["model"].items() if k not in dropped}

        for name, model in [
            ("fig4.2-tki-quantifiers", preset_model("fig4.2-tki-quantifiers", "J")),
            ("fig4.8-xxz", preset_model("fig4.8-xxz", "g")),
            ("fig4.8-xxz", {**preset_model("fig4.8-xxz"), "site": None}),
            ("fig5.3-perturbed-basis", {"kind": "haar", "dim": 21}),
        ]:
            assert digest(name, **model) == PRESET_HASHES[name], (name, model)
        # a site the sweep moves is not the site of its first value
        moved = dict(experiment="krylov", observable="Sz", sweep={"param": "L", "values": [4, 5]})
        assert (ExperimentConfig(**moved, model={"kind": "xxz"}).validate().config_hash()
                != ExperimentConfig(**moved, model={"kind": "xxz", "site": 2}).validate()
                .config_hash())

    def test_real_values_hash_as_floats(self):
        # an int where a real is read hashes as its float, the kicked top's j included
        def digest(**over):
            return tiny_tomo_config(state="coherent", **over).config_hash()

        assert digest(theta=2, sigma=0) == digest(theta=2.0, sigma=0.0)
        assert (digest(model={"kind": "kicked_top", "j": 2, "alpha": 1, "lambda": 0})
                == digest(model={"kind": "kicked_top", "j": 2, "alpha": 1.0, "lambda": 0.0}))
        assert (digest(sweep={"param": "lambda", "values": [7]})
                == digest(sweep={"param": "lambda", "values": [7.0]}))
        assert (digest(model={"kind": "kicked_top", "j": 2})
                == digest(model={"kind": "kicked_top", "j": 2.0}))


class TestPresets:
    def test_minimum_count_and_required_entries(self):
        assert len(PRESETS) >= 8
        assert "fig2.1-phase-space" in PRESETS
        lam = PRESETS["fig2.1-phase-space"]["sweep"]["values"]
        assert lam == [0.5, 2.5, 3.0, 6.5]
        assert "fig4.8-xxz" in PRESETS
        gs = PRESETS["fig4.8-xxz"]["sweep"]["values"]
        assert gs == [0.0, 0.16, 0.94]

    def test_every_preset_has_provenance(self):
        for name, params in PRESETS.items():
            assert params.get("provenance"), f"{name} lacks provenance"
            config_from_preset(name).validate()

    def test_coherent_preset_parameters(self):
        cfg = PRESETS["fig3.1-coherent"]
        assert cfg["model"]["j"] == 20
        assert cfg["theta"] == 2.04 and cfg["phi"] == 2.42

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            config_from_preset("fig99-nothing")


class TestSmallRuns:
    def test_krylov_experiment(self):
        cfg = ExperimentConfig(
            experiment="krylov",
            model={"kind": "tilted_ising", "J": 1.0, "hx": 1.4, "hz": 1.4, "L": 2},
            observable="s1y",
            sweep={"param": "L", "values": [2]},
            seed=0,
        )
        table = run_experiment(cfg)
        dims = [r for r in table.rows if r[3] == "krylov_dim"]
        assert dims[0][4] == 12
        bs = [r for r in table.rows if r[3] == "lanczos_b"]
        assert len(bs) == 11

    def test_krylov_floquet_route(self):
        cfg = ExperimentConfig(
            experiment="krylov",
            model={"kind": "kicked_ising", "J": 1.0, "hx": 1.4, "hz": 1.4, "L": 2},
            observable="s1y",
            sweep={"param": "L", "values": [2]},
            seed=0,
        )
        table = run_experiment(cfg)
        assert table.rows[0][3] == "krylov_dim" and table.rows[0][4] == 13

    def test_phase_space_portrait(self):
        cfg = ExperimentConfig(
            experiment="phase-space",
            model={"kind": "kicked_top", "alpha": np.pi / 2, "lambda": 0.5},
            sweep={"param": "lambda", "values": [0.5, 6.5]},
            steps=50,
            n_trajectories=5,
            seed=1,
        )
        table = run_experiment(cfg)
        thetas = [r for r in table.rows if r[3] == "theta.00"]
        assert len(thetas) == 100  # 2 sweep values x 50 steps
        assert all(0 <= r[4] <= np.pi for r in thetas)

    def test_portrait_rows_match_scalar_loop(self):
        # the fig2.1 preset against the one-trajectory-at-a-time loop the
        # runner used before it went array-at-a-time
        cfg = config_from_preset("fig2.1-phase-space")
        aux_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[1])
        z0 = aux_rng.uniform(-1.0, 1.0, cfg.n_trajectories)
        ph0 = aux_rng.uniform(0.0, 2 * np.pi, cfg.n_trajectories)
        s0 = np.sqrt(1.0 - z0**2)
        want = []
        for value in cfg.sweep["values"]:
            label = format(value, ".10g")
            x, y, z = s0 * np.cos(ph0), s0 * np.sin(ph0), z0.copy()
            for n in range(1, cfg.steps + 1):
                x, y, z = classical_kicked_top_step(x, y, z, value, cfg.model["alpha"])
                for t in range(cfg.n_trajectories):
                    want.append(("lambda", label, n, f"theta.{t:02d}",
                                 float(np.arccos(np.clip(z[t], -1, 1))), 0.0, 1))
                    want.append(("lambda", label, n, f"phi.{t:02d}",
                                 float(np.mod(np.arctan2(y[t], x[t]), 2 * np.pi)), 0.0, 1))
        assert run_experiment(cfg).rows == want

    def test_ordered_bloch_directions(self):
        cfg = ExperimentConfig(
            experiment="ordered-bloch",
            model={"kind": "kicked_top", "j": 3},
            state="haar",
            n_states=4,
            sweep={"param": "direction", "values": ["descending", "ascending"]},
            seed=3,
        )
        table = run_experiment(cfg)
        down = series(table, "descending", "bloch_value")
        up = series(table, "ascending", "bloch_value")
        assert np.all(down >= up - 1e-12)

    def test_perturb_small(self):
        cfg = ExperimentConfig(
            experiment="perturb",
            model={"kind": "kicked_top", "j": 2, "alpha": 1.4, "lambda": 3.0},
            observable="random-local",
            steps=12,
            sigma=0.1,
            n_states=2,
            delta_lambda=0.01,
            sweep={"param": "lambda", "values": [3.0]},
            seed=2,
            eval_stride=4,
        )
        table = run_experiment(cfg)
        metrics = {r[3] for r in table.rows}
        assert {"fidelity", "loschmidt_echo", "relative_entropy", "incompatibility"} <= metrics
        echo = series(table, "3", "loschmidt_echo")
        assert np.all(np.abs(echo) <= 1 + 1e-10)

    def test_random_local_kicked_top_same_in_tomo_and_perturb(self, monkeypatch):
        # J_x under a Haar unitary, the unitary being the first draw of the observable stream
        built = []
        real = experiments._build_observable

        def record(name, *args):
            out = real(name, *args)
            if name == "random-local":
                built.append(out)
            return out

        monkeypatch.setattr(experiments, "_build_observable", record)
        base = dict(model={"kind": "kicked_top", "j": 2, "alpha": 1.4, "lambda": 3.0},
                    observable="random-local", steps=6, eval_stride=3, seed=9,
                    sweep={"param": "lambda", "values": [3.0]})
        for experiment in ("tomo", "perturb"):
            run_experiment(ExperimentConfig(experiment=experiment, **base))
        tomo_obs, perturb_obs = built
        obs_rng = np.random.default_rng(np.random.SeedSequence(9).spawn(2)[0])
        w = haar_unitary(5, obs_rng)
        assert np.array_equal(tomo_obs, perturb_obs)
        assert np.array_equal(tomo_obs, w.conj().T @ angular_momentum_ops(2)[0] @ w)

    def test_perturb_coherent_state(self):
        # the record and the fidelity reference come from the configured state
        base = dict(
            experiment="perturb",
            model={"kind": "kicked_top", "j": 2, "alpha": 1.4, "lambda": 3.0},
            observable="J_y", steps=12, n_states=2, eval_stride=4,
            sweep={"param": "lambda", "values": [3.0]}, seed=2,
        )
        state = dict(state="coherent", theta=2.04, phi=2.42)
        haar = run_experiment(ExperimentConfig(**base, state="haar"))
        coherent = run_experiment(ExperimentConfig(**base, **state))
        operator_rows = [r for r in haar.rows if r[3] != "fidelity"]
        assert operator_rows == [r for r in coherent.rows if r[3] != "fidelity"]
        assert not np.allclose(series(haar, "3", "fidelity"), series(coherent, "3", "fidelity"))
        # at delta_lambda = 0 the mismatched run is the ideal run, record for record
        tomo = run_experiment(ExperimentConfig(**{**base, "experiment": "tomo"}, **state))
        unperturbed = run_experiment(ExperimentConfig(**base, **state, delta_lambda=0.0))
        assert np.array_equal(series(tomo, "3", "fidelity"), series(unperturbed, "3", "fidelity"))

    @pytest.mark.parametrize("cfg,metric", [
        (dict(experiment="tomo", model={"kind": "kicked_top", "j": 1}, steps=4,
              sweep={"param": "lambda", "values": [1]}), "shannon"),
        (dict(experiment="rmt-compare", observable="s1y", model={"kind": "kicked_ising", "L": 2},
              n_samples=2, sweep={"param": "hz", "values": [1.4]}), "shannon"),
        (dict(experiment="krylov", observable="Sz", model={"kind": "xxz", "L": 3}, steps=3,
              sweep={"param": "g", "values": [0.0]}), "krylov_entropy"),
    ], ids=["tomo", "rmt-compare", "krylov"])
    def test_zero_entropy_written_0(self, cfg, metric):
        # all the weight in one direction: the first prefix of a record, or Sz, which
        # the XXZ chain conserves at g = 0; the CSV says 0, not -0
        table = run_experiment(ExperimentConfig(**cfg))
        zeros = [r for r in table.rows if r[3] == metric and r[4] == 0.0]
        assert zeros and not any(np.signbit(r[4]) for r in zeros)
        assert f",{metric},-0," not in table.to_csv()

    def test_chain_random_local_observable(self, monkeypatch):
        # fig4.6's observable: s1y / 2 under a Haar unitary on site 1, drawn from the
        # observable stream (child 0) alone
        built = []

        def build(name, model, rng):
            built.append(real(name, model, rng))
            return built[-1]

        real = experiments._build_observable
        monkeypatch.setattr(experiments, "_build_observable", build)
        cfg = ExperimentConfig(experiment="rmt-compare", observable="random-local", seed=4,
                               model={"kind": "kicked_ising", "L": 3}, n_samples=1, steps=8,
                               sweep={"param": "hz", "values": [1.4]})
        run_experiment(cfg)
        op = built[0]
        assert np.allclose(op, op.conj().T, rtol=0, atol=1e-15)
        assert np.allclose(np.linalg.eigvalsh(op), [-0.5] * 4 + [0.5] * 4, atol=1e-12)
        obs_rng = np.random.default_rng(np.random.SeedSequence(4).spawn(3)[0])
        w = np.kron(haar_unitary(2, obs_rng), np.eye(4))
        assert np.array_equal(op, w.conj().T @ (dynamics.pauli_site("y", 1, 3) / 2.0) @ w)
        # more ensemble samples draw more from the auxiliary stream, not this one
        run_experiment(ExperimentConfig(**{**cfg.__dict__, "n_samples": 3}))
        assert np.array_equal(built[1], op)

    def test_rmt_compare_tilted_ising(self):
        # the GOE baseline, each draw evolved for dt = 1 by expm_hermitian
        cfg = dict(experiment="rmt-compare", observable="s1y", n_samples=2, steps=20,
                   eval_stride=10, model={"kind": "tilted_ising", "L": 2},
                   sweep={"param": "hz", "values": [0.5]}, seed=3)
        table = run_experiment(ExperimentConfig(**cfg))
        assert table.to_csv() == run_experiment(ExperimentConfig(**cfg)).to_csv()
        ensemble = [r for r in table.rows if r[1] == "rmt"]
        assert [(r[2], r[3]) for r in ensemble] == [
            (n, m) for m in ("shannon", "fisher", "rank") for n in (10, 20)]
        assert all(np.isfinite(r[4]) and r[6] == 2 for r in ensemble)

    def test_stride_that_does_not_divide_the_record(self):
        # the full record is the last prefix, evaluated once
        assert experiments._eval_steps(10, 4) == [4, 8, 10]
        assert experiments._eval_steps(10, 5) == [5, 10]
        assert experiments._eval_steps(3, 7) == [3]
        table = run_experiment(tiny_tomo_config(steps=14, eval_stride=4))
        assert sorted({r[2] for r in table.rows}) == [4, 8, 12, 14]


class TestDecompositionCalls:
    """Singular vectors are computed nowhere: a prefix takes one least-squares solve (LAPACK
    gelsd, an SVD-based solve) or a values-only SVD."""

    @staticmethod
    def count(monkeypatch) -> dict:
        calls = {"full": 0, "values": 0, "solves": 0}
        svd, lstsq = np.linalg.svd, np.linalg.lstsq

        def counting(a, *args, compute_uv=True, **kwargs):
            calls["full" if compute_uv else "values"] += 1
            return svd(a, *args, compute_uv=compute_uv, **kwargs)

        def solving(*args, **kwargs):
            calls["solves"] += 1
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        monkeypatch.setattr(np.linalg, "lstsq", solving)
        return calls

    def test_rmt_compare_takes_values_only(self, monkeypatch):
        calls = self.count(monkeypatch)
        run_experiment(ExperimentConfig(
            experiment="rmt-compare", observable="s1y", model={"kind": "kicked_ising", "L": 3},
            sweep={"param": "hz", "values": [0.4, 1.4]}, steps=80, eval_stride=20, n_samples=2))
        # 2 sweep values and 2 ensemble samples, 4 prefixes each
        assert calls == {"full": 0, "values": 16, "solves": 0}

    def test_tomo_takes_one_solve_per_prefix(self, monkeypatch):
        calls = self.count(monkeypatch)
        run_experiment(tiny_tomo_config())
        # 2 sweep values, prefixes 5, 10 and 15; the quantifiers reuse the solves' values
        assert calls == {"full": 0, "values": 0, "solves": 6}

    @pytest.mark.parametrize("experiment", ["tomo", "perturb"])
    def test_states_share_each_prefix_solve(self, experiment, monkeypatch):
        calls = self.count(monkeypatch)
        run_experiment(streamed_config(experiment))
        # 2 states, 2 sweep values, prefixes 4, 8 and 12: one solve each
        assert calls == {"full": 0, "values": 0, "solves": 6}


def streamed_config(experiment: str) -> ExperimentConfig:
    """Two states, two sweep values and three record prefixes, ideal or mismatched."""
    return ExperimentConfig(
        experiment=experiment, model={"kind": "kicked_top", "j": 2, "alpha": 1.4, "lambda": 3.0},
        observable="J_y", steps=12, sigma=0.1, n_states=2, eval_stride=4, seed=2,
        sweep={"param": "lambda", "values": [3.0, 7.0]})


class TestSeedLayout:
    """Child 2 + iv * n_states + i of the config seed draws repetition i at sweep value iv.

    The small preset recipes run one state, where a transposed layout gives the same child."""

    @staticmethod
    def cell_states(seed: int, d: int, n_cells: int) -> list:
        children = np.random.SeedSequence(seed).spawn(2 + n_cells)[2:]
        return [tomography.haar_random_pure(d, np.random.default_rng(c)) for c in children]

    @staticmethod
    def capture(monkeypatch, owner, name: str, position: int) -> list:
        """Record argument ``position`` of every call of ``owner.name``."""
        seen, real = [], getattr(owner, name)

        def recording(*args):
            seen.append(args[position])
            return real(*args)

        monkeypatch.setattr(owner, name, recording)
        return seen

    @pytest.mark.parametrize("experiment", ["tomo", "perturb"])
    def test_state_of_each_cell(self, experiment, monkeypatch):
        received = self.capture(monkeypatch, tomography, "reconstruct_series", 3)
        cfg = streamed_config(experiment)
        cfg.n_states = 3
        run_experiment(cfg)
        # the fidelity references of value iv are children 2 + 3 iv ... 2 + 3 iv + 2
        want = self.cell_states(cfg.seed, 5, 2 * 3)
        got = [psi for states in received for psi in states]
        assert len(received) == 2 and len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_ordered_bloch_same_states_at_every_value(self, monkeypatch):
        seen = self.capture(monkeypatch, quantifiers, "ordered_perturbed_fidelity", 0)
        run_experiment(ExperimentConfig(
            experiment="ordered-bloch", model={"kind": "kicked_top", "j": 1}, state="haar",
            n_states=2, seed=4, sweep={"param": "eta", "values": [0.0, 0.1, 0.2]}))
        first = self.cell_states(4, 3, 2)
        assert len(seen) == 3 * 2
        assert all(np.array_equal(psi, first[k % 2]) for k, psi in enumerate(seen))


class TestStreaming:
    """A cell holds one prefix's solve and shrink at a time, and no timeline."""

    @staticmethod
    def at_each_solve(monkeypatch, probe) -> list:
        """Record ``probe()`` at every least-squares solve, before it runs."""
        seen = []
        lstsq = np.linalg.lstsq

        def probing(*args, **kwargs):
            seen.append(probe())
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", probing)
        return seen

    @pytest.mark.parametrize("experiment", ["tomo", "perturb"])
    def test_prefix_shrink_released_before_next_solve(self, experiment, monkeypatch):
        shrinks = []
        quadratic = tomography._quadratic

        def tracking(cov, r_ml):
            out = quadratic(cov, r_ml)
            shrinks.append(weakref.ref(cov._shrink))
            return out

        monkeypatch.setattr(tomography, "_quadratic", tracking)
        alive = self.at_each_solve(monkeypatch, lambda: sum(ref() is not None for ref in shrinks))
        run_experiment(streamed_config(experiment))
        assert shrinks and len(alive) == 6 and max(alive) == 0

    @staticmethod
    def track_blocks(monkeypatch) -> list:
        """Weak references to every block the timeline recurrence yields."""
        refs = []
        stream = dynamics.timeline_blocks

        def tracking(*args, **kwargs):
            for block in stream(*args, **kwargs):
                refs.append(weakref.ref(block))
                yield block

        for owner in (dynamics, tomography):
            monkeypatch.setattr(owner, "timeline_blocks", tracking)
        return refs

    @pytest.mark.parametrize("experiment", ["tomo", "perturb"])
    def test_timeline_released_before_decomposing(self, experiment, monkeypatch):
        blocks = self.track_blocks(monkeypatch)
        dead = self.at_each_solve(monkeypatch, lambda: [ref() is None for ref in blocks])
        run_experiment(streamed_config(experiment))
        # one block per timeline: 2 sweep values, and perturb reads two timelines each
        assert len(blocks) == (2 if experiment == "tomo" else 4)
        assert len(dead) == 6 and all(all(flags) for flags in dead)

    @pytest.mark.parametrize("cfg", [
        dict(experiment="tomo", model={"kind": "kicked_top", "j": 2, "lambda": 3.0},
             sweep={"param": "lambda", "values": [3.0]}, n_states=2),
        dict(experiment="tomo", model={"kind": "haar", "dim": 5, "seed": 1},
             sweep={"param": "seed", "values": [1]}),
        dict(experiment="perturb", model={"kind": "kicked_top", "j": 2, "lambda": 3.0},
             sweep={"param": "lambda", "values": [3.0]}, n_states=2),
        dict(experiment="rmt-compare", observable="s1y", model={"kind": "kicked_ising", "L": 2},
             sweep={"param": "hz", "values": [1.4]}, n_samples=1),
        dict(experiment="phase-space", mode="husimi", model={"kind": "kicked_top", "j": 2},
             sweep={"param": "lambda", "values": [3.0]}),
    ], ids=["tomo", "tomo-haar", "perturb", "rmt-compare", "husimi"])
    def test_no_stack_of_the_timeline(self, cfg, monkeypatch):
        # 200 rows span three blocks; no runner collects the timeline into one stack
        blocks = self.track_blocks(monkeypatch)
        sizes = []
        empty = np.empty

        def watching(shape, *args, **kwargs):
            sizes.append(shape[0] if isinstance(shape, tuple) and len(shape) == 3 else 0)
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", watching)
        for owner in (dynamics, tomography):
            monkeypatch.setattr(owner, "heisenberg_timeline", None)
        run_experiment(ExperimentConfig(steps=200, eval_stride=100, seed=3, **cfg))
        assert len(blocks) >= 3 and max(sizes) < 2 * dynamics.TIMELINE_BLOCK


class TestCli:
    def test_run_with_config_file(self, tmp_path):
        cfg = {
            "experiment": "tomo",
            "model": {"kind": "kicked_top", "j": 2, "alpha": 1.0, "lambda": 2.0},
            "observable": "J_y",
            "steps": 8,
            "sigma": 0.1,
            "n_states": 2,
            "sweep": {"param": "lambda", "values": [2.0]},
            "seed": 4,
            "eval_stride": 4,
        }
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "res.csv"
        result = CliRunner().invoke(main, ["run", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert out.exists()

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"experiment": "tomo", "model": {"kind": "nope"},
                                        "sweep": {"param": "x", "values": [1]}}))
        result = CliRunner().invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("model,param", [
        ({"kind": "kicked_top", "j": 2, "lambda": 2.0, "lamda": 7.0}, "lambda"),
        ({"kind": "kicked_top", "j": 2, "lambda": 2.0}, "lam"),
    ])
    def test_unknown_model_key_exit_code(self, tmp_path, model, param):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"experiment": "tomo", "model": model, "steps": 4,
                                        "sweep": {"param": param, "values": [0.5, 7.0]}}))
        result = CliRunner().invoke(main, ["run", "--config", str(path),
                                           "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2
        assert "lam" in result.output
        assert not (tmp_path / "o.csv").exists()

    def test_size_knob_sweep_exit_code(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({
            "experiment": "tomo", "observable": "Sz", "steps": 4,
            "model": {"kind": "tilted_ising", "L": 2},
            "sweep": {"param": "L", "values": [2, 3]}}))
        result = CliRunner().invoke(main, ["run", "--config", str(path),
                                           "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2
        assert "sweep.param" in result.output
        assert not (tmp_path / "o.csv").exists()

    def test_krylov_on_haar_exit_code(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({
            "experiment": "krylov", "observable": "J_z",
            "model": {"kind": "haar", "dim": 3},
            "sweep": {"param": "seed", "values": [1]}}))
        result = CliRunner().invoke(main, ["run", "--config", str(path),
                                           "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2
        assert "model.kind" in result.output
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("cfg,fieldname", [
        ({"experiment": "perturb", "observable": "Sz", "model": {"kind": "tilted_ising", "L": 2},
          "sweep": {"param": "hz", "values": [0.1]}}, "model.kind"),
        ({"experiment": "phase-space", "mode": "husimi", "observable": "Sz",
          "model": {"kind": "kicked_ising", "L": 2}, "sweep": {"param": "hz", "values": [0.1]}},
         "model.kind"),
        ({"experiment": "rmt-compare", "model": {"kind": "kicked_top", "j": 2},
          "sweep": {"param": "lambda", "values": [3.0]}}, "model.kind"),
        ({"experiment": "ordered-bloch", "model": {"kind": "kicked_top", "j": 2},
          "sweep": {"param": "lambda", "values": [3.0]}}, "sweep.param"),
    ], ids=["perturb", "phase-space", "rmt-compare", "ordered-bloch"])
    def test_experiment_requirement_exit_code(self, tmp_path, cfg, fieldname):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({**cfg, "steps": 4}))
        result = CliRunner().invoke(main, ["run", "--config", str(path),
                                           "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2, result.output
        assert f"config field '{fieldname}'" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("case", BAD_MODELS)
    def test_bad_model_exit_code(self, tmp_path, case):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(BAD_MODELS[case][0]))
        result = CliRunner().invoke(main, ["run", "--config", str(path),
                                           "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2, result.output
        assert "config field 'model'" in result.output
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("case", UNREAD)
    def test_unread_field_exit_code(self, tmp_path, case):
        experiment, base, name, value, _ = UNREAD[case]
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"experiment": experiment, **base, name: value}))
        result = CliRunner().invoke(main, ["run", "--config", str(path),
                                           "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2, result.output
        assert (f"config field '{name}': {experiment} does not read it; leave it unset"
                in result.output)
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("name,key,value", [("fig2.4-lanczos", "dt", 2.0),
                                                ("fig2.1-phase-space", "j", 20)])
    def test_unread_knob_exit_code(self, tmp_path, name, key, value):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"preset": name,
                                        "model": {**PRESETS[name]["model"], key: value}}))
        result = CliRunner().invoke(main, ["run", "--config", str(path),
                                           "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2, result.output
        assert f"config field 'model.{key}': " in result.output
        assert not (tmp_path / "o.csv").exists()

    def test_run_time_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({
            "experiment": "tomo", "observable": "Qfoo", "steps": 4,
            "model": {"kind": "kicked_top", "j": 2}, "sweep": {"param": "lambda", "values": [3.0]}}))
        result = CliRunner().invoke(main, ["run", "--config", str(path),
                                           "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2, result.output
        assert "config field 'observable'" in result.output

    @pytest.mark.parametrize("cfg,fieldname", [
        ({"experiment": "rmt-compare", "observable": "Sz", "n_samples": 0,
          "model": {"kind": "kicked_ising", "L": 2}, "sweep": {"param": "hz", "values": [0.1]}},
         "n_samples"),
        ({"experiment": "phase-space", "n_trajectories": -1, "model": {"kind": "kicked_top"},
          "sweep": {"param": "lambda", "values": [3.0]}}, "n_trajectories"),
        ({"experiment": "phase-space", "n_trajectories": 0, "model": {"kind": "kicked_top"},
          "sweep": {"param": "lambda", "values": [3.0]}}, "n_trajectories"),
    ], ids=["no-samples", "negative-trajectories", "no-trajectories"])
    def test_count_exit_code(self, tmp_path, cfg, fieldname):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({**cfg, "steps": 4}))
        result = CliRunner().invoke(main, ["run", "--config", str(path),
                                           "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2, result.output
        assert f"config field '{fieldname}'" in result.output
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("cfg,fieldname", [
        ({"experiment": "tomo", "model": {"kind": "kicked_top", "j": 2},
          "sweep": {"param": "lambda", "values": ["abc"]}}, "sweep.values"),
        ({"experiment": "tomo", "observable": "s1y", "model": {"kind": "kicked_ising", "L": 2,
                                                               "hz": ["x"]},
          "sweep": {"param": "hx", "values": [1.4]}}, "model.hz"),
        ({"experiment": "tomo", "sigma": "abc", "model": {"kind": "kicked_top", "j": 2},
          "sweep": {"param": "lambda", "values": [3.0]}}, "sigma"),
        ({"experiment": "ordered-bloch", "model": {"kind": "kicked_top", "j": 2},
          "sweep": {"param": "direction", "values": ["up"]}}, "sweep.values"),
        ({"experiment": "ordered-bloch", "model": {"kind": "kicked_top", "j": 2},
          "sweep": {"param": "eta", "values": ["abc"]}}, "sweep.values"),
        ({"experiment": "tomo", "model": {"kind": "kicked_top", "j": 0.3},
          "sweep": {"param": "lambda", "values": [3.0]}}, "model"),
        ({"experiment": "tomo", "observable": 5, "model": {"kind": "kicked_ising", "L": 2},
          "sweep": {"param": "hz", "values": [1.4]}}, "observable"),
        ({"experiment": "tomo", "output_path": 7, "model": {"kind": "kicked_top", "j": 2},
          "sweep": {"param": "lambda", "values": [3.0]}}, "output_path"),
        ({"experiment": ["tomo"], "model": {"kind": "kicked_top", "j": 2},
          "sweep": {"param": "lambda", "values": [3.0]}}, "experiment"),
    ], ids=["sweep-value", "model-knob", "sigma", "direction", "eta", "model-j",
            "observable", "output-path", "experiment-list"])
    def test_wrong_type_exit_code(self, tmp_path, cfg, fieldname):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({**cfg, "steps": 4}))
        result = CliRunner().invoke(main, ["run", "--config", str(path),
                                           "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2, result.output
        assert f"config field '{fieldname}'" in result.output
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("preset", [{"preset": "fig3.6-husimi"}, {"experiment": "tomo"}],
                             ids=["preset", "no-preset"])
    def test_unknown_key_exit_code(self, tmp_path, preset):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({**preset, "stepz": 3}))
        result = CliRunner().invoke(main, ["run", "--config", str(path),
                                           "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2, result.output
        assert "config field '<root>'" in result.output and "stepz" in result.output
        assert not (tmp_path / "o.csv").exists()

    def test_malformed_yaml_exit_code(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("experiment: tomo\nmodel: {kind: kicked_top, j: 2\n")
        result = CliRunner().invoke(main, ["run", "--config", str(path),
                                           "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2, result.output
        assert "config field '<root>': not valid YAML" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not (tmp_path / "o.csv").exists()

    def test_missing_output_directory_exit_code(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setitem(experiments._EXPERIMENTS, "krylov",
                            (fail, *experiments._EXPERIMENTS["krylov"][1:]))
        out = tmp_path / "missing" / "x.csv"
        result = CliRunner().invoke(main, ["run", "--preset", "fig2.4-lanczos", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "config field 'output_path'" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not out.parent.exists()

    def test_presets_command(self):
        result = CliRunner().invoke(main, ["presets"])
        assert result.exit_code == 0
        assert "fig2.1-phase-space" in result.output
        assert "fig4.8-xxz" in result.output

    def test_check_command_passes(self):
        result = CliRunner().invoke(main, ["check"])
        assert result.exit_code == 0
        assert "[PASS]" in result.output
        assert "[FAIL]" not in result.output

    def test_solver_nonconvergence_exit_code(self, tmp_path, monkeypatch):
        import chaostomo.tomography as tomo

        real = tomo.psd_project

        def flaky(*args, **kwargs):
            r_bar, rho_bar, diag = real(*args, **kwargs)
            return r_bar, rho_bar, tomo.SolverDiagnostics(diag.iters, diag.residual, False)

        monkeypatch.setattr(tomo, "psd_project", flaky)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({
            "experiment": "tomo",
            "model": {"kind": "kicked_top", "j": 2, "alpha": 1.0, "lambda": 2.0},
            "steps": 6, "n_states": 1, "observable": "J_y", "sigma": 0.3,
            "sweep": {"param": "lambda", "values": [2.0]}, "eval_stride": 6,
        }))
        result = CliRunner().invoke(main, ["run", "--config", str(path),
                                           "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 3

    @pytest.mark.parametrize("experiment", ["tomo", "perturb"])
    def test_iteration_cap_exit_code(self, experiment, tmp_path, monkeypatch):
        # one check of the projection loop: infeasible estimates stop short of converging
        monkeypatch.setattr(tomography, "_PSD_MAX_ITERS", 1)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({
            "experiment": experiment,
            "model": {"kind": "kicked_top", "j": 2, "alpha": 1.4, "lambda": 3.0},
            "steps": 12, "n_states": 2, "observable": "J_y", "sigma": 0.1, "seed": 2,
            "sweep": {"param": "lambda", "values": [3.0, 7.0]}, "eval_stride": 4,
        }))
        out = tmp_path / "o.csv"
        result = CliRunner().invoke(main, ["run", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 3
        assert "warning: positivity solver hit its iteration cap" in result.output
        rows = out.read_text().splitlines()  # four comment lines, the column names, the rows
        assert f"wrote {len(rows) - 5} rows" in result.output
        assert sum(",fidelity," in row for row in rows) == 2 * 3

    def test_seed_override_changes_hash(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({
            "experiment": "tomo",
            "model": {"kind": "kicked_top", "j": 2, "alpha": 1.0, "lambda": 2.0},
            "steps": 6, "n_states": 2, "observable": "J_y",
            "sweep": {"param": "lambda", "values": [2.0]}, "eval_stride": 3,
        }))
        outs = []
        for seed in (1, 2):
            out = tmp_path / f"r{seed}.csv"
            res = CliRunner().invoke(main, ["run", "--config", str(path), "--seed", str(seed), "--out", str(out)])
            assert res.exit_code == 0
            outs.append(out.read_text())
        assert outs[0] != outs[1]
