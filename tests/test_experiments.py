import weakref
from dataclasses import fields

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from chaostomo import dynamics, experiments, tomography
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

    def test_negative_sigma(self):
        with pytest.raises(ConfigError, match="sigma"):
            tiny_tomo_config(sigma=-1).validate()

    @pytest.mark.parametrize("key", ["lamda", "lam"])
    def test_unknown_model_key(self, key):
        model = {"kind": "kicked_top", "j": 2, "alpha": np.pi / 2, key: 7.0}
        with pytest.raises(ConfigError, match=f"model.{key}"):
            run_experiment(tiny_tomo_config(model=model))

    def test_every_documented_knob_validates(self):
        # the README model table, plus j, L and impurity_axis
        knobs = {
            "kicked_top": ["j", "lambda", "alpha"],
            "kicked_ising": ["L", "J", "hx", "hz"],
            "tilted_ising": ["L", "J", "hx", "hz", "dt"],
            "xxz": ["L", "Jxy", "Jzz", "g", "site", "dt", "impurity_axis"],
            "haar": ["dim", "seed"],
        }
        # krylov rebuilds the model for each sweep value, so it takes every
        # knob as a sweep param, the size knobs included; it rejects haar,
        # whose knobs tomo takes as model keys (its dim sweep is rejected below)
        for kind, keys in knobs.items():
            for key in keys:
                experiment, param = ("tomo", "seed") if kind == "haar" else ("krylov", key)
                ExperimentConfig(experiment=experiment, model={"kind": kind, key: 1},
                                 sweep={"param": param, "values": [1]}).validate()

    @pytest.mark.parametrize("name", [*experiments._INTEGER_FIELDS, *experiments._REAL_FIELDS])
    def test_field_types(self, name):
        integer = name in experiments._INTEGER_FIELDS
        bad = (1.5, True, "3", -1) if integer else (True, "0.1", None, float("nan"), np.inf)
        for value in bad:
            with pytest.raises(ConfigError, match="must be") as err:
                tiny_tomo_config(**{name: value}).validate()
            assert err.value.fieldname == name

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
        # the model checks impurity_axis itself; site may be null
        ExperimentConfig(experiment="krylov", model={"kind": "xxz", "site": None},
                         sweep={"param": "impurity_axis", "values": ["y"]}).validate()
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
        with pytest.raises(ConfigError, match=f"'{key}'"):
            run_experiment(cfg)

    @pytest.mark.parametrize("experiment,model,param", [
        ("tomo", {"kind": "tilted_ising", "L": 2}, "L"),
        ("tomo", {"kind": "kicked_top", "j": 2}, "j"),
        ("tomo", {"kind": "haar", "dim": 3}, "dim"),
        ("rmt-compare", {"kind": "kicked_ising", "L": 2}, "L"),
        ("perturb", {"kind": "kicked_top", "j": 2}, "j"),
        ("phase-space", {"kind": "kicked_top", "j": 2}, "j"),
    ])
    def test_size_knob_sweep_rejected(self, experiment, model, param):
        # these runners build the observable and basis for the first value only
        cfg = ExperimentConfig(experiment=experiment, model=model, steps=4,
                               sweep={"param": param, "values": [2, 3]})
        with pytest.raises(ConfigError, match="sweep.param") as err:
            run_experiment(cfg)
        assert err.value.fieldname == "sweep.param" and f"'{param}'" in str(err.value)


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
                model={"kind": "kicked_top", "j": 2, "alpha": 1.0, "lambda": 1.0},
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


# config_hash of every preset, recorded when the hash payload became the
# dataclass fields: a change here re-labels every CSV a preset has written
PRESET_HASHES = {
    "fig2.1-phase-space": "3cf905baf2130a10",
    "fig2.3-krylov-complexity": "b382bbf3439f2e91",
    "fig2.4-lanczos": "3e83f79f04b7911e",
    "fig3.1-coherent": "edb4e32405f39647",
    "fig3.1-random": "01452f7e7b7abb80",
    "fig3.3-ordered-bloch": "05bbece35c361f6c",
    "fig3.6-husimi": "ba0d8a35d1482c59",
    "fig4.2-tki-quantifiers": "51c89e05513addff",
    "fig4.6-rmt-compare": "44eb6f819eb1b322",
    "fig4.8-xxz": "986810e901f8c352",
    "fig5.2-perturb": "90cb57fd18b38e70",
    "fig5.3-perturbed-basis": "7ba3aa0bf15deca4",
}


class TestConfigHash:
    def test_preset_hashes_unchanged(self):
        assert {name: config_from_preset(name).config_hash() for name in PRESETS} == PRESET_HASHES

    def test_every_field_but_labels_enters_hash(self):
        base = tiny_tomo_config()
        changed = {"model": {**base.model, "j": 3}, "sweep": {"param": "lambda", "values": [0.5]},
                   "output_path": "elsewhere.csv", "provenance": "a note"}
        for f in fields(ExperimentConfig):
            value = getattr(base, f.name)
            if f.name not in changed:
                changed[f.name] = value + "-other" if isinstance(value, str) else value + 1
            other = ExperimentConfig(**{**base.__dict__, f.name: changed[f.name]})
            same = f.name in ("output_path", "provenance")
            assert (other.config_hash() == base.config_hash()) == same, f.name


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
            model={"kind": "kicked_top", "j": 2, "alpha": np.pi / 2, "lambda": 0.5},
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
            model={"kind": "kicked_top", "j": 3, "alpha": 1.0, "lambda": 1.0},
            state="haar",
            n_states=4,
            sweep={"param": "direction", "values": ["descending", "ascending"]},
            seed=3,
        )
        table = run_experiment(cfg)
        down = series(table, "descending", "bloch_value")
        up = series(table, "ascending", "bloch_value")
        assert np.all(down >= up - 1e-12)

    def test_ordered_bloch_size_from_j(self):
        # without a model kind the space is 2j + 1 dimensional, as with one
        runs = [run_experiment(ExperimentConfig(
            experiment="ordered-bloch", model=model, state="coherent",
            sweep={"param": "direction", "values": ["descending"]}))
            for model in ({"j": 2}, {"kind": "kicked_top", "j": 2})]
        assert runs[0].rows == runs[1].rows
        assert max(r[2] for r in runs[0].rows) == 5 * 5 - 1

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
            theta=2.04, phi=2.42,
        )
        haar = run_experiment(ExperimentConfig(**base, state="haar"))
        coherent = run_experiment(ExperimentConfig(**base, state="coherent"))
        operator_rows = [r for r in haar.rows if r[3] != "fidelity"]
        assert operator_rows == [r for r in coherent.rows if r[3] != "fidelity"]
        assert not np.allclose(series(haar, "3", "fidelity"), series(coherent, "3", "fidelity"))
        # at delta_lambda = 0 the mismatched run is the ideal run, record for record
        tomo = run_experiment(ExperimentConfig(**{**base, "experiment": "tomo"}, state="coherent"))
        unperturbed = run_experiment(ExperimentConfig(**base, state="coherent", delta_lambda=0.0))
        assert np.array_equal(series(tomo, "3", "fidelity"), series(unperturbed, "3", "fidelity"))


class TestSvdCalls:
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
    def test_states_share_each_prefix_svd(self, experiment, monkeypatch):
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
    ], ids=["tomo", "tomo-haar", "perturb", "rmt-compare"])
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
        ({"experiment": "ordered-bloch", "model": {"j": 0.3},
          "sweep": {"param": "eta", "values": [0.1]}}, "model.j"),
        ({"experiment": "tomo", "observable": 5, "model": {"kind": "kicked_ising", "L": 2},
          "sweep": {"param": "hz", "values": [1.4]}}, "observable"),
        ({"experiment": "tomo", "output_path": 7, "model": {"kind": "kicked_top", "j": 2},
          "sweep": {"param": "lambda", "values": [3.0]}}, "output_path"),
    ], ids=["sweep-value", "model-knob", "sigma", "direction", "eta", "kindless-j",
            "observable", "output-path"])
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
