import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from chaostomo.cli import main
from chaostomo.experiments import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    config_from_preset,
    run_experiment,
)


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
        for kind, keys in knobs.items():
            for key in keys:
                ExperimentConfig(experiment="tomo", model={"kind": kind, key: 1},
                                 sweep={"param": key, "values": [1]}).validate()

    @pytest.mark.parametrize("key", ["lamda", "lam"])
    def test_unknown_sweep_param(self, key):
        cfg = tiny_tomo_config(sweep={"param": key, "values": [0.5, 7.0]})
        with pytest.raises(ConfigError, match=f"'{key}'"):
            run_experiment(cfg)


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
