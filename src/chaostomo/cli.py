"""Command-line interface.

``chaostomo run`` executes one experiment from a YAML config (or a named
preset), ``chaostomo presets`` lists the built-in parameter sets with
their provenance, and ``chaostomo check`` runs the fast invariant suite.

Exit codes: 0 success, 2 configuration validation failure, 3 the
positivity solver hit its iteration cap somewhere (the CSV is still
written from the best iterates; it carries no per-row flag).
"""

from __future__ import annotations

import sys

import click
import yaml

from .checks import run_checks
from .experiments import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    config_from_preset,
    run_experiment,
)

EXIT_CONFIG = 2
EXIT_SOLVER = 3


@click.group()
def main():
    """Weak-measurement tomography and operator-spreading experiments."""


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              help="YAML experiment configuration.")
@click.option("--preset", "preset_name", type=str, default=None,
              help="Start from a named preset (see 'presets'); config keys override it.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Override the CSV output path.")
def run(config_path, preset_name, seed, out_path):
    """Run one experiment and write its CSV table."""
    try:
        raw = {}
        if config_path:
            with open(config_path, "r", encoding="utf-8") as fh:
                raw = yaml.safe_load(fh) or {}
            if not isinstance(raw, dict):
                raise ConfigError("<root>", "config file must be a mapping")
        preset_name = raw.pop("preset", preset_name)
        if preset_name:
            cfg = config_from_preset(preset_name, **raw)
        else:
            try:
                cfg = ExperimentConfig(**raw)
            except TypeError as exc:
                raise ConfigError("<root>", str(exc)) from exc
        if seed is not None:
            cfg.seed = seed
        if out_path is not None:
            cfg.output_path = out_path
        if cfg.output_path is None:
            cfg.output_path = f"{cfg.experiment}.csv"
        cfg.validate()
    except ConfigError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    table = run_experiment(cfg)
    click.echo(f"wrote {len(table.rows)} rows to {cfg.output_path}")
    if not table.solver_converged:
        click.echo("warning: positivity solver hit its iteration cap on some steps", err=True)
        sys.exit(EXIT_SOLVER)


@main.command()
def presets():
    """List built-in experiment presets and their provenance."""
    for name, params in PRESETS.items():
        click.echo(f"{name}")
        click.echo(f"    {params.get('provenance', '')}")
        model = params.get("model", {})
        sweep = params.get("sweep", {})
        click.echo(f"    model={model} sweep={sweep.get('param')}={sweep.get('values')}")


@main.command()
def check():
    """Run the fast invariant suite; exit nonzero on any failure."""
    ok = run_checks(echo=click.echo)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
