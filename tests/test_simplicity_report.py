"""tools/simplicity_report.py: its recipe table, its code-line counter and the Krylov preset bytes."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from chaostomo.experiments import PRESETS


def load_report():
    path = Path(__file__).resolve().parent.parent / "tools" / "simplicity_report.py"
    spec = importlib.util.spec_from_file_location("simplicity_report", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recipes_cover_the_presets():
    assert load_report().RECIPES.keys() == PRESETS.keys()


def test_code_lines_skip_docstrings_comments_and_blanks():
    source = ('"""Module."""\n\n# note\nx = 1  # trailing\n\n'
              'def f():\n    """Two\n    lines."""\n    return """not a\ndocstring"""\n')
    # x = 1, def f() and the two lines of the returned string
    assert load_report().code_lines(source) == 4


def test_lines_prints_settable_fields_per_mode(capsys):
    report = load_report()
    counts = report.settable_fields(report.SRC)
    assert counts == {
        ("phase-space", "portrait"): 9, ("phase-space", "husimi"): 10,
        ("tomo", "haar"): 12, ("tomo", "coherent"): 14,
        ("krylov", "Floquet model"): 7, ("krylov", "Hamiltonian, steps 0"): 8,
        ("krylov", "Hamiltonian, steps > 0"): 9,
        ("perturb", "haar"): 13, ("perturb", "coherent"): 15,
        ("rmt-compare", "-"): 10,
        ("ordered-bloch", "haar"): 8, ("ordered-bloch", "coherent"): 10,
    }
    report.report_lines(report.SRC)
    lines = capsys.readouterr().out.splitlines()
    for (name, mode), count in counts.items():
        assert f"{name:<15} {mode:<24} {count:>15}" in lines


def test_lines_prints_knobs_per_model_kind(capsys):
    report = load_report()
    knobs = report.model_knobs(report.SRC)
    assert knobs == {"kicked_top": 3, "kicked_ising": 4, "tilted_ising": 5, "xxz": 6, "haar": 2}
    report.report_lines(report.SRC)
    lines = capsys.readouterr().out.splitlines()
    for kind, count in knobs.items():
        assert f"{kind:<15} {count:>15}" in lines


def test_krylov_preset_csv_bytes():
    # the full fig2.3 and fig2.4 CSVs, which the tool writes at one BLAS thread
    path = Path(__file__).resolve().parent.parent / "tools" / "simplicity_report.py"
    out = subprocess.run([sys.executable, str(path), "hashes", "--full", "fig2.3-krylov-complexity",
                          "fig2.4-lanczos"], capture_output=True, text=True, check=True).stdout
    # each line: the preset, the file's digest and the body's digest
    digests = {line.split()[0]: tuple(d[:8] for d in line.split()[1:3])
               for line in out.splitlines()}
    assert digests == {"fig2.3-krylov-complexity": ("55088548", "9a13698e"),
                       "fig2.4-lanczos": ("90940217", "771a8999")}
