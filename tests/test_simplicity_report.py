"""tools/simplicity_report.py: its recipe table, its code-line counter, the Krylov preset
bytes and the traffic report."""

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
    # and the settable knobs of each mode, per model kind
    report = load_report()
    every = {"kicked_top": 3, "kicked_ising": 4, "tilted_ising": 5, "xxz": 6, "haar": 2}
    size_only = dict.fromkeys(every, 1)
    counts = report.settable(report.SRC)
    assert counts == {
        ("phase-space", "portrait"): (9, {"kicked_top": 2}),
        ("phase-space", "husimi"): (10, {"kicked_top": 3}),
        ("tomo", "haar"): (12, every), ("tomo", "coherent"): (14, every),
        ("krylov", "Floquet model"): (7, {"kicked_top": 3, "kicked_ising": 4}),
        ("krylov", "Hamiltonian, steps 0"): (8, {"tilted_ising": 4, "xxz": 5}),
        ("krylov", "Hamiltonian, steps > 0"): (9, {"tilted_ising": 5, "xxz": 6}),
        ("perturb", "haar"): (13, {"kicked_top": 3}),
        ("perturb", "coherent"): (15, {"kicked_top": 3}),
        ("rmt-compare", "-"): (10, {"kicked_ising": 4, "tilted_ising": 5}),
        ("ordered-bloch", "haar"): (8, size_only), ("ordered-bloch", "coherent"): (10, size_only),
    }
    report.report_lines(report.SRC)
    lines = capsys.readouterr().out.splitlines()
    for (name, mode), (count, knobs) in counts.items():
        assert f"{name:<15} {mode:<24} {count:>15}  {report.knob_column(knobs)}" in lines
    assert "krylov          Hamiltonian, steps 0                   8  tilted_ising 4, xxz 5" in lines


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
                       "fig2.4-lanczos": ("06615871", "771a8999")}


def test_traffic_lists_statements_no_recipe_executes():
    path = Path(__file__).resolve().parent.parent / "tools" / "simplicity_report.py"
    out = subprocess.run([sys.executable, str(path), "traffic", "fig2.4-lanczos"],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    source = (path.parent.parent / "src" / "chaostomo" / "krylov.py").read_text().splitlines()

    def listed(text):
        """Whether the krylov.py block lists the statement that starts with ``text``."""
        lineno, line = next((i, l.strip()) for i, l in enumerate(source, 1)
                            if l.strip().startswith(text))
        start = out.index(next(l for l in out if l.startswith("krylov.py: ")))
        end = next(i for i in range(start + 1, len(out)) if not out[i].startswith(" "))
        return f"  {lineno:>4}  {line}" in out[start + 1:end]

    assert any(l.startswith("cli.py: not imported, none of its") for l in out)
    # fig2.4 runs steps 0: Lanczos, and no amplitudes, so never their escape check
    assert listed('raise ValueError(f"operator weight escapes')
    assert not listed("bs.append(b)")
    assert out[-1].startswith("total: ")
