"""tools/simplicity_report.py: its recipe table and its code-line counter, without runs."""

import importlib.util
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
