"""tools/gate_sweep.py: config seed 0 of two workloads through the benchmark gate."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def sweep(*prelude: str, workload: str = "spread-diag") -> subprocess.CompletedProcess:
    """Run the cells of ``workload`` on config seed 0 in a fresh interpreter, after ``prelude``."""
    code = "; ".join([f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import gate_sweep",
                      *prelude,
                      f"sys.exit(gate_sweep.main([{workload!r}, '--seeds', '0']))"])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)


def test_spread_diag_passes():
    out = sweep()
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 1 + 11 + 1  # the column names, one line per cell, the total
    assert all(line.split()[-2:] == ["0", "-"] for line in lines[1:-1])
    assert lines[-1] == "0 problems"


def test_chain_spectra_passes():
    # hz=0 reads its design through the orbit span, hz=0.4 and 1.4 plain
    out = sweep(workload="chain-spectra")
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert [line.split()[2] for line in lines[1:-1]] == ["hz=0.0", "hz=0.4", "hz=1.4"]
    assert all(line.split()[-2:] == ["0", "-"] for line in lines[1:-1])
    assert lines[-1] == "0 problems"


def test_failing_cell_is_a_problem():
    out = sweep("gate_sweep.run_experiment = lambda cfg: 1 / 0")
    assert out.returncode == 1
    assert out.stdout.count("ZeroDivisionError") == 11
    assert out.stdout.splitlines()[-1] == "11 problems"
