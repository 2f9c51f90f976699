"""Layered benchmark for chaostomo.

Run from the repository root:

    python3 bench/run.py --workload kt-tomo --seed 1 --seconds 24 --trace 0

One operation is one ``experiments.run_experiment`` call on one sweep value
of a preset plus the CSV emission of its table; a pass runs every cell of
the workload once (see ``workloads.py``).  Passes repeat until the next one
would end after ``--seconds``.  Every result goes through the correctness
gate in ``gate.py``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters, spawned between operations at an even cadence over
the run, of the time until the workload's first operation is ready),
``wall_s`` (wall time of a pass, failed operations included, as the sum
over cells of each cell's median operation time), ``ops_ok_ratio`` and
``peak_rss_mb``.  ``--trace 1`` runs a warm-up pass, then rounds of one
untraced and one traced pass, in alternating order, and reports the
per-layer metrics of ``layers.py`` as medians over traced passes, plus the
tracing overhead as the median over rounds of traced minus untraced pass
time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts operations
that raised or whose output failed the gate; ``correct`` is false when any
output the library returned failed the gate.  Details (environment, each
cell's outcome and CSV sha256, spans) go to ``.bench_out/``.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in the probes
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 60


def import_library():
    """Import chaostomo from this checkout's sources, never from elsewhere."""
    if not (SRC / "chaostomo" / "__init__.py").is_file():
        sys.exit(f"bench: no chaostomo sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import chaostomo

    if Path(chaostomo.__file__).resolve().parent != SRC / "chaostomo":
        sys.exit(f"bench: imported chaostomo from {chaostomo.__file__}, not {SRC}")


def declared_metrics() -> dict:
    """{'end_to_end' | 'per_layer': {name: unit}} from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {k: {m["name"]: m["unit"] for m in spec[k]} for k in ("end_to_end", "per_layer")}


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its first operation being ready."""
    probe = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    t0 = perf_counter()
    proc = subprocess.Popen(probe, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        sys.exit(f"bench: set-up probe failed (exit {proc.returncode})")
    return elapsed


class SetupProbes:
    """Samples of ``setup_s``, taken between operations at an even cadence.

    Spread over the run, one slow phase of the host cannot move them all.
    ``clock`` leaves out the time spent probing, so probes do not shorten
    the measured passes.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.args = (workload, seed)
        measure_setup(*self.args)  # warms the file cache; not counted
        self.samples = []
        self.spent = 0.0
        self.interval = seconds / SETUP_PROBES
        self.start = self.clock()

    def clock(self) -> float:
        return perf_counter() - self.spent

    def __call__(self):
        """Take the next sample if it is due."""
        due = self.start + len(self.samples) * self.interval
        if len(self.samples) < SETUP_PROBES and self.clock() >= due:
            self.take()

    def take(self):
        t0 = perf_counter()
        self.samples.append(measure_setup(*self.args))
        self.spent += perf_counter() - t0


class Runner:
    """Runs passes over one workload's cells and keeps each cell's outcomes.

    With ``rotate``, pass p runs the inputs of config seed ``seed + p`` (mod
    the pool size), so one run's median spans several inputs; otherwise
    every pass repeats the inputs of ``seed``, so counts repeat exactly.
    """

    def __init__(self, workload: str, seed: int, rotate: bool):
        from chaostomo import experiments

        import gate
        import workloads

        self.experiments = experiments
        self.gate = gate
        self.workloads = workloads
        self.workload = workload
        self.seed = seed
        self.rotate = rotate
        self.reference = gate.load_reference()
        self._cells = {}
        self.config_seeds = []  # config seed of each pass run so far
        self.outcomes = {cell.label: [] for cell, *_ in self.cells(self.next_config_seed())}
        self.attempted = self.failed = 0
        self.incorrect = False

    def next_config_seed(self) -> int:
        offset = len(self.config_seeds) if self.rotate else 0
        return self.workloads.config_seed(self.seed + offset)

    def cells(self, config_seed: int) -> list:
        """(cell, config, dimension, reference) for each cell, resolved once per seed."""
        if config_seed not in self._cells:
            self._cells[config_seed] = []
            for cell in self.workloads.WORKLOADS[self.workload]:
                cfg = cell.config(config_seed)
                ref = self.gate.cell_reference(
                    self.reference, self.workload, cell.label, config_seed)
                self._cells[config_seed].append((cell, cfg, self.workloads.dim(cfg), ref))
        return self._cells[config_seed]

    def _op(self, cfg):
        table = self.experiments.run_experiment(cfg)
        return table, table.to_csv()

    def run_pass(self, tracer=None, after_op=None) -> tuple:
        """One pass; returns (wall seconds of its operations, warnings raised).

        ``after_op`` is called after each operation, outside its timing.
        """
        config_seed = self.next_config_seed()
        self.config_seeds.append(config_seed)
        op = tracer.span(tracer.OP, self._op) if tracer else self._op
        wall = 0.0
        n_warn = 0
        for cell, cfg, d, ref in self.cells(config_seed):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0 = perf_counter()
                try:
                    table, csv = op(cfg)
                    error = None
                except Exception as exc:  # a failing cell is recorded, not fatal
                    table = csv = None
                    error = f"{type(exc).__name__}: {exc}"
                dt = perf_counter() - t0
            wall += dt
            n_warn += len(caught)
            self.record(cell, cfg, d, ref, table, csv, error, dt, len(caught))
            if after_op:
                after_op()
        return wall, n_warn

    def record(self, cell, cfg, d, ref, table, csv, error, seconds, n_warn):
        outcome = {"seconds": seconds, "warnings": n_warn, "config_seed": cfg.seed}
        if error is not None:
            outcome["error"] = error
        else:
            problems = self.gate.check(table.rows, d, ref)
            if problems:
                outcome["problems"] = problems[:10]
                self.incorrect = True
            outcome["csv_sha256"] = hashlib.sha256(csv.encode()).hexdigest()
        self.attempted += 1
        self.failed += "error" in outcome or "problems" in outcome
        self.outcomes[cell.label].append(outcome)

    def failures(self) -> list:
        out = []
        for cell, cfg, _, _ in self.cells(self.config_seeds[0]):
            bad = [o for o in self.outcomes[cell.label] if "error" in o or "problems" in o]
            if bad:
                out.append({
                    "workload": self.workload, "preset": cell.preset or cfg.experiment,
                    "cell": cell.label, "sweep_value": cell.value, "count": len(bad),
                    "config_seed": bad[0]["config_seed"],
                    "error": bad[0].get("error"), "problems": bad[0].get("problems"),
                })
        return out

    def pass_s(self) -> float:
        """Wall time of a typical pass: the sum over cells of each cell's median."""
        return sum(statistics.median(o["seconds"] for o in outcomes)
                   for outcomes in self.outcomes.values())

    def cell_summary(self) -> dict:
        out = {}
        for label, outcomes in self.outcomes.items():
            hashes: dict = {}
            for o in outcomes:
                if "csv_sha256" in o:
                    hashes.setdefault(str(o["config_seed"]), set()).add(o["csv_sha256"])
            out[label] = {
                "runs": len(outcomes),
                "median_s": statistics.median(o["seconds"] for o in outcomes),
                "warnings": outcomes[0]["warnings"],
                "csv_sha256": {k: sorted(v) for k, v in hashes.items()},
            }
        return out


def run_in_subprocess(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result object one benchmark run prints, from a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=900,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_passes(step, seconds: float, clock=perf_counter):
    """Call ``step`` at least once, until another call would end past the deadline."""
    deadline = clock() + seconds
    while True:
        t0 = clock()
        step()
        now = clock()
        if now + (now - t0) > deadline:
            return


def environment(load_before, cpus) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(cpus),
        "pinned_cpu": cpus[-1],
        "platform": platform.platform(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_before = os.getloadavg()
    # One CPU for the run and its probes: the last one, away from the
    # interrupts and housekeeping that land on CPU 0.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    import_library()
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    units = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}

    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed, rotate=not args.trace)
    if args.trace:
        rounds, per_pass = [], []  # (untraced, traced) pass seconds of each round
        tracer = layers.Tracer()
        spans = tracer.spans

        def traced_pass():
            first = len(spans)
            with tracer:
                wall, n_warn = runner.run_pass(tracer)
            per_pass.append(layers.pass_metrics(spans, first, n_warn))
            return wall

        def round_():
            # Odd rounds trace first, so that drift within a round cancels
            # in the median of the differences.
            if len(rounds) % 2:
                traced = traced_pass()
                plain = runner.run_pass()[0]
            else:
                plain = runner.run_pass()[0]
                traced = traced_pass()
            rounds.append((plain, traced))

        # The first pass of a process runs slower; left in, it would bias the
        # first round, the only one on workloads with long passes.
        runner.run_pass()
        run_passes(round_, args.seconds)
        values = layers.median_metrics(per_pass)
        values["trace.overhead_s"] = statistics.median(t - p for p, t in rounds)
        detail["pass_wall_s"] = {"untraced": [p for p, _ in rounds],
                                 "traced": [t for _, t in rounds]}
        with open(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "extra"], "spans": spans}, fh)
    else:
        probes = SetupProbes(args.workload, args.seed, args.seconds)
        walls = []
        run_passes(lambda: walls.append(runner.run_pass(after_op=probes)[0]), args.seconds,
                   clock=probes.clock)
        while len(probes.samples) < SETUP_PROBES:
            probes.take()
        values = {
            "setup_s": statistics.median(probes.samples),
            "wall_s": runner.pass_s(),
            "ops_ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        detail["setup_s"] = probes.samples
        detail["pass_wall_s"] = walls

    if set(values) != set(units):
        sys.exit(f"bench: metrics {sorted(set(values) ^ set(units))} not matched in BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    detail.update(
        environment=environment(load_before, cpus), config_seeds=runner.config_seeds,
        attempted=runner.attempted, failed=runner.failed, correct=not runner.incorrect,
        failures=runner.failures(), cells=runner.cell_summary(), metrics=metrics,
    )
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)

    for f in detail["failures"]:
        print(f"FAILED {f['workload']} {f['preset']} [{f['cell']}] x{f['count']}: "
              f"{f['error'] or '; '.join(f['problems'])}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:40s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": not runner.incorrect, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
