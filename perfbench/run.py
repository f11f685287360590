"""Benchmark of extremal-ellipsoids: one workload per process.

    python3 perfbench/run.py --workload mvee --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A copy of the result with per-case timings goes to
``.perfbench_out/``.  See perfbench/README.md for the workloads and the
metrics.
"""

from __future__ import annotations

import os

# one BLAS thread: the default pool made the first cut-loop pass two to
# three times slower on a 2-CPU machine, and varied from run to run
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_COPIES = 2  # fresh processes that repeat the setup, besides this one


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("oracle-sweep", "cut-loop", "mvee", "mvie"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one setup, print it and stop (the benchmark "
                             "repeats its setup this way in fresh processes)")
    return parser.parse_args(argv)


def _import_package():
    """Import the package from ./src, refusing any other copy."""
    if not (SRC / "extremal_ellipsoids" / "__init__.py").is_file():
        sys.exit(f"no package source at {SRC}/extremal_ellipsoids; "
                 "run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import extremal_ellipsoids

    if Path(extremal_ellipsoids.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"imported extremal_ellipsoids from {extremal_ellipsoids.__file__}, "
                 f"not from {SRC}")
    return extremal_ellipsoids


def _fresh_setups(args, count):
    """Setup times and problems of this workload in fresh child processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--setup-only"]
    times, problems = [], []
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        child = json.loads(done.stdout.splitlines()[-1])
        times.append(child["setup_s"])
        problems += child["problems"]
    return times, problems


def _cli_import_ms():
    """Median of three fresh-process imports of the CLI module."""
    code = ("import time; t = time.perf_counter(); "
            "import extremal_ellipsoids.cli; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(3):
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        times.append(float(done.stdout.strip()) * 1e3)
    return statistics.median(times)


class Timings:
    """Per-call times of the program, by case class."""

    def __init__(self):
        self.class_labels = {}
        self.by_label = {}
        self.total = 0.0
        self.completed = 0
        self.attempted = 0
        self.failed = 0

    def add(self, case, seconds, ok):
        self.attempted += 1
        self.total += seconds
        if ok:
            self.completed += 1
            self.class_labels.setdefault(case.cls, {})[case.label] = None
            self.by_label.setdefault(case.label, []).append(seconds)
        else:
            self.failed += 1

    def median_ms(self, cls):
        """Median over the class's cases of each case's median time."""
        return statistics.median(statistics.median(self.by_label[label])
                                 for label in self.class_labels[cls]) * 1e3


def _run_case(case, timings, problems, tracer=None):
    if tracer is not None:
        tracer.case_class = case.cls
    t0 = time.perf_counter()
    try:
        out = case.call()
    except Exception as exc:  # a program failure is counted, not fatal
        timings.add(case, time.perf_counter() - t0, False)
        problems.append(f"{case.label}: raised {type(exc).__name__}: {exc}")
        return None
    timings.add(case, time.perf_counter() - t0, True)
    found = case.check(out)
    if found:
        problems.append(f"{case.label}: {'; '.join(found)}")
    return out


def _round(cases, timings, problems, outputs, tracer=None):
    start = timings.total
    for case in cases:
        out = _run_case(case, timings, problems, tracer)
        if out is not None:
            outputs.setdefault(case.label, out)
    return timings.total - start


def _self_check(cases, outputs):
    """Every planted wrong answer must be rejected by its case's check.

    Returns (number planted, problems)."""
    planted = 0
    missed = []
    for case in cases:
        out = outputs.get(case.label)
        if out is None:
            continue
        for i, wrong in enumerate(case.plant(out)):
            planted += 1
            if not case.check(wrong):
                missed.append(f"{case.label}: planted wrong answer {i} passed the check")
    return planted, missed


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(args, problems):
    """Import the package, make the inputs from the seed and run the
    warm-up cases untimed.  Returns (package, workloads, cases, seconds)."""
    t0 = time.perf_counter()
    package = _import_package()
    import workloads

    make, make_warmup = workloads.WORKLOADS[args.workload]
    cases = make(args.seed)
    warm = Timings()
    for case in make_warmup(args.seed):
        _run_case(case, warm, problems)
    return package, workloads, cases, time.perf_counter() - t0


def main(argv=None):
    args = _parse(argv)
    if args.seconds <= 0:
        sys.exit("--seconds must be positive")
    problems = []
    package, workloads, cases, own_setup = _setup(args, problems)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup, "problems": problems}))
        return
    # the import and first calls are paid once per process, so the setup is
    # repeated in fresh processes to give it a median
    setups, child_problems = _fresh_setups(args, SETUP_COPIES)
    setups.insert(0, own_setup)
    problems += child_problems
    setup_s = statistics.median(setups)

    timings = Timings()
    outputs = {}
    rounds = []
    traced_rounds = []
    tracer = None
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
    while timings.total < args.seconds or (tracer and len(traced_rounds) < len(rounds)):
        if tracer and len(traced_rounds) < len(rounds):
            tracer.install(layers.targets(package, workloads),
                               ("extremal_ellipsoids", "workloads"))
            try:
                traced_rounds.append(_round(cases, timings, problems, outputs, tracer))
            finally:
                tracer.remove()
        else:
            rounds.append(_round(cases, timings, problems, outputs))
    planted, missed = _self_check(cases, outputs)
    problems += missed

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "solved_per_s": (timings.completed / timings.total, "1/s"),
            "small_p50_ms": (timings.median_ms("small"), "ms"),
            "large_p50_ms": (timings.median_ms("large"), "ms"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
    else:
        overhead = statistics.median(traced_rounds) - statistics.median(rounds)
        metrics = layers.report(tracer, overhead, _cli_import_ms())

    result = {
        "correct": not problems,
        "attempted": timings.attempted,
        "failed": timings.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, problems=problems,
                  planted_rejected=planted - len(missed), planted=planted,
                  rounds=len(rounds), traced_rounds=len(traced_rounds),
                  setups_s=setups,
                  case_ms={k: [t * 1e3 for t in v]
                           for k, v in timings.by_label.items()},
                  python=platform.python_version(),
                  numpy=sys.modules["numpy"].__version__,
                  scipy=sys.modules["scipy"].__version__,
                  cpus=os.cpu_count())
    name = f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1) + "\n")
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
