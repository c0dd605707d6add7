"""sislab benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload sim_mass_action --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports sislab from ``src/``.
A run sets up (import, inputs, config build), makes one untimed warm-up
pass, then repeats timed passes of the workload for ``--seconds``.  It
prints a table of every metric (median and quartiles over passes), then,
as the last line, the JSON result (every value a median):

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics: ``setup_s`` and ``wall_s``
(the time of one pass) in seconds at a fixed reference speed, measured
against a reference loop run beside the work (see REF_NOMINAL_S), and
``peak_rss_mb``.  ``--trace 1`` splits the
time between untraced passes and passes with a span recorded around every
call into a sislab layer, and reports the per-layer metrics; the spans are
written to ``.bench_run/`` when the run ends.  Every run also writes its
metrics, the machine and library context and the workload's input sizes
to ``.bench_run/<workload>-seed<seed>-trace<0|1>.json``.

A unit of work (a run, a solve, a sweep point) fails when it raises, fails
its correctness check, or gives a result that differs from the warm-up
pass.  ``correct`` is false when any unit failed.  The run exits non-zero
without a result when sislab cannot be imported from ``src/``.
"""

from time import perf_counter

_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread per process, set before numpy loads, so that a sweep with
# one worker per core never oversubscribes the cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({name: "1" for name in BLAS_THREAD_VARS})

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_PROBES = 4

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# A shared host runs this process at speeds that differ by up to 1.8x and
# switch every few seconds, independently on each core, so raw pass times
# from two runs do not agree within a useful bound.  The reference loop is a
# fixed amount of work shaped like sislab's inner loops: small numpy
# operations and a banded LAPACK solve on 201 nodes, driven from Python (a
# loop of numpy operations alone slows down 20% more than sislab does when
# the core is shared).  Run beside the workload, at least every REF_EVERY_S
# of work, and after each set-up, it measures the host's speed at that
# moment.  ``setup_s`` and ``wall_s`` are seconds at the reference speed:
# measured seconds times REF_NOMINAL_S over the reference loop's time next
# to them.  REF_NOMINAL_S is about the loop's time on an uncontended core of
# the machine the benchmark was defined on (2-core Xeon, Python 3.11,
# numpy 2.4, scipy 1.17); it is fixed so that runs and commits compare.
REF_ITERATIONS = 900
REF_EVERY_S = 0.25
REF_NOMINAL_S = 0.025

# Per-layer metrics that the runner adds to the tracer's.  The raw times and
# the last four, the workload-specific figures, are measured on the untraced
# passes in plain seconds; the last four read 0 on a workload they do not
# apply to.
RUNNER_PER_LAYER = (
    ("setup_raw_s", "s"),
    ("wall_raw_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.warmup_s", "s"),
    ("bench.fail_frac", "ratio"),
    ("bench.wrappers_absent", "count"),
    ("model_time_per_s", "model-time/s"),
    ("threshold_s", "s"),
    ("eigen_s", "s"),
    ("points_per_s", "points/s"),
)


def import_program():
    if not (SRC / "sislab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no sislab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sislab

    if Path(sislab.__file__).resolve().parent != (SRC / "sislab").resolve():
        raise SystemExit(f"bench: imported sislab from {sislab.__file__}, not {SRC}")
    return sislab


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one pass per phase, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Ledger:
    """Counts units attempted and failed, against the warm-up pass."""

    def __init__(self, units, check_failures: dict[str, list[str]]):
        self.reference = {name: digest for name, digest, _ in units}
        self.check_failures = check_failures
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.add(units, "warm-up")

    def add(self, units, label: str) -> None:
        for name, digest, error in units:
            self.attempted += 1
            if error:
                reason = error
            elif name in self.check_failures:
                reason = "; ".join(self.check_failures[name])
            elif digest != self.reference.get(name):
                reason = "result differs from the warm-up pass"
            else:
                continue
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label} {name}: {reason}")


def summarize(values) -> dict:
    values = list(values)
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def machine_context(numpy, scipy) -> dict:
    def cpu_model():
        with contextlib.suppress(OSError):
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        return platform.processor() or "unknown"

    def caches():
        out = {}
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            with contextlib.suppress(OSError):
                level = (index / "level").read_text().strip()
                kind = (index / "type").read_text().strip()
                out[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        return out

    def blas(config):
        deps = config.get("Build Dependencies", {})
        return {lib: f"{deps.get(lib, {}).get('name')} {deps.get(lib, {}).get('version')}"
                for lib in ("blas", "lapack")}

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
    }


class ReferenceClock:
    """Converts measured seconds to seconds at the reference speed, using
    the reference loop timed after each stretch of work, averaged with the
    time before it.

    With ``cpus``, the loop runs once pinned to each of them and the clock
    uses the harmonic mean: work spread over worker processes on those cores
    finishes at the sum of their speeds.
    """

    def __init__(self, cpus=None):
        import numpy
        import scipy.linalg

        self._exp = numpy.exp
        self._solve = scipy.linalg.solve_banded
        self._u = numpy.linspace(0.0, 1.0, 201)
        self._bands = numpy.zeros((3, 201))
        self._bands[0, 1:] = self._bands[2, :-1] = -1.0
        self._bands[1] = 3.0
        self._cpus = cpus
        self._last = self._time()

    def _loop(self) -> float:
        u, bands = self._u, self._bands
        start = perf_counter()
        for _ in range(REF_ITERATIONS):
            self._exp(-u) * 0.5 + u
            self._solve((1, 1), bands, u, check_finite=False)
        return perf_counter() - start

    def _time(self) -> float:
        if not self._cpus:
            return self._loop()
        home = os.sched_getaffinity(0)
        rates = []
        try:
            for cpu in self._cpus:
                os.sched_setaffinity(0, {cpu})
                rates.append(1.0 / self._loop())
        finally:
            os.sched_setaffinity(0, home)
        return len(rates) / sum(rates)

    def convert(self, seconds: float) -> float:
        ref = self._time()
        out = seconds * REF_NOMINAL_S / ((self._last + ref) / 2)
        self._last = ref
        return out


def probe_setup(args) -> dict:
    """Set-up time of a fresh process: interpreter start to inputs built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import numpy
    import scipy

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; choose from "
                         + ", ".join(workloads.WORKLOADS))
    wl = workloads.WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}"
    out_dir = RUN_DIR / f"{tag}-{os.getpid()}"
    wl.setup(args.seed, args.smoke, out_dir)
    setup_raw = perf_counter() - _START
    clock = ReferenceClock()
    setup = {"setup_s": [clock.convert(setup_raw)], "setup_raw_s": [setup_raw]}
    if args.setup_probe:
        print(json.dumps({key: values[0] for key, values in setup.items()}))
        return 0
    for _ in range(1 if args.smoke else SETUP_PROBES):
        for key, value in probe_setup(args).items():
            setup[key].append(value)

    min_passes = 1 if args.smoke else 5
    tracer = tracing.Tracer()
    clocks = {1: clock}
    if wl.jobs > 1:
        clocks[wl.jobs] = ReferenceClock(sorted(os.sched_getaffinity(0)))

    def one_pass(jobs: int, traced: bool):
        """Run the workload's calls; return the tasks and the wall time they
        took, raw and at the reference speed."""
        tracer.pass_index += 1
        pass_clock = clocks[jobs]
        tasks, at_ref, since_ref = [], 0.0, 0.0
        with tracer.installed() if traced else contextlib.nullcontext():
            for name, fn, fn_args in wl.plan(jobs):
                tasks.append(workloads.call(name, fn, fn_args))
                since_ref += tasks[-1].seconds
                if since_ref >= REF_EVERY_S:
                    at_ref, since_ref = at_ref + pass_clock.convert(since_ref), 0.0
        if since_ref:
            at_ref += pass_clock.convert(since_ref)
        return tasks, sum(t.seconds for t in tasks), at_ref

    try:
        warm_tasks, warmup_s, _ = one_pass(wl.jobs, traced=False)
        ledger = Ledger(wl.outcomes(warm_tasks), wl.check(warm_tasks))
        del warm_tasks

        def phase(label: str, budget: float, jobs: int, traced: bool):
            samples, passes = [], []
            start = perf_counter()
            while True:
                tasks, wall, at_ref = one_pass(jobs, traced)
                ledger.add(wl.outcomes(tasks), f"{label} pass {len(samples) + 1}")
                samples.append({"wall_s": at_ref, "wall_raw_s": wall,
                                **wl.pass_metrics(tasks, wall)})
                passes.append(tracer.pass_index)
                mean_pass = (perf_counter() - start) / len(samples)
                if len(samples) >= min_passes and perf_counter() - start + mean_pass > budget:
                    return samples, passes

        phases = {}
        if args.trace == 0:
            phases["untraced"] = phase("untraced", args.seconds, wl.jobs, False)
        else:
            plan = [("untraced", wl.jobs, False)]
            if wl.jobs > 1:
                # traced sweep points run in-process; compare like with like
                plan.append(("untraced_inprocess", 1, False))
            plan.append(("traced", 1, True))
            for label, jobs, traced in plan:
                phases[label] = phase(label, args.seconds / len(plan), jobs, traced)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    untraced = phases["untraced"][0]
    per_pass = {key: [s[key] for s in untraced] for key in untraced[0]}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    series = {**setup, "wall_s": per_pass["wall_s"], "peak_rss_mb": [peak_rss_mb],
              "wall_raw_s": per_pass["wall_raw_s"]}
    units = dict(END_TO_END)
    if args.trace == 0:
        for key, values in per_pass.items():
            series.setdefault(key, values)
        reported = [name for name, _ in END_TO_END]
    else:
        traced_samples, traced_passes = phases["traced"]
        baseline = phases["untraced_inprocess" if wl.jobs > 1 else "untraced"][0]
        overhead = (statistics.median(s["wall_s"] for s in traced_samples)
                    / statistics.median(s["wall_s"] for s in baseline) - 1.0)
        series.update(tracing.layer_metrics(
            tracer, traced_passes, wl.jobs, statistics.median(per_pass["wall_raw_s"])))
        series.update({
            "bench.trace_overhead": [overhead],
            "bench.warmup_s": [warmup_s],
            "bench.fail_frac": [ledger.failed / ledger.attempted],
            "bench.wrappers_absent": [len(tracer.absent)],
        })
        for name in ("model_time_per_s", "threshold_s", "eigen_s", "points_per_s"):
            series[name] = per_pass.get(name, [0.0])
        units.update(tracing.PER_LAYER)
        reported = [name for name, _ in tracing.PER_LAYER + RUNNER_PER_LAYER]
    units.update(RUNNER_PER_LAYER)

    summary = {name: {"unit": units[name], **summarize(values)}
               for name, values in series.items()}
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": summary[name]["median"], "unit": units[name]}
                    for name in reported},
    }

    RUN_DIR.mkdir(exist_ok=True)
    record = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "jobs": wl.jobs, "sizes": wl.sizes(),
        "passes": {label: len(samples) for label, (samples, _) in phases.items()},
        "context": machine_context(numpy, scipy), "summary": summary, "samples": series,
        "notes": tracer.notes, "problems": ledger.problems, "result": result,
    }
    (RUN_DIR / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(RUN_DIR / f"{tag}.spans.json")

    print(f"# {wl.name} seed={args.seed} trace={args.trace} jobs={wl.jobs} "
          f"passes={record['passes']} sizes={json.dumps(wl.sizes())}")
    print(f"# context {json.dumps(record['context'])}")
    print(f"# {'metric':44s} {'unit':>12s} {'median':>13s} {'q1':>13s} {'q3':>13s} {'n':>4s}")
    for name, s in summary.items():
        print(f"# {name:44s} {s['unit']:>12s} {s['median']:13.6g} {s['q1']:13.6g} "
              f"{s['q3']:13.6g} {s['n']:4d}")
    for line in tracer.notes + ledger.problems:
        print(f"# note: {line}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
