"""sidephase benchmark: one workload, end-to-end or traced.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

The workload (see bench/workloads.py) is generated from --seed and run in a
closed loop, one client in this process, for --seconds.  It calls the
sidephase CLI entry point `sidephase.cli.main` and the library call
`register.ensemble_average_state` directly.  Every output is checked: exit
code 0, strict JSON (no NaN or Infinity tokens), well-formed CSV with the
expected row count, and bytes identical to the first, untraced run of the
same invocation.  Check invocations (the other --workers count of a Monte
Carlo shape) must match byte for byte as well.

--trace 0 reports the end-to-end metrics.  Loop timings are scaled by the
workload's calibration loop timed between iterations (bench/calibration.py),
and setup_s by a spin timed in each setup child on both sides of the import
(PROBE), so that the machine's speed drift cancels; the raw values are in
the full report.  --trace 1 runs half the time
untraced and half traced (bench/tracer.py wraps the program's public
functions from outside) and reports per-layer metrics, per workload
iteration, plus the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller report, with quartiles, sample
counts, the tail percentile used, failed_frac and the environment, is
printed before it and written with the spans under .perfbench_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout

# At most the threads a workload asks for: no BLAS or OpenMP pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import calibration  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_PROBES = 5  # fresh interpreters timed per run for setup_s
MIN_ITERATIONS = 3
MAX_SPANS = 100_000
# Setup probe: import the CLI and build its parser (via --help), and read the
# clock once that is done.  perf_counter is CLOCK_MONOTONIC, so the parent can
# subtract its own start time from it.  A pure-Python spin, timed just before
# and just after, is the child's calibration: the machine's speed changes
# within a second, and a sample on each side of the import tracks it best.
# The spin before the import is taken off the setup time.
PROBE = """
import time

def spin():
    start = time.perf_counter()
    total = 0
    for i in range(1_500_000):
        total += i * i
    return time.perf_counter() - start

before = spin()
from sidephase.cli import main
try:
    main(["--help"])
except SystemExit:
    pass
ready = time.perf_counter()
print(ready, before, spin())
"""
SPIN_REF_S = 0.24  # typical time of the two spins together

# (module, attribute path) of every traced function.
TARGETS = (
    ("cli", "main"),
    ("config", "read_channel_config"),
    ("config", "build_channel"),
    ("mechanisms", "channel_to_correlation"),
    ("mechanisms", "phonon_rate"),
    ("mechanisms", "debye_integral"),
    ("dephasing", "gamma_exact"),
    ("dephasing", "decoherence_time"),
    ("dephasing", "build_profile"),
    ("dephasing", "DecoherenceProfile.write_csv"),
    ("montecarlo", "generate_trajectory"),
    ("montecarlo", "accumulate_phase"),
    ("montecarlo", "ensemble_coherence"),
    ("montecarlo", "compare_to_analytic"),
    ("register", "ensemble_average_state"),
    ("register", "ErrorSampler.sample"),
    ("audit", "build_audit"),
)


# Result hooks: counts computed where the work happens.  Bytes are the
# array sizes crossing the traced Monte Carlo boundaries, computed from
# shapes; they ignore temporaries and cache misses.
def _on_trajectory(tracer, args, result):
    tracer.count("montecarlo.draws", result.size)
    tracer.count("montecarlo.bytes_moved_computed", result.nbytes)


def _on_phase(tracer, args, result):
    tracer.count("montecarlo.bytes_moved_computed", args[0].nbytes + result.nbytes)


def _on_ensemble(tracer, args, result):
    tracer.count("montecarlo.output_points", result.n_trajectories * len(result.times))


def _on_compare(tracer, args, result):
    tracer.gauge("montecarlo.max_z", result.max_z)


HOOKS = {
    "montecarlo.generate_trajectory": _on_trajectory,
    "montecarlo.accumulate_phase": _on_phase,
    "montecarlo.ensemble_coherence": _on_ensemble,
    "montecarlo.compare_to_analytic": _on_compare,
}


class OutputError(ValueError):
    """An output that fails a correctness check."""


def _reject_constant(token):
    raise OutputError(f"non-strict JSON token {token}")


def validate(output: workloads.Output, stdout: str) -> None:
    """Check one output; a CSV file is read line by line, so the benchmark's
    own buffers stay small next to the program's."""
    if output.fmt == "json":
        if output.path is None:
            text = stdout
        else:
            with open(output.path, encoding="utf-8") as fh:
                text = fh.read()
        try:
            payload = json.loads(text, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise OutputError(f"invalid JSON: {exc}") from exc
        if output.rows is not None and (not isinstance(payload, list) or len(payload) != output.rows):
            raise OutputError(f"expected a list of {output.rows} entries")
    elif output.fmt == "csv":
        with open(output.path, encoding="utf-8") as fh:
            header = fh.readline()
            if not header:
                raise OutputError("empty CSV")
            width = len(header.split(","))
            rows = 0
            for line in fh:
                cells = line.rstrip("\n").split(",")
                if len(cells) != width:
                    raise OutputError(f"ragged CSV row: {line!r}")
                for cell in cells:
                    if math.isnan(float(cell)):
                        raise OutputError(f"NaN in CSV row: {line!r}")
                rows += 1
        if output.rows is not None and rows != output.rows:
            raise OutputError(f"expected {output.rows} CSV rows, got {rows}")


def digest_output(digest, output: workloads.Output, stdout: str) -> int:
    """Feed one output, length-prefixed, to `digest` in chunks; its size."""
    if output.path is None:
        data = stdout.encode("utf-8")
        digest.update(len(data).to_bytes(8, "little") + data)
        return len(data)
    size = os.path.getsize(output.path)
    digest.update(size.to_bytes(8, "little"))
    with open(output.path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return size


class Runner:
    """Runs invocations, checks their outputs and keeps the samples."""

    def __init__(self, cli, register) -> None:
        self.cli = cli
        self.register = register
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[dict] = []
        self.tracer: Tracer | None = None
        self._invocation_id = 0

    def _call(self, inv: workloads.Invocation) -> tuple[float, float, str, str | None]:
        """(wall s, cpu s, stdout, error) of one call; only the call is timed."""
        buf = io.StringIO()
        error = None
        report = None
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            with redirect_stdout(buf):
                if inv.argv is not None:
                    code = self.cli.main(inv.argv)
                else:
                    sigma, seed, n = inv.register
                    sampler = self.register.ErrorSampler((sigma, sigma, sigma), seed)
                    report = self.register.ensemble_average_state(sampler, n)
                    code = 0
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failure of the program under test
            code = None
            error = traceback.format_exc()
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        if error is None and code != 0:
            error = f"exit code {code}"
        stdout = buf.getvalue()
        if report is not None:
            stdout = json.dumps(report.to_json_dict(), sort_keys=True) + "\n"
        return wall, cpu, stdout, error

    def run(self, inv: workloads.Invocation, same_as: str | None = None) -> dict:
        """Call once and check; the first call of a label sets its reference."""
        self.attempted += 1
        self._invocation_id += 1
        if self.tracer is not None:
            self.tracer.invocation = self._invocation_id
        wall, cpu, stdout, error = self._call(inv)
        size = 0
        if error is None:
            digest = hashlib.sha256()
            reference_key = same_as or inv.label
            try:
                for output in inv.outputs:
                    size += digest_output(digest, output, stdout)
                    if reference_key not in self.reference:
                        validate(output, stdout)
            except (OSError, UnicodeDecodeError, ValueError) as exc:
                error = f"{type(exc).__name__}: {exc}"
            else:
                expected = self.reference.setdefault(reference_key, digest.hexdigest())
                if expected != digest.hexdigest():
                    error = f"output differs from the reference run of {reference_key}"
        if error is not None:
            self.failures.append({"invocation": inv.label, "error": error})
        return {"label": inv.label, "wall": wall, "cpu": cpu, "bytes": size, "work": inv.work}

    def iteration(self, workload: workloads.Workload) -> dict:
        calls = [self.run(inv) for inv in workload.invocations]
        work_wall = sum(c["wall"] for c in calls if c["work"])
        return {
            "wall": sum(c["wall"] for c in calls),
            "cpu": sum(c["cpu"] for c in calls),
            "work": sum(c["work"] for c in calls),
            "work_wall": work_wall,
            "bytes": sum(c["bytes"] for c in calls),
            "calls": calls,
        }

    def loop(self, workload: workloads.Workload, seconds: float, calibrate: bool, on_iteration=None) -> list[dict]:
        """Closed loop: iterations until `seconds` pass and MIN_ITERATIONS ran.

        With `calibrate`, a sample of the workload's calibration loop is
        timed between iterations; each iteration keeps the mean wall and CPU
        seconds of the samples before and after it as "cal" and "cal_cpu".
        """
        sample = calibration.LOOPS[workload.calibration]
        iterations = []
        deadline = time.perf_counter() + seconds
        cal = sample() if calibrate else None
        while len(iterations) < MIN_ITERATIONS or time.perf_counter() < deadline:
            iteration = self.iteration(workload)
            if cal is not None:
                cal_after = sample()
                iteration["cal"] = 0.5 * (cal[0] + cal_after[0])
                iteration["cal_cpu"] = 0.5 * (cal[1] + cal_after[1])
                cal = cal_after
            iterations.append(iteration)
            if on_iteration is not None:
                on_iteration(iteration)
        return iterations


def end_to_end(iterations: list[dict], cal_ref: tuple[float, float] | None) -> dict:
    """Timing metrics over the loop's iterations.

    With `cal_ref` = (wall, cpu), each iteration's wall times are scaled by
    wall / (its calibration wall time) and its CPU time by cpu / (its
    calibration CPU time), see bench/calibration.py.  Without it, raw times.
    call_p50_ms is the median over the workload's invocations of each one's
    median latency, so that no mix of fast and slow calls sets it by their
    tails; call_tail_ms pools every call.
    """
    scales = [cal_ref[0] / it["cal"] if cal_ref else 1.0 for it in iterations]
    cpu_scales = [cal_ref[1] / it["cal_cpu"] if cal_ref else 1.0 for it in iterations]
    calls: dict[str, list[float]] = {}
    for it, k in zip(iterations, scales):
        for c in it["calls"]:
            calls.setdefault(c["label"], []).append(1e3 * c["wall"] * k)
    return {
        "wall_s": summary([it["wall"] * k for it, k in zip(iterations, scales)], "s"),
        "cpu_s": summary([it["cpu"] * k for it, k in zip(iterations, cpu_scales)], "s"),
        "work_per_s": summary([it["work"] / (it["work_wall"] * k) for it, k in zip(iterations, scales)], "1/s"),
        "call_p50_ms": summary([statistics.median(v) for v in calls.values()], "ms"),
        "call_tail_ms": tail([v for values in calls.values() for v in values], "ms"),
    }


def summary(values: list[float], unit: str) -> dict:
    """Median with quartiles and sample count."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"value": med, "q1": q1, "q3": q3, "n": len(values), "unit": unit}


def tail(values: list[float], unit: str) -> dict:
    """Highest percentile, up to p99, with at least ten samples beyond it.

    With n samples that is percentile min(99, 100 (n - 10) / n); with ten
    samples or fewer it is the maximum.  The p99 cap keeps a workload with
    thousands of calls from reporting only the host's rarest stalls.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return {"value": ordered[-1], "percentile": 100.0, "beyond": 0, "n": n, "unit": unit}
    pct = min(99.0, 100.0 * (n - 10) / n)
    rank = math.ceil(pct / 100.0 * n - 1e-9)
    return {"value": ordered[rank - 1], "percentile": pct, "beyond": n - rank, "n": n, "unit": unit}


def measure_setup(root: str, probes: int, importtime: bool):
    """Time fresh interpreters importing sidephase.cli and building the parser.

    One child at a time.  A child's time runs from its start to the clock
    reading it prints once the parser is built, less its first spin (see
    PROBE).  Returns the times, the children's spin times (both spins
    together), per-child import times and error messages.  With
    `importtime`, each child also reports cumulative import seconds per
    sidephase module (python -X importtime).
    """
    env = dict(os.environ)
    paths = [os.path.join(root, "src"), BENCH_DIR] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", PROBE]
    times, cals, imports, errors = [], [], [], []
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=120)
        try:
            ready, before, after = map(float, proc.stdout.splitlines()[-1].split())
        except (IndexError, ValueError):
            errors.append(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
            continue
        if proc.returncode != 0:
            errors.append(proc.stderr[-2000:])
        times.append(ready - start - before)
        cals.append(before + after)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[2].strip().startswith("sidephase"):
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        imports.append(cumulative)
    return times, cals, imports, errors


def _read_first(path: str, prefix: str) -> str:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _last_level_cache() -> str:
    best = (0, "unknown")
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = os.listdir(base)
    except OSError:
        return best[1]
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, size))
    return best[1]


def environment(root: str, seed: int, workload: workloads.Workload) -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    package = os.path.join(root, "src", "sidephase")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "last_level_cache": _last_level_cache(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload_seed": seed,
        "threads": workload.threads,
    }


def trace_targets(modules: dict) -> list[tuple]:
    targets = []
    for module_name, path in TARGETS:
        owner = modules[module_name]
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        name = f"{module_name}.{path}"
        targets.append((name, owner, attr, HOOKS.get(name)))
    return targets


def per_layer(snapshots: list[dict], iterations: list[dict], extra: dict) -> dict:
    """Per-iteration layer metrics: medians over traced iterations."""
    metrics = {}

    def put(name, values, unit):
        metrics[name] = summary(values, unit)

    for module_name, path in TARGETS:
        name = f"{module_name}.{path}"
        rows = [snap["totals"].get(name, [0, 0.0, 0.0]) for snap in snapshots]
        put(f"{name}.calls", [r[0] for r in rows], "count")
        put(f"{name}.s", [r[1] for r in rows], "s")
        put(f"{name}.self_s", [r[2] for r in rows], "s")
    for name in ("montecarlo.generate_trajectory", "register.ErrorSampler.sample"):
        rows = [snap["totals"].get(name, [0, 0.0, 0.0]) for snap in snapshots]
        put(f"{name}.us_per_call", [1e6 * r[1] / r[0] if r[0] else 0.0 for r in rows], "us")
    counts = [snap["counts"] for snap in snapshots]
    draws = [c.get("montecarlo.draws", 0) for c in counts]
    points = [c.get("montecarlo.output_points", 0) for c in counts]
    put("montecarlo.draws", draws, "count")
    put("montecarlo.useful_ratio", [p / d if d else 0.0 for p, d in zip(points, draws)], "ratio")
    put("montecarlo.bytes_moved_computed", [c.get("montecarlo.bytes_moved_computed", 0) for c in counts], "B")
    put("montecarlo.max_z", [c.get("montecarlo.max_z", 0.0) for c in counts], "z")
    put("cli.bytes_out", [it["bytes"] for it in iterations], "B")
    metrics.update(extra)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sidephase", "cli.py")):
        print("error: run from the repository root (src/sidephase not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    run_dir = os.path.join(
        root, ".perfbench_work", f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    )
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    out_dir = os.path.join(run_dir, "out")
    os.makedirs(out_dir)
    try:
        return _run(args, root, run_dir, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _run(args, root: str, run_dir: str, out_dir: str) -> int:
    traced = bool(args.trace)
    setup_times, setup_cals, setup_imports, setup_errors = measure_setup(
        root, 1 if args.tiny else SETUP_PROBES, importtime=traced
    )

    from sidephase import audit, cli, config, dephasing, mechanisms, montecarlo, register

    modules = {
        "cli": cli, "config": config, "mechanisms": mechanisms, "dephasing": dephasing,
        "montecarlo": montecarlo, "register": register, "audit": audit,
    }
    if not cli.__file__.startswith(os.path.join(root, "src")):
        print(f"error: imported sidephase from {cli.__file__}, not from src/", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed, "tiny" if args.tiny else "full", out_dir)
    runner = Runner(cli, register)
    runner.attempted += len(setup_times) + len(setup_errors)
    runner.failures += [{"invocation": "setup", "error": e} for e in setup_errors]

    # Reference pass: first call of each invocation, untraced, fully validated;
    # it also lets caches fill and lazy set-up finish before timing.
    runner.iteration(workload)
    check_walls = {c.invocation.label: runner.run(c.invocation, c.same_as)["wall"] for c in workload.checks}

    report: dict = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root, args.seed, workload),
    }
    if not traced:
        iterations = runner.loop(workload, args.seconds, True)
        metrics = end_to_end(iterations, calibration.REF_S[workload.calibration])
        metrics["setup_s"] = summary([t * SPIN_REF_S / c for t, c in zip(setup_times, setup_cals)], "s")
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        }
        # Kept out of the result line: on a shared host its run-to-run spread
        # (0.13-0.33 over ten seeds) can exceed the largest bound allowed.
        report["call_tail_ms"] = metrics.pop("call_tail_ms")
        report["work_unit"] = workload.work_unit
        report[f"{workload.work_unit}_per_s"] = metrics["work_per_s"]
        report["uncalibrated"] = end_to_end(iterations, None)
        report["uncalibrated"]["setup_s"] = summary(setup_times, "s")
        report["calibration_s"] = summary([it["cal"] for it in iterations], "s")
        report["calibration_cpu_s"] = summary([it["cal_cpu"] for it in iterations], "s")
        report["check_walls_s"] = check_walls
    else:
        half = args.seconds / 2.0
        untraced = runner.loop(workload, half, False)
        tracer = Tracer(MAX_SPANS)
        runner.tracer = tracer
        tracer.install(trace_targets(modules))
        snapshots = []

        def snapshot(_iteration):
            snapshots.append({"totals": tracer.totals, "counts": tracer.counts})
            tracer.reset_totals()

        try:
            tracer.reset_totals()
            traced_iterations = runner.loop(workload, half, False, snapshot)
            # The other worker count of each Monte Carlo shape, traced once.
            check_totals = {}
            for check in workload.checks:
                runner.run(check.invocation, check.same_as)
                check_totals[check.invocation.label] = tracer.totals
                tracer.reset_totals()
        finally:
            tracer.uninstall()
            runner.tracer = None
        tracer.write_spans(os.path.join(run_dir, "spans.csv"))

        untraced_wall = summary([it["wall"] for it in untraced], "s")
        traced_wall = summary([it["wall"] for it in traced_iterations], "s")
        extra = {
            "trace.untraced_wall_s": untraced_wall,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_s": {"value": traced_wall["value"] - untraced_wall["value"], "unit": "s"},
        }
        # One Monte Carlo call at 1 and at 2 workers: the workload's own shape
        # (untraced wall from the loop, layers from each traced iteration)
        # and its check (untraced wall from the reference pass, layers from
        # the traced rerun).  Workloads without Monte Carlo report zeros.
        mc = {}
        for inv in workload.invocations:
            if inv.argv and inv.argv[0] == "montecarlo":
                walls = [c["wall"] for it in untraced for c in it["calls"] if c["label"] == inv.label]
                mc[inv.threads] = (statistics.median(walls), [s["totals"] for s in snapshots])
        for check in workload.checks:
            label = check.invocation.label
            mc[check.invocation.threads] = (check_walls[label], [check_totals[label]])
        w1_wall, w1_layers = mc.get(1, (0.0, [{}]))
        w2_wall = mc.get(2, (0.0, None))[0]
        extra["montecarlo.w1.wall_s"] = {"value": w1_wall, "unit": "s"}
        extra["montecarlo.w2.wall_s"] = {"value": w2_wall, "unit": "s"}
        extra["montecarlo.speedup_2w"] = {"value": w1_wall / w2_wall if w2_wall else 0.0, "unit": "ratio"}
        for name in ("generate_trajectory", "accumulate_phase"):
            values = [t.get(f"montecarlo.{name}", [0, 0.0, 0.0])[1] for t in w1_layers]
            extra[f"montecarlo.w1.{name}.s"] = summary(values, "s")
        for module_name in ("cli", "mechanisms", "montecarlo"):
            values = [imp.get(f"sidephase.{module_name}", 0.0) for imp in setup_imports]
            extra[f"setup.{module_name}_import_s"] = summary(values, "s")
        extra["trace.spans_kept"] = {"value": len(tracer.spans), "unit": "count"}
        extra["trace.spans_dropped"] = {"value": tracer.dropped, "unit": "count"}
        metrics = per_layer(snapshots, traced_iterations, extra)

    failed = len(runner.failures)
    report["attempted"] = runner.attempted
    report["failed"] = failed
    report["failed_frac"] = failed / runner.attempted
    report["failures"] = runner.failures[:20]
    report["metrics"] = metrics
    with open(os.path.join(run_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps(report, indent=1, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
