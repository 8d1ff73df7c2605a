#!/usr/bin/env python3
"""Benchmark of breslow-lab: one workload, one process, one thread.

Usage, from the repository root:

    python3 perfbench/run.py --workload theorem-ref-n8000 --seed 1 --seconds 20 --trace 0

The workload runs as a closed loop (the next op starts when the previous one
returns) for ``--seconds`` seconds; every op is checked against the
reference outputs in ``perfbench/refs``.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it records the machine and
versions.  See ``perfbench/README.md`` for the workloads and metrics.
"""

import time

_START = time.perf_counter()

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
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_tmp"
TRACE_DIR = ROOT / ".perfbench_out"

# One thread: BLAS pools must be sized before numpy is imported.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_ENV:
    os.environ[_name] = "1"

# On a virtual machine that shares its host, speed can drift by about 25 % over
# minutes, so raw op times spread between runs by more than any useful bound.
# Each op time is therefore scaled by the reference time of a fixed
# calibration kernel over its time measured next to the op; raw times go to
# the info line.  The drift slows interpreter-bound and vectorized code by
# different amounts, so each workload names the kernel like its hot path.
# Kernel samples on each side of an op that its calibration time is the median of.
CAL_WINDOW = 4
# Set-up is measured this many times per run (this process plus fresh child
# processes) and reported as the median.
SETUP_REPEATS = 3
# The tail percentile is the highest one with at least this many samples above it.
TAIL_BEYOND = 10
EXIT_NO_PACKAGE = 2
EXIT_NO_RESULT = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="breslow-lab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and print its duration (used for repeats)")
    return parser.parse_args(argv)


def import_package():
    """Import breslow_lab from this checkout's ``src``, never from elsewhere."""
    init = SRC / "breslow_lab" / "__init__.py"
    if not init.is_file():
        raise ImportError(f"{init} not found: run from a checkout of breslow-lab")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import breslow_lab

    if Path(breslow_lab.__file__).resolve() != init.resolve():
        raise ImportError(f"breslow_lab imported from {breslow_lab.__file__}, not {init}")


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


class Calibration:
    """Fixed work that calls no package code; its duration tracks the
    machine's current speed for one kind of code.

    ``dispatch``: a compensated running sum over rows of six floats, the
    small-array numpy pattern of the risk engine's hot loop.  ``vector``: an
    interpreter loop plus exp and a dot product over 4M floats, like the truth
    functionals' quadrature.  ``REF_S`` is each kernel's time on a quiet
    machine.
    """

    REF_S = {"dispatch": 0.015, "vector": 0.060}

    def __init__(self, kind: str):
        import numpy as np

        self._np = np
        self.kind = kind
        self.ref_s = self.REF_S[kind]
        self.rows = np.linspace(0.0, 1.0, 6 * 8000).reshape(8000, 6)

    def __call__(self) -> float:
        np = self._np
        start = time.perf_counter()
        if self.kind == "dispatch":
            acc = np.zeros(6)
            comp = np.zeros(6)
            for row in self.rows:
                y = row - comp
                t = acc + y
                comp = (t - acc) - y
                acc = t
        else:
            total = 0
            for i in range(300_000):
                total += i
            # Allocated per call so that the kernel adds nothing to the ops' peak RSS.
            x = np.linspace(0.0, 1.0, 1 << 22)
            for _ in range(2):
                float(np.exp(-x) @ x)
        return time.perf_counter() - start


def run_op(wl, state, k, refs, tracer=None):
    """Run op k; returns (seconds, result, problem).  ``problem`` is None when
    the op exited cleanly and matched its reference."""
    out, args = wl.prepare(state, k)
    seconds = float("nan")
    try:
        ctx = tracer.span_op(k) if tracer is not None else contextlib.nullcontext()
        start = time.perf_counter()
        with ctx:
            raw = wl.execute(args)
        seconds = time.perf_counter() - start
        result = wl.collect(out, raw)
        problems = wl.check(result, refs[str(wl.op_seed(state, k))])
        return seconds, result, "; ".join(problems[:3]) if problems else None
    except Exception as exc:  # an op that raises is a failed op; the loop goes on
        return seconds, None, f"{type(exc).__name__}: {exc}"
    finally:
        if out is not None:
            shutil.rmtree(out, ignore_errors=True)


def tail(times):
    """Highest percentile with at least TAIL_BEYOND samples above it, as
    (value, percentile, samples above); the maximum if there are too few."""
    ordered = sorted(times)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    i = len(ordered) - 1 - TAIL_BEYOND
    return ordered[i], 100.0 * i / (len(ordered) - 1), TAIL_BEYOND


def repeat_setup(args) -> list[float]:
    """Set-up time of fresh processes, each from its start to its warm-up's end."""
    samples = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up repeat failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def end_to_end_metrics(times, cals, ref_s, setup_samples, attempted, failed) -> dict:
    """Op times are in reference seconds: each scaled by the calibration
    kernel's reference time over its time measured around the op."""
    scaled = [t * ref_s / c for t, c in zip(times, cals)]
    tail_s, _, _ = tail(scaled)
    return {
        "ops_per_s": (len(scaled) / sum(scaled), "1/ref_s"),
        "op_s_p50": (statistics.median(scaled), "ref_s"),
        "op_s_tail": (tail_s, "ref_s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_frac": ((attempted - failed) / attempted, "ratio"),
    }


def layer_metrics(tracer, traced_times, untraced_times, extras) -> dict:
    from spans import QUADRATURE_POINTS_PER_QUERY

    lm = tracer.layer_metrics()

    def s(name):
        return (lm["s"].get(name, 0.0), "s")

    def calls(name):
        return (lm["calls"].get(name, 0), "count")

    def count(name):
        return (lm["counts"].get(name, 0), "count")

    fits = lm["calls"].get("coxfit.fit_mple", 0)
    builds_in_fit = tracer.builds_in_fit()
    per_op = [v for op, v in tracer.per_op().items() if isinstance(op, int)]
    wall = sum(w for w, _ in per_op)
    covered = sum(c for _, c in per_op)
    traced_p50 = statistics.median(traced_times)
    untraced_p50 = statistics.median(untraced_times)
    metrics = {
        "risk.build_aggregates.s": s("risk.build_aggregates"),
        "risk.build_aggregates.calls": calls("risk.build_aggregates"),
        "risk.build_aggregates.rows": count("risk.build_aggregates.rows"),
        "risk.lookup.s": s("risk.lookup"),
        "risk.lookup.calls": calls("risk.lookup"),
        "coxfit.builds_per_fit": (builds_in_fit / fits if fits else 0.0, "ratio"),
        "coxfit.builds_in_fit": (builds_in_fit, "count"),
        "coxfit.fit_mple.s": s("coxfit.fit_mple"),
        "coxfit.fit_mple.calls": calls("coxfit.fit_mple"),
        "coxfit.newton_iterations": count("coxfit.newton_iterations"),
        "coxfit.log_partial_likelihood.calls": calls("coxfit.log_partial_likelihood"),
        "coxfit.score_and_information.calls": calls("coxfit.score_and_information"),
        "coxfit.score_residuals.s": s("coxfit.score_residuals"),
        "coxfit.fit_failed": count("coxfit.fit_failed"),
    }
    for name in ("breslow_traditional", "breslow_plugin", "a_n_curve"):
        metrics[f"breslow.{name}.s"] = s(f"breslow.{name}")
        metrics[f"breslow.{name}.calls"] = calls(f"breslow.{name}")
    for name in ("xi_plugin", "variance_estimate", "xi_truth_mean", "t2_terms"):
        metrics[f"linearize.{name}.s"] = s(f"linearize.{name}")
    for name in ("hazard_over_phi", "h_uc", "a0", "phi", "d1"):
        metrics[f"truth.{name}.s"] = s(f"truth.{name}")
        metrics[f"truth.{name}.points"] = count(f"truth.{name}.points")
    eval_points = lm["counts"].get("quadrature.eval.points", 0)
    metrics.update({
        "truth.generate_dataset.s": s("truth.generate_dataset"),
        "truth.generate_dataset.calls": calls("truth.generate_dataset"),
        "quadrature.build.s": s("quadrature.build"),
        "quadrature.build.calls": calls("quadrature.build"),
        "quadrature.panels": count("quadrature.panels"),
        "quadrature.eval.s": s("quadrature.eval"),
        "quadrature.eval.points": (eval_points, "count"),
        "quadrature.integrand_points": (eval_points * QUADRATURE_POINTS_PER_QUERY, "count"),
        "data.load_csv.s": s("data.load_csv"),
        "data.save_csv.s": s("data.save_csv"),
        "data.rows_loaded": count("data.rows_loaded"),
        "data.dataset.s": s("data.dataset"),
        "data.sorted_view.s": s("data.sorted_view"),
        "experiments.theorem.s": s("experiments.theorem"),
        "experiments.lemma2.s": s("experiments.lemma2"),
        "experiments.excluded": (extras["excluded"], "count"),
        "cli.main.s": s("cli.main"),
        "cli.bytes_written": (extras["bytes_written"], "count"),
        "trace.ops": (len(traced_times), "count"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.op_s_p50": (traced_p50, "s"),
        "trace.untraced_op_s_p50": (untraced_p50, "s"),
        "trace.overhead_s": (traced_p50 - untraced_p50, "s"),
        "trace.accounted_frac": (covered / wall if wall else 0.0, "ratio"),
    })
    return metrics


def measure(args, wl, refs, workdir) -> int:
    from spans import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    state = wl.setup(wl.op_seeds(args.seed), workdir, tracer)
    _, _, warm_problem = run_op(wl, state, 0, refs)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        # The warm-up's correctness is judged by the process that reports metrics.
        print(json.dumps({"setup_s": setup_s}))
        return 0

    attempted, failed = 1, int(warm_problem is not None)
    problems = [f"warm-up: {warm_problem}"] if warm_problem else []
    times, timed_ops, traced_times = [], [], []
    extras = {"excluded": 0, "bytes_written": 0}
    first_artifacts = None

    def record(k, seconds, result, problem, into):
        nonlocal attempted, failed, first_artifacts
        attempted += 1
        if seconds == seconds:  # not NaN: the op returned, even if its output is wrong
            into.append(seconds)
            if into is times:
                timed_ops.append(k)
        if problem is not None:
            failed += 1
            problems.append(f"op {k} (op seed {wl.op_seed(state, k)}): {problem}")
            return
        if into is traced_times:
            extras["excluded"] += result.get("excluded", 0)
            extras["bytes_written"] += result.get("bytes_written", 0)
        if k == 0 and first_artifacts is None and "artifacts" in result:
            first_artifacts = result["artifacts"]

    calibrate = Calibration(wl.calibration) if tracer is None else None
    # cal_samples[k] is taken just before op k and cal_samples[k + 1] just after.
    cal_samples = [calibrate()] if calibrate else []
    start = time.perf_counter()
    k = 0
    while True:
        record(k, *run_op(wl, state, k, refs), times)
        if calibrate is not None:
            cal_samples.append(calibrate())
        if tracer is not None:
            # Same inputs again, traced: the pair gives the tracing overhead.
            record(k, *run_op(wl, state, k, refs, tracer), traced_times)
        k += 1
        if time.perf_counter() - start >= args.seconds:
            break
    if not times or (tracer is not None and not traced_times):
        for line in problems[:20]:
            print(line, file=sys.stderr)
        print("perfbench: no op returned; nothing to measure", file=sys.stderr)
        return EXIT_NO_RESULT

    if first_artifacts is not None:
        # Determinism probe: op 0 again must write byte-identical artifacts.
        _, probe, problem = run_op(wl, state, 0, refs)
        attempted += 1
        if problem is None and probe["artifacts"] != first_artifacts:
            problem = "artifacts differ from the first run of op 0"
        if problem is not None:
            failed += 1
            problems.append(f"determinism probe: {problem}")

    info = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "ops": len(times), "op_seeds": [wl.op_seed(state, i) for i in range(min(k, 8))],
            **environment()}
    if tracer is None:
        setup_samples = [setup_s] + repeat_setup(args)
        # The median of the kernel times around each op follows the machine's
        # drift over seconds without the noise of single samples.
        cals = [statistics.median(cal_samples[max(0, k - CAL_WINDOW): k + CAL_WINDOW + 2])
                for k in timed_ops]
        metrics = end_to_end_metrics(times, cals, calibrate.ref_s, setup_samples, attempted, failed)
        raw_tail, pct, beyond = tail(times)
        info.update(setup_samples=setup_samples, tail_percentile=pct, tail_samples_beyond=beyond,
                    raw_ops_per_s=len(times) / sum(times), raw_op_s_p50=statistics.median(times),
                    raw_op_s_tail=raw_tail, calibration=calibrate.kind,
                    calibration_s_p50=statistics.median(cal_samples))
    else:
        metrics = layer_metrics(tracer, traced_times, times, extras)
        trace_path = TRACE_DIR / f"trace-{wl.name}-seed{args.seed}.json"
        tracer.write(trace_path)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    if problems:
        info["problems"] = problems[:20]
        for line in problems[:20]:
            print(line, file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return EXIT_NO_PACKAGE
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"options: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return EXIT_NO_PACKAGE
    wl = workloads.WORKLOADS[args.workload]
    refs = workloads.load_refs(wl.name)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        return measure(args, wl, refs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


if __name__ == "__main__":
    sys.exit(main())
