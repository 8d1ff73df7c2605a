#!/usr/bin/env python3
"""Time ops of two source trees side by side, in one process.

    python scripts/paired_ops.py PARENT_SRC CHANGE_SRC [--claim lemma2]
        [--n N1,N2,...] [--reps R] [--ops 30]
    python scripts/paired_ops.py PARENT_SRC CHANGE_SRC --csv [--ops 30]

Each ``*_SRC`` is a ``src`` directory holding a ``breslow_lab`` package; the
two are imported under their own module names, so both live in this process.
Op k runs ``rate-lab --claim C --truth reference --n N --reps R --seed k``
through each tree's ``cli.main``.  ``--n`` and ``--reps`` default to the
perfbench op of the claim (``BENCH_OPS``: theorem ``1000,8000`` with 3
replications, lemma2 ``8000,100000`` with 1), so ``--claim theorem`` alone
runs the theorem workload's op.  With ``--csv`` an op is one ``save_csv`` and
one ``load_csv`` of an analysis-shaped dataset drawn with seed k (8000 rows,
day-rounded tied times, one binary and two continuous covariates).  One
untimed warm-up op per tree runs first; the parent goes first when k is even
and the change first when k is odd.  Because the two sides of a pair run
seconds apart in the same process, machine drift that spreads separate
benchmark runs cancels out of their ratio.

Prints one JSON object: the median change/parent op-time ratio with its
quartiles, each side's median op time and minor page faults per op
(``getrusage``), and whether every op's artifacts were byte-identical between
the trees: every file ``rate-lab`` wrote, or the CSV file ``save_csv`` wrote
and the bytes of the arrays ``load_csv`` read back.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, as in the benchmark; the pools are sized when numpy loads.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402  (after the thread settings)


CSV_ROWS = 8000

# ``(--n, --reps)`` of the perfbench op of each claim that has one
# (perfbench/workloads.py: theorem-ref-n8000, lemma2-ref-n1e5).
BENCH_OPS = {"theorem": ("1000,8000", 3), "lemma2": ("8000,100000", 1)}


def load_package(src: Path, name: str):
    """The ``breslow_lab`` package under ``src``, imported as ``name``."""
    init = src / "breslow_lab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no breslow_lab package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def timed(call):
    """``(seconds, minor faults, result)`` of ``call()``."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    result = call()
    seconds = time.perf_counter() - start
    return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults, result


def run_op(cli, argv, out: Path):
    """``(seconds, minor faults, {file: bytes})`` of one ``cli.main`` call."""
    with contextlib.redirect_stdout(io.StringIO()):
        seconds, faults, code = timed(lambda: cli.main([*argv, "--output-dir", str(out)]))
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return seconds, faults, files


def analysis_arrays(seed: int):
    """``(times, events, covariates)`` of ``CSV_ROWS`` rows, times rounded up
    to whole days."""
    n = CSV_ROWS
    rng = np.random.default_rng(seed)
    times = np.ceil(rng.exponential(1.0, n) * 365.0) / 365.0
    covariates = np.column_stack([rng.integers(0, 2, n).astype(float),
                                  np.clip(rng.normal(size=(n, 2)), -2.0, 2.0)])
    return times, rng.random(n) < 0.7, covariates


def run_csv_op(package, arrays, out: Path):
    """``(seconds, minor faults, {name: bytes})`` of one ``save_csv`` and one
    ``load_csv`` of ``arrays``: the file and each array read back."""
    data = package.SurvivalDataset(*arrays)
    out.mkdir()
    path = out / "data.csv"

    def round_trip():
        package.save_csv(data, path)
        return package.load_csv(path)

    seconds, faults, back = timed(round_trip)
    files = {path.name: path.read_bytes()}
    for name in ("times", "events", "covariates"):
        array = getattr(back, name)
        files[name] = f"{array.dtype.str}{array.shape}".encode() + array.tobytes()
    return seconds, faults, files


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--claim", default="lemma2")
    parser.add_argument("--n", help="sample sizes (default: the claim's perfbench op)")
    parser.add_argument("--reps", type=int,
                        help="replications (default: the claim's perfbench op)")
    parser.add_argument("--ops", type=int, default=30)
    parser.add_argument("--csv", action="store_true",
                        help="time save_csv + load_csv instead of a rate-lab op")
    args = parser.parse_args(argv)
    if args.ops < 1:
        parser.error("--ops must be at least 1")
    if not args.csv and (args.n is None or args.reps is None):
        if args.claim not in BENCH_OPS:
            parser.error(f"--n and --reps are required for --claim {args.claim}")
        n, reps = BENCH_OPS[args.claim]
        args.n = n if args.n is None else args.n
        args.reps = reps if args.reps is None else args.reps
    packages = {side: load_package(src.resolve(), f"breslow_lab_{side}")
                for side, src in (("parent", args.parent_src), ("change", args.change_src))}
    if args.csv:
        command = f"save_csv + load_csv of {CSV_ROWS} analysis-shaped rows drawn with seed k"

        def op(side, seed, out):
            return run_csv_op(packages[side], analysis_arrays(seed), out)
    else:
        base = ["rate-lab", "--claim", args.claim, "--truth", "reference",
                "--n", args.n, "--reps", str(args.reps)]
        command = " ".join(base) + " --seed k"
        clis = {side: importlib.import_module(f"{package.__name__}.cli")
                for side, package in packages.items()}

        def op(side, seed, out):
            return run_op(clis[side], [*base, "--seed", str(seed)], out)
    times = {side: [] for side in packages}
    faults = {side: [] for side in packages}
    mismatched = []
    with tempfile.TemporaryDirectory() as tmp:
        for side in packages:
            op(side, 0, Path(tmp, f"warm-{side}"))
        for k in range(args.ops):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            files = {}
            for side in order:
                seconds, op_faults, files[side] = op(side, k, Path(tmp, f"op{k}-{side}"))
                times[side].append(seconds)
                faults[side].append(op_faults)
            if files["parent"] != files["change"]:
                mismatched.append(k)
    ratios = [c / p for c, p in zip(times["change"], times["parent"])]
    report = {
        "command": command,
        "ops": args.ops,
        "ratio_change_over_parent": quartiles(ratios) if args.ops > 1 else ratios[0],
        "op_s_median": {side: statistics.median(v) for side, v in times.items()},
        "minor_faults_per_op_median": {side: statistics.median(v) for side, v in faults.items()},
        "artifacts_identical": not mismatched,
        "mismatched_op_seeds": mismatched,
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
