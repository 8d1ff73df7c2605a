#!/usr/bin/env python3
"""Time ops of two source trees side by side, in one process.

    python scripts/paired_ops.py PARENT_SRC CHANGE_SRC [--claim lemma2]
        [--n N1,N2,...] [--reps R] [--ops 30]
    python scripts/paired_ops.py PARENT_SRC CHANGE_SRC --csv [--ops 30]
    python scripts/paired_ops.py PARENT_SRC CHANGE_SRC --analysis [--ops 30]

Each ``*_SRC`` is a ``src`` directory holding a ``breslow_lab`` package; the
two are imported under their own module names, so both live in this process,
and ``perfbench/workloads.py`` is loaded once against each of them.  Every op
is the one that module defines.  Op k is an op of ``RateLabWorkload``:
``rate-lab --claim C --truth reference --n N --reps R --seed k`` through the
tree's ``cli.main``.  ``--n`` and ``--reps`` default to those of the claim's
workload in ``WORKLOADS`` (theorem ``1000,8000`` with 3 replications, lemma2
``8000,100000`` with 1), so ``--claim theorem`` alone runs the theorem
workload's op.  With ``--analysis`` op k is the op of the
analysis-p3-ties-n8000 workload on dataset k mod 8 of that workload's set-up
at workload seed 1 (the fit, both Breslow forms with their 1e-10
cross-check, ``A_n``, ``xi_plugin`` and ``variance_estimate``); the parent
tree runs the set-up once, and both trees' ops read its arrays.  With
``--csv`` op k is one ``save_csv`` and one ``load_csv`` of that same dataset.
One untimed warm-up op per tree runs first; the parent goes first when k is
even and the change first when k is odd.  Because the two sides of a pair
run seconds apart in the same process, machine drift that spreads separate
benchmark runs cancels out of their ratio.

Prints one JSON object: the median change/parent op-time ratio with its
quartiles, each side's median op time and minor page faults per op
(``getrusage``), and whether every op's artifacts were byte-identical between
the trees: every file ``rate-lab`` wrote, the CSV file ``save_csv`` wrote
and the arrays ``load_csv`` read back, or the arrays the analysis op
returned (coefficients, log-likelihood, information, the Breslow curve and
its jump times, the forms' gap, ``A_n`` and both variance curves).  When
they were not, ``max_rel_diff`` sizes the change in one run: for every
artifact array, CSV column (``file:column``) or JSON file (all its numbers
in document order) that differed in some op, the largest
``|change - parent| / max(|change|, |parent|)`` over those ops, or null where
the two sides do not compare as numbers (a column that does not parse, a
changed shape or a file on one side only).
"""

import argparse
import csv
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


WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
ANALYSIS = "analysis-p3-ties-n8000"
# Workload seed of the set-up whose datasets the --analysis and --csv ops read.
ANALYSIS_WORKLOAD_SEED = 1


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


def load_workloads(package):
    """``perfbench/workloads.py`` loaded against ``package``: while it loads,
    ``breslow_lab`` and ``breslow_lab.cli`` in ``sys.modules`` are ``package``
    and its ``cli``, and they are restored afterwards."""
    bound = {"breslow_lab": package,
             "breslow_lab.cli": importlib.import_module(f"{package.__name__}.cli")}
    saved = {name: sys.modules[name] for name in bound if name in sys.modules}
    spec = importlib.util.spec_from_file_location(f"{package.__name__}_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    try:
        sys.modules.update(bound)
        spec.loader.exec_module(module)
    finally:
        for name in bound:
            if name in saved:
                sys.modules[name] = saved[name]
            else:
                del sys.modules[name]
    return module


def timed(call):
    """``(seconds, minor faults, result)`` of ``call()``."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    result = call()
    seconds = time.perf_counter() - start
    return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults, result


def artifact_bytes(value) -> bytes:
    """The bytes two sides must share: an array's dtype, shape and data, or a
    file's contents."""
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}".encode() + value.tobytes()
    return value


def json_numbers(node):
    """The numbers of a parsed JSON document, in document order."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            yield from json_numbers(item)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield float(node)


def numeric_columns(name: str, value) -> dict:
    """``{label: float array or None}`` of one artifact: an array as itself, a
    CSV file column by column (``file:column``), a JSON file as all its
    numbers; None where the contents do not parse as numbers."""
    if isinstance(value, np.ndarray):
        return {name: value.astype(float).ravel()}
    try:
        text = value.decode()
        if name.endswith(".json"):
            return {name: np.array(list(json_numbers(json.loads(text))))}
        if not name.endswith(".csv"):
            return {name: None}
        header, *rows = csv.reader(io.StringIO(text))
    except (UnicodeDecodeError, ValueError):
        return {name: None}
    columns = {}
    for j, column in enumerate(header):
        try:
            columns[f"{name}:{column}"] = np.array([float(row[j]) for row in rows])
        except (ValueError, IndexError):
            columns[f"{name}:{column}"] = None
    return columns


def relative_differences(parent: dict, change: dict) -> dict:
    """``{label: largest relative difference or None}`` over the artifacts of
    one op whose bytes differ: the labels whose numbers differ, or the
    artifact's name with 0.0 when only its bytes do.  Empty when every
    artifact is byte-identical."""
    out = {}
    for name in sorted(parent.keys() | change.keys()):
        if not (name in parent and name in change):
            out[name] = None
            continue
        sides = parent[name], change[name]
        if artifact_bytes(sides[0]) == artifact_bytes(sides[1]):
            continue
        a_cols, b_cols = (numeric_columns(name, side) for side in sides)
        found = {}
        for label in sorted(a_cols.keys() | b_cols.keys()):
            a, b = a_cols.get(label), b_cols.get(label)
            if a is None or b is None or a.shape != b.shape:
                found[label] = None
                continue
            with np.errstate(invalid="ignore", divide="ignore"):
                rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
            rel[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
            worst = float(np.max(rel, initial=0.0))
            if worst:
                found[label] = None if np.isnan(worst) else worst
        out.update(found or {name: 0.0})
    return out


def run_csv_op(package, arrays, workdir: Path):
    """``(seconds, minor faults, {name: artifact})`` of one ``save_csv`` and
    one ``load_csv`` of ``arrays``: the file's bytes and each array read back."""
    data = package.SurvivalDataset(*arrays)
    path = Path(tempfile.mkdtemp(dir=workdir)) / "data.csv"

    def round_trip():
        package.save_csv(data, path)
        return package.load_csv(path)

    seconds, faults, back = timed(round_trip)
    files = {path.name: path.read_bytes()}
    for name in ("times", "events", "covariates"):
        files[name] = getattr(back, name)
    return seconds, faults, files


def analysis_artifacts(workloads, result) -> dict:
    """``{name: array}`` of what one analysis op returned; raises
    ``SystemExit`` when its fit did not converge or its two Breslow forms
    disagree."""
    fit = result["fit"]
    if not fit.converged:
        raise SystemExit(f"fit status {fit.status}")
    gap = result["form_gap"]
    if not gap <= workloads.FORM_IDENTITY_RTOL:
        raise SystemExit(f"Breslow forms disagree: relative gap {gap:.3e}")
    breslow = result["breslow"].curve
    return {
        "beta_hat": fit.beta_hat,
        "log_partial_likelihood": np.array(fit.log_partial_likelihood),
        "information": fit.information,
        "breslow": breslow.cumulative_values,
        "breslow_jump_times": breslow.jump_times,
        "form_gap": np.array(gap),
        "a_n": result["a_curve"].curve.cumulative_values,
        "variance_total": result["curves"].total,
        "variance_xi_only": result["curves"].xi_only,
    }


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
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--csv", action="store_true",
                      help="time save_csv + load_csv instead of a rate-lab op")
    mode.add_argument("--analysis", action="store_true",
                      help="time the analysis workload's op instead of a rate-lab op")
    args = parser.parse_args(argv)
    if args.ops < 1:
        parser.error("--ops must be at least 1")
    packages = {side: load_package(src.resolve(), f"breslow_lab_{side}")
                for side, src in (("parent", args.parent_src), ("change", args.change_src))}
    workloads = {side: load_workloads(package) for side, package in packages.items()}
    bench = workloads["parent"]
    if not (args.csv or args.analysis):
        claims = {wl.claim: wl for wl in bench.WORKLOADS.values()
                  if isinstance(wl, bench.RateLabWorkload)}
        if (args.n is None or args.reps is None) and args.claim not in claims:
            parser.error(f"--n and --reps are required for --claim {args.claim}")
        n = claims[args.claim].sizes if args.n is None else args.n
        reps = claims[args.claim].reps if args.reps is None else args.reps
        command = f"rate-lab --claim {args.claim} --truth reference --n {n} --reps {reps} --seed k"
    times = {side: [] for side in packages}
    faults = {side: [] for side in packages}
    mismatched = []
    max_rel_diff = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        if args.csv or args.analysis:
            analysis = bench.WORKLOADS[ANALYSIS]
            state = analysis.setup(analysis.op_seeds(ANALYSIS_WORKLOAD_SEED), workdir)
        if args.csv:
            command = (f"save_csv + load_csv of {analysis.n} rows: {ANALYSIS} dataset k mod "
                       f"{analysis.datasets} at workload seed {ANALYSIS_WORKLOAD_SEED}")

            def op(side, k):
                return run_csv_op(packages[side], analysis.prepare(state, k)[1], workdir)
        elif args.analysis:
            command = (f"analysis op of {ANALYSIS} on dataset k mod {analysis.datasets} "
                       f"at workload seed {ANALYSIS_WORKLOAD_SEED}")

            def op(side, k):
                wl = workloads[side].WORKLOADS[ANALYSIS]
                arrays = analysis.prepare(state, k)[1]
                seconds, op_faults, result = timed(lambda: wl.execute(arrays))
                return seconds, op_faults, analysis_artifacts(workloads[side], result)
        else:
            labs = {side: w.RateLabWorkload(f"rate-lab-{args.claim}", args.claim, n, reps,
                                            "dispatch")
                    for side, w in workloads.items()}
            state = labs["parent"].setup(list(range(args.ops)), workdir)

            def op(side, k):
                wl = labs[side]
                out, argv = wl.prepare(state, k)
                seconds, op_faults, code = timed(lambda: wl.execute(argv))
                return seconds, op_faults, wl.collect(out, code)["artifacts"]
        for side in packages:
            op(side, 0)
        for k in range(args.ops):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            files = {}
            for side in order:
                seconds, op_faults, files[side] = op(side, k)
                times[side].append(seconds)
                faults[side].append(op_faults)
            diffs = relative_differences(files["parent"], files["change"])
            if diffs:
                mismatched.append(k)
            for label, diff in diffs.items():
                known = max_rel_diff.get(label, 0.0)
                max_rel_diff[label] = None if None in (known, diff) else max(known, diff)
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
    if mismatched:
        report["max_rel_diff"] = dict(sorted(max_rel_diff.items()))
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
