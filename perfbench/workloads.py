"""The three benchmark workloads: set-up, one op, and the correctness gate.

Each workload draws its per-op seeds from a fixed pool of op seeds whose
reference outputs were recorded at the seed commit (``refs/<workload>.json``,
written by ``record_refs.py``).  The workload seed picks an order of the pool,
so the same workload seed always gives the same ops, and two workload seeds
give mostly different ops.

Every call into the package goes through a module attribute looked up at call
time (``bl.fit_mple``, ``cli.main``), so that the recorders in ``trace.py``
see it once they are installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np

import breslow_lab as bl
from breslow_lab import cli

HERE = Path(__file__).resolve().parent
REFS_DIR = HERE / "refs"

# Reference outputs may move in the last bits when a later change reorders a
# summation (compensated sums, Chebyshev truth functionals accurate to
# ~1e-11 absolute); a real defect moves them by far more.
RATE_LAB_RTOL = 1e-6
RATE_LAB_ATOL = 1e-10
ANALYSIS_RTOL = 1e-7
ANALYSIS_ATOL = 1e-12
# The CLI's own tolerance for the two Breslow forms (``cmd_breslow``).
FORM_IDENTITY_RTOL = 1e-10


class OpFailure(Exception):
    """An op returned a nonzero exit code or failed its correctness check."""


def load_refs(name: str) -> dict:
    with open(REFS_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def compare(actual, expected, rtol: float, atol: float, path: str = "") -> list[str]:
    """Mismatches between two JSON-like trees; floats within atol + rtol*|ref|."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or sorted(actual) != sorted(expected):
            return [f"{path}: keys differ"]
        out = []
        for key in sorted(expected):
            out += compare(actual[key], expected[key], rtol, atol, f"{path}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: length differs"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += compare(a, e, rtol, atol, f"{path}[{i}]")
        return out
    if expected is None or isinstance(expected, (bool, str)) or isinstance(actual, (bool, str)):
        return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, int) and isinstance(actual, int):
        return [] if actual == expected else [f"{path}: {actual} != {expected}"]
    a, e = float(actual), float(expected)
    if math.isfinite(a) and abs(a - e) <= atol + rtol * abs(e):
        return []
    return [f"{path}: {a!r} != {e!r}"]


class Workload:
    """A closed-loop workload; op k uses op seed ``state["seeds"][k % len]``."""

    name: str
    pool: int
    # Calibration kernel whose speed drift is like the op's (see run.py).
    calibration = "dispatch"

    def op_seeds(self, seed: int) -> list[int]:
        """Op seeds of a run with workload seed ``seed``: an order of the pool."""
        return [int(v) for v in np.random.default_rng(seed).permutation(self.pool)]

    def op_seed(self, state: dict, k: int) -> int:
        return state["seeds"][k % len(state["seeds"])]


class RateLabWorkload(Workload):
    """One op is one ``breslow-lab rate-lab`` invocation through ``cli.main``."""

    pool = 128

    def __init__(self, name: str, claim: str, sizes: str, reps: int, calibration: str):
        self.name = name
        self.claim = claim
        self.sizes = sizes
        self.reps = reps
        self.calibration = calibration

    def setup(self, seeds: list[int], workdir: Path, tracer=None) -> dict:
        return {"seeds": seeds, "workdir": workdir}

    def prepare(self, state: dict, k: int):
        """Output directory and arguments of op k; the timed part is ``execute``."""
        out = Path(tempfile.mkdtemp(dir=state["workdir"]))
        argv = [
            "rate-lab", "--claim", self.claim, "--truth", "reference",
            "--n", self.sizes, "--reps", str(self.reps),
            "--seed", str(self.op_seed(state, k)), "--output-dir", str(out),
        ]
        return out, argv

    def execute(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def collect(self, out: Path, code: int) -> dict:
        if code != 0:
            raise OpFailure(f"exit code {code}")
        artifacts = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        rates = json.loads(artifacts["rates.json"])
        return {
            "artifacts": artifacts,
            "summary": rate_summary(rates),
            "bytes_written": sum(len(b) for b in artifacts.values()),
            "excluded": sum(rates["excluded"]),
        }

    def check(self, result: dict, ref: dict) -> list[str]:
        return compare(result["summary"], ref, RATE_LAB_RTOL, RATE_LAB_ATOL)


def rate_summary(rates: dict) -> dict:
    """The parts of ``rates.json`` the gate compares: sup-norm summaries,
    slopes and excluded counts."""
    keep = ("claim", "sample_sizes", "replications", "seed", "M", "fitted_slope",
            "excluded", "quantities", "normalized_median")
    return {k: rates[k] for k in keep if k in rates}


def analysis_truth():
    """Design of the analyst workload: three covariates, one binary."""
    law = bl.Product(laws=(
        bl.bernoulli(0.5),
        bl.TruncatedNormal(0.0, 1.0, -2.0, 2.0),
        bl.TruncatedNormal(0.0, 1.0, -2.0, 2.0),
    ))
    return bl.TruthModel(
        beta0=np.array([math.log(2.0), 0.5, -0.3]),
        baseline=bl.constant_hazard(1.0),
        covariate_law=law,
        censor_upper=3.0,
    )


def analysis_dataset(op_seed: int, n: int = 8000):
    """Draw from ``analysis_truth`` and round times up to whole days."""
    raw = bl.generate_dataset(analysis_truth(), n, op_seed)
    times = np.ceil(raw.times * 365.0) / 365.0
    return bl.SurvivalDataset(times, raw.events, raw.covariates)


class AnalysisWorkload(Workload):
    """One op is the plug-in path on one dataset: fit, both Breslow forms,
    ``A_n``, plug-in influence on 64 grid points and the variance curve."""

    pool = 64
    datasets = 8
    grid_points = 64
    breslow_points = (0.1, 0.5, 1.0, 1.5, 2.0, 2.5)
    variance_indices = (1, 8, 16, 32, 48, 63)

    def __init__(self, name: str, n: int = 8000):
        self.name = name
        self.n = n

    def op_seeds(self, seed: int) -> list[int]:
        return super().op_seeds(seed)[: self.datasets]

    def setup(self, seeds: list[int], workdir: Path, tracer=None) -> dict:
        """Generate the datasets, then write and read them back as CSV."""
        generated = [analysis_dataset(s, self.n) for s in seeds]
        loaded = []
        with tracer.span_op("setup") if tracer else contextlib.nullcontext():
            for s, data in zip(seeds, generated):
                path = workdir / f"analysis_{s}.csv"
                bl.save_csv(data, path)
                loaded.append(bl.load_csv(path))
        arrays = [(d.times, d.events, d.covariates) for d in loaded]
        return {"seeds": seeds, "arrays": arrays}

    def prepare(self, state: dict, k: int):
        return None, state["arrays"][k % len(state["arrays"])]

    def execute(self, arrays) -> dict:
        data = bl.SurvivalDataset(*arrays)
        fit = bl.fit_mple(data)
        if not fit.converged:
            return {"fit": fit}
        beta = fit.beta_hat
        trad = bl.breslow_traditional(data, beta)
        plug = bl.breslow_plugin(data, beta)
        trad_vals = trad.curve.cumulative_values
        plug_vals = plug.curve(trad.curve.jump_times)
        form_gap = float(np.max(np.abs(plug_vals - trad_vals) / (1.0 + np.abs(trad_vals))))
        a_curve = bl.a_n_curve(data, beta)
        m = bl.default_m_plugin(data, beta)
        grid = np.linspace(0.0, m, self.grid_points)
        infl = bl.xi_plugin(data, fit, grid)
        curves = bl.variance_estimate(data, infl, fit, a_curve)
        return {"fit": fit, "form_gap": form_gap, "breslow": trad, "a_curve": a_curve,
                "M": m, "curves": curves}

    def collect(self, out, result: dict) -> dict:
        fit = result["fit"]
        if not fit.converged:
            raise OpFailure(f"fit status {fit.status}")
        x = np.array(self.breslow_points)
        idx = list(self.variance_indices)
        return {
            "form_gap": result["form_gap"],
            "summary": {
                "beta_hat": fit.beta_hat.tolist(),
                "log_partial_likelihood": fit.log_partial_likelihood,
                "breslow": result["breslow"].curve(x).tolist(),
                "a_n": result["a_curve"].values_at(x).tolist(),
                "M": result["M"],
                "variance": result["curves"].total[idx].tolist(),
                "variance_xi_only": result["curves"].xi_only[idx].tolist(),
            },
        }

    def check(self, result: dict, ref: dict) -> list[str]:
        out = compare(result["summary"], ref, ANALYSIS_RTOL, ANALYSIS_ATOL)
        if not result["form_gap"] <= FORM_IDENTITY_RTOL:
            out.append(f"estimator forms disagree: relative gap {result['form_gap']:.3e}")
        return out


WORKLOADS = {
    wl.name: wl
    for wl in (
        RateLabWorkload("theorem-ref-n8000", "theorem", "1000,8000", 3, "dispatch"),
        RateLabWorkload("lemma2-ref-n1e5", "lemma2", "8000,100000", 1, "vector"),
        AnalysisWorkload("analysis-p3-ties-n8000"),
    )
}
