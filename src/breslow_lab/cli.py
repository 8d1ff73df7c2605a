"""Command-line surface: fit, baseline hazard curves, influence/variance,
decomposition, and the Monte Carlo rate lab.

Exit codes, returned by ``main`` with one stderr line per failure: 0
success, 1 I/O or input error, 2 invalid invocation, model/fit failure or
numeric overflow, 3 internal self-check failure, 4 experiment validity
failure.  Artifacts are plain JSON/CSV written into --output-dir (default:
$BRESLOW_LAB_OUT or the working directory), created once the last check has
passed; reruns with identical inputs and seeds produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import breslow as breslow_mod
from .coxfit import fit_mple
from .data import DataError, load_csv, write_csv
from .experiments import (
    A_N,
    CONFIG_KEYS,
    GRID_POINTS,
    MAX_SIMULATED_N,
    ExperimentValidityError,
    coupling_remainder_experiment,
    linearization_remainder_experiment,
    parse_config,
    parse_setting,
    risk_deviation_experiment,
)
from .linearize import (
    default_m_plugin,
    remainder_decomposition,
    variance_estimate,
    xi_plugin,
)
from .truth import PHI_FLOOR, generate_dataset, no_covariate_truth, reference_truth

EXIT_OK = 0
EXIT_IO = 1
EXIT_MODEL = 2
EXIT_SELF_CHECK = 3
EXIT_EXPERIMENT = 4

# Most entries of the n x grid-points matrix ``influence --write-xi`` writes:
# 512 MiB of float64.
MAX_XI_ENTRIES = 2**26

TRUTHS = {
    "reference": reference_truth,
    "no-covariates": no_covariate_truth,
}

CLAIMS = {
    "lemma1": risk_deviation_experiment,
    "lemma2": coupling_remainder_experiment,
    "theorem": linearization_remainder_experiment,
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ``ValueError``, so it leaves through ``main``."""

    def error(self, message):
        raise ValueError(f"{self.prog}: error: {message}")


def _setting(key: str):
    """argparse ``type`` that parses a flag like config key ``key``."""
    def parse(text):
        try:
            return parse_setting(key, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _simulated_n(text: str) -> int:
    """argparse ``type`` of ``--n``: an integer from 1 to ``MAX_SIMULATED_N``."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if not 1 <= value <= MAX_SIMULATED_N:
        raise argparse.ArgumentTypeError(
            f"must be an integer from 1 to {MAX_SIMULATED_N}, got {text!r}")
    return value


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _load_input(args) -> "SurvivalDataset":
    if args.input:
        return load_csv(args.input)
    return generate_dataset(_resolve_truth(args.truth), args.n, args.seed)


def _resolve_truth(name: str):
    if name not in TRUTHS:
        raise ValueError(f"unknown truth model {name!r}; options: {sorted(TRUTHS)}")
    return TRUTHS[name]()


def _out_dir(args) -> Path:
    out = Path(args.output_dir or os.environ.get("BRESLOW_LAB_OUT", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fit(data):
    """The converged fit of ``data``, or None without covariates."""
    if data.covariate_dim == 0:
        return None
    fit = fit_mple(data)
    if not fit.converged:
        raise ValueError(f"fit failed: {fit.status}")
    return fit


def _parse_floats(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")])


# ---------------------------------------------------------------------------
# Subcommands


def cmd_fit(args) -> int:
    data = _load_input(args)
    fit = fit_mple(data)
    payload = {
        "beta_hat": [float(v) for v in fit.beta_hat],
        "log_partial_likelihood": fit.log_partial_likelihood,
        "score_norm": fit.score_norm,
        "information": [[float(v) for v in row] for row in fit.information],
        "iterations": fit.iterations,
        "status": fit.status,
        "n": data.n,
        "p": data.covariate_dim,
    }
    _write_json(_out_dir(args) / "fit.json", payload)
    if not fit.converged:
        print(f"fit failed: {fit.status}", file=sys.stderr)
        return EXIT_MODEL
    return EXIT_OK


def cmd_breslow(args) -> int:
    data = _load_input(args)
    if args.beta is not None:
        beta = _parse_floats(args.beta) if args.beta else np.zeros(0)
        if beta.size != data.covariate_dim:
            raise ValueError(f"--beta has {beta.size} entries, dataset has p={data.covariate_dim}")
        if not np.all(np.isfinite(beta)):
            raise ValueError("--beta entries must be finite")
    else:
        fit = _fit(data)
        beta = np.zeros(0) if fit is None else fit.beta_hat
    traditional = breslow_mod.breslow_traditional(data, beta)
    plugin = breslow_mod.breslow_plugin(data, beta)
    trad_vals = traditional.curve.cumulative_values
    plug_vals = plugin.curve(traditional.curve.jump_times)
    rel = np.max(np.abs(plug_vals - trad_vals) / (1.0 + np.abs(trad_vals)))
    if rel > 1e-10:
        print(f"estimator forms disagree: relative error {rel:.3e}", file=sys.stderr)
        return EXIT_SELF_CHECK
    # Before any write: A_n reads the moment pass (s1 and the Gram matrix),
    # which can overflow where the Breslow curve does not.
    a_curve = breslow_mod.a_n_curve(data, beta)
    out = _out_dir(args)
    write_csv(out / "breslow.csv", ["x", "cum_hazard"],
              [traditional.curve.jump_times, trad_vals])
    if not a_curve.is_empty:
        curve = a_curve.curve
        write_csv(out / "a_n.csv", ["x"] + [f"a{i}" for i in range(1, data.covariate_dim + 1)],
                  [curve.jump_times, *curve.cumulative_values.T])
    return EXIT_OK


def _check_xi_entries(n: int, grid_points: int) -> None:
    if n * grid_points > MAX_XI_ENTRIES:
        raise ValueError(f"influence matrix of {n} x {grid_points} "
                         f"entries is above the cap of {MAX_XI_ENTRIES}")


def cmd_influence(args) -> int:
    # Only --write-xi builds the n x grid-points matrix.
    if args.write_xi and args.input is None:  # before the rows are drawn
        _check_xi_entries(args.n, args.grid_points)
    data = _load_input(args)
    if args.write_xi:
        _check_xi_entries(data.n, args.grid_points)
    fit = _fit(data)
    beta = np.zeros(0) if fit is None else fit.beta_hat
    m = args.M if args.M is not None else default_m_plugin(data, beta)
    grid = np.linspace(0.0, m, args.grid_points)
    infl = xi_plugin(data, fit, grid)
    a_curve = breslow_mod.a_n_curve(data, beta)
    curves = variance_estimate(data, infl, fit, a_curve)
    out = _out_dir(args)
    write_csv(out / "variance.csv", ["x", "variance", "variance_xi_only"],
              [grid, curves.total, curves.xi_only])
    if args.write_xi:
        header = ["subject"] + [f"x{k}" for k in range(grid.size)]
        write_csv(out / "xi_matrix.csv", header, [np.arange(data.n), *infl.values.T])
    return EXIT_OK


def cmd_decompose(args) -> int:
    truth = _resolve_truth(args.truth)
    data = _load_input(args)
    if truth.p != data.covariate_dim:
        raise ValueError("truth model and dataset covariate dimensions differ")
    fit = _fit(data)
    m = args.M if args.M is not None else min(
        truth.default_M(), float(data.sorted_view.times[-1])
    )
    grid = np.linspace(0.0, m, args.grid_points)
    report = remainder_decomposition(data, fit, truth, grid)
    columns = ["t_n1", "t_n2", "b_n", "c_n", "r_n3", "r_n4", "r_n", "mean_xi"]
    out = _out_dir(args)
    write_csv(out / "decomposition.csv", ["x"] + columns,
              [grid, *[getattr(report, c) for c in columns]])
    payload = {
        "sup_norms": {k: float(v) for k, v in sorted(report.sup_norms.items())},
        "identity_residual": report.identity_residual(),
        "beta_hat": [float(v) for v in report.beta_hat],
        "beta0": [float(v) for v in report.beta0],
        "n": data.n,
        "M": m,
        "truth": args.truth,
    }
    if args.input is None:
        payload["seed"] = args.seed
    _write_json(out / "decomposition.json", payload)
    return EXIT_OK


def cmd_rate_lab(args) -> int:
    # Defaults, then the config file, then every flag given (flag dest ==
    # config key), each flag parsed like its config value.
    options = {"truth": "reference", "a_n": A_N, "grid_points": GRID_POINTS,
               "M_policy": PHI_FLOOR}
    if args.config:
        options.update(parse_config(args.config))
    flags = vars(args)
    options.update({key: parse_setting(key, flags[key]) for key in CONFIG_KEYS
                    if flags[key] is not None})
    for key in ("claim", "sample_sizes", "replications", "seed"):
        if key not in options:
            raise ValueError(f"missing required option {key}")
    claim = options["claim"]
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; options: {sorted(CLAIMS)}")
    truth = _resolve_truth(options["truth"])
    kwargs = dict(grid_points=options["grid_points"], phi_floor=options["M_policy"])
    if claim != "lemma1":
        kwargs["a_n"] = options["a_n"]
    result = CLAIMS[claim](truth, options["sample_sizes"], options["replications"],
                           options["seed"], **kwargs)
    out = _out_dir(args)
    payload = result.to_dict()
    payload["truth"] = options["truth"]
    _write_json(out / "rates.json", payload)
    names = sorted(result.raw)
    for i, n in enumerate(result.sample_sizes):
        write_csv(out / f"reps_n{n}.csv", ["replication"] + names,
                  [np.arange(result.replications), *[result.raw[qty][i] for qty in names]])
    print(f"claim={claim} seed={options['seed']} slope={result.fitted_slope:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared by every ``main`` call."""
    parser = _Parser(
        prog="breslow-lab",
        description="Proportional hazards estimation and rate experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, with_truth_gen=False):
        p.add_argument("--output-dir", default=None, help="artifact directory")
        p.add_argument("--input", default=None, required=not with_truth_gen,
                       help="input CSV (time,event,z1,...)")
        if with_truth_gen:
            p.add_argument("--truth", default="reference", choices=sorted(TRUTHS))
            p.add_argument("--n", type=_simulated_n, default=2000, help="simulated sample size")
            p.add_argument("--seed", type=_setting("seed"), default=0)

    p_fit = sub.add_parser("fit", help="maximum partial likelihood fit")
    add_common(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_br = sub.add_parser("breslow", help="baseline cumulative hazard curves")
    add_common(p_br)
    p_br.add_argument("--beta", default=None, help="skip fitting; comma-separated, '' for p=0")
    p_br.set_defaults(func=cmd_breslow)

    p_inf = sub.add_parser("influence", help="plug-in influence and variance curves")
    add_common(p_inf, with_truth_gen=True)
    p_inf.add_argument("--grid-points", type=_setting("grid_points"), default=128)
    p_inf.add_argument("--M", type=float, default=None)
    p_inf.add_argument("--write-xi", action="store_true")
    p_inf.set_defaults(func=cmd_influence)

    p_dec = sub.add_parser("decompose", help="linearization decomposition report")
    add_common(p_dec, with_truth_gen=True)
    p_dec.add_argument("--grid-points", type=_setting("grid_points"), default=128)
    p_dec.add_argument("--M", type=float, default=None)
    p_dec.set_defaults(func=cmd_decompose)

    p_lab = sub.add_parser("rate-lab", help="Monte Carlo rate experiments")
    p_lab.add_argument("--claim", choices=sorted(CLAIMS), default=None)
    p_lab.add_argument("--config", default=None, help="flat key=value config file")
    p_lab.add_argument("--truth", default=None, choices=sorted(TRUTHS))
    # Values stay strings here: cmd_rate_lab parses them like config values.
    p_lab.add_argument("--n", dest="sample_sizes", help="comma-separated sample sizes")
    p_lab.add_argument("--reps", dest="replications")
    p_lab.add_argument("--a-n", dest="a_n")
    p_lab.add_argument("--seed")
    p_lab.add_argument("--grid-points")
    p_lab.add_argument("--phi-floor", dest="M_policy")
    p_lab.add_argument("--output-dir", default=None)
    p_lab.set_defaults(func=cmd_rate_lab)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ExperimentValidityError as exc:
        print(f"experiment invalid: {exc}", file=sys.stderr)
        return EXIT_EXPERIMENT
    except (DataError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO
    except OverflowError as exc:
        print(f"numeric overflow: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_MODEL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
