"""Acceptance suite: one test per release criterion, with a pass/fail line.

Monte Carlo criteria run at desk scale with frozen seeds; every tolerance is
stated inline.  Budgets are wall-clock ceilings, far above typical runtimes.
"""

import json
import math
import time

import numpy as np
import pytest

from breslow_lab import (
    a_n_curve,
    breslow_plugin,
    breslow_traditional,
    build_aggregates,
    coupling_remainder_experiment,
    d1_n,
    d2_n,
    fit_mple,
    generate_dataset,
    linearization_remainder_experiment,
    log_partial_likelihood,
    phi_n,
    remainder_decomposition,
    risk_deviation_experiment,
    score_and_information,
    validate_dataset,
    variance_estimate,
    xi_plugin,
    xi_truth,
)
from breslow_lab.cli import main
from breslow_lab.experiments import replication_seed

from conftest import random_dataset
from oracles import (
    central_diff_grad,
    central_diff_hessian,
    nelson_aalen,
    quad_expectation,
    xi_truth_value,
)

MASTER_SEED = 20260810


def _report(index, name, elapsed, budget):
    print(f"[{index:>2}/10] {name}: PASS ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed <= budget, f"{name} exceeded its runtime budget"


def test_01_hand_solved_mple_and_baseline():
    t0 = time.time()
    data = validate_dataset([(1.0, True, [1.0]), (2.0, True, [0.0]), (3.0, True, [1.0])])
    fit = fit_mple(data)
    assert fit.status == "converged"
    assert abs(fit.beta_hat[0] - (-math.log(2.0) / 2.0)) <= 1e-10
    est = breslow_traditional(data, fit.beta_hat)
    expected = np.array([math.sqrt(2.0) - 1.0, 1.0, 1.0 + math.sqrt(2.0)])
    assert np.max(np.abs(est.curve.cumulative_values - expected)) <= 1e-12
    _report(1, "hand-solved fit and baseline values", time.time() - t0, 1.0)


def test_02_estimator_form_identity():
    t0 = time.time()
    rng = np.random.default_rng(MASTER_SEED)
    p0_seen = 0
    for k in range(200):
        p = 0 if k % 5 == 0 else int(rng.integers(1, 4))
        n = int(rng.integers(5, 501))
        data = random_dataset(rng, n, p, tie_fraction=0.4)
        beta = rng.normal(0.0, 0.4, size=p)
        trad = breslow_traditional(data, beta)
        plug = breslow_plugin(data, beta)
        vals_t = trad.curve.cumulative_values
        vals_p = plug.curve(trad.curve.jump_times)
        assert np.max(np.abs(vals_p - vals_t) / (1.0 + np.abs(vals_t))) <= 1e-12
        if p == 0:
            p0_seen += 1
            jumps, cum = nelson_aalen(data.times, data.events)
            na0 = breslow_traditional(data, np.zeros(0))
            assert np.array_equal(na0.curve.jump_times, jumps)
            assert np.array_equal(na0.curve.cumulative_values, cum)
    assert p0_seen >= 30
    _report(2, "estimator-form identity on 200 random datasets", time.time() - t0, 10.0)


def test_03_derivative_identities():
    t0 = time.time()
    rng = np.random.default_rng(MASTER_SEED + 1)
    for _ in range(50):
        data = random_dataset(rng, int(rng.integers(5, 60)), int(rng.integers(1, 4)))
        beta = rng.normal(0.0, 0.4, size=data.covariate_dim)
        score, _ = score_and_information(data, beta)
        fd = central_diff_grad(lambda b: log_partial_likelihood(data, b), beta, h=1e-5)
        assert np.linalg.norm(score - fd) <= 1e-6 * (1.0 + np.linalg.norm(score))
    for _ in range(50):
        data = random_dataset(rng, int(rng.integers(5, 50)), int(rng.integers(1, 3)))
        beta = rng.normal(0.0, 0.4, size=data.covariate_dim)
        x = float(rng.uniform(0.0, data.times.max()))
        agg = build_aggregates(data, beta)
        fd1 = central_diff_grad(lambda b: phi_n(build_aggregates(data, b), x), beta, h=1e-5)
        assert np.linalg.norm(d1_n(agg, x) - fd1) <= 1e-6 * (1.0 + np.linalg.norm(fd1))
        fd2 = central_diff_hessian(lambda b: phi_n(build_aggregates(data, b), x), beta, h=1e-4)
        assert np.max(np.abs(d2_n(agg, x) - fd2)) <= 1e-5 * (1.0 + np.max(np.abs(fd2)))
    for _ in range(50):
        data = random_dataset(rng, int(rng.integers(5, 50)), int(rng.integers(1, 3)))
        beta = rng.normal(0.0, 0.4, size=data.covariate_dim)
        x = float(rng.uniform(0.1, data.times.max()))
        fd = central_diff_grad(lambda b: breslow_traditional(data, b).curve(x), beta, h=1e-5)
        exact = -a_n_curve(data, beta).values_at([x])[0]
        assert np.linalg.norm(exact - fd) <= 1e-5 * (1.0 + np.linalg.norm(fd))
    _report(3, "derivative identities vs finite differences", time.time() - t0, 30.0)


def test_04_decomposition_identity(ref_truth):
    t0 = time.time()
    grid = np.linspace(0.0, ref_truth.default_M(), 512)
    worst = 0.0
    for r in range(50):
        data = generate_dataset(ref_truth, 2000, replication_seed(MASTER_SEED + 2, 2000, r))
        fit = fit_mple(data)
        assert fit.converged
        report = remainder_decomposition(data, fit, ref_truth, grid)
        worst = max(worst, report.identity_residual())
    assert worst <= 1e-8
    _report(4, f"decomposition identity (max residual {worst:.1e})", time.time() - t0, 120.0)


def test_05_influence_centering(ref_truth):
    t0 = time.time()
    for x in [0.5, 1.0, 1.5, 2.0]:
        mean = quad_expectation(
            ref_truth, lambda t, d, z, x=x: xi_truth_value(ref_truth, t, d, z, x), points=[x]
        )
        assert abs(mean) < 1e-6
    data = generate_dataset(ref_truth, 10_000, MASTER_SEED + 3)
    grid = np.linspace(0.0, ref_truth.default_M(), 64)[1:]  # x=0 has xi identically 0
    infl = xi_truth(data, ref_truth, grid)
    mu = infl.values.mean(axis=0)
    sd = infl.values.std(axis=0, ddof=1)
    within = np.abs(mu) <= 3.0 * sd / math.sqrt(data.n)
    assert within.mean() >= 0.95
    _report(5, f"influence centering ({within.mean():.0%} of grid within 3 SE)", time.time() - t0, 60.0)


def test_06_root_n_risk_deviation_rate(ref_truth):
    t0 = time.time()
    res = risk_deviation_experiment(
        ref_truth, [250, 500, 1000, 2000, 4000, 8000], 200, seed=MASTER_SEED
    )
    s_phi = res.quantities["phi"].slope
    s_d1 = res.quantities["d1"].slope
    assert -0.6 <= s_phi <= -0.4
    assert -0.6 <= s_d1 <= -0.4
    _report(6, f"risk-mass deviation slopes ({s_phi:.3f}, {s_d1:.3f})", time.time() - t0, 300.0)


def test_07_coupling_remainder_rate(ref_truth):
    t0 = time.time()
    res = coupling_remainder_experiment(
        ref_truth, [250, 500, 1000, 2000, 4000, 8000], 200, seed=MASTER_SEED, a_n="1/log n"
    )
    slope = res.quantities["r_n3"].slope
    ratio = res.normalized_stability_ratio()
    assert slope <= -0.8
    assert ratio <= 3.0
    _report(7, f"coupling remainder (slope {slope:.3f}, stability ratio {ratio:.2f})", time.time() - t0, 600.0)


def test_08_linearization_remainder_rate(ref_truth):
    t0 = time.time()
    res = linearization_remainder_experiment(
        ref_truth, [250, 500, 1000, 2000, 4000, 8000], 200, seed=MASTER_SEED, a_n="1/log n"
    )
    slope = res.quantities["r_n"].slope
    assert slope <= -0.8
    r_mean = res.quantities["r_n"].mean
    xi_mean = res.quantities["mean_xi"].mean
    assert np.all(r_mean < xi_mean)
    assert all(e <= 0.01 * res.replications for e in res.excluded)
    _report(
        8,
        f"linearization remainder (slope {slope:.3f}, max r/xi {np.max(r_mean / xi_mean):.2f})",
        time.time() - t0,
        900.0,
    )


def test_09_plugin_variance_matches_monte_carlo(ref_truth):
    t0 = time.time()
    xs = np.array([0.5, 1.0, 1.5])
    n, reps, seed = 5000, 500, 11
    vals = np.empty((reps, xs.size))
    vhat = []
    for r in range(reps):
        data = generate_dataset(ref_truth, n, replication_seed(seed, n, r))
        fit = fit_mple(data)
        assert fit.converged
        vals[r] = breslow_traditional(data, fit.beta_hat).curve(xs)
        if r < 25:
            # Average the plug-in estimate over a few replications: the
            # single-dataset estimator carries a few percent of sampling
            # noise that is not what this criterion measures.
            infl = xi_plugin(data, fit, xs)
            curves = variance_estimate(data, infl, fit, a_n_curve(data, fit.beta_hat))
            vhat.append(curves.total)
    mc_var = n * vals.var(axis=0, ddof=1)
    plug = n * np.mean(vhat, axis=0)
    rel = np.abs(plug / mc_var - 1.0)
    assert np.all(rel <= 0.10), f"relative gaps {rel}"
    _report(9, f"plug-in variance vs Monte Carlo (max gap {rel.max():.1%})", time.time() - t0, 600.0)


def test_10_rate_lab_determinism(tmp_path):
    t0 = time.time()
    args = ["rate-lab", "--claim", "lemma1", "--n", "250,500", "--reps", "5",
            "--seed", "7", "--grid-points", "128"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(args + ["--output-dir", str(out_a)]) == 0
    assert main(args + ["--output-dir", str(out_b)]) == 0
    bytes_a = (out_a / "rates.json").read_bytes()
    bytes_b = (out_b / "rates.json").read_bytes()
    assert bytes_a == bytes_b
    payload = json.loads(bytes_a)
    assert payload["seed"] == 7
    for n in (250, 500):
        assert (out_a / f"reps_n{n}.csv").read_bytes() == (out_b / f"reps_n{n}.csv").read_bytes()
    _report(10, "rate-lab byte-identical reruns", time.time() - t0, 60.0)
