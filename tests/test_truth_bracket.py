"""One bracket per truth-functional query set.

``_t2_terms``, ``xi_truth_mean`` and the rate lab's ``r_n3`` (``_t2_terms``
on an ``H_uc`` window) bracket a grid once against the distinct follow-up
times in its ``_window``, derive every other index from that bracket, and
evaluate each truth antiderivative once per distinct point.  They must
agree bitwise with the reference bookkeeping of ``tests/oracles.py`` (one
search per index, every antiderivative at every edge and grid point), and
no antiderivative may see the same point twice in one call.
"""

import numpy as np
import pytest

from breslow_lab import SurvivalDataset, generate_dataset, reference_truth, xi_truth_mean
from breslow_lab.experiments import _eval_grid
from breslow_lab.linearize import _t2_terms, _window, _window_grid
from breslow_lab.quadrature import PanelAntiderivative

from oracles import reference_t2_terms, reference_xi_truth_mean


@pytest.fixture(scope="module")
def truth():
    # Own model, its antiderivatives built once over [0, M]: every grid below
    # stays inside, so no call rebuilds them between the two sides.
    model = reference_truth()
    M = model.default_M()
    model.hazard_over_phi(M)
    model.h_uc(M)
    return model


def _untied(truth):
    return generate_dataset(truth, 400, 71)


def _tied(truth):
    data = generate_dataset(truth, 400, 72)
    times = np.ceil(data.times * 20.0) / 20.0
    return SurvivalDataset(times, data.events, data.covariates)


def _grids(data, M):
    """Named grids, each inside [0, min(M, last follow-up time)]."""
    dt = data.sorted_view.distinct_times
    hi = min(M, float(dt[-1]))
    inside = dt[dt < hi]
    j = inside.size // 2
    mid = 0.5 * (inside[:-1] + inside[1:])
    rng = np.random.default_rng(5)
    fixed = np.linspace(0.0, hi, 37)
    return {
        "fixed": fixed,
        "unsorted": rng.permutation(np.concatenate([fixed[1:], inside[::7]])),
        "zeros only": np.zeros(3),
        "zero and distinct times": np.concatenate([[0.0], inside[::5]]),
        "duplicates": np.array([inside[3], mid[8], 0.0, inside[3], mid[8], 0.0, inside[j]]),
        "between distinct times": mid[::3],
        "ends on a distinct time": np.concatenate([fixed[fixed < inside[j]], inside[j - 4 : j + 1]]),
        "ends between distinct times": np.concatenate([fixed[fixed < mid[j]], [mid[j]]]),
        "experiment grid": _window_grid(np.linspace(0.0, M, 64), data, M)[0],
        "refined experiment grid": _eval_grid(np.linspace(0.0, hi, 64), data, hi),
    }


GRIDS = (
    "fixed", "unsorted", "zeros only", "zero and distinct times", "duplicates",
    "between distinct times", "ends on a distinct time", "ends between distinct times",
    "experiment grid", "refined experiment grid",
)


def _cases():
    for tie in ("untied", "tied"):
        for name in GRIDS:
            yield pytest.param(tie, name, id=f"{tie}-{name}")


def _case(truth, tie, name):
    data = _tied(truth) if tie == "tied" else _untied(truth)
    if tie == "tied":
        assert data.sorted_view.distinct_times.size < data.n
    grids = _grids(data, truth.default_M())
    assert tuple(grids) == GRIDS
    return data, grids[name]


@pytest.mark.parametrize("tie,name", _cases())
def test_t2_terms_bitwise_equal_to_reference(truth, tie, name):
    data, grid = _case(truth, tie, name)
    got = _t2_terms(data, truth, _window(truth, data, ("q", "H_uc"), grid))
    want = reference_t2_terms(data, truth, grid)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].tobytes() == want[key].tobytes(), key


@pytest.mark.parametrize("tie,name", _cases())
def test_coupling_remainder_bitwise_equal_to_reference(truth, tie, name):
    # The rate lab's r_n3 reads the H_uc column alone; _t2_terms reads q and
    # H_uc together.  Neither choice may move a bit of r_n3 or mean_xi.
    data, grid = _case(truth, tie, name)
    want = reference_t2_terms(data, truth, grid)["r_n3"]
    r_n3 = _t2_terms(data, truth, _window(truth, data, ("H_uc",), grid))["r_n3"]
    assert r_n3.tobytes() == want.tobytes()
    terms = _t2_terms(data, truth, _window(truth, data, ("q", "H_uc"), grid))
    assert terms["mean_xi"].tobytes() == xi_truth_mean(data, truth, grid).tobytes()


@pytest.mark.parametrize("tie,name", _cases())
def test_xi_truth_mean_bitwise_equal_to_reference(truth, tie, name):
    data, grid = _case(truth, tie, name)
    assert xi_truth_mean(data, truth, grid).tobytes() == (
        reference_xi_truth_mean(data, truth, grid).tobytes()
    )


def test_xi_truth_mean_grid_beyond_last_time(truth):
    # Every follow-up time below the grid maximum: q(min(t, hi)) is q(t) for
    # every row, and the grid points past the last time read all rows.
    full = generate_dataset(truth, 400, 73)
    keep = full.times < 1.0
    data = SurvivalDataset(full.times[keep], full.events[keep], full.covariates[keep])
    grid = np.linspace(0.0, 1.5, 41)
    assert xi_truth_mean(data, truth, grid).tobytes() == (
        reference_xi_truth_mean(data, truth, grid).tobytes()
    )


@pytest.fixture
def query_log(monkeypatch):
    """Every point each antiderivative is asked for, keyed by the instance."""
    log = {}
    call = PanelAntiderivative.__call__

    def counting(self, x, *columns):
        log.setdefault(id(self), []).append(np.atleast_1d(np.asarray(x, dtype=float)).copy())
        return call(self, x, *columns)

    monkeypatch.setattr(PanelAntiderivative, "__call__", counting)
    return log


@pytest.mark.parametrize("tie", ["untied", "tied"])
@pytest.mark.parametrize("name", ["duplicates", "experiment grid", "refined experiment grid"])
def test_each_distinct_point_evaluated_at_most_once(truth, query_log, tie, name):
    data, grid = _case(truth, tie, name)
    calls = {
        "_t2_terms": lambda: _t2_terms(data, truth, _window(truth, data, ("q", "H_uc"), grid)),
        "xi_truth_mean": lambda: xi_truth_mean(data, truth, grid),
        "r_n3": lambda: _t2_terms(data, truth, _window(truth, data, ("H_uc",), grid))["r_n3"],
    }
    for label, call in calls.items():
        query_log.clear()
        call()
        assert query_log, label
        for queries in query_log.values():
            points = np.concatenate(queries)
            assert np.unique(points).size == points.size, label
