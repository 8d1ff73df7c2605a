"""The remainder claims' time-ordered paths give the bits of the plain ones.

``_window_grid`` merges the fixed grid into the distinct follow-up times and
keeps the insertion search as the grid's bracket; it must equal ``np.unique``
of the two plus ``_bracket`` bit for bit.  ``PanelAntiderivative`` finds
the panels of a sorted query by one search per panel edge and of any other
query by one search per point, and evaluates in blocks; a point's value must
not depend on the order, the size or the company of its call.  The sorted
view builds three columns only when read; a remainder claim reads none of
them, and each must equal the eager formula of ``tests/oracles.py``.
"""

import numpy as np
import pytest

from breslow_lab import SurvivalDataset, generate_dataset, reference_truth
from breslow_lab.experiments import measure_coupling_remainder
from breslow_lab.linearize import _bracket, _window_grid
from breslow_lab.quadrature import _BLOCK_POINTS

from oracles import eager_sort_columns

LAZY_COLUMNS = ("distinct_event_times", "event_cov_sums")


@pytest.fixture(scope="module")
def truth():
    return reference_truth()


# ---------------------------------------------------------------------------
# The window grid carries its bracket


def _tied(data):
    return SurvivalDataset(np.ceil(data.times * 20.0) / 20.0, data.events, data.covariates)


def _window_cases(truth):
    M = truth.default_M()
    untied = generate_dataset(truth, 400, 81)
    tied = _tied(generate_dataset(truth, 400, 82))
    dt = tied.sorted_view.distinct_times
    # Every twentieth of the window, so most fixed points are distinct times.
    on_times = np.arange(0.0, M, 0.05)
    assert np.isin(on_times, dt).sum() > 10
    two = SurvivalDataset([0.7, 0.3], [True, False], [[1.0], [0.0]])
    return {
        "untied": (untied, np.linspace(0.0, M, 512), M),
        "tied": (tied, np.linspace(0.0, M, 512), M),
        "fixed points on distinct times": (tied, on_times, M),
        "M past the last follow-up time": (untied, np.linspace(0.0, 5.0, 97), 5.0),
        "M before the first follow-up time": (tied, np.linspace(0.0, 0.01, 9), 0.01),
        "n = 2": (two, np.linspace(0.0, M, 64), M),
        "n = 2, M past both times": (two, np.linspace(0.0, 2.0, 64), 2.0),
        "no fixed points": (untied, np.empty(0), M),
    }


WINDOW_CASES = (
    "untied", "tied", "fixed points on distinct times", "M past the last follow-up time",
    "M before the first follow-up time", "n = 2", "n = 2, M past both times",
    "no fixed points",
)


@pytest.mark.parametrize("name", WINDOW_CASES)
def test_window_grid_equals_unique_and_bracket(truth, name):
    cases = _window_cases(truth)
    assert tuple(cases) == WINDOW_CASES
    data, fixed, M = cases[name]
    sv = data.sorted_view
    hi = min(M, float(sv.distinct_times[-1]))
    want = np.unique(np.concatenate([fixed[fixed <= hi], sv.distinct_times[sv.distinct_times <= hi]]))
    want_left, want_right = _bracket(sv, want)
    grid, (left, right) = _window_grid(fixed, data, M)
    assert grid.tobytes() == want.tobytes()
    assert np.array_equal(left, want_left) and np.array_equal(right, want_right)


# ---------------------------------------------------------------------------
# Antiderivative queries: sorted, blocked, batch-independent


@pytest.fixture(scope="module")
def antiderivative(truth):
    truth.path_integrals(truth.default_M(), 0)
    return truth._integrals


@pytest.fixture(scope="module")
def query_points(antiderivative):
    """At least three blocks of points: uniform draws, every panel edge
    (0 and ``hi`` among them) and duplicates of both, sorted."""
    anti = antiderivative
    rng = np.random.default_rng(11)
    uniform = rng.uniform(0.0, anti.hi, 40_000)
    points = np.sort(np.concatenate([uniform, anti.edges, anti.edges[::3], uniform[:500]]))
    assert points.size > 2 * _BLOCK_POINTS
    assert points[0] == 0.0 and points[-1] == anti.hi
    return points


@pytest.mark.parametrize("columns", [slice(None), 0, 1, 2, [1], [2, 0]],
                         ids=["all", "q", "H_uc", "A0", "[H_uc]", "[A0, q]"])
def test_queries_batch_independent(antiderivative, query_points, columns):
    anti, x = antiderivative, query_points
    want = anti(x, columns)
    assert want.shape[0] == x.size
    reverse = anti(x[::-1], columns)[::-1]
    assert reverse.tobytes() == want.tobytes()
    perm = np.random.default_rng(12).permutation(x.size)
    permuted = np.empty_like(want)
    permuted[perm] = anti(x[perm], columns)
    assert permuted.tobytes() == want.tobytes()
    # Equal points, equal values.
    same = np.flatnonzero(x[1:] == x[:-1])
    assert same.size > 500 and np.array_equal(want[same], want[same + 1])
    # A sample asked one point at a time: every edge, and uniform draws.
    on_edge = np.flatnonzero(np.isin(x, anti.edges))
    alone = np.concatenate([on_edge, np.random.default_rng(13).choice(x.size, 200)])
    for i in alone:
        assert anti(x[i : i + 1], columns).tobytes() == want[i : i + 1].tobytes()


def test_scalar_query_is_the_batch_value(truth, antiderivative, query_points):
    x = query_points
    want = antiderivative(x, 1)
    for i in (0, 1, x.size // 2, x.size - 1):
        assert truth.path_integrals(float(x[i]), 1) == want[i]


# ---------------------------------------------------------------------------
# Sort columns on first read


def test_remainder_claim_builds_no_lazy_column(truth):
    data = generate_dataset(truth, 3000, 83)
    M = truth.default_M()
    measure_coupling_remainder(truth, data, np.linspace(0.0, M, 64), M)
    built = vars(data.sorted_view)
    assert [name for name in LAZY_COLUMNS if name in built] == []


def test_lazy_columns_equal_the_eager_formula():
    rng = np.random.default_rng(84)
    n = 2000
    times = np.ceil(rng.exponential(1.0, n) * 20.0) / 20.0
    covariates = rng.normal(size=(n, 3)) + [5.0, -2.0, 0.0]
    data = SurvivalDataset(times, rng.random(n) < 0.7, covariates)
    sv = data.sorted_view
    assert sv.distinct_times.size < n // 10
    want = eager_sort_columns(data)
    for name in LAZY_COLUMNS:
        got = getattr(sv, name)
        assert got.dtype == want[name].dtype and got.shape == want[name].shape, name
        assert got.tobytes() == want[name].tobytes(), name
