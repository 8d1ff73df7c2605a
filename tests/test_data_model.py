import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from breslow_lab import (
    DataError,
    StepCurve,
    SurvivalDataset,
    load_csv,
    save_csv,
    validate_dataset,
)
from breslow_lab.data import write_csv

from conftest import survival_datasets


class TestValidateDataset:
    def test_minimal_valid(self):
        data = validate_dataset([(1.0, True, [0.0])])
        assert data.n == 1
        assert data.covariate_dim == 1

    def test_inconsistent_covariate_lengths(self):
        with pytest.raises(DataError, match="covariate length"):
            validate_dataset([(1.0, True, [1.0]), (2.0, False, [0.0, 1.0])])

    def test_no_events_rejected(self):
        with pytest.raises(DataError, match="no events"):
            validate_dataset([(1.0, False, []), (2.0, False, [])])

    def test_empty_input(self):
        with pytest.raises(DataError):
            validate_dataset([])

    @pytest.mark.parametrize("bad_time", [0.0, -1.0, math.nan, math.inf])
    def test_bad_times(self, bad_time):
        with pytest.raises(DataError):
            validate_dataset([(bad_time, True, [1.0])])

    @pytest.mark.parametrize("build,message", [
        pytest.param(lambda: SurvivalDataset(np.ones((2, 1)), [True, True], np.zeros((2, 1))),
                     "times and events must be 1-d arrays of equal length", id="2-d-times"),
        pytest.param(lambda: SurvivalDataset([1.0, 2.0], [True], np.zeros((2, 1))),
                     "times and events must be 1-d arrays of equal length", id="short-events"),
        pytest.param(lambda: SurvivalDataset([1.0, 2.0], [True, True], np.zeros((3, 1))),
                     "covariate rows must match the number of observations", id="covariate-rows"),
        pytest.param(lambda: SurvivalDataset([], [], np.zeros((0, 1))),
                     "dataset must contain at least one observation", id="empty"),
        pytest.param(lambda: validate_dataset([(1.0, True, [0.0]), (2.0, True)]),
                     "row 2: expected (time, event, covariates)", id="short-row"),
        pytest.param(lambda: validate_dataset([(1.0, True)]),
                     "row 1: expected (time, event, covariates)", id="short-first-row"),
        pytest.param(lambda: SurvivalDataset([], [], []),
                     "dataset must contain at least one observation", id="empty-1-d"),
        pytest.param(lambda: SurvivalDataset([1.0, 2.0], [True, True], [1.0, 2.0, 3.0]),
                     "covariate rows must match the number of observations",
                     id="1-d-covariate-length"),
    ])
    def test_malformed_columns(self, build, message):
        with pytest.raises(DataError) as exc:
            build()
        assert str(exc.value) == message

    def test_nonfinite_covariates(self):
        with pytest.raises(DataError):
            validate_dataset([(1.0, True, [math.nan])])

    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(st.floats(-2, 5), st.floats(allow_nan=True, allow_infinity=True)),
                st.booleans(),
                st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=3),
            ),
            max_size=8,
        )
    )
    def test_fuzz_never_accepts_invalid(self, rows):
        try:
            data = validate_dataset(rows)
        except DataError:
            return
        assert data.n >= 1
        assert np.all(np.isfinite(data.times)) and np.all(data.times > 0)
        assert np.all(np.isfinite(data.covariates))
        assert data.events.any()
        assert data.covariates.shape == (data.n, data.covariate_dim)


class TestSortedView:
    @given(
        times=st.lists(st.floats(0.01, 50.0), min_size=1, max_size=300),
        levels=st.sampled_from([None, 1, 3, 40]),
    )
    def test_order_is_the_stable_argsort(self, times, levels):
        # ``levels`` snaps the times to that many distinct values, so most of
        # them tie; None keeps them (almost surely) distinct.
        times = np.asarray(times)
        if levels is not None:
            times = 1.0 + np.floor(times * levels / 50.0)
        events = np.ones(times.size, dtype=bool)
        sv = SurvivalDataset(times, events, np.zeros((times.size, 1))).sorted_view
        assert np.array_equal(sv.order, np.argsort(times, kind="stable"))
        assert np.array_equal(sv.times, times[sv.order])

    def test_event_data_live_on_the_distinct_times(self):
        # Censored-only times at 1.0 and 3.0 keep a zero row; z is centered
        # at its mean 3.
        data = SurvivalDataset([2.0, 1.0, 2.0, 3.0, 1.5], [True, False, True, False, True],
                               [[1.0], [2.0], [3.0], [4.0], [5.0]])
        sv = data.sorted_view
        assert np.array_equal(sv.distinct_times, [1.0, 1.5, 2.0, 3.0])
        assert np.array_equal(sv.distinct_times[sv.time_group], data.times)
        assert np.array_equal(sv.event_counts, [0, 1, 2, 0])
        assert np.array_equal(sv.event_cov_sums[:, 0], [0.0, 2.0, -2.0, 0.0])
        assert np.array_equal(sv.distinct_event_times, [1.5, 2.0])


class TestCsv:
    def test_two_row_parse(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,event,z1\n1.0,1,0.5\n2.0,0,-0.5\n")
        data = load_csv(path)
        assert data.n == 2
        assert data.covariate_dim == 1
        assert np.array_equal(data.events, [True, False])

    def test_invalid_event_value_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,event,z1\n1.0,2,0.5\n")
        with pytest.raises(DataError, match="row 1"):
            load_csv(path)

    def test_no_covariate_mode(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,event\n3.0,1\n")
        data = load_csv(path)
        assert data.n == 1
        assert data.covariate_dim == 0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv(path)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status,z1\n1.0,1,0.5\n")
        with pytest.raises(DataError, match="header"):
            load_csv(path)

    def test_bad_row_width(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,event,z1\n1.0,1\n")
        with pytest.raises(DataError, match="row 1"):
            load_csv(path)

    @pytest.mark.parametrize("text,message", [
        ("time,event,z1\n1.0,1,0.5\nsoon,1,0.5\n", "row 2: bad time value 'soon'"),
        ("time,event,z1\n1.0,1,high\n", "row 1: bad covariate value"),
        ("time,event,z1\n", "no data rows"),
        ("time,event,z1\n-1.0,1,0.5\n", "follow-up times must be positive and finite, got -1.0"),
    ], ids=["time", "covariate", "header-only", "dataset"])
    def test_errors_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(DataError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,event,z1\n1.0,1,0.5\n\n,,\n2.0,0,-0.5\n3.0,x,0\n")
        with pytest.raises(DataError, match="row 5: bad event value 'x'"):
            load_csv(path)
        path.write_text("time,event,z1\n1.0,1,0.5\n\n,,\n2.0,0,-0.5\n")
        assert np.array_equal(load_csv(path).times, [1.0, 2.0])

    def test_true_false_tokens(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,event\n1.0,true\n2.0,false\n")
        data = load_csv(path)
        assert np.array_equal(data.events, [True, False])

    @pytest.mark.parametrize("prefix,eol", [(b"", b"\n"), (b"", b"\r\n"), (b"\xef\xbb\xbf", b"\r\n")])
    def test_line_endings_and_byte_order_mark(self, tmp_path, prefix, eol):
        lines = [b"time,event,z1", b"1.5,1,0.25", b"2.0,0,-1", b"0.5,true,3"]
        path = tmp_path / "d.csv"
        path.write_bytes(prefix + eol.join(lines) + eol)
        data = load_csv(path)
        assert np.array_equal(data.times, [1.5, 2.0, 0.5])
        assert np.array_equal(data.events, [True, False, True])
        assert np.array_equal(data.covariates, [[0.25], [-1.0], [3.0]])

    @given(data=survival_datasets(max_n=12))
    def test_roundtrip_exact(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "rt.csv"
        save_csv(data, path)
        back = load_csv(path)
        assert np.array_equal(back.times, data.times)
        assert np.array_equal(back.events, data.events)
        assert np.array_equal(back.covariates, data.covariates)

    def test_write_csv_matches_per_cell_rendering(self, tmp_path):
        columns = [
            np.arange(5),
            np.array([math.nan, -0.0, 1.0, 2.5, math.nan]),
            np.array([math.inf, 5e-324, 1 / 3, 0.1, math.inf]),
            np.array([-math.inf, 0.1, -2.5e300, 7.0, -math.inf]),
        ]
        path = tmp_path / "w.csv"
        write_csv(path, ["a", "b", "c", "d"], columns)
        want = ["a,b,c,d"] + [
            ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
            for row in zip(*[col.tolist() for col in columns])
        ]
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()

    def test_write_csv_rejects_ragged_columns(self, tmp_path):
        with pytest.raises(ValueError, match="equal length"):
            write_csv(tmp_path / "w.csv", ["a", "b"], [np.arange(3), np.zeros(2)])


class TestStepCurve:
    def test_between_jumps(self):
        curve = StepCurve(np.array([1.0, 3.0]), np.array([0.5, 1.2]))
        assert curve(2.0) == 0.5

    def test_right_continuity_at_jump(self):
        curve = StepCurve(np.array([1.0, 3.0]), np.array([0.5, 1.2]))
        assert curve(3.0) == 1.2

    def test_before_first_jump(self):
        curve = StepCurve(np.array([1.0, 3.0]), np.array([0.5, 1.2]))
        assert curve(0.5) == 0.0

    def test_vector_evaluation(self):
        curve = StepCurve(np.array([1.0, 3.0]), np.array([0.5, 1.2]))
        out = curve(np.array([0.0, 1.0, 2.9, 3.0, 10.0]))
        assert np.array_equal(out, [0.0, 0.5, 0.5, 1.2, 1.2])

    def test_rejects_unsorted_jumps(self):
        with pytest.raises(ValueError):
            StepCurve(np.array([3.0, 1.0]), np.array([0.5, 1.2]))

    def test_rejects_decreasing_values_when_monotone(self):
        with pytest.raises(ValueError):
            StepCurve(np.array([1.0, 2.0]), np.array([1.0, 0.5]))
        StepCurve(np.array([1.0, 2.0]), np.array([1.0, 0.5]), monotone=False)

    def test_columns_read_like_single_curves(self):
        jumps = np.array([1.0, 3.0])
        cols = np.array([[0.5, -1.0], [1.2, 0.25]])
        curve = StepCurve(jumps, cols, monotone=False)
        x = np.array([0.0, 1.0, 2.9, 3.0, 10.0])
        out = curve(x)
        assert out.shape == (5, 2)
        for k in range(2):
            single = StepCurve(jumps, cols[:, k], monotone=False)
            assert np.array_equal(out[:, k], single(x))
        assert np.array_equal(curve(2.0), cols[0])
        assert StepCurve(jumps, np.zeros((2, 0)))(x).shape == (5, 0)
        with pytest.raises(ValueError):
            StepCurve(jumps, cols)  # the second column starts below 0

    @given(
        jumps=st.lists(st.floats(0.1, 50, allow_nan=False), min_size=1, max_size=12, unique=True),
        incs=st.lists(st.floats(0, 3, allow_nan=False), min_size=12, max_size=12),
        x_pair=st.tuples(st.floats(-1, 60, allow_nan=False), st.floats(-1, 60, allow_nan=False)),
    )
    def test_nondecreasing_in_x(self, jumps, incs, x_pair):
        jumps = np.sort(np.asarray(jumps))
        values = np.cumsum(np.asarray(incs[: len(jumps)]))
        curve = StepCurve(jumps, values)
        lo, hi = sorted(x_pair)
        assert curve(lo) <= curve(hi)
