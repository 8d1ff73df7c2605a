"""The block-wise CSV reader and writer against their row-at-a-time oracles.

``load_csv`` must accept exactly the files ``row_loop_load_csv`` accepts,
with bitwise-equal arrays, and reject the rest with the same message: the
first bad row in file order wins, wherever the blocks fall.  ``write_csv``
and ``save_csv`` must write the bytes ``row_loop_write_csv`` writes.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from breslow_lab import DataError, SurvivalDataset, load_csv, save_csv
from breslow_lab.data import _BLOCK_ROWS, write_csv

from oracles import row_loop_load_csv, row_loop_write_csv

# (valid, invalid) cell texts; an invalid one does not parse or gives a
# value the dataset rejects.  A line break or a comma only stays in its field
# when the field is quoted.
TIMES = (["1", "2.5", " 3 ", "0.25", "1_000", "١٢", "７", "1e-3", "+.5", "5.",
          "7.000000000000001", "\n2"],
         ["inf", "nan", "-inf", "0", "-1", "x", "", " ", "0x10", "1__0", "1,5"])
TOKENS = (["0", "1", "true", "false", "TRUE", " True ", "FaLsE ", "\t1"],
          ["yes", "2", "", "t", "1.0"])
COVARIATES = (["0", "-1.5", "١", "1_0", " 2 ", "-0.0", "1e308", "4.9e-324", "-Infinity",
               "0.10000000000000001", "\n3"],
              ["nan", "inf", "z", "", "1,5"])


def _outcome(loader, path):
    """The DataError text, or each array's dtype, shape, layout and bytes."""
    try:
        data = loader(path)
    except DataError as exc:
        return str(exc)
    return [(a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes())
            for a in (data.times, data.events, data.covariates)]


def _assert_loaders_agree(path, text: str):
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(load_csv, path) == _outcome(row_loop_load_csv, path)


def _row(cells) -> str:
    return ",".join(cells)


@st.composite
def csv_texts(draw):
    """A header, a lead of valid rows that moves the drawn rows about the
    first block boundary, then rows of every kind, mostly valid ones."""
    p = draw(st.integers(0, 3))

    def field(texts):
        valid, invalid = texts
        text = draw(st.sampled_from(valid * 10 + invalid))
        return f'"{text}"' if draw(st.integers(0, 4)) == 0 else text

    def row():
        kind = draw(st.sampled_from(["data"] * 20 + ["blank", "spaces", "commas", "width"]))
        if kind == "blank":
            return ""
        if kind == "spaces":
            return " \t "
        if kind == "commas":
            return "," * draw(st.integers(1, p + 3))
        cells = [field(TIMES), field(TOKENS)] + [field(COVARIATES) for _ in range(p)]
        if kind == "width":
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
        return _row(cells)

    lead = draw(st.sampled_from([0, 0, _BLOCK_ROWS - 3, _BLOCK_ROWS + 2]))
    filler = _row(["1.5", "1"] + ["0.25"] * p)
    rows = [row() for _ in range(draw(st.integers(0, 10)))]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    header = _row(["time", "event"] + [f"z{j}" for j in range(1, p + 1)])
    lines = [header] + [filler] * lead + rows
    return bom + eol.join(lines) + draw(st.sampled_from([eol, ""]))


@given(text=csv_texts())
@example(text="time,event\n2,1\n\n ,\n,\n1_000,TRUE\n７, false \n")
@example(text="time,event,z1\n1,true,0\n2, FALSE ,1\n3,1,1_0\n4,0,١\n")
@example(text='\ufefftime,event,z1\r\n"1.5",1,"0.25"\r\n"\n2",1,1\r\n')
def test_load_matches_the_row_loop(text, tmp_path_factory):
    _assert_loaders_agree(tmp_path_factory.mktemp("csv") / "d.csv", text)


FILLER = ["1.5,1,0.25,-1"] * (_BLOCK_ROWS + 5)


@pytest.mark.parametrize("rows", [
    pytest.param(FILLER + ["2.0,maybe,0,0"], id="error-in-the-second-block"),
    pytest.param(FILLER[:_BLOCK_ROWS - 1] + [",,,", "2.0,1,0,x", "1.0,1,0"],
                 id="blank-row-then-error-across-the-boundary"),
    pytest.param(["1,1,0,0", "soon,1,0,0", "1,1,0", "1,yes,0,0"], id="bad-time-before-bad-width"),
    pytest.param(["1,1,0,0", "1,1,x,0", "1,2,0,0"], id="bad-covariate-before-bad-event"),
    pytest.param(["1,1,0,0", "1,1,0,0,0", "nan,1,0,0"], id="bad-width-before-bad-time"),
    pytest.param(FILLER[:10] + ["1,1,0,0", "1,1,0,0", "-1,1,0,0"], id="dataset-error-after-rows"),
    pytest.param(["1,1,0,0", "1,maybe,0,0", "1,1,0," + "1" * 131073], id="bad-row-before-big-field"),
    pytest.param(FILLER + ["", " , ,", "\t"], id="blank-rows-end-the-file"),
])
def test_load_matches_the_row_loop_on_fixed_files(tmp_path, rows):
    _assert_loaders_agree(tmp_path / "d.csv", "\n".join(["time,event,z1,z2"] + rows) + "\n")


def test_a_big_field_after_the_rows_is_reported_with_its_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("\n".join(["time,event,z1,z2", *FILLER[:3], "1,1,0," + "1" * 131073]) + "\n")
    with pytest.raises(DataError) as exc:
        load_csv(path)
    assert str(exc.value) == f"{path}: row 4: field larger than field limit (131072)"


def _assert_writers_agree(tmp_path, header, columns):
    write_csv(tmp_path / "columns.csv", header, columns)
    row_loop_write_csv(tmp_path / "rows.csv", header,
                       zip(*[np.asarray(col).tolist() for col in columns]))
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.225073858507201e-308, 1e308,
            -1.7976931348623157e308, 0.1, 1 / 3, 1.2345678901234567, -9.876543210987654e-5]


def _big_table():
    rng = np.random.default_rng(5)
    n = 2 * _BLOCK_ROWS + 7
    x = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
    x[rng.integers(0, n, 40)] = rng.choice(SPECIALS, 40)
    return [np.arange(n), x, rng.exponential(size=n), -np.arange(n) * 7]


@pytest.mark.parametrize("columns", [
    pytest.param([np.arange(len(SPECIALS)), np.array(SPECIALS), np.array(SPECIALS[::-1])],
                 id="specials"),
    pytest.param([np.zeros(0), np.zeros(0, dtype=int)], id="header-only"),
    pytest.param(_big_table(), id="more-rows-than-a-block"),
])
def test_write_matches_the_row_loop(tmp_path, columns):
    _assert_writers_agree(tmp_path, [f"c{j}" for j in range(len(columns))], columns)


@st.composite
def float_tables(draw):
    k = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.floats(), min_size=k, max_size=k), max_size=20))
    return np.array(rows, dtype=float).reshape(len(rows), k)


@given(table=float_tables())
def test_write_matches_the_row_loop_on_any_floats(table, tmp_path_factory):
    header = [f"c{j}" for j in range(table.shape[1] + 1)]
    _assert_writers_agree(tmp_path_factory.mktemp("csv"), header, [np.arange(len(table)), *table.T])


def test_save_csv_matches_the_row_loop(tmp_path):
    rng = np.random.default_rng(2)
    n = _BLOCK_ROWS + 3
    data = SurvivalDataset(np.ceil(rng.exponential(size=n) * 365) / 365, rng.random(n) < 0.6,
                           rng.normal(size=(n, 3)))
    save_csv(data, tmp_path / "columns.csv")
    rows = zip(data.times.tolist(), data.events.tolist(), data.covariates.tolist())
    row_loop_write_csv(tmp_path / "rows.csv", ["time", "event", "z1", "z2", "z3"],
                       ((t, int(e), *z) for t, e, z in rows))
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
