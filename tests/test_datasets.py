import csv
import warnings
from array import array
from collections import Counter
from dataclasses import replace
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from cgpt import datasets
from cgpt.cli import main
from cgpt.datasets import (
    BURN_IN,
    SplitPolicy,
    SyntheticConfig,
    TimeSeriesDataset,
    _ar1,
    generate_additive,
    generate_interactive,
    load_csv,
    prepare_dataset,
    split_borders,
)
from cgpt.preprocessing import apply_standardizer, fit_standardizer

from conftest import traced_peak


def lagged(ds, channel, lag, max_lag):
    """Column of ds.values[:, channel] shifted by ``lag``, aligned at max_lag."""
    x = ds.values[:, channel]
    return x[max_lag - lag:len(x) - lag]


# ---------------------------------------------------------------- generators

def test_additive_shape_roles_graph():
    ds = generate_additive(SyntheticConfig(seed=0))
    assert ds.values.shape == (6144, 4)
    assert ds.channel_names == ("C0", "C1", "C2", "C3")
    assert ds.target == 3
    assert ds.graph.parents(3) == [0, 1]


def test_interactive_graph_has_three_causes():
    ds = generate_interactive(SyntheticConfig(seed=0))
    assert ds.values.shape == (6144, 4)
    assert ds.graph.parents(3) == [0, 1, 2]


def test_generators_are_deterministic():
    a = generate_additive(SyntheticConfig(seed=3))
    b = generate_additive(SyntheticConfig(seed=3))
    c = generate_additive(SyntheticConfig(seed=4))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    x = generate_interactive(SyntheticConfig(seed=3))
    y = generate_interactive(SyntheticConfig(seed=3))
    assert np.array_equal(x.values, y.values)


def test_controls_are_standardized():
    ds = generate_additive(SyntheticConfig(seed=1))
    for c in range(3):
        col = ds.values[:, c]
        # standardized over the pre-burn horizon, so only near zero/one here
        assert abs(col.mean()) < 0.05
        assert abs(col.std() - 1.0) < 0.05


def test_additive_ols_recovers_generating_coefficients():
    """Least-squares on the true lags is the oracle for the linear recursion."""
    ds = generate_additive(SyntheticConfig(seed=0))
    max_lag = 9
    y = ds.values[max_lag:, 3]
    design = np.column_stack([
        lagged(ds, 3, 1, max_lag),
        lagged(ds, 0, 4, max_lag),
        lagged(ds, 1, 9, max_lag),
    ])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    assert np.abs(coef - np.array([0.7, 0.8, 0.5])).max() < 0.05

    # an augmented regression exposes the spurious channel: C2 trails C0 by
    # two steps, so C2_{t-2} mimics the true C0_{t-4} cause
    augmented = np.column_stack([design, lagged(ds, 2, 2, max_lag)])
    coef_aug, *_ = np.linalg.lstsq(augmented, y, rcond=None)
    assert abs(coef_aug[3]) < 0.05


def test_spurious_channel_is_correlated_yet_inert():
    ds = generate_additive(SyntheticConfig(seed=0))
    c2, c3 = ds.values[:, 2], ds.values[:, 3]
    r = np.corrcoef(c2[:-2], c3[2:])[0, 1]
    assert abs(r) > 0.3


def test_additive_target_is_stationary_in_the_tail():
    ds = generate_additive(SyntheticConfig(seed=2))
    tail = ds.values[-5000:, 3]
    first, second = tail[:2500], tail[2500:]
    assert np.isfinite(tail).all()
    ratio = first.var() / second.var()
    assert 0.5 < ratio < 2.0


def test_interactive_nonlinearity_defeats_linear_fit():
    ds = generate_interactive(SyntheticConfig(seed=0))
    max_lag = 6
    y = ds.values[max_lag:, 3]
    c3_1 = lagged(ds, 3, 1, max_lag)
    c0_4 = lagged(ds, 0, 4, max_lag)
    c1_6 = lagged(ds, 1, 6, max_lag)
    c2_2 = lagged(ds, 2, 2, max_lag)
    c0_3 = lagged(ds, 0, 3, max_lag)

    linear = np.column_stack([np.ones_like(y), c3_1, c0_4, c1_6, c2_2, c0_3])
    coef, *_ = np.linalg.lstsq(linear, y, rcond=None)
    lin_resid = y - linear @ coef
    true_resid = y - (0.7 * c3_1 + 0.6 * np.tanh(c0_4 * c1_6) + 0.4 * c2_2 * c0_3)
    assert lin_resid.var() >= 2.0 * true_resid.var()
    assert abs(true_resid.var() - 0.1) < 0.02  # leftover is the injected noise


def test_config_validation():
    with pytest.raises(ValueError, match="length"):
        SyntheticConfig(length=0)


def test_dataset_values_are_frozen():
    ds = generate_additive(SyntheticConfig(seed=0, length=128))
    with pytest.raises(ValueError):
        ds.values[0, 0] = 99.0


def test_burn_in_constant():
    assert BURN_IN == 32


def scalar_ar1(coeff, drive):
    """The AR(1) recursion one numpy scalar at a time: the reference."""
    out = np.empty_like(drive)
    prev = 0.0
    for t in range(drive.shape[0]):
        prev = coeff * prev + drive[t]
        out[t] = prev
    return out


AR1_EDGE = [0.0, -0.0, 5e-324, -5e-324, -1e-310, 2.2250738585072014e-308,
            1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, -0.0]


@pytest.mark.parametrize("coeff", [0.9, 0.7])
@pytest.mark.parametrize("length", [1, 2, 4095, 4096, 4097, 8193, 60032])
def test_chunked_ar1_has_the_bits_of_the_scalar_loop(length, coeff):
    """Signed zeros, subnormals and values near the largest double, at the
    start, across the first chunk boundary and at the end of the drive."""
    drive = np.random.default_rng(length).standard_normal(length)
    for start in (0, 4090, length - len(AR1_EDGE)):
        if 0 <= start < length:
            edge = AR1_EDGE[:length - start]
            drive[start:start + len(edge)] = edge
    assert _ar1(coeff, drive).tobytes() == scalar_ar1(coeff, drive).tobytes()


# ---------------------------------------------------------------- csv

CSV_BODY = """date,a,b,OT
2020-01-01,1.0,2.0,3.0
2020-01-02,4.0,5.0,6.0
2020-01-03,7.0,8.0,9.0
"""


def test_load_csv_drops_date_and_finds_target(tmp_path):
    p = tmp_path / "mini.csv"
    p.write_text(CSV_BODY)
    ds = load_csv(p, target="OT")
    assert ds.channel_names == ("a", "b", "OT")
    assert ds.target == 2
    assert ds.values.shape == (3, 3)
    assert np.array_equal(ds.values[:, 0], [1.0, 4.0, 7.0])
    assert ds.graph is None


def test_load_csv_roundtrips_written_floats(tmp_path):
    rng = np.random.default_rng(8)
    values = rng.standard_normal((5, 2))
    lines = ["x,y"] + [f"{float(a)!r},{float(b)!r}" for a, b in values]
    p = tmp_path / "round.csv"
    p.write_text("\n".join(lines) + "\n")
    ds = load_csv(p, target="y")
    assert np.array_equal(ds.values, values)


def test_load_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"

    p.write_text("")
    with pytest.raises(ValueError, match="empty dataset"):
        load_csv(p, target="OT")

    p.write_text("date,a,OT\n")
    with pytest.raises(ValueError, match="empty dataset"):
        load_csv(p, target="OT")

    p.write_text("date,a,OT\n2020,1.0,oops\n")
    with pytest.raises(ValueError, match=r"line 2.*'OT'"):
        load_csv(p, target="OT")

    p.write_text("date,a,OT\n2020,1.0,2.0\n2020,3.0\n")
    with pytest.raises(ValueError, match="line 3: expected 3 fields, got 2"):
        load_csv(p, target="OT")

    p.write_text(CSV_BODY)
    with pytest.raises(ValueError, match="target column 'nope'"):
        load_csv(p, target="nope")
    with pytest.raises(ValueError, match="target column 'date'"):
        load_csv(p, target="date")  # the date column is always dropped

    with pytest.raises(ValueError, match="no such file"):
        load_csv(tmp_path / "missing.csv", target="OT")


def test_load_csv_reports_every_bad_line(tmp_path):
    p = tmp_path / "multi.csv"
    p.write_text("a,OT\n1,2\nx,2\n3,y\nnan,1\n4,inf\n")
    with pytest.raises(ValueError, match=r"rejected 4 rows.*line 3.*line 4.*"
                                         r"line 5: non-finite value in column 'a'.*"
                                         r"line 6: non-finite value in column 'OT'"):
        load_csv(p, target="OT")


@pytest.mark.parametrize("header", ["a,a,OT", "a,OT,OT"])
def test_load_csv_rejects_repeated_column_names(tmp_path, header):
    p = tmp_path / "repeated.csv"
    p.write_text(f"date,{header},date\n2020,1,2,3,2021\n")
    repeated = "a" if header == "a,a,OT" else "OT"
    with pytest.raises(ValueError, match=rf"repeated column names \['{repeated}'\]$"):
        load_csv(p, target="OT")


# Parity corpus: the loader's result on each file, recorded from the
# loader that kept a list of floats per row (the two quoted-header cases
# with a lone \n or \r, from the flat-buffer loader that followed it).
# Accepted files give (channel names, values); rejected ones give the
# message, with {path} for the file.
CSV_ACCEPTED = [
    ('quoted', 'a,OT\n"1.5","2"\n3,"4.25"\n', 'OT',
     ('a', 'OT'), [[1.5, 2.0], [3.0, 4.25]]),
    ('crlf', 'a,OT\r\n1,2\r\n3,4\r\n', 'OT',
     ('a', 'OT'), [[1.0, 2.0], [3.0, 4.0]]),
    ('lone_cr', 'a,OT\r1,2\r3,4\r', 'OT',
     ('a', 'OT'), [[1.0, 2.0], [3.0, 4.0]]),
    ('no_trailing_newline', 'a,OT\n1,2\n3,4', 'OT',
     ('a', 'OT'), [[1.0, 2.0], [3.0, 4.0]]),
    ('space_padded', 'a,OT\n 1.5 , 2\n3 ,\t4 \n', 'OT',
     ('a', 'OT'), [[1.5, 2.0], [3.0, 4.0]]),
    ('etth1_date_dropped', 'date,HUFL,HULL,OT\n2016-07-01 00:00:00,5.827000141143799,2.009000062942505,30.5310001373291\n2016-07-01 01:00:00,5.692999839782715,2.075999975204468,27.78700065612793\n2016-07-01 02:00:00,5.1570000648498535,1.741000056266785,27.78700065612793\n', 'OT',
     ('HUFL', 'HULL', 'OT'), [[5.827000141143799, 2.009000062942505, 30.5310001373291], [5.692999839782715, 2.075999975204468, 27.78700065612793], [5.1570000648498535, 1.741000056266785, 27.78700065612793]]),
    ('quoted_comma_in_dropped', 'date,a,OT\n"2020, Jan",1,2\n"2020, Feb",3,4\n', 'OT',
     ('a', 'OT'), [[1.0, 2.0], [3.0, 4.0]]),
    ('single_row', 'a,OT\n1,2\n', 'OT',
     ('a', 'OT'), [[1.0, 2.0]]),
    ('single_column', 'OT\n1\n2\n3\n', 'OT',
     ('OT',), [[1.0], [2.0], [3.0]]),
    ('signs_exponents', 'a,OT\n+1e-3,-2.5E+2\n.5,1.\n', 'OT',
     ('a', 'OT'), [[0.001, -250.0], [0.5, 1.0]]),
    ('repr_floats', 'x,y\n0.1,-1.2345678901234567e-300\n1.7976931348623157e+308,5e-324\n', 'y',
     ('x', 'y'), [[0.1, -1.2345678901234568e-300], [1.7976931348623157e+308, 5e-324]]),
    ('empty_cell_dropped', 'date,a,OT\n,1,2\n,3,4\n', 'OT',
     ('a', 'OT'), [[1.0, 2.0], [3.0, 4.0]]),
    ('quoted_newline_in_dropped', 'date,a,OT\n"2020\nJan",1,2\n"x",3,4\n', 'OT',
     ('a', 'OT'), [[1.0, 2.0], [3.0, 4.0]]),
    ('quoted_newline_header', '"da\nte",a,OT\n1,1,2\n', 'OT',
     ('da\nte', 'a', 'OT'), [[1.0, 1.0, 2.0]]),
    ('nbsp', 'a,OT\n1.5\xa0,2\n3,4\n', 'OT',
     ('a', 'OT'), [[1.5, 2.0], [3.0, 4.0]]),
    ('quoted_cr_header', '"da\rte",a,OT\r\n1,1,2\r\n', 'OT',
     ('da\rte', 'a', 'OT'), [[1.0, 1.0, 2.0]]),
    ('quoted_crlf_header_kept', '"da\r\nte",a,OT\r\n1,1,2\r\n', 'OT',
     ('da\r\nte', 'a', 'OT'), [[1.0, 1.0, 2.0]]),
    ('python_float_spellings', 'a,OT\n1_000,\u0661\u0662\n\uff11,2\n', 'OT',
     ('a', 'OT'), [[1000.0, 12.0], [1.0, 2.0]]),
]

CSV_REJECTED = [
    ('non_finite', 'a,OT\n1,2\nnan,1\n4,inf\n5,Infinity\n-inf,3\nNaN,-Infinity\n', 'OT',
     "{path}: rejected 5 rows: line 3: non-finite value in column 'a'; line 4: non-finite value in column 'OT'; line 5: non-finite value in column 'OT'; line 6: non-finite value in column 'a'; line 7: non-finite value in column 'a'"),
    ('blank_line_mid', 'a,OT\n1,2\n\n3,4\n', 'OT',
     '{path}: rejected 1 rows: line 3: expected 2 fields, got 0'),
    ('blank_line_end', 'a,OT\n1,2\n3,4\n\n', 'OT',
     '{path}: rejected 1 rows: line 4: expected 2 fields, got 0'),
    ('whitespace_line', 'a,OT\n1,2\n   \n3,4\n', 'OT',
     '{path}: rejected 1 rows: line 3: expected 2 fields, got 1'),
    ('whitespace_line_single_column', 'OT\n1\n  \n2\n', 'OT',
     "{path}: rejected 1 rows: line 3: non-numeric value in column 'OT'"),
    ('blank_line_single_column', 'OT\n1\n\n2\n', 'OT',
     '{path}: rejected 1 rows: line 3: expected 1 fields, got 0'),
    ('extra_field', 'a,OT\n1,2\n3,4,5\n6,7\n', 'OT',
     '{path}: rejected 1 rows: line 3: expected 2 fields, got 3'),
    ('missing_field', 'a,OT\n1,2\n3\n6,7\n', 'OT',
     '{path}: rejected 1 rows: line 3: expected 2 fields, got 1'),
    ('trailing_comma_every_row', 'a,OT\n1,2,\n3,4,\n', 'OT',
     '{path}: rejected 2 rows: line 2: expected 2 fields, got 3; line 3: expected 2 fields, got 3'),
    ('empty_cell_kept', 'a,OT\n1,\n3,4\n', 'OT',
     "{path}: rejected 1 rows: line 2: non-numeric value in column 'OT'"),
    ('non_numeric', 'a,OT\n1,2\nx,4\n', 'OT',
     "{path}: rejected 1 rows: line 3: non-numeric value in column 'a'"),
    ('non_numeric_and_non_finite', 'a,OT\n1,2\nx,2\n3,y\nnan,1\n4,inf\n', 'OT',
     "{path}: rejected 4 rows: line 3: non-numeric value in column 'a'; line 4: non-numeric value in column 'OT'; line 5: non-finite value in column 'a'; line 6: non-finite value in column 'OT'"),
    ('ragged_and_non_finite', 'a,OT\n1,2\nnan,1\n3\n', 'OT',
     "{path}: rejected 2 rows: line 3: non-finite value in column 'a'; line 4: expected 2 fields, got 1"),
    ('header_only', 'a,OT\n', 'OT',
     '{path}: empty dataset (header only)'),
    ('empty_file', '', 'OT',
     '{path}: empty dataset (no header row)'),
    ('more_than_ten_bad', 'a,OT\n1,2\nx0,1\nx1,1\nx2,1\nx3,1\nx4,1\nx5,1\nx6,1\nx7,1\nnan,1\n3,4,5\n\n7,8\n2,inf\n9,\n', 'OT',
     "{path}: rejected 13 rows: line 3: non-numeric value in column 'a'; line 4: non-numeric value in column 'a'; line 5: non-numeric value in column 'a'; line 6: non-numeric value in column 'a'; line 7: non-numeric value in column 'a'; line 8: non-numeric value in column 'a'; line 9: non-numeric value in column 'a'; line 10: non-numeric value in column 'a'; line 11: non-finite value in column 'a'; line 12: expected 2 fields, got 3 (+3 more)"),
    ('quoted_newline_then_nan', 'date,a,OT\n"2020\nJan",1,2\n"x",3,nan\n', 'OT',
     "{path}: rejected 1 rows: line 3: non-finite value in column 'OT'"),
]

def write_case(tmp_path, text):
    p = tmp_path / "case.csv"
    p.write_bytes(text.encode("utf-8"))
    return p


@pytest.mark.parametrize("text, target, names, values",
                         [case[1:] for case in CSV_ACCEPTED], ids=[case[0] for case in CSV_ACCEPTED])
def test_load_csv_parity_accepted(tmp_path, text, target, names, values):
    ds = load_csv(write_case(tmp_path, text), target=target)
    expected = np.array(values, dtype=np.float64)
    assert ds.channel_names == names
    assert ds.values.dtype == np.float64 and ds.values.shape == expected.shape
    assert ds.values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("text, target, message",
                         [case[1:] for case in CSV_REJECTED], ids=[case[0] for case in CSV_REJECTED])
def test_load_csv_parity_rejected(tmp_path, text, target, message):
    p = write_case(tmp_path, text)
    with pytest.raises(ValueError) as err:
        load_csv(p, target=target)
    assert str(err.value) == message.replace("{path}", str(p))


def test_load_csv_holds_about_one_copy_of_the_values(tmp_path, capsys):
    p = tmp_path / "gen.csv"
    assert main(["gen-data", "--dataset", "additive", "--length", "6000", "--out", str(p)]) == 0
    ds, peak = traced_peak(lambda: load_csv(p, target="C3"))
    assert ds.values.shape == (6000, 4)
    assert peak <= 2 * ds.values.nbytes


def test_load_csv_of_a_60000_row_gen_data_file_peaks_near_the_values(tmp_path, capsys):
    """One parse into the value matrix: the traced peak stays within 15% of
    the values (a buffer grown row by row took ~1.22x, a whole-file read
    ~3.9x)."""
    p = tmp_path / "gen.csv"
    assert main(["gen-data", "--dataset", "additive", "--length", "60000", "--out", str(p)]) == 0
    ds, peak = traced_peak(lambda: load_csv(p, target="C3"))
    assert ds.values.shape == (60000, 4)
    assert peak <= 1.15 * ds.values.nbytes


def write_etth1_layout(path, n_rows):
    """An ETTh1-shaped CSV: a date column, then three channels."""
    values = np.random.default_rng(5).standard_normal((n_rows, 3))
    lines = ["date,HUFL,MUFL,OT"]
    lines += [f"2016-07-01 {i:05d},{a!r},{b!r},{c!r}"
              for i, (a, b, c) in enumerate(values.tolist())]
    path.write_text("\n".join(lines) + "\n")
    return values


def test_plain_csvs_are_parsed_without_the_row_loop(tmp_path, monkeypatch, capsys):
    """gen-data's CSV and the ETTh1 layout take numpy's one parse; a quoted
    file takes the row loop, which shows that the count sees it."""
    calls = []
    row_loop = datasets._read_rows
    monkeypatch.setattr(datasets, "_read_rows", lambda *args: calls.append(1) or row_loop(*args))

    gen = tmp_path / "gen.csv"
    assert main(["gen-data", "--dataset", "additive", "--length", "600", "--out", str(gen)]) == 0
    ds = load_csv(gen, target="C3")
    assert ds.values.tobytes() == generate_additive(SyntheticConfig(length=600)).values.tobytes()
    etth1 = tmp_path / "ETTh1.csv"
    values = write_etth1_layout(etth1, 300)
    assert load_csv(etth1, target="OT").values.tobytes() == values.tobytes()
    assert calls == []

    etth1.write_text(etth1.read_text().replace("2016-07-01 00007", '"2016-07-01 00007"'))
    assert load_csv(etth1, target="OT").values.tobytes() == values.tobytes()
    assert calls == [1]


BOM = "\ufeff"


def test_load_csv_drops_a_byte_order_mark(tmp_path):
    p = write_case(tmp_path, BOM + "C0,OT\n1,2\n")
    assert load_csv(p, target="C0").channel_names == ("C0", "OT")
    p = write_case(tmp_path, BOM + CSV_BODY)  # the marked column is still dropped
    assert load_csv(p, target="OT").channel_names == ("a", "b", "OT")


@pytest.mark.parametrize("data", [b"a,OT\n1,\xff\n", b"a,\xffOT\n1,2\n", b"\xff"])
def test_load_csv_of_bytes_that_are_not_utf8_names_the_file(tmp_path, data):
    p = tmp_path / "latin.csv"
    p.write_bytes(data)
    with pytest.raises(ValueError) as err:
        load_csv(p, target="OT")
    assert str(err.value).startswith(f"{p}: 'utf-8' codec can't decode byte 0xff in position ")


# Files each check of the fast path exists for; each gives the row loop's
# message, with no warning.
FAST_PATH_TRAPS = [
    ("numpy_strips_1c", "a,OT\n1,2\n1\x1c,3\n",
     "rejected 1 rows: line 3: non-numeric value in column 'a'"),
    ("numpy_strips_1d", "a,OT\n1,2\n\x1d1,3\n",
     "rejected 1 rows: line 3: non-numeric value in column 'a'"),
    ("numpy_strips_1e", "a,OT\n1,2\n1\x1e,3\n",
     "rejected 1 rows: line 3: non-numeric value in column 'a'"),
    ("numpy_strips_1f", "a,OT\n1,2\n\x1f1,3\n",
     "rejected 1 rows: line 3: non-numeric value in column 'a'"),
    ("ragged_rows_that_balance_before_a_last_date", "a,OT,date\n1,2\n3,4,d,e\n",
     "rejected 2 rows: line 2: expected 3 fields, got 2; line 3: expected 3 fields, got 4"),
    ("quoted_comma_across_two_dates", 'a,date,date,OT\n1,"x,y",2\n',
     "rejected 1 rows: line 2: expected 4 fields, got 3"),
    ("only_an_empty_line", "OT\n\n", "rejected 1 rows: line 2: expected 1 fields, got 0"),
]


@pytest.mark.parametrize("text, message", [case[1:] for case in FAST_PATH_TRAPS],
                         ids=[case[0] for case in FAST_PATH_TRAPS])
def test_files_numpy_would_misread_get_the_row_loops_message(tmp_path, text, message):
    p = write_case(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            load_csv(p, target="OT")
    assert str(err.value) == f"{p}: {message}"
    with pytest.raises(ValueError) as frozen:
        frozen_load_csv(p, target="OT")
    assert str(frozen.value) == str(err.value)


@pytest.mark.parametrize("block", [1, 2, 3, 4, 1 << 15])
def test_scan_counts_lines_alike_in_any_block_size(tmp_path, monkeypatch, block):
    """A \\r\\n or an empty line split across two blocks counts once."""
    monkeypatch.setattr(datasets, "_SCAN_BYTES", block)
    cases = [("a,OT\r\n1,2\r\r\n3,4\n\n5,6\r", (6, 4, 2)),
             ("a,OT\r\n1,2\r\n3,4", (3, 3, 0)),
             ("OT\r1\n\r\n2\r\n", (4, 0, 1)),
             ("a,OT\n1,2\n", (2, 2, 0))]
    for text, expected in cases:
        assert datasets._scan(write_case(tmp_path, text)) == expected, text


def frozen_load_csv(path, target, name=None):
    """The loader before numpy's parse, kept as the reference the
    differential test checks against: every data row read by ``csv.reader``
    and appended to one flat float64 buffer.  It reads UTF-8 explicitly."""
    path = Path(path)
    if not path.exists():
        raise ValueError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty dataset (no header row)") from None

        kept = [(i, col) for i, col in enumerate(header) if col != "date"]
        names = [col for _, col in kept]
        repeated = [col for col, count in Counter(names).items() if count > 1]
        if repeated:
            raise ValueError(f"{path}: repeated column names {repeated}")
        if target not in names:
            raise ValueError(f"{path}: target column {target!r} not in columns {names}")

        cols = [i for i, _ in kept]
        buf, problems = array("d"), []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                problems.append((lineno, f"expected {len(header)} fields, got {len(row)}"))
                continue
            try:
                buf.extend([float(row[i]) for i in cols])
            except ValueError:
                bad = next(col for i, col in kept if not frozen_is_float(row[i]))
                problems.append((lineno, f"non-numeric value in column {bad!r}"))

    values = np.frombuffer(buf, dtype=np.float64).reshape(-1, len(kept))
    rows = len(values)
    bad_rows = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad_rows.size:
        skipped = [lineno for lineno, _ in problems]
        linenos = np.setdiff1d(np.arange(2, 2 + rows + len(skipped)), skipped)
        for r in bad_rows:
            bad = names[np.argmin(np.isfinite(values[r]))]
            problems.append((int(linenos[r]), f"non-finite value in column {bad!r}"))
    if problems:
        problems.sort()
        shown = "; ".join(f"line {lineno}: {what}" for lineno, what in problems[:10])
        more = f" (+{len(problems) - 10} more)" if len(problems) > 10 else ""
        raise ValueError(f"{path}: rejected {len(problems)} rows: {shown}{more}")
    if not rows:
        raise ValueError(f"{path}: empty dataset (header only)")
    return names, values


def frozen_is_float(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


# The CSV grammar: files of plain numeric rows, which numpy's parse reads,
# each spoiled in up to two places by a spelling, a line or a quote that
# only the row loop reads or rejects.
FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)
PLAIN_CELLS = st.one_of(FINITE, FINITE, st.sampled_from(
    ["0", "-0", "+1e-3", "-2.5E+2", ".5", "1.", "1.7e308", "-5e-324", " 1.5 ", "\t2", "3 "]))
ODD_CELLS = st.sampled_from(
    ['"1.5"', "nan", "-inf", "Infinity", "1e500", "", "x", "1_0", "\u0661\u0662", "\uff11",
     "1.5\xa0", "\xa01", "2\x0c", "1\x1f", "\x1c2", "#1", "1 2", "0x10", "1\x00"])
PLAIN_DATES = st.sampled_from(["2020-01-01", "2016-07-01 00:00:00", "", "d"])
ODD_DATES = st.sampled_from(['"2020, Jan"', '"2020\nJan"', '"a\r\nb"', '"x"', '"1,2"'])
ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_texts(draw):
    names = draw(st.lists(st.sampled_from(["a", "b", "OT"]), min_size=1, max_size=3, unique=True))
    if "OT" not in names:
        names.append("OT")
    columns = list(names)
    for at in draw(st.lists(st.integers(0, len(names)), max_size=2)):
        columns.insert(at, "date")

    def row(width):
        return [draw(PLAIN_DATES if i < len(columns) and columns[i] == "date" else PLAIN_CELLS)
                for i in range(width)]

    lines = [columns] + [row(len(columns)) for _ in range(draw(st.integers(0, 5)))]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(1, len(lines)))
        spoil = draw(st.sampled_from(["cell", "date", "blank", "spaces", "short", "long"]))
        if spoil in ("cell", "date") and at < len(lines) and isinstance(lines[at], list):
            i = draw(st.integers(0, len(lines[at]) - 1))
            lines[at][i] = draw(ODD_DATES if spoil == "date" else ODD_CELLS)
        elif spoil in ("short", "long"):
            lines.insert(at, row(len(columns) + (1 if spoil == "long" else -1)))
        else:
            lines.insert(at, "" if spoil == "blank" else draw(st.sampled_from([" ", "\t", " \t "])))
    text = "".join((line if isinstance(line, str) else ",".join(line)) + draw(ENDINGS)
                   for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts())
def test_load_csv_matches_the_frozen_row_loop(tmp_path, text):
    """Each drawn file gives the frozen loader's channel names and value
    bytes, or its message, and no warning."""
    p = write_case(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning may reach stderr
        try:
            names, values = frozen_load_csv(p, target="OT")
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                load_csv(p, target="OT")
            assert str(got.value) == str(err)
            return
        ds = load_csv(p, target="OT")
        assert ds.channel_names == tuple(names)
        assert ds.values.shape == values.shape
        assert ds.values.tobytes() == values.tobytes()

# ---------------------------------------------------------------- splits

def test_ratio_borders_on_standard_length():
    ds = generate_additive(SyntheticConfig(seed=0))
    splits = split_borders(ds, SplitPolicy.RATIO_70_20_10, 96, 1)
    assert splits == ((0, 4300), (4300, 5529), (5529, 6144))


def test_ratio_partitions_exactly():
    for t_total in (100, 6144, 17420, 997):
        values = np.zeros((t_total, 2))
        ds = TimeSeriesDataset("x", values, ("a", "b"), 1)
        (s0, e0), (s1, e1), (s2, e2) = split_borders(ds, SplitPolicy.RATIO_70_20_10, 1, 1)
        assert s0 == 0 and e2 == t_total
        assert e0 == s1 and e1 == s2


def test_etth1_borders():
    ds = TimeSeriesDataset("e", np.zeros((17420, 2)), ("a", "b"), 1)
    splits = split_borders(ds, SplitPolicy.ETTH1_STANDARD, 96, 1)
    assert splits == ((0, 8640), (8640, 11520), (11520, 14400))
    sizes = [e - s for s, e in splits]
    assert sizes == [8640, 2880, 2880]


def test_split_borders_window_feasibility():
    tiny = TimeSeriesDataset("t", np.zeros((10, 2)), ("a", "b"), 1)
    with pytest.raises(ValueError):
        split_borders(tiny, SplitPolicy.RATIO_70_20_10, 96, 1)
    short = TimeSeriesDataset("s", np.zeros((1000, 2)), ("a", "b"), 1)
    with pytest.raises(ValueError, match="14400"):
        split_borders(short, SplitPolicy.ETTH1_STANDARD, 96, 1)


# ---------------------------------------------------------------- preparation

def test_prepare_standardizes_on_train_only():
    ds = generate_additive(SyntheticConfig(seed=5))
    ready, stats = prepare_dataset(ds, SplitPolicy.RATIO_70_20_10, l_ctx=96, h_pred=1)
    (s0, e0), _, _ = ready.borders
    train = ready.values[s0:e0]
    assert np.abs(train.mean(axis=0)).max() < 1e-9
    assert np.abs(train.std(axis=0) - 1.0).max() < 1e-9
    # val/test keep whatever drift they have; nothing renormalizes them
    manual = fit_standardizer(ds.values, (s0, e0))
    assert np.array_equal(stats.mean, manual.mean)
    assert np.array_equal(apply_standardizer(ds.values, stats), ready.values)


@pytest.mark.parametrize("split,row", [("test", 5600), ("val", 4400)])
def test_prepare_rejects_non_finite_value_in_any_split(split, row):
    ds = generate_additive(SyntheticConfig(seed=2))
    values = ds.values.copy()
    values[row, 1] = np.nan
    with pytest.raises(ValueError,
                       match=rf"non-finite value nan in the {split} split, row {row}, column 'C1'"):
        prepare_dataset(replace(ds, values=values), SplitPolicy.RATIO_70_20_10, l_ctx=96, h_pred=1)
