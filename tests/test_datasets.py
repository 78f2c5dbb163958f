import numpy as np
import pytest

from cgpt.datasets import (
    BURN_IN,
    ChannelRole,
    SplitPolicy,
    SyntheticConfig,
    TimeSeriesDataset,
    generate_additive,
    generate_interactive,
    load_csv,
    prepare_dataset,
    split_borders,
    standardize_dataset,
)
from cgpt.preprocessing import fit_standardizer


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
    assert ds.roles[3] is ChannelRole.TARGET
    assert all(r is ChannelRole.OPERATIONAL for r in ds.roles[:3])
    assert ds.graph.present and ds.graph.parents(3) == [0, 1]


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
    with pytest.raises(ValueError, match="AR coefficient"):
        SyntheticConfig(ar_coeff=1.0)
    with pytest.raises(ValueError, match="length"):
        SyntheticConfig(length=0)
    with pytest.raises(ValueError, match="lags"):
        generate_additive(SyntheticConfig(length=8, lags=(4, 9)))
    with pytest.raises(ValueError, match="lags"):
        generate_additive(SyntheticConfig(lags=(4, 9, 2)))


def test_dataset_values_are_frozen():
    ds = generate_additive(SyntheticConfig(seed=0, length=128))
    with pytest.raises(ValueError):
        ds.values[0, 0] = 99.0


def test_burn_in_constant():
    assert BURN_IN == 32


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
    assert ds.roles[2] is ChannelRole.TARGET


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

    with pytest.raises(ValueError, match="no such file"):
        load_csv(tmp_path / "missing.csv", target="OT")


def test_load_csv_reports_every_bad_line(tmp_path):
    p = tmp_path / "multi.csv"
    p.write_text("a,OT\n1,2\nx,2\n3,y\nnan,1\n4,inf\n")
    with pytest.raises(ValueError, match=r"rejected 4 rows.*line 3.*line 4.*"
                                         r"line 5: non-finite value in column 'a'.*"
                                         r"line 6: non-finite value in column 'OT'"):
        load_csv(p, target="OT")


def test_load_csv_schema_roles(tmp_path):
    p = tmp_path / "roles.csv"
    p.write_text("ts,u1,x1,OT\n1,2,3,4\n5,6,7,8\n")
    ds = load_csv(p, target="OT", schema={"ts": "drop", "u1": "operational"})
    assert ds.channel_names == ("u1", "x1", "OT")
    assert ds.roles == (ChannelRole.OPERATIONAL, ChannelRole.INTERNAL_STATE, ChannelRole.TARGET)
    with pytest.raises(ValueError, match="drops the target"):
        load_csv(p, target="OT", schema={"OT": "drop"})


# ---------------------------------------------------------------- splits

def test_ratio_borders_on_standard_length():
    ds = generate_additive(SyntheticConfig(seed=0))
    splits = split_borders(ds, SplitPolicy.RATIO_70_20_10)
    assert splits == ((0, 4300), (4300, 5529), (5529, 6144))


def test_ratio_partitions_exactly():
    for t_total in (100, 6144, 17420, 997):
        values = np.zeros((t_total, 2))
        values[:, 1] = 1.0  # keep channel roles trivial
        ds = TimeSeriesDataset("x", values, ("a", "b"),
                               (ChannelRole.INTERNAL_STATE, ChannelRole.TARGET), 1)
        (s0, e0), (s1, e1), (s2, e2) = split_borders(ds, SplitPolicy.RATIO_70_20_10)
        assert s0 == 0 and e2 == t_total
        assert e0 == s1 and e1 == s2


def test_etth1_borders():
    ds = TimeSeriesDataset("e", np.zeros((17420, 2)), ("a", "b"),
                           (ChannelRole.INTERNAL_STATE, ChannelRole.TARGET), 1)
    splits = split_borders(ds, SplitPolicy.ETTH1_STANDARD)
    assert splits == ((0, 8640), (8640, 11520), (11520, 14400))
    sizes = [e - s for s, e in splits]
    assert sizes == [8640, 2880, 2880]


def test_split_borders_window_feasibility():
    tiny = TimeSeriesDataset("t", np.zeros((10, 2)), ("a", "b"),
                             (ChannelRole.INTERNAL_STATE, ChannelRole.TARGET), 1)
    with pytest.raises(ValueError):
        split_borders(tiny, SplitPolicy.RATIO_70_20_10, l_ctx=96)
    short = TimeSeriesDataset("s", np.zeros((1000, 2)), ("a", "b"),
                              (ChannelRole.INTERNAL_STATE, ChannelRole.TARGET), 1)
    with pytest.raises(ValueError, match="14400"):
        split_borders(short, SplitPolicy.ETTH1_STANDARD)


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
    redo = standardize_dataset(ds.with_borders(ready.borders), stats)
    assert np.array_equal(redo.values, ready.values)
