import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from kwslab import metrics
from kwslab.errors import ConfigError, MetricsError
from kwslab.metrics import (
    RunReport,
    acc,
    aggregate_comparisons,
    build_comparison,
    bwt,
    emit_report,
    la,
    load_report,
    render_csv,
    render_table,
    reports_equivalent,
    summary,
)


def full_matrix(rows):
    """The square matrix of lower-triangular rows, None above the diagonal."""
    return [row + [None] * (len(rows) - len(row)) for row in rows]


# -- headline metrics ------------------------------------------------------------

def test_two_task_example():
    m = full_matrix([[0.9], [0.8, 0.95]])
    assert acc(m) == pytest.approx(0.875, abs=1e-12)
    assert la(m) == pytest.approx(0.925, abs=1e-12)
    assert bwt(m) == pytest.approx(-0.1, abs=1e-12)


def test_no_forgetting_means_zero_bwt():
    m = full_matrix([[0.8], [0.8, 0.6], [0.8, 0.6, 0.7]])
    assert bwt(m) == pytest.approx(0.0, abs=1e-15)


def test_three_task_by_hand():
    rows = [[0.9], [0.7, 0.8], [0.5, 0.6, 0.75]]
    m = full_matrix(rows)
    assert acc(m) == pytest.approx((0.5 + 0.6 + 0.75) / 3)
    assert la(m) == pytest.approx((0.9 + 0.8 + 0.75) / 3)
    assert bwt(m) == pytest.approx(((0.5 - 0.9) + (0.6 - 0.8)) / 2)
    # excluding the pretrain task drops row/column 0
    assert acc(m, include_pretrain=False) == pytest.approx((0.6 + 0.75) / 2)
    assert la(m, include_pretrain=False) == pytest.approx((0.8 + 0.75) / 2)
    assert bwt(m, include_pretrain=False) == pytest.approx(0.6 - 0.8)


def test_single_task_bwt_undefined():
    m = full_matrix([[0.9]])
    assert acc(m) == 0.9
    assert bwt(m) is None
    s = summary(m, include_pretrain=True)
    assert s["acc"] == 0.9
    assert s["bwt"] is None
    with pytest.raises(MetricsError):  # no task is left once pretraining is excluded
        summary(m, include_pretrain=False)


def test_partial_matrix_rejected():
    m = [[0.9, None], [None, 0.8]]  # (1, 0) missing
    with pytest.raises(MetricsError):
        acc(m)


@st.composite
def lower_triangular(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    vals = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    return [[draw(vals) for _ in range(t + 1)] for t in range(n)]


@given(lower_triangular(), st.booleans())
def test_metrics_match_loop_oracle(rows, include):
    m = full_matrix(rows)
    assert acc(m, include) == pytest.approx(oracles.acc_loop(rows, include), abs=1e-12)
    assert la(m, include) == pytest.approx(oracles.la_loop(rows, include), abs=1e-12)
    if include or len(rows) >= 3:
        assert bwt(m, include) == pytest.approx(oracles.bwt_loop(rows, include), abs=1e-12)
    else:
        assert bwt(m, include) is None


# -- run reports -------------------------------------------------------------------

def make_report(strategy="finetune", seed=0, acc_v=0.8, fingerprint="f" * 16, **kw):
    rows = [[0.9, None], [0.8, acc_v]]
    fields = dict(
        strategy=strategy,
        seed=seed,
        config_hash="c" * 16,
        stream_fingerprint=fingerprint,
        matrix=rows,
        acc=(0.8 + acc_v) / 2,
        la=(0.9 + acc_v) / 2,
        bwt=-0.1,
        acc_by_task=[0.9, (0.8 + acc_v) / 2],
        extra_params_by_task=[0, 100],
        extra_params=100,
        epoch_seconds=[0.5, 0.6],
        tt_mean_epoch_seconds=0.55,
    )
    fields.update(kw)
    return RunReport(**fields)


def test_report_dict_round_trip():
    r = make_report()
    again = RunReport.from_dict(r.to_dict())
    assert again == r


def test_report_schema_gate():
    doc = make_report().to_dict()
    doc["schema_version"] = 999
    with pytest.raises(MetricsError):
        RunReport.from_dict(doc)


def test_reports_equivalent_ignores_timings():
    a = make_report(epoch_seconds=[1.0], tt_mean_epoch_seconds=1.0)
    b = make_report(epoch_seconds=[9.0], tt_mean_epoch_seconds=9.0)
    assert reports_equivalent(a, b)
    c = make_report(acc_v=0.99)
    assert not reports_equivalent(a, c)


def test_emit_and_load(tmp_path):
    r = make_report()
    written = emit_report(r, tmp_path)
    names = {p.split("/")[-1] for p in written}
    assert names == {
        "report.json",
        "matrix.csv",
        "acc_vs_tasks.csv",
        "params_vs_tasks.csv",
        "params_vs_acc.csv",
    }
    assert load_report(tmp_path) == r
    assert load_report(tmp_path / "report.json") == r

    lines = (tmp_path / "matrix.csv").read_text().strip().splitlines()
    assert lines[0] == "after_task,task0,task1"
    assert len(lines) == 3
    assert lines[1].startswith("0,0.9,")
    assert lines[2] == "1,0.8,0.8"

    curve = (tmp_path / "acc_vs_tasks.csv").read_text().strip().splitlines()
    assert len(curve) == 1 + len(r.acc_by_task)
    growth = (tmp_path / "params_vs_acc.csv").read_text().strip().splitlines()
    assert growth[1] == "0,0.9"


def test_failed_report_write_leaves_no_partial_file(tmp_path, monkeypatch):
    kept = make_report()
    emit_report(kept, tmp_path / "kept")

    def dump(doc, fh, **kwargs):
        fh.write('{"strategy": ')
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(metrics.json, "dump", dump)
    for out in (tmp_path / "fresh", tmp_path / "kept"):
        with pytest.raises(OSError):
            emit_report(make_report(acc_v=0.5), out)
    assert os.listdir(tmp_path / "fresh") == []
    assert not (tmp_path / "kept" / "report.json.tmp").exists()
    assert load_report(tmp_path / "kept") == kept


def test_float_precision_survives_emit(tmp_path):
    v = 1.0 / 3.0
    r = make_report(acc_v=v)
    emit_report(r, tmp_path)
    assert load_report(tmp_path).matrix[1][1] == v


# -- comparisons -------------------------------------------------------------------

def test_build_comparison_acc_plus():
    ft = make_report("finetune", acc_v=0.6)
    pcl = make_report("pcl", acc_v=0.9)
    rows = build_comparison([pcl, ft])
    assert [r["strategy"] for r in rows] == ["finetune", "pcl"]
    assert rows[0]["acc_plus"] == pytest.approx(0.0)
    assert rows[1]["acc_plus"] == pytest.approx(pcl.acc - ft.acc)


def test_build_comparison_without_baseline():
    rows = build_comparison([make_report("pcl"), make_report("si")])
    assert all(r["acc_plus"] is None for r in rows)


def test_build_comparison_rejects_mixed_runs():
    with pytest.raises(ConfigError):
        build_comparison([make_report(seed=0), make_report("pcl", seed=1)])
    with pytest.raises(ConfigError):
        build_comparison([make_report(), make_report("pcl", fingerprint="g" * 16)])


def test_build_comparison_rejects_a_repeated_strategy():
    with pytest.raises(ConfigError, match="2 reports of strategy 'finetune' for seed 0"):
        build_comparison([make_report("finetune"), make_report("pcl"), make_report("finetune")])


def test_aggregate_means_by_strategy():
    seed_a = build_comparison([make_report("finetune", 0, 0.6), make_report("pcl", 0, 0.9)])
    seed_b = build_comparison([make_report("finetune", 1, 0.7), make_report("pcl", 1, 0.8)])
    agg = aggregate_comparisons([seed_a, seed_b])
    assert [r["strategy"] for r in agg] == ["finetune", "pcl"]
    pcl_acc = (seed_a[1]["acc"] + seed_b[1]["acc"]) / 2
    assert agg[1]["acc"] == pytest.approx(pcl_acc)


def test_renderers():
    rows = build_comparison([make_report("finetune"), make_report("pcl")])
    table = render_table(rows)
    lines = table.splitlines()
    assert len(lines) == 3
    assert "strategy" in lines[0] and "acc_plus" in lines[0]
    assert "finetune" in lines[1] and "pcl" in lines[2]

    csv_text = render_csv(rows)
    csv_lines = csv_text.strip().splitlines()
    assert csv_lines[0].startswith("strategy,acc,la,bwt")
    assert len(csv_lines) == 3
    # floats are emitted with full precision
    acc_cell = csv_lines[2].split(",")[1]
    assert float(acc_cell) == rows[1]["acc"]
