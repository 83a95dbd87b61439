"""Tests of the benchmark's own machinery.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from checks import check_report, expected_accounting  # noqa: E402
from layers import layer_metrics, metric_units  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    SWEEP_STRATEGIES, WORKLOADS, Workload, corpus_digest, make_corpus, write_inputs,
)

MICRO = {
    "stream.pretrain_keywords": 3,
    "stream.tasks": 2,
    "stream.keywords_per_task": 2,
    "synth.keywords": 7,
    "synth.clips": 6,
    "sgd.pretrain_epochs": 2,
    "sgd.epochs": 2,
    "sgd.batch_size": 8,
    "pcl.encoder_lr_scale": 0.1,
    "si.lambda": 0.5,
}


def _snapshot():
    """Identity of every attribute of every kwslab module and class."""
    import kwslab.cli  # noqa: F401

    snap = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "kwslab" or name.startswith("kwslab.")):
            continue
        for attr, value in vars(module).items():
            snap[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    snap[(name, attr, cattr)] = cvalue
    return snap


def _sweep(tmp_path, label):
    from kwslab.cli import main

    manifest = tmp_path / "sweep.json"
    manifest.write_text(json.dumps(
        {"base": dict(MICRO, seed=3), "strategies": list(SWEEP_STRATEGIES), "seeds": [3]}))
    out = tmp_path / label
    assert main(["sweep", "--manifest", str(manifest), "--out", str(out)]) == 0
    reports = []
    for strategy in SWEEP_STRATEGIES:
        with open(out / f"{strategy}_seed3" / "report.json", encoding="utf-8") as fh:
            reports.append(json.load(fh))
    return reports


def test_traced_sweep_matches_untraced_and_restores_attributes(tmp_path):
    from kwslab.metrics import RunReport, reports_equivalent

    before = _snapshot()
    plain = _sweep(tmp_path, "plain")
    with Tracer() as tracer:
        traced = _sweep(tmp_path, "traced")
        during = _snapshot()
        assert any(during[key] is not before[key] for key in before)
    after = _snapshot()

    for a, b in zip(plain, traced):
        assert reports_equivalent(RunReport.from_dict(a), RunReport.from_dict(b)), a["strategy"]
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []

    names = {s[0] for s in tracer.spans}
    for name in ("cli.sweep", "trainer.run", "trainer.features", "dsp.mfcc",
                 "autodiff.conv1d.bwd", "autodiff.batch_norm.bwd", "strategies.gem_project"):
        assert name in names
    m = layer_metrics({"spans": tracer.spans, "counts": tracer.counts}, traced, plain, 2.0, 1.0)
    assert set(m) == set(metric_units())
    assert m["trace.overhead"] == 1.0
    assert m["dsp.mfcc.calls_per_clip"] == 6.0
    assert m["taskstream.load_clip.calls_per_clip"] == 6.0
    assert m["trainer.pretrain_tasks"] == 6
    # 3 pretrain keywords x 5 train clips x 2 epochs, in each of the six runs
    assert m["trainer.pretrain_sample_steps"] == 6 * 3 * 5 * 2
    assert m["autodiff.ParameterVector.copies_per_step"] > 5.0  # gem probes, si anchors
    assert 0.0 < m["trainer.epoch_feature_share"] < 1.0
    assert m["strategies.gem.post_batch.calls"] == m["strategies.si.post_step.calls"]


def test_corpus_generator_is_byte_deterministic(tmp_path):
    a_dir, a_digest = make_corpus(5, str(tmp_path / "a"))
    b_dir, b_digest = make_corpus(5, str(tmp_path / "b"))
    assert a_digest == b_digest == corpus_digest(a_dir) == corpus_digest(b_dir)
    wavs = sorted(os.path.relpath(os.path.join(d, f), a_dir)
                  for d, _, files in os.walk(a_dir) for f in files if f.endswith(".wav"))
    assert len(wavs) == 30 * 96
    for rel in wavs[:: len(wavs) // 16]:
        with open(os.path.join(a_dir, rel), "rb") as fa, open(os.path.join(b_dir, rel), "rb") as fb:
            assert fa.read() == fb.read()
    # a finished corpus is reused; another seed replaces it and differs
    assert make_corpus(5, str(tmp_path / "a")) == (a_dir, a_digest)
    c_dir, c_digest = make_corpus(6, str(tmp_path / "a"))
    assert c_digest != a_digest and not os.path.exists(a_dir)


def test_failed_run_is_recorded_with_its_error_type(tmp_path, monkeypatch):
    import run as bench

    monkeypatch.setattr(bench, "STATE", str(tmp_path))
    monkeypatch.setattr(bench, "RESULTS", str(tmp_path / "results"))
    wl = Workload(
        name="micro-nan", command="run", flat=dict(MICRO, strategy="finetune", **{"sgd.lr": 1e12}),
        strategies=("finetune",), slot_s=1.0, layout={"pretrain": 3, "tasks": 2, "per_task": 2},
    )
    config = write_inputs(wl, 0, str(tmp_path / "inputs"), None)
    rep = bench.run_repeat(wl, 0, config, "rep0", False, time.monotonic() + 120, {})
    assert rep["failed"] == 1
    assert rep["runs"]["finetune"]["error"] == "NanLossError"
    assert rep["rc"] == 2


@pytest.mark.parametrize("strategy, extra, buffer", [
    ("standalone", 145135, 0),
    ("pcl", 3125, 0),
    ("nr", 0, 429 * 40 * 98 * 8),
    ("gem", 0, 126 * 40 * 98 * 8),
    ("si", 60700, 0),
    ("finetune", 0, 0),
])
def test_closed_forms_match_default_stream(strategy, extra, buffer):
    layout = WORKLOADS["sweep6"].layout
    assert expected_accounting(strategy, layout, 24) == (extra, buffer)


def test_closed_forms_match_kwslab_models():
    from kwslab.models import ScalingConfig, TcResNet8, count_parameters, instantiate_subnet

    from checks import subnet_params, tcresnet8_params

    for n_classes in (2, 3, 15, 30, 60):
        assert tcresnet8_params(n_classes) == count_parameters(TcResNet8(n_classes=n_classes).params)
    for c_t in (1, 3, 5, 15):
        net = instantiate_subnet(c_t, ScalingConfig(mu=1.0, c0=15), c_in=24)
        assert subnet_params(c_t, 15) == count_parameters(net.params)


def test_check_report_flags_bad_outputs():
    layout = {"pretrain": 15, "tasks": 2, "per_task": 3}
    good = {
        "strategy": "gem", "matrix": [[1.0, None, None], [0.9, 1.0, None], [0.8, 0.7, 1.0]],
        "extra_params": 0, "buffer_bytes": expected_accounting("gem", layout, 24)[1],
        "extras": {"gem_fallbacks": 0},
    }
    assert check_report(good, layout, 24) == []
    for change in (
        {"matrix": [[1.0, None, None], [None, 1.0, None], [0.8, 0.7, 1.0]]},
        {"matrix": [[1.0, None, None], [0.9, 1.0, None], [0.8, 1.5, 1.0]]},
        {"buffer_bytes": good["buffer_bytes"] + 8},
        {"extras": {"gem_fallbacks": 1}},
    ):
        assert check_report(dict(good, **change), layout, 24) != []


def test_benchmark_json_lists_every_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metric_units()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
