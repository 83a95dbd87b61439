import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from kwslab import trainer
from kwslab.cli import _run_grouped_by_stream, _sweep_configs, main
from kwslab.config import config_from_mapping
from kwslab.metrics import RunReport, load_report, reports_equivalent

from conftest import MICRO_FLAT


def write_micro_config(path, strategy="finetune", **extra):
    flat = dict(MICRO_FLAT)
    flat["strategy"] = strategy
    flat.update(extra)
    path.write_text("".join(f"{k} = {v}\n" for k, v in flat.items()))
    return path


def test_run_command(tmp_path, capsys):
    cfg_path = write_micro_config(tmp_path / "run.cfg")
    rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "finetune seed=0" in out
    assert "ACC=" in out and "BWT=" in out

    run_dir = tmp_path / "out" / "finetune_seed0"
    report = load_report(run_dir)
    assert report.strategy == "finetune"
    assert (run_dir / "matrix.csv").exists()


def test_run_env_output_root(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KWSLAB_OUT", str(tmp_path / "envroot"))
    monkeypatch.chdir(tmp_path)
    cfg_path = write_micro_config(tmp_path / "run.cfg")
    assert main(["run", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "envroot" / "finetune_seed0" / "report.json").exists()


def test_run_invalid_config(tmp_path, capsys):
    cfg_path = write_micro_config(tmp_path / "bad.cfg", strategy="nr", **{"nr.xi": 1.5})
    rc = main(["run", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ConfigError")
    assert "nr.xi" in err
    assert "(0, 1]" in err


def test_run_missing_config_file(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_and_report(tmp_path, capsys):
    manifest = {
        "base": dict(MICRO_FLAT),
        "strategies": ["finetune", {"strategy": "nr", "nr.xi": 0.5}],
        "seeds": [0],
    }
    manifest_path = tmp_path / "sweep.json"
    manifest_path.write_text(json.dumps(manifest))
    root = tmp_path / "sweeps"

    rc = main(["sweep", "--manifest", str(manifest_path), "--out", str(root)])
    table = capsys.readouterr().out
    assert rc == 0
    assert "finetune" in table and "nr" in table
    progress = [line for line in table.splitlines() if " wall=" in line]
    assert [line.split(":")[0] for line in progress] == ["finetune seed=0", "nr seed=0"]

    doc = json.loads((root / "comparison.json").read_text())
    rows = doc["aggregate"]
    assert [r["strategy"] for r in rows] == ["finetune", "nr"]
    ft = next(r for r in rows if r["strategy"] == "finetune")
    assert ft["acc_plus"] == 0.0

    nr_report = load_report(root / "nr_seed0")
    assert nr_report.config_flat["nr.xi"] == 0.5

    csv_lines = (root / "comparison.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 3

    # re-rendering from stored reports is idempotent and matches the sweep table
    rc = main(["report", "--dir", str(root), "--format", "csv"])
    first = capsys.readouterr().out
    rc2 = main(["report", "--dir", str(root), "--format", "csv"])
    second = capsys.readouterr().out
    assert rc == 0 and rc2 == 0
    assert first == second
    assert first.strip().splitlines() == csv_lines

    assert main(["report", "--dir", str(root), "--format", "json"]) == 0
    doc2 = json.loads(capsys.readouterr().out)
    assert doc2["aggregate"] == rows


def test_sweep_runs_share_features_per_stream(tmp_path, capsys, monkeypatch):
    """Runs on one stream share its features; a stream key override and a
    second seed each make a new stream. Reports match separate runs, in
    manifest order, with one progress line per run.

    The runner is called directly: a comparison needs every run of a seed on
    one stream, so `kwslab sweep` stops after these runs with a ConfigError.
    """
    manifest = {
        "base": dict(MICRO_FLAT),
        "strategies": ["finetune", {"strategy": "nr", "synth.clips": 8}, "si"],
        "seeds": [0, 1],
    }
    flats = _sweep_configs(manifest, str(tmp_path))

    extracted = Counter()
    real_mfcc = trainer.mfcc

    def counting_mfcc(clip, *args, **kwargs):
        extracted[clip.source_id] += 1
        return real_mfcc(clip, *args, **kwargs)

    monkeypatch.setattr(trainer, "mfcc", counting_mfcc)
    shared = _run_grouped_by_stream(flats)
    monkeypatch.undo()
    out = capsys.readouterr().out

    streams = {}
    for flat in flats:
        stream = trainer.build_stream_from_config(config_from_mapping(flat))
        streams[trainer.stream_fingerprint(stream)] = stream
    assert len(streams) == 4
    expected = Counter(
        ref.uri for stream in streams.values() for task in stream.tasks
        for ref in (*task.train, *task.test)
    )
    assert extracted == expected

    progress = [line.split(":")[0] for line in out.splitlines() if " wall=" in line]
    assert sorted(progress) == sorted(f"{f['strategy']} seed={f['seed']}" for f in flats)

    for flat, doc in zip(flats, shared):
        alone = trainer.run(config_from_mapping({k: v for k, v in flat.items() if k != "out_dir"}))
        assert reports_equivalent(RunReport.from_dict(doc), alone), flat["out_dir"]


def test_sweep_rejects_empty_manifest(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"base": {}, "strategies": []}))
    assert main(["sweep", "--manifest", str(path)]) == 2
    assert "sweep.strategies" in capsys.readouterr().err


def test_report_without_reports(tmp_path, capsys):
    os.makedirs(tmp_path / "empty", exist_ok=True)
    assert main(["report", "--dir", str(tmp_path / "empty")]) == 2
    assert "no report.json" in capsys.readouterr().err


def test_synth_command(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "corpus"), "--keywords", "3", "--clips", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "wrote 6 clips" in out
    wavs = sorted((tmp_path / "corpus").rglob("*.wav"))
    assert len(wavs) == 6
    assert wavs[0].parent.name == "kw00"


def test_describe_tcresnet8(capsys):
    assert main(["describe", "--model", "tcresnet8"]) == 0
    text = capsys.readouterr().out
    assert "29615" in text

    assert main(["describe", "--model", "tcresnet8", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trainable_params"] == 29615


def test_describe_subnet(capsys):
    assert main(["describe", "--model", "subnet", "--classes", "3", "--alpha", "0.2"]) == 0
    assert "625" in capsys.readouterr().out

    assert main(["describe", "--model", "subnet", "--classes", "3"]) == 2
    assert "describe.alpha" in capsys.readouterr().err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kwslab.cli", "describe", "--model", "tcresnet8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "29615" in proc.stdout
