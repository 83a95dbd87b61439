import dataclasses
import errno
import json
import os
import pathlib
import signal
import subprocess
import sys
import time
import weakref
from collections import Counter

import pytest

from kwslab import cli, procs, taskstream, trainer
from kwslab.cli import _run_sweep, _sweep_configs, main
from kwslab.errors import ConfigError, NanLossError, WavFormatError
from kwslab.metrics import compare_by_seed, load_report, reports_equivalent

from conftest import (
    MICRO_FLAT,
    assert_reaped,
    forbid_extraction_in_tasks,
    log_extractions,
    micro_config,
    record_forks,
)


def log_extractions_in_runs(monkeypatch, path):
    """Make every process log each clip it extracts while a sweep run runs
    in it, in the sweep's process or a forked one, to `path`. Returns a
    function that reads the log as `log_extractions` does."""
    running = []
    real_run = cli.run_training

    def run(cfg, features=None):
        running.append(cfg)
        try:
            return real_run(cfg, features=features)
        finally:
            running.pop()

    monkeypatch.setattr(cli, "run_training", run)
    real_mfcc = trainer.mfcc
    read = log_extractions(monkeypatch, path)
    logging_mfcc = trainer.mfcc

    def mfcc(clip, *args, **kwargs):
        return (logging_mfcc if running else real_mfcc)(clip, *args, **kwargs)

    monkeypatch.setattr(trainer, "mfcc", mfcc)
    return read


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


def test_run_prints_a_dash_for_an_undefined_bwt(tmp_path, capsys):
    """Without pretraining, a one-task stream has no earlier task to forget."""
    cfg_path = write_micro_config(
        tmp_path / "run.cfg", **{"metrics.include_pretrain": "false", "stream.tasks": 1})
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert " BWT=- " in capsys.readouterr().out
    assert load_report(tmp_path / "out" / "finetune_seed0").bwt is None


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


def test_run_rejects_infinite_mu_before_training(tmp_path, capsys):
    cfg_path = write_micro_config(tmp_path / "inf.cfg", strategy="pcl", **{"pcl.mu": "inf"})
    rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "error: ConfigError: pcl.mu: must be in (0, inf), got inf\n"
    assert not (tmp_path / "out").exists()


def test_run_rejects_one_keyword_per_task_before_training(tmp_path, capsys):
    cfg_path = write_micro_config(
        tmp_path / "one.cfg", strategy="standalone", **{"stream.keywords_per_task": 1})
    rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: ConfigError: stream.keywords_per_task: must be in [2, inf), got 1\n"
    )
    assert not (tmp_path / "out").exists()


def test_run_over_a_truncated_wav_exits_2_with_a_wav_format_error(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--keywords", "7", "--clips", "6"]) == 0
    wav = sorted(corpus.rglob("*.wav"))[0]
    wav.write_bytes(wav.read_bytes()[:-1])  # the data chunk ends mid-sample
    capsys.readouterr()
    cfg_path = write_micro_config(
        tmp_path / "dir.cfg", **{"stream.source": "dir", "stream.corpus_dir": corpus})
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: WavFormatError: ") and str(wav) in err
    assert err.count("\n") == 1


def corrupt_last_task(corpus):
    """Cut the first training clip of the micro `dir` stream's last task
    in the middle of a sample; returns its path."""
    stream = taskstream.split_corpus_dir(corpus, 0, micro_config().stream.layout)
    wav = corpus / stream.tasks[-1].train[0].uri
    wav.write_bytes(wav.read_bytes()[:-1])
    return wav


def interrupt_task0(monkeypatch):
    real_train_task = trainer._train_task

    def train_task(strategy, task):
        if task.is_pretrain:
            raise KeyboardInterrupt
        return real_train_task(strategy, task)

    monkeypatch.setattr(trainer, "_train_task", train_task)


def nan_in_task1(monkeypatch):
    real_train_task = trainer._train_task

    def train_task(strategy, task):
        if task.task_id == 1:
            raise NanLossError("forced")
        return real_train_task(strategy, task)

    monkeypatch.setattr(trainer, "_train_task", train_task)


@pytest.mark.parametrize("ending", ["finished", "nan", "interrupt", "corrupt"])
def test_no_extraction_helper_outlives_a_run(tmp_path, capsys, monkeypatch, ending):
    """`kwslab run` on a WAV corpus on 2 CPUs, one helper, whether the run
    finishes, aborts on a NaN or is interrupted in task 0: the helper is
    reaped before `main` returns or raises. A corrupt WAV in the last task
    is a one-line error naming the clip, exit 2 and no report, before any
    fork and before any training."""
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--keywords", "7", "--clips", "6"]) == 0
    cfg_path = write_micro_config(
        tmp_path / "dir.cfg", **{"stream.source": "dir", "stream.corpus_dir": corpus})
    argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    monkeypatch.setattr(trainer.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    if ending == "corrupt":
        corrupted = corrupt_last_task(corpus)
        monkeypatch.setattr(trainer, "_train_task", lambda *args: pytest.fail("trained"))
    if ending == "nan":
        nan_in_task1(monkeypatch)
    if ending == "interrupt":
        interrupt_task0(monkeypatch)
    forks = record_forks(monkeypatch)
    capsys.readouterr()
    if ending == "finished":
        assert main(argv) == 0
    elif ending == "interrupt":
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == 2
    assert len(forks) == (ending != "corrupt")
    assert_reaped(forks)
    report = tmp_path / "out" / "finetune_seed0" / "report.json"
    assert report.exists() == (ending == "finished")
    if ending == "corrupt":
        err = capsys.readouterr().err
        assert err.startswith("error: WavFormatError: ") and str(corrupted) in err
        assert err.count("\n") == 1


def test_sweep_seeds_are_checked_as_ints(tmp_path):
    for seed in (2.7, True):
        with pytest.raises(ConfigError) as err:
            _sweep_configs({"strategies": ["finetune"], "seeds": [seed]}, str(tmp_path))
        assert err.value.field == "seed"


def test_run_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    cfg_path = tmp_path / "utf16.cfg"
    cfg_path.write_bytes(b"\xff\xfe" + "strategy = finetune\n".encode("utf-16-le"))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: ConfigError: {cfg_path}: not UTF-8 text: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


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
    second seed each make a new stream. Each clip is extracted once per
    stream across the process tree, and never inside a task's training in
    the runs' process. Reports match separate runs, in run order, with one
    progress line per run.

    The runner is called directly: a comparison needs every run of a seed on
    one stream, so `kwslab sweep` rejects this manifest before training. The
    runs of a stream are put back to back, as `kwslab sweep` does.
    """
    manifest = {
        "base": dict(MICRO_FLAT),
        "strategies": ["finetune", {"strategy": "nr", "synth.clips": 8}, "si"],
        "seeds": [0, 1],
    }
    cfgs = sorted(
        _sweep_configs(manifest, str(tmp_path)),
        key=lambda cfg: trainer.stream_fingerprint(trainer.stream_for(cfg.seed, cfg.stream)),
    )

    extracted = log_extractions(monkeypatch, tmp_path / "extracted.log")
    forbid_extraction_in_tasks(monkeypatch, extracted)
    shared, failed = _run_sweep(cfgs, jobs=1)
    monkeypatch.undo()
    assert failed == []
    out = capsys.readouterr().out

    streams = {}
    for cfg in cfgs:
        stream = trainer.stream_for(cfg.seed, cfg.stream)
        streams[trainer.stream_fingerprint(stream)] = stream
    assert len(streams) == 4
    expected = Counter(
        ref.uri for stream in streams.values() for task in stream.tasks
        for ref in (*task.train, *task.test)
    )
    assert Counter(uri for _, uri in extracted()) == expected

    progress = [line.split(":")[0] for line in out.splitlines() if " wall=" in line]
    assert sorted(progress) == sorted(f"{c.strategy} seed={c.seed}" for c in cfgs)

    for cfg, report in zip(cfgs, shared):
        alone = trainer.run(dataclasses.replace(cfg, out_dir=""))
        assert reports_equivalent(report, alone), cfg.out_dir


def test_a_sweep_builds_its_stream_once_and_fingerprints_it_once(tmp_path, capsys,
                                                                 monkeypatch):
    """The seed's feature cache builds and fingerprints its stream once; no
    check and no run builds it again."""
    calls = Counter()
    for name in ("synth_stream", "stream_fingerprint"):
        def counted(*args, _name=name, _real=getattr(trainer, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(trainer, name, counted)
    path = write_sweep(tmp_path, ["standalone", "pcl", "nr", "gem", "si", "finetune"])
    assert main(["sweep", "--manifest", str(path), "--out", str(tmp_path / "sweeps")]) == 0
    assert calls == {"synth_stream": 1, "stream_fingerprint": 1}


FORK_ONLY = pytest.mark.skipif(not procs.CAN_FORK,
                               reason="a sweep forks its runs only where processes can fork")


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=FORK_ONLY)])
def test_the_sweep_cache_drops_a_stream_before_building_the_next(tmp_path, monkeypatch, jobs):
    """One stream's features at a time: a seed's cache reaches its first
    barrier only after the sweep has dropped the last one's, in-process and
    forking."""
    started, alive_at_start = weakref.WeakSet(), []

    class Cache:
        def __init__(self, seed, stream_cfg):
            self.stream = trainer.stream_for(seed, stream_cfg)

        def require(self, task_id):
            if self not in started:
                alive_at_start.append(len(started))
                started.add(self)

        def pretraining(self, cfg):
            pass

    def run(cfg, features=None):
        features.require(0)
        raise NanLossError("not trained")

    monkeypatch.setattr(cli, "FeatureCache", Cache)
    monkeypatch.setattr(cli, "run_training", run)
    manifest = {"base": dict(MICRO_FLAT), "strategies": ["finetune", "nr"], "seeds": [0, 1]}
    reports, failed = _run_sweep(_sweep_configs(manifest, str(tmp_path)), jobs)
    assert reports == [] and len(failed) == 4
    assert alive_at_start == [0, 0] and len(started) == 0


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_rejects_split_streams_before_training(tmp_path, capsys, monkeypatch, jobs):
    manifest = {
        "base": dict(MICRO_FLAT),
        "strategies": ["finetune", {"strategy": "nr", "synth.clips": 8}],
        "seeds": [0],
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(manifest))
    trained = []
    monkeypatch.setattr(cli, "run_training", lambda *a, **k: trained.append(a))

    root = tmp_path / "sweeps"
    assert main(["sweep", "--manifest", str(path), "--out", str(root), "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError") and "seed 0" in err
    assert trained == []
    assert not root.exists()


def test_sweep_rejects_a_stream_key_its_source_ignores(tmp_path, capsys, monkeypatch):
    """`synth.snr_db` leaves a WAV corpus's clips as they are, but it is a
    stream key all the same: an entry may not override it."""
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--keywords", "7", "--clips", "6"]) == 0
    base = {**MICRO_FLAT, "stream.source": "dir", "stream.corpus_dir": str(corpus)}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(
        {"base": base, "strategies": ["finetune", {"strategy": "nr", "synth.snr_db": 5.0}]}))
    trained = []
    monkeypatch.setattr(cli, "run_training", lambda *a, **k: trained.append(a))

    root = tmp_path / "sweeps"
    capsys.readouterr()
    assert main(["sweep", "--manifest", str(path), "--out", str(root)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: sweep.strategies") and "seed 0" in err
    assert trained == []
    assert not root.exists()


@pytest.mark.parametrize("entries", [
    ["nr", {"strategy": "nr", "nr.xi": 0.5}],
    ["ft", "si", "finetune"],
])
def test_sweep_rejects_duplicate_strategies_before_training(tmp_path, capsys, monkeypatch,
                                                           entries):
    """Runs of one strategy and seed would share a run directory and a table row."""
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"base": dict(MICRO_FLAT), "strategies": entries}))
    trained = []
    monkeypatch.setattr(cli, "run_training", lambda *a, **k: trained.append(a))

    root = tmp_path / "sweeps"
    assert main(["sweep", "--manifest", str(path), "--out", str(root)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: sweep.strategies")
    assert repr(entries[0]) in err and repr(entries[-1]) in err
    assert trained == []
    assert not root.exists()


@pytest.mark.parametrize("seeds", [[0, 0], [1, 0, "1"]])
def test_sweep_rejects_a_repeated_seed_before_training(tmp_path, capsys, monkeypatch, seeds):
    """Runs of one strategy and seed would share a run directory and a table row."""
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(
        {"base": dict(MICRO_FLAT), "strategies": ["finetune"], "seeds": seeds}))
    trained = []
    monkeypatch.setattr(cli, "run_training", lambda *a, **k: trained.append(a))

    root = tmp_path / "sweeps"
    assert main(["sweep", "--manifest", str(path), "--out", str(root)]) == 2
    assert capsys.readouterr().err == (
        f"error: ConfigError: sweep.seeds: seeds {seeds[0]!r} and {seeds[-1]!r} are both "
        f"seed {int(seeds[0])}; a sweep runs each seed once\n"
    )
    assert trained == []
    assert not root.exists()


def write_sweep(tmp_path, strategies, seeds=(0,)):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(
        {"base": dict(MICRO_FLAT), "strategies": strategies, "seeds": list(seeds)}))
    return path


def test_sweep_lists_failed_runs_and_finishes_the_rest(tmp_path, capsys, monkeypatch):
    path = write_sweep(tmp_path, ["finetune", "ewc", "nr"], seeds=(0, 1))
    real_run = cli.run_training

    def run(cfg, features=None):
        if cfg.strategy == "ewc":
            raise NanLossError(f"non-finite loss on task 1 epoch 0 of seed {cfg.seed}")
        return real_run(cfg, features=features)

    monkeypatch.setattr(cli, "run_training", run)
    root = tmp_path / "sweeps"
    assert main(["sweep", "--manifest", str(path), "--out", str(root)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: KwslabError: 2 of 6 runs failed; comparison.json lists them under 'failed'\n"
    )

    progress = [line for line in captured.out.splitlines() if " wall=" in line]
    assert [line.split(":")[0] for line in progress] == [
        f"{strategy} seed={seed}" for seed in (0, 1) for strategy in ("finetune", "ewc", "nr")
    ]
    assert progress[1].startswith("ewc seed=0: FAILED wall=")
    assert progress[1].endswith("NanLossError: non-finite loss on task 1 epoch 0 of seed 0")

    doc = json.loads((root / "comparison.json").read_text())
    assert [row["strategy"] for row in doc["aggregate"]] == ["finetune", "nr"]
    assert doc["failed"] == [
        {"strategy": "ewc", "seed": seed,
         "error": f"NanLossError: non-finite loss on task 1 epoch 0 of seed {seed}"}
        for seed in (0, 1)
    ]
    assert len((root / "comparison.csv").read_text().strip().splitlines()) == 3
    assert (root / "nr_seed1" / "report.json").exists()
    assert not (root / "ewc_seed0").exists()


def test_sweep_survives_an_unexpected_exception_in_one_run(tmp_path, capsys, monkeypatch):
    """An error outside KwslabError and OSError fails only its run: the other
    runs finish and are compared, and its traceback goes to stderr."""
    path = write_sweep(tmp_path, ["finetune", "ewc", "nr"])
    real_run = cli.run_training

    def run(cfg, features=None):
        if cfg.strategy == "ewc":
            raise ValueError("a bug in one run")
        return real_run(cfg, features=features)

    monkeypatch.setattr(cli, "run_training", run)
    root = tmp_path / "sweeps"
    assert main(["sweep", "--manifest", str(path), "--out", str(root)]) == 2
    captured = capsys.readouterr()
    assert "Traceback" in captured.err and "ValueError: a bug in one run" in captured.err
    assert captured.err.endswith(
        "error: KwslabError: 1 of 3 runs failed; comparison.json lists them under 'failed'\n"
    )
    doc = json.loads((root / "comparison.json").read_text())
    assert [row["strategy"] for row in doc["aggregate"]] == ["finetune", "nr"]
    assert doc["failed"] == [
        {"strategy": "ewc", "seed": 0, "error": "ValueError: a bug in one run"}
    ]
    assert (root / "nr_seed0" / "report.json").exists()


def test_sweep_without_a_finished_run_writes_no_comparison(tmp_path, capsys, monkeypatch):
    path = write_sweep(tmp_path, ["finetune", "nr"])

    def run(cfg, features=None):
        raise NanLossError("non-finite loss")

    monkeypatch.setattr(cli, "run_training", run)
    root = tmp_path / "sweeps"
    assert main(["sweep", "--manifest", str(path), "--out", str(root)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: KwslabError: all 2 runs failed; no comparison written\n"
    assert captured.out.count(": FAILED wall=") == 2
    assert not root.exists()


def unserializable_comparison(reports):
    return {**compare_by_seed(reports), "unserializable": object()}


def render_csv_out_of_space(rows):
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("name, attr, fault, raised", [
    ("comparison.json", "compare_by_seed", unserializable_comparison, TypeError),
    ("comparison.csv", "render_csv", render_csv_out_of_space, None),
], ids=["json", "csv"])
def test_a_failed_comparison_write_keeps_the_previous_one(tmp_path, capsys, monkeypatch,
                                                          name, attr, fault, raised):
    """Each comparison file is written whole or not at all: a write that
    fails partway leaves the last sweep's file and no temporary file."""
    path = write_sweep(tmp_path, ["finetune"])
    root = tmp_path / "sweeps"
    argv = ["sweep", "--manifest", str(path), "--out", str(root)]
    assert main(argv) == 0
    before = (root / name).read_bytes()

    monkeypatch.setattr(cli, attr, fault)
    if raised is None:
        assert main(argv) == 2
        assert "No space left on device" in capsys.readouterr().err
    else:
        with pytest.raises(raised):
            main(argv)
    assert (root / name).read_bytes() == before
    assert not list(root.glob("*.tmp"))


@FORK_ONLY
def test_sweep_workers_extract_each_clip_once(tmp_path, capsys, monkeypatch):
    """At --jobs 2 the sweep's process tree extracts the stream once, in the
    sweep's process and its cache's helpers, and every forked run reads the
    features it inherits instead of extracting them."""
    path = write_sweep(tmp_path, ["finetune", "nr", "si"])
    extracted = log_extractions(monkeypatch, tmp_path / "extracted.log")
    in_runs = log_extractions_in_runs(monkeypatch, tmp_path / "in_runs.log")
    root = tmp_path / "sweeps"
    assert main(["sweep", "--manifest", str(path), "--out", str(root), "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    progress = [line.split(":")[0] for line in out.splitlines() if " wall=" in line]
    assert progress == ["finetune seed=0", "nr seed=0", "si seed=0"]

    lines = extracted()
    assert in_runs() == []
    assert set(Counter(uri for _, uri in lines).values()) == {1}
    stream = trainer.stream_for(0, micro_config().stream)
    clips = {ref.uri for task in stream.tasks for ref in (*task.train, *task.test)}
    assert {uri for _, uri in lines} == clips


SEVEN = ["standalone", "pcl", "nr", "finetune", "ewc", "si", "gem"]


def kill_gem_with(signum):
    """Make gem's run send `signum` to its own process."""
    def setup(monkeypatch):
        real_run = cli.run_training

        def run(cfg, features=None):
            if cfg.strategy == "gem":
                os.kill(os.getpid(), signum)
            return real_run(cfg, features=features)

        monkeypatch.setattr(cli, "run_training", run)
    return setup


def refuse_gem_fork(monkeypatch):
    """Make the fork of gem's child fail as fork does when out of processes."""
    real_start = procs.Workers.start

    def refuse():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    def start(workers, body, tag):
        with monkeypatch.context() as patch:
            if body.func is cli._send_result and body.args[0].strategy == "gem":
                patch.setattr(os, "fork", refuse)
            return real_start(workers, body, tag)

    monkeypatch.setattr(procs.Workers, "start", start)


@FORK_ONLY
@pytest.mark.parametrize("setup, error", [
    pytest.param(kill_gem_with(signal.SIGKILL), "killed by SIGKILL", id="SIGKILL"),
    pytest.param(kill_gem_with(getattr(signal, "SIGRTMIN", 0) + 6), "killed by signal 40",
                 id="SIGRTMIN+6", marks=pytest.mark.skipif(
                     getattr(signal, "SIGRTMIN", 0) != 34, reason="Linux's real-time signals")),
    pytest.param(refuse_gem_fork, f"BlockingIOError: [Errno {errno.EAGAIN}]", id="fork-fails"),
])
def test_a_killed_worker_fails_and_the_finished_runs_are_compared(tmp_path, capsys,
                                                                  monkeypatch, setup, error):
    """gem's child is killed by a signal, named or not, or cannot be forked:
    gem is listed under `failed` with why, while finetune, which runs beside
    it, and nr, which starts after it, finish and are compared. The sweep
    exits 2 with a one-line error."""
    root = tmp_path / "sweeps"
    path = write_sweep(tmp_path, ["finetune", "gem", "nr"])
    setup(monkeypatch)
    forks = record_forks(monkeypatch)
    assert main(["sweep", "--manifest", str(path), "--out", str(root), "--jobs", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: KwslabError: 1 of 3 runs failed; comparison.json lists them under 'failed'\n"
    )
    doc = json.loads((root / "comparison.json").read_text())
    assert [row["strategy"] for row in doc["aggregate"]] == ["finetune", "nr"]
    assert [(f["strategy"], f["seed"]) for f in doc["failed"]] == [("gem", 0)]
    assert error in doc["failed"][0]["error"]
    assert_reaped(forks)


@FORK_ONLY
def test_an_interrupted_sweep_leaves_no_child_behind(tmp_path, monkeypatch):
    """Ctrl-C in the sweep's process, at seed 1's warm-up, while seed 0's
    run's child is busy: the interrupt reaches the caller, and the child is
    killed and reaped."""
    real_pretraining = trainer.FeatureCache.pretraining

    def pretraining(features, cfg):
        if cfg.seed == 1:
            raise KeyboardInterrupt
        return real_pretraining(features, cfg)

    def run(cfg, features=None):
        time.sleep(120)

    monkeypatch.setattr(trainer.FeatureCache, "pretraining", pretraining)
    monkeypatch.setattr(cli, "run_training", run)
    manifest = {"base": dict(MICRO_FLAT), "strategies": ["finetune"], "seeds": [0, 1]}
    monkeypatch.setattr(procs.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    forks = record_forks(monkeypatch)  # on 1 CPU a cache forks no helper: runs only
    with pytest.raises(KeyboardInterrupt):
        _run_sweep(_sweep_configs(manifest, str(tmp_path)), jobs=2)
    assert len(forks) == 1
    assert_reaped(forks)


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=FORK_ONLY)])
def test_a_stream_that_fails_to_build_stops_the_sweep_before_any_run(tmp_path, capsys,
                                                                     monkeypatch, jobs):
    """A corrupt WAV fails the stream's cache, and `_run_sweep` raises its
    error before any run. The sweep's process checks the clip once, when
    it builds the stream; no process reads it, and none is forked."""
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--keywords", "7", "--clips", "6"]) == 0
    wav = sorted(corpus.rglob("*.wav"))[0]
    wav.write_bytes(wav.read_bytes()[:-1])  # the data chunk ends mid-sample
    manifest = {
        "base": {**MICRO_FLAT, "stream.source": "dir", "stream.corpus_dir": str(corpus)},
        "strategies": ["finetune", "nr"],
    }
    log = tmp_path / "read.log"
    for name in ("check_wav", "read_wav"):
        def logging(*args, _name=name, _real=getattr(taskstream, name), **kwargs):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{_name} {os.getpid()} {args[-1]}\n")
            return _real(*args, **kwargs)
        monkeypatch.setattr(taskstream, name, logging)
    trained = []
    monkeypatch.setattr(cli, "run_training", lambda *a, **k: trained.append(a))
    forks = record_forks(monkeypatch)
    with pytest.raises(WavFormatError) as err:
        _run_sweep(_sweep_configs(manifest, str(tmp_path / "sweeps")), jobs)
    assert str(wav) in str(err.value)
    assert trained == [] and " wall=" not in capsys.readouterr().out
    lines = log.read_text(encoding="utf-8").splitlines()
    assert [line for line in lines if line.endswith(f" {wav}")] == [f"check_wav {os.getpid()} {wav}"]
    assert forks == []


def fail_a_clip_of_seed0(monkeypatch):
    """Make loading one clip of seed 0's last task raise an `OSError`, in
    every process; returns the error text a run fails with."""
    stream = trainer.stream_for(0, micro_config().stream)
    victim = stream.tasks[-1].train[0].uri
    real_load_clip = taskstream.TaskStream.load_clip

    def load_clip(self, ref):
        if self.seed == 0 and ref.uri == victim:
            raise OSError(errno.EIO, f"cannot read {victim}")
        return real_load_clip(self, ref)

    monkeypatch.setattr(taskstream.TaskStream, "load_clip", load_clip)
    return f"OSError: [Errno {errno.EIO}] cannot read {victim}"


@pytest.mark.parametrize("jobs", ["1", pytest.param("2", marks=FORK_ONLY)])
def test_a_clip_that_cannot_be_extracted_fails_each_run_of_its_stream(tmp_path, capsys,
                                                                      monkeypatch, jobs):
    """A clip of seed 0's stream that cannot be loaded once the streams are
    built fails each run of seed 0 with its own error; seed 1's runs finish
    and are compared, and the sweep exits 2."""
    path = write_sweep(tmp_path, ["finetune", "nr"], seeds=(0, 1))
    error = fail_a_clip_of_seed0(monkeypatch)
    forks = record_forks(monkeypatch)
    root = tmp_path / "sweeps"
    assert main(["sweep", "--manifest", str(path), "--out", str(root), "--jobs", jobs]) == 2
    assert capsys.readouterr().err == (
        "error: KwslabError: 2 of 4 runs failed; comparison.json lists them under 'failed'\n"
    )
    doc = json.loads((root / "comparison.json").read_text())
    assert doc["failed"] == [
        {"strategy": strategy, "seed": 0, "error": error} for strategy in ("finetune", "nr")
    ]
    assert [row["strategy"] for row in doc["aggregate"]] == ["finetune", "nr"]
    assert [[row["strategy"] for row in rows] for rows in doc["per_seed"]] == [["finetune", "nr"]]
    assert (root / "nr_seed1" / "report.json").exists()
    assert not (root / "finetune_seed0" / "report.json").exists()
    assert_reaped(forks)


@FORK_ONLY
def test_an_in_process_sweep_run_trains_task0_before_every_row_is_in(tmp_path, capsys,
                                                                   monkeypatch):
    """At --jobs 1 on 2 CPUs the first run waits at its barriers as a lone
    run does: it starts training task 0 while the helper still holds the
    later tasks' rows. The helper's first later row waits for task 0's
    training to begin (or 60 s), so a sweep that waited for every row
    first would see every clip extracted."""
    monkeypatch.setattr(procs.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    stream = trainer.stream_for(0, micro_config().stream)
    later = {ref.uri for task in stream.tasks[1:] for ref in (*task.train, *task.test)}
    extracted = log_extractions(monkeypatch, tmp_path / "extracted.log")
    training = tmp_path / "training"
    parent, logging_mfcc, deadline = os.getpid(), trainer.mfcc, time.monotonic() + 60

    def mfcc(clip, *args, **kwargs):
        while (os.getpid() != parent and clip.source_id in later and not training.exists()
               and time.monotonic() < deadline):
            time.sleep(0.01)
        return logging_mfcc(clip, *args, **kwargs)

    real_train_task, seen = trainer._train_task, []

    def train_task(strategy, task):
        if task.is_pretrain and not training.exists():
            seen.append({uri for _, uri in extracted()})
            training.touch()
        return real_train_task(strategy, task)

    monkeypatch.setattr(trainer, "mfcc", mfcc)
    monkeypatch.setattr(trainer, "_train_task", train_task)
    path = write_sweep(tmp_path, ["finetune", "nr"])
    assert main(["sweep", "--manifest", str(path), "--out", str(tmp_path / "sweeps")]) == 0
    assert len(seen) == 1 and later and not seen[0] & later
    assert Counter(uri for _, uri in extracted()) == Counter(
        ref.uri for task in stream.tasks for ref in (*task.train, *task.test))


@pytest.mark.parametrize("fault, error", [("missing", "CorpusError"), ("corrupt", "WavFormatError")])
def test_a_sweep_over_a_bad_corpus_exits_2_before_its_first_run(tmp_path, capsys, monkeypatch,
                                                                 fault, error):
    """A missing corpus, or a corrupt WAV in any task, fails the whole
    sweep with one line before any process forks or any run trains."""
    corpus = tmp_path / "corpus"
    if fault == "corrupt":
        assert main(["synth", "--out", str(corpus), "--keywords", "7", "--clips", "6"]) == 0
        corrupt_last_task(corpus)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "base": {**MICRO_FLAT, "stream.source": "dir", "stream.corpus_dir": str(corpus)},
        "strategies": ["finetune", "nr"],
    }))
    trained = []
    monkeypatch.setattr(cli, "run_training", lambda *a, **k: trained.append(a))
    forks = record_forks(monkeypatch)
    root = tmp_path / "sweeps"
    capsys.readouterr()
    assert main(["sweep", "--manifest", str(path), "--out", str(root), "--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: ") and str(corpus) in err
    assert err.count("\n") == 1
    assert trained == [] and forks == []
    assert not root.exists()


@FORK_ONLY
def test_a_line_buffered_before_a_sweep_forks_is_written_once(tmp_path):
    """A line the sweep's process has written to stdout but not flushed
    when it forks its helpers and runs is written once, by that process:
    no child writes its inherited copy again."""
    path = write_sweep(tmp_path, ["finetune", "nr"])
    argv = ["sweep", "--manifest", str(path), "--out", str(tmp_path / "sweeps"), "--jobs", "2"]
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, kwslab.cli; print('before the forks'); sys.exit(kwslab.cli.main({argv!r}))"],
        capture_output=True, text=True, timeout=600,
        env={**env, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("before the forks") == 1
    assert proc.stdout.startswith("before the forks\n")


def artifacts(out_dir):
    """Every file a run writes but report.json (which holds timings), as bytes."""
    out_dir = pathlib.Path(out_dir)
    return {
        str(path.relative_to(out_dir)): path.read_bytes()
        for path in out_dir.rglob("*") if path.is_file() and path.name != "report.json"
    }


def assert_runs_match_separate_runs(root, entries, micro_run):
    for entry in entries:
        strategy, overrides = (entry, {}) if isinstance(entry, str) else (
            entry["strategy"], {k: v for k, v in entry.items() if k != "strategy"})
        alone, alone_dir = micro_run(strategy, **overrides)
        report = load_report(root / f"{strategy}_seed0")
        assert reports_equivalent(report, alone), strategy
        assert report.training_log == alone.training_log, strategy
        files = artifacts(root / f"{strategy}_seed0")
        assert "checkpoints" in {pathlib.Path(name).parts[0] for name in files}, strategy
        assert files == artifacts(alone_dir), strategy


def pretrainings_of(tmp_path, monkeypatch, argv):
    """Run `kwslab <argv>`; return the config strategy and the strategy
    object's name of every pretraining task trained, in order."""
    log = tmp_path / "pretrained.log"
    real_train_task = trainer._train_task

    def logging_train_task(strategy, task):
        if task.is_pretrain:
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{strategy.ctx.cfg.strategy} {strategy.name}\n")
        return real_train_task(strategy, task)

    monkeypatch.setattr(trainer, "_train_task", logging_train_task)
    assert main(argv) == 0
    monkeypatch.undo()
    return log.read_text(encoding="utf-8").splitlines()


def sweep_pretrainings(tmp_path, monkeypatch, entries, jobs):
    """Run a micro sweep; return (output root, `pretrainings_of` it)."""
    root = tmp_path / "sweeps"
    path = write_sweep(tmp_path, entries)
    argv = ["sweep", "--manifest", str(path), "--out", str(root), "--jobs", jobs]
    return root, pretrainings_of(tmp_path, monkeypatch, argv)


@pytest.mark.parametrize("jobs", ["1", pytest.param("2", marks=FORK_ONLY)])
def test_sweep_pretrains_each_class_once(tmp_path, capsys, monkeypatch, micro_run, jobs):
    """Two task-0 states serve all seven strategies: finetune, ewc, si, gem
    and nr adopt the one an Si trains, pcl and standalone the one a Pcl
    trains. Every run still matches a run of its config alone, checkpoints
    and CSVs byte for byte."""
    root, pretrained = sweep_pretrainings(tmp_path, monkeypatch, SEVEN, jobs)
    assert pretrained == ["standalone pcl", "nr si"]
    assert_runs_match_separate_runs(root, SEVEN, micro_run)


def test_a_pretraining_key_override_trains_its_own_task0(tmp_path, capsys, monkeypatch,
                                                         micro_run):
    entries = ["finetune", "gem", {"strategy": "si", "sgd.lr": 0.02}]
    root, pretrained = sweep_pretrainings(tmp_path, monkeypatch, entries, "1")
    assert pretrained == ["finetune si", "si si"]
    assert_runs_match_separate_runs(root, entries, micro_run)


@pytest.mark.parametrize("strategy", SEVEN)
def test_a_lone_run_adopts_its_class_task0(tmp_path, capsys, monkeypatch, strategy):
    """`kwslab run` takes task 0 the one way a sweep does: an object of the
    strategy's pretraining class trains it, once, and the run adopts it."""
    cfg_path = write_micro_config(tmp_path / "run.cfg", strategy=strategy)
    argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    producer = "pcl" if strategy in ("pcl", "standalone") else "si"
    assert pretrainings_of(tmp_path, monkeypatch, argv) == [f"{strategy} {producer}"]


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_rejects_jobs_below_one(tmp_path, capsys, monkeypatch, jobs):
    path = write_sweep(tmp_path, ["finetune"])
    trained = []
    monkeypatch.setattr(cli, "run_training", lambda *a, **k: trained.append(a))
    root = tmp_path / "sweeps"
    assert main(["sweep", "--manifest", str(path), "--out", str(root), "--jobs", jobs]) == 2
    assert capsys.readouterr().err == f"error: ConfigError: --jobs: must be at least 1, got {jobs}\n"
    assert trained == []
    assert not root.exists()


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"strategies": ["finetune"]', "sweep.json"),
        ('["finetune"]', "sweep.json"),
        ('{"strategies": ["finetune"], "seeds": 3}', "sweep.seeds"),
        ('{"strategies": ["finetune"], "base": [1, 2]}', "sweep.base"),
        ('{"strategies": "finetune"}', "sweep.strategies"),
        ('{"strategies": ["finetune"], "out_dir": 5}', "sweep.out_dir"),
    ],
    ids=["syntax", "list", "int-seeds", "list-base", "str-strategies", "int-out-dir"],
)
def test_sweep_rejects_a_malformed_manifest(tmp_path, capsys, text, field):
    path = tmp_path / "sweep.json"
    path.write_text(text)
    root = tmp_path / "sweeps"
    assert main(["sweep", "--manifest", str(path), "--out", str(root)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: ") and field in err
    assert len(err.splitlines()) == 1
    assert not root.exists()


def test_sweep_rejects_empty_manifest(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"base": {}, "strategies": []}))
    assert main(["sweep", "--manifest", str(path)]) == 2
    assert "sweep.strategies" in capsys.readouterr().err


def test_report_without_reports(tmp_path, capsys):
    os.makedirs(tmp_path / "empty", exist_ok=True)
    assert main(["report", "--dir", str(tmp_path / "empty")]) == 2
    assert "no report.json" in capsys.readouterr().err


def test_report_rejects_two_runs_of_one_strategy_and_seed(tmp_path, capsys, micro_run):
    """Two sweeps that differ only in `sgd.lr`, under one root, hold two
    finetune runs of seed 0: a table would show two rows, and ACC+ would be
    taken against whichever finetune was found first."""
    root = tmp_path / "runs"
    for sweep, overrides in (("lr_a", {}), ("lr_b", {"sgd.lr": 0.02})):
        report, _ = micro_run("finetune", **overrides)
        path = root / sweep / "finetune_seed0" / "report.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(report.to_dict()))
    assert main(["report", "--dir", str(root)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: ConfigError: comparison: 2 reports of strategy 'finetune' for seed 0; "
        "a comparison takes each strategy once\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("fault", ["truncated", "missing-field", "unknown-field"])
def test_report_names_a_malformed_report(tmp_path, capsys, micro_run, fault):
    doc = micro_run("finetune")[0].to_dict()
    text = json.dumps(doc)
    if fault == "truncated":
        text = text[: len(text) // 2]
    elif fault == "missing-field":
        del doc["acc"]
        text = json.dumps(doc)
    else:
        text = json.dumps({**doc, "accuracy": 1.0})
    path = tmp_path / "runs" / "finetune_seed0" / "report.json"
    path.parent.mkdir(parents=True)
    path.write_text(text)
    assert main(["report", "--dir", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: MetricsError: {path}: ")
    assert len(err.splitlines()) == 1


def test_synth_command(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "corpus"), "--keywords", "3", "--clips", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "wrote 6 clips" in out
    wavs = sorted((tmp_path / "corpus").rglob("*.wav"))
    assert len(wavs) == 6
    assert wavs[0].parent.name == "kw00"

    assert main(["synth", "--out", str(tmp_path / "none"), "--keywords", "0"]) == 2
    assert "synth.keywords: must be in [1, inf), got 0" in capsys.readouterr().err
    assert not (tmp_path / "none").exists()


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


@pytest.mark.parametrize("classes", ["0", "1"])
def test_describe_rejects_a_subnet_of_fewer_than_two_classes(capsys, classes):
    assert main(["describe", "--model", "subnet", "--classes", classes, "--alpha", "0.2"]) == 2
    assert capsys.readouterr().err == (
        f"error: ConfigError: model.n_classes: must be >= 2, got {classes}\n"
    )


# 1e300 is finite but scales a layer past models.MAX_SUBNET_CHANNELS
@pytest.mark.parametrize("alpha", ["inf", "nan", "0", "1e300"])
def test_describe_rejects_an_alpha_it_cannot_build(capsys, alpha):
    assert main(["describe", "--model", "subnet", "--classes", "3", "--alpha", alpha]) == 2
    assert "pcl.alpha" in capsys.readouterr().err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kwslab.cli", "describe", "--model", "tcresnet8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "29615" in proc.stdout
