"""Command-line harness: run, sweep, report, synth, describe.

Exit code 0 on success; 2 on any expected failure, with a typed one-line
message on stderr. The default output root comes from KWSLAB_OUT (falling
back to ./runs). A sweep at `--jobs N` forks its runs through `procs`.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import pickle
import sys
import time
import traceback
from dataclasses import replace

from . import procs
from .config import RunConfig, config_from_mapping, load_config, normalize_strategy
from .errors import ConfigError, KwslabError
from .fileio import replace_on_success
from .metrics import RunReport, compare_by_seed, load_report, render_csv, render_table
from .models import (
    SubNet,
    TcResNet8,
    describe_json,
    describe_text,
    scale_channels,
)
from .taskstream import materialize_synth
from .trainer import FeatureCache
from .trainer import run as run_training

OUT_ENV = "KWSLAB_OUT"


def _out_root(explicit: str | None) -> str:
    return explicit or os.environ.get(OUT_ENV) or "runs"


def _run_dir(root: str, cfg: RunConfig) -> str:
    return os.path.join(root, f"{cfg.strategy}_seed{cfg.seed}")


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if not cfg.out_dir:
        cfg = replace(cfg, out_dir=_run_dir(_out_root(args.out), cfg))
    report = run_training(cfg)
    bwt = "-" if report.bwt is None else f"{report.bwt:+.4f}"  # no earlier task
    print(
        f"{report.strategy} seed={report.seed}: "
        f"ACC={report.acc:.4f} LA={report.la:.4f} BWT={bwt} "
        f"extra_params={report.extra_params} buffer_bytes={report.buffer_bytes}"
    )
    print(f"report written to {cfg.out_dir}")
    return 0


def _error_text(exc: Exception) -> str:
    """A failed run's entry under `failed`. Called while handling `exc`: an
    error other than KwslabError and OSError also prints its traceback."""
    if not isinstance(exc, (KwslabError, OSError)):
        traceback.print_exc()
    return f"{type(exc).__name__}: {exc}"


def _sweep_worker(cfg: RunConfig, features: FeatureCache) -> tuple[RunReport | str, float]:
    """Run one sweep config on its stream's cache, in the sweep's process or
    in a forked child, which pickles this result into its pipe. A failed
    run returns its error as text, which pickles whatever the error holds.
    Any `Exception` fails only its own run; Ctrl-C still stops the sweep."""
    t0 = time.perf_counter()
    try:
        result = run_training(cfg, features=features)
    except Exception as exc:
        result = _error_text(exc)
    return result, time.perf_counter() - t0


def _send_result(cfg: RunConfig, features: FeatureCache, fd: int) -> None:
    view = memoryview(pickle.dumps(_sweep_worker(cfg, features)))
    while view:
        view = view[os.write(fd, view):]


def _reap(children: procs.Workers, done) -> None:
    """Read every ready child's pipe to EOF, then reap the child and pass
    its result to `done`. A report can be larger than a pipe buffer, so the
    pipe is read before the reap. Only a child that exits 0 has written its
    whole result."""
    for fd in children.ready():
        data = b"".join(iter(functools.partial(os.read, fd, 1 << 16), b""))
        (index, t0, warm_up), code = children.end(fd)
        if code == 0:
            result, seconds = pickle.loads(data)
            seconds += warm_up
        else:
            result = (f"ChildProcessError: the run's process ended ({procs.ended(code)}) "
                      "without a result")
            seconds = time.perf_counter() - t0
        done(index, (result, seconds))


def _require_one_stream_per_seed(cfgs: list[RunConfig]) -> None:
    """A comparison needs every run of a seed to name one stream section."""
    stream_of_seed = {}
    for cfg in cfgs:
        if stream_of_seed.setdefault(cfg.seed, cfg.stream) != cfg.stream:
            raise ConfigError(
                "sweep.strategies",
                f"runs of seed {cfg.seed} would train on different streams; "
                "stream keys belong in the manifest base",
            )


def _run_sweep(cfgs: list[RunConfig], jobs: int) -> tuple[list[RunReport], list[dict]]:
    """Run `cfgs` through `_sweep_worker` one stream at a time: a run of
    consecutive configs with one seed and stream section. Every stream's
    `FeatureCache` is built first, so each stream is built once and a
    stream that cannot be built (a missing or too small corpus, a corrupt
    WAV) raises here before any run. Each cache is dropped before the next
    one's first barrier. At `jobs` 1, or where processes cannot fork, every
    run runs in this process and waits at its cache's barriers as a lone
    run does. Otherwise each runs in a child forked through `procs`, at
    most `jobs` at once, on the cache it inherits copy-on-write, and
    pickles `_sweep_worker`'s result into its pipe. Before each fork this
    process gets or trains the config's task 0 in the cache, so that the
    child only restores it, then waits for the last task's rows, so that
    the child inherits a complete block and no helper; a warm-up or an
    extraction that raises, or a fork refused, fails the config here.
    Prints one progress line per run, in config order, and returns the
    finished runs' reports and an entry per failed run."""
    reports, failed, results = [], [], {}

    def done(index: int, outcome: tuple[RunReport | str, float]) -> None:
        results[index] = outcome
        while (n := len(reports) + len(failed)) in results:
            cfg, (result, seconds) = cfgs[n], results.pop(n)
            head = f"{cfg.strategy} seed={cfg.seed}:"
            if isinstance(result, str):
                print(f"{head} FAILED wall={seconds:.1f}s {result}", flush=True)
                failed.append({"strategy": cfg.strategy, "seed": cfg.seed, "error": result})
            else:
                print(f"{head} ACC={result.acc:.4f} wall={seconds:.1f}s", flush=True)
                reports.append(result)

    forking = jobs > 1 and procs.CAN_FORK
    streams = [(FeatureCache(seed, stream_cfg), list(stream)) for (seed, stream_cfg), stream in
               itertools.groupby(enumerate(cfgs), lambda item: (item[1].seed, item[1].stream))]
    children = procs.Workers()  # each tagged (config index, start time, warm-up seconds)
    try:
        while streams:
            features, stream = streams.pop(0)
            for index, cfg in stream:
                if not forking:
                    done(index, _sweep_worker(cfg, features))
                    continue
                while len(children) >= jobs:
                    _reap(children, done)
                t0 = time.perf_counter()
                try:
                    features.pretraining(cfg)
                    features.require(len(features.stream.tasks) - 1)
                    children.start(functools.partial(_send_result, cfg, features),
                                   (index, t0, time.perf_counter() - t0))
                except Exception as exc:  # a refused fork is an OSError (EAGAIN or ENOMEM)
                    done(index, (_error_text(exc), time.perf_counter() - t0))
            del features  # before the next stream's first barrier
        while children:
            _reap(children, done)
    finally:
        children.close()
    return reports, failed


def _sweep_configs(manifest: dict, out_root: str) -> list[RunConfig]:
    """One config per (seed, strategy entry), seed by seed: the runs of a
    seed share one stream, so each stream's runs come back to back."""
    base = dict(manifest.get("base", {}))
    strategies = manifest.get("strategies")
    if not strategies:
        raise ConfigError("sweep.strategies", "manifest needs a non-empty strategies list")
    seeds = manifest.get("seeds", [base.get("seed", 0)])
    if not seeds:
        raise ConfigError("sweep.seeds", "manifest needs at least one seed")

    entries, entry_of = [], {}
    for entry in strategies:
        if isinstance(entry, str):
            overrides = {"strategy": normalize_strategy(entry)}
        elif isinstance(entry, dict):
            if "strategy" not in entry:
                raise ConfigError("sweep.strategies", f"entry missing 'strategy': {entry!r}")
            overrides = dict(entry)
            overrides["strategy"] = normalize_strategy(overrides["strategy"])
        else:
            raise ConfigError("sweep.strategies", f"entry must be a name or mapping: {entry!r}")
        name = overrides["strategy"]
        if name in entry_of:  # both would write <strategy>_seed<n> and share a table row
            raise ConfigError(
                "sweep.strategies",
                f"entries {entry_of[name]!r} and {entry!r} both run strategy {name!r}; "
                "a sweep runs each strategy once",
            )
        entry_of[name] = entry
        entries.append(overrides)
    cfgs, seed_of = [], {}
    for seed in seeds:
        for overrides in entries:
            cfg = config_from_mapping({**base, **overrides, "seed": seed})
            cfgs.append(replace(cfg, out_dir=_run_dir(out_root, cfg)))
        if cfg.seed in seed_of:  # as for a repeated strategy: one directory and row
            raise ConfigError(
                "sweep.seeds",
                f"seeds {seed_of[cfg.seed]!r} and {seed!r} are both seed {cfg.seed}; "
                "a sweep runs each seed once",
            )
        seed_of[cfg.seed] = seed
    return cfgs


def _load_manifest(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(path, f"not a JSON manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise ConfigError(path, "a sweep manifest must be a JSON object")
    for key, kind, name in (("base", dict, "an object"), ("strategies", list, "a list"),
                            ("seeds", list, "a list"), ("out_dir", str, "a string")):
        if key in manifest and not isinstance(manifest[key], kind):
            raise ConfigError(f"sweep.{key}", f"must be {name}, got {manifest[key]!r}")
    return manifest


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError("--jobs", f"must be at least 1, got {args.jobs}")
    manifest = _load_manifest(args.manifest)
    out_root = _out_root(args.out or manifest.get("out_dir"))
    cfgs = _sweep_configs(manifest, out_root)
    _require_one_stream_per_seed(cfgs)
    reports, failed = _run_sweep(cfgs, args.jobs)
    if not reports:
        raise KwslabError(f"all {len(cfgs)} runs failed; no comparison written")
    comparison = {**compare_by_seed(reports), "failed": failed}

    os.makedirs(out_root, exist_ok=True)
    json_path = os.path.join(out_root, "comparison.json")
    with replace_on_success(json_path, "w", encoding="utf-8") as fh:
        json.dump(comparison, fh, indent=2, sort_keys=True)
        fh.write("\n")
    csv_path = os.path.join(out_root, "comparison.csv")
    with replace_on_success(csv_path, "w", encoding="utf-8") as fh:
        fh.write(render_csv(comparison["aggregate"]))

    print(render_table(comparison["aggregate"]))
    print(f"\n{len(reports)} runs; outputs under {out_root}")
    if failed:
        raise KwslabError(
            f"{len(failed)} of {len(cfgs)} runs failed; comparison.json lists them under 'failed'"
        )
    return 0


def _collect_reports(root: str) -> list[RunReport]:
    found = []
    for dirpath, _, filenames in os.walk(root):
        if "report.json" in filenames:
            found.append(load_report(os.path.join(dirpath, "report.json")))
    if not found:
        raise KwslabError(f"no report.json files under {root}")
    return found


def cmd_report(args) -> int:
    comparison = compare_by_seed(_collect_reports(args.dir))
    if args.format == "json":
        print(json.dumps(comparison, indent=2, sort_keys=True))
    elif args.format == "csv":
        sys.stdout.write(render_csv(comparison["aggregate"]))
    else:
        print(render_table(comparison["aggregate"]))
    return 0


def cmd_synth(args) -> int:
    flat = {"synth.keywords": args.keywords, "synth.clips": args.clips}
    cfg = config_from_mapping(flat).stream.synth
    count = materialize_synth(cfg, args.seed, args.out)
    print(f"wrote {count} clips ({args.keywords} keywords x {args.clips}) under {args.out}")
    return 0


def cmd_describe(args) -> int:
    if args.classes < 2:  # TcResNet8 checks this itself; a SubNet builds any head
        raise ConfigError("model.n_classes", f"must be >= 2, got {args.classes}")
    if args.model == "tcresnet8":
        model = TcResNet8(n_classes=args.classes)
    else:
        if args.alpha is None:
            raise ConfigError("describe.alpha", "--alpha is required for the subnet model")
        model = SubNet(TcResNet8.CHANNELS[1], scale_channels(args.alpha), args.classes)
    print(describe_json(model) if args.json else describe_text(model))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kwslab",
        description="Continual-learning experiments for small-footprint keyword spotting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute one training run from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help=f"output root (default ${OUT_ENV} or ./runs)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="run a manifest of strategies/seeds and compare")
    p.add_argument("--manifest", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="output root override")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("report", help="re-render comparison tables from stored reports")
    p.add_argument("--dir", required=True)
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("synth", help="materialize the synthetic corpus to WAV files")
    p.add_argument("--out", required=True)
    p.add_argument("--keywords", type=int, default=30)
    p.add_argument("--clips", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("describe", help="print a model's layer table")
    p.add_argument("--model", choices=("tcresnet8", "subnet"), required=True)
    p.add_argument("--classes", type=int, default=15)
    p.add_argument("--alpha", type=float)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_describe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (KwslabError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
