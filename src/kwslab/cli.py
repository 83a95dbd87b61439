"""Command-line harness: run, sweep, report, synth, describe.

Exit code 0 on success; 2 on any expected failure, with a typed one-line
message on stderr. The default output root comes from KWSLAB_OUT (falling
back to ./runs).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from .config import RunConfig, config_from_mapping, load_config, normalize_strategy
from .errors import ConfigError, KwslabError
from .metrics import (
    RunReport,
    aggregate_comparisons,
    build_comparison,
    load_report,
    render_csv,
    render_table,
)
from .models import (
    ScalingConfig,
    SubNet,
    SubNetSpec,
    TcResNet8,
    describe_json,
    describe_text,
    scale_channels,
)
from .taskstream import SynthConfig, TaskStream, materialize_synth
from .trainer import FeatureCache, build_stream_from_config, stream_fingerprint
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
    print(
        f"{report.strategy} seed={report.seed}: "
        f"ACC={report.acc:.4f} LA={report.la:.4f} BWT={report.bwt:+.4f} "
        f"extra_params={report.extra_params} buffer_bytes={report.buffer_bytes}"
    )
    print(f"report written to {cfg.out_dir}")
    return 0


def _sweep_worker(flat: dict, features: FeatureCache | None = None) -> tuple[dict, float]:
    t0 = time.perf_counter()
    report = run_training(config_from_mapping(flat), features=features)
    return report.to_dict(), time.perf_counter() - t0


def _print_progress(report: dict, seconds: float) -> None:
    print(f"{report['strategy']} seed={report['seed']}: ACC={report['acc']:.4f} "
          f"wall={seconds:.1f}s", flush=True)


def _run_grouped_by_stream(flats: list[dict]) -> list[dict]:
    """Run configs one stream at a time, sharing one feature cache per stream.

    Only the current stream's cache is alive, so peak memory stays that of
    one run. Results come back in the order of `flats`.
    """
    groups: dict[str, tuple[TaskStream, list[int]]] = {}
    for i, flat in enumerate(flats):
        stream = build_stream_from_config(config_from_mapping(flat))
        groups.setdefault(stream_fingerprint(stream), (stream, []))[1].append(i)

    dicts: list[dict | None] = [None] * len(flats)
    for stream, indices in groups.values():
        features = FeatureCache(stream)
        for i in indices:
            dicts[i], seconds = _sweep_worker(flats[i], features)
            _print_progress(dicts[i], seconds)
    return dicts


def _sweep_configs(manifest: dict, out_root: str) -> list[dict]:
    base = dict(manifest.get("base", {}))
    strategies = manifest.get("strategies")
    if not strategies:
        raise ConfigError("sweep.strategies", "manifest needs a non-empty strategies list")
    seeds = manifest.get("seeds", [int(base.get("seed", 0))])
    if not seeds:
        raise ConfigError("sweep.seeds", "manifest needs at least one seed")

    flats = []
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
        for seed in seeds:
            flat = {**base, **overrides, "seed": int(seed)}
            cfg = config_from_mapping(flat)  # validate early, before any training
            flat["out_dir"] = _run_dir(out_root, cfg)
            flats.append(flat)
    return flats


def cmd_sweep(args) -> int:
    with open(args.manifest, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    out_root = _out_root(args.out or manifest.get("out_dir"))
    flats = _sweep_configs(manifest, out_root)

    if args.jobs > 1:
        # each worker process extracts the features of its own runs
        dicts = []
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            for doc, seconds in pool.map(_sweep_worker, flats):
                _print_progress(doc, seconds)
                dicts.append(doc)
    else:
        dicts = _run_grouped_by_stream(flats)
    reports = [RunReport.from_dict(d) for d in dicts]

    by_seed: dict[int, list[RunReport]] = {}
    for r in reports:
        by_seed.setdefault(r.seed, []).append(r)
    per_seed = [build_comparison(by_seed[s]) for s in sorted(by_seed)]
    rows = aggregate_comparisons(per_seed) if len(per_seed) > 1 else per_seed[0]

    os.makedirs(out_root, exist_ok=True)
    with open(os.path.join(out_root, "comparison.json"), "w", encoding="utf-8") as fh:
        json.dump({"per_seed": per_seed, "aggregate": rows}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_root, "comparison.csv"), "w", encoding="utf-8") as fh:
        fh.write(render_csv(rows))

    print(render_table(rows))
    print(f"\n{len(reports)} runs; outputs under {out_root}")
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
    reports = _collect_reports(args.dir)
    by_seed: dict[int, list[RunReport]] = {}
    for r in reports:
        by_seed.setdefault(r.seed, []).append(r)
    per_seed = [build_comparison(by_seed[s]) for s in sorted(by_seed)]
    rows = aggregate_comparisons(per_seed) if len(per_seed) > 1 else per_seed[0]

    if args.format == "json":
        print(json.dumps({"per_seed": per_seed, "aggregate": rows}, indent=2, sort_keys=True))
    elif args.format == "csv":
        sys.stdout.write(render_csv(rows))
    else:
        print(render_table(rows))
    return 0


def cmd_synth(args) -> int:
    cfg = SynthConfig(n_keywords=args.keywords, clips_per_keyword=args.clips)
    cfg.validate()
    count = materialize_synth(cfg, args.seed, args.out)
    print(f"wrote {count} clips ({args.keywords} keywords x {args.clips}) under {args.out}")
    return 0


def cmd_describe(args) -> int:
    if args.model == "tcresnet8":
        model = TcResNet8(n_classes=args.classes)
    else:
        if args.alpha is None:
            raise ConfigError("describe.alpha", "--alpha is required for the subnet model")
        channels = scale_channels(args.alpha)
        spec = SubNetSpec(alpha=args.alpha, n_classes=args.classes, scaled_channels=channels)
        model = SubNet(c_in=TcResNet8.CHANNELS[1], spec=spec)
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
    except KwslabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
