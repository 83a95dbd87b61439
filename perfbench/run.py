"""kwslab benchmark: one workload, end to end or traced layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload sweep6 --seed 0 --seconds 40 --trace 0

Every repeat is one call of kwslab.cli.main in a fresh child process with a
fresh empty output root, BLAS pinned to one thread and one process at a
time. `--trace 0` times the calls with tracing off and prints the end-to-end
metrics; `--trace 1` makes one untraced and one traced call and prints the
per-layer metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A full record with provenance
goes to .perfbench/results/. See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
RESULTS = os.path.join(STATE, "results")
CHILD = os.path.join(HERE, "child.py")

SETUP_SAMPLES = 8  # setup-only children per end-to-end run, besides the workload's own
DEADLINE_S = 170.0  # every child is stopped by then, so a run ends within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "fail_rate": "ratio"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(spec: dict, work: str, deadline: float) -> dict:
    """Run one child to completion (or kill it at the deadline); returns its result."""
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    for key in ("result", "spans"):
        if spec.get(key) and os.path.exists(spec[key]):
            os.remove(spec[key])
    if deadline - time.monotonic() < 1.0:
        return {"rc": None, "error": "Timeout"}
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, spec_path, repr(t_spawn)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, err = proc.communicate(timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
        return {"rc": None, "error": "Timeout", "stderr": err[-2000:]}
    except BaseException:  # interrupted or terminated: leave no child behind
        proc.kill()
        proc.wait()
        raise
    result = {"rc": None, "error": None}
    if os.path.isfile(spec["result"]):
        with open(spec["result"], encoding="utf-8") as fh:
            result = json.load(fh)
    if proc.returncode != 0:
        result["rc"] = proc.returncode
        result["error"] = result.get("error") or f"ChildExit{proc.returncode}"
    elif result.get("rc") not in (0, None) and not result.get("error"):
        match = re.search(r"^error: (\w+):", err, re.MULTILINE)
        result["error"] = match.group(1) if match else f"CliExit{result['rc']}"
    if result.get("error"):
        result["stderr"] = err[-2000:]
    return result


def run_repeat(wl, seed: int, config: str, tag: str, trace: bool, deadline: float,
               refs: dict) -> dict:
    """One CLI call in a fresh child and a fresh empty output root, with its checks."""
    from checks import check_reference, check_report

    work = os.path.join(STATE, "work", f"{wl.name}-seed{seed}-{tag}")
    shutil.rmtree(work, ignore_errors=True)
    out_root = os.path.join(work, "out")
    os.makedirs(out_root)
    os.makedirs(RESULTS, exist_ok=True)
    if wl.command == "sweep":
        argv = ["sweep", "--manifest", config, "--jobs", "1", "--out", out_root]
    else:
        argv = ["run", "--config", config, "--out", out_root]
    spec = {
        "command": wl.command, "config": config, "argv": argv, "trace": trace,
        "result": os.path.join(work, "result.json"),
        "spans": os.path.join(RESULTS, f"{wl.name}-seed{seed}-spans.json"),
    }
    rep = spawn(spec, work, deadline)
    rep["runs"] = {}
    rep["reports"] = []
    for strategy in wl.strategies:
        path = os.path.join(out_root, f"{strategy}_seed{seed}", "report.json")
        run = {"passed": False}
        if rep.get("rc") == 0 and os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
            problems = (check_report(report, wl.layout, wl.clips_per_keyword)
                        + check_reference(report, wl.name, seed, refs))
            run.update(
                passed=not problems, problems=problems,
                config_hash=report["config_hash"],
                stream_fingerprint=report["stream_fingerprint"],
                acc=report["acc"], la=report["la"], bwt=report["bwt"],
                tt_mean_epoch_seconds=report["tt_mean_epoch_seconds"],
            )
            rep["reports"].append(report)
        else:
            run["error"] = rep.get("error") or "NoReport"
        rep["runs"][strategy] = run
    rep["failed"] = sum(not r["passed"] for r in rep["runs"].values())
    if trace and os.path.isfile(spec["spans"]):  # kept in results/ for inspection
        with open(spec["spans"], encoding="utf-8") as fh:
            rep["trace"] = json.load(fh)
    shutil.rmtree(work, ignore_errors=True)
    return rep


def setup_sample(wl, seed: int, config: str, deadline: float) -> float | None:
    work = os.path.join(STATE, "work", f"{wl.name}-seed{seed}-setup")
    os.makedirs(work, exist_ok=True)
    spec = {"command": wl.command, "config": config, "setup_only": True,
            "result": os.path.join(work, "result.json")}
    res = spawn(spec, work, deadline)
    shutil.rmtree(work, ignore_errors=True)
    return res.get("setup_s") if res.get("rc") is None and not res.get("error") else None


def provenance(seed: int) -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (AttributeError, KeyError, TypeError):
        blas = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        revision = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        revision = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    child = child_env()
    return {
        "git_revision": revision,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: child.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
    }


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "kwslab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode("utf-8") + b"\0" + fh.read())
    return h.hexdigest()


def end_to_end(wl, seed, config, seconds, deadline, refs, record) -> dict:
    setup_sample(wl, seed, config, deadline)  # warm-up: writes bytecode caches, not measured
    n_reps = wl.repeats(seconds)
    # setup samples are spread between the repeats, so they see the same
    # machine conditions as the timed calls rather than one short burst
    cuts = [SETUP_SAMPLES * i // (n_reps + 1) for i in range(n_reps + 2)]
    setups, reps = [], []
    for i in range(n_reps + 1):
        samples = (setup_sample(wl, seed, config, deadline) for _ in range(cuts[i + 1] - cuts[i]))
        setups += [s for s in samples if s is not None]
        if i < n_reps:
            reps.append(run_repeat(wl, seed, config, f"rep{i}", False, deadline, refs))
    record["repeats"] = [{k: v for k, v in r.items() if k != "reports"} for r in reps]
    ok = [r for r in reps if r.get("rc") == 0] or reps
    setups += [r["setup_s"] for r in reps if "setup_s" in r]
    attempted = len(reps) * len(wl.strategies)
    failed = sum(r["failed"] for r in reps)
    metrics = {
        "wall_s": statistics.median(r.get("wall_s", DEADLINE_S) for r in ok),
        "setup_s": statistics.median(setups) if setups else DEADLINE_S,
        "peak_rss_mb": statistics.median(r.get("peak_rss_mb", 0.0) for r in ok),
        # rule-of-succession estimate (failed + 1) / (attempted + 2): never 0,
        # and a single failed run at least doubles it
        "fail_rate": (failed + 1) / (attempted + 2),
    }
    record["samples"] = {"wall_s": len(ok), "setup_s": len(setups), "peak_rss_mb": len(ok)}
    print(f"{wl.name} seed={seed}: {len(reps)} repeat(s), {attempted} runs attempted, "
          f"{failed} failed")
    for name, value in metrics.items():
        note = (f"{failed} failed of {attempted} attempted" if name == "fail_rate"
                else f"median of {record['samples'][name]}")
        print(f"  {name} = {value:.6g} {END_TO_END_UNITS[name]} ({note})")
    return {"attempted": attempted, "failed": failed, "correct": failed == 0,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}}


def traced(wl, seed, config, deadline, refs, record) -> dict:
    from kwslab.metrics import RunReport, reports_equivalent
    from layers import layer_metrics, metric_units

    base = run_repeat(wl, seed, config, "untraced", False, deadline, refs)
    tr = run_repeat(wl, seed, config, "traced", True, deadline, refs)
    attempted = 2 * len(wl.strategies)
    failed = base["failed"] + tr["failed"]
    equivalent = len(base["reports"]) == len(tr["reports"]) == len(wl.strategies) and all(
        reports_equivalent(RunReport.from_dict(a), RunReport.from_dict(b))
        for a, b in zip(base["reports"], tr["reports"]))
    record["repeats"] = [{k: v for k, v in r.items() if k not in ("reports", "trace")}
                         for r in (base, tr)]
    record["reports_equivalent"] = equivalent
    units = metric_units()
    if "trace" in tr and "wall_s" in base and "wall_s" in tr:
        values = layer_metrics(tr["trace"], tr["reports"], base["reports"],
                               tr["wall_s"], base["wall_s"])
    else:
        values = dict.fromkeys(units, 0.0)
    print(f"{wl.name} seed={seed}: traced run, reports_equivalent={equivalent}, "
          f"{failed} of {attempted} runs failed")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    print(f"  trainer.epoch_feature_share = {values['trainer.epoch_feature_share']:.4f} "
          f"next to tt_mean_epoch_seconds = {values['trainer.tt_mean_epoch_seconds']:.4f} s")
    return {"attempted": attempted, "failed": failed, "correct": failed == 0 and equivalent,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, make_corpus, write_inputs

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "kwslab", "__init__.py")):
        print(f"perfbench: no kwslab package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(1, SRC)
    from checks import load_references

    deadline = time.monotonic() + DEADLINE_S
    wl = WORKLOADS[args.workload]
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "provenance": provenance(args.seed)}
    corpus = None
    if wl.corpus:
        corpus, record["corpus_sha256"] = make_corpus(args.seed, os.path.join(STATE, "corpus"))
    config = write_inputs(wl, args.seed, os.path.join(STATE, "inputs", wl.name), corpus)
    with open(config, encoding="utf-8") as fh:
        record["config"] = json.load(fh)
    refs = load_references()

    if args.trace:
        out = traced(wl, args.seed, config, deadline, refs, record)
    else:
        out = end_to_end(wl, args.seed, config, args.seconds, deadline, refs, record)
    record["result"] = out
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
