"""Output checks for one benchmark repeat.

A run passes only if it exited 0 and wrote report.json, every lower-triangle
cell of R[t][k] is filled and in [0, 1], `extra_params` and `buffer_bytes`
equal their closed forms below, GEM never fell back to the raw gradient,
and, at the seeds listed in references.json, ACC/LA/BWT match the recorded
values within REFERENCE_TOL.

The closed forms are written out from the architecture (TcResNet8 channel
plan 16/24/32/48, stem kernel 9, block kernel 3; sub-network base widths
16/48 on the 24-channel encoder output) and the strategy definitions, not
read back from kwslab, so a change to what the lab builds shows as a failure.
"""

from __future__ import annotations

import json
import math
import os

N_MFCC = 40
N_FRAMES = 98  # 1 + (16000 - 480) // 160
BYTES_PER_SAMPLE = N_MFCC * N_FRAMES * 8
NR_XI = 0.75
GEM_BUFFER = 128
TRAIN_FRAC = 0.8

# Absolute tolerance on ACC, LA and BWT against references.json. The runs
# are bit-reproducible on one machine; the tolerance admits a few flipped
# test clips (one flip moves a 15-clip task by 0.067, ACC by 0.011) from
# last-bit arithmetic differences elsewhere, and catches a broken program.
REFERENCE_TOL = 0.05

REFERENCES_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def _block_params(c_in: int, c_out: int, k: int) -> int:
    # conv1 + bn1 + conv2 + bn2 + 1x1 shortcut + bn_sc; convs have no bias
    return c_in * c_out * k + c_out * c_out * k + c_in * c_out + 3 * 2 * c_out


def tcresnet8_params(n_classes: int) -> int:
    stem = N_MFCC * 16 * 9 + 2 * 16
    blocks = _block_params(16, 24, 3) + _block_params(24, 32, 3) + _block_params(32, 48, 3)
    return stem + blocks + 48 * n_classes + n_classes


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def subnet_params(c_t: int, c0: int, mu: float = 1.0, c_in: int = 24) -> int:
    alpha = mu * c_t / c0
    c1, c2 = (max(1, _round_half_up(alpha * c)) for c in (16, 48))
    return (c_in * c1 * 3 + 2 * c1 + c1 * c2 * 3 + 2 * c2
            + c_in * c2 + 2 * c2 + c2 * c_t + c_t)


def train_clips(clips_per_keyword: int) -> int:
    n = clips_per_keyword
    return min(max(_round_half_up(TRAIN_FRAC * n), 1), n - 1)


def expected_accounting(strategy: str, layout: dict, clips_per_keyword: int) -> tuple[int, int]:
    """(extra_params, buffer_bytes) a finished run must report."""
    c0, n_tasks, per_task = layout["pretrain"], layout["tasks"], layout["per_task"]
    n_keywords = c0 + n_tasks * per_task
    per_kw = train_clips(clips_per_keyword)
    sizes = [c0 * per_kw] + [per_task * per_kw] * n_tasks
    if strategy == "standalone":
        return n_tasks * tcresnet8_params(per_task), 0
    if strategy == "pcl":
        return n_tasks * subnet_params(per_task, c0), 0
    if strategy in ("si", "ewc"):
        return 2 * tcresnet8_params(n_keywords), 0
    if strategy == "nr":
        stored = sum(min(n, math.ceil(NR_XI * n - 1e-9)) for n in sizes)
        return 0, stored * BYTES_PER_SAMPLE
    if strategy == "gem":
        quota = max(1, GEM_BUFFER // len(sizes))
        stored = 0
        for n in sizes:
            stored += min(quota, max(0, GEM_BUFFER - stored), n)
        return 0, stored * BYTES_PER_SAMPLE
    return 0, 0


def check_report(report: dict, layout: dict, clips_per_keyword: int) -> list[str]:
    """Problems with one run's report.json contents; empty means it passes."""
    problems = []
    strategy = report["strategy"]
    matrix = report["matrix"]
    n = layout["tasks"] + 1
    if len(matrix) != n:
        problems.append(f"{strategy}: matrix has {len(matrix)} rows, expected {n}")
    for t, row in enumerate(matrix):
        for k, v in enumerate(row):
            if k <= t and (v is None or not 0.0 <= v <= 1.0):
                problems.append(f"{strategy}: R[{t}][{k}] = {v!r}")
            if k > t and v is not None:
                problems.append(f"{strategy}: R[{t}][{k}] above the diagonal is {v!r}")
    extra, buf = expected_accounting(strategy, layout, clips_per_keyword)
    if report["extra_params"] != extra:
        problems.append(f"{strategy}: extra_params {report['extra_params']} != {extra}")
    if report["buffer_bytes"] != buf:
        problems.append(f"{strategy}: buffer_bytes {report['buffer_bytes']} != {buf}")
    if strategy == "gem" and report["extras"].get("gem_fallbacks") != 0:
        problems.append(f"gem: gem_fallbacks = {report['extras'].get('gem_fallbacks')!r}")
    return problems


def load_references(path: str = REFERENCES_PATH) -> dict:
    if not os.path.isfile(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_reference(report: dict, workload: str, seed: int, refs: dict) -> list[str]:
    """ACC/LA/BWT against the recorded values, where the seed has some."""
    ref = refs.get(workload, {}).get(str(seed), {}).get(report["strategy"])
    if ref is None:
        return []
    problems = []
    for key in ("acc", "la", "bwt"):
        if abs(report[key] - ref[key]) > REFERENCE_TOL:
            problems.append(
                f"{report['strategy']}: {key} {report[key]:.4f} vs reference {ref[key]:.4f}")
    return problems
