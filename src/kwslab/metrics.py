"""Accuracy matrix, summary metrics, and report files.

R[t][k] is the test accuracy on task k measured right after finishing task t
(task 0 is the pretraining task). All summary metrics are pure functions of
the matrix:

    ACC = mean_k R[T][k]          (average over all tasks at the end)
    LA  = mean_t R[t][t]          (each task right after learning it)
    BWT = mean_{k<T} R[T][k] - R[k][k]

Reports are JSON plus CSV side files; everything in a report except wall-clock
timings is deterministic for a fixed config.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, MetricsError

REPORT_SCHEMA_VERSION = 2
REPORT_FILENAME = "report.json"

_TIMING_KEYS = ("epoch_seconds", "tt_mean_epoch_seconds")


class AccuracyMatrix:
    """Write-once lower-triangular accuracy store."""

    def __init__(self, n_tasks_total: int):
        if n_tasks_total < 1:
            raise MetricsError(f"need at least one task, got {n_tasks_total}")
        self.n = n_tasks_total
        self._m = np.full((self.n, self.n), np.nan)

    def record(self, t: int, k: int, value: float) -> None:
        if not (0 <= k <= t < self.n):
            raise MetricsError(f"cell ({t}, {k}) outside lower triangle of {self.n} tasks")
        if not 0.0 <= value <= 1.0:
            raise MetricsError(f"accuracy {value} outside [0, 1]")
        if not np.isnan(self._m[t, k]):
            raise MetricsError(f"cell ({t}, {k}) already written")
        self._m[t, k] = value

    def array(self) -> np.ndarray:
        return self._m.copy()

    def as_lists(self) -> list:
        return [[None if np.isnan(v) else float(v) for v in row] for row in self._m]


def _as_array(matrix) -> np.ndarray:
    if isinstance(matrix, AccuracyMatrix):
        return matrix.array()
    return np.asarray(matrix, dtype=np.float64)


def _require(m: np.ndarray, cells) -> None:
    for t, k in cells:
        if np.isnan(m[t, k]):
            raise MetricsError(f"cell ({t}, {k}) not populated")


def acc(matrix, include_pretrain: bool = True) -> float:
    m = _as_array(matrix)
    T = m.shape[0] - 1
    lo = 0 if include_pretrain else 1
    ks = list(range(lo, T + 1))
    if not ks:
        raise MetricsError("no tasks to average")
    _require(m, [(T, k) for k in ks])
    return float(np.mean([m[T, k] for k in ks]))


def la(matrix, include_pretrain: bool = True) -> float:
    m = _as_array(matrix)
    T = m.shape[0] - 1
    lo = 0 if include_pretrain else 1
    ts = list(range(lo, T + 1))
    if not ts:
        raise MetricsError("no tasks to average")
    _require(m, [(t, t) for t in ts])
    return float(np.mean([m[t, t] for t in ts]))


def bwt(matrix, include_pretrain: bool = True) -> float:
    m = _as_array(matrix)
    T = m.shape[0] - 1
    lo = 0 if include_pretrain else 1
    ks = list(range(lo, T))
    if not ks:
        raise MetricsError("backward transfer needs at least one earlier task")
    _require(m, [(T, k) for k in ks] + [(k, k) for k in ks])
    return float(np.mean([m[T, k] - m[k, k] for k in ks]))


def summary_metrics(matrix) -> dict:
    """Both averaging conventions; entries are None where undefined."""
    out = {}
    for label, flag in (("incl_pretrain", True), ("excl_pretrain", False)):
        entry = {}
        for name, fn in (("acc", acc), ("la", la), ("bwt", bwt)):
            try:
                entry[name] = fn(matrix, include_pretrain=flag)
            except MetricsError:
                entry[name] = None
        out[label] = entry
    return out


@dataclass
class RunReport:
    strategy: str
    seed: int
    config_hash: str
    stream_fingerprint: str
    matrix: list  # lower-triangular lists, None above the diagonal
    acc: float
    la: float
    bwt: float
    # both averaging conventions, regardless of which one is the headline
    metrics_incl_pretrain: dict = field(default_factory=dict)
    metrics_excl_pretrain: dict = field(default_factory=dict)
    extra_params: int = 0
    buffer_bytes: int = 0
    acc_by_task: list = field(default_factory=list)
    extra_params_by_task: list = field(default_factory=list)
    training_log: list = field(default_factory=list)
    epoch_seconds: list = field(default_factory=list)
    tt_mean_epoch_seconds: float = 0.0
    extras: dict = field(default_factory=dict)
    config_flat: dict = field(default_factory=dict)
    schema_version: int = REPORT_SCHEMA_VERSION

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunReport":
        version = doc.get("schema_version") if isinstance(doc, dict) else None
        if version != REPORT_SCHEMA_VERSION:
            raise MetricsError(f"unsupported report schema {version!r}")
        try:
            return cls(**doc)
        except TypeError as exc:  # a missing or an unknown field
            raise MetricsError(f"fields do not match report schema {version}: {exc}") from None


def reports_equivalent(a: RunReport, b: RunReport) -> bool:
    """Equality up to wall-clock timing fields."""
    da, db = a.to_dict(), b.to_dict()
    for key in _TIMING_KEYS:
        da.pop(key, None)
        db.pop(key, None)
    return da == db


def _write_csv(path: str, header: list, rows) -> str:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def emit_report(report: RunReport, out_dir) -> list[str]:
    """Write report.json plus the matrix and plot-series CSVs; returns paths."""
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)

    path = os.path.join(out_dir, REPORT_FILENAME)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    n = len(report.matrix)
    return [
        path,
        _write_csv(
            os.path.join(out_dir, "matrix.csv"),
            ["after_task"] + [f"task{k}" for k in range(n)],
            ([t] + [("" if v is None else repr(v)) for v in row]
             for t, row in enumerate(report.matrix)),
        ),
        _write_csv(
            os.path.join(out_dir, "acc_vs_tasks.csv"),
            ["tasks_learned", "acc"],
            ([t, repr(v)] for t, v in enumerate(report.acc_by_task)),
        ),
        _write_csv(
            os.path.join(out_dir, "params_vs_tasks.csv"),
            ["tasks_learned", "extra_params"],
            enumerate(report.extra_params_by_task),
        ),
        _write_csv(
            os.path.join(out_dir, "params_vs_acc.csv"),
            ["extra_params", "acc"],
            ([p, repr(v)] for p, v in zip(report.extra_params_by_task, report.acc_by_task)),
        ),
    ]


def load_report(path) -> RunReport:
    path = os.fspath(path)
    if os.path.isdir(path):
        path = os.path.join(path, REPORT_FILENAME)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return RunReport.from_dict(json.load(fh))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise MetricsError(f"{path}: not a JSON report: {exc}") from None
    except MetricsError as exc:
        raise MetricsError(f"{path}: {exc}") from None


# -- comparisons -------------------------------------------------------------

TABLE_COLUMNS = ("strategy", "acc", "la", "bwt", "acc_plus", "tt_s", "extra_params", "buffer_bytes")


def build_comparison(reports: list[RunReport]) -> list[dict]:
    """Table rows from runs sharing one stream and seed; ACC+ is vs fine-tune."""
    if not reports:
        raise MetricsError("no reports to compare")
    seeds = {r.seed for r in reports}
    fingerprints = {r.stream_fingerprint for r in reports}
    if len(seeds) > 1:
        raise ConfigError("comparison", f"reports mix seeds {sorted(seeds)}")
    if len(fingerprints) > 1:
        raise ConfigError("comparison", "reports were produced on different streams")
    baseline = next((r for r in reports if r.strategy == "finetune"), None)
    rows = []
    for r in sorted(reports, key=lambda r: r.strategy):
        rows.append(
            {
                "strategy": r.strategy,
                "acc": r.acc,
                "la": r.la,
                "bwt": r.bwt,
                "acc_plus": None if baseline is None else r.acc - baseline.acc,
                "tt_s": r.tt_mean_epoch_seconds,
                "extra_params": r.extra_params,
                "buffer_bytes": r.buffer_bytes,
            }
        )
    return rows


def aggregate_comparisons(per_seed: list[list[dict]]) -> list[dict]:
    """Mean over per-seed comparison tables (matched by strategy)."""
    if not per_seed:
        raise MetricsError("nothing to aggregate")
    by_strategy: dict[str, list[dict]] = {}
    for rows in per_seed:
        for row in rows:
            by_strategy.setdefault(row["strategy"], []).append(row)
    out = []
    for name in sorted(by_strategy):
        group = by_strategy[name]
        agg = {"strategy": name}
        for key in ("acc", "la", "bwt", "acc_plus", "tt_s", "extra_params", "buffer_bytes"):
            vals = [g[key] for g in group]
            if any(v is None for v in vals):
                agg[key] = None
            else:
                agg[key] = float(np.mean(vals))
        out.append(agg)
    return out


def compare_by_seed(reports: list[RunReport]) -> dict:
    """One comparison table per seed and their aggregate: the mean over seeds,
    or the single table when there is one seed."""
    by_seed: dict[int, list[RunReport]] = {}
    for r in reports:
        by_seed.setdefault(r.seed, []).append(r)
    per_seed = [build_comparison(by_seed[s]) for s in sorted(by_seed)]
    rows = aggregate_comparisons(per_seed) if len(per_seed) > 1 else per_seed[0]
    return {"per_seed": per_seed, "aggregate": rows}


def _fmt(value, width: int) -> str:
    if value is None:
        return "-".rjust(width)
    if isinstance(value, float):
        return f"{value:.4f}".rjust(width)
    return str(value).rjust(width)


def render_table(rows: list[dict]) -> str:
    widths = {c: max(len(c), 12) for c in TABLE_COLUMNS}
    lines = ["  ".join(c.rjust(widths[c]) for c in TABLE_COLUMNS)]
    for row in rows:
        cells = []
        for c in TABLE_COLUMNS:
            v = row.get(c)
            cells.append(_fmt(v, widths[c]) if c != "strategy" else str(v).rjust(widths[c]))
        lines.append("  ".join(cells))
    return "\n".join(lines)


def render_csv(rows: list[dict]) -> str:
    out = [",".join(TABLE_COLUMNS)]
    for row in rows:
        cells = []
        for c in TABLE_COLUMNS:
            v = row.get(c)
            cells.append("" if v is None else (repr(v) if isinstance(v, float) else str(v)))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"
