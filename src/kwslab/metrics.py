"""Summary metrics, run reports, and report files.

R[t][k] is the test accuracy on task k measured right after finishing task t
(task 0 is the pretraining task). All summary metrics, and every derived
field of a run report, are pure functions of the matrix and the run's
per-task and per-epoch rows:

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
from .fileio import replace_on_success

REPORT_SCHEMA_VERSION = 2
REPORT_FILENAME = "report.json"

_TIMING_KEYS = ("epoch_seconds", "tt_mean_epoch_seconds")


def summary(matrix, include_pretrain: bool = True) -> dict:
    """ACC, LA and BWT of a lower-triangular accuracy matrix (lists or an
    array, None or NaN above the diagonal). Without pretraining, row and
    column 0 are left out. "bwt" is None when no earlier task exists; a
    missing final-row or diagonal cell, or no task to average, is a
    `MetricsError`."""
    m = np.array(matrix, dtype=np.float64)
    lo = 0 if include_pretrain else 1
    final, diag = m[-1, lo:], np.diagonal(m)[lo:]
    if final.size == 0:
        raise MetricsError("no tasks to average")
    if np.isnan(final).any() or np.isnan(diag).any():
        raise MetricsError("final row or diagonal of the accuracy matrix not populated")
    return {
        "acc": float(np.mean(final)),
        "la": float(np.mean(diag)),
        "bwt": float(np.mean(final[:-1] - diag[:-1])) if final.size > 1 else None,
    }


def acc(matrix, include_pretrain: bool = True) -> float:
    return summary(matrix, include_pretrain)["acc"]


def la(matrix, include_pretrain: bool = True) -> float:
    return summary(matrix, include_pretrain)["la"]


def bwt(matrix, include_pretrain: bool = True) -> float | None:
    return summary(matrix, include_pretrain)["bwt"]


@dataclass
class RunReport:
    strategy: str
    seed: int
    config_hash: str
    stream_fingerprint: str
    matrix: list  # lower-triangular lists, None above the diagonal
    acc: float
    la: float
    bwt: float | None
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


def build_report(R: np.ndarray, include_pretrain: bool, extra_params_by_task: list,
                 epoch_seconds: list, **measured) -> RunReport:
    """The report of a finished run. `R` is its accuracy matrix (NaN above the
    diagonal); `measured` holds the fields a run records as they are
    (strategy, seed, hashes, buffer_bytes, training_log, extras, config_flat).
    The headline follows `include_pretrain`; both conventions, the
    per-task mean accuracy, the final extra parameters and the mean epoch
    time are derived here."""
    incl, excl = summary(R, True), summary(R, False)
    return RunReport(
        matrix=[[None if np.isnan(v) else float(v) for v in row] for row in R],
        **(incl if include_pretrain else excl),
        metrics_incl_pretrain=incl,
        metrics_excl_pretrain=excl,
        extra_params=extra_params_by_task[-1],
        acc_by_task=[float(np.mean(R[t, : t + 1])) for t in range(len(R))],
        extra_params_by_task=extra_params_by_task,
        epoch_seconds=epoch_seconds,
        tt_mean_epoch_seconds=float(np.mean(epoch_seconds)) if epoch_seconds else 0.0,
        **measured,
    )


def reports_equivalent(a: RunReport, b: RunReport) -> bool:
    """Equality up to wall-clock timing fields."""
    da, db = a.to_dict(), b.to_dict()
    for key in _TIMING_KEYS:
        da.pop(key, None)
        db.pop(key, None)
    return da == db


def _write_csv(path: str, header: list, rows) -> str:
    with replace_on_success(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def emit_report(report: RunReport, out_dir) -> list[str]:
    """Write report.json plus the matrix and plot-series CSVs; returns paths."""
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)

    path = os.path.join(out_dir, REPORT_FILENAME)
    with replace_on_success(path, "w", encoding="utf-8") as fh:
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
    strategies = [r.strategy for r in reports]
    for name in sorted(set(strategies)):
        if strategies.count(name) > 1:  # two table rows, and ACC+ against either finetune
            raise ConfigError(
                "comparison",
                f"{strategies.count(name)} reports of strategy {name!r} for seed "
                f"{reports[0].seed}; a comparison takes each strategy once",
            )
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
        for key in TABLE_COLUMNS[1:]:
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
