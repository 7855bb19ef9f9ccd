"""Experiment harness: reproducible studies over the synthetic pipeline.

Three studies ship with the library: the warping-ablation accuracy curve
(identification with and without DTW as the reference set grows), the
corpus-size/accuracy trade-off for the performance net, and an inference
latency microbenchmark.  Every experiment is seeded and emits
machine-readable series; wall-clock measurements are flagged volatile so
deterministic outputs can exclude them.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Mapping, Optional, Sequence

import numpy as np

from .degrade import AppProfile, ModelStore, predict_degradation
from .errors import ConfigInvalid, InsufficientData
from .identify import _decide, _rows, build_fingerprint_db
from .neural import TrainConfig, features_from_traces, predict, prepare, train
from .select import Purpose, rank_metrics
from .simgen import AppTemplate, ScenarioConfig, generate
from .tracemodel import SessionRecord, metric_by_name

ABLATION_METRICS = ("cpu_util_pct",)  # the fingerprint metrics the DTW ablation matches on
LATENCY_BOUND_MS = 1.0  # the degradation chain's latency bound, per session
# the most queries the timing experiment times per call, each taking a slot
# of one preallocated latency array
MAX_QUERIES = 1_000_000


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    series: Mapping[str, list]
    summary: Mapping[str, object]
    seed: int
    volatile_keys: frozenset[str] = frozenset()

    def to_obj(self, include_volatile: bool = False) -> dict:
        """JSON payload; volatile entries (wall-clock numbers) are dropped by
        default so reruns stay byte-identical."""

        def keep(d):
            return {
                k: v for k, v in sorted(d.items()) if include_volatile or k not in self.volatile_keys
            }

        return {
            "name": self.name,
            "seed": self.seed,
            "series": keep(dict(self.series)),
            "summary": keep(dict(self.summary)),
        }

    def to_csv(self) -> str:
        """The series as CSV, one column per key; empty when there is no series."""
        keys = sorted(k for k in self.series if k not in self.volatile_keys)
        if not keys:
            return ""
        rows = zip(*(self.series[k] for k in keys))
        lines = [",".join(keys)]
        for row in rows:
            lines.append(",".join(f"{v:.9g}" if isinstance(v, float) else str(v) for v in row))
        return "\n".join(lines) + "\n"


def run_ablation_dtw(
    corpus: Sequence[SessionRecord],
    ref_counts: Sequence[int],
    thresholds: Optional[Mapping[str, float]] = None,
    seed: int = 0,
    min_test_sessions: int = 100,
) -> ExperimentResult:
    """Identification accuracy vs reference-set size, with and without DTW.

    The largest requested reference set is reserved from the corpus front
    (deterministic session_id order); everything else is held out.  The
    no-DTW variant truncates both traces to their common length before the
    Euclidean distance.  Each smaller set is a subset of the largest, so one
    distance row per held-out session, metric and variant against the largest
    set serves every count, which keeps the columns of its own references.
    """
    counts = sorted(set(int(c) for c in ref_counts))
    if not counts:
        raise ConfigInvalid("ref_counts must be non-empty")
    if any(c < 1 for c in counts):
        raise ConfigInvalid("ref_counts must be positive")
    if min_test_sessions < 1:
        raise ConfigInvalid("min_test_sessions must be positive")
    kinds = [metric_by_name(n) for n in ABLATION_METRICS]
    labeled = [r for r in corpus if r.app_label is not None]
    dbs = [
        build_fingerprint_db(labeled, kinds, c, metric_thresholds=thresholds or {})
        for c in counts
    ]
    biggest = dbs[-1]
    references = set(biggest.source_session_ids)
    held = [r for r in labeled if r.session_id not in references]
    if len(held) < min_test_sessions:
        raise InsufficientData(
            f"only {len(held)} held-out sessions, need >= {min_test_sessions}"
        )
    acc = {"dtw": [], "truncate": []}
    for align in acc:
        rows = [_rows(r.traces, biggest, align=align) for r in held]
        for db in dbs:
            # each source session gives one entry per metric, in the same order
            keep = np.isin(biggest.source_session_ids, db.source_session_ids)
            correct = sum(
                _decide({k: row[keep] for k, row in session.items()}, db).label == r.app_label
                for r, session in zip(held, rows)
            )
            acc[align].append(correct / len(held))
    return ExperimentResult(
        name="ablation_dtw",
        series={
            "ref_count": counts,
            "accuracy_dtw": acc["dtw"],
            "accuracy_truncate": acc["truncate"],
        },
        summary={
            "held_out_sessions": len(held),
            "metrics": list(ABLATION_METRICS),
            "dtw_always_higher": all(
                d > t for d, t in zip(acc["dtw"], acc["truncate"])
            ),
        },
        seed=seed,
    )


def run_sampling_tradeoff(
    cfg: ScenarioConfig,
    templates: Mapping[str, AppTemplate],
    hours_grid: Sequence[float],
    app: str = "data_serving",
    train_cfg: TrainConfig = TrainConfig(),
) -> ExperimentResult:
    """Performance-net error as a function of sampled corpus size.

    ``hours_grid`` counts total sampled VM-hours; each point regenerates a
    corpus of matching session count (sessions arrive concurrently from
    n_vms VMs, so wall-clock time would be hours / n_vms).  Duplicate grid
    values are dropped with a warning.
    """
    grid = sorted(set(float(h) for h in hours_grid))
    if not grid:
        raise ConfigInvalid("hours_grid must be non-empty")
    if len(grid) != len(list(hours_grid)):
        warnings.warn("duplicate grid points dropped", stacklevel=2)
    if not all(0 < h < np.inf for h in grid):
        raise ConfigInvalid("hours must be positive and finite")
    errors = {"train": [], "val": [], "test": []}
    sessions_per_point = []
    for i, hours in enumerate(grid):
        n_sessions = max(30, int(round(hours * 3600.0 / cfg.session_duration_s)))
        sessions_per_point.append(n_sessions)
        point_cfg = replace(cfg, rng_seed=cfg.rng_seed + i)
        corpus = generate(point_cfg, templates, n_sessions)
        recs = [r for r in corpus if r.app_label == app]
        selected = rank_metrics(recs, app, Purpose.PERFORMANCE).selected
        problem = prepare(recs, Purpose.PERFORMANCE, selected, train_cfg.rng_seed)
        _, report = train(problem, train_cfg)
        for split in errors:
            errors[split].append(report.errors[split]["mean"])
    test = errors["test"]
    improvements = [test[i] - test[i + 1] for i in range(len(test) - 1)]
    return ExperimentResult(
        name="sampling_tradeoff",
        series={
            "hours": grid,
            "sessions": sessions_per_point,
            "train_mean_pct": errors["train"],
            "val_mean_pct": errors["val"],
            "test_mean_pct": errors["test"],
        },
        summary={
            "app": app,
            "final_improvement_pct": improvements[-1] if improvements else 0.0,
            "monotone_within_2pct": all(i > -2.0 for i in improvements),
        },
        seed=cfg.rng_seed,
    )


def run_timing(
    models: ModelStore,
    profiles: Mapping[str, AppProfile],
    sample: SessionRecord,
    n_queries: int,
) -> ExperimentResult:
    """Median warm latency of the prediction stage.

    Times the per-session degradation chain with identification already
    resolved, isolating the microsecond-scale net inference; asserts only
    the millisecond upper bound, never exact figures.
    """
    if not 1 <= n_queries <= MAX_QUERIES:
        raise ConfigInvalid(f"n_queries must lie in [1, {MAX_QUERIES}], got {n_queries}")
    if sample.app_label is None:
        raise ConfigInvalid("timing sample must be labeled")
    app = sample.app_label
    perf_model = models.get(app, Purpose.PERFORMANCE)
    x = features_from_traces(
        sample.traces, perf_model.input_metrics, f"session {sample.session_id}"
    )
    calls = {
        "median_predict_us": partial(predict, perf_model, x),
        "median_degradation_us": partial(
            predict_degradation, sample.traces, None, profiles, models, label=app
        ),
    }
    for _ in range(100):  # warm-up
        for call in calls.values():
            call()

    medians = {}
    latencies = np.empty(n_queries)
    for key, call in calls.items():
        for i in range(n_queries):
            t0 = time.perf_counter()
            call()
            latencies[i] = time.perf_counter() - t0
        medians[key] = float(np.median(latencies) * 1e6)
    return ExperimentResult(
        name="timing",
        series={},
        summary={
            "app": app,
            "n_queries": n_queries,
            "bound_ms": LATENCY_BOUND_MS,
            **medians,
            "bound_met": bool(medians["median_degradation_us"] <= LATENCY_BOUND_MS * 1000.0),
        },
        seed=0,
        volatile_keys=frozenset(medians),
    )
