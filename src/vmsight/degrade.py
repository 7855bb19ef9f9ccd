"""Workload-aware performance degradation prediction.

For one black-box session: identify the application, predict its runtime
performance from correlated metrics, obtain the interference-free baseline
(a fixed value, or via predicted workload for variable-workload apps), and
report the orientation-corrected ratio.  A degradation index of 1 means the
session performs at its baseline; larger values mean interference.
"""

from __future__ import annotations

import enum
import math
import numbers
import os
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import (
    InsufficientData,
    IoError,
    MissingModel,
    MissingProfile,
    ParseError,
    UnknownApplication,
)
from .identify import UNKNOWN, FingerprintDb, identify
from .neural import (
    FitReport,
    MlpModel,
    TrainConfig,
    best_fit,
    error_stats,
    features_from_traces,
    grid_configs,
    hyper_search,  # not called here; perfbench traces degrade.hyper_search by name
    load_model,
    predict,
    prepare,
    save_model,
    train,
)
from .select import DEFAULT_CORR_THRESHOLD, Purpose, rank_metrics
from .tracemodel import (
    MetricKind,
    MetricTrace,
    SessionRecord,
    fields_to_obj,
    fmt,
    read_json,
    write_json,
)


class Orientation(enum.Enum):
    LOWER_IS_BETTER = "lower_is_better"  # e.g. execution time
    HIGHER_IS_BETTER = "higher_is_better"  # e.g. ops/s, requests/s


@dataclass(frozen=True)
class AppProfile:
    """Per-application knowledge the degradation stage relies on."""

    name: str
    perf_metric_name: str
    perf_orientation: Orientation
    variable_workload: bool
    fixed_baseline: Optional[float] = None
    baseline_range: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if not isinstance(self.perf_metric_name, str):
            raise ValueError(f"{self.name}: perf_metric_name must be a string")
        if self.variable_workload and self.baseline_range is None:
            raise ValueError(f"{self.name}: variable workload requires baseline_range")
        if not self.variable_workload and self.fixed_baseline is None:
            raise ValueError(f"{self.name}: fixed workload requires fixed_baseline")
        if self.fixed_baseline is not None and not _positive(self.fixed_baseline):
            raise ValueError(f"{self.name}: fixed_baseline must be a finite number > 0")
        if self.baseline_range is not None:
            lo, hi = self.baseline_range
            if not (_positive(lo) and _positive(hi) and hi > lo):
                raise ValueError(f"{self.name}: baseline_range must be finite with hi > lo > 0")


def _positive(value) -> bool:
    """A positive finite real number, not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and 0 < value < math.inf


@dataclass(frozen=True)
class DegradationReport:
    session_id: str
    label: str
    perf_pred: float
    workload_pred: Optional[float]
    perf_base: float
    deg: float

    def to_obj(self) -> dict:
        return fields_to_obj(self)


def reports_to_csv(reports: Sequence["DegradationReport"]) -> str:
    """Batch CSV: one row per session, empty cell for absent workload."""
    lines = ["session_id,label,perf_pred,workload_pred,perf_base,deg"]
    for r in reports:
        workload = "" if r.workload_pred is None else fmt(r.workload_pred)
        lines.append(
            f"{r.session_id},{r.label},{fmt(r.perf_pred)},{workload},"
            f"{fmt(r.perf_base)},{fmt(r.deg)}"
        )
    return "\n".join(lines) + "\n"


class ModelStore:
    """Per-application model sets, keyed by (app, purpose)."""

    def __init__(self):
        self._models: dict[tuple[str, Purpose], tuple[MlpModel, Optional[FitReport]]] = {}

    def add(self, app: str, model: MlpModel, report: Optional[FitReport] = None) -> None:
        self._models[(app, model.purpose)] = (model, report)

    def get(self, app: str, purpose: Purpose) -> MlpModel:
        try:
            return self._models[(app, purpose)][0]
        except KeyError:
            raise MissingModel(f"no {purpose.value} model for app {app!r}") from None

    def report(self, app: str, purpose: Purpose) -> Optional[FitReport]:
        entry = self._models.get((app, purpose))
        return entry[1] if entry else None

    def apps(self) -> list[str]:
        return sorted({app for app, _ in self._models})

    def __len__(self) -> int:
        return len(self._models)

    def save(self, path: str) -> None:
        for (app, purpose), (model, report) in sorted(
            self._models.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
        ):
            save_model(model, os.path.join(path, app, f"{purpose.value}.json"), report)

    @classmethod
    def load(cls, path: str) -> "ModelStore":
        if not os.path.isdir(path):
            raise IoError(f"no model directory at {path}")
        store = cls()
        for app in sorted(os.listdir(path)):
            app_dir = os.path.join(path, app)
            if not os.path.isdir(app_dir):
                continue
            for fname in sorted(os.listdir(app_dir)):
                if fname.endswith(".json"):
                    model, report = load_model(os.path.join(app_dir, fname))
                    if fname != f"{model.purpose.value}.json":
                        raise ParseError(f"{app}/{fname}: holds a {model.purpose.value} model")
                    store.add(app, model, report)
        if not len(store):
            raise IoError(f"no models found under {path}")
        return store


def _degradation_ratio(perf: float, base: float, orientation: Orientation) -> float:
    # one shared ratio so flipping the orientation inverts deg exactly
    ratio = perf / base
    return ratio if orientation is Orientation.LOWER_IS_BETTER else 1.0 / ratio


def predict_degradation(
    traces: Mapping[MetricKind, MetricTrace],
    db: Optional[FingerprintDb],
    profiles: Mapping[str, AppProfile],
    models: ModelStore,
    session_id: str = "",
    label: Optional[str] = None,
) -> DegradationReport:
    """Run the full degradation workflow on one session.

    Identification comes first unless ``label`` pre-identifies the session
    (timing benchmarks and oracle-label evaluations use that).  A session
    identified as unknown aborts with UnknownApplication: no prediction is
    made for unknown applications.
    """
    if label is None:
        if db is None:
            raise MissingModel("identification requires a fingerprint database")
        label = identify(traces, db).label
    where = f"session {session_id or '<unnamed>'}"
    if label == UNKNOWN:
        raise UnknownApplication(f"{where} matches no fingerprinted application")
    profile = profiles.get(label)
    if profile is None:
        raise MissingProfile(f"no application profile for {label!r}")

    perf_model = models.get(label, Purpose.PERFORMANCE)
    perf = predict(perf_model, features_from_traces(traces, perf_model.input_metrics, where))

    workload = None
    if profile.variable_workload:
        wl_model = models.get(label, Purpose.WORKLOAD)
        base_model = models.get(label, Purpose.BASELINE)
        workload = predict(wl_model, features_from_traces(traces, wl_model.input_metrics, where))
        base = predict(base_model, [workload])
        lo, hi = profile.baseline_range
        base = min(hi, max(lo, base))  # clamp away net extrapolation artifacts
    else:
        base = float(profile.fixed_baseline)

    deg = _degradation_ratio(perf, base, profile.perf_orientation)
    return DegradationReport(
        session_id=session_id,
        label=label,
        perf_pred=float(perf),
        workload_pred=None if workload is None else float(workload),
        perf_base=float(base),
        deg=float(deg),
    )


# ---------------------------------------------------------------------------
# Pipeline assembly: per-application model fitting
# ---------------------------------------------------------------------------


def fit_models_for_corpus(
    records: Sequence[SessionRecord],
    profiles: Mapping[str, AppProfile],
    corr_threshold: float = DEFAULT_CORR_THRESHOLD,
    cfg: TrainConfig = TrainConfig(),
    hidden_grid: Optional[Sequence[tuple[int, ...]]] = None,
) -> ModelStore:
    """Train the per-application net sets from a labeled corpus.

    Each application trains only on its own sessions.  Variable-workload
    apps additionally get a workload net and a baseline net; the latter fits
    (workload -> performance) on the corpus's interference-free sessions.
    Each net's widths are the ``best_fit`` over ``hidden_grid``, which
    defaults to ``cfg.hidden_sizes`` alone.  Every net set is prepared
    before the first net trains, so a short corpus fails before any fit.
    """
    configs = grid_configs(cfg, hidden_grid or [cfg.hidden_sizes])
    net_sets = []  # each (app, prepared problem), in training order

    def prepare_net_set(app, recs, purpose):
        inputs = ()
        if purpose is not Purpose.BASELINE:
            inputs = rank_metrics(recs, app, purpose, corr_threshold).selected
        try:
            problem = prepare(recs, purpose, inputs, cfg.rng_seed)
        except InsufficientData as exc:
            raise InsufficientData(f"app {app!r}, {purpose.value} net: {exc}") from None
        net_sets.append((app, problem))

    for app in sorted(profiles):
        recs = [r for r in records if r.app_label == app]
        if not recs:
            raise InsufficientData(f"corpus has no sessions for app {app!r}")
        prepare_net_set(app, recs, Purpose.PERFORMANCE)
        if profiles[app].variable_workload:
            prepare_net_set(app, recs, Purpose.WORKLOAD)
            iso = [r for r in recs if r.interference_level == 0.0]
            if len(iso) < 20:
                raise InsufficientData(
                    f"app {app!r} has only {len(iso)} interference-free sessions; "
                    "the baseline net needs >= 20"
                )
            prepare_net_set(app, iso, Purpose.BASELINE)

    store = ModelStore()
    for app, problem in net_sets:
        store.add(app, *best_fit([train(problem, c) for c in configs]))
    return store


# ---------------------------------------------------------------------------
# Evaluation against ground truth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegradationTable:
    """Per-application error statistics, train and test splits."""

    rows: tuple[dict, ...]

    def to_obj(self) -> dict:
        return {"rows": [dict(r) for r in self.rows]}

    def to_text(self) -> str:
        lines = [f"{'App':<18} {'Split':<6} {'N':>5} {'mean%':>8} {'max%':>8} {'std%':>8}"]
        for r in self.rows:
            lines.append(
                f"{r['app']:<18} {r['split']:<6} {r['n']:>5} "
                f"{r['mean_pct']:>8.2f} {r['max_pct']:>8.2f} {r['std_pct']:>8.2f}"
            )
        return "\n".join(lines)


def evaluate_degradation(
    records: Sequence[SessionRecord],
    profiles: Mapping[str, AppProfile],
    models: ModelStore,
    truth: Mapping[str, float],
) -> DegradationTable:
    """Score degradation predictions against ground-truth indices.

    Sessions are evaluated under their true labels, measuring the prediction
    stage alone (identification accuracy is gated separately).  Only the
    sessions of apps that ``models`` holds nets for are scored, so a tree
    trained on a subset of the apps gives rows for that subset.  Split
    membership follows the performance net's training split; unseen sessions
    count as test, and validation sessions are left out.
    """
    modeled = set(models.apps())
    labeled = [r for r in records if r.app_label in modeled and r.session_id in truth]
    if not labeled:
        raise InsufficientData("no sessions with ground truth and a modeled app to evaluate")

    split_of: dict[str, dict[str, str]] = {}  # app -> session id -> split
    for app in sorted({r.app_label for r in labeled}):
        report = models.report(app, Purpose.PERFORMANCE)
        splits = report.split_ids if report is not None else {}
        split_of[app] = {sid: split for split, ids in splits.items() for sid in ids}

    pairs: dict[tuple[str, str], list[tuple[float, float]]] = {}  # -> (predicted, true)
    for record in sorted(labeled, key=lambda r: r.session_id):
        app = record.app_label
        split = split_of[app].get(record.session_id, "test")
        if split == "val":
            continue  # the table mirrors train/test reporting only
        report = predict_degradation(
            record.traces, None, profiles, models, session_id=record.session_id, label=app
        )
        pairs.setdefault((app, split), []).append((report.deg, truth[record.session_id]))

    if not any(split == "test" for _, split in pairs):
        raise InsufficientData("evaluation produced an empty test split")

    rows = []
    for (app, split) in sorted(pairs, key=lambda k: (k[0], k[1] != "train")):
        pred, true = np.asarray(pairs[(app, split)]).T
        stats = error_stats(pred, true)
        rows.append({"app": app, "split": split, "n": len(pred),
                     **{f"{k}_pct": v for k, v in stats.items()}})
    return DegradationTable(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Profile persistence
# ---------------------------------------------------------------------------


def profiles_to_obj(profiles: Mapping[str, AppProfile]) -> dict:
    # a profile's name is its entry's key
    return {name: fields_to_obj(p, skip=("name",)) for name, p in profiles.items()}


def profiles_from_obj(obj: dict) -> dict[str, AppProfile]:
    profiles = {}
    for name, entry in obj.items():
        if not isinstance(entry["variable_workload"], bool):
            raise ValueError(f"{name}: variable_workload must be true or false")
        profiles[name] = AppProfile(
            name=name,
            perf_metric_name=entry["perf_metric_name"],
            perf_orientation=Orientation(entry["perf_orientation"]),
            variable_workload=entry["variable_workload"],
            fixed_baseline=entry.get("fixed_baseline"),
            baseline_range=None
            if entry.get("baseline_range") is None
            else tuple(entry["baseline_range"]),
        )
    return profiles


def save_profiles(profiles: Mapping[str, AppProfile], path: str) -> None:
    write_json(path, profiles_to_obj(profiles))


def load_profiles(path: str) -> dict[str, AppProfile]:
    return read_json(path, profiles_from_obj)


def profiles_for_templates(templates) -> dict[str, AppProfile]:
    """Derive degradation profiles from generator templates."""
    profiles = {}
    for name in sorted(templates):
        t = templates[name]
        variable = t.variable_workload
        profiles[name] = AppProfile(
            name=name,
            perf_metric_name=t.perf_metric_name,
            perf_orientation=(
                Orientation.HIGHER_IS_BETTER if t.higher_is_better else Orientation.LOWER_IS_BETTER
            ),
            variable_workload=variable,
            fixed_baseline=None if variable else float(t.baseline),
            baseline_range=(min(t.baseline), max(t.baseline)) if variable else None,
        )
    return profiles
