"""Application-type identification from metric traces.

An unknown session is matched against a fingerprint database of labeled
reference traces.  One exact dynamic-time-warping pass per metric aligns the
query with every row of the metric's padded reference matrix at once: it
finds the minimum-cost (L1) warping path and, in the same sweep, the Euclidean
distance between the two traces warped along that path, which scores the
match.  Per-metric nearest-fingerprint results are combined by voting, and a
distance threshold rejects sessions that resemble no known application.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    InsufficientReferences,
    NoReferenceForMetric,
    NoUsableMetrics,
    ParseError,
    PeriodMismatch,
    TooShort,
)
from .tracemodel import (
    STANDARD_METRICS,
    MetricKind,
    MetricTrace,
    SessionRecord,
    _num,
    _samples,
    fmt,
    metric_by_name,
    read_json,
    write_json,
)

UNKNOWN = "unknown"

DEFAULT_DISTANCE_THRESHOLD = 800.0  # calibrated for CPU-load traces in percent units

# CPU load is the default fingerprint signal; other metrics can join the
# vote once their rejection thresholds are calibrated for the deployment.
DEFAULT_FINGERPRINT_METRICS = ("cpu_util_pct",)

# The single default threshold is meaningless for counters on other scales,
# so the bundled per-metric overrides are calibrated for the synthetic
# generator's units.  Override these for real deployments.
DEFAULT_METRIC_THRESHOLDS = {
    "cpu_util_pct": 800.0,
    "llc_misses": 300.0,
    "net_tx_bytes": 2.0e8,
}


# ---------------------------------------------------------------------------
# Dynamic time warping (exact dynamic program, no window, no slope weights)
# ---------------------------------------------------------------------------


def _pad(arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, tuple[int, ...]]:
    """The arrays zero-padded into the rows of one read-only float64 matrix, and their lengths."""
    lengths = tuple(len(a) for a in arrays)
    matrix = np.zeros((len(arrays), max(lengths)))
    for row, a in zip(matrix, arrays):
        row[: len(a)] = a
    matrix.setflags(write=False)
    return matrix, lengths


def _dtw(query: np.ndarray, refs: np.ndarray, lengths: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Exact DTW of one query against several references in one pass.

    Row i indexes the query, column j a reference.  Each cell carries a
    state pair: the accumulated cost D = |query_i - ref_j| + D of its
    predecessor, and the squared distance S = (query_i - ref_j)^2 + S of the
    same predecessor.  The predecessor is the one a traceback would pick: the
    first minimum of D in the order diagonal, i-1, j-1.  Returns, per
    reference, D at the last cell (the L1 optimum) and sqrt(S) there (the
    Euclidean distance between the traces warped along that path).

    The cells of one anti-diagonal depend only on the two before it, so a
    diagonal is one batched update over every reference.  A diagonal's state
    is one (2, references, m + 1) array, D in row 0 and S in row 1, so that
    choosing a predecessor moves both at once.  Row i sits at index i + 1;
    index 0 stands for row -1 and holds inf, as do rows a diagonal has not
    reached yet, except that it holds 0 as the first cell's diagonal
    predecessor until the first diagonal is done.  ``refs`` and ``lengths``
    are the references as ``_pad`` returns them; padded cells never feed a
    real one, and reference r ends at row m - 1 of diagonal m + n_r - 2.
    """
    m = query.shape[0]
    n = refs.shape[1]
    a2, a1, a0 = (np.full((2, len(refs), m + 1), np.inf) for _ in range(3))
    a2[:, :, 0] = 0.0  # seeds cell (0, 0): D and S start at 0
    last_row = np.empty((2, m + n - 1, len(refs)))  # each diagonal's row m - 1
    for k in range(m + n - 1):
        lo = max(0, k - n + 1)
        hi = min(k, m - 1)
        cur = slice(lo + 1, hi + 2)
        best = a2[:, :, lo : hi + 1]  # diagonal, then i-1, then j-1
        for pred in (a1[:, :, lo : hi + 1], a1[:, :, cur]):
            best = np.where(pred[0] < best[0], pred, best)  # strict: ties keep the earlier move
        cost = np.abs(query[lo : hi + 1] - refs[:, k - hi : k - lo + 1][:, ::-1])
        np.add(best[0], cost, out=a0[0, :, cur])
        np.add(best[1], cost * cost, out=a0[1, :, cur])
        last_row[:, k] = a0[:, :, m]
        a2[:, :, 0] = np.inf  # drop the first cell's seed once it is read
        a2, a1, a0 = a1, a0, a2
    costs, sq = last_row[:, m + np.asarray(lengths) - 2, np.arange(len(refs))]
    return costs, np.sqrt(sq)


def _znorm(a: np.ndarray) -> np.ndarray:
    return (a - np.mean(a)) / (np.std(a) or 1.0)


# ---------------------------------------------------------------------------
# Fingerprint database
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FingerprintEntry:
    app_label: str
    metric: MetricKind
    trace: MetricTrace


class _Refs(NamedTuple):  # one metric's references in database order, and their period
    labels: tuple[str, ...]
    matrix: np.ndarray
    lengths: tuple[int, ...]
    period_s: float


@dataclass(frozen=True)
class FingerprintDb:
    """Labeled reference traces plus the rejection thresholds."""

    entries: tuple[FingerprintEntry, ...]
    metrics_used: frozenset[MetricKind]
    distance_threshold: float = DEFAULT_DISTANCE_THRESHOLD
    metric_thresholds: Mapping[str, float] = field(default_factory=dict)
    source_session_ids: tuple[str, ...] = ()
    _refs: Mapping[MetricKind, _Refs] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # an infinite threshold would never reject a session
        if not (0 < self.distance_threshold < math.inf):
            raise ValueError("distance_threshold must be positive and finite")
        for name, value in self.metric_thresholds.items():
            if name not in STANDARD_METRICS:
                raise ValueError(f"metric_thresholds: {name}: names no metric")
            if not (0 < value < math.inf):
                raise ValueError(f"threshold for {name} must be positive and finite")
        entries = tuple(self.entries)
        if not entries:
            raise ValueError("fingerprint database needs at least one entry")
        labels = sorted({e.app_label for e in entries})
        if UNKNOWN in labels:
            raise ValueError(f"{UNKNOWN!r} is reserved and cannot label an entry")
        have = {(e.app_label, e.metric) for e in entries}
        for label in labels:
            for kind in self.metrics_used:
                if (label, kind) not in have:
                    raise ValueError(f"no entry for ({label}, {kind.name})")
        refs = {}
        for kind in dict.fromkeys(e.metric for e in entries):
            group = [e for e in entries if e.metric == kind]
            if len(periods := sorted({fmt(e.trace.period_s) for e in group})) > 1:
                raise PeriodMismatch(f"references for {kind.name} mix periods {periods}")
            names, samples = zip(*((e.app_label, e.trace.samples) for e in group))
            refs[kind] = _Refs(names, *_pad(samples), group[0].trace.period_s)
        object.__setattr__(self, "_refs", refs)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "metrics_used", frozenset(self.metrics_used))
        object.__setattr__(self, "metric_thresholds", dict(self.metric_thresholds))

    def labels(self) -> list[str]:
        return sorted({e.app_label for e in self.entries})

    def threshold_for(self, kind: MetricKind) -> float:
        return float(self.metric_thresholds.get(kind.name, self.distance_threshold))


@dataclass(frozen=True)
class IdentificationResult:
    label: str
    per_metric: Mapping[MetricKind, tuple[str, float]]
    votes: Mapping[str, int]

    def to_obj(self) -> dict:
        return {
            "label": self.label,
            "votes": dict(sorted(self.votes.items())),
            "per_metric": {
                kind.name: {"label": lab, "distance": dist}
                for kind, (lab, dist) in sorted(
                    self.per_metric.items(), key=lambda kv: kv[0].name
                )
            },
        }


def build_fingerprint_db(
    labeled: Sequence[SessionRecord],
    metrics: Iterable[MetricKind],
    n_refs_per_app: int = 4,
    threshold: float = DEFAULT_DISTANCE_THRESHOLD,
    metric_thresholds: Optional[Mapping[str, float]] = None,
) -> FingerprintDb:
    """Select the first n_refs_per_app sessions per application as references.

    Selection is deterministic (ordered by session_id) so database builds
    are reproducible.  Raises InsufficientReferences when an application has
    fewer usable labeled sessions than requested.
    """
    if n_refs_per_app < 1:
        raise ValueError("n_refs_per_app must be >= 1")
    metrics = sorted(set(metrics), key=lambda k: k.name)
    if not metrics:
        raise ValueError("metrics must be non-empty")
    by_app: dict[str, list[SessionRecord]] = {}
    for record in labeled:
        if record.app_label == UNKNOWN:
            raise ParseError(f"session {record.session_id}: label {UNKNOWN!r} is reserved")
        if record.app_label is not None and all(kind in record.traces for kind in metrics):
            by_app.setdefault(record.app_label, []).append(record)
    if not by_app:
        raise InsufficientReferences("no labeled sessions carry all requested metrics")
    entries: list[FingerprintEntry] = []
    source_ids: list[str] = []
    for app in sorted(by_app):
        sessions = sorted(by_app[app], key=lambda r: r.session_id)
        if len(sessions) < n_refs_per_app:
            raise InsufficientReferences(
                f"app {app!r} has {len(sessions)} usable sessions, need {n_refs_per_app}"
            )
        for record in sessions[:n_refs_per_app]:
            source_ids.append(record.session_id)
            for kind in metrics:
                entries.append(FingerprintEntry(app, kind, record.traces[kind]))
    return FingerprintDb(
        entries=tuple(entries),
        metrics_used=frozenset(metrics),
        distance_threshold=threshold,
        metric_thresholds=dict(metric_thresholds or {}),
        source_session_ids=tuple(source_ids),
    )


def identify_single(
    trace: MetricTrace,
    db: FingerprintDb,
    align: str = "dtw",
    znorm: bool = False,
) -> np.ndarray:
    """Exact distances from one trace to every same-metric reference, in
    database order."""
    block = db._refs.get(trace.metric)
    if block is None:
        raise NoReferenceForMetric(f"database has no references for {trace.metric.name}")
    if fmt(block.period_s) != fmt(trace.period_s):
        raise PeriodMismatch(
            f"query period {trace.period_s} != reference period "
            f"{block.period_s} for {trace.metric.name}"
        )
    qa, refs, lengths = trace.samples, block.matrix, block.lengths
    if znorm:
        qa, (refs, lengths) = _znorm(qa), _pad([_znorm(row[:n]) for row, n in zip(refs, lengths)])
    if align == "dtw":
        return _dtw(qa, refs, lengths)[1]
    if align == "truncate":
        # ablation variant: chop both to the common length, no warping
        cut = np.minimum(lengths, len(qa))
        return np.array([np.linalg.norm(qa[:c] - row[:c]) for row, c in zip(refs, cut)])
    raise ValueError(f"unknown alignment {align!r}")


def identify(
    traces: Mapping[MetricKind, MetricTrace],
    db: FingerprintDb,
    align: str = "dtw",
    znorm: bool = False,
    min_trace_len: Optional[int] = None,
) -> IdentificationResult:
    """Identify the application behind a session by cross-metric voting.

    Each metric's nearest-fingerprint result casts one vote unless it was
    rejected by the threshold.  The winner needs a strict plurality; tied
    labels fall back to the smallest per-metric distance, and a residual tie
    (or an all-rejected session) yields UNKNOWN.
    """
    return _decide(_rows(traces, db, align, znorm, min_trace_len), db)


def _rows(traces, db, align="dtw", znorm=False, min_trace_len=None) -> dict[MetricKind, np.ndarray]:
    """The ``identify_single`` row of every trace whose metric the database
    uses and that has at least ``min_trace_len`` samples, in metric-name
    order."""
    usable = sorted(
        (kind for kind in traces if kind in db.metrics_used), key=lambda k: k.name
    )
    if not usable:
        raise NoUsableMetrics(
            f"no trace of a database metric ({sorted(k.name for k in db.metrics_used)})"
        )
    if min_trace_len is not None:
        usable = [k for k in usable if len(traces[k]) >= min_trace_len]
        if not usable:
            raise TooShort(f"all usable traces are shorter than {min_trace_len} samples")
    return {kind: identify_single(traces[kind], db, align=align, znorm=znorm) for kind in usable}


def _decide(rows: Mapping[MetricKind, np.ndarray], db: FingerprintDb) -> IdentificationResult:
    """Label each metric by the nearest reference in its row (the first in
    database order on a tie, UNKNOWN above the metric's threshold), then
    vote as ``identify`` describes."""
    per_metric: dict[MetricKind, tuple[str, float]] = {}
    votes: dict[str, int] = {}
    for kind, row in rows.items():
        nearest = int(np.argmin(row))
        dist = float(row[nearest])
        label = UNKNOWN if dist > db.threshold_for(kind) else db._refs[kind].labels[nearest]
        per_metric[kind] = (label, dist)
        if label != UNKNOWN:
            votes[label] = votes.get(label, 0) + 1
    top = max(votes.values(), default=0)
    leaders = sorted(label for label, count in votes.items() if count == top)
    if len(leaders) > 1:  # tie: the label with the smallest best per-metric distance wins
        best = {lab: min(d for got, d in per_metric.values() if got == lab) for lab in leaders}
        leaders = [lab for lab in leaders if best[lab] == min(best.values())]
    return IdentificationResult(leaders[0] if len(leaders) == 1 else UNKNOWN, per_metric, votes)


# ---------------------------------------------------------------------------
# On-disk layout: one <dir>/db.json holding the thresholds and every entry
# ---------------------------------------------------------------------------


def save_fingerprint_db(db: FingerprintDb, path: str) -> None:
    """Write the whole database to <path>/db.json in one atomic replace, so
    a failed save leaves the previous database in place.  Samples are
    written unindented, with json's repr, and load back bit for bit."""
    entries = [
        {
            "app_label": entry.app_label,
            "metric": entry.metric.name,
            "period_s": entry.trace.period_s,
            "samples": entry.trace.samples.tolist(),
        }
        for entry in db.entries
    ]
    index = {
        "distance_threshold": db.distance_threshold,
        "metric_thresholds": dict(sorted(db.metric_thresholds.items())),
        "metrics_used": sorted(k.name for k in db.metrics_used),
        "source_session_ids": list(db.source_session_ids),
        "entries": entries,
    }
    write_json(os.path.join(path, "db.json"), index, indent=None)


def load_fingerprint_db(path: str) -> FingerprintDb:
    """Read a database written by save_fingerprint_db.

    A missing or unreadable file raises IoError; malformed content (bad
    JSON, a missing key, a value of the wrong type, a non-numeric or
    non-finite sample, an invalid threshold) raises ParseError.
    """
    return read_json(os.path.join(path, "db.json"), _db_from_index)


def _db_from_index(index: Mapping) -> FingerprintDb:
    ids = index.get("source_session_ids", [])
    if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)):
        raise ParseError("source_session_ids: expected a list of strings")
    return FingerprintDb(
        entries=tuple(_entry(i, item) for i, item in enumerate(index["entries"])),
        metrics_used=frozenset(metric_by_name(n) for n in index["metrics_used"]),
        distance_threshold=_num(index["distance_threshold"], "distance_threshold"),
        metric_thresholds={
            k: _num(v, f"metric_thresholds: {k}") for k, v in index["metric_thresholds"].items()
        },
        source_session_ids=tuple(ids),
    )


def _entry(i: int, item: Mapping) -> FingerprintEntry:
    if not isinstance(item["app_label"], str):
        raise ParseError(f"entry {i}: app_label: expected a string, got {item['app_label']!r}")
    kind = metric_by_name(item["metric"])
    samples = _samples(item["samples"], f"entry {i}")
    trace = MetricTrace(kind, samples, period_s=_num(item["period_s"], f"entry {i}: period_s"))
    return FingerprintEntry(item["app_label"], kind, trace)
