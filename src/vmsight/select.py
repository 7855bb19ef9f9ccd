"""Rank hardware metrics by Pearson correlation against a prediction target.

Each session contributes one observation per metric (the mean of its
trace), and metrics whose absolute correlation with the target clears a
threshold are selected as regression inputs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConstantSeries, InsufficientData, LengthMismatch
from .tracemodel import MetricKind, MetricTrace, SessionRecord

DEFAULT_CORR_THRESHOLD = 0.3
BAR_WIDTH = 40  # characters of bar for |rho| = 1 in render_report


class Purpose(enum.Enum):
    """What a net predicts, and so the target its input metrics are ranked
    against: a baseline net maps the workload level to performance."""

    PERFORMANCE = "performance"
    WORKLOAD = "workload"
    BASELINE = "baseline"


def target_value(record: SessionRecord, purpose: Purpose):
    """The value of ``record`` that a ``purpose`` net predicts, or None."""
    return record.workload_level if purpose is Purpose.WORKLOAD else record.performance


def trace_summary(trace: MetricTrace) -> float:
    """A trace's per-session mean: the scalar that is correlated with the
    target and fed to the nets."""
    samples = trace.samples
    # np.mean's own pairwise sum and single division, without its dispatch
    return float(np.add.reduce(samples) / samples.shape[0])


def pearson(a: Sequence[float], b: Sequence[float]) -> float:
    """Pearson correlation with population (1/K) standard deviations.

    Raises LengthMismatch for unequal lengths and ConstantSeries when either
    input has zero variance.  The result is clamped to [-1, 1] against
    floating-point rounding.
    """
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av.ndim != 1 or bv.ndim != 1 or av.shape != bv.shape:
        raise LengthMismatch(f"length mismatch: {av.shape} vs {bv.shape}")
    k = av.shape[0]
    if k < 2:
        raise LengthMismatch("need at least 2 observations")
    if not (np.all(np.isfinite(av)) and np.all(np.isfinite(bv))):
        raise ValueError("inputs must be finite")
    da = av - np.mean(av)
    db = bv - np.mean(bv)
    ssa = float(da @ da)
    ssb = float(db @ db)
    if ssa == 0.0 or ssb == 0.0:
        raise ConstantSeries("zero variance input")
    # (1/K) sum of z-scores with population sigmas; the 1/K cancels against
    # sigma = sqrt(ss/K), leaving the numerically friendlier dot form
    rho = float(da @ db) / math.sqrt(ssa * ssb)
    return min(1.0, max(-1.0, rho))


@dataclass(frozen=True)
class CorrelationReport:
    """Correlation of every candidate metric against one target."""

    target: Purpose
    rho: Mapping[MetricKind, float]
    selected: tuple[MetricKind, ...]
    threshold: float

    def __post_init__(self):
        object.__setattr__(self, "rho", dict(self.rho))
        object.__setattr__(self, "selected", tuple(self.selected))

    def to_obj(self) -> dict:
        return {
            "target": self.target.value,
            "threshold": self.threshold,
            "rho": {k.name: v for k, v in sorted(self.rho.items(), key=lambda kv: kv[0].name)},
            "selected": [k.name for k in self.selected],
        }


def rank_metrics(
    records: Sequence[SessionRecord],
    app: str,
    target: Purpose,
    threshold: float = DEFAULT_CORR_THRESHOLD,
) -> CorrelationReport:
    """Correlate every shared metric of ``app``'s sessions with the target.

    Metrics with zero variance (dead counters) are reported with rho = 0 and
    never selected, instead of aborting the whole ranking.  ``selected``
    holds metrics with |rho| >= threshold, ordered by descending |rho| with
    name as the tiebreaker.
    """
    usable = [
        r for r in records if r.app_label == app and target_value(r, target) is not None
    ]
    if len(usable) < 2:
        raise InsufficientData(
            f"need >= 2 records for app {app!r} with a {target.value} value, got {len(usable)}"
        )
    metrics = set(usable[0].traces)
    for r in usable[1:]:
        metrics &= set(r.traces)
    if not metrics:
        raise InsufficientData(f"sessions of app {app!r} share no metrics")
    targets = [float(target_value(r, target)) for r in usable]
    rho: dict[MetricKind, float] = {}
    for kind in sorted(metrics, key=lambda k: k.name):
        series = [trace_summary(r.traces[kind]) for r in usable]
        try:
            rho[kind] = pearson(series, targets)
        except ConstantSeries:
            rho[kind] = 0.0
    selected = sorted(
        (k for k, v in rho.items() if abs(v) >= threshold and v != 0.0),
        key=lambda k: (-abs(rho[k]), k.name),
    )
    return CorrelationReport(target=target, rho=rho, selected=tuple(selected), threshold=threshold)


def render_report(report: CorrelationReport) -> str:
    """ASCII bar table of correlations, strongest first."""
    lines = [f"correlation vs {report.target.value} (threshold {report.threshold:g})"]
    ordered = sorted(report.rho.items(), key=lambda kv: (-abs(kv[1]), kv[0].name))
    for kind, value in ordered:
        bar = "#" * int(round(abs(value) * BAR_WIDTH))
        mark = "*" if kind in report.selected else " "
        lines.append(f"{mark} {kind.name:<16} {value:+.3f} |{bar}")
    return "\n".join(lines)
