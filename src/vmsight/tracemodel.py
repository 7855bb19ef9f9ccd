"""Core data model for per-VM hardware metric traces and labeled sessions.

A corpus is a sequence of SessionRecord objects, each holding one time
series per hardware metric plus optional labels (application name, workload
level, achieved performance, interference level).  Two on-disk formats are
supported: JSONL (one record per line) and CSV (one file per session plus a
sidecar with the labels).
"""

from __future__ import annotations

import enum
import json
import math
import os
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import EmptyCorpus, IoError, ParseError

SIG_DIGITS = 9


class Category(enum.Enum):
    CPU = "CPU"
    MEMORY = "Memory"
    NETWORK = "Network"


@dataclass(frozen=True)
class MetricKind:
    """One hardware metric observable from the host server."""

    name: str
    category: Category

    def __post_init__(self):
        if not self.name or not self.name.replace("_", "").isalnum():
            raise ValueError(f"metric name must be an identifier, got {self.name!r}")


# Host-observable metrics collected for every VM.  Disk read requests count
# as memory-subsystem pressure alongside LLC misses and available memory.
CPU_UTIL = MetricKind("cpu_util_pct", Category.CPU)
INSTRUCTIONS = MetricKind("instructions", Category.CPU)
LLC_MISSES = MetricKind("llc_misses", Category.MEMORY)
MEM_AVAIL = MetricKind("mem_avail_kb", Category.MEMORY)
DISK_READS = MetricKind("disk_read_reqs", Category.MEMORY)
NET_RX = MetricKind("net_rx_bytes", Category.NETWORK)
NET_TX = MetricKind("net_tx_bytes", Category.NETWORK)

STANDARD_METRICS: dict[str, MetricKind] = {
    m.name: m
    for m in (CPU_UTIL, INSTRUCTIONS, LLC_MISSES, MEM_AVAIL, DISK_READS, NET_RX, NET_TX)
}

_REGISTRY: dict[str, MetricKind] = dict(STANDARD_METRICS)


def register_metric(kind: MetricKind) -> MetricKind:
    """Register a non-standard metric so corpora mentioning it can load."""
    existing = _REGISTRY.get(kind.name)
    if existing is not None and existing != kind:
        raise ValueError(f"metric {kind.name!r} already registered with a different category")
    _REGISTRY[kind.name] = kind
    return kind


def metric_by_name(name: str) -> MetricKind:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ParseError(f"unknown metric name {name!r}; register it first") from None


def quantize(value: float) -> float:
    """Round to SIG_DIGITS significant decimal digits (the on-disk precision)."""
    return float(format(float(value), f".{SIG_DIGITS}g"))


def fmt(value: float) -> str:
    return format(float(value), f".{SIG_DIGITS}g")


@dataclass(frozen=True, eq=False)
class MetricTrace:
    """Uniformly sampled time series of one metric for one VM session.

    CPU-load values may exceed 100: a VM using more than one core reports
    the summed per-core utilization.
    """

    metric: MetricKind
    samples: np.ndarray
    period_s: float = 1.0

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1 or arr.shape[0] < 2:
            raise ValueError(f"trace needs >= 2 samples, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("trace contains non-finite values")
        if not (self.period_s > 0):
            raise ValueError(f"period_s must be positive, got {self.period_s}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "period_s", float(self.period_s))

    def __len__(self) -> int:
        return int(self.samples.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, MetricTrace):
            return NotImplemented
        return (
            self.metric == other.metric
            and fmt(self.period_s) == fmt(other.period_s)
            and len(self) == len(other)
            and all(fmt(a) == fmt(b) for a, b in zip(self.samples, other.samples))
        )


@dataclass(frozen=True, eq=False)
class SessionRecord:
    """All traces observed for one VM session, plus optional labels.

    Labeled records (fingerprint/training corpora) carry app_label;
    black-box inputs carry none.
    """

    session_id: str
    traces: Mapping[MetricKind, MetricTrace]
    app_label: Optional[str] = None
    workload_level: Optional[float] = None
    performance: Optional[float] = None
    interference_level: Optional[float] = None

    def __post_init__(self):
        if not self.session_id:
            raise ValueError("session_id must be non-empty")
        traces = dict(self.traces)
        if not traces:
            raise ValueError("record needs at least one trace")
        periods = {fmt(t.period_s) for t in traces.values()}
        if len(periods) != 1:
            raise ValueError(f"all traces in a record must share period_s, got {periods}")
        for kind, trace in traces.items():
            if kind != trace.metric:
                raise ValueError(f"trace for {kind.name} carries metric {trace.metric.name}")
        if self.interference_level is not None and not (0.0 <= self.interference_level <= 1.0):
            raise ValueError("interference_level must lie in [0, 1]")
        object.__setattr__(self, "traces", traces)

    @property
    def period_s(self) -> float:
        return next(iter(self.traces.values())).period_s

    def trace(self, name: str) -> MetricTrace:
        return self.traces[metric_by_name(name)]

    def metric_names(self) -> list[str]:
        return sorted(k.name for k in self.traces)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SessionRecord):
            return NotImplemented
        return records_equal(self, other)


def _opt_fmt(v: Optional[float]) -> Optional[str]:
    return None if v is None else fmt(v)


def records_equal(a: SessionRecord, b: SessionRecord) -> bool:
    """Field-by-field equality, floats compared at SIG_DIGITS precision."""
    if a.session_id != b.session_id or a.app_label != b.app_label:
        return False
    for attr in ("workload_level", "performance", "interference_level"):
        if _opt_fmt(getattr(a, attr)) != _opt_fmt(getattr(b, attr)):
            return False
    return set(a.traces) == set(b.traces) and all(a.traces[k] == b.traces[k] for k in a.traces)


# ---------------------------------------------------------------------------
# JSONL format
# ---------------------------------------------------------------------------

_JSONL_KEYS = {
    "session_id",
    "app_label",
    "period_s",
    "workload_level",
    "performance",
    "interference_level",
    "traces",
}


def _record_to_obj(record: SessionRecord) -> dict:
    # Missing optional fields serialize as explicit nulls, never omitted keys.
    return {
        "session_id": record.session_id,
        "app_label": record.app_label,
        "period_s": quantize(record.period_s),
        "workload_level": None
        if record.workload_level is None
        else quantize(record.workload_level),
        "performance": None if record.performance is None else quantize(record.performance),
        "interference_level": None
        if record.interference_level is None
        else quantize(record.interference_level),
        "traces": {
            kind.name: [quantize(v) for v in trace.samples]
            for kind, trace in sorted(record.traces.items(), key=lambda kv: kv[0].name)
        },
    }


def _num(value, where: str, allow_none: bool = False) -> Optional[float]:
    if value is None:
        if allow_none:
            return None
        raise ParseError(f"{where}: null not allowed")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        raise ParseError(f"{where}: number too large for a float") from None
    if not math.isfinite(v):
        raise ParseError(f"{where}: non-finite value {value!r}")
    return v


def _samples(values: list, where: str) -> np.ndarray:
    """Convert one JSON sample list to floats, checking every sample.

    The whole list is checked at once: only ints and floats (bool is its
    own type, so it fails), a float conversion that does not overflow, and
    finite results.  Only when a check fails is the list walked sample by
    sample, so that the error names the first bad sample.
    """
    if set(map(type, values)) <= {int, float}:
        try:
            arr = np.array(values, dtype=float)
        except OverflowError:
            pass
        else:
            if np.isfinite(arr).all():
                return arr
    return np.array([_num(v, f"{where} sample {i}") for i, v in enumerate(values)])


def _record_from_obj(obj: dict, where: str) -> SessionRecord:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    missing = _JSONL_KEYS - set(obj)
    if missing:
        raise ParseError(f"{where}: missing keys {sorted(missing)}")
    extra = set(obj) - _JSONL_KEYS
    if extra:
        raise ParseError(f"{where}: unknown keys {sorted(extra)}")
    session_id = obj["session_id"]
    if not isinstance(session_id, str) or not session_id:
        raise ParseError(f"{where}: session_id must be a non-empty string")
    app_label = obj["app_label"]
    if app_label is not None and not isinstance(app_label, str):
        raise ParseError(f"{where}: app_label must be a string or null")
    period = _num(obj["period_s"], f"{where}: period_s")
    traces_obj = obj["traces"]
    if not isinstance(traces_obj, dict) or not traces_obj:
        raise ParseError(f"{where}: traces must be a non-empty object")
    traces = {}
    for name, values in traces_obj.items():
        kind = metric_by_name(name)
        if not isinstance(values, list) or len(values) < 2:
            raise ParseError(f"{where}: trace {name!r} needs >= 2 samples")
        samples = _samples(values, f"{where}: trace {name!r}")
        traces[kind] = MetricTrace(kind, samples, period_s=period)
    try:
        return SessionRecord(
            session_id=session_id,
            traces=traces,
            app_label=app_label,
            workload_level=_num(obj["workload_level"], f"{where}: workload_level", True),
            performance=_num(obj["performance"], f"{where}: performance", True),
            interference_level=_num(
                obj["interference_level"], f"{where}: interference_level", True
            ),
        )
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _load_jsonl_file(path: str) -> list[SessionRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{os.path.basename(path)}:{lineno}"
            try:
                obj = json.loads(line)
            except ValueError as exc:  # also an int literal over sys.get_int_max_str_digits()
                raise ParseError(f"{where}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc
            records.append(_record_from_obj(obj, where))
    return records


def _save_jsonl(records: Sequence[SessionRecord], path: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(_record_to_obj(record), sort_keys=True))
            fh.write("\n")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# CSV format: one <session_id>.csv per session plus <session_id>.meta.json
# ---------------------------------------------------------------------------

_META_KEYS = {"app_label", "workload_level", "performance", "interference_level"}


def _save_csv(records: Sequence[SessionRecord], path: str) -> None:
    os.makedirs(path, exist_ok=True)
    for record in records:
        names = record.metric_names()
        lengths = {len(record.trace(n)) for n in names}
        if len(lengths) != 1:
            raise IoError(
                f"session {record.session_id}: CSV format requires equal-length traces"
            )
        n = lengths.pop()
        period = record.period_s
        csv_path = os.path.join(path, f"{record.session_id}.csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("t," + ",".join(names) + "\n")
            columns = [record.trace(name).samples for name in names]
            for i in range(n):
                row = [fmt(i * period)] + [fmt(col[i]) for col in columns]
                fh.write(",".join(row) + "\n")
        meta = {
            "app_label": record.app_label,
            "workload_level": _opt_quant(record.workload_level),
            "performance": _opt_quant(record.performance),
            "interference_level": _opt_quant(record.interference_level),
        }
        with open(os.path.join(path, f"{record.session_id}.meta.json"), "w") as fh:
            fh.write(json.dumps(meta, sort_keys=True, indent=2))
            fh.write("\n")


def _opt_quant(v: Optional[float]) -> Optional[float]:
    return None if v is None else quantize(v)


def _load_csv_session(csv_path: str) -> SessionRecord:
    session_id = os.path.basename(csv_path)[: -len(".csv")]
    meta_path = csv_path[: -len(".csv")] + ".meta.json"
    if not os.path.exists(meta_path):
        raise ParseError(f"{session_id}: missing sidecar {os.path.basename(meta_path)}")
    with open(meta_path) as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{os.path.basename(meta_path)}: invalid JSON") from exc
    if set(meta) != _META_KEYS:
        raise ParseError(f"{os.path.basename(meta_path)}: keys must be {sorted(_META_KEYS)}")

    with open(csv_path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if len(cols) < 2 or cols[0] != "t":
            raise ParseError(f"{session_id}.csv:1: header must be t,<metric>,...")
        kinds = [metric_by_name(c) for c in cols[1:]]
        times: list[float] = []
        columns: list[list[float]] = [[] for _ in kinds]
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(cols):
                raise ParseError(f"{session_id}.csv:{lineno}: expected {len(cols)} fields")
            for j, part in enumerate(parts):
                try:
                    v = float(part)
                except ValueError:
                    raise ParseError(
                        f"{session_id}.csv:{lineno}: not a number: {part!r}"
                    ) from None
                if not math.isfinite(v):
                    raise ParseError(f"{session_id}.csv:{lineno}: non-finite value {part!r}")
                if j == 0:
                    times.append(v)
                else:
                    columns[j - 1].append(v)
    if len(times) < 2:
        raise ParseError(f"{session_id}.csv: needs >= 2 rows")
    steps = np.diff(np.array(times))
    period = float(steps[0])
    if period <= 0 or not np.allclose(steps, period, rtol=1e-6, atol=1e-9):
        raise ParseError(f"{session_id}.csv: time column is not uniformly spaced")
    traces = {
        kind: MetricTrace(kind, np.array(col), period_s=period)
        for kind, col in zip(kinds, columns)
    }
    app_label = meta["app_label"]
    if app_label is not None and not isinstance(app_label, str):
        raise ParseError(f"{session_id}: app_label must be a string or null")
    try:
        return SessionRecord(
            session_id=session_id,
            traces=traces,
            app_label=app_label,
            workload_level=_num(meta["workload_level"], f"{session_id}: workload_level", True),
            performance=_num(meta["performance"], f"{session_id}: performance", True),
            interference_level=_num(
                meta["interference_level"], f"{session_id}: interference_level", True
            ),
        )
    except ValueError as exc:
        raise ParseError(f"{session_id}: {exc}") from exc


# ---------------------------------------------------------------------------
# Public corpus API
# ---------------------------------------------------------------------------


def load_corpus(path: str, format: str = "jsonl") -> list[SessionRecord]:
    """Load every session record under ``path``, ordered by session_id.

    ``path`` is a .jsonl file (or a directory of them) for format "jsonl",
    or a directory of per-session CSV + sidecar files for format "csv".
    Raises ParseError on any malformed row and EmptyCorpus when nothing
    loads; rows are never silently dropped.
    """
    if format not in ("jsonl", "csv"):
        raise ValueError(f"format must be 'jsonl' or 'csv', got {format!r}")
    if not os.path.exists(path):
        raise IoError(f"no such path: {path}")
    records: list[SessionRecord] = []
    if format == "jsonl":
        if os.path.isdir(path):
            files = sorted(
                os.path.join(path, f) for f in os.listdir(path) if f.endswith(".jsonl")
            )
        else:
            files = [path]
        for f in files:
            records.extend(_load_jsonl_file(f))
    else:
        if not os.path.isdir(path):
            raise IoError(f"csv corpus must be a directory: {path}")
        files = sorted(
            os.path.join(path, f) for f in os.listdir(path) if f.endswith(".csv")
        )
        for f in files:
            records.append(_load_csv_session(f))
    if not records:
        raise EmptyCorpus(f"no records found under {path}")
    seen: dict[str, int] = {}
    for r in records:
        seen[r.session_id] = seen.get(r.session_id, 0) + 1
    dupes = sorted(sid for sid, n in seen.items() if n > 1)
    if dupes:
        raise ParseError(f"duplicate session ids: {dupes[:5]}")
    records.sort(key=lambda r: r.session_id)
    return records


def save_corpus(records: Sequence[SessionRecord], path: str, format: str = "jsonl") -> None:
    """Write a corpus so that load_corpus reproduces it exactly.

    Numbers are written as decimal strings with SIG_DIGITS significant
    digits, which makes round-trips byte-stable across platforms.
    """
    if format not in ("jsonl", "csv"):
        raise ValueError(f"format must be 'jsonl' or 'csv', got {format!r}")
    records = list(records)
    if not records:
        raise EmptyCorpus("refusing to save an empty corpus")
    ordered = sorted(records, key=lambda r: r.session_id)
    try:
        if format == "jsonl":
            _save_jsonl(ordered, path)
        else:
            _save_csv(ordered, path)
    except OSError as exc:
        raise IoError(f"cannot write corpus to {path}: {exc}") from exc
