"""Core data model for per-VM hardware metric traces and labeled sessions.

A corpus is a sequence of SessionRecord objects, each holding one time
series per hardware metric plus optional labels (application name, workload
level, achieved performance, interference level).  Two on-disk formats are
supported: JSONL (one record per line) and CSV (one file per session plus a
sidecar with the labels).
"""

from __future__ import annotations

import contextlib
import ctypes
import enum
import functools
import itertools
import json
import math
import os
import secrets
from dataclasses import dataclass, fields
from typing import IO, Any, Callable, Iterator, Mapping, Optional, Sequence, TypeVar

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


def metric_by_name(name: str) -> MetricKind:
    try:
        return STANDARD_METRICS[name]
    except KeyError:
        raise ParseError(f"unknown metric name {name!r}") from None


def quantize(value: float) -> float:
    """Round to SIG_DIGITS significant decimal digits (the on-disk precision)."""
    return float(format(float(value), f".{SIG_DIGITS}g"))


# 10**0 .. 10**22 are exact doubles (5**22 < 2**53)
_POW10 = np.array([float(10**i) for i in range(23)])


def quantize_array(values) -> np.ndarray:
    """``quantize`` of every element, bit for bit, without a Python call per
    element.

    With k = SIG_DIGITS - 1 - floor(log10|v|), the product p = |v| * 10**k
    (or |v| / 10**-k) lies in [1e8, 1e9) and n = rint(p) is the 9-digit
    mantissa; n / 10**k (or n * 10**-k) is then one correctly rounded IEEE
    operation on exact operands, which is what parsing "<n>e-<k>" gives.
    p is one rounding away from the exact product, off by at most ~6e-8,
    so the rounding is decided except within 1e-6 of a tie.  Such samples,
    p below 1e8 (log10 off by one), n reaching 1e9, |k| > 22 (no exact
    power of ten), zero, subnormals and non-finite values go through the
    scalar ``quantize`` instead.
    """
    v = np.asarray(values, dtype=float)
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = (SIG_DIGITS - 1) - np.floor(np.log10(a))
        ok = np.abs(k) <= 22  # False for zero, subnormals, inf and NaN
        ki = np.where(ok, k, 0).astype(np.intp)
        scale = _POW10[np.abs(ki)]
        up = ki >= 0
        p = np.where(up, a * scale, a / scale)
        n = np.rint(p)
        lo, hi = _POW10[SIG_DIGITS - 1], _POW10[SIG_DIGITS]
        ok &= (p >= lo) & (n < hi) & (np.abs(p - np.floor(p) - 0.5) > 1e-6)
        out = np.copysign(np.where(up, n / scale, n * scale), v)
    for i in np.flatnonzero(~ok):
        out[i] = quantize(v[i])
    return out


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
            and np.array_equal(
                quantize_array(self.samples).view(np.int64),
                quantize_array(other.samples).view(np.int64),
            )
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
        periods = {fmt(p) for p in {t.period_s for t in traces.values()}}
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
        """Field-by-field equality, floats compared at SIG_DIGITS precision."""
        if not isinstance(other, SessionRecord):
            return NotImplemented
        if self.session_id != other.session_id or self.app_label != other.app_label:
            return False
        for attr in ("workload_level", "performance", "interference_level"):
            if _opt_fmt(getattr(self, attr)) != _opt_fmt(getattr(other, attr)):
                return False
        return set(self.traces) == set(other.traces) and all(
            self.traces[k] == other.traces[k] for k in self.traces
        )


def _opt_fmt(v: Optional[float]) -> Optional[str]:
    return None if v is None else fmt(v)


def _opt_quant(v: Optional[float]) -> Optional[float]:
    return None if v is None else quantize(v)


# ---------------------------------------------------------------------------
# File I/O: how every vmsight artifact is read and written
# ---------------------------------------------------------------------------

T = TypeVar("T")

# Python's 8 KiB default splits a 25 KB corpus line over several reads
_READ_BUFFER = 256 * 1024


@contextlib.contextmanager
def _reading(path: str) -> Iterator[IO[bytes]]:
    """Open ``path`` for reading bytes; an OSError, on open or while
    reading, becomes IoError."""
    try:
        with open(path, "rb", buffering=_READ_BUFFER) as fh:
            yield fh
    except OSError as exc:
        raise IoError(f"{path}: cannot read ({exc.strerror or exc})") from exc


def _read_bytes(path: str) -> bytes:
    with _reading(path) as fh:
        return fh.read()


def _repeated(names: list[str]) -> str:
    """The first of ``names`` that occurs more than once."""
    return next(n for n in names if names.count(n) > 1)


def parse_json(data: bytes, where: str) -> Any:
    """Decode UTF-8 ``data`` as one JSON document; any failure, a key
    repeated within an object included, is a ParseError naming ``where``."""

    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            raise ParseError(f"{where}: repeated key {_repeated([k for k, _ in pairs])!r}")
        return obj

    try:
        return json.loads(data.decode("utf-8"), object_pairs_hook=unique)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON, bad UTF-8, or an int literal longer than
        # sys.get_int_max_str_digits(); RecursionError: nesting too deep
        raise ParseError(f"{where}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc


def read_json(path: str, build: Callable[[Any], T]) -> T:
    """Load the JSON file at ``path`` and turn it into an object with ``build``.

    An unreadable file raises IoError.  Invalid JSON, and content ``build``
    rejects with ParseError, KeyError, TypeError, ValueError, AttributeError
    or OverflowError, raise ParseError naming the file.
    """
    where = os.path.basename(path)
    obj = parse_json(_read_bytes(path), where)
    try:
        return build(obj)
    except KeyError as exc:
        raise ParseError(f"{where}: missing key {exc}") from exc
    except (ParseError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


@contextlib.contextmanager
def replacing(path: str) -> Iterator[str]:
    """Yield a temporary file name in ``path``'s directory that no other
    writer uses, and rename that file over ``path`` on a clean exit,
    creating parent directories as needed.

    On any failure the temporary file is removed and ``path`` keeps what it
    held before; an OSError becomes IoError.  Of concurrent writers of one
    path, the last to finish wins, and each leaves a whole file.  There is
    no fsync, so a machine crash may still lose the new content.
    """
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        yield tmp
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise IoError(f"{path}: cannot write ({exc.strerror or exc})") from exc
        raise


@contextlib.contextmanager
def atomic_write(path: str) -> Iterator[IO[str]]:
    """Stream UTF-8 text to a temporary file and rename it over ``path``, as
    ``replacing`` does."""
    with replacing(path) as tmp, open(tmp, "x", encoding="utf-8") as fh:
        yield fh


def write_json(path: str, obj, indent: Optional[int] = 2) -> None:
    """Write ``obj`` as key-sorted JSON through atomic_write; ``indent=None`` writes one line."""
    with atomic_write(path) as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=indent))
        fh.write("\n")


def fields_to_obj(obj, skip: Sequence[str] = ()) -> dict:
    """A dataclass's fields but ``skip`` as a dict for write_json, each enum as
    its value; a shallow dict, where dataclasses.asdict would deep-copy."""
    out = {}
    for f in fields(obj):
        if f.name not in skip:
            value = getattr(obj, f.name)
            out[f.name] = value.value if isinstance(value, enum.Enum) else value
    return out


def write_trace_csv(path: str, traces: Sequence[MetricTrace], period_s: float) -> None:
    """Write equal-length traces as a ``t,<metric>,...`` file, one row per
    sample, through atomic_write."""
    with atomic_write(path) as fh:
        fh.write("t," + ",".join(t.metric.name for t in traces) + "\n")
        for i, row in enumerate(zip(*(t.samples for t in traces))):
            fh.write(",".join([fmt(i * period_s), *map(fmt, row)]) + "\n")


def read_trace_csv(path: str) -> tuple[list[MetricKind], np.ndarray]:
    """Read a file written by write_trace_csv: the metrics its header names,
    and its rows as floats, column 0 the time and column j the j-th metric.

    The header must name each metric once, every row must have as many
    fields as the header, each a finite number, and there must be at least
    two rows; otherwise ParseError naming the file and, where there is one,
    the line.
    """
    name = os.path.basename(path)
    try:
        lines = _read_bytes(path).decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{name}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc
    cols = lines[0].strip().split(",") if lines else []
    if len(cols) < 2 or cols[0] != "t":
        raise ParseError(f"{name}:1: header must be t,<metric>,...")
    try:
        kinds = [metric_by_name(c) for c in cols[1:]]
    except ParseError as exc:
        raise ParseError(f"{name}:1: {exc}") from None
    if len(set(cols)) < len(cols):
        raise ParseError(f"{name}:1: repeated column {_repeated(cols)!r}")
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(cols):
            raise ParseError(f"{name}:{lineno}: expected {len(cols)} fields")
        row = []
        for part in parts:
            try:
                v = float(part)
            except ValueError:
                raise ParseError(f"{name}:{lineno}: not a number: {part!r}") from None
            if not math.isfinite(v):
                raise ParseError(f"{name}:{lineno}: non-finite value {part!r}")
            row.append(v)
        rows.append(row)
    if len(rows) < 2:
        raise ParseError(f"{name}: needs >= 2 rows")
    return kinds, np.array(rows)


# ---------------------------------------------------------------------------
# JSONL format
# ---------------------------------------------------------------------------

_LEVELS = ("workload_level", "performance", "interference_level")
_META_KEYS = {"app_label", *_LEVELS}
_JSONL_KEYS = {"session_id", "period_s", "traces", *_META_KEYS}


def _labels_to_obj(record: SessionRecord) -> dict:
    return {"app_label": record.app_label, **{k: _opt_quant(getattr(record, k)) for k in _LEVELS}}


def _check_writable(record: SessionRecord) -> None:
    """IoError unless the record's period and labels are finite, as both
    loaders require."""
    numbers = (record.period_s, *(getattr(record, k) for k in _LEVELS))
    if not all(math.isfinite(v) for v in numbers if v is not None):
        raise IoError(f"session {record.session_id}: cannot write a non-finite number")


def _samples_text(q: np.ndarray) -> str:
    """``json.dumps(q.tolist())`` for quantized samples without json's repr
    search: "%.9g" prints repr's digits, as each q is the double nearest a
    decimal of <= SIG_DIGITS digits, but repr writes whole values (integral,
    below 1e16) as "<n>.0", and a subnormal may have fewer digits."""
    if ((q != 0) & (np.abs(q) < np.finfo(float).tiny)).any():
        return json.dumps(q.tolist())
    whole = (q == np.trunc(q)) & (np.abs(q) < 1e16)
    spec = np.where(whole, "%.1f", "%.9g").tolist() if whole.any() else ["%.9g"] * len(q)
    return "[" + ", ".join(spec) % tuple(q.tolist()) + "]"


def _samples_printer() -> Callable[[np.ndarray], str]:
    """_samples_text, by jsonl.c's formatter where it can be built and
    accepts the samples, by _samples_text's Python body where not."""
    from . import native  # native renames its build through this module

    return _printer(native.load(_JSONL_C))


@functools.cache
def _printer(lib: Optional[ctypes.CDLL]) -> Callable[[np.ndarray], str]:
    """_samples_printer's function for one native.load result, set up once."""
    if lib is None:
        return _samples_text
    fn = lib.vmsight_format_samples
    fn.argtypes = [ctypes.c_void_p, ctypes.c_long, ctypes.c_char_p]
    fn.restype = ctypes.c_long

    def text(q: np.ndarray) -> str:
        buf = ctypes.create_string_buffer(2 + 32 * len(q))
        n = fn(q.ctypes.data, len(q), buf)
        # string_at copies only the n bytes written, where .raw copies all
        return _samples_text(q) if n < 0 else ctypes.string_at(buf, n).decode("ascii")

    return text


def _json_object(items: dict[str, str]) -> str:
    """The layout json.dumps(..., sort_keys=True) gives already-encoded values."""
    return "{" + ", ".join(f'"{k}": {items[k]}' for k in sorted(items)) + "}"


def _record_line(record: SessionRecord) -> str:
    """``json.dumps(obj, sort_keys=True)`` of the record's JSONL object: floats
    quantized to SIG_DIGITS (samples once per record), missing labels null."""
    _check_writable(record)
    kinds = sorted(record.traces, key=lambda k: k.name)
    q = quantize_array(np.concatenate([record.traces[k].samples for k in kinds]))
    ends = list(itertools.accumulate(len(record.traces[k]) for k in kinds))
    text = _samples_printer()
    traces = {k.name: text(q[a:b]) for k, a, b in zip(kinds, [0, *ends], ends)}
    fields = {"session_id": record.session_id, "period_s": quantize(record.period_s),
              **_labels_to_obj(record)}
    items = {k: json.dumps(v) for k, v in fields.items()}
    return _json_object({**items, "traces": _json_object(traces)})


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


def _samples(values, where: str) -> np.ndarray:
    """Convert one JSON sample list to floats, checking every sample.

    The whole list is checked at once: only ints and floats (bool is its
    own type, so it fails), a float conversion that does not overflow, and
    finite results.  Only when a check fails is the list walked sample by
    sample, so that the error names the first bad sample.  The C parser's
    float64 arrays hold only finite numbers and pass as they are.
    """
    if isinstance(values, np.ndarray):
        return values
    if set(map(type, values)) <= {int, float}:
        try:
            arr = np.array(values, dtype=float)
        except OverflowError:
            pass
        else:
            if np.isfinite(arr).all():
                return arr
    return np.array([_num(v, f"{where} sample {i}") for i, v in enumerate(values)])


def _labels(obj: dict, where: str) -> dict:
    """The checked label fields of a JSONL record or a CSV sidecar."""
    app_label = obj["app_label"]
    if app_label is not None and not isinstance(app_label, str):
        raise ParseError(f"{where}: app_label must be a string or null")
    return {"app_label": app_label, **{k: _num(obj[k], f"{where}: {k}", True) for k in _LEVELS}}


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
    labels = _labels(obj, where)
    period = _num(obj["period_s"], f"{where}: period_s")
    traces_obj = obj["traces"]
    if not isinstance(traces_obj, dict) or not traces_obj:
        raise ParseError(f"{where}: traces must be a non-empty object")
    samples = {}
    for name, values in traces_obj.items():
        try:
            kind = metric_by_name(name)
        except ParseError as exc:
            raise ParseError(f"{where}: {exc}") from None
        if not isinstance(values, (list, np.ndarray)) or len(values) < 2:
            raise ParseError(f"{where}: trace {name!r} needs >= 2 samples")
        samples[kind] = _samples(values, f"{where}: trace {name!r}")
    return _record(session_id, samples, period, labels, where)


def _record(session_id: str, samples: dict, period: float, labels: dict, where: str):
    """The SessionRecord of checked file fields; a period of 0 or below, and
    what SessionRecord refuses, is a ParseError.

    Each of ``samples``' arrays is a loader's own: 1-D, at least 2 finite
    float64 values, written by nothing else.  It becomes its trace's samples
    as it is, made read-only, without MetricTrace's second check and copy.
    """
    try:
        if not period > 0:
            raise ValueError(f"period_s must be positive, got {period}")
        traces = {}
        for kind, v in samples.items():
            v.flags.writeable = False
            traces[kind] = trace = object.__new__(MetricTrace)
            object.__setattr__(trace, "metric", kind)
            object.__setattr__(trace, "samples", v)
            object.__setattr__(trace, "period_s", period)
        return SessionRecord(session_id=session_id, traces=traces, **labels)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


_JSONL_C = os.path.join(os.path.dirname(os.path.abspath(__file__)), "jsonl.c")
_MAX_TRACES = len(STANDARD_METRICS)  # a line with more is declined, then rejected


def _line_parser() -> Optional[Callable[[bytes], Optional[dict]]]:
    """A function from a JSONL line, JSON whitespace allowed at both ends,
    to the object json.loads would give, or to None when jsonl.c's parser
    declines the line; None where that parser cannot be built.

    Each accepted line's samples are copied once, out of the buffer the next
    line reuses, into a fresh read-only block; each trace is a view of its
    slice of that block.
    """
    from . import native  # native renames its build through this module

    lib = native.load(_JSONL_C)
    if lib is None:
        return None
    fn = lib.vmsight_parse_record
    fn.argtypes = [ctypes.c_char_p, ctypes.c_long, ctypes.c_void_p, ctypes.c_long,
                   ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p]
    fn.restype = ctypes.c_long
    spans = np.empty(4 + 4 * _MAX_TRACES, dtype=ctypes.c_long)
    nums = np.empty(4)
    buf = np.empty(0)

    def parse(line: bytes) -> Optional[dict]:
        nonlocal buf
        # n samples take at least 2n - 1 bytes
        if len(buf) <= len(line) // 2:
            buf = np.empty(len(line) // 2 + 1)
        n = fn(line, len(line), buf.ctypes.data, len(buf), spans.ctypes.data, _MAX_TRACES,
               nums.ctypes.data)
        if n < 0:
            return None
        s = spans[: 4 + 4 * n].tolist()
        block = buf[: s[-1]].copy()  # s[-1]: the end of the last trace's samples
        block.flags.writeable = False
        period, *levels = (None if math.isnan(v) else v for v in nums.tolist())
        return {
            "session_id": line[s[0]:s[1]].decode("ascii"),
            "app_label": None if s[2] < 0 else line[s[2]:s[3]].decode("ascii"),
            "period_s": period,
            **dict(zip(_LEVELS, levels)),
            "traces": {line[a:b].decode("ascii"): block[i:j]
                       for a, b, i, j in zip(*[iter(s[4:])] * 4)},
        }

    return parse


def _load_jsonl_file(path: str) -> list[SessionRecord]:
    """The file's records in line order.  Each line is parsed once, by the C
    parser or, where it declines the line, by json, and _record_from_obj
    checks either object alike, so no record or error depends on the parser."""
    name = os.path.basename(path)
    parse = _line_parser() or (lambda line: None)
    records = []
    with _reading(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            where = f"{name}:{lineno}"
            # jsonl.c takes the raw line; json, which refuses \x0b and \x0c,
            # takes it stripped, and a blank line holds no record
            obj = parse(line)
            if obj is None:
                line = line.strip()
                if not line:
                    continue
                obj = parse_json(line, where)
            records.append(_record_from_obj(obj, where))
    return records


def _save_jsonl(records: Sequence[SessionRecord], path: str) -> None:
    with atomic_write(path) as fh:
        for record in records:
            fh.write(_record_line(record))
            fh.write("\n")


# ---------------------------------------------------------------------------
# CSV format: one <session_id>.csv per session plus <session_id>.meta.json
# ---------------------------------------------------------------------------


def _save_csv(records: Sequence[SessionRecord], path: str) -> None:
    """Check every record before the first file is written, then write two
    files per record."""
    for record in records:
        if len({len(t) for t in record.traces.values()}) != 1:
            raise IoError(
                f"session {record.session_id}: CSV format requires equal-length traces"
            )
        _check_writable(record)
    for record in records:
        base = os.path.join(path, record.session_id)
        write_trace_csv(base + ".csv", [record.trace(n) for n in record.metric_names()],
                        record.period_s)
        write_json(base + ".meta.json", _labels_to_obj(record))


def _sidecar_labels(meta) -> dict:
    if not isinstance(meta, dict) or set(meta) != _META_KEYS:
        raise ParseError(f"keys must be {sorted(_META_KEYS)}")
    return _labels(meta, "labels")


def _load_csv_session(csv_path: str) -> SessionRecord:
    session_id = os.path.basename(csv_path)[: -len(".csv")]
    meta_path = csv_path[: -len(".csv")] + ".meta.json"
    if not os.path.exists(meta_path):
        raise ParseError(f"{session_id}: missing sidecar {os.path.basename(meta_path)}")
    labels = read_json(meta_path, _sidecar_labels)
    kinds, rows = read_trace_csv(csv_path)
    steps = np.diff(rows[:, 0])
    period = float(steps[0])
    if period <= 0 or not np.allclose(steps, period, rtol=1e-6, atol=1e-9):
        raise ParseError(f"{session_id}.csv: time column is not uniformly spaced")
    samples = dict(zip(kinds, rows[:, 1:].T.copy()))  # one contiguous row per trace
    return _record(session_id, samples, period, labels, session_id)


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
    if format == "jsonl":
        _save_jsonl(ordered, path)
    else:
        _save_csv(ordered, path)
