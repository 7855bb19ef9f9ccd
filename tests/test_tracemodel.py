import decimal
import hashlib
import itertools
import json
import math
import os
import re
import string
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import jsonl_line
from vmsight import tracemodel
from vmsight.errors import EmptyCorpus, IoError, ParseError
from vmsight.simgen import ScenarioConfig, default_templates, generate, generate_isolated
from vmsight.tracemodel import (
    CPU_UTIL,
    NET_RX,
    STANDARD_METRICS,
    Category,
    MetricKind,
    MetricTrace,
    SessionRecord,
    _samples,
    fmt,
    load_corpus,
    quantize,
    quantize_array,
    save_corpus,
)

# Every float JSON can carry (-0.0 and subnormals included) and ints far
# beyond 2**53 and 2**64, up to 10**300.
json_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(10**300), max_value=10**300),
    st.sampled_from([-0.0, 5e-324, 2**53 + 1, 2**63 - 1, 2**63 + 1, 2**64 + 1]),
)

# A bad sample and the error message the loader has always given for it.
bad_samples = st.sampled_from(
    [
        (True, "expected a number, got True"),
        ("1.5", "expected a number, got '1.5'"),
        (None, "null not allowed"),
        ([], "expected a number, got []"),
        (float("nan"), "non-finite value nan"),
        (float("inf"), "non-finite value inf"),
        (float("-inf"), "non-finite value -inf"),
        (10**400, "number too large for a float"),
    ]
)


def make_record(sid="s1", app="demo", n=10, period=1.0):
    rng = np.random.default_rng(hash(sid) % 2**31)
    traces = {
        CPU_UTIL: MetricTrace(CPU_UTIL, rng.uniform(0, 150, n), period_s=period),
        NET_RX: MetricTrace(NET_RX, rng.uniform(0, 3e7, n), period_s=period),
    }
    return SessionRecord(
        session_id=sid,
        traces=traces,
        app_label=app,
        workload_level=12.5,
        performance=41.0,
        interference_level=0.25,
    )


class TestTypes:
    def test_trace_requires_two_samples(self):
        with pytest.raises(ValueError):
            MetricTrace(CPU_UTIL, np.array([1.0]))

    def test_trace_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            MetricTrace(CPU_UTIL, np.array([1.0, np.nan]))

    def test_trace_rejects_bad_period(self):
        with pytest.raises(ValueError):
            MetricTrace(CPU_UTIL, np.array([1.0, 2.0]), period_s=0.0)

    def test_cpu_load_may_exceed_100(self):
        trace = MetricTrace(CPU_UTIL, np.array([150.0, 380.0]))
        assert trace.samples.max() == 380.0

    def test_trace_samples_immutable(self):
        trace = MetricTrace(CPU_UTIL, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            trace.samples[0] = 9.9

    def test_trace_copies_a_writable_array(self):
        arr = np.array([1.0, 2.0])
        trace = MetricTrace(CPU_UTIL, arr)
        arr[0] = 9.9
        assert trace.samples.tolist() == [1.0, 2.0]

    def test_record_requires_shared_period(self):
        traces = {
            CPU_UTIL: MetricTrace(CPU_UTIL, np.array([1.0, 2.0]), period_s=1.0),
            NET_RX: MetricTrace(NET_RX, np.array([1.0, 2.0]), period_s=2.0),
        }
        with pytest.raises(ValueError, match="period"):
            SessionRecord(session_id="x", traces=traces)

    def test_interference_bounds(self):
        traces = {CPU_UTIL: MetricTrace(CPU_UTIL, np.array([1.0, 2.0]))}
        with pytest.raises(ValueError):
            SessionRecord(session_id="x", traces=traces, interference_level=1.5)

    def test_metric_kind_unique_names(self):
        assert MetricKind("cpu_util_pct", Category.CPU) == CPU_UTIL


class TestJsonl:
    def test_two_session_file_loads_two_records(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus([make_record("a"), make_record("b")], str(path))
        records = load_corpus(str(path))
        assert [r.session_id for r in records] == ["a", "b"]

    def test_nan_value_is_parse_error_with_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus([make_record("a"), make_record("b")], str(path))
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("41.0", "NaN", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=":2"):
            load_corpus(str(path))

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus([make_record("a")], str(path))
        obj = json.loads(path.read_text())
        del obj["workload_level"]
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ParseError, match="missing keys"):
            load_corpus(str(path))

    def test_nulls_are_explicit(self, tmp_path):
        record = SessionRecord(
            session_id="n",
            traces={CPU_UTIL: MetricTrace(CPU_UTIL, np.array([1.0, 2.0]))},
        )
        path = tmp_path / "c.jsonl"
        save_corpus([record], str(path))
        obj = json.loads(path.read_text())
        for key in ("app_label", "workload_level", "performance", "interference_level"):
            assert key in obj and obj[key] is None

    def test_unknown_metric_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus([make_record("a")], str(path))
        path.write_text(path.read_text().replace("cpu_util_pct", "mystery_counter"))
        with pytest.raises(ParseError, match=r"^c\.jsonl:1: unknown metric name 'mystery_counter'$"):
            load_corpus(str(path))

    def test_duplicate_session_ids_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus([make_record("a")], str(path))
        path.write_text(path.read_text() * 2)
        with pytest.raises(ParseError, match="duplicate"):
            load_corpus(str(path))

    def test_round_trip_identity(self, tmp_path):
        records = [make_record("a"), make_record("b")]
        path = tmp_path / "c.jsonl"
        save_corpus(records, str(path))
        assert load_corpus(str(path)) == records

    def test_loaded_traces_are_read_only_and_share_no_memory(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus([make_record(s) for s in ("a", "b", "c")], str(path))
        loaded = load_corpus(str(path))
        traces = [(r.session_id, t.samples) for r in loaded for t in r.traces.values()]
        for _, samples in traces:
            assert not samples.flags.writeable
            with pytest.raises(ValueError):
                samples[0] = 9.9
        for (sid, x), (other, y) in itertools.combinations(traces, 2):
            assert sid == other or not np.shares_memory(x, y)
        # a second load, of other samples, leaves the first one's as they were
        before = _bits(loaded)
        save_corpus([make_record(s, n=40) for s in ("c", "d")], str(path))
        load_corpus(str(path))
        assert _bits(loaded) == before

    def test_load_keeps_the_samples_and_streams_the_file(self, tmp_path):
        # the corpus of test_peak_memory_is_one_record_not_the_corpus.  A
        # record that kept the C parser's whole line buffer (about 12,700
        # floats) would retain several times its samples, and reading the
        # file at once would lift the peak by its size
        records = generate(
            ScenarioConfig(session_duration_s=300.0, rng_seed=3), default_templates(), 200
        )
        path = tmp_path / "c.jsonl"
        save_corpus(records, str(path))
        del records
        tracemalloc.start()
        try:
            loaded = load_corpus(str(path))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        samples = sum(t.samples.nbytes for r in loaded for t in r.traces.values())
        assert retained < 1.25 * samples
        assert peak - retained < path.stat().st_size / 2


class TestSamples:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(json_numbers, min_size=2, max_size=40))
    def test_valid_samples_match_per_sample_conversion(self, values):
        expected = np.array([float(v) for v in values])
        got = _samples(values, "w")
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(json_numbers, min_size=2, max_size=40), bad_samples, st.data())
    def test_bad_sample_is_named_by_index(self, values, bad, data):
        value, message = bad
        i = data.draw(st.integers(min_value=0, max_value=len(values)), label="index")
        values.insert(i, value)
        with pytest.raises(ParseError) as info:
            _samples(values, "f.jsonl:3: trace 'cpu_util_pct'")
        assert str(info.value) == f"f.jsonl:3: trace 'cpu_util_pct' sample {i}: {message}"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(json_numbers, min_size=2, max_size=40), bad_samples, st.data())
    def test_bad_sample_in_a_corpus_is_named_by_index(self, values, bad, data):
        value, message = bad
        i = data.draw(st.integers(min_value=0, max_value=len(values)), label="index")
        values.insert(i, value)
        obj = {"session_id": "s", "app_label": None, "period_s": 1.0, "workload_level": None,
               "performance": None, "interference_level": None,
               "traces": {"cpu_util_pct": values}}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.jsonl")
            with open(path, "w") as fh:
                fh.write(json.dumps(obj) + "\n")
            errors = _load_both_ways(path)
        assert errors == [f"f.jsonl:1: trace 'cpu_util_pct' sample {i}: {message}"] * 2

    def test_samples_are_not_converted_one_by_one(self, tmp_path, monkeypatch):
        records = generate(
            ScenarioConfig(session_duration_s=60.0, rng_seed=5), default_templates(), 20
        )
        path = tmp_path / "c.jsonl"
        save_corpus(records, str(path))
        calls = []
        num = tracemodel._num
        monkeypatch.setattr(tracemodel, "_num", lambda *args: calls.append(args) or num(*args))
        loaded = load_corpus(str(path))
        assert len(loaded) == len(records) >= 20
        # period_s and the three labels: never one call per sample
        assert len(calls) <= 4 * len(loaded)

    def test_integer_too_long_to_decode_is_parse_error(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus([make_record("a")], str(path))
        path.write_text(path.read_text().replace("41.0", "4" * 5000, 1))
        with pytest.raises(ParseError, match=r"c\.jsonl:1: invalid JSON \(Exceeds the limit"):
            load_corpus(str(path))


@pytest.fixture(scope="class")
def python_parser():
    """Parse every JSONL line with json, as where the C parser cannot be built."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(tracemodel, "_line_parser", lambda: None)
        yield


# The JSONL loader tests again, with the C parser forced off.
@pytest.mark.usefixtures("python_parser")
class TestJsonlPythonParser(TestJsonl):
    pass


@pytest.mark.usefixtures("python_parser")
class TestSamplesPythonParser(TestSamples):
    # these check _samples alone, or load both ways themselves
    test_valid_samples_match_per_sample_conversion = None
    test_bad_sample_is_named_by_index = None
    test_bad_sample_in_a_corpus_is_named_by_index = None


def _bits(records) -> list:
    """Every field of every record, floats as their bytes, so -0.0 differs
    from 0.0 and equal values are equal bit for bit."""
    def f(v):
        return None if v is None else np.float64(v).tobytes()

    return [(r.session_id, r.app_label, f(r.period_s),
             [f(getattr(r, k)) for k in tracemodel._LEVELS],
             [(k.name, t.samples.tobytes()) for k, t in r.traces.items()]) for r in records]


def _load_both_ways(path: str):
    """load_corpus with the C parser and with json alone: the records'
    bits, or the ParseError's message."""
    out = []
    for parser in (tracemodel._line_parser, lambda: None):
        with mock.patch.object(tracemodel, "_line_parser", parser):
            try:
                out.append(_bits(load_corpus(path)))
            except ParseError as exc:
                out.append(str(exc))
    return out


def _on_exact_path(token: str) -> bool:
    """Whether the C parser converts a JSON number: an exponent of at most
    4 digits, and mantissa m (trailing zeros kept) times 10**e with m == 0,
    or m <= 2**53 and |e| <= 22."""
    exp = re.fullmatch(r"-?[0-9.]+(?:[eE][+-]?([0-9]+))?", token).group(1)
    if exp is not None and len(exp) > 4:
        return False
    sign, digits, e = decimal.Decimal(token).as_tuple()
    m = int("".join(map(str, digits)))
    return m == 0 or (m <= 2**53 and abs(e) <= 22)


def _fraction_token(m: int, frac: int, exp: "int | None", neg: bool) -> str:
    """m * 10**(exp - frac) written with ``frac`` fraction digits."""
    digits = str(m).rjust(frac + 1, "0")
    text = digits[: len(digits) - frac] + ("." + digits[-frac:] if frac else "")
    if exp is not None:
        text += f"e{exp:+d}" if exp % 2 else f"E{exp}"
    return ("-" if neg else "") + text


number_tokens = st.one_of(
    st.integers(-(2**53), 2**53).map(str),
    st.integers(-(10**17), 10**17).map(str),
    st.builds(_fraction_token, st.integers(0, 10**16), st.integers(0, 6),
              st.none() | st.integers(-25, 25), st.booleans()),
    st.sampled_from(["-0", "-0.0", "-0e0", "0.000", "1e22", "1e23", "1e-22", "1e-23",
                     "9007199254740992", "9007199254740993", "1e400", "0e99999"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e12, 1e12).map(lambda f: "%.9g" % f),
)
# tokens json rejects or that are not numbers
not_numbers = st.sampled_from(["true", "NaN", "-Infinity", "01", "1.", ".5", "+1", "null",
                               '"1"', "[]"])
safe_text = st.text(string.ascii_letters + string.digits + " -_.:/~", min_size=1, max_size=8)
whitespace = st.sampled_from(["", " ", "  ", "\t", " \r "])


@st.composite
def jsonl_lines(draw) -> tuple[bytes, bool]:
    """One record line in any key order and layout, and whether the C
    parser accepts it.  Lines drawn ``clean`` hold no escape, no non-number
    sample, no repeated key and no trailing data."""
    clean = draw(st.booleans())
    ok = []

    def number(nullable: bool = False) -> str:
        if not clean and draw(st.integers(0, 9)) == 0:
            token = draw(not_numbers)
            ok.append(nullable and token == "null")  # an optional level may be null
            return token
        token = draw(number_tokens)
        ok.append(_on_exact_path(token))
        return token

    def string() -> str:
        text = draw(safe_text if clean else st.text(min_size=1, max_size=8))
        token = json.dumps(text, ensure_ascii=draw(st.booleans()))
        ok.append(token[1:-1] == text and text.isascii())
        return token

    def ws() -> str:
        return draw(whitespace)

    names = draw(st.lists(st.sampled_from(sorted(STANDARD_METRICS)), min_size=1, max_size=3,
                          unique=True))
    traces = ",".join(
        f'{ws()}"{n}"{ws()}:{ws()}['
        + ",".join(f"{ws()}{number()}{ws()}" for _ in range(draw(st.integers(2, 6)))) + "]"
        for n in names
    )
    values = {
        "session_id": string(),
        "app_label": "null" if draw(st.booleans()) else string(),
        "period_s": draw(st.sampled_from(["1.0", "0.5", "2"])),
        "workload_level": "null" if draw(st.booleans()) else number(nullable=True),
        "performance": "null" if draw(st.booleans()) else number(nullable=True),
        "interference_level": draw(st.sampled_from(["null", "0", "-0", "0.25", "1"])),
        "traces": "{" + traces + ws() + "}",
    }
    keys = draw(st.permutations(sorted(values)))
    if not clean and draw(st.booleans()):  # a key twice: a ParseError either way
        keys.append(draw(st.sampled_from(keys)))
        ok.append(False)
    tail = "" if clean else draw(st.sampled_from(["", " x", "{}", ","]))
    ok.append(not tail)
    body = ",".join(f"{ws()}{json.dumps(k)}{ws()}:{ws()}{values[k]}{ws()}" for k in keys)
    return ("{" + body + "}" + tail).encode(), all(ok)


class TestNativeParser:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(jsonl_lines())
    def test_both_parsers_give_the_same_records_bit_for_bit(self, case):
        line, accepted = case
        assert (tracemodel._line_parser()(line) is not None) == accepted
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.jsonl")
            with open(path, "wb") as fh:
                fh.write(line + b"\n")
            native, python = _load_both_ways(path)
        assert native == python

    def test_every_line_of_a_simgen_corpus_is_parsed_natively(self, tmp_path, monkeypatch):
        cfg = ScenarioConfig(session_duration_s=60.0, rng_seed=5)
        records = generate(cfg, default_templates(), 30) + generate_isolated(
            cfg, default_templates(), 2
        )
        path = str(tmp_path / "c.jsonl")
        save_corpus(records, path)
        native, python = _load_both_ways(path)
        assert native == python
        declined = []
        parse_json = tracemodel.parse_json
        monkeypatch.setattr(tracemodel, "parse_json",
                            lambda *args: declined.append(args) or parse_json(*args))
        assert load_corpus(path) == sorted(records, key=lambda r: r.session_id)
        assert declined == []

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.from_regex(r"-?(0|[1-9][0-9]{0,24})(\.0{0,20}[0-9]{1,24})?([eE]-?[0-9])?",
                                  fullmatch=True), min_size=2, max_size=6))
    def test_digit_runs_of_any_length_parse_alike(self, tokens):
        # jsonl.c reads up to 8 digits at once, and byte by byte within 8
        # bytes of the line's end, where the last samples sit
        head = _line(traces=None)[: -len("null}")]
        line = f'{head}{{"cpu_util_pct": [{", ".join(tokens)}]}}}}'.encode()
        accepted = tracemodel._line_parser()(line) is not None
        assert accepted == all(_on_exact_path(t) for t in tokens)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.jsonl")
            with open(path, "wb") as fh:
                fh.write(line + b"\n")
            native, python = _load_both_ways(path)
        assert native == python

    @staticmethod
    def _messy_corpus(path, tail: bytes = b"") -> list[bytes]:
        r"""Three records saved to ``path``, then rewritten with CRLF endings,
        blank and whitespace-only lines, one record line ending in \x0c and
        one starting with \x0b, and ``tail`` as the last line.  bytes.strip
        removes \x0b and \x0c, but JSON does not count them as whitespace,
        so the C parser declines those two lines and json takes them."""
        save_corpus([make_record(s) for s in ("a", "b", "c")], str(path))
        a, b, c = path.read_bytes().splitlines()
        lines = [a, b"", b" \t ", b + b"\x0c", b"\r", b"\x0b" + c, b"", tail]
        path.write_bytes(b"\r\n".join(lines) + b"\r\n")
        return lines

    def test_line_endings_and_blank_lines_load_alike_on_both_parsers(self, tmp_path):
        clean = tmp_path / "clean.jsonl"
        save_corpus([make_record(s) for s in ("a", "b", "c")], str(clean))
        path = tmp_path / "c.jsonl"
        lines = self._messy_corpus(path)
        parse = tracemodel._line_parser()
        assert parse(lines[0] + b"\r\n") is not None
        assert parse(lines[3] + b"\r\n") is None and parse(lines[5] + b"\r\n") is None
        native, python = _load_both_ways(str(path))
        assert native == python == _load_both_ways(str(clean))[0]

    @pytest.mark.parametrize("end", [b"", b"\x0c"], ids=["c-parser", "json"])
    def test_bad_line_after_them_is_named_alike_on_both_parsers(self, tmp_path, end):
        path = tmp_path / "c.jsonl"
        self._messy_corpus(path, _line(session_id="d", period_s=0).encode() + end)
        assert _load_both_ways(str(path)) == ["c.jsonl:8: period_s must be positive, got 0.0"] * 2


GOOD_OBJ = {"session_id": "s", "app_label": None, "period_s": 1.0, "workload_level": None,
            "performance": None, "interference_level": None,
            "traces": {"cpu_util_pct": [1.0, 2.0]}}


def _line(**fields) -> str:
    return json.dumps({**GOOD_OBJ, **fields})


class TestRecordRefusals:
    """Each refusal of a record, read by the C parser and by json alone: the
    same ParseError naming the file and the first bad line."""

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[1, 2]", "expected an object"),
            (json.dumps({**GOOD_OBJ, "extra": 1}), "unknown keys ['extra']"),
            (_line(app_label=5), "app_label must be a string or null"),
            (_line(session_id=""), "session_id must be a non-empty string"),
            (_line(traces={}), "traces must be a non-empty object"),
            (_line(traces={"cpu_util_pct": [1.0]}), "trace 'cpu_util_pct' needs >= 2 samples"),
            (_line(period_s=0), "period_s must be positive, got 0.0"),
            (_line(period_s=-1), "period_s must be positive, got -1.0"),
            (_line(interference_level=1.5), "interference_level must lie in [0, 1]"),
            (_line()[:-2] + ', "cpu_util_pct": [3.0, 4.0]}}', "repeated key 'cpu_util_pct'"),
            (_line()[:-1] + ', "period_s": 2.0}', "repeated key 'period_s'"),
        ],
        ids=["not-object", "unknown-key", "app-label-number", "empty-session-id",
             "empty-traces", "one-sample", "period-zero", "period-negative",
             "interference-above-one", "repeated-trace", "repeated-key"],
    )
    def test_bad_record_is_a_parse_error_on_both_parsers(self, tmp_path, line, message):
        path = tmp_path / "c.jsonl"
        # the second bad line is never reached: the first one fails the load
        path.write_text("\n".join([_line(session_id="ok"), line, line]) + "\n")
        assert _load_both_ways(str(path)) == [f"c.jsonl:2: {message}"] * 2

    def test_each_line_is_parsed_once_and_checked_once(self, tmp_path, monkeypatch):
        calls = {"c": 0, "json": 0, "record": 0}

        def counting(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)

            return wrapper

        native = tracemodel._line_parser()
        monkeypatch.setattr(tracemodel, "_line_parser", lambda: counting("c", native))
        monkeypatch.setattr(tracemodel, "parse_json", counting("json", tracemodel.parse_json))
        monkeypatch.setattr(tracemodel, "_record_from_obj",
                            counting("record", tracemodel._record_from_obj))
        path = tmp_path / "c.jsonl"
        # the second line has an escape, which the C parser declines
        path.write_text(_line(session_id="a") + "\n" + _line(session_id="b\u00e9") + "\n")
        assert len(load_corpus(str(path))) == 2
        assert calls == {"c": 2, "json": 1, "record": 2}
        # a line the C parser accepts but whose record is refused
        calls.update(c=0, json=0, record=0)
        path.write_text(_line(session_id="a") + "\n" + _line(session_id="z", period_s=0) + "\n")
        with pytest.raises(ParseError, match=r"^c\.jsonl:2: period_s must be positive"):
            load_corpus(str(path))
        assert calls == {"c": 2, "json": 0, "record": 2}


def _midpoints(mantissa: int, exponent: int) -> list[float]:
    """The double nearest a 9-digit tie (a 10-digit decimal ending in 5),
    and its neighbours one ulp below and above."""
    mid = float(f"{mantissa}5e{exponent}")
    return [np.nextafter(mid, -np.inf), mid, np.nextafter(mid, np.inf)]


QUANTIZE_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-15, 1e-14, 1e22,
                  1e23, 1.7e308, -1.7e308, 999999999.5, 99999999.95, 9.999999995e5,
                  *_midpoints(123456789, -3), *_midpoints(999999999, 0),
                  *_midpoints(100000000, -20), *_midpoints(314159265, 14)]

midpoint_values = st.builds(
    _midpoints, st.integers(10**8, 10**9 - 1), st.integers(-333, 298)
).flatmap(st.sampled_from)
quantize_inputs = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(QUANTIZE_EDGES),
    midpoint_values,
    midpoint_values.map(lambda v: -v),
)


class TestQuantizeArray:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(quantize_inputs, min_size=1, max_size=50))
    def test_matches_scalar_quantize_bit_for_bit(self, values):
        expected = np.array([quantize(v) for v in values])
        assert np.array_equal(quantize_array(values).view(np.int64), expected.view(np.int64))

    def test_edge_cases(self):
        values = np.array(QUANTIZE_EDGES)
        expected = np.array([quantize(v) for v in values])
        assert np.array_equal(quantize_array(values).view(np.int64), expected.view(np.int64))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(quantize_inputs, min_size=2, max_size=20), st.data())
    def test_trace_equality_agrees_with_per_sample_fmt(self, values, data):
        # each sample of the second trace is the same, one ulp off (but
        # finite), the other zero, or anything else
        def partner(v):
            with np.errstate(over="ignore"):  # the largest double steps to inf
                up, down = (float(np.nextafter(v, d)) for d in (np.inf, -np.inf))
            return data.draw(st.one_of(
                st.just(v),
                st.just(up if np.isfinite(up) else v),
                st.just(down if np.isfinite(down) else v),
                st.just(-v if v == 0.0 else v),
                quantize_inputs,
            ))

        other = [partner(v) for v in values]
        a, b = MetricTrace(CPU_UTIL, values), MetricTrace(CPU_UTIL, other)
        assert (a == b) == all(fmt(x) == fmt(y) for x, y in zip(values, other))

    def test_signed_zeros_differ(self):
        assert MetricTrace(CPU_UTIL, [0.0, 1.0]) != MetricTrace(CPU_UTIL, [-0.0, 1.0])

    def test_saved_corpus_bytes_are_pinned(self, tmp_path):
        cfg = ScenarioConfig(session_duration_s=120.0, rng_seed=17)
        records = generate(cfg, default_templates(), 40) + generate_isolated(
            cfg, default_templates(), 4
        )
        path = tmp_path / "c.jsonl"
        save_corpus(records, str(path))
        data = path.read_bytes()
        assert len(data) == 617_496
        assert hashlib.sha256(data).hexdigest() == (
            "a0d61aca7b8c0d1a6ced0344da9ea279b13db4c24ca695e7350494286a226841"
        )


# Samples whose JSON layout the writer must get right: subnormals, signed
# zeros, integral values, and the edges of repr's fixed notation (1e-4 and
# 1e16) and of "%.9g"'s (1e9).
WRITER_EDGES = [5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 0.0, -0.0, 1.0, -7.0,
                1e-4, 9.99999999e-5, 1.00000001e-4, 1e-5, 99999.9999, 1e9, 999999999.0,
                1.00000001e9, 1.5e9, 123456789.5, 9.99999999e15, 1e16, -1e16, 1.23456789e16,
                1e17, 1.797e308, 1.7976931348623157e308]
writer_samples = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(WRITER_EDGES),
    st.integers(-(10**12), 10**12).map(float),
)
writer_text = st.one_of(
    st.text(), st.sampled_from(['say "hi"', "back\\slash", "naïve 漢字 \u2028", "tab\tnl\n"])
)
optional_floats = st.none() | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def writer_records(draw, session_id):
    names = draw(st.lists(st.sampled_from(sorted(STANDARD_METRICS)), min_size=1, max_size=4,
                          unique=True))
    period = draw(st.floats(1e-3, 1e6))
    traces = {
        STANDARD_METRICS[n]: MetricTrace(
            STANDARD_METRICS[n], draw(st.lists(writer_samples, min_size=2, max_size=30)), period
        )
        for n in names
    }
    return SessionRecord(
        session_id=session_id,
        traces=traces,
        app_label=draw(st.none() | writer_text),
        workload_level=draw(optional_floats),
        performance=draw(optional_floats),
        interference_level=draw(st.none() | st.floats(0.0, 1.0)),
    )


class TestJsonlWriter:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(writer_text.filter(bool), min_size=1, max_size=4, unique=True).flatmap(
            lambda ids: st.tuples(*map(writer_records, ids))
        )
    )
    def test_lines_equal_json_dumps_oracle(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.jsonl")
            save_corpus(records, path)
            with open(path, "rb") as fh:
                lines = fh.read().decode("utf-8").split("\n")
            loaded = load_corpus(path)
            native, python = _load_both_ways(path)
        ordered = sorted(records, key=lambda r: r.session_id)
        assert lines == [jsonl_line(r) for r in ordered] + [""]
        assert loaded == ordered
        assert native == python

    @pytest.mark.parametrize(
        "field, value",
        [("performance", math.inf), ("workload_level", math.nan), ("period", math.inf)],
    )
    def test_non_finite_number_is_io_error_and_keeps_file(self, tmp_path, field, value):
        path = tmp_path / "c.jsonl"
        save_corpus([make_record("a")], str(path))
        before = path.read_bytes()
        if field == "period":
            bad = make_record("b", period=value)
        else:
            bad = SessionRecord(**{**vars(make_record("b")), field: value})
        with pytest.raises(IoError, match="session b: cannot write a non-finite number"):
            save_corpus([make_record("a"), bad], str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.jsonl"]

    def test_peak_memory_is_one_record_not_the_corpus(self, tmp_path):
        # 200 sessions x 7 metrics x 300 samples.  Rounding the whole corpus
        # in one quantize_array call holds several 420,000-sample temporaries
        # (tens of MB); one record at a time needs about 0.2 MB.
        records = generate(
            ScenarioConfig(session_duration_s=300.0, rng_seed=3), default_templates(), 200
        )
        tracemalloc.start()
        try:
            save_corpus(records, str(tmp_path / "c.jsonl"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestCsv:
    def test_csv_300_rows_period_1s(self, tmp_path):
        record = make_record("long", n=300, period=1.0)
        out = tmp_path / "corpus"
        save_corpus([record], str(out), format="csv")
        loaded = load_corpus(str(out), format="csv")
        assert len(loaded) == 1
        trace = loaded[0].trace("cpu_util_pct")
        assert len(trace) == 300 and trace.period_s == 1.0

    def test_csv_round_trip_byte_identical(self, tmp_path):
        records = [make_record("a", n=50), make_record("b", n=64)]
        first = tmp_path / "one"
        second = tmp_path / "two"
        save_corpus(records, str(first), format="csv")
        save_corpus(load_corpus(str(first), format="csv"), str(second), format="csv")
        for name in ("a.csv", "a.meta.json", "b.csv", "b.meta.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_csv_bad_number_names_line(self, tmp_path):
        out = tmp_path / "corpus"
        save_corpus([make_record("a", n=5)], str(out), format="csv")
        csv = out / "a.csv"
        lines = csv.read_text().splitlines()
        parts = lines[3].split(",")
        parts[1] = "oops"
        lines[3] = ",".join(parts)
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="a.csv:4"):
            load_corpus(str(out), format="csv")

    def test_csv_unknown_metric_names_file_and_header(self, tmp_path):
        out = tmp_path / "corpus"
        save_corpus([make_record("a", n=5)], str(out), format="csv")
        csv = out / "a.csv"
        csv.write_text(csv.read_text().replace("cpu_util_pct", "mystery_counter"))
        with pytest.raises(ParseError, match=r"^a\.csv:1: unknown metric name 'mystery_counter'$"):
            load_corpus(str(out), format="csv")

    @pytest.mark.parametrize("field", ["performance", "period"])
    def test_non_finite_number_is_io_error_before_any_file(self, tmp_path, field):
        # "a" sorts first, so a writer that checked record by record would
        # already have written it
        if field == "period":
            bad = make_record("b", period=math.inf)
        else:
            bad = SessionRecord(**{**vars(make_record("b")), field: math.inf})
        out = tmp_path / "corpus"
        with pytest.raises(IoError, match="session b: cannot write a non-finite number"):
            save_corpus([make_record("a"), bad], str(out), format="csv")
        assert not out.exists()

    def test_unequal_lengths_are_io_error_before_any_file(self, tmp_path):
        record = make_record("b")  # 10 samples per trace
        traces = {**record.traces, NET_RX: MetricTrace(NET_RX, np.ones(7))}
        bad = SessionRecord(**{**vars(record), "traces": traces})
        out = tmp_path / "corpus"
        with pytest.raises(IoError, match="^session b: CSV format requires equal-length traces$"):
            save_corpus([make_record("a"), bad], str(out), format="csv")
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda lines: lines.__setitem__(3, re.sub(r",[^,]*", ",nan", lines[3], count=1)),
             r"^a\.csv:4: non-finite value 'nan'$"),
            (lambda lines: lines.__setitem__(3, "2.5" + lines[3][lines[3].index(","):]),
             r"^a\.csv: time column is not uniformly spaced$"),
            (lambda lines: lines.__setitem__(0, lines[0] + ",cpu_util_pct"),
             r"^a\.csv:1: repeated column 'cpu_util_pct'$"),
        ],
        ids=["non-finite", "uneven-time", "repeated-column"],
    )
    def test_csv_refusal_names_the_file(self, tmp_path, edit, message):
        out = tmp_path / "corpus"
        save_corpus([make_record("a", n=5)], str(out), format="csv")
        csv = out / "a.csv"
        lines = csv.read_text().splitlines()
        edit(lines)
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=message):
            load_corpus(str(out), format="csv")

    def test_csv_missing_sidecar(self, tmp_path):
        out = tmp_path / "corpus"
        save_corpus([make_record("a", n=5)], str(out), format="csv")
        (out / "a.meta.json").unlink()
        with pytest.raises(ParseError, match="sidecar"):
            load_corpus(str(out), format="csv")


class TestCorpusApi:
    def test_empty_save_rejected(self, tmp_path):
        with pytest.raises(EmptyCorpus):
            save_corpus([], str(tmp_path / "c.jsonl"))

    def test_empty_load_rejected(self, tmp_path):
        empty = tmp_path / "c.jsonl"
        empty.write_text("")
        with pytest.raises(EmptyCorpus):
            load_corpus(str(empty))

    def test_order_is_lexicographic(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus([make_record(s) for s in ("sb", "sa", "sc")], str(path))
        assert [r.session_id for r in load_corpus(str(path))] == ["sa", "sb", "sc"]

    def test_generated_corpus_round_trip(self, tmp_path):
        records = generate(
            ScenarioConfig(session_duration_s=60.0, rng_seed=5), default_templates(), 100
        )
        path = tmp_path / "c.jsonl"
        save_corpus(records, str(path))
        loaded = load_corpus(str(path))
        assert loaded == records

    def test_directory_of_jsonl_files_loads_every_file(self, tmp_path):
        save_corpus([make_record("sb"), make_record("sd")], str(tmp_path / "one.jsonl"))
        save_corpus([make_record("sa"), make_record("sc")], str(tmp_path / "two.jsonl"))
        (tmp_path / "notes.txt").write_text("not a corpus\n")
        loaded = load_corpus(str(tmp_path))
        assert loaded == [make_record(s) for s in ("sa", "sb", "sc", "sd")]

    def test_count_preserved_never_dropped(self, tmp_path):
        records = [make_record(f"s{i}") for i in range(7)]
        path = tmp_path / "c.jsonl"
        save_corpus(records, str(path))
        assert len(load_corpus(str(path))) == 7


@pytest.mark.usefixtures("python_parser")
class TestCorpusApiPythonParser(TestCorpusApi):
    pass
