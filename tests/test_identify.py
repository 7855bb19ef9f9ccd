import ast
import importlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vmsight
from oracles import brute_force_dtw_cost, brute_force_min_warped_sq, traceback_dtw
from vmsight.errors import (
    InsufficientReferences,
    NoReferenceForMetric,
    NoUsableMetrics,
    ParseError,
    PeriodMismatch,
    TooShort,
)
from vmsight.identify import (
    UNKNOWN,
    FingerprintDb,
    FingerprintEntry,
    _dtw,
    _pad,
    build_fingerprint_db,
    identify,
    identify_single,
    load_fingerprint_db,
    save_fingerprint_db,
)
from vmsight.tracemodel import (
    CPU_UTIL,
    LLC_MISSES,
    NET_TX,
    MetricTrace,
    SessionRecord,
    quantize_array,
)


def trace(values, kind=CPU_UTIL, period=1.0):
    return MetricTrace(kind, np.asarray(values, dtype=float), period_s=period)


def toy_db(entries, threshold=800.0, metrics=(CPU_UTIL,), **kw):
    return FingerprintDb(
        entries=tuple(FingerprintEntry(label, t.metric, t) for label, t in entries),
        metrics_used=frozenset(metrics),
        distance_threshold=threshold,
        **kw,
    )


short_traces = st.lists(
    st.integers(min_value=0, max_value=4).map(float), min_size=2, max_size=6
)


def dtw(p, *refs):
    """The kernel's (costs, distances) for query p against refs."""
    return _dtw(np.asarray(p, dtype=float), *_pad([np.asarray(r, dtype=float) for r in refs]))


def cost(p, q):
    return float(dtw(p, q)[0][0])


def distance(p, q):
    return float(dtw(p, q)[1][0])


class TestDtwAlign:
    def test_identity_alignment_is_diagonal(self):
        p = [5.0, 6.0, 7.0, 8.0]
        assert cost(p, p) == 0.0 and distance(p, p) == 0.0

    def test_extra_zero_absorbed_at_no_cost(self):
        assert cost([0, 0, 1, 0], [0, 1, 0]) == 0.0

    def test_constant_mismatch_costs_one_per_cell(self):
        # every cell costs 1; the shortest monotone path covers 3 cells
        assert cost([1, 1, 1], [2, 2]) == pytest.approx(3.0)

    def test_matches_brute_force_on_random_short_traces(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            p = rng.integers(0, 5, int(rng.integers(2, 7))).astype(float)
            q = rng.integers(0, 5, int(rng.integers(2, 7))).astype(float)
            assert cost(p, q) == pytest.approx(brute_force_dtw_cost(p, q), abs=1e-12)

    @settings(max_examples=120, deadline=None)
    @given(short_traces, short_traces)
    def test_cost_symmetric(self, p, q):
        assert cost(p, q) == pytest.approx(cost(q, p), abs=1e-12)

    @settings(max_examples=120, deadline=None)
    @given(short_traces)
    def test_stretch_equivalence_zero_cost(self, values):
        # repeating samples never adds cost: cost == 0 iff traces are equal
        # after collapsing consecutive duplicates
        rng = np.random.default_rng(len(values))
        stretched = [v for v in values for _ in range(int(rng.integers(1, 4)))]
        assert cost(values, stretched) == pytest.approx(0.0)

    @settings(max_examples=120, deadline=None)
    @given(short_traces, short_traces)
    def test_zero_cost_iff_dedup_equal(self, p, q):
        def dedup(xs):
            out = [xs[0]]
            for v in xs[1:]:
                if v != out[-1]:
                    out.append(v)
            return out

        assert (cost(p, q) == 0.0) == (dedup(p) == dedup(q))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=12))
    def test_warping_never_hurts_equal_length(self, values):
        # the diagonal is an admissible path, so the optimum cannot exceed
        # the accumulated unwarped per-cell distance
        rng = np.random.default_rng(len(values))
        other = [v + float(rng.normal(0, 5)) for v in values]
        diagonal = sum(abs(a - b) for a, b in zip(values, other))
        assert cost(values, other) <= diagonal + 1e-9


class TestWarpedDistance:
    def test_identical_warped_zero(self):
        assert distance([1, 2, 3], [1, 2, 3]) == 0.0

    def test_enumerated_optimal_warp(self):
        assert distance([1, 1, 1], [2, 2]) == pytest.approx(math.sqrt(3))

    def test_distance_on_min_cost_path_matches_oracle(self):
        # the kernel picks one optimal path deterministically; its squared
        # distance must match some enumerated min-cost path
        rng = np.random.default_rng(3)
        for _ in range(60):
            p = rng.integers(0, 4, int(rng.integers(2, 6))).astype(float)
            q = rng.integers(0, 4, int(rng.integers(2, 6))).astype(float)
            got = distance(p, q) ** 2
            candidates = brute_force_min_warped_sq(list(p), list(q))
            assert got >= candidates - 1e-9

    def test_batch_matches_traceback_oracle(self):
        # small integer alphabets make many cells tie between predecessors,
        # and references of different lengths share one padded call
        rng = np.random.default_rng(11)
        for _ in range(150):
            p = rng.integers(0, 3, int(rng.integers(2, 10))).astype(float)
            refs = [
                rng.integers(0, 3, int(rng.integers(2, 14))).astype(float)
                for _ in range(int(rng.integers(1, 6)))
            ]
            costs, dists = dtw(p, *refs)
            for q, got_cost, got_dist in zip(refs, costs, dists):
                want_cost, want_dist = traceback_dtw(list(p), list(q))
                assert got_cost == want_cost
                assert got_dist == pytest.approx(want_dist, rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_reference_row_does_not_depend_on_its_batch(self, data):
        # a reference shorter than the query ends on an earlier diagonal, and
        # the padded cells of one row never feed a real cell of another
        values = st.integers(0, 3).map(float) | st.floats(-50, 50)
        query = data.draw(st.lists(values, min_size=3, max_size=10), label="query")
        m = len(query)
        short = data.draw(st.lists(values, min_size=2, max_size=m - 1), label="short")
        long = data.draw(st.lists(values, min_size=m + 1, max_size=2 * m), label="long")
        extra = data.draw(st.lists(st.lists(values, min_size=2, max_size=2 * m), max_size=3),
                          label="extra")
        refs = data.draw(st.permutations([short, long, *extra]), label="refs")
        batch = dtw(query, *refs)
        for r, ref in enumerate(refs):
            for got, alone in zip(batch, dtw(query, ref)):
                assert got[r : r + 1].view(np.int64) == alone.view(np.int64)


def nearest(query, db, **kw):
    """(label, distance) of a one-metric session's only per-metric result."""
    return identify({query.metric: query}, db, **kw).per_metric[query.metric]


class TestIdentifySingle:
    def test_row_is_every_same_metric_distance_in_db_order(self):
        rng = np.random.default_rng(5)
        entries = [
            (label, trace(rng.uniform(0, 100, n), kind=kind))
            for label, n in (("c", 7), ("a", 9), ("b", 5))
            for kind in (CPU_UTIL, LLC_MISSES)
        ]
        db = toy_db(entries, metrics=(CPU_UTIL, LLC_MISSES))
        query = rng.uniform(0, 100, 8)
        refs = [t.samples for _, t in entries if t.metric == CPU_UTIL]
        row = identify_single(trace(query), db)
        assert np.array_equal(row, _dtw(query, *_pad(refs))[1])

    def test_byte_identical_trace_wins_with_zero_distance(self):
        ref = trace([10, 50, 10, 50])
        db = toy_db([("a", ref), ("b", trace([90, 90, 90, 90]))])
        label, dist = nearest(trace([10, 50, 10, 50]), db)
        assert label == "a" and dist == 0.0

    def test_rejection_above_threshold(self):
        db = toy_db([("a", trace([0, 0, 0, 0]))], threshold=5.0)
        label, dist = nearest(trace([100, 100, 100, 100]), db)
        assert label == UNKNOWN and dist > 5.0

    def test_period_mismatch(self):
        db = toy_db([("a", trace([1, 2, 3]))])
        with pytest.raises(PeriodMismatch):
            identify_single(trace([1, 2, 3], period=2.0), db)

    def test_references_built_once_and_read_only(self, monkeypatch):
        module = importlib.import_module("vmsight.identify")  # the package's identify is a function
        seen = []
        kernel = module._dtw

        def spy(query, *block):
            seen.append(block)
            return kernel(query, *block)

        monkeypatch.setattr(module, "_dtw", spy)
        db = toy_db([("a", trace([1, 2, 3])), ("b", trace([3, 2, 1, 0]))])
        for _ in range(2):
            identify({CPU_UTIL: trace([1, 2, 2])}, db)
        (first_refs, first_lengths), (refs, lengths) = seen
        assert refs is first_refs and lengths is first_lengths
        with pytest.raises(ValueError):
            refs[0, 0] = 9.0
        with pytest.raises(TypeError):
            lengths[0] = 9

    def test_no_reference_for_metric(self):
        db = toy_db([("a", trace([1, 2, 3]))])
        with pytest.raises(NoReferenceForMetric):
            identify_single(trace([1, 2, 3], kind=LLC_MISSES), db)

    def test_argmin_against_independent_oracle(self):
        rng = np.random.default_rng(7)
        refs = {label: rng.uniform(0, 100, 8) for label in ("a", "b", "c")}
        db = toy_db([(label, trace(v)) for label, v in refs.items()], threshold=1e9)
        for _ in range(20):
            query = rng.uniform(0, 100, 6)
            best = min(
                refs,
                key=lambda label: math.sqrt(
                    brute_force_min_warped_sq(list(query), list(refs[label]))
                ),
            )
            label, _ = nearest(trace(query), db)
            assert label == best

    @pytest.mark.parametrize("align", ["dtw", "truncate"])
    def test_tie_goes_to_first_reference_in_db_order(self, align):
        db = toy_db([("b", trace([1, 2, 3])), ("a", trace([1, 2, 3])), ("c", trace([3, 2, 1]))])
        assert nearest(trace([1, 2, 3]), db, align=align) == ("b", 0.0)

    def test_per_metric_threshold_override(self):
        db = toy_db(
            [("a", trace([0, 0, 0], kind=LLC_MISSES))],
            metrics=(LLC_MISSES,),
            metric_thresholds={"llc_misses": 2.0},
        )
        label, _ = nearest(trace([3, 3, 3], kind=LLC_MISSES), db)
        assert label == UNKNOWN

    def test_znorm_matching_ignores_amplitude(self):
        shape = [10.0, 50.0, 10.0, 50.0, 10.0]
        db = toy_db([("a", trace(shape)), ("b", trace([30.0, 31.0, 30.0, 29.0, 30.0]))])
        scaled = trace([v * 10.0 for v in shape])
        raw_label, raw_dist = nearest(scaled, db)
        z_label, z_dist = nearest(scaled, db, znorm=True)
        assert z_label == "a" and z_dist == pytest.approx(0.0, abs=1e-9)
        assert raw_dist > z_dist


class TestIdentifyVoting:
    def _multi_db(self):
        return FingerprintDb(
            entries=(
                FingerprintEntry("ds", CPU_UTIL, trace([10, 90, 10, 90])),
                FingerprintEntry("ds", LLC_MISSES, trace([20, 20, 20], kind=LLC_MISSES)),
                FingerprintEntry("ds", NET_TX, trace([5, 5, 5], kind=NET_TX)),
                FingerprintEntry("ws", CPU_UTIL, trace([50, 55, 50, 55])),
                FingerprintEntry("ws", LLC_MISSES, trace([8, 8, 8], kind=LLC_MISSES)),
                FingerprintEntry("ws", NET_TX, trace([15, 15, 15], kind=NET_TX)),
            ),
            metrics_used=frozenset({CPU_UTIL, LLC_MISSES, NET_TX}),
            distance_threshold=1000.0,
        )

    def test_unanimous_vote(self):
        db = self._multi_db()
        traces = {
            CPU_UTIL: trace([10, 90, 10, 90]),
            LLC_MISSES: trace([21, 20, 20], kind=LLC_MISSES),
            NET_TX: trace([5, 6, 5], kind=NET_TX),
        }
        result = identify(traces, db)
        assert result.label == "ds"
        assert result.votes == {"ds": 3}

    def test_tie_breaks_by_smallest_distance(self):
        db = self._multi_db()
        traces = {
            CPU_UTIL: trace([10, 90, 10, 90]),  # ds wins this metric, distance 0
            LLC_MISSES: trace([8, 8, 8], kind=LLC_MISSES),  # ws wins, distance 0...
        }
        # make distances distinct: ds cpu exact (0) vs ws llc slightly off
        traces[LLC_MISSES] = trace([9, 8, 8], kind=LLC_MISSES)
        result = identify(traces, db)
        assert result.votes == {"ds": 1, "ws": 1}
        assert result.label == "ds"

    def test_exact_tie_is_unknown(self):
        db = self._multi_db()
        traces = {
            CPU_UTIL: trace([10, 90, 10, 90]),
            LLC_MISSES: trace([8, 8, 8], kind=LLC_MISSES),
        }
        result = identify(traces, db)
        assert result.votes == {"ds": 1, "ws": 1}
        assert result.label == UNKNOWN

    def test_all_rejected_is_unknown(self):
        db = FingerprintDb(
            entries=(FingerprintEntry("ds", CPU_UTIL, trace([0, 0, 0])),),
            metrics_used=frozenset({CPU_UTIL}),
            distance_threshold=1.0,
        )
        result = identify({CPU_UTIL: trace([500, 500, 500])}, db)
        assert result.label == UNKNOWN and result.votes == {}

    def test_no_usable_metrics(self):
        db = self._multi_db()
        with pytest.raises(NoUsableMetrics):
            identify({}, db)

    def test_min_trace_len_guard(self):
        db = self._multi_db()
        with pytest.raises(TooShort):
            identify({CPU_UTIL: trace([10, 90, 10])}, db, min_trace_len=60)

    def test_duplicate_reference_is_noop(self, templates, small_corpus):
        db = build_fingerprint_db(small_corpus, [CPU_UTIL], 1)
        dup = FingerprintDb(
            entries=db.entries + (db.entries[0],),
            metrics_used=db.metrics_used,
            distance_threshold=db.distance_threshold,
        )
        for record in small_corpus[50:70]:
            assert identify(record.traces, db).label == identify(record.traces, dup).label


class TestBuildDb:
    def _sessions(self, apps, per_app, metrics=(CPU_UTIL,)):
        rng = np.random.default_rng(1)
        out = []
        for app in apps:
            for i in range(per_app):
                traces = {
                    k: MetricTrace(k, rng.uniform(0, 100, 12)) for k in metrics
                }
                out.append(
                    SessionRecord(
                        session_id=f"{app}-{i:02d}", traces=traces, app_label=app
                    )
                )
        return out

    def test_one_ref_five_apps_one_metric(self):
        db = build_fingerprint_db(self._sessions("abcde", 3), [CPU_UTIL], 1)
        assert len(db.entries) == 5

    def test_four_refs_five_apps_reaches_twenty_entries(self):
        # the accuracy-plateau point: 4 traces per app over 5 apps
        db = build_fingerprint_db(self._sessions("abcde", 6), [CPU_UTIL], 4)
        assert len(db.entries) == 20

    def test_insufficient_references(self):
        with pytest.raises(InsufficientReferences):
            build_fingerprint_db(self._sessions("ab", 2), [CPU_UTIL], 3)

    def test_selection_is_first_k_by_session_id(self):
        sessions = self._sessions("a", 5)
        db = build_fingerprint_db(sessions, [CPU_UTIL], 2)
        assert db.source_session_ids == ("a-00", "a-01")

    def test_db_round_trip(self, tmp_path):
        sessions = self._sessions("abc", 4, metrics=(CPU_UTIL, LLC_MISSES))
        db = build_fingerprint_db(
            sessions, [CPU_UTIL, LLC_MISSES], 2, metric_thresholds={"llc_misses": 42.0}
        )
        save_fingerprint_db(db, str(tmp_path / "db"))
        loaded = load_fingerprint_db(str(tmp_path / "db"))
        assert loaded.metrics_used == db.metrics_used
        assert loaded.distance_threshold == db.distance_threshold
        assert loaded.metric_thresholds == db.metric_thresholds
        assert len(loaded.entries) == len(db.entries)
        for a, b in zip(loaded.entries, db.entries):
            assert a.app_label == b.app_label and a.trace == b.trace

    def test_round_trip_is_bit_exact_for_generated_traces(self, tmp_path, small_corpus):
        """Samples straight from the generator, never rounded to 9 digits,
        load back bit for bit."""
        db = build_fingerprint_db(small_corpus, [CPU_UTIL, LLC_MISSES], 4)
        save_fingerprint_db(db, str(tmp_path / "db"))
        loaded = load_fingerprint_db(str(tmp_path / "db"))
        assert loaded.source_session_ids == db.source_session_ids
        assert [(e.app_label, e.metric, e.trace.period_s) for e in loaded.entries] == [
            (e.app_label, e.metric, e.trace.period_s) for e in db.entries
        ]
        for a, b in zip(loaded.entries, db.entries):
            assert np.array_equal(a.trace.samples.view(np.int64), b.trace.samples.view(np.int64))
        assert any(
            not np.array_equal(quantize_array(e.trace.samples), e.trace.samples)
            for e in db.entries
        )

    def test_save_over_larger_db_removes_stale_entries(self, tmp_path):
        sessions = self._sessions("abcde", 4)
        path = tmp_path / "db"
        save_fingerprint_db(build_fingerprint_db(sessions, [CPU_UTIL], 4), str(path))
        (path / "notes.txt").write_text("kept")
        save_fingerprint_db(build_fingerprint_db(sessions, [CPU_UTIL], 1), str(path))
        assert sorted(os.listdir(path)) == ["db.json", "notes.txt"]
        assert len(load_fingerprint_db(str(path)).entries) == 5

    def test_reserved_label_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            toy_db([(UNKNOWN, trace([1, 2, 3]))])

    def test_entry_metric_must_be_its_traces(self):
        # else identify would match cpu traces against llc samples, and a save
        # would write them under cpu_util_pct
        entry = FingerprintEntry("a", CPU_UTIL, trace([1, 2, 3], kind=LLC_MISSES))
        with pytest.raises(ValueError, match=r"^entry \(a, cpu_util_pct\) holds a llc_misses trace$"):
            FingerprintDb(entries=(entry,), metrics_used=frozenset({CPU_UTIL}))

    def test_threshold_for_no_metric_rejected(self):
        sessions = self._sessions("ab", 1)
        with pytest.raises(ValueError, match="^metric_thresholds: cpu_util: names no metric$"):
            build_fingerprint_db(sessions, [CPU_UTIL], 1, metric_thresholds={"cpu_util": 1e-9})

    def test_mixed_periods_refused(self):
        with pytest.raises(PeriodMismatch, match="cpu_util_pct"):
            toy_db([("a", trace([1, 2, 3])), ("b", trace([1, 2, 3], period=2.0))])

    def test_mixed_periods_on_load_are_a_parse_error(self, tmp_path):
        sessions = self._sessions("ab", 1)
        save_fingerprint_db(build_fingerprint_db(sessions, [CPU_UTIL], 1), str(tmp_path))
        index = json.loads((tmp_path / "db.json").read_text())
        index["entries"][1]["period_s"] = 2.0
        (tmp_path / "db.json").write_text(json.dumps(index))
        with pytest.raises(ParseError, match="^db.json: references for cpu_util_pct mix periods"):
            load_fingerprint_db(str(tmp_path))


def test_only_identify_single_calls_dtw():
    """Every DTW in the package runs through identify_single, the one place
    a faster kernel has to be swapped in."""
    users = []
    for path in sorted(Path(vmsight.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            named = (
                (isinstance(node, ast.Name) and node.id == "_dtw")
                or (isinstance(node, ast.Attribute) and node.attr == "_dtw")
                or (isinstance(node, ast.alias) and node.name == "_dtw")
            )
            if not named:
                continue
            scope = parent.get(node)
            while scope is not None and not isinstance(scope, ast.FunctionDef):
                scope = parent.get(scope)
            users.append(f"{path.stem}.{scope.name if scope else '<module>'}")
    assert users == ["identify.identify_single"]
