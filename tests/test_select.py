import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import DRIVERS, two_pass_pearson
from vmsight.errors import ConstantSeries, InsufficientData, LengthMismatch
from vmsight.select import Purpose, pearson, rank_metrics, render_report, trace_summary
from vmsight.tracemodel import CPU_UTIL, LLC_MISSES, NET_RX, MetricTrace, SessionRecord


class TestPearson:
    def test_perfect_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == 1.0

    def test_perfect_inverse(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == -1.0

    def test_against_straight_sum_oracle(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-15)
        assert two_pass_pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_constant_series(self):
        with pytest.raises(ConstantSeries):
            pearson([1, 1, 1], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pearson([1, 2], [1, 2, 3])

    def test_random_pairs_match_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            k = int(rng.integers(2, 40))
            a = rng.normal(0, 10, k)
            b = rng.normal(0, 10, k) + 0.3 * a
            assert pearson(a, b) == pytest.approx(two_pass_pearson(list(a), list(b)), abs=1e-12)

    nice = st.lists(
        st.integers(min_value=-1000, max_value=1000).map(float), min_size=2, max_size=30
    )

    @settings(max_examples=150, deadline=None)
    @given(nice, nice)
    def test_symmetry_and_bounds(self, a, b):
        if len(a) != len(b):
            a, b = a[: min(len(a), len(b))], b[: min(len(a), len(b))]
        if len(a) < 2 or len(set(a)) == 1 or len(set(b)) == 1:
            return
        r1, r2 = pearson(a, b), pearson(b, a)
        assert r1 == pytest.approx(r2, abs=1e-12)
        assert -1.0 <= r1 <= 1.0

    @settings(max_examples=150, deadline=None)
    @given(nice)
    def test_affine_invariance(self, a):
        if len(set(a)) == 1:
            return
        rng = np.random.default_rng(len(a))
        b = [v + float(rng.normal(0, 50)) for v in a]
        if len(set(b)) == 1:
            return
        base = pearson(a, b)
        assert pearson([2.0 * v + 3.0 for v in a], b) == pytest.approx(base, abs=1e-9)
        assert pearson([-0.5 * v + 1.0 for v in a], b) == pytest.approx(-base, abs=1e-9)


def _records(values_by_metric, target_values, app="demo"):
    records = []
    for i, target in enumerate(target_values):
        traces = {
            kind: MetricTrace(kind, np.full(4, values[i]) + np.array([0.0, 0.1, -0.1, 0.0]))
            for kind, values in values_by_metric.items()
        }
        records.append(
            SessionRecord(
                session_id=f"s{i:02d}", traces=traces, app_label=app, performance=target
            )
        )
    return records


class TestRankMetrics:
    def test_identity_metric_ranks_first_with_rho_one(self):
        target = [10.0, 20.0, 30.0, 40.0]
        records = _records(
            {CPU_UTIL: target, NET_RX: [5.0, 5.0, 6.0, 5.0]}, target
        )
        report = rank_metrics(records, "demo", Purpose.PERFORMANCE, 0.3)
        assert report.selected[0] == CPU_UTIL
        assert report.rho[CPU_UTIL] == pytest.approx(1.0)

    def test_impossible_threshold_selects_nothing(self):
        target = [10.0, 20.0, 30.0]
        records = _records({CPU_UTIL: target}, target)
        report = rank_metrics(records, "demo", Purpose.PERFORMANCE, 1.1)
        assert report.selected == ()

    def test_constant_metric_reported_zero_not_selected(self):
        target = [10.0, 20.0, 30.0]
        records = _records({CPU_UTIL: target, LLC_MISSES: [7.0, 7.0, 7.0]}, target)
        # make llc traces exactly constant per session and across sessions
        for r in records:
            object.__setattr__(
                r, "traces", {**r.traces, LLC_MISSES: MetricTrace(LLC_MISSES, np.full(4, 7.0))}
            )
        report = rank_metrics(records, "demo", Purpose.PERFORMANCE, 0.3)
        assert report.rho[LLC_MISSES] == 0.0
        assert LLC_MISSES not in report.selected

    def test_insufficient_data(self):
        records = _records({CPU_UTIL: [1.0]}, [1.0])
        with pytest.raises(InsufficientData):
            rank_metrics(records, "demo", Purpose.PERFORMANCE, 0.3)

    def test_other_apps_ignored(self):
        target = [10.0, 20.0, 30.0]
        records = _records({CPU_UTIL: target}, target)
        noise = _records({CPU_UTIL: [1.0, 1.0, 99.0]}, [5.0, 50.0, 5.0], app="other")
        with_noise = rank_metrics(records + noise, "demo", Purpose.PERFORMANCE, 0.3)
        alone = rank_metrics(records, "demo", Purpose.PERFORMANCE, 0.3)
        assert with_noise.rho == alone.rho

    def test_deterministic(self, small_corpus):
        r1 = rank_metrics(small_corpus, "data_serving", Purpose.PERFORMANCE, 0.3)
        r2 = rank_metrics(small_corpus, "data_serving", Purpose.PERFORMANCE, 0.3)
        assert r1.rho == r2.rho and r1.selected == r2.selected

    def test_selected_ordered_by_abs_rho(self, small_corpus):
        report = rank_metrics(small_corpus, "web_serving", Purpose.PERFORMANCE, 0.3)
        magnitudes = [abs(report.rho[k]) for k in report.selected]
        assert magnitudes == sorted(magnitudes, reverse=True)
        assert all(m >= 0.3 for m in magnitudes)

    def test_generator_driver_metrics_selected(self, small_corpus, templates):
        # DRIVERS names the metrics that causally carry each target;
        # selection at the default threshold must find all of them
        for app, template in templates.items():
            report = rank_metrics(small_corpus, app, Purpose.PERFORMANCE, 0.3)
            assert DRIVERS[app]["performance"] <= set(report.selected)
            if template.variable_workload:
                wreport = rank_metrics(small_corpus, app, Purpose.WORKLOAD, 0.3)
                assert DRIVERS[app]["workload"] <= set(wreport.selected)

    def test_render_report_marks_selection(self):
        target = [10.0, 20.0, 30.0, 40.0]
        records = _records({CPU_UTIL: target}, target)
        text = render_report(rank_metrics(records, "demo", Purpose.PERFORMANCE, 0.3))
        assert "cpu_util_pct" in text and "*" in text


class TestTraceSummary:
    def test_reductions(self):
        t = MetricTrace(CPU_UTIL, np.array([0.0, 10.0, 20.0, 100.0]))
        assert trace_summary(t) == pytest.approx(32.5)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=300),
        # long enough for numpy's blocked pairwise summation to nest
        st.tuples(st.integers(2, 10_000), st.integers(0, 2**32 - 1)).map(
            lambda a: np.random.default_rng(a[1]).normal(50.0, 20.0, a[0])
        ),
    ))
    def test_mean_matches_np_mean_bit_for_bit(self, values):
        t = MetricTrace(CPU_UTIL, values)
        got = np.array([trace_summary(t), np.mean(t.samples)])
        assert got.view(np.int64)[0] == got.view(np.int64)[1]
