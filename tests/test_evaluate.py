import importlib

import pytest

from oracles import ablation_per_count
from vmsight.errors import ConfigInvalid, InsufficientData
from vmsight.evaluate import run_ablation_dtw, run_sampling_tradeoff, run_timing
from vmsight.neural import TrainConfig
from vmsight.simgen import ScenarioConfig, generate


@pytest.fixture(scope="module")
def id_corpus(templates):
    # 180 s sessions: the scale identification margins are calibrated for
    return generate(ScenarioConfig(session_duration_s=180.0, rng_seed=31), templates, 150)


class TestAblation:
    def test_single_count_dtw_strictly_higher(self, id_corpus):
        result = run_ablation_dtw(id_corpus, [1], min_test_sessions=100)
        assert len(result.series["accuracy_dtw"]) == 1
        assert result.series["accuracy_dtw"][0] > result.series["accuracy_truncate"][0]
        assert result.summary["dtw_always_higher"]

    def test_counts_sorted_and_deduplicated(self, id_corpus):
        result = run_ablation_dtw(id_corpus, [2, 1, 2], min_test_sessions=100)
        assert result.series["ref_count"] == [1, 2]

    def test_empty_counts_rejected(self, id_corpus):
        with pytest.raises(ConfigInvalid):
            run_ablation_dtw(id_corpus, [])

    def test_zero_min_test_sessions_rejected(self, id_corpus):
        with pytest.raises(ConfigInvalid):
            run_ablation_dtw(id_corpus, [1], min_test_sessions=0)

    def test_insufficient_heldout_rejected(self, id_corpus):
        with pytest.raises(InsufficientData):
            run_ablation_dtw(id_corpus[:40], [1], min_test_sessions=100)

    def test_reproducible(self, id_corpus):
        a = run_ablation_dtw(id_corpus, [1], min_test_sessions=100)
        b = run_ablation_dtw(id_corpus, [1], min_test_sessions=100)
        assert a.series == b.series

    def test_matches_per_count_identification(self, id_corpus):
        result = run_ablation_dtw(id_corpus, [1, 3], min_test_sessions=100)
        want = ablation_per_count(id_corpus, [1, 3])
        assert result.series["accuracy_dtw"] == want["dtw"]
        assert result.series["accuracy_truncate"] == want["truncate"]

    def test_each_held_out_session_aligned_once(self, id_corpus, monkeypatch):
        # one DTW row per held-out session against the largest set serves
        # every count, so no count aligns against its references again
        module = importlib.import_module("vmsight.identify")  # the package's identify is a function
        dtw = module._dtw
        columns = []

        def counting(query, refs, lengths):
            columns.append(len(refs))
            return dtw(query, refs, lengths)

        monkeypatch.setattr(module, "_dtw", counting)
        result = run_ablation_dtw(id_corpus, [1, 2], min_test_sessions=100)
        apps = {r.app_label for r in id_corpus if r.app_label is not None}
        assert sum(columns) == result.summary["held_out_sessions"] * 2 * len(apps)

    def test_dtw_curve_non_decreasing_within_noise(self, id_corpus):
        result = run_ablation_dtw(id_corpus, [1, 2, 3, 4], min_test_sessions=100)
        acc = result.series["accuracy_dtw"]
        for earlier, later in zip(acc, acc[1:]):
            assert later >= earlier - 0.02


class TestSamplingTradeoff:
    def test_single_point_yields_error_triple(self, templates):
        cfg = ScenarioConfig(rng_seed=3)
        result = run_sampling_tradeoff(
            cfg, templates, [10], train_cfg=TrainConfig(max_epochs=80)
        )
        assert len(result.series["test_mean_pct"]) == 1
        assert result.series["train_mean_pct"][0] >= 0.0
        assert result.series["val_mean_pct"][0] >= 0.0

    def test_duplicates_warn_and_dedupe(self, templates):
        cfg = ScenarioConfig(rng_seed=3)
        with pytest.warns(UserWarning, match="duplicate"):
            result = run_sampling_tradeoff(
                cfg, templates, [10, 10], train_cfg=TrainConfig(max_epochs=60)
            )
        assert result.series["hours"] == [10.0]

    def test_empty_grid_rejected(self, templates):
        with pytest.raises(ConfigInvalid):
            run_sampling_tradeoff(ScenarioConfig(), templates, [])

    def test_csv_and_gnuplot_export(self, templates):
        cfg = ScenarioConfig(rng_seed=3)
        result = run_sampling_tradeoff(
            cfg, templates, [10], train_cfg=TrainConfig(max_epochs=60)
        )
        header = result.to_csv().splitlines()[0]
        assert "hours" in header and "test_mean_pct" in header


class TestTiming:
    def test_zero_queries_rejected(self, trained_store, profiles, small_corpus):
        with pytest.raises(ConfigInvalid):
            run_timing(trained_store, profiles, small_corpus[0], n_queries=0)

    def test_warm_latency_below_bound(self, trained_store, profiles, small_corpus):
        result = run_timing(trained_store, profiles, small_corpus[0], n_queries=400)
        summary = result.to_obj(include_volatile=True)["summary"]
        assert summary["bound_met"]
        assert summary["median_degradation_us"] <= 1000.0

    def test_volatile_fields_excluded_from_deterministic_json(
        self, trained_store, profiles, small_corpus
    ):
        result = run_timing(trained_store, profiles, small_corpus[0], n_queries=50)
        obj = result.to_obj()
        assert "median_degradation_us" not in obj["summary"]
        assert "timestamp" not in obj
        assert "bound_met" in obj["summary"]
        full = result.to_obj(include_volatile=True)
        assert "median_degradation_us" in full["summary"]
