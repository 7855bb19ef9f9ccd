import json

import numpy as np
import pytest

from vmsight import degrade
from vmsight.degrade import (
    AppProfile,
    ModelStore,
    Orientation,
    evaluate_degradation,
    fit_models_for_corpus,
    load_profiles,
    predict_degradation,
    profiles_for_templates,
    save_profiles,
)
from vmsight.errors import (
    InsufficientData,
    IoError,
    MissingModel,
    MissingProfile,
    UnknownApplication,
)
from vmsight.identify import build_fingerprint_db
from vmsight.neural import MlpModel, Purpose, TrainConfig, hyper_search, model_to_obj
from vmsight.select import DEFAULT_CORR_THRESHOLD, rank_metrics
from vmsight.simgen import (
    ScenarioConfig,
    generate_isolated,
    ground_truth_degradation,
    render_session,
)
from vmsight.tracemodel import CPU_UTIL


def affine_model(purpose, scale, offset, metrics=(CPU_UTIL,)):
    """Model computing scale * mean(trace) + offset, or of the raw input."""
    dim = max(1, len(metrics))
    return MlpModel(
        purpose=purpose,
        input_metrics=tuple(metrics),
        layers=((np.full((1, dim), scale), np.array([offset])),),
        input_norm=(np.zeros(dim), np.ones(dim)),
        output_norm=(0.0, 1.0),
    )


def lower_profile(name="toy", baseline=40.2):
    return AppProfile(
        name=name,
        perf_metric_name="execution_time_s",
        perf_orientation=Orientation.LOWER_IS_BETTER,
        variable_workload=False,
        fixed_baseline=baseline,
    )


def higher_profile(name="toy", baseline=5.4e4):
    return AppProfile(
        name=name,
        perf_metric_name="requests_per_s",
        perf_orientation=Orientation.HIGHER_IS_BETTER,
        variable_workload=False,
        fixed_baseline=baseline,
    )


def toy_traces(level):
    from vmsight.tracemodel import MetricTrace

    return {CPU_UTIL: MetricTrace(CPU_UTIL, np.full(8, float(level)))}


class TestProfiles:
    def test_fixed_needs_baseline(self):
        with pytest.raises(ValueError):
            AppProfile(
                name="x",
                perf_metric_name="t",
                perf_orientation=Orientation.LOWER_IS_BETTER,
                variable_workload=False,
            )

    def test_variable_needs_range(self):
        with pytest.raises(ValueError):
            AppProfile(
                name="x",
                perf_metric_name="t",
                perf_orientation=Orientation.LOWER_IS_BETTER,
                variable_workload=True,
            )

    def test_round_trip(self, tmp_path, templates):
        profiles = profiles_for_templates(templates)
        path = tmp_path / "profiles.json"
        save_profiles(profiles, str(path))
        loaded = load_profiles(str(path))
        assert loaded == profiles

    def test_templates_and_profiles_agree(self, templates, profiles):
        for name, template in templates.items():
            profile = profiles[name]
            if template.variable_workload:
                lo, hi = template.workload_range
                anchors = sorted((template.perf_fn(lo, 0.0), template.perf_fn(hi, 0.0)))
                assert profile.baseline_range == tuple(anchors)
            else:
                assert profile.fixed_baseline == template.perf_fn(None, 0.0)


class TestPredictDegradation:
    def test_equal_perf_and_base_is_one(self):
        store = ModelStore()
        store.add("toy", affine_model(Purpose.PERFORMANCE, 1.0, 0.0))
        report = predict_degradation(
            toy_traces(40.2), None, {"toy": lower_profile()}, store, label="toy"
        )
        assert report.deg == 1.0

    def test_lower_is_better_ratio(self):
        # predicted 80.4 s against a 40.2 s baseline is a 2x slowdown
        store = ModelStore()
        store.add("toy", affine_model(Purpose.PERFORMANCE, 1.0, 0.0))
        report = predict_degradation(
            toy_traces(80.4), None, {"toy": lower_profile(baseline=40.2)}, store, label="toy"
        )
        assert report.deg == pytest.approx(2.0)
        assert report.perf_base == 40.2

    def test_higher_is_better_ratio_flips(self):
        # throughput halved from a 5.4e4 baseline is also a 2x degradation
        store = ModelStore()
        store.add("toy", affine_model(Purpose.PERFORMANCE, 1.0, 0.0))
        report = predict_degradation(
            toy_traces(2.7e4), None, {"toy": higher_profile(baseline=5.4e4)}, store, label="toy"
        )
        assert report.deg == pytest.approx(2.0)

    def test_orientation_flip_inverts_exactly(self):
        store = ModelStore()
        store.add("toy", affine_model(Purpose.PERFORMANCE, 1.0, 0.0))
        level = 61.37
        lo = predict_degradation(
            toy_traces(level), None, {"toy": lower_profile(baseline=47.3)}, store, label="toy"
        )
        hi = predict_degradation(
            toy_traces(level), None, {"toy": higher_profile(baseline=47.3)}, store, label="toy"
        )
        assert hi.deg == 1.0 / lo.deg

    def test_unknown_label_aborts(self):
        from vmsight.identify import UNKNOWN

        store = ModelStore()
        with pytest.raises(UnknownApplication):
            predict_degradation(toy_traces(1.0), None, {}, store, label=UNKNOWN)

    def test_missing_profile(self):
        store = ModelStore()
        store.add("toy", affine_model(Purpose.PERFORMANCE, 1.0, 0.0))
        with pytest.raises(MissingProfile):
            predict_degradation(toy_traces(1.0), None, {}, store, label="toy")

    def test_missing_model(self):
        with pytest.raises(MissingModel):
            predict_degradation(
                toy_traces(1.0), None, {"toy": lower_profile()}, ModelStore(), label="toy"
            )

    def test_variable_workload_chains_nets_and_clamps(self):
        profile = AppProfile(
            name="toy",
            perf_metric_name="execution_time_s",
            perf_orientation=Orientation.LOWER_IS_BETTER,
            variable_workload=True,
            baseline_range=(40.0, 100.0),
        )
        store = ModelStore()
        store.add("toy", affine_model(Purpose.PERFORMANCE, 1.0, 0.0))
        store.add("toy", affine_model(Purpose.WORKLOAD, 2.0, 0.0))
        # baseline net wildly extrapolates; the profile range must clamp it
        store.add(
            "toy",
            MlpModel(
                purpose=Purpose.BASELINE,
                input_metrics=(),
                layers=((np.array([[10.0]]), np.array([0.0])),),
                input_norm=(np.zeros(1), np.ones(1)),
                output_norm=(0.0, 1.0),
            ),
        )
        report = predict_degradation(toy_traces(50.0), None, {"toy": profile}, store, label="toy")
        assert report.workload_pred == pytest.approx(100.0)
        assert report.perf_base == 100.0  # clamped from 1000
        assert report.deg == pytest.approx(0.5)

    def test_identification_path_requires_db(self):
        store = ModelStore()
        store.add("toy", affine_model(Purpose.PERFORMANCE, 1.0, 0.0))
        with pytest.raises(MissingModel):
            predict_degradation(toy_traces(1.0), None, {"toy": lower_profile()}, store)

    def test_end_to_end_with_identification(self, small_corpus, profiles, trained_store):
        db = build_fingerprint_db(small_corpus, [CPU_UTIL], 4)
        record = small_corpus[120]
        report = predict_degradation(
            record.traces, db, profiles, trained_store, session_id=record.session_id
        )
        assert report.label == record.app_label
        assert report.deg > 0.8

    def test_batch_csv_report(self):
        from vmsight.degrade import DegradationReport, reports_to_csv

        reports = [
            DegradationReport("s1", "data_serving", 80.4, 25000.0, 40.2, 2.0),
            DegradationReport("s2", "kv_store", 2.7e4, None, 5.4e4, 2.0),
        ]
        csv = reports_to_csv(reports)
        lines = csv.strip().splitlines()
        assert lines[0] == "session_id,label,perf_pred,workload_pred,perf_base,deg"
        assert lines[1].startswith("s1,data_serving,80.4,25000,")
        assert ",," in lines[2]  # absent workload stays an empty cell


class TestModelStoreIo:
    def test_directory_without_models_is_io_error(self, tmp_path):
        (tmp_path / "models" / "data_serving").mkdir(parents=True)
        (tmp_path / "models" / "notes.txt").write_text("no model here\n")
        with pytest.raises(IoError, match="no models found under"):
            ModelStore.load(str(tmp_path / "models"))

    def test_save_load_round_trip(self, tmp_path, trained_store):
        trained_store.save(str(tmp_path / "models"))
        loaded = ModelStore.load(str(tmp_path / "models"))
        assert loaded.apps() == trained_store.apps()
        assert len(loaded) == len(trained_store)
        for app in loaded.apps():
            a = loaded.get(app, Purpose.PERFORMANCE)
            b = trained_store.get(app, Purpose.PERFORMANCE)
            for (w1, b1), (w2, b2) in zip(a.layers, b.layers):
                assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    def test_fit_report_purpose_of_older_files_is_ignored(
        self, tmp_path, small_corpus, profiles, trained_store
    ):
        # files written before the fit report dropped its purpose repeat the
        # net's purpose in it; they load as the same nets and reports
        trained_store.save(str(tmp_path / "new"))
        trained_store.save(str(tmp_path / "old"))
        for path in (tmp_path / "old").rglob("*.json"):
            obj = json.loads(path.read_text())
            assert "purpose" not in obj["fit_report"]
            obj["fit_report"]["purpose"] = obj["purpose"]
            path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
        new = ModelStore.load(str(tmp_path / "new"))
        old = ModelStore.load(str(tmp_path / "old"))
        assert len(old) == len(new) == len(trained_store)
        for app in new.apps():
            for purpose in Purpose:
                if new.report(app, purpose) is not None:
                    assert old.report(app, purpose) == new.report(app, purpose)
                    assert model_to_obj(old.get(app, purpose)) == model_to_obj(
                        new.get(app, purpose)
                    )
        for r in small_corpus[:20]:
            a = predict_degradation(r.traces, None, profiles, old, label=r.app_label)
            b = predict_degradation(r.traces, None, profiles, new, label=r.app_label)
            assert a == b


class TestPipelineIsolation:
    def test_training_one_app_ignores_others(self, small_corpus, profiles):
        cfg = TrainConfig(rng_seed=0, max_epochs=60)
        only = {"kv_store": profiles["kv_store"]}
        full = fit_models_for_corpus(small_corpus, only, cfg=cfg)
        kv_only = [r for r in small_corpus if r.app_label == "kv_store"]
        alone = fit_models_for_corpus(kv_only, only, cfg=cfg)
        a = full.get("kv_store", Purpose.PERFORMANCE)
        b = alone.get("kv_store", Purpose.PERFORMANCE)
        for (w1, b1), (w2, b2) in zip(a.layers, b.layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)


    def test_corpus_fit_keeps_the_width_search_winner(self, small_corpus, profiles):
        # a multi-width grid with a repeated width: each net set's slice of
        # the fit's results must be the nets the search trains for that set
        grid = [(4,), (8,), (4,), (3, 2)]
        cfg = TrainConfig(rng_seed=0, max_epochs=30)
        store = fit_models_for_corpus(small_corpus, profiles, cfg=cfg, hidden_grid=grid)
        for app in sorted(profiles):
            recs = [r for r in small_corpus if r.app_label == app]
            sel = rank_metrics(recs, app, Purpose.PERFORMANCE, DEFAULT_CORR_THRESHOLD)
            searched = hyper_search(recs, Purpose.PERFORMANCE, cfg, grid, sel.selected)
            stored = (store.get(app, Purpose.PERFORMANCE), store.report(app, Purpose.PERFORMANCE))
            assert model_to_obj(*stored) == model_to_obj(*searched), app

    def test_corpus_fit_ranks_and_trains_through_degrade(self, small_corpus, profiles,
                                                           monkeypatch):
        # a profiler that wraps degrade.rank_metrics and degrade.train by name
        # must see every selection and every net of a corpus fit
        calls = dict.fromkeys(("rank_metrics", "train"), 0)
        for name in calls:
            def counting(*args, _real=getattr(degrade, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(degrade, name, counting)
        grid = [(3,), (4,)]
        cfg = TrainConfig(rng_seed=0, max_epochs=5)
        store = fit_models_for_corpus(small_corpus, profiles, cfg=cfg, hidden_grid=grid)
        variable = sum(p.variable_workload for p in profiles.values())
        assert calls["rank_metrics"] == len(profiles) + variable
        assert calls["train"] == len(store) * len(grid) == (len(profiles) + 2 * variable) * 2


class TestEvaluateDegradation:
    def test_own_predictions_score_zero(self, small_corpus, profiles, trained_store):
        truth = {
            r.session_id: predict_degradation(
                r.traces, None, profiles, trained_store, label=r.app_label
            ).deg
            for r in small_corpus
        }
        table = evaluate_degradation(small_corpus, profiles, trained_store, truth)
        assert table.rows
        assert all(
            row["mean_pct"] == row["max_pct"] == row["std_pct"] == 0.0 for row in table.rows
        )

    def test_pipeline_errors_within_targets(self, small_corpus, profiles, trained_store, templates):
        truth = {
            r.session_id: ground_truth_degradation(r, templates) for r in small_corpus
        }
        table = evaluate_degradation(small_corpus, profiles, trained_store, truth)
        for row in table.rows:
            if row["split"] != "test":
                continue
            bound = 10.0 if profiles[row["app"]].variable_workload else 3.0
            assert row["mean_pct"] <= bound, row

    def test_partial_tree_scores_its_apps_only(self, small_corpus, profiles, templates):
        only = {"kv_store": profiles["kv_store"]}
        store = fit_models_for_corpus(small_corpus, only, cfg=TrainConfig(max_epochs=60))
        truth = {r.session_id: ground_truth_degradation(r, templates) for r in small_corpus}
        table = evaluate_degradation(small_corpus, profiles, store, truth)
        assert [row["app"] for row in table.rows] == ["kv_store", "kv_store"]
        others = [r for r in small_corpus if r.app_label != "kv_store"]
        with pytest.raises(InsufficientData):
            evaluate_degradation(others, profiles, store, truth)

    def test_empty_truth_rejected(self, small_corpus, profiles, trained_store):
        with pytest.raises(InsufficientData):
            evaluate_degradation(small_corpus, profiles, trained_store, {})

    def test_no_test_split_session_rejected(self, small_corpus, profiles, trained_store):
        train = {
            sid
            for app in profiles
            for sid in trained_store.report(app, Purpose.PERFORMANCE).split_ids["train"]
        }
        trained_on = [r for r in small_corpus if r.session_id in train]
        truth = {r.session_id: 1.0 for r in trained_on}
        with pytest.raises(InsufficientData, match="^evaluation produced an empty test split$"):
            evaluate_degradation(trained_on, profiles, trained_store, truth)

    def test_csv_and_text_rendering(self, small_corpus, profiles, trained_store, templates):
        truth = {
            r.session_id: ground_truth_degradation(r, templates) for r in small_corpus
        }
        table = evaluate_degradation(small_corpus, profiles, trained_store, truth)
        assert "data_serving" in table.to_text()


class TestNeutralityAndMonotonicity:
    def test_interference_free_sessions_stay_near_one(
        self, profiles, trained_store, templates
    ):
        cfg = ScenarioConfig(session_duration_s=120.0, rng_seed=555)
        sessions = generate_isolated(cfg, templates, 30, id_prefix="nz")
        good = 0
        perf_span = {}
        for r in sessions:
            report = predict_degradation(
                r.traces, None, profiles, trained_store,
                session_id=r.session_id, label=r.app_label,
            )
            good += 0.9 <= report.deg <= 1.1
            perf_span.setdefault(r.app_label, []).append(r.performance)
        assert good / len(sessions) >= 0.95
        for app in ("data_serving", "web_serving"):
            span = perf_span[app]
            assert max(span) / min(span) >= 2.0

    def test_deg_monotone_in_interference(self, profiles, trained_store, templates):
        cfg = ScenarioConfig(session_duration_s=120.0, rng_seed=321, noise_std=0.0,
                             perf_noise_std=0.0)
        rng = np.random.default_rng(3)
        for app in ("data_serving", "kv_store"):
            template = templates[app]
            w = (
                0.5 * sum(template.workload_range)
                if template.variable_workload
                else None
            )
            degs = []
            for level in np.linspace(0.0, 1.0, 6):
                record = render_session(template, cfg, f"m{level:.2f}", w, float(level), rng)
                report = predict_degradation(
                    record.traces, None, profiles, trained_store,
                    session_id=record.session_id, label=app,
                )
                degs.append(report.deg)
            for earlier, later in zip(degs, degs[1:]):
                assert later >= earlier - 0.05, (app, degs)
