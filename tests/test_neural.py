import json
import os
import subprocess
import sys

import numpy as np
import pytest

import vmsight
from vmsight import neural, simgen, tracemodel
from vmsight.errors import (
    ConfigInvalid,
    DimensionMismatch,
    Diverged,
    InsufficientData,
    NonFiniteInput,
)
from vmsight.neural import (
    EARLY_STOP_PATIENCE,
    LAMBDA0,
    LAMBDA_UP,
    MlpModel,
    Purpose,
    TrainConfig,
    _activations,
    _init_layers,
    _jacobian,
    _pack,
    _unpack,
    hyper_search,
    load_model,
    model_from_obj,
    model_to_obj,
    predict,
    prepare,
    save_model,
    split_sessions,
    train,
)
from vmsight.select import rank_metrics
from vmsight.tracemodel import CPU_UTIL, NET_RX, MetricTrace, SessionRecord


def linear_records(n=60, slope=2.0, intercept=1.0, seed=1, noise=0.0):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        x = float(rng.uniform(0, 10))
        y = slope * x + intercept + (float(rng.normal(0, noise)) if noise else 0.0)
        trace = MetricTrace(CPU_UTIL, np.full(4, x) + np.array([0.0, 0.05, -0.05, 0.0]))
        records.append(
            SessionRecord(
                session_id=f"s{i:03d}",
                traces={CPU_UTIL: trace},
                app_label="toy",
                performance=y,
                workload_level=x,
            )
        )
    return records


def selection(records):
    return rank_metrics(records, "toy", Purpose.PERFORMANCE, 0.3).selected


def fit(records, purpose, input_metrics, cfg):
    return train(prepare(records, purpose, input_metrics, cfg.rng_seed), cfg)


class ValidationCurve:
    """Records, in ``errors``, the validation error ``train`` computes after
    each epoch (the initial weights' first), and the weights it was computed
    for.  With a ``script``, the k-th validation error is ``script[k]``
    instead of the real one."""

    def __init__(self, monkeypatch, problem, script=None):
        self.errors, self.layers = [], []
        x_val, y_val = problem.parts["val"]
        real_activations, real_rel_errors = neural._activations, neural._rel_errors
        real_report = neural._build_report
        training = [True]

        def activations(layers, x):
            if training[0] and x is x_val:
                self.layers.append([(w.copy(), b.copy()) for w, b in layers])
            return real_activations(layers, x)

        def rel_errors(pred, truth):
            e = real_rel_errors(pred, truth)
            if training[0] and truth is y_val:
                if script is not None:
                    e = np.full(e.shape, script[len(self.errors)])
                self.errors.append(float(np.add.reduce(e) / e.shape[0]))
            return e

        def build_report(*args):
            training[0] = False
            return real_report(*args)

        monkeypatch.setattr(neural, "_activations", activations)
        monkeypatch.setattr(neural, "_rel_errors", rel_errors)
        monkeypatch.setattr(neural, "_build_report", build_report)

    def assert_holds(self, model, epoch):
        """``model`` has the weights whose validation error was computed
        after ``epoch`` epochs."""
        assert len(self.layers) == len(self.errors)
        for (w, b), (w_k, b_k) in zip(model.layers, self.layers[epoch], strict=True):
            assert np.array_equal(w, w_k) and np.array_equal(b, b_k)


def finite_difference_jacobian(theta, dims, x, y, eps=1e-6):
    base = np.empty((x.shape[0], theta.size))
    for p in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[p] += eps
        down[p] -= eps
        r_up = _activations(_unpack(up, dims), x)[-1][0] - y
        r_down = _activations(_unpack(down, dims), x)[-1][0] - y
        base[:, p] = (r_up - r_down) / (2 * eps)
    return base


class TestJacobian:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            d = int(rng.integers(1, 5))
            hidden = [int(h) for h in rng.integers(1, 7, size=int(rng.integers(1, 3)))]
            dims = [d, *hidden, 1]
            theta = _pack(_init_layers(rng, dims))
            x = rng.normal(0, 1, (int(rng.integers(5, 20)), d))
            y = rng.normal(0, 1, x.shape[0])
            layers = _unpack(theta, dims)
            analytic = _jacobian(layers, _activations(layers, x))
            numeric = finite_difference_jacobian(theta, dims, x, y)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel < 1e-4


class TestTrain:
    def test_linear_target_under_half_percent(self):
        records = linear_records()
        model, report = fit(
            records, Purpose.PERFORMANCE, selection(records), TrainConfig(hidden_sizes=(4,))
        )
        assert report.errors["test"]["mean"] < 0.5

    def test_predict_known_point(self):
        records = linear_records()
        model, _ = fit(
            records, Purpose.PERFORMANCE, selection(records), TrainConfig(hidden_sizes=(4,))
        )
        assert predict(model, [5.0]) == pytest.approx(11.0, rel=0.005)

    def test_constant_target_short_circuits(self):
        records = [
            SessionRecord(
                session_id=f"c{i:02d}",
                traces={CPU_UTIL: MetricTrace(CPU_UTIL, np.array([float(i), 2.0, 1.0]))},
                app_label="toy",
                performance=7.25,
                workload_level=float(i),
            )
            for i in range(25)
        ]
        model, report = fit(records, Purpose.BASELINE, (), TrainConfig())
        assert abs(predict(model, [3.3]) - 7.25) < 1e-6
        assert report.epochs_run == 0
        assert report.final_lambda == LAMBDA0
        assert model.output_norm == (7.25, 1.0)

    def test_insufficient_records(self):
        with pytest.raises(InsufficientData):
            fit(linear_records(n=10), Purpose.PERFORMANCE, (), TrainConfig())

    def test_baseline_session_without_workload_is_named(self):
        records = linear_records()
        records[3] = SessionRecord(
            session_id="s003", traces=records[3].traces, app_label="toy", performance=7.0
        )
        with pytest.raises(
            InsufficientData,
            match=r"^session s003 lacks workload/performance for baseline training$",
        ):
            prepare(records, Purpose.BASELINE, (), 0)

    def test_deterministic_given_seed(self):
        records = linear_records(noise=0.3)
        cfg = TrainConfig(hidden_sizes=(6,), rng_seed=5)
        m1, r1 = fit(records, Purpose.PERFORMANCE, selection(records), cfg)
        m2, r2 = fit(records, Purpose.PERFORMANCE, selection(records), cfg)
        for (w1, b1), (w2, b2) in zip(m1.layers, m2.layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)
        assert r1.errors == r2.errors

    def test_each_weight_vector_runs_forward_once(self, monkeypatch):
        """One forward pass over the training inputs for the initial weights
        and one per candidate step tried: the next epoch's Jacobian reuses
        the accepted candidate's pass."""
        records = linear_records(noise=0.3)
        cfg = TrainConfig(hidden_sizes=(6,), max_epochs=40)
        problem = prepare(records, Purpose.PERFORMANCE, selection(records), cfg.rng_seed)
        n_train = len(problem.splits["train"])
        assert n_train not in (len(problem.splits["val"]), len(problem.splits["test"]))
        real_activations, real_solve = neural._activations, np.linalg.solve
        real_report = neural._build_report
        events = []

        def activations(layers, x):
            if x.shape[0] == n_train:
                events.append("forward")
            return real_activations(layers, x)

        def solve(a, b):
            delta = real_solve(a, b)
            events.append("step")
            return delta

        def build_report(*args):
            events.append("report")
            return real_report(*args)

        monkeypatch.setattr(neural, "_activations", activations)
        monkeypatch.setattr(np.linalg, "solve", solve)
        monkeypatch.setattr(neural, "_build_report", build_report)
        _, report = train(problem, cfg)
        training = events[: events.index("report")]
        steps = training.count("step")
        assert training.count("forward") == 1 + steps
        assert steps > report.epochs_run > 0  # rejected steps were tried as well

    def test_diverged_when_damping_starts_above_cap(self, monkeypatch):
        records = linear_records()
        monkeypatch.setattr(neural, "LAMBDA0", 5e12)
        with pytest.raises(Diverged):
            fit(records, Purpose.PERFORMANCE, selection(records), TrainConfig())

    def test_singular_solve_retries_with_more_damping(self, monkeypatch):
        """A solve that raises once trains what starting one damping step
        higher trains: each lambda's system is J'J + lambda*I afresh."""
        records = linear_records(noise=0.3)
        cfg = TrainConfig(hidden_sizes=(6,), max_epochs=40)
        problem = prepare(records, Purpose.PERFORMANCE, selection(records), cfg.rng_seed)
        real_solve = np.linalg.solve
        calls = []

        def solve(a, b):
            calls.append(1)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(a, b)

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "solve", solve)
            retried = train(problem, cfg)
        monkeypatch.setattr(neural, "LAMBDA0", LAMBDA0 * LAMBDA_UP)
        expected = train(problem, cfg)
        assert len(calls) > 1
        assert model_to_obj(*retried) == model_to_obj(*expected)
        assert retried[1].epochs_run > 0

    def test_damping_exhausted_after_an_accepted_epoch_keeps_the_best(self, monkeypatch):
        records = linear_records(noise=0.3)
        cfg = TrainConfig(hidden_sizes=(6,), max_epochs=200)
        problem = prepare(records, Purpose.PERFORMANCE, selection(records), cfg.rng_seed)
        monkeypatch.setattr(neural, "LAMBDA_CAP", LAMBDA0)
        curve = ValidationCurve(monkeypatch, problem)
        model, report = train(problem, cfg)
        assert report.final_lambda > neural.LAMBDA_CAP  # the damping ran out
        assert 0 < report.epochs_run < cfg.max_epochs
        assert len(curve.errors) == report.epochs_run + 1
        curve.assert_holds(model, int(np.argmin(curve.errors)))
        assert report.errors["val"]["mean"] == pytest.approx(100 * min(curve.errors), rel=1e-12)

    @pytest.mark.parametrize("best, max_epochs", [(0, 200), (3, 200), (3, 5), (12, 200)])
    def test_stops_patience_epochs_after_the_last_validation_gain(
        self, monkeypatch, best, max_epochs
    ):
        records = linear_records(noise=0.3)
        cfg = TrainConfig(hidden_sizes=(6,), max_epochs=max_epochs)
        problem = prepare(records, Purpose.PERFORMANCE, selection(records), cfg.rng_seed)
        # falls to epoch ``best``; later epochs only tie it or do worse
        script = [10.0 - k for k in range(best + 1)]
        script += [script[-1] + (k % 2) for k in range(EARLY_STOP_PATIENCE + 5)]
        curve = ValidationCurve(monkeypatch, problem, script)
        model, report = train(problem, cfg)
        assert report.epochs_run == min(best + EARLY_STOP_PATIENCE, max_epochs)
        assert curve.errors == script[: report.epochs_run + 1]
        curve.assert_holds(model, min(best, max_epochs))

    def test_corrupting_test_targets_changes_nothing(self):
        # test rows must never influence the weights
        records = linear_records(noise=0.5)
        cfg = TrainConfig(hidden_sizes=(4,), rng_seed=2)
        sel = selection(records)
        model_a, report_a = fit(records, Purpose.PERFORMANCE, sel, cfg)
        test_ids = set(report_a.split_ids["test"])
        corrupted = [
            SessionRecord(
                session_id=r.session_id,
                traces=r.traces,
                app_label=r.app_label,
                performance=r.performance + (1000.0 if r.session_id in test_ids else 0.0),
                workload_level=r.workload_level,
            )
            for r in records
        ]
        model_b, _ = fit(corrupted, Purpose.PERFORMANCE, sel, cfg)
        for (w1, b1), (w2, b2) in zip(model_a.layers, model_b.layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    def test_corrupting_train_targets_changes_weights(self):
        records = linear_records(noise=0.5)
        cfg = TrainConfig(hidden_sizes=(4,), rng_seed=2)
        sel = selection(records)
        model_a, report_a = fit(records, Purpose.PERFORMANCE, sel, cfg)
        train_ids = set(report_a.split_ids["train"])
        corrupted = [
            SessionRecord(
                session_id=r.session_id,
                traces=r.traces,
                app_label=r.app_label,
                performance=r.performance + (100.0 if r.session_id in train_ids else 0.0),
                workload_level=r.workload_level,
            )
            for r in records
        ]
        model_b, _ = fit(corrupted, Purpose.PERFORMANCE, sel, cfg)
        assert any(
            not np.array_equal(w1, w2)
            for (w1, _), (w2, _) in zip(model_a.layers, model_b.layers)
        )

    def test_scale_consistency_under_affine_input_map(self):
        # z-normalization absorbs affine input maps: training on mapped data
        # and querying with mapped inputs reproduces the original predictions
        rng = np.random.default_rng(9)
        records, mapped = [], []
        for i in range(40):
            x = float(rng.integers(0, 64))  # exactly representable grid
            y = float(np.sin(x / 10.0) * 5.0 + 10.0)
            mk = lambda v: MetricTrace(CPU_UTIL, np.full(4, v))
            records.append(
                SessionRecord(
                    session_id=f"s{i:03d}", traces={CPU_UTIL: mk(x)},
                    app_label="toy", performance=y,
                )
            )
            mapped.append(
                SessionRecord(
                    session_id=f"s{i:03d}", traces={CPU_UTIL: mk(2.0 * x + 1.0)},
                    app_label="toy", performance=y,
                )
            )
        cfg = TrainConfig(hidden_sizes=(6,), rng_seed=4, max_epochs=60)
        m1, _ = fit(records, Purpose.PERFORMANCE, selection(records), cfg)
        m2, _ = fit(mapped, Purpose.PERFORMANCE, selection(mapped), cfg)
        for q in (3.0, 17.0, 40.0):
            assert predict(m1, [q]) == pytest.approx(predict(m2, [2.0 * q + 1.0]), abs=1e-6)


class TestSplit:
    def test_disjoint_and_covering(self):
        ids = [f"s{i:03d}" for i in range(40)]
        splits = split_sessions(ids, 3)
        merged = sorted(splits["train"] + splits["val"] + splits["test"])
        assert merged == sorted(ids)
        assert not (set(splits["train"]) & set(splits["val"]))
        assert not (set(splits["train"]) & set(splits["test"]))
        assert not (set(splits["val"]) & set(splits["test"]))

    def test_fractions_near_70_15_15(self):
        splits = split_sessions([f"s{i}" for i in range(100)], 0)
        assert len(splits["train"]) == 70
        assert len(splits["val"]) == 15
        assert len(splits["test"]) == 15

    def test_seeded_and_stable(self):
        ids = [f"s{i:03d}" for i in range(30)]
        assert split_sessions(ids, 8) == split_sessions(ids, 8)
        assert split_sessions(ids, 8) != split_sessions(ids, 9)


class TestPredict:
    def test_zero_hidden_layer_affine(self):
        model = MlpModel(
            purpose=Purpose.PERFORMANCE,
            input_metrics=(CPU_UTIL,),
            layers=((np.array([[3.0]]), np.array([2.0])),),
            input_norm=(np.array([0.0]), np.array([1.0])),
            output_norm=(0.0, 1.0),
        )
        assert predict(model, [4.0]) == pytest.approx(14.0)

    def test_dimension_mismatch(self):
        model = MlpModel(
            purpose=Purpose.PERFORMANCE,
            input_metrics=(CPU_UTIL, NET_RX),
            layers=((np.zeros((1, 2)), np.zeros(1)),),
            input_norm=(np.zeros(2), np.ones(2)),
            output_norm=(0.0, 1.0),
        )
        with pytest.raises(DimensionMismatch):
            predict(model, [1.0])

    def test_non_finite_input(self):
        model = MlpModel(
            purpose=Purpose.PERFORMANCE,
            input_metrics=(CPU_UTIL,),
            layers=((np.zeros((1, 1)), np.zeros(1)),),
            input_norm=(np.zeros(1), np.ones(1)),
            output_norm=(0.0, 1.0),
        )
        with pytest.raises(NonFiniteInput):
            predict(model, [float("nan")])

    def test_models_of_one_problem_do_not_share_input_norms(self):
        records = linear_records()
        problem = prepare(records, Purpose.PERFORMANCE, selection(records), 0)
        a, _ = train(problem, TrainConfig(hidden_sizes=(2,), max_epochs=5))
        b, _ = train(problem, TrainConfig(hidden_sizes=(3,), max_epochs=5))
        x = [float(records[0].trace("cpu_util_pct").samples.mean())]
        before = predict(b, x)
        for arr in a.input_norm:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        for arr in problem.in_norm:
            arr[0] = 1.0 if arr is problem.in_norm[1] else 0.0
        assert predict(b, x) == before


class TestHyperSearch:
    def test_degenerate_grid_equals_train(self):
        records = linear_records(noise=0.2)
        cfg = TrainConfig(hidden_sizes=(4,), rng_seed=1)
        sel = selection(records)
        m1, r1 = hyper_search(records, Purpose.PERFORMANCE, cfg, [cfg.hidden_sizes], sel)
        m2, r2 = fit(records, Purpose.PERFORMANCE, sel, cfg)
        for (w1, _), (w2, _) in zip(m1.layers, m2.layers):
            assert np.array_equal(w1, w2)
        assert r1.errors == r2.errors

    @pytest.mark.parametrize("purpose", [Purpose.PERFORMANCE, Purpose.WORKLOAD])
    def test_one_config_grid_writes_the_model_train_writes(self, purpose):
        records = linear_records(noise=0.2)
        cfg = TrainConfig(hidden_sizes=(4, 3), rng_seed=6, max_epochs=40)
        sel = rank_metrics(records, "toy", purpose, 0.3).selected
        searched = hyper_search(records, purpose, cfg, [cfg.hidden_sizes], sel)
        trained = fit(records, purpose, sel, cfg)
        assert model_to_obj(*searched) == model_to_obj(*trained)

    def test_wider_net_wins_nonlinear_target(self):
        rng = np.random.default_rng(2)
        records = []
        for i in range(80):
            x = float(rng.uniform(0, 6))
            y = float(x + 2.0 * np.sin(2.0 * x))
            records.append(
                SessionRecord(
                    session_id=f"s{i:03d}",
                    traces={CPU_UTIL: MetricTrace(CPU_UTIL, np.full(4, x))},
                    app_label="toy",
                    performance=y,
                )
            )
        sel = selection(records)
        cfg = TrainConfig(hidden_sizes=(2,), rng_seed=0, max_epochs=150)
        best_model, best_report = hyper_search(
            records, Purpose.PERFORMANCE, cfg, [(2,), (8,)], sel
        )
        small, small_report = fit(records, Purpose.PERFORMANCE, sel, cfg)
        assert best_model.layers[0][0].shape[0] == 8
        assert best_report.errors["val"]["mean"] <= small_report.errors["val"]["mean"]

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigInvalid):
            hyper_search(linear_records(), Purpose.PERFORMANCE, TrainConfig(), [], ())

    def test_repeated_width_trains_once(self, monkeypatch):
        records = linear_records(noise=0.2)
        cfg = TrainConfig(rng_seed=3, max_epochs=40)
        sel = selection(records)
        calls = []

        def counting_train(*args, **kwargs):
            calls.append(args[1].hidden_sizes)
            return train(*args, **kwargs)

        monkeypatch.setattr(neural, "train", counting_train)
        repeated = hyper_search(records, Purpose.PERFORMANCE, cfg, [(8,), (8,), (4,)], sel)
        assert calls == [(8,), (4,)]
        distinct = hyper_search(records, Purpose.PERFORMANCE, cfg, [(8,), (4,)], sel)
        assert model_to_obj(*repeated) == model_to_obj(*distinct)


class TestModelIo:
    def test_save_load_bit_stable(self, tmp_path):
        records = linear_records(noise=0.2)
        model, report = fit(
            records, Purpose.PERFORMANCE, selection(records), TrainConfig(hidden_sizes=(4,))
        )
        path = tmp_path / "m.json"
        save_model(model, str(path), report)
        loaded, loaded_report = load_model(str(path))
        second = tmp_path / "m2.json"
        save_model(loaded, str(second), loaded_report)
        assert path.read_bytes() == second.read_bytes()
        for (w1, b1), (w2, b2) in zip(model.layers, loaded.layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)
        assert predict(loaded, [2.5]) == predict(model, [2.5])

    def test_roundtrip_through_obj(self):
        records = linear_records()
        model, report = fit(
            records, Purpose.PERFORMANCE, selection(records), TrainConfig(hidden_sizes=(3,))
        )
        clone, _ = model_from_obj(model_to_obj(model, report))
        assert clone.input_metrics == model.input_metrics
        assert clone.output_norm == model.output_norm


SCIPY_OPENBLAS = pytest.mark.skipif(
    np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"] != "scipy-openblas",
    reason="numpy's BLAS thread count is set through scipy-openblas only",
)


@SCIPY_OPENBLAS
def test_purpose_is_the_one_select_defines():
    # perfbench reads each net's report by iterating neural.Purpose
    assert neural.Purpose is vmsight.select.Purpose is vmsight.Purpose
    assert [p.name for p in neural.Purpose] == ["PERFORMANCE", "WORKLOAD", "BASELINE"]


def test_one_blas_thread_restores_the_count_also_on_error():
    get, set_threads = neural._blas_threads()
    before = get()
    set_threads(2)
    try:
        with pytest.raises(Diverged):
            with neural.one_blas_thread():
                assert get() == 1
                raise Diverged("no accepted step")
        assert get() == 2
    finally:
        set_threads(before)


@SCIPY_OPENBLAS
def test_model_bytes_do_not_depend_on_blas_threads(tmp_path):
    """A 16-wide net of 129 parameters is past the sizes (97 for J'J, 113
    for the solve) at which a 2-thread OpenBLAS sums in another order."""
    cfg = simgen.ScenarioConfig(session_duration_s=60.0, rng_seed=1)
    templates = simgen.default_templates()
    corpus = str(tmp_path / "c.jsonl")
    tracemodel.save_corpus(simgen.generate(cfg, templates, 120), corpus)
    src = os.path.dirname(os.path.dirname(vmsight.__file__))
    trees = []
    for threads in ("1", "2"):
        models = tmp_path / f"models-{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run(
            [sys.executable, "-m", "vmsight.cli", "train", "--corpus", corpus,
             "--models", str(models), "--apps", "kv_store", "--hidden-grid", "16",
             "--max-epochs", "10", "--jobs", "1"],
            env=env, check=True, capture_output=True, timeout=300,
        )
        trees.append({p.relative_to(models): p.read_bytes() for p in models.rglob("*.json")})
    (blob,) = trees[0].values()
    assert neural.model_from_obj(json.loads(blob))[0].parameter_count() >= 113
    assert trees[0] == trees[1]

