import argparse
import contextlib
import io
import itertools
import json
import math
import os
import re
import shutil
import tempfile
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vmsight import degrade, simgen, tracemodel
from vmsight.cli import _BOUNDS, build_parser, main
from vmsight.evaluate import MAX_QUERIES

MISSING = "/nonexistent/vmsight/corpus.jsonl"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _edit_index(edit):
    def corrupt(db):
        index = json.loads((db / "db.json").read_text())
        edit(index)
        (db / "db.json").write_text(json.dumps(index))

    return corrupt


def _set_sample(value):
    def edit(index):
        index["entries"][1]["samples"][1] = value

    return _edit_index(edit)


def _uncover_last_label(index):
    """Use a second metric whose references cover every label but the last."""
    last = index["entries"][-1]["app_label"]
    index["metrics_used"].append("net_rx_bytes")
    index["entries"] += [
        dict(entry, metric="net_rx_bytes")
        for entry in index["entries"]
        if entry["app_label"] != last
    ]


def _edit_model(edit):
    def corrupt(models):
        path = models / "data_serving" / "performance.json"
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))

    return corrupt


def _set_norm(norm, key, value):
    """Set the model's output_norm ``key``, or the first input's input_norm ``key``."""
    def edit(obj):
        if norm == "output_norm":
            obj[norm][key] = value
        else:
            obj[norm][key][0] = value

    return _edit_model(edit)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small end-to-end CLI workspace: corpus, db, models, profiles."""
    root = tmp_path_factory.mktemp("cli")
    corpus = str(root / "corpus.jsonl")
    profiles = str(root / "profiles.json")
    db = str(root / "db")
    models = str(root / "models")
    assert (
        main(
            [
                "simulate",
                "--out",
                corpus,
                "--sessions",
                "170",
                "--duration-s",
                "120",
                "--seed",
                "7",
                "--isolated",
                "25",
                "--profiles-out",
                profiles,
            ]
        )
        == 0
    )
    assert main(["fingerprint", "--corpus", corpus, "--out", db, "--refs-per-app", "2"]) == 0
    assert (
        main(
            [
                "train",
                "--corpus",
                corpus,
                "--profiles",
                profiles,
                "--models",
                models,
                "--max-epochs",
                "80",
                "--seed",
                "0",
            ]
        )
        == 0
    )
    return {"root": root, "corpus": corpus, "profiles": profiles, "db": db, "models": models}


class TestBasics:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "simulate" in out and "predict" in out

    def test_unknown_flag_exits_two(self, capsys):
        code, _, _ = run(capsys, "identify", "--frobnicate")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["fingerprint", "--json"],
        ["fingerprint", "--seed", "1"],
        ["identify", "--seed", "1"],
        ["select-metrics", "--app", "web_serving", "--seed", "1"],
        ["predict", "--seed", "1"],
        ["evaluate", "--experiment", "error-table", "--amp-gain", "2"],
    ])
    def test_flag_that_changes_no_output_is_gone(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "unrecognized arguments" in err

    def test_missing_subcommand_exits_two(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_domain_error_exits_one(self, capsys):
        code, _, err = run(capsys, "identify", "--corpus", "/nonexistent", "--db", "/also-missing")
        assert code == 1
        assert "IoError" in err


class TestFingerprint:
    @pytest.mark.parametrize(
        "plant",
        [
            pytest.param(
                lambda obj: obj["traces"]["cpu_util_pct"].__setitem__(0, 10**400), id="sample"
            ),
            pytest.param(lambda obj: obj.update(workload_level=10**400), id="label"),
        ],
    )
    def test_huge_integer_is_a_parse_error(self, capsys, workspace, tmp_path, plant):
        first, *rest = Path(workspace["corpus"]).read_text().splitlines()
        obj = json.loads(first)
        plant(obj)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join([json.dumps(obj), *rest]) + "\n")
        code, _, err = run(
            capsys, "fingerprint", "--corpus", str(corpus), "--out", str(tmp_path / "db")
        )
        assert code == 1
        assert err.startswith("ParseError: corpus.jsonl:1: ")
        assert "number too large for a float" in err

    def test_reserved_label_is_a_parse_error(self, capsys, workspace, tmp_path):
        first, *rest = Path(workspace["corpus"]).read_text().splitlines()
        obj = json.loads(first)
        obj["app_label"] = "unknown"
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join([json.dumps(obj), *rest]) + "\n")
        code, _, err = run(
            capsys, "fingerprint", "--corpus", str(corpus), "--out", str(tmp_path / "db")
        )
        assert code == 1
        assert err.startswith(f"ParseError: session {obj['session_id']}: ")
        assert "reserved" in err and "Traceback" not in err


class TestIdentify:
    def test_fingerprinted_session_identified(self, capsys, workspace):
        code, out, err = run(
            capsys,
            "identify",
            "--corpus",
            workspace["corpus"],
            "--db",
            workspace["db"],
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        results = payload["results"]
        assert len(results) == 295  # 170 colocated + 25 isolated per app
        # self-identification on the fingerprint corpus should be essentially perfect
        from vmsight.tracemodel import load_corpus

        labels = {r.session_id: r.app_label for r in load_corpus(workspace["corpus"])}
        acc = sum(row["label"] == labels[row["session_id"]] for row in results) / len(results)
        assert acc >= 0.95

    def test_json_and_logs_do_not_share_stdout(self, capsys, workspace):
        code, out, err = run(
            capsys,
            "identify",
            "--corpus",
            workspace["corpus"],
            "--db",
            workspace["db"],
            "--json",
        )
        assert code == 0
        json.loads(out)  # stdout must be pure JSON
        assert "{" not in err

    @pytest.mark.parametrize("command", ["identify", "predict"])
    def test_jobs_flag_preserves_order_and_results(self, capsys, workspace, command):
        args = [command, "--corpus", workspace["corpus"], "--db", workspace["db"], "--json"]
        if command == "predict":
            args += ["--models", workspace["models"], "--profiles", workspace["profiles"]]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args, "--jobs", "2")
        assert code1 == code2
        assert out1 == out2 and json.loads(out1)["results"]

    @pytest.mark.parametrize(
        "corrupt, error",
        [
            pytest.param(_set_sample("abc"), "ParseError", id="non-numeric-sample"),
            pytest.param(_set_sample(float("nan")), "ParseError", id="non-finite-sample"),
            pytest.param(
                _edit_index(lambda index: index.pop("metrics_used")), "ParseError", id="missing-key"
            ),
            pytest.param(
                _edit_index(lambda index: index.update(metric_thresholds=[1.0])),
                "ParseError",
                id="thresholds-not-a-map",
            ),
            pytest.param(
                _edit_index(lambda index: index["entries"][1].pop("samples")),
                "ParseError",
                id="entry-without-samples",
            ),
            pytest.param(
                _edit_index(lambda index: index["entries"][1].update(metric="nosuch_metric")),
                "ParseError",
                id="unknown-metric",
            ),
            pytest.param(lambda db: (db / "db.json").unlink(), "IoError", id="missing-db-json"),
            pytest.param(
                _edit_index(lambda index: index.update(distance_threshold=float("inf"))),
                "ParseError",
                id="infinite-threshold",
            ),
            pytest.param(
                _edit_index(lambda index: index["metric_thresholds"].update(
                    {index["entries"][0]["metric"]: float("inf")}
                )),
                "ParseError",
                id="infinite-metric-threshold",
            ),
            pytest.param(
                _edit_index(lambda index: index["entries"][1].update(period_s=float("inf"))),
                "ParseError",
                id="infinite-period",
            ),
            *[
                pytest.param(
                    _edit_index(lambda index, v=value: index["entries"][1].update(app_label=v)),
                    "ParseError: db.json: entry 1: app_label",
                    id=f"app-label-{value}",
                )
                for value in (None, 7)
            ],
            *[
                pytest.param(
                    _edit_index(lambda index, v=value: index.update(distance_threshold=v)),
                    "ParseError: db.json: distance_threshold",
                    id=f"threshold-{value!r}",
                )
                for value in (True, "800")
            ],
            *[
                pytest.param(
                    _edit_index(
                        lambda index, v=value: index["metric_thresholds"].update(cpu_util_pct=v)
                    ),
                    "ParseError: db.json: metric_thresholds: cpu_util_pct",
                    id=f"metric-threshold-{value!r}",
                )
                for value in (True, "800")
            ],
            *[
                pytest.param(
                    _edit_index(lambda index, v=value: index.update(source_session_ids=v)),
                    "ParseError: db.json: source_session_ids",
                    id=f"source-ids-{value!r}",
                )
                for value in ("s000001", [1, 2])
            ],
            # the database's own invariants: positive thresholds, at least one
            # entry, and an entry for every label on every metric it uses
            *[
                pytest.param(
                    _edit_index(lambda index, v=value: index.update(distance_threshold=v)),
                    "ParseError: db.json", id=f"threshold-{value}",
                )
                for value in (0, -1)
            ],
            pytest.param(
                _edit_index(lambda index: index["metric_thresholds"].update(cpu_util_pct=0)),
                "ParseError: db.json", id="metric-threshold-0",
            ),
            pytest.param(
                _edit_index(lambda index: index["metric_thresholds"].update(cpu_util=1e-9)),
                "ParseError: db.json: metric_thresholds: cpu_util",
                id="metric-threshold-names-no-metric",
            ),
            pytest.param(
                _edit_index(lambda index: index.update(entries=[])),
                "ParseError: db.json", id="no-entries",
            ),
            pytest.param(
                _edit_index(_uncover_last_label),
                "ParseError: db.json", id="label-without-a-metric",
            ),
        ],
    )
    def test_corrupted_db_is_a_typed_error(self, capsys, workspace, tmp_path, corrupt, error):
        db = tmp_path / "db"
        shutil.copytree(workspace["db"], db)
        corrupt(db)
        code, _, err = run(capsys, "identify", "--corpus", workspace["corpus"], "--db", str(db))
        assert code == 1
        assert err.startswith(f"{error}: ") and "db.json" in err.splitlines()[0]


def _edit_third_session(corpus, tmp_path, edit):
    """A corpus of the first 6 sessions of ``corpus``, the third one edited,
    and that session's id."""
    lines = Path(corpus).read_text().splitlines()[:6]
    record = json.loads(lines[2])
    edit(record)
    lines[2] = json.dumps(record, sort_keys=True)
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return str(path), record["session_id"]


def _keep_traces(names):
    return lambda record: record.update(
        traces={k: v for k, v in record["traces"].items() if k in names}
    )


class TestPerSessionErrors:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "command, edit, error",
        [
            pytest.param(
                "identify",
                lambda record: record.update(
                    traces={k: v[:10] for k, v in record["traces"].items()}
                ),
                "TooShort",
                id="identify-too-short",
            ),
            *[
                pytest.param(command, edit, error, id=f"{command}-{case}")
                for command in ("identify", "predict")
                for case, edit, error in [
                    ("no-usable-metrics", _keep_traces({"net_rx_bytes"}), "NoUsableMetrics"),
                    ("period-mismatch", lambda record: record.update(period_s=2.0),
                     "PeriodMismatch"),
                ]
            ],
            pytest.param(
                "predict", _keep_traces({"cpu_util_pct"}), "DimensionMismatch",
                id="predict-lacks-metrics",
            ),
        ],
    )
    def test_error_names_the_session(self, capsys, workspace, tmp_path, command, edit, error,
                                     jobs):
        corpus, session = _edit_third_session(workspace["corpus"], tmp_path, edit)
        args = [command, "--corpus", corpus, "--db", workspace["db"], "--jobs", jobs]
        if command == "predict":
            args += ["--models", workspace["models"], "--profiles", workspace["profiles"]]
        code, _, err = run(capsys, *args)
        assert code == 1
        assert err.startswith(f"{error}: session {session}"), err


class TestPredict:
    def test_predict_known_sessions(self, capsys, workspace):
        code, out, _ = run(
            capsys,
            "predict",
            "--corpus",
            workspace["corpus"],
            "--db",
            workspace["db"],
            "--models",
            workspace["models"],
            "--profiles",
            workspace["profiles"],
            "--json",
        )
        assert code == 0
        rows = json.loads(out)["results"]
        assert all("deg" in row for row in rows if "error" not in row)

    @pytest.mark.parametrize(
        "app, key, value",
        [("kv_store", "fixed_baseline", v) for v in (0, "abc", [1], -3, True, float("inf"))]
        + [("web_serving", "variable_workload", "no")]
        + [("web_serving", "baseline_range", v) for v in ([0, 5], [5, "x"], [True, 5], [9, 5])]
        + [("kv_store", "perf_metric_name", v) for v in (5, ["x"])],
    )
    def test_bad_profile_is_a_parse_error(self, capsys, workspace, tmp_path, app, key, value):
        profiles = json.loads(Path(workspace["profiles"]).read_text())
        profiles[app][key] = value
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps(profiles))
        code, _, err = run(
            capsys, "predict", "--corpus", workspace["corpus"], "--db", workspace["db"],
            "--models", workspace["models"], "--profiles", str(path),
        )
        assert code == 1
        assert err.startswith(f"ParseError: profiles.json: {app}: ") and "Traceback" not in err

    def test_csv_batch_report(self, capsys, workspace, tmp_path):
        out = str(tmp_path / "deg.csv")
        code, _, err = run(
            capsys,
            "predict",
            "--corpus",
            workspace["corpus"],
            "--db",
            workspace["db"],
            "--models",
            workspace["models"],
            "--profiles",
            workspace["profiles"],
            "--out",
            out,
        )
        assert code == 0
        lines = Path(out).read_text().strip().splitlines()
        assert lines[0].startswith("session_id,label,")
        assert len(lines) > 100

    def test_unknown_application_exits_one(self, capsys, workspace, tmp_path):
        outsider = str(tmp_path / "outsider.jsonl")
        assert (
            main(
                [
                    "simulate",
                    "--out",
                    outsider,
                    "--sessions",
                    "1",
                    "--duration-s",
                    "120",
                    "--seed",
                    "9",
                    "--outsider",
                    "3",
                ]
            )
            == 0
        )
        # keep only the outsider sessions
        lines = [
            line
            for line in Path(outsider).read_text().splitlines()
            if '"app_label": "batch_transcoder"' in line
        ]
        with open(outsider, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code, out, err = run(
            capsys,
            "predict",
            "--corpus",
            outsider,
            "--db",
            workspace["db"],
            "--models",
            workspace["models"],
            "--profiles",
            workspace["profiles"],
            "--json",
        )
        assert code == 1
        assert "UnknownApplication" in err
        rows = json.loads(out)["results"]
        assert all(row.get("error") == "UnknownApplication" for row in rows)

    @pytest.mark.parametrize("error", ["MissingProfile", "MissingModel"])
    def test_session_without_profile_or_model_keeps_the_batch(
        self, capsys, workspace, tmp_path, error
    ):
        lines = Path(workspace["corpus"]).read_text().splitlines()[:40]  # two apps
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(lines) + "\n")
        gone = json.loads(lines[0])["app_label"]
        models, profiles = tmp_path / "models", tmp_path / "profiles.json"
        shutil.copytree(workspace["models"], models)
        obj = json.loads(Path(workspace["profiles"]).read_text())
        if error == "MissingProfile":
            del obj[gone]
        else:
            shutil.rmtree(models / gone)
        profiles.write_text(json.dumps(obj))
        code, out, err = run(
            capsys, "predict", "--corpus", str(corpus), "--db", workspace["db"],
            "--models", str(models), "--profiles", str(profiles), "--json",
        )
        assert code == 1
        rows = json.loads(out)["results"]
        assert len(rows) == len(lines)
        errors = [row["error"] for row in rows if "error" in row]
        assert error in errors and set(errors) <= {error, "UnknownApplication"}
        assert any("deg" in row for row in rows)
        assert err.startswith(f"{errors[0]}: ")

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(_edit_model(lambda obj, key=key: obj.pop(key)), id=f"no-{key}")
            for key in ("layers", "input_norm", "purpose")
        ]
        + [
            pytest.param(
                _edit_model(lambda obj, key=key: obj.update({key: "abc"})), id=f"bad-{key}"
            )
            for key in ("layers", "input_norm", "purpose")
        ]
        + [
            pytest.param(
                lambda models: (models / "data_serving" / "performance.json").write_text(
                    '{"rng_seed": ' + "1" * 5000 + "}"
                ),
                id="int-too-long",
            ),
            pytest.param(
                _edit_model(lambda obj: obj["input_metrics"][0].update(name="nosuch_metric")),
                id="unknown-metric",
            ),
            pytest.param(
                _edit_model(lambda obj: obj["input_metrics"][0].update(
                    category="Network" if obj["input_metrics"][0]["category"] == "CPU" else "CPU"
                )),
                id="wrong-category",
            ),
        ]
        + [
            pytest.param(_edit_model(lambda obj: obj["layers"][0].update(
                weights=["0.12", *obj["layers"][0]["weights"][1:]])), id="weight-string"),
            pytest.param(_edit_model(lambda obj: obj["layers"][0].update(
                bias=[True, *obj["layers"][0]["bias"][1:]])), id="bias-bool"),
            pytest.param(_edit_model(lambda obj: obj.update(rng_seed=3.9)), id="rng-seed-float"),
            pytest.param(_edit_model(lambda obj: obj.update(activation="relu")),
                         id="activation-relu"),
            pytest.param(_edit_model(lambda obj: obj["fit_report"].update(final_lambda="0.5")),
                         id="final-lambda-string"),
            pytest.param(_edit_model(lambda obj: obj["fit_report"].update(split_ids=[])),
                         id="split-ids-list"),
            pytest.param(_edit_model(lambda obj: obj["fit_report"]["split_ids"].pop("test")),
                         id="split-ids-no-test"),
            pytest.param(_edit_model(lambda obj: obj["fit_report"]["split_ids"].update(more=[])),
                         id="split-ids-extra-key"),
            *[
                pytest.param(_edit_model(
                    lambda obj, v=value: obj["fit_report"]["split_ids"].update(train=v)),
                    id=f"split-ids-train-{value!r}")
                for value in ("s000001", [1, 2])
            ],
            # without its first layer, the next one expects the hidden width as input
            pytest.param(_edit_model(lambda obj: obj["layers"].pop(0)), id="layer-chain"),
            pytest.param(_edit_model(lambda obj: obj["layers"][-1].update(
                shape=[2, obj["layers"][-1]["shape"][1]],
                weights=obj["layers"][-1]["weights"] * 2, bias=obj["layers"][-1]["bias"] * 2)),
                id="two-outputs"),
            pytest.param(_edit_model(
                lambda obj: [v.append(1.0) for v in obj["input_norm"].values()]),
                id="input-norm-length"),
        ]
        + [
            pytest.param(_set_norm(norm, key, value), id=f"{norm}-{key}-{value}")
            for norm, key, value in [
                ("input_norm", "std", float("nan")),
                ("input_norm", "std", float("inf")),
                ("input_norm", "mean", float("nan")),
                ("input_norm", "mean", float("inf")),
                ("output_norm", "std", float("nan")),
                ("output_norm", "std", float("inf")),
                ("output_norm", "mean", float("nan")),
                ("output_norm", "mean", float("inf")),
                ("input_norm", "std", 0.0),
                ("output_norm", "std", 0.0),
            ]
        ],
    )
    def test_corrupted_model_is_a_typed_error(self, capsys, workspace, tmp_path, corrupt):
        models = tmp_path / "models"
        shutil.copytree(workspace["models"], models)
        corrupt(models)
        code, _, err = run(
            capsys,
            "predict",
            "--corpus",
            workspace["corpus"],
            "--db",
            workspace["db"],
            "--models",
            str(models),
            "--profiles",
            workspace["profiles"],
        )
        assert code == 1
        assert err.startswith("ParseError: performance.json: ")

    def test_model_file_must_hold_the_purpose_its_name_says(self, capsys, workspace, tmp_path):
        models = tmp_path / "models"
        shutil.copytree(workspace["models"], models)
        shutil.copy(models / "kv_store" / "performance.json",
                    models / "data_serving" / "workload.json")
        code, _, err = run(
            capsys, "predict", "--corpus", workspace["corpus"], "--db", workspace["db"],
            "--models", str(models), "--profiles", workspace["profiles"],
        )
        assert code == 1
        assert err.startswith(
            "ParseError: data_serving/workload.json: holds a performance model"
        )


def _head(corpus, tmp_path, n):
    """A corpus file of the first ``n`` sessions of ``corpus``."""
    path = tmp_path / "head.jsonl"
    path.write_text("".join(Path(corpus).read_text().splitlines(keepends=True)[:n]))
    return str(path)


class TestTrain:
    def test_apps_trains_only_the_named_apps(self, capsys, workspace, tmp_path):
        models = tmp_path / "models"
        code, out, _ = run(
            capsys, "train", "--corpus", workspace["corpus"], "--profiles", workspace["profiles"],
            "--models", str(models), "--apps", "web_serving,kv_store", "--max-epochs", "5",
            "--json",
        )
        assert code == 0
        assert sorted(os.listdir(models)) == ["kv_store", "web_serving"]
        assert sorted(json.loads(out)["test_mean_pct"]) == [
            "kv_store/performance",
            "web_serving/baseline", "web_serving/performance", "web_serving/workload",
        ]

    def test_net_without_inputs_is_named(self, capsys, workspace, tmp_path):
        # no metric correlates perfectly, so a threshold of 1 selects none
        code, _, err = run(
            capsys, "train", "--corpus", workspace["corpus"], "--profiles", workspace["profiles"],
            "--models", str(tmp_path / "models"), "--apps", "web_serving,kv_store",
            "--threshold-corr", "1",
        )
        assert code == 1
        assert err.startswith(
            "InsufficientData: app 'kv_store', performance net: "
            "no selected metrics to use as regression inputs"
        )

    def test_session_without_a_target_is_named(self, capsys, workspace, tmp_path):
        rows = [json.loads(line) for line in Path(workspace["corpus"]).read_text().splitlines()]
        row = next(r for r in rows if r["app_label"] == "data_serving")
        row["performance"] = None
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in rows))
        code, _, err = run(
            capsys, "train", "--corpus", str(corpus), "--profiles", workspace["profiles"],
            "--models", str(tmp_path / "models"), "--apps", "data_serving",
        )
        assert code == 1
        assert err.startswith(
            "InsufficientData: app 'data_serving', performance net: "
            f"session {row['session_id']} lacks a performance target"
        )

    def test_corpus_without_isolated_sessions_is_refused(self, capsys, tmp_path):
        corpus = str(tmp_path / "corpus.jsonl")
        assert main(["simulate", "--out", corpus, "--sessions", "120", "--duration-s", "30",
                     "--seed", "2"]) == 0
        capsys.readouterr()
        code, out, err = run(
            capsys, "train", "--corpus", corpus, "--models", str(tmp_path / "models"),
            "--apps", "data_serving",
        )
        assert (code, out) == (1, "")
        assert err == (
            "InsufficientData: app 'data_serving' has only 0 interference-free sessions; "
            "the baseline net needs >= 20\n"
        )
        assert not os.path.exists(tmp_path / "models")


class TestTextOutput:
    """Without --json, a subcommand prints a human rendering of the JSON it
    would print with it: these compare the two."""

    @staticmethod
    def both(capsys, *argv):
        code, text, _ = run(capsys, *argv)
        json_code, out, _ = run(capsys, *argv, "--json")
        assert code == json_code
        return text, json.loads(out)

    def test_identify_prints_each_label(self, capsys, workspace, tmp_path):
        corpus = _head(workspace["corpus"], tmp_path, 20)
        text, obj = self.both(capsys, "identify", "--corpus", corpus, "--db", workspace["db"])
        assert text.splitlines() == [f"{r['session_id']}: {r['label']}" for r in obj["results"]]

    def test_select_metrics_marks_the_selection(self, capsys, workspace):
        text, obj = self.both(
            capsys, "select-metrics", "--corpus", workspace["corpus"], "--app", "web_serving"
        )
        header, *rows = text.splitlines()
        assert header == f"correlation vs performance (threshold {obj['threshold']:g})"
        marked = {row[2:].split()[0]: row[0] == "*" for row in rows}
        assert marked == {name: name in obj["selected"] for name in obj["rho"]}
        for row in rows:
            name, value = row[2:].split()[:2]
            assert float(value) == pytest.approx(obj["rho"][name], abs=5e-4)

    def test_predict_prints_each_report_and_error(self, capsys, workspace, tmp_path):
        lines = Path(workspace["corpus"]).read_text().splitlines()[:40]  # two apps
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(lines) + "\n")
        profiles = json.loads(Path(workspace["profiles"]).read_text())
        del profiles[json.loads(lines[0])["app_label"]]
        (tmp_path / "profiles.json").write_text(json.dumps(profiles))
        text, obj = self.both(
            capsys, "predict", "--corpus", str(corpus), "--db", workspace["db"],
            "--models", workspace["models"], "--profiles", str(tmp_path / "profiles.json"),
        )
        rows = obj["results"]
        assert any("error" in r for r in rows) and any("deg" in r for r in rows)
        assert text.splitlines() == [
            f"{r['session_id']}: {r['error']}" if "error" in r
            else f"{r['session_id']}: {r['label']} deg={r['deg']:.3f}"
            for r in rows
        ]

    def test_error_table_prints_a_row_per_app_and_split(self, capsys, workspace):
        text, obj = self.both(
            capsys, "evaluate", "--experiment", "error-table", "--corpus", workspace["corpus"],
            "--models", workspace["models"], "--profiles", workspace["profiles"],
        )
        header, *lines = text.splitlines()
        assert header.split() == ["App", "Split", "N", "mean%", "max%", "std%"]
        assert [line.split() for line in lines] == [
            [r["app"], r["split"], str(r["n"]),
             *(f"{r[k]:.2f}" for k in ("mean_pct", "max_pct", "std_pct"))]
            for r in obj["rows"]
        ]

    def test_experiment_prints_its_series_as_csv(self, capsys, workspace, tmp_path):
        corpus = _head(workspace["corpus"], tmp_path, 40)
        text, obj = self.both(
            capsys, "evaluate", "--experiment", "ablation", "--corpus", corpus,
            "--ref-counts", "1,2", "--min-test-sessions", "1",
        )
        series = obj["series"]
        assert text.splitlines() == ["accuracy_dtw,accuracy_truncate,ref_count"] + [
            f"{dtw:.9g},{truncate:.9g},{count}"
            for dtw, truncate, count in zip(
                series["accuracy_dtw"], series["accuracy_truncate"], series["ref_count"]
            )
        ]


    def test_tradeoff_prints_its_series_as_csv(self, capsys):
        text, obj = self.both(
            capsys, "evaluate", "--experiment", "tradeoff", "--hours", "2", "--duration-s", "60",
        )
        keys = sorted(obj["series"])
        assert keys == ["hours", "sessions", "test_mean_pct", "train_mean_pct", "val_mean_pct"]
        assert text.splitlines() == [",".join(keys)] + [
            ",".join(f"{v:.9g}" if isinstance(v, float) else str(v) for v in row)
            for row in zip(*(obj["series"][k] for k in keys))
        ]

    def test_timing_prints_nothing_on_stdout(self, capsys, workspace):
        argv = [
            "evaluate", "--experiment", "timing", "--corpus", workspace["corpus"],
            "--models", workspace["models"], "--profiles", workspace["profiles"],
            "--queries", "20",
        ]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (0, "")
        assert re.fullmatch(r"median predict \S+ us, degradation chain \S+ us\n", err)
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        summary = json.loads(out)["summary"]
        assert sorted(summary) == ["app", "bound_met", "bound_ms", "n_queries"]
        assert summary["app"] == "data_serving" and summary["n_queries"] == 20

    def test_timing_for_an_app_without_sessions_is_refused(self, capsys, workspace):
        code, out, err = run(
            capsys, "evaluate", "--experiment", "timing", "--corpus", workspace["corpus"],
            "--models", workspace["models"], "--profiles", workspace["profiles"],
            "--app", "nosuch",
        )
        assert (code, out) == (1, "")
        assert err == "ConfigInvalid: corpus has no sessions for app 'nosuch'\n"


class TestConfigFile:
    def test_env_config_supplies_defaults_and_flags_win(
        self, capsys, workspace, tmp_path, monkeypatch
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"corpus": workspace["corpus"], "json": True}))
        monkeypatch.setenv("CLOUDPROPHET_CONFIG", str(cfg_path))
        code, out, _ = run(capsys, "identify", "--db", workspace["db"])
        assert code == 0
        json.loads(out)

    def test_unknown_config_keys_rejected(self, capsys, workspace, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"corpus": workspace["corpus"], "bogus": 1}))
        monkeypatch.setenv("CLOUDPROPHET_CONFIG", str(cfg_path))
        code, _, err = run(capsys, "identify", "--db", workspace["db"])
        assert code == 1
        assert "ConfigInvalid" in err

    def test_config_of_every_key_with_valid_values_runs(self, capsys, workspace, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "corpus": workspace["corpus"], "db": workspace["db"], "models": workspace["models"],
            "profiles": "builtin", "out": str(tmp_path / "out.json"), "seed": 0,
            "threshold_corr": 0.5, "threshold_dtw": {"cpu_util_pct": 1}, "jobs": 1,
            "json": True, "format": "jsonl", "min_trace_len": 60,
        }))
        code, out, _ = run(capsys, "--config", str(cfg_path), "identify")
        assert code == 0
        json.loads(out)

    @pytest.mark.parametrize(
        "config, argv",
        [
            pytest.param({"seed": "abc"}, ["simulate", "--sessions", "1", "--duration-s", "10"],
                         id="seed-string"),
            pytest.param({"threshold_dtw": 5}, ["fingerprint"], id="threshold-dtw-number"),
            pytest.param({"threshold_dtw": {"cpu_util_pct": "x"}}, ["fingerprint"],
                         id="threshold-dtw-string-value"),
            pytest.param({"jobs": "two"}, ["identify"], id="jobs-string"),
            pytest.param({"min_trace_len": 1.5}, ["identify"], id="min-trace-len-float"),
            pytest.param({"seed": True}, ["simulate"], id="seed-bool"),
            pytest.param({"threshold_corr": "0.5"}, ["select-metrics", "--app", "web_serving"],
                         id="threshold-corr-string"),
            pytest.param({"json": 1}, ["identify"], id="json-number"),
            pytest.param({"format": "xml"}, ["identify"], id="format-unknown"),
            pytest.param({"db": 5}, ["identify"], id="db-number"),
        ],
    )
    def test_config_value_of_wrong_type_is_config_invalid(
        self, capsys, workspace, tmp_path, config, argv
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"corpus": workspace["corpus"], "db": workspace["db"],
                                        "out": str(tmp_path / "out"), **config}))
        code, _, err = run(capsys, "--config", str(cfg_path), *argv)
        assert code == 1
        assert err.startswith("ConfigInvalid: ")
        assert repr(next(iter(config))) in err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["evaluate", "--experiment", "ablation", "--ref-counts", "a"],
                         id="ref-counts"),
            pytest.param(["evaluate", "--experiment", "tradeoff", "--hours", "x"], id="hours"),
            pytest.param(["train", "--hidden-grid", "4,x"], id="hidden-grid"),
            pytest.param(["fingerprint", "--threshold-dtw", "cpu_util_pct=abc"],
                         id="threshold-dtw"),
            pytest.param(["fingerprint", "--threshold-dtw", "cpu_util=1"],
                         id="threshold-dtw-unknown-metric"),
            pytest.param(["fingerprint", "--refs-per-app", "0"], id="refs-per-app"),
            pytest.param(["fingerprint", "--threshold", "0"], id="threshold"),
            pytest.param(["simulate", "--seed", "-1"], id="seed"),
            pytest.param(["simulate", "--sessions", "1", "--outsider", "-1"], id="outsider"),
            pytest.param(["identify", "--jobs", "0"], id="jobs-zero"),
            pytest.param(["predict", "--jobs", "-3"], id="jobs-negative"),
            pytest.param(["identify", "--min-trace-len", "-5"], id="min-trace-len"),
            pytest.param(["select-metrics", "--app", "web_serving", "--threshold-corr", "nan"],
                         id="threshold-corr-nan"),
            pytest.param(["train", "--threshold-corr", "5"], id="threshold-corr-above-one"),
            pytest.param(["simulate", "--n-vms", "0"], id="n-vms"),
            pytest.param(["simulate", "--period-s", "0"], id="period-s"),
            pytest.param(["simulate", "--noise", "-1"], id="noise"),
            pytest.param(["simulate", "--perf-noise", "-0.5"], id="perf-noise"),
            pytest.param(["simulate", "--duration-s", "0"], id="duration-s"),
            pytest.param(["evaluate", "--experiment", "tradeoff", "--duration-s", "-1"],
                         id="evaluate-duration-s"),
        ],
    )
    def test_bad_flag_value_is_config_invalid(self, capsys, workspace, tmp_path, argv):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"corpus": workspace["corpus"],
                                        "models": str(tmp_path / "models"),
                                        "out": str(tmp_path / "out")}))
        code, _, err = run(capsys, "--config", str(cfg_path), *argv)
        assert code == 1
        assert err.startswith(f"ConfigInvalid: {argv[-2]} ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fingerprint", "--refs-per-app", "0"],
            ["train", "--hidden-grid", "4,x"],
            ["evaluate", "--experiment", "ablation", "--ref-counts", "a"],
            ["train", "--hidden-grid", "4,8x"],
            ["train", "--hidden-grid", "0"],
            ["train", "--max-epochs", "0"],
            ["evaluate", "--experiment", "timing", "--queries", "0"],
            ["fingerprint", "--metrics", "cpu_util_pct,bogus"],
            ["evaluate", "--experiment", "ablation", "--ref-counts", "0,1"],
            ["evaluate", "--experiment", "tradeoff", "--hours", "-5"],
            ["train", "--models", "/nonexistent/vmsight/models", "--apps", "bogus"],
            ["evaluate", "--experiment", "timing", "--queries", "1" * 40],
        ],
    )
    def test_bad_flag_is_reported_before_any_file_is_read(self, capsys, argv):
        code, _, err = run(capsys, *argv, "--corpus", MISSING)
        assert code == 1
        assert err.startswith(f"ConfigInvalid: {argv[-2]} ")
        # the message names the part of the value that is bad, as typed
        got = err.strip().rpartition(", got ")[2].strip("'")
        assert got and got in argv[-1]

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["simulate", "--sessions", "1"], "out"),
            (["fingerprint", "--corpus", MISSING], "out"),
            (["identify", "--corpus", MISSING], "db"),
            (["select-metrics", "--app", "web_serving"], "corpus"),
            (["train", "--corpus", MISSING], "models"),
            (["predict", "--corpus", MISSING], "db"),
            (["predict", "--corpus", MISSING, "--db", "db"], "models"),
            (["evaluate", "--experiment", "ablation"], "corpus"),
            (["evaluate", "--experiment", "timing", "--corpus", MISSING], "models"),
            (["evaluate", "--experiment", "error-table", "--corpus", MISSING], "models"),
        ],
    )
    def test_missing_path_is_reported_before_any_work(self, capsys, monkeypatch, argv, key):
        def called(*args, **kwargs):
            raise AssertionError("work done before the paths were checked")

        monkeypatch.setattr(tracemodel, "load_corpus", called)
        monkeypatch.setattr(simgen, "generate", called)
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith(f"ConfigInvalid: --{key} is required")

    @pytest.mark.parametrize("flag", ["--isolated", "--sessions"])
    def test_simulate_count_out_of_range_is_reported_before_any_session(
        self, capsys, monkeypatch, tmp_path, flag
    ):
        def called(*args, **kwargs):
            raise AssertionError("sessions generated before the flags were checked")

        monkeypatch.setattr(simgen, "generate", called)
        monkeypatch.setattr(simgen, "generate_isolated", called)
        value = "-1" if flag == "--isolated" else "0"
        code, _, err = run(capsys, "simulate", "--out", str(tmp_path / "c.jsonl"), flag, value)
        assert code == 1
        assert err.startswith(f"ConfigInvalid: {flag} ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--sessions", "1", "--duration-s", "10"]]
        + [[*command, "--corpus", MISSING] for command in (
            ["fingerprint"], ["identify"], ["select-metrics", "--app", "web_serving"], ["train"],
            ["predict"], ["evaluate", "--experiment", "ablation"],
        )],
    )
    def test_config_value_out_of_range_fails_every_subcommand(self, capsys, tmp_path, argv):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"jobs": 0}))
        code, _, err = run(capsys, "--config", str(cfg_path), *argv)
        assert code == 1
        assert err.startswith("ConfigInvalid: --jobs ")

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--n-vms", "1" + "0" * 23, "n_vms must lie in [1, 10000], got 1" + "0" * 23),
            ("--amp-gain", "1e308", "overflows a float"),
            ("--noise", "1e308", "overflows a float"),
            ("--perf-noise", "1e308", "performance overflows a float"),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_simulate_value_past_a_float_or_the_vm_cap_is_config_invalid(
        self, capsys, tmp_path, flag, value, message
    ):
        out = tmp_path / "c.jsonl"
        # of the first 4 sessions, two run kv_store, whose performance near 4e4
        # times any but a tiny noise draw at 1e308 overflows
        code, _, err = run(capsys, "simulate", "--sessions", "4", "--duration-s", "10",
                           flag, value, "--out", str(out))
        assert code == 1
        assert err.startswith("ConfigInvalid: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_config_replaces_built_in_default_and_flag_replaces_config(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 3}))
        config = ["--config", str(cfg_path)]

        def corpus(prefix=(), *flags):
            out = tmp_path / f"c{len(list(tmp_path.glob('*.jsonl')))}.jsonl"
            argv = [*prefix, "simulate", "--sessions", "1", "--duration-s", "10", *flags]
            assert main([*argv, "--out", str(out)]) == 0
            return out.read_bytes()

        assert corpus(config) == corpus((), "--seed", "3") != corpus()
        assert corpus(config, "--seed", "4") == corpus((), "--seed", "4") != corpus(config)

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["evaluate", "--experiment", "tradeoff", "--hours", "nan"],
                         id="hours-nan"),
            pytest.param(["evaluate", "--experiment", "tradeoff", "--hours", "inf"],
                         id="hours-inf"),
            pytest.param(["simulate", "--duration-s", "nan"], id="duration-s-nan"),
            pytest.param(["simulate", "--duration-s", "inf"], id="duration-s-inf"),
            pytest.param(["simulate", "--amp-gain", "nan"], id="amp-gain-nan"),
            pytest.param(["simulate", "--amp-gain", "-1"], id="amp-gain-negative"),
            pytest.param(["simulate", "--noise", "nan"], id="noise-nan"),
            pytest.param(["simulate", "--perf-noise", "inf"], id="perf-noise-inf"),
        ],
    )
    def test_non_finite_flag_value_is_config_invalid(self, capsys, tmp_path, argv):
        out = tmp_path / "out.jsonl"
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert code == 1
        assert err.startswith("ConfigInvalid: ")
        assert "Traceback" not in err
        assert not out.exists()


HUGE_INT = "1" * 5000  # over Python's 4,300-digit int conversion limit


def _profiles_case(write):
    def setup(ws, tmp):
        write(tmp / "p.json")
        return ["train", "--corpus", ws["corpus"], "--profiles", str(tmp / "p.json"),
                "--models", str(tmp / "m")]

    return setup


def _config_case(write, *argv):
    def setup(ws, tmp):
        write(tmp / "cfg.json")
        return ["--config", str(tmp / "cfg.json"), *(argv or ["identify", "--db", ws["db"]])]

    return setup


def _csv_corpus_case(corrupt):
    def setup(ws, tmp):
        corpus = tmp / "corpus"
        assert main(["simulate", "--out", str(corpus), "--format", "csv", "--sessions", "3",
                     "--duration-s", "10", "--seed", "1"]) == 0
        corrupt(corpus)
        return ["fingerprint", "--corpus", str(corpus), "--format", "csv",
                "--out", str(tmp / "db")]

    return setup


def _write(text):
    return lambda path: path.write_bytes(text if isinstance(text, bytes) else text.encode())


def _first(pattern, text):
    return lambda corpus: _write(text)(sorted(corpus.glob(pattern))[0])


def _jsonl_case(ws, tmp):
    (tmp / "c.jsonl").write_bytes(b"\xff\xfe{}\n")
    return ["fingerprint", "--corpus", str(tmp / "c.jsonl"), "--out", str(tmp / "db")]


class TestBadFiles:
    """Each bad input file ends in exit 1 with a typed error, not a traceback."""

    @pytest.mark.parametrize(
        "setup, error",
        [
            pytest.param(_profiles_case(_write('{"a": ' + HUGE_INT + "}")), "ParseError",
                         id="profiles-huge-int"),
            pytest.param(_profiles_case(_write("[]")), "ParseError", id="profiles-list"),
            pytest.param(_profiles_case(_write('{"data_serving": []}')), "ParseError",
                         id="profiles-entry-list"),
            pytest.param(_profiles_case(lambda path: path.mkdir()), "IoError",
                         id="profiles-dir"),
            pytest.param(_profiles_case(_write("[" * 100000)), "ParseError",
                         id="profiles-deep-nesting"),
            pytest.param(_config_case(_write('{"seed": ' + HUGE_INT + "}")), "ConfigInvalid",
                         id="config-huge-int"),
            pytest.param(
                _config_case(_write('{"threshold_corr": ' + "1" * 401 + "}"),
                             "select-metrics", "--app", "web_serving"),
                "ConfigInvalid",
                id="config-huge-threshold-corr",
            ),
            pytest.param(_config_case(_write("5")), "ConfigInvalid", id="config-number"),
            pytest.param(_config_case(lambda path: path.mkdir()), "ConfigInvalid",
                         id="config-dir"),
            pytest.param(_jsonl_case, "ParseError", id="jsonl-bad-utf8"),
            pytest.param(
                _csv_corpus_case(_first("*.csv", b"t,cpu_util_pct\n\xff,1\n")),
                "ParseError",
                id="csv-bad-utf8",
            ),
            pytest.param(
                _csv_corpus_case(_first(
                    "*.meta.json",
                    '{"app_label": null, "workload_level": null, "performance": null, '
                    '"interference_level": ' + HUGE_INT + "}"
                )),
                "ParseError",
                id="sidecar-huge-int",
            ),
            pytest.param(_csv_corpus_case(_first("*.meta.json", "5")), "ParseError",
                         id="sidecar-number"),
            pytest.param(
                lambda ws, tmp: ["select-metrics", "--corpus", ws["corpus"],
                                 "--app", "web_serving", "--out", str(tmp)],
                "IoError",
                id="out-dir",
            ),
        ],
    )
    def test_bad_file_is_a_typed_error(self, capsys, workspace, tmp_path, setup, error):
        argv = setup(workspace, tmp_path)
        capsys.readouterr()
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith(f"{error}: ")

    @pytest.mark.parametrize("native", [True, False], ids=["c-parser", "json"])
    @pytest.mark.parametrize("command", ["fingerprint", "identify"])
    def test_zero_period_names_the_line(self, capsys, monkeypatch, workspace, tmp_path,
                                        command, native):
        lines = Path(workspace["corpus"]).read_text().splitlines()[:3]
        lines[1] = re.sub(r'"period_s": [^,]+', '"period_s": 0', lines[1])
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("\n".join(lines) + "\n")
        if not native:
            monkeypatch.setattr(tracemodel, "_line_parser", lambda: None)
        where = ["--out", str(tmp_path / "db")] if command == "fingerprint" else [
            "--db", workspace["db"]]
        code, _, err = run(capsys, command, "--corpus", str(corpus), *where)
        assert code == 1
        assert err == "ParseError: c.jsonl:2: period_s must be positive, got 0.0\n"


class TestDeterminism:
    def test_train_jobs_writes_the_same_tree(self, capsys, workspace, monkeypatch):
        train, calls, trees = degrade.train, [], {}

        def spy(*args):
            calls.append((jobs, os.getpid()))  # jobs: the run this call belongs to
            return train(*args)

        monkeypatch.setattr(degrade, "train", spy)
        for jobs in ("1", "2"):
            models = workspace["root"] / f"models-jobs{jobs}"
            code, _, err = run(capsys, "train", "--corpus", workspace["corpus"],
                               "--profiles", workspace["profiles"], "--models", str(models),
                               "--hidden-grid", "16,24", "--max-epochs", "5", "--jobs", jobs)
            assert code == 0, err
            trees[jobs] = {p.relative_to(models): p.read_bytes()
                           for p in sorted(models.rglob("*.json"))}
        # 2 widths for each of 9 nets, every one trained in this process
        assert calls == [("1", os.getpid())] * 18 + [("2", os.getpid())] * 18
        assert len(trees["1"]) == 9 and trees["1"] == trees["2"]

    def test_simulate_rerun_byte_identical(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        for path in (a, b):
            assert (
                main(
                    ["simulate", "--out", path, "--sessions", "25",
                     "--duration-s", "60", "--seed", "3"]
                )
                == 0
            )
        capsys.readouterr()
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_select_metrics_rerun_identical(self, capsys, workspace):
        args = (
            "select-metrics", "--corpus", workspace["corpus"],
            "--app", "web_serving", "--target", "workload", "--json",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2 and json.loads(out1)["target"] == "workload"



BIG = "1" * 400
# hostile values: text, negative, zero, non-finite, a 400-digit integer either
# way, and out of [0, 1]
HOSTILE = ["abc", "-1", "0", "nan", "inf", BIG, "-" + BIG, "1.5", "-0.5"]
# every bounded scalar flag: its argparse type and the values it accepts
BOUNDED = {
    "--seed": (int, lambda v: v >= 0),
    "--jobs": (int, lambda v: v >= 1),
    "--min-trace-len": (int, lambda v: v >= 0),
    "--outsider": (int, lambda v: v >= 0),
    "--isolated": (int, lambda v: v >= 0),
    "--sessions": (int, lambda v: v >= 1),
    "--refs-per-app": (int, lambda v: v >= 1),
    "--threshold": (float, lambda v: v > 0),
    "--amp-gain": (float, lambda v: v > 0),
    "--threshold-corr": (float, lambda v: 0 <= v <= 1),
    "--max-epochs": (int, lambda v: v >= 1),
    "--queries": (int, lambda v: 1 <= v <= MAX_QUERIES),
    "--min-test-sessions": (int, lambda v: v >= 1),
    "--n-vms": (int, lambda v: v >= 1),
    "--duration-s": (float, lambda v: v > 0),
    "--period-s": (float, lambda v: v > 0),
    "--noise": (float, lambda v: v >= 0),
    "--perf-noise": (float, lambda v: v >= 0),
}
# every list flag, the type of its items and the values they accept
LISTS = {"--hours": (float, lambda v: v > 0), "--ref-counts": (int, lambda v: v >= 1),
         "--hidden-grid": (int, lambda v: v >= 1)}
# cheap values each flag accepts
VALID = {
    "--seed": ["0", "7", BIG], "--jobs": ["1", "2"], "--min-trace-len": ["0", "60"],
    "--outsider": ["0", "1"], "--isolated": ["0", "1"], "--sessions": ["1", "2"],
    "--refs-per-app": ["1", "4", BIG], "--threshold": ["0.5", "1e300"],
    "--amp-gain": ["0.5", "1"], "--threshold-corr": ["0", "0.3", "1"], "--hours": ["10,20"],
    "--ref-counts": ["1,4"], "--hidden-grid": ["8", "16x8", "4,8x8"],
    "--threshold-dtw": ["cpu_util_pct=2.5"], "--max-epochs": ["1", "200"],
    "--queries": ["1", "2000"], "--min-test-sessions": ["1", "100"],
    "--n-vms": ["1", "5"], "--duration-s": ["10", "20"], "--period-s": ["1", "2"],
    "--noise": ["0", "1"], "--perf-noise": ["0", "0.01"],
}
_INPUTS = {"corpus": ["--corpus", MISSING], "db": ["--db", "/nonexistent/vmsight/db"],
           "models": ["--models", "/nonexistent/vmsight/models"],
           "out": ["--out", "/nonexistent/vmsight/out"]}
# each subcommand's argv, which reads only missing paths or simulates a few
# 10 s sessions, and its numeric flags
COMMANDS = {
    "simulate": (["simulate", "--sessions", "1", "--duration-s", "10"],
                 ["--seed", "--amp-gain", "--outsider", "--isolated", "--sessions", "--n-vms",
                  "--duration-s", "--period-s", "--noise", "--perf-noise"]),
    "fingerprint": (["fingerprint", *_INPUTS["corpus"], *_INPUTS["out"]],
                    ["--refs-per-app", "--threshold", "--threshold-dtw"]),
    "identify": (["identify", *_INPUTS["corpus"], *_INPUTS["db"]],
                 ["--jobs", "--min-trace-len"]),
    "select-metrics": (["select-metrics", "--app", "web_serving", *_INPUTS["corpus"]],
                       ["--threshold-corr"]),
    "train": (["train", *_INPUTS["corpus"], *_INPUTS["models"]],
              ["--seed", "--threshold-corr", "--hidden-grid", "--max-epochs", "--jobs"]),
    "predict": (["predict", *_INPUTS["corpus"], *_INPUTS["db"], *_INPUTS["models"]],
                ["--jobs"]),
    **{
        f"evaluate {experiment}": (
            ["evaluate", "--experiment", experiment, *_INPUTS["corpus"], *_INPUTS["models"]],
            ["--seed", "--hours", "--ref-counts", "--threshold-dtw", "--queries",
             "--min-test-sessions", "--duration-s"],
        )
        for experiment in ("ablation", "tradeoff", "timing", "error-table")
    },
}
# config keys that are bounded scalars, their flags, and the values drawn for them
CONFIG_FLAGS = {"seed": "--seed", "jobs": "--jobs", "min_trace_len": "--min-trace-len",
                "threshold_corr": "--threshold-corr"}
CONFIG_HOSTILE = ["abc", -1, 0, 1, 2, float("nan"), float("inf"), 10**400, -(10**400), 1.5, -0.5]
CONFIG_VALID = {"seed": [0, 7], "jobs": [1, 2], "min_trace_len": [0, 60],
                "threshold_corr": [0, 0.3, 1]}


def _accepts(kind, text, ok=lambda v: True) -> bool:
    try:
        value = kind(text)
    except ValueError:
        return False
    return (kind is int or math.isfinite(value)) and ok(value)


def _verdict(flag, text) -> str:
    """'usage' if argparse rejects ``text`` for ``flag`` (exit 2), 'invalid'
    if it is outside the flag's bounds or is not a list of its items, else
    'ok'."""
    if flag in BOUNDED:
        kind, ok = BOUNDED[flag]
        try:
            kind(text)
        except ValueError:
            return "usage"
        return "ok" if _accepts(kind, text, ok) else "invalid"
    if flag == "--threshold-dtw":
        _, eq, number = text.partition("=")
        return "ok" if eq and _accepts(float, number, lambda v: v > 0) else "invalid"
    items = re.split("[,x]", text) if flag == "--hidden-grid" else text.split(",")
    kind, ok = LISTS[flag]
    return "ok" if all(_accepts(kind, item, ok) for item in items) else "invalid"


def _config_verdict(key, value) -> str:
    """'type' if the config file's type check rejects ``value``, else its
    verdict as the text of the key's flag."""
    kinds = (int, float) if key == "threshold_corr" else int
    return _verdict(CONFIG_FLAGS[key], str(value)) if isinstance(value, kinds) else "type"


def _hostile(flag) -> list:
    if flag == "--threshold-dtw":
        return [f"cpu_util_pct={v}" for v in HOSTILE] + ["cpu_util_pct"]
    return HOSTILE


class TestEveryFlag:
    def test_every_numeric_flag_takes_its_type_and_default_from_bounds(self):
        """Each int or float flag of every subcommand has a _BOUNDS entry of
        its type, whose default it takes, and each entry has a flag."""
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        used = set()
        for command, p in sub.choices.items():
            for action in p._actions:
                if action.type not in (int, float):
                    continue
                where = f"{command} {action.option_strings[0]}"
                assert action.dest in _BOUNDS, where
                kind, _, default = _BOUNDS[action.dest]
                assert action.type is kind, where
                assert action.default == default, where
                used.add(action.dest)
        assert used == set(_BOUNDS)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_flag_is_settled_before_any_file_is_read(self, data):
        """A subcommand with each numeric flag and config key absent or valid,
        but for at most one that gets a hostile value: that value alone decides
        the outcome, before any input is read, and nothing ends in a
        traceback."""
        name = data.draw(st.sampled_from(sorted(COMMANDS)), label="command")
        argv, numeric = COMMANDS[name]
        # tradeoff runs an experiment unless a value is bad: give it one bad value only
        tradeoff = name == "evaluate tradeoff"
        targets = [*numeric, *CONFIG_FLAGS] if tradeoff else [None, *numeric, *CONFIG_FLAGS]
        target = data.draw(st.sampled_from(targets), label="hostile")

        def draw(pool, verdict, label):
            # a valid hostile value only where it stays cheap: no valid --jobs
            # above 2, and nothing valid for simulate (but its listed values) or tradeoff
            if name == "simulate" or tradeoff or label in ("--jobs", "jobs"):
                pool = [v for v in pool if verdict(v) != "ok"]
            by_verdict = {}
            for value in pool:
                by_verdict.setdefault(verdict(value), []).append(value)
            kind = data.draw(st.sampled_from(sorted(by_verdict)), label=f"{label} verdict")
            return data.draw(st.sampled_from(by_verdict[kind]), label=label)

        flags, config = {}, {}
        for flag in numeric:
            if flag == target:
                flags[flag] = draw(_hostile(flag), partial(_verdict, flag), flag)
            elif not tradeoff:
                flags[flag] = data.draw(st.sampled_from([None, *VALID[flag]]), label=flag)
        for key in CONFIG_FLAGS:
            if key == target:
                config[key] = draw(CONFIG_HOSTILE, partial(_config_verdict, key), key)
            elif not tradeoff:
                config[key] = data.draw(st.sampled_from([None, *CONFIG_VALID[key]]), label=key)
        flags = {k: v for k, v in flags.items() if v is not None}
        config = {k: v for k, v in config.items() if v is not None}

        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = os.path.join(tmp, "cfg.json")
            with open(cfg_path, "w") as fh:
                json.dump(config, fh)
            full = ["--config", cfg_path, *argv, *itertools.chain(*flags.items())]
            if name == "simulate":
                full += ["--out", os.path.join(tmp, "c.jsonl")]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(full)
        err = err.getvalue()

        assert "Traceback" not in err
        verdict, flag = "ok", target
        if target in flags:
            verdict = _verdict(target, flags[target])
        elif target in config:
            verdict, flag = _config_verdict(target, config[target]), CONFIG_FLAGS[target]
            if verdict == "invalid" and flag in flags:
                verdict = "ok"  # the subcommand's valid flag wins over the config
        if verdict == "usage":
            assert code == 2
        elif verdict == "type":
            assert code == 1 and err.startswith("ConfigInvalid: ") and repr(target) in err
        elif verdict == "invalid":
            assert code == 1 and err.startswith(f"ConfigInvalid: {flag} "), err
        elif name == "simulate":
            assert code == 0, err
        else:
            assert code == 1 and err.startswith("IoError: "), err
