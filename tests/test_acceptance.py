"""Acceptance criteria, one test per criterion.

Each test prints a `[criterion N] name: PASS/FAIL` line (run pytest with -s
or -v to watch them).  Targets on synthetic corpora are scored against the
generator's constructive ground truth; tolerances are fixed here and never
loosened at run time.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import brute_force_dtw_cost, least_squares_max_error_pct, two_pass_pearson
from vmsight.degrade import (
    evaluate_degradation,
    fit_models_for_corpus,
    predict_degradation,
    profiles_for_templates,
)
from vmsight.evaluate import run_ablation_dtw, run_sampling_tradeoff, run_timing
from vmsight.identify import UNKNOWN, _dtw, _pad, build_fingerprint_db, identify
from vmsight.neural import (
    Purpose,
    TrainConfig,
    _activations,
    _init_layers,
    _jacobian,
    _pack,
    _unpack,
)
from vmsight.select import pearson
from vmsight.simgen import (
    ScenarioConfig,
    default_templates,
    generate,
    generate_isolated,
    ground_truth_degradation,
    outsider_template,
    render_session,
)
from vmsight.tracemodel import CPU_UTIL


def report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:>2}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# heavyweight shared artifacts
# ---------------------------------------------------------------------------

ID_DURATION = 180.0
TRAIN_DURATION = 300.0


@pytest.fixture(scope="module")
def id_setup(templates):
    """Fingerprint pool + exactly 500 held-out sessions for identification."""
    corpus = generate(
        ScenarioConfig(session_duration_s=ID_DURATION, rng_seed=42), templates, 560
    )
    probe = build_fingerprint_db(corpus, [CPU_UTIL], 4)
    reserved = set(probe.source_session_ids)
    held = [r for r in corpus if r.session_id not in reserved][:500]
    kept_ids = reserved | {r.session_id for r in held}
    return [r for r in corpus if r.session_id in kept_ids]


@pytest.fixture(scope="module")
def train_setup(templates, profiles):
    cfg = ScenarioConfig(session_duration_s=TRAIN_DURATION, rng_seed=1001)
    corpus = generate(cfg, templates, 700) + generate_isolated(cfg, templates, 32)
    store = fit_models_for_corpus(
        corpus, profiles, cfg=TrainConfig(rng_seed=0, max_epochs=150)
    )
    truth = {r.session_id: ground_truth_degradation(r, templates) for r in corpus}
    return corpus, store, truth


def test_criterion_01_dtw_oracle_equivalence():
    """Exact cost equality with brute-force path enumeration."""

    def check_pairs(traces):
        # each trace against itself and every later one, in one kernel call
        n = 0
        for a, p in enumerate(traces):
            costs, _ = _dtw(np.array(p), *_pad([np.array(q) for q in traces[a:]]))
            for q, got in zip(traces[a:], costs):
                want = brute_force_dtw_cost(p, q)
                assert got == want, (p, q, got, want)
                n += 1
        return n

    # every pair of binary traces through length 6, exhaustively
    binary = [
        t for n in range(2, 7) for t in itertools.product((0.0, 1.0), repeat=n)
    ]
    checked = check_pairs(binary)
    # every pair of ternary traces through length 4
    ternary = [
        t for n in range(2, 5) for t in itertools.product((0.0, 1.0, 2.0), repeat=n)
    ]
    checked += check_pairs(ternary)
    # seeded sample of length-6 pairs over a wider alphabet
    rng = np.random.default_rng(2024)
    for _ in range(400):
        p = rng.integers(0, 4, 6).astype(float)
        q = rng.integers(0, 4, int(rng.integers(2, 7))).astype(float)
        got = _dtw(p, *_pad([q]))[0][0]
        assert got == brute_force_dtw_cost(list(p), list(q))
        checked += 1
    report(1, "DTW oracle equivalence", True, f"{checked} pairs, exact")


def _identification_accuracies(corpus, ref_counts):
    result = run_ablation_dtw(corpus, ref_counts, min_test_sessions=500)
    return result


def test_criterion_02_identification_accuracy(id_setup):
    result = _identification_accuracies(id_setup, [1, 4])
    acc = dict(zip(result.series["ref_count"], result.series["accuracy_dtw"]))
    trunc = dict(zip(result.series["ref_count"], result.series["accuracy_truncate"]))
    ok = (
        acc[4] >= 0.95
        and acc[1] >= 0.90
        and all(acc[c] > trunc[c] for c in (1, 4))
    )
    report(
        2,
        "identification accuracy and DTW ablation",
        ok,
        f"dtw@1={acc[1]:.3f} dtw@4={acc[4]:.3f} trunc@1={trunc[1]:.3f} trunc@4={trunc[4]:.3f}",
    )


def test_criterion_03_unknown_rejection(id_setup, templates):
    db = build_fingerprint_db(id_setup, [CPU_UTIL], 4)
    outsider = outsider_template()
    cfg = ScenarioConfig(session_duration_s=ID_DURATION, rng_seed=77)
    rng = np.random.default_rng(77)
    rejected = 0
    n = 100
    for i in range(n):
        record = render_session(
            outsider, cfg, f"out{i:03d}", None, float(rng.uniform(0.0, 0.9)), rng
        )
        rejected += identify(record.traces, db).label == UNKNOWN
    report(3, "unknown-application rejection", rejected / n >= 0.90, f"{rejected}/{n}")


def test_criterion_04_pearson_oracle():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 60))
        a = rng.normal(0, 10, k)
        b = rng.normal(0, 10, k) + float(rng.normal(0, 1)) * a
        if np.std(a) == 0 or np.std(b) == 0:
            continue
        worst = max(worst, abs(pearson(a, b) - two_pass_pearson(list(a), list(b))))
    assert worst <= 1e-12
    # exact symmetry and affine invariance on dyadic-friendly data
    for trial in range(50):
        k = 16
        a = list(rng.integers(-50, 50, k).astype(float))
        b = list(rng.integers(-50, 50, k).astype(float))
        if len(set(a)) == 1 or len(set(b)) == 1:
            continue
        assert pearson(a, b) == pearson(b, a)
        assert pearson([2.0 * v + 1.0 for v in a], b) == pearson(a, b)
        assert pearson([-0.5 * v + 3.0 for v in a], b) == -pearson(a, b)
    report(4, "Pearson oracle agreement", True, f"worst |delta| {worst:.2e}")


def test_criterion_05_gradient_check():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 5))
        hidden = [int(h) for h in rng.integers(1, 7, size=int(rng.integers(1, 3)))]
        dims = [d, *hidden, 1]
        theta = _pack(_init_layers(rng, dims))
        x = rng.normal(0, 1, (int(rng.integers(5, 25)), d))
        y = rng.normal(0, 1, x.shape[0])
        layers = _unpack(theta, dims)
        analytic = _jacobian(layers, _activations(layers, x))
        eps = 1e-6
        numeric = np.empty_like(analytic)
        for p in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[p] += eps
            down[p] -= eps
            r_up = _activations(_unpack(up, dims), x)[-1][0] - y
            r_dn = _activations(_unpack(down, dims), x)[-1][0] - y
            numeric[:, p] = (r_up - r_dn) / (2 * eps)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        worst = max(worst, rel)
    report(5, "LM Jacobian vs finite differences", worst <= 1e-4, f"worst rel {worst:.2e}")


def _degradation_bounds_ok(table, profiles):
    failures = []
    for row in table.rows:
        if row["split"] != "test":
            continue
        bound = 10.0 if profiles[row["app"]].variable_workload else 3.0
        if row["mean_pct"] > bound:
            failures.append((row["app"], row["mean_pct"], bound))
    return failures


def test_criterion_06_degradation_accuracy(train_setup, profiles):
    corpus, store, truth = train_setup
    table = evaluate_degradation(corpus, profiles, store, truth)
    failures = _degradation_bounds_ok(table, profiles)
    detail = "; ".join(
        f"{r['app']} test {r['mean_pct']:.2f}%" for r in table.rows if r["split"] == "test"
    )
    report(6, "degradation error table", not failures, detail)


def test_criterion_07_workload_neutrality(train_setup, profiles, templates):
    _, store, _ = train_setup
    cfg = ScenarioConfig(session_duration_s=TRAIN_DURATION, rng_seed=2024)
    sessions = generate_isolated(cfg, templates, 60, id_prefix="wn")
    within = 0
    perf_span = {}
    for record in sessions:
        result = predict_degradation(
            record.traces, None, profiles, store,
            session_id=record.session_id, label=record.app_label,
        )
        within += 0.9 <= result.deg <= 1.1
        perf_span.setdefault(record.app_label, []).append(record.performance)
    share = within / len(sessions)
    spans = {
        app: max(v) / min(v)
        for app, v in perf_span.items()
        if profiles[app].variable_workload
    }
    ok = share >= 0.95 and all(s >= 2.0 for s in spans.values())
    report(
        7,
        "workload-variation neutrality",
        ok,
        f"{share:.1%} in [0.9,1.1]; perf spans " + ", ".join(f"{a}={s:.2f}x" for a, s in spans.items()),
    )


def test_criterion_08_portability_rerun(templates):
    # a "new server": shifted amplitudes, fresh seeds, full pipeline rerun
    shifted = default_templates(amplitude_gain=1.15)
    shifted_profiles = profiles_for_templates(shifted)

    id_corpus = generate(
        ScenarioConfig(session_duration_s=ID_DURATION, rng_seed=4242), shifted, 560
    )
    probe = build_fingerprint_db(id_corpus, [CPU_UTIL], 4)
    reserved = set(probe.source_session_ids)
    held = [r for r in id_corpus if r.session_id not in reserved][:500]
    kept = reserved | {r.session_id for r in held}
    result = run_ablation_dtw(
        [r for r in id_corpus if r.session_id in kept], [1, 4], min_test_sessions=500
    )
    acc = dict(zip(result.series["ref_count"], result.series["accuracy_dtw"]))
    trunc = dict(zip(result.series["ref_count"], result.series["accuracy_truncate"]))
    id_ok = acc[4] >= 0.95 and acc[1] >= 0.90 and all(acc[c] > trunc[c] for c in (1, 4))

    cfg = ScenarioConfig(session_duration_s=TRAIN_DURATION, rng_seed=5001)
    corpus = generate(cfg, shifted, 700) + generate_isolated(cfg, shifted, 32)
    store = fit_models_for_corpus(
        corpus, shifted_profiles, cfg=TrainConfig(rng_seed=1, max_epochs=150)
    )
    truth = {r.session_id: ground_truth_degradation(r, shifted) for r in corpus}
    table = evaluate_degradation(corpus, shifted_profiles, store, truth)
    failures = _degradation_bounds_ok(table, shifted_profiles)
    report(
        8,
        "portability rerun (new-server analogue)",
        id_ok and not failures,
        f"dtw@1={acc[1]:.3f} dtw@4={acc[4]:.3f}, degradation bounds "
        + ("ok" if not failures else str(failures)),
    )


def test_criterion_09_sampling_knee(templates):
    result = run_sampling_tradeoff(
        ScenarioConfig(rng_seed=3),
        templates,
        [10, 20, 40, 80, 160],
        app="data_serving",
        train_cfg=TrainConfig(rng_seed=0, max_epochs=150),
    )
    test_err = result.series["test_mean_pct"]
    monotone = all(later <= earlier + 2.0 for earlier, later in zip(test_err, test_err[1:]))
    final_gain = test_err[-2] - test_err[-1]
    ok = monotone and final_gain < 1.0
    report(
        9,
        "sampling-time knee",
        ok,
        "err% " + " -> ".join(f"{e:.2f}" for e in test_err) + f", final gain {final_gain:.2f}",
    )


def test_criterion_10_inference_latency(train_setup, profiles):
    corpus, store, _ = train_setup
    sample = next(r for r in corpus if r.app_label == "data_serving")
    result = run_timing(store, profiles, sample, n_queries=5000)
    summary = result.to_obj(include_volatile=True)["summary"]
    report(
        10,
        "inference latency bound",
        summary["bound_met"],
        f"predict {summary['median_predict_us']:.1f} us, "
        f"degradation {summary['median_degradation_us']:.1f} us (bound 1 ms)",
    )


def test_headline_worst_error_under_half_a_linear_baseline(train_setup):
    """The paper's headline claim: more than 2x lower worst prediction error
    than an existing method, here least squares on every metric mean, fit on
    each performance net's train and val sessions and scored on its test ones."""
    corpus, store, _ = train_setup
    pairs = {}
    for app in store.apps():
        fit = store.report(app, Purpose.PERFORMANCE)
        ids = fit.split_ids
        baseline = least_squares_max_error_pct(corpus, ids["train"] + ids["val"], ids["test"])
        pairs[app] = (fit.errors["test"]["max"], baseline)
    net, baseline = (max(pair[i] for pair in pairs.values()) for i in (0, 1))
    detail = ", ".join(f"{app} {n:.2f} vs {b:.2f}" for app, (n, b) in sorted(pairs.items()))
    print(f"test max error %, net vs least squares: {detail}; worst {net:.2f} vs {baseline:.2f}")
    assert baseline >= 2 * net, detail


@pytest.fixture()
def env():
    clean = dict(os.environ)
    clean.pop("CLOUDPROPHET_CONFIG", None)
    return clean


class TestCriterion11Determinism:
    """Every CLI subcommand rerun with identical seeds emits identical bytes."""

    def cli(self, env, *argv):
        proc = subprocess.run(
            [sys.executable, "-m", "vmsight.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_all_subcommands_byte_identical(self, tmp_path, env):
        base = tmp_path
        outputs = {}
        for run_id in ("a", "b"):
            d = base / run_id
            d.mkdir()
            corpus = str(d / "corpus.jsonl")
            profiles = str(d / "profiles.json")
            db = str(d / "db")
            models = str(d / "models")
            out = {}
            self.cli(
                env, "simulate", "--out", corpus, "--sessions", "120",
                "--duration-s", "120", "--seed", "11", "--isolated", "22",
                "--profiles-out", profiles,
            )
            out["simulate"] = Path(corpus).read_bytes() + Path(profiles).read_bytes()
            self.cli(
                env, "fingerprint", "--corpus", corpus, "--out", db,
                "--refs-per-app", "2",
            )
            out["fingerprint"] = Path(db, "db.json").read_bytes()
            out["identify"] = self.cli(
                env, "identify", "--corpus", corpus, "--db", db, "--json"
            )
            out["select-metrics"] = self.cli(
                env, "select-metrics", "--corpus", corpus, "--app", "web_serving",
                "--target", "workload", "--json",
            )
            out["train"] = self.cli(
                env, "train", "--corpus", corpus, "--profiles", profiles,
                "--models", models, "--seed", "0", "--max-epochs", "60", "--json",
            )
            out["train-files"] = b"".join(
                Path(root, f).read_bytes()
                for root, _, files in sorted(os.walk(models))
                for f in sorted(files)
            )
            out["predict"] = self.cli(
                env, "predict", "--corpus", corpus, "--db", db, "--models", models,
                "--profiles", profiles, "--json",
            )
            out["evaluate-ablation"] = self.cli(
                env, "evaluate", "--experiment", "ablation", "--corpus", corpus,
                "--ref-counts", "1", "--min-test-sessions", "50", "--json",
            )
            out["evaluate-timing"] = self.cli(
                env, "evaluate", "--experiment", "timing", "--corpus", corpus,
                "--models", models, "--profiles", profiles, "--queries", "200",
                "--app", "data_serving", "--json",
            )
            out["evaluate-error-table"] = self.cli(
                env, "evaluate", "--experiment", "error-table", "--corpus", corpus,
                "--models", models, "--profiles", profiles, "--json",
            )
            out["evaluate-tradeoff"] = self.cli(
                env, "evaluate", "--experiment", "tradeoff", "--hours", "4,8",
                "--duration-s", "60", "--seed", "2", "--json",
            )
            outputs[run_id] = out
        mismatched = [
            key for key in outputs["a"] if outputs["a"][key] != outputs["b"][key]
        ]
        report(
            11,
            "CLI determinism",
            not mismatched,
            f"{len(outputs['a'])} subcommand outputs compared"
            + (f"; mismatched: {mismatched}" if mismatched else ""),
        )
