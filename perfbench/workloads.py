"""The benchmark's workloads, their correctness gate and their metrics.

Both workloads are one process, one caller and a closed loop: the next
call starts only when the previous one has returned.

* ``triage_mixed``: sessions of 180 s (criterion 02's length) go one at a
  time through ``predict_degradation`` with identification on, against a
  fingerprint DB of 4 references per app on 3 metrics (cpu_util_pct,
  llc_misses, net_tx_bytes with the bundled thresholds); one session in four
  comes from an application the DB has never seen.  DTW is nearly all of
  the work, with the cross-metric vote and rejection by threshold (which
  skips the prediction chain) on the same path, so a DTW-kernel change
  shows here, as does one that speeds matching but slows rejection.
* ``rebuild``: ``vmsight fingerprint`` then ``vmsight train --hidden-grid``,
  in-process, on a JSONL corpus of criterion 06's shape.  Corpus parsing
  and LM training dominate and no DTW runs on the timed path, so IO and
  training changes show here and DTW changes must not.

A single-metric ``triage`` workload of known applications only is left out:
its calls of ~60-100 ms flip between the two speeds this class of shared
machine runs at, so its median moved by more than any allowed bound between
runs, while the 3-metric calls average over those flips.

``triage_mixed`` sets up the way a deployment does: simulate a reference
corpus, save it, fingerprint and train through the CLI, then load the DB and
the models back.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from vmsight import cli, degrade, neural, simgen, tracemodel
from vmsight.errors import UnknownApplication, VmsightError
from vmsight.identify import DEFAULT_METRIC_THRESHOLDS, UNKNOWN

from tracing import NullTracer, Tracer

# the package exports a function named identify, which hides the module
identify_mod = importlib.import_module("vmsight.identify")

QUERY_S = 180.0  # criterion 02's session length
TRAIN_S = 300.0  # criterion 06's session length
MIXED_METRICS = ("cpu_util_pct", "llc_misses", "net_tx_bytes")
REBUILD_GRID = "4,8,16,8x8"  # vmsight train --hidden-grid, parsed below as the CLI does
REBUILD_HIDDEN_GRID = [tuple(int(h) for h in w.split("x")) for w in REBUILD_GRID.split(",")]

# Floors the acceptance suite pins: criterion 02 (accuracy at 4 references),
# criterion 03 (rejection) and criterion 06 (per-app mean degradation error).
ID_FLOOR = 0.95
REJECT_FLOOR = 0.90
DEG_FLOOR_PCT = {True: 10.0, False: 3.0}  # keyed by variable_workload

# Every run reports every end-to-end metric, so they are named for what both
# workloads share: an "op" is one triage call or one whole rebuild, and
# sessions_per_s counts the sessions triaged, or the corpus sessions rebuilt,
# per second of op time.  A rebuild run holds too few ops for ten to lie
# beyond its p90, which there is an upper-tail estimate from a few samples.
# Quality figures are deterministic per seed; they are printed on the line
# before the result and enforced by the correctness gate, not bounded here.
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "sessions_per_s": "1/s",
    "peak_rss_mb": "MB",
}

LAYERS = ("identify", "degrade", "neural", "select", "tracemodel", "simgen", "cli")

PER_LAYER_UNITS = {
    "identify.call_ms": "ms",
    "identify.single_ms": "ms",
    "identify.dtw_pairs": "count",
    "identify.dp_cells": "count",
    "identify.ns_per_cell": "ns",
    "identify.build_db_ms": "ms",
    "identify.save_db_ms": "ms",
    "identify.load_db_ms": "ms",
    "degrade.chain_us": "us",
    "degrade.fit_s": "s",
    "degrade.models_save_ms": "ms",
    "degrade.models_load_ms": "ms",
    "neural.train_calls": "count",
    "neural.train_ms": "ms",
    "neural.epochs": "count",
    "neural.ms_per_epoch": "ms",
    "neural.predict_us": "us",
    "select.rank_calls": "count",
    "select.rank_ms": "ms",
    "tracemodel.load_corpus_s": "s",
    "tracemodel.corpus_mb": "MB",
    "tracemodel.load_mb_per_s": "MB/s",
    "simgen.generate_s": "s",
    "cli.fingerprint_s": "s",
    "cli.train_s": "s",
    "cli.self_s": "s",
    **{f"{layer}.self_share": "share" for layer in LAYERS},
    "trace.uncovered_share": "share",
    "trace.overhead_pct": "%",
}


@dataclass(frozen=True)
class Size:
    setup_repeats: int  # set-ups per run; setup_s is their median
    ref_sessions: int  # colocated sessions in the triage reference corpus
    ref_iso_per_app: int
    rebuild_sessions: int  # colocated sessions in the rebuild corpus
    rebuild_iso_per_app: int
    min_ops: int  # sessions every triage pass serves; quality and counts use them
    chunk: int  # query sessions generated at a time
    eval_sessions: int  # rebuild: held-out sessions predicted by both model sets
    id_checks: int  # rebuild: sessions identified against both DBs


FULL = Size(3, 400, 24, 700, 32, 100, 64, 500, 4)
TINY = Size(1, 150, 20, 150, 20, 12, 12, 60, 1)


class GateFailure(Exception):
    """The program's outputs failed the benchmark's correctness gate."""


def _seeds(seed: int) -> tuple[int, int, int]:
    """Independent sub-seeds for the reference corpus, the query stream and
    the evaluation sessions."""
    a, b, c = np.random.SeedSequence(seed).generate_state(3)
    return int(a), int(b), int(c)


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# ---------------------------------------------------------------------------
# Tracing: which public functions are wrapped, and what they count
# ---------------------------------------------------------------------------


def _single_counts(args, kwargs, result):
    trace, db = args[0], args[1]
    lengths = [len(e.trace) for e in db.entries if e.metric == trace.metric]
    return {"pairs": len(lengths), "cells": len(trace) * sum(lengths)}


def _corpus_counts(args, kwargs, result):
    path = args[0]
    return {"mb": os.path.getsize(path) / 1e6 if os.path.isfile(path) else 0.0}


def _patches():
    """Every public function the workloads reach, at its callers' lookup site."""
    chain = lambda a, kw, r: {"labelled": kw.get("label") is not None}  # noqa: E731
    epochs = lambda a, kw, r: {"epochs": r[1].epochs_run}  # noqa: E731
    return [
        (degrade, "predict_degradation", "degrade.predict_degradation", chain),
        (degrade, "identify", "identify.identify", None),
        (identify_mod, "identify_single", "identify.identify_single", _single_counts),
        (degrade, "predict", "neural.predict", None),
        (identify_mod, "build_fingerprint_db", "identify.build_fingerprint_db", None),
        (cli, "build_fingerprint_db", "identify.build_fingerprint_db", None),
        (cli, "save_fingerprint_db", "identify.save_fingerprint_db", None),
        (identify_mod, "load_fingerprint_db", "identify.load_fingerprint_db", None),
        (degrade, "fit_models_for_corpus", "degrade.fit_models_for_corpus", None),
        (degrade.ModelStore, "save", "degrade.ModelStore.save", None),
        (degrade.ModelStore, "load", "degrade.ModelStore.load", None),
        (degrade, "train", "neural.train", epochs),
        (neural, "train", "neural.train", epochs),
        (degrade, "hyper_search", "neural.hyper_search", None),
        (degrade, "rank_metrics", "select.rank_metrics", None),
        (tracemodel, "load_corpus", "tracemodel.load_corpus", _corpus_counts),
        (tracemodel, "save_corpus", "tracemodel.save_corpus", None),
        (simgen, "generate", "simgen.generate", None),
        (simgen, "generate_isolated", "simgen.generate_isolated", None),
    ]


def run_cli(argv: list[str], tracer) -> None:
    """``vmsight <argv>`` in-process, its stderr kept for error reports."""
    err = io.StringIO()
    with tracer.span(f"cli.{argv[0]}"), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise GateFailure(f"vmsight {argv[0]} exited {rc}: {err.getvalue().strip()}")


# ---------------------------------------------------------------------------
# Triage
# ---------------------------------------------------------------------------


@dataclass
class Deployment:
    db: identify_mod.FingerprintDb
    store: degrade.ModelStore
    profiles: dict


def triage_setup(work: str, size: Size, seed: int, tracer) -> Deployment:
    """Simulate and save a reference corpus, fingerprint and train through
    the CLI, then load the DB and the models back."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    corpus, db_dir, models_dir = (os.path.join(work, n) for n in ("corpus.jsonl", "db", "models"))
    templates = simgen.default_templates()
    cfg = simgen.ScenarioConfig(session_duration_s=QUERY_S, rng_seed=_seeds(seed)[0])
    records = simgen.generate(cfg, templates, size.ref_sessions) + simgen.generate_isolated(
        cfg, templates, size.ref_iso_per_app
    )
    tracemodel.save_corpus(records, corpus)
    argv = ["fingerprint", "--corpus", corpus, "--out", db_dir, "--metrics", ",".join(MIXED_METRICS)]
    for name in MIXED_METRICS:
        argv += ["--threshold-dtw", f"{name}={DEFAULT_METRIC_THRESHOLDS[name]!r}"]
    run_cli(argv, tracer)
    run_cli(["train", "--corpus", corpus, "--models", models_dir], tracer)
    return Deployment(
        identify_mod.load_fingerprint_db(db_dir),
        degrade.ModelStore.load(models_dir),
        degrade.profiles_for_templates(templates),
    )


def query_stream(seed: int, size: Size) -> Iterator[tuple]:
    """Endless seeded stream of (session, is_outsider), one chunk at a time.

    Every session is new, so nothing the program might cache is reused.
    Every fourth session is an outsider.
    """
    templates = simgen.default_templates()
    outsider = simgen.outsider_template()
    base = _seeds(seed)[1]
    for k in itertools.count():
        cfg = simgen.ScenarioConfig(session_duration_s=QUERY_S, rng_seed=base + k)
        n_known = size.chunk - size.chunk // 4
        known = iter(simgen.generate(cfg, templates, n_known, id_prefix=f"q{k:05d}-"))
        rng = np.random.default_rng([base, k])
        for j in range(size.chunk):
            if j % 4 == 3:
                interference = float(rng.uniform(0.0, 0.9))
                yield simgen.render_session(
                    outsider, cfg, f"o{k:05d}-{j:03d}", None, interference, rng
                ), True
            else:
                yield next(known), False


def serve(record, dep: Deployment) -> tuple:
    """One triage call: (label, deg), or ("error", exception name)."""
    try:
        report = degrade.predict_degradation(
            record.traces, dep.db, dep.profiles, dep.store, session_id=record.session_id
        )
        return report.label, report.deg
    except UnknownApplication:
        return UNKNOWN, None
    except Exception as exc:  # counted as a failed call; the run goes on
        return "error", type(exc).__name__


def triage_pass(stream, dep: Deployment, budget_s: float, min_ops: int, tracer, patches):
    """Serve sessions until ``budget_s`` has passed and ``min_ops`` are done.

    With ``patches``, each session is served again right after, traced, and
    must give the same outcome; the pair runs back to back so the tracing
    overhead is measured under the same machine load.  Returns (served
    sessions, outcomes, seconds per call, seconds per traced call).
    """
    served, outcomes, times, traced_times = [], [], [], []
    t_start = time.perf_counter()
    for item in stream:
        if len(times) >= min_ops and time.perf_counter() - t_start >= budget_s:
            break
        record = item[0]
        t0 = time.perf_counter()
        outcome = serve(record, dep)
        times.append(time.perf_counter() - t0)
        if patches:
            with tracer.installed(patches):
                tracer.op = record.session_id
                t0 = time.perf_counter()
                again = serve(record, dep)
                traced_times.append(time.perf_counter() - t0)
                tracer.op = ""
            if again != outcome:
                raise GateFailure(
                    f"{record.session_id}: traced call gave {again}, untraced {outcome}"
                )
        served.append(item)
        outcomes.append(outcome)
    return served, outcomes, times, traced_times


def count_failed(served, outcomes) -> int:
    """Calls that raised anything but UnknownApplication on an outsider."""
    return sum(
        out[0] == "error" or (out[0] == UNKNOWN and not outsider)
        for (_, outsider), out in zip(served, outcomes)
    )


def triage_quality(served, outcomes, dep: Deployment, tracer) -> dict:
    """Quality on the first served sessions, a fixed prefix for each seed.

    Also re-runs every correctly identified session with ``label=`` given,
    which must reproduce its ``deg`` exactly (and times the chain alone in a
    traced run).
    """
    templates = simgen.default_templates()
    known = correct = outsiders = rejected = 0
    errors: dict[str, list[float]] = {}
    for (record, outsider), (label, deg) in zip(served, outcomes):
        if outsider:
            outsiders += 1
            rejected += label == UNKNOWN
            continue
        known += 1
        if label != record.app_label:
            continue
        correct += 1
        tracer.op = record.session_id
        again = degrade.predict_degradation(
            record.traces, None, dep.profiles, dep.store,
            session_id=record.session_id, label=label,
        ).deg
        tracer.op = ""
        if again != deg:
            raise GateFailure(f"{record.session_id}: deg {deg!r} with identification, {again!r} with label given")
        truth = simgen.ground_truth_degradation(record, templates)
        errors.setdefault(label, []).append(abs(deg - truth) / abs(truth) * 100.0)
    quality = {
        "sessions": len(served),
        "id_accuracy": correct / known if known else None,
        "reject_rate": rejected / outsiders if outsiders else None,
        "deg_mape_pct": float(np.mean(np.concatenate([np.asarray(v) for v in errors.values()])))
        if errors else None,
        "deg_mape_pct_by_app": {app: float(np.mean(v)) for app, v in sorted(errors.items())},
        "model_test_mape_pct": model_test_mape(dep.store),
    }
    return quality


def model_test_mape(store: degrade.ModelStore) -> float:
    """Mean over all nets of the FitReport test-split mean error."""
    means = [
        store.report(app, purpose).errors["test"]["mean"]
        for app in store.apps()
        for purpose in neural.Purpose
        if store.report(app, purpose) is not None
    ]
    return float(np.mean(means))


def gate_quality(quality: dict, profiles: dict) -> list[str]:
    problems = []
    acc = quality.get("id_accuracy")
    if acc is not None and acc < ID_FLOOR:
        problems.append(f"id_accuracy {acc:.3f} < {ID_FLOOR}")
    rej = quality.get("reject_rate")
    if rej is not None and rej < REJECT_FLOOR:
        problems.append(f"reject_rate {rej:.3f} < {REJECT_FLOOR}")
    for app, mape in quality["deg_mape_pct_by_app"].items():
        floor = DEG_FLOOR_PCT[profiles[app].variable_workload]
        if mape > floor:
            problems.append(f"{app} deg error {mape:.2f}% > {floor}%")
    return problems


def run_triage(workload: str, seed: int, seconds: float, trace: bool, size: Size, work: str):
    tracer = Tracer() if trace else NullTracer()
    patches = _patches() if trace else []
    setup_times = []
    with tracer.installed(patches):
        # a traced run sets up once; setup_s comes from the untraced runs
        for _ in range(1 if trace else size.setup_repeats):
            t0 = time.perf_counter()
            dep = triage_setup(work, size, seed, tracer)
            setup_times.append(time.perf_counter() - t0)

    tracer.phase = "timed"
    served, outcomes, times, traced_times = triage_pass(
        query_stream(seed, size), dep, seconds, size.min_ops, tracer, patches
    )
    with tracer.installed(patches):
        tracer.phase = "verify"
        quality = triage_quality(served[: size.min_ops], outcomes[: size.min_ops], dep, tracer)
    failed = count_failed(served, outcomes)
    detail = {"ops": len(times), "failed_share": failed / len(times), "quality": quality}
    problems = gate_quality(quality, dep.profiles)
    if trace:
        metrics = layer_metrics(tracer, units=1, unit_phase="setup", count_ops=size.min_ops,
                                untraced=times, traced=traced_times)
    else:
        metrics = end_to_end(setup_times, times, len(times))
    return metrics, len(times), failed, problems, detail, tracer


def end_to_end(setup_times, times, sessions) -> dict:
    """``sessions`` is how many sessions the timed calls handled in all."""
    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": _p90(times) * 1e3,
        "sessions_per_s": sessions / sum(times),
        "peak_rss_mb": peak_rss_mb(),
    }


# ---------------------------------------------------------------------------
# Rebuild
# ---------------------------------------------------------------------------


def rebuild_setup(work: str, size: Size, seed: int) -> str:
    """Write the rebuild corpus: colocated plus isolated sessions, 300 s each."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    corpus = os.path.join(work, "corpus.jsonl")
    templates = simgen.default_templates()
    cfg = simgen.ScenarioConfig(session_duration_s=TRAIN_S, rng_seed=_seeds(seed)[0])
    records = simgen.generate(cfg, templates, size.rebuild_sessions) + simgen.generate_isolated(
        cfg, templates, size.rebuild_iso_per_app
    )
    tracemodel.save_corpus(records, corpus)
    return corpus


def rebuild_once(corpus: str, out: str, k: int, tracer) -> float:
    """Rebuild ``k`` into a fresh ``out``; returns its seconds."""
    shutil.rmtree(out, ignore_errors=True)
    tracer.op = f"rebuild-{k}"
    t0 = time.perf_counter()
    run_cli(["fingerprint", "--corpus", corpus, "--out", os.path.join(out, "db")], tracer)
    run_cli(["train", "--corpus", corpus, "--models", os.path.join(out, "models"),
             "--hidden-grid", REBUILD_GRID], tracer)
    elapsed = time.perf_counter() - t0
    tracer.op = ""
    return elapsed


def tree_digest(path: str) -> str:
    h = hashlib.sha256()
    for root, dirs, files in sorted(os.walk(path)):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(root, name)
            h.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _same_db(a: identify_mod.FingerprintDb, b: identify_mod.FingerprintDb) -> bool:
    return (
        a.metrics_used == b.metrics_used
        and a.distance_threshold == b.distance_threshold
        and dict(a.metric_thresholds) == dict(b.metric_thresholds)
        and a.source_session_ids == b.source_session_ids
        and len(a.entries) == len(b.entries)
        and all(
            x.app_label == y.app_label
            and x.metric == y.metric
            and x.trace.period_s == y.trace.period_s
            and np.array_equal(x.trace.samples, y.trace.samples)
            for x, y in zip(a.entries, b.entries)
        )
    )


def rebuild_verify(corpus: str, out: str, seed: int, size: Size, tracer) -> tuple[dict, dict]:
    """Reload what the last rebuild wrote and hold it against the DB and
    models built in memory by the public functions from the same corpus."""
    records = tracemodel.load_corpus(corpus)
    templates = simgen.default_templates()
    profiles = degrade.profiles_for_templates(templates)
    db_mem = identify_mod.build_fingerprint_db(records, [tracemodel.CPU_UTIL], 4)
    # TrainConfig() holds the defaults `vmsight train` trains with
    store_mem = degrade.fit_models_for_corpus(
        records, profiles, cfg=neural.TrainConfig(), hidden_grid=REBUILD_HIDDEN_GRID
    )
    try:
        db_disk = identify_mod.load_fingerprint_db(os.path.join(out, "db"))
        store_disk = degrade.ModelStore.load(os.path.join(out, "models"))
    except (VmsightError, KeyError, ValueError) as exc:
        raise GateFailure(f"rebuild output does not reload: {exc!r}") from exc
    if not _same_db(db_mem, db_disk):
        raise GateFailure("reloaded fingerprint DB differs from the in-memory one")

    cfg = simgen.ScenarioConfig(session_duration_s=TRAIN_S, rng_seed=_seeds(seed)[2])
    held_out = simgen.generate(cfg, templates, size.eval_sessions, id_prefix="e")
    errors: dict[str, list[float]] = {}
    for record in held_out:
        tracer.op = record.session_id
        outs = [
            degrade.predict_degradation(
                record.traces, None, profiles, store,
                session_id=record.session_id, label=record.app_label,
            )
            for store in (store_mem, store_disk)
        ]
        if outs[0] != outs[1]:
            raise GateFailure(f"{record.session_id}: reloaded models predict {outs[1]}, in-memory {outs[0]}")
        truth = simgen.ground_truth_degradation(record, templates)
        errors.setdefault(record.app_label, []).append(abs(outs[1].deg - truth) / abs(truth) * 100.0)
    for record in held_out[: size.id_checks]:
        tracer.op = record.session_id
        labels = [
            degrade.predict_degradation(record.traces, db, profiles, store, session_id=record.session_id)
            for db, store in ((db_mem, store_mem), (db_disk, store_disk))
        ]
        if labels[0] != labels[1]:
            raise GateFailure(f"{record.session_id}: reloaded DB gives {labels[1]}, in-memory {labels[0]}")
    tracer.op = ""
    return {
        "sessions": len(held_out),
        "deg_mape_pct": float(np.mean(np.concatenate([np.asarray(v) for v in errors.values()]))),
        "deg_mape_pct_by_app": {app: float(np.mean(v)) for app, v in sorted(errors.items())},
        "model_test_mape_pct": model_test_mape(store_disk),
    }, profiles


def run_rebuild(workload: str, seed: int, seconds: float, trace: bool, size: Size, work: str):
    tracer = Tracer() if trace else NullTracer()
    patches = _patches() if trace else []
    out = os.path.join(work, "out")
    setup_times = []
    with tracer.installed(patches):
        for _ in range(1 if trace else size.setup_repeats):
            t0 = time.perf_counter()
            corpus = rebuild_setup(os.path.join(work, "in"), size, seed)
            setup_times.append(time.perf_counter() - t0)
    n_sessions = size.rebuild_sessions + size.rebuild_iso_per_app * len(simgen.default_templates())

    times, traced_times = [], []
    tracer.phase = "timed"
    t_start = time.perf_counter()
    while not times or time.perf_counter() - t_start < seconds:
        k = len(times)
        times.append(rebuild_once(corpus, out, k, NullTracer()))
        if patches:
            # the same rebuild again, traced, must write the same files
            digest = tree_digest(out)
            with tracer.installed(patches):
                traced_times.append(rebuild_once(corpus, out, k, tracer))
            if tree_digest(out) != digest:
                raise GateFailure("traced rebuild wrote different files from the untraced one")
    with tracer.installed(patches):
        tracer.phase = "verify"
        quality, profiles = rebuild_verify(corpus, out, seed, size, tracer)
    detail = {"ops": len(times), "corpus_sessions": n_sessions, "failed_share": 0.0,
              "quality": quality}
    problems = gate_quality(quality, profiles)
    if trace:
        metrics = layer_metrics(tracer, units=len(times), unit_phase="timed",
                                count_ops=size.id_checks, untraced=times, traced=traced_times)
    else:
        metrics = end_to_end(setup_times, times, n_sessions * len(times))
    return metrics, len(times), 0, problems, detail, tracer


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer, units: int, unit_phase: str, count_ops: int,
                  untraced: list[float], traced: list[float]) -> dict:
    """Per-layer numbers of one traced run.

    Training-side counts (neural, select, cli) are per *unit*: the one
    set-up of a triage run, or one timed rebuild.  Identification counts
    are per ``identify`` call over the first ``count_ops`` operations that
    identify, a set fixed by the seed, so they repeat exactly.  Self shares
    are each layer's self time over the time of the traced timed calls.
    """
    timed_wall = sum(traced)
    spans = tracer.spans
    selfs = tracer.self_times()

    def pick(name, phase=None):
        return [s for s in spans if s.name == name and (phase is None or s.phase == phase)]

    def p50(name, scale, phase=None, where=lambda s: True):
        durs = [s.duration for s in pick(name, phase) if where(s)]
        return statistics.median(durs) * scale if durs else 0.0

    calls = [i for i, s in enumerate(spans) if s.name == "identify.identify"]
    first_ops = set(list(dict.fromkeys(spans[i].op for i in calls))[:count_ops])
    counted = {i for i in calls if spans[i].op in first_ops}
    pairs = cells = 0
    for s in spans:
        if s.name == "identify.identify_single" and s.parent in counted:
            pairs += s.counts["pairs"]
            cells += s.counts["cells"]
    singles = pick("identify.identify_single")
    single_cells = sum(s.counts["cells"] for s in singles)

    trains = pick("neural.train", unit_phase)
    epochs = sum(s.counts["epochs"] for s in trains)
    loads = pick("tracemodel.load_corpus")
    load_mb = sum(s.counts["mb"] for s in loads)
    gens = [s for s in spans if s.name in ("simgen.generate", "simgen.generate_isolated")
            and s.phase == "setup" and s.parent < 0]
    cli_self = sum(t for s, t in zip(spans, selfs) if s.layer == "cli" and s.phase == unit_phase)

    timed = [(s, t) for s, t in zip(spans, selfs) if s.phase == "timed"]
    covered = sum(s.duration for s, _ in timed if s.parent < 0)

    return {
        "identify.call_ms": p50("identify.identify", 1e3),
        "identify.single_ms": p50("identify.identify_single", 1e3),
        "identify.dtw_pairs": pairs / len(counted) if counted else 0.0,
        "identify.dp_cells": cells / len(counted) if counted else 0.0,
        "identify.ns_per_cell": sum(s.duration for s in singles) / single_cells * 1e9
        if single_cells else 0.0,
        "identify.build_db_ms": p50("identify.build_fingerprint_db", 1e3),
        "identify.save_db_ms": p50("identify.save_fingerprint_db", 1e3),
        "identify.load_db_ms": p50("identify.load_fingerprint_db", 1e3),
        "degrade.chain_us": p50("degrade.predict_degradation", 1e6,
                                where=lambda s: s.counts.get("labelled")),
        "degrade.fit_s": p50("degrade.fit_models_for_corpus", 1.0),
        "degrade.models_save_ms": p50("degrade.ModelStore.save", 1e3),
        "degrade.models_load_ms": p50("degrade.ModelStore.load", 1e3),
        "neural.train_calls": len(trains) / units,
        "neural.train_ms": p50("neural.train", 1e3, unit_phase),
        "neural.epochs": epochs / units,
        "neural.ms_per_epoch": sum(s.duration for s in trains) / epochs * 1e3 if epochs else 0.0,
        "neural.predict_us": p50("neural.predict", 1e6),
        "select.rank_calls": len(pick("select.rank_metrics", unit_phase)) / units,
        "select.rank_ms": p50("select.rank_metrics", 1e3, unit_phase),
        "tracemodel.load_corpus_s": p50("tracemodel.load_corpus", 1.0),
        "tracemodel.corpus_mb": loads[0].counts["mb"] if loads else 0.0,
        "tracemodel.load_mb_per_s": load_mb / sum(s.duration for s in loads) if loads else 0.0,
        "simgen.generate_s": sum(s.duration for s in gens),
        "cli.fingerprint_s": p50("cli.fingerprint", 1.0),
        "cli.train_s": p50("cli.train", 1.0),
        "cli.self_s": cli_self / units,
        **{
            f"{layer}.self_share": sum(t for s, t in timed if s.layer == layer) / timed_wall
            for layer in LAYERS
        },
        "trace.uncovered_share": (timed_wall - covered) / timed_wall,
        "trace.overhead_pct": (statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0) * 100.0,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool, work: str):
    size = TINY if tiny else FULL
    fn = run_rebuild if workload == "rebuild" else run_triage
    return fn(workload, seed, seconds, trace, size, work)
