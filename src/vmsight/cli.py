"""Command-line entry point wiring the library end to end.

Subcommands cover the whole workflow: generate synthetic corpora, build
fingerprint databases, identify black-box sessions, rank metrics, train the
per-application nets, predict degradation, and run the bundled experiments.
Machine-readable JSON goes to stdout (or --out), logs and human tables stay
on stderr, and every subcommand is deterministic for a fixed seed.

Exit codes: 0 on success, 1 on a typed domain error, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import degrade, evaluate, neural, select, simgen, tracemodel
from .errors import ConfigInvalid, IoError, MissingModel, MissingProfile, NoUsableMetrics
from .errors import ParseError, PeriodMismatch, TooShort, UnknownApplication, VmsightError
from .identify import (
    DEFAULT_DISTANCE_THRESHOLD,
    DEFAULT_FINGERPRINT_METRICS,
    build_fingerprint_db,
    identify as identify_session,
    load_fingerprint_db,
    save_fingerprint_db,
)
from .parallel import parallel_map

CONFIG_ENV = "CLOUDPROPHET_CONFIG"
JOBS_HELP = "processes to run in, this one included; outputs do not depend on it"


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        return tracemodel.read_json(path, _check_config)
    except (IoError, ParseError) as exc:
        raise ConfigInvalid(str(exc)) from exc


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# every bounded scalar setting, from a flag or the config file alike: its type,
# the interval its value must lie in, and its built-in default
_BOUNDS = {
    "seed": (int, "[0, inf)", 0),
    "jobs": (int, "[1, inf)", 1),
    "min_trace_len": (int, "[0, inf)", 60),
    "outsider": (int, "[0, inf)", 0),
    "isolated": (int, "[0, inf)", 0),
    "sessions": (int, "[1, inf)", 100),
    "refs_per_app": (int, "[1, inf)", 4),
    "max_epochs": (int, "[1, inf)", 200),
    "queries": (int, f"[1, {evaluate.MAX_QUERIES}]", 2000),
    "min_test_sessions": (int, "[1, inf)", 100),
    "threshold": (float, "(0, inf)", DEFAULT_DISTANCE_THRESHOLD),
    "amp_gain": (float, "(0, inf)", 1.0),
    "threshold_corr": (float, "[0, 1]", select.DEFAULT_CORR_THRESHOLD),
    "n_vms": (int, "[1, inf)", 5),
    "duration_s": (float, "(0, inf)", 300.0),
    "period_s": (float, "(0, inf)", 1.0),
    "noise": (float, "[0, inf)", 1.0),
    "perf_noise": (float, "[0, inf)", 0.01),
}
# the JSON value a config file may give a setting of each _BOUNDS type
_JSON_TYPES = {int: (_is_int, "an integer"), float: (_is_number, "a number")}
# every config key, the check its value must pass, and how a bad one is described
_CONFIG_TYPES = {
    **{k: (lambda v: isinstance(v, str), "a string")
       for k in ("corpus", "db", "models", "profiles", "out")},
    **{k: _JSON_TYPES[_BOUNDS[k][0]] for k in ("seed", "jobs", "min_trace_len", "threshold_corr")},
    "threshold_dtw": (
        lambda v: isinstance(v, dict) and all(map(_is_number, v.values())),
        "an object of metric -> number",
    ),
    "json": (lambda v: isinstance(v, bool), "true or false"),
    "format": (lambda v: v in ("jsonl", "csv"), '"jsonl" or "csv"'),
}


def _check_config(cfg) -> dict:
    if not isinstance(cfg, dict):
        raise TypeError("config must be a JSON object")
    unknown = set(cfg) - set(_CONFIG_TYPES)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in sorted(cfg.items()):
        valid, expected = _CONFIG_TYPES[key]
        if not valid(value):
            raise ValueError(f"config key {key!r} must be {expected}, got {value!r}")
    return cfg


# the comma-separated number lists: the type of their items and their interval
_LISTS = {"hours": (float, "(0, inf)"), "ref_counts": (int, "[1, inf)")}
# the paths each subcommand (or evaluate experiment) needs, in the order it asks for them
_PATHS = {
    "simulate": ("out",), "fingerprint": ("corpus", "out"), "identify": ("corpus", "db"),
    "select-metrics": ("corpus",), "train": ("corpus", "models"),
    "predict": ("corpus", "db", "models"), "ablation": ("corpus",), "tradeoff": (),
    "timing": ("models", "corpus"), "error-table": ("corpus", "models"),
}


def _number(value, flag: str, kind=int, interval: Optional[str] = None):
    """``kind(value)``, or ConfigInvalid naming ``flag`` if that fails, is not
    finite, or falls outside ``interval`` (written like "[0, inf)")."""
    try:
        number = kind(value)
        if (kind is int or math.isfinite(number)) and (not interval or _within(number, interval)):
            return number
    except (ValueError, OverflowError):
        pass
    noun = "an integer" if kind is int else "a finite number"
    where = f" in {interval}" if interval else ""
    raise ConfigInvalid(f"{flag} takes {noun}{where}, got {value!r}")


def _within(number, interval: str) -> bool:
    low, high = map(float, interval[1:-1].split(","))
    above = low < number if interval[0] == "(" else low <= number
    return above and (number < high if interval[-1] == ")" else number <= high)


def _metric(name: str, flag: str) -> tracemodel.MetricKind:
    if name not in tracemodel.STANDARD_METRICS:
        raise ConfigInvalid(f"{flag} takes metric names such as cpu_util_pct, got {name!r}")
    return tracemodel.STANDARD_METRICS[name]


def _parse_threshold_dtw(pairs) -> dict[str, float]:
    texts = {}
    for item in pairs or []:
        if "=" not in item:
            raise ConfigInvalid(f"--threshold-dtw expects <metric>=<value>, got {item!r}")
        name, _, value = item.partition("=")
        texts[_metric(name, "--threshold-dtw").name] = value
    return {k: _number(v, f"--threshold-dtw {k}", float, "(0, inf)") for k, v in texts.items()}


def _settle(args: argparse.Namespace) -> None:
    """Range-check every bounded scalar, parse every list flag of ``args`` in
    place and check that the paths the subcommand needs are given, before it
    reads any file or generates any session."""
    for key, value in list(vars(args).items()):
        flag = "--" + key.replace("_", "-")
        if key in _BOUNDS:
            setattr(args, key, _number(value, flag, *_BOUNDS[key][:2]))
        elif key in _LISTS:
            setattr(args, key, [_number(item, flag, *_LISTS[key]) for item in value.split(",")])
        elif key == "metrics":
            args.metrics = [_metric(name, flag) for name in value.split(",")]
        elif key == "hidden_grid":
            # an empty width names the whole item, so "4,x" reports 'x'
            args.hidden_grid = [
                tuple(_number(h or w, flag, int, "[1, inf)") for h in w.split("x"))
                for w in value.split(",")
            ]
        elif key == "threshold_dtw":
            args.threshold_dtw = _parse_threshold_dtw(value)
    for key in _PATHS[getattr(args, "experiment", args.command)]:
        if not getattr(args, key):
            raise ConfigInvalid(f"--{key} is required")


def _emit(args, payload: dict, csv_text: Optional[str] = None) -> None:
    """Write ``payload`` as JSON to --out (``csv_text`` instead, when given
    and --out ends in .csv) and to stdout under --json."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        with tracemodel.atomic_write(args.out) as fh:
            fh.write(csv_text if csv_text is not None and args.out.endswith(".csv") else text)
        print(f"wrote {args.out}", file=sys.stderr)
    if args.json:
        sys.stdout.write(text)


def _load_sessions(args):
    return tracemodel.load_corpus(args.corpus, format=args.format)


def _load_profiles(args):
    if args.profiles == "builtin":
        return degrade.profiles_for_templates(simgen.default_templates())
    return degrade.load_profiles(args.profiles)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    templates = simgen.default_templates(amplitude_gain=args.amp_gain)
    cfg = simgen.ScenarioConfig(
        n_vms=args.n_vms,
        session_duration_s=args.duration_s,
        period_s=args.period_s,
        noise_std=args.noise,
        perf_noise_std=args.perf_noise,
        rng_seed=args.seed,
    )
    records = simgen.generate(cfg, templates, args.sessions)
    if args.isolated:
        records = records + simgen.generate_isolated(cfg, templates, args.isolated)
    if args.outsider:
        outsider = simgen.outsider_template(amplitude_gain=args.amp_gain)
        rng = np.random.default_rng(args.seed + 2)
        records = records + [
            simgen.render_session(
                outsider, cfg, f"out{i:06d}", None, float(rng.uniform(0.0, 0.9)), rng
            )
            for i in range(args.outsider)
        ]
    tracemodel.save_corpus(records, args.out, format=args.format)
    if args.profiles_out:
        degrade.save_profiles(degrade.profiles_for_templates(templates), args.profiles_out)
        print(f"wrote {args.profiles_out}", file=sys.stderr)
    print(f"wrote {len(records)} sessions to {args.out}", file=sys.stderr)
    return 0


def _cmd_fingerprint(args) -> int:
    records = _load_sessions(args)
    db = build_fingerprint_db(
        records,
        args.metrics,
        n_refs_per_app=args.refs_per_app,
        threshold=args.threshold,
        metric_thresholds=args.threshold_dtw,
    )
    save_fingerprint_db(db, args.out)
    print(
        f"fingerprinted {len(db.labels())} apps, {len(db.entries)} entries -> {args.out}",
        file=sys.stderr,
    )
    return 0


@contextlib.contextmanager
def _naming(session_id: str):
    """Re-raise an identification error of one session's traces, which
    fails the whole batch, with the session's id in front of its message."""
    try:
        yield
    except (NoUsableMetrics, TooShort, PeriodMismatch) as exc:
        raise type(exc)(f"session {session_id}: {exc}") from None


def _identify_one(record, db, **options):
    with _naming(record.session_id):
        result = identify_session(record.traces, db, **options)
    return {"session_id": record.session_id, **result.to_obj()}


def _cmd_identify(args) -> int:
    records = _load_sessions(args)
    db = load_fingerprint_db(args.db)
    one = partial(
        _identify_one, db=db, align=args.align, znorm=args.znorm, min_trace_len=args.min_trace_len
    )
    rows = parallel_map(one, records, args.jobs)
    _emit(args, {"results": rows})
    if not args.json:
        for row in rows:
            print(f"{row['session_id']}: {row['label']}")
    return 0


def _cmd_select_metrics(args) -> int:
    records = _load_sessions(args)
    target = select.Purpose(args.target)
    report = select.rank_metrics(records, args.app, target, threshold=args.threshold_corr)
    _emit(args, report.to_obj())
    if not args.json:
        print(select.render_report(report))
    return 0


def _cmd_train(args) -> int:
    profiles = _load_profiles(args)
    if args.apps:
        wanted = set(args.apps.split(","))
        missing = wanted - set(profiles)
        if missing:
            raise ConfigInvalid(f"--apps takes profiled apps, got {','.join(sorted(missing))!r}")
        profiles = {k: v for k, v in profiles.items() if k in wanted}
    records = _load_sessions(args)
    cfg = neural.TrainConfig(max_epochs=args.max_epochs, rng_seed=args.seed)
    store = degrade.fit_models_for_corpus(
        records, profiles, args.threshold_corr, cfg=cfg, hidden_grid=args.hidden_grid
    )
    store.save(args.models)
    summary = {}
    for app in store.apps():
        for purpose in select.Purpose:
            report = store.report(app, purpose)
            if report is not None:
                summary[f"{app}/{purpose.value}"] = report.errors["test"]["mean"]
    _emit(args, {"models": len(store), "test_mean_pct": summary})
    print(f"trained {len(store)} models -> {args.models}", file=sys.stderr)
    return 0


def _predict_one(record, db, profiles, store):
    """A session's degradation report, or the error that leaves it without one."""
    try:
        with _naming(record.session_id):
            report = degrade.predict_degradation(
                record.traces, db, profiles, store, session_id=record.session_id
            )
        return report, None
    except (UnknownApplication, MissingProfile, MissingModel) as exc:
        return None, exc


def _cmd_predict(args) -> int:
    records = _load_sessions(args)
    db = load_fingerprint_db(args.db)
    store = degrade.ModelStore.load(args.models)
    one = partial(_predict_one, db=db, profiles=_load_profiles(args), store=store)
    outcomes = parallel_map(one, records, args.jobs)
    rows, reports, failures = [], [], []
    for record, (report, error) in zip(records, outcomes):
        if report is not None:
            reports.append(report)
            rows.append(report.to_obj())
        else:
            rows.append({"session_id": record.session_id, "error": type(error).__name__})
            failures.append(error)
    _emit(args, {"results": rows}, csv_text=degrade.reports_to_csv(reports))
    if not args.json:
        for row in rows:
            if "error" in row:
                print(f"{row['session_id']}: {row['error']}")
            else:
                print(f"{row['session_id']}: {row['label']} deg={row['deg']:.3f}")
    if failures:
        print(f"{type(failures[0]).__name__}: {failures[0]}", file=sys.stderr)
        return 1
    return 0


def _cmd_evaluate(args) -> int:
    if args.experiment == "ablation":
        records = _load_sessions(args)
        result = evaluate.run_ablation_dtw(
            records,
            args.ref_counts,
            thresholds=args.threshold_dtw,
            seed=args.seed,
            min_test_sessions=args.min_test_sessions,
        )
    elif args.experiment == "tradeoff":
        cfg = simgen.ScenarioConfig(rng_seed=args.seed, session_duration_s=args.duration_s)
        result = evaluate.run_sampling_tradeoff(
            cfg, simgen.default_templates(), args.hours, app=args.app
        )
    elif args.experiment == "timing":
        store = degrade.ModelStore.load(args.models)
        profiles = _load_profiles(args)
        records = _load_sessions(args)
        labeled = [r for r in records if r.app_label == args.app]
        if not labeled:
            raise ConfigInvalid(f"corpus has no sessions for app {args.app!r}")
        result = evaluate.run_timing(store, profiles, labeled[0], n_queries=args.queries)
        summary = result.to_obj(include_volatile=True)["summary"]
        print(
            f"median predict {summary['median_predict_us']:.1f} us, "
            f"degradation chain {summary['median_degradation_us']:.1f} us",
            file=sys.stderr,
        )
    else:  # error-table
        records = _load_sessions(args)
        store = degrade.ModelStore.load(args.models)
        profiles = _load_profiles(args)
        templates = simgen.default_templates()
        truth = {
            r.session_id: simgen.ground_truth_degradation(r, templates)
            for r in records
            if r.app_label in templates
        }
        table = degrade.evaluate_degradation(records, profiles, store, truth)
        _emit(args, table.to_obj())
        if not args.json:
            print(table.to_text())
        return 0
    _emit(args, result.to_obj())
    if not args.json:
        print(result.to_csv(), end="")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser(config: Optional[dict] = None) -> argparse.ArgumentParser:
    """The vmsight parser; ``config`` values become every subcommand's defaults,
    so a flag wins over the config and the config over the built-in default."""
    defaults = dict(config or {})
    if "threshold_dtw" in defaults:
        # ahead of any --threshold-dtw flags, which therefore win per metric
        defaults["threshold_dtw"] = [f"{k}={v}" for k, v in defaults["threshold_dtw"].items()]
    parser = argparse.ArgumentParser(
        prog="vmsight",
        description="Identify black-box VM applications and predict their "
        "workload-aware performance degradation from host-side metric traces.",
        epilog=f"Defaults may come from a JSON config file named by ${CONFIG_ENV} "
        "or --config; explicit flags always win.",
    )
    parser.add_argument("--config", help="JSON config file (overrides the env var)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--corpus", help="corpus file or directory")
        p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
        p.add_argument("--out", help="write JSON output to this path")
        p.add_argument("--json", action="store_true",
                       help="print machine-readable JSON on stdout")

    def number(p, flag, **kwargs):
        """Add an int or float flag, whose type and default are its _BOUNDS entry's."""
        kind, _, default = _BOUNDS[flag[2:].replace("-", "_")]
        p.add_argument(flag, type=kind, default=default, **kwargs)

    p = sub.add_parser("simulate", help="generate a synthetic colocated-VM corpus")
    p.add_argument("--out", help="corpus file (jsonl) or directory (csv) to write")
    number(p, "--seed")
    p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    for flag in ("--sessions", "--n-vms", "--duration-s", "--period-s", "--noise", "--perf-noise"):
        number(p, flag)
    number(p, "--amp-gain", help="rescale metric amplitudes (a 'new server' analogue)")
    number(p, "--isolated", help="append N interference-free sessions per app")
    number(p, "--outsider", help="append N sessions of an unfingerprinted application")
    p.add_argument("--profiles-out", help="also write matching app profiles JSON")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fingerprint", help="build a fingerprint database")
    p.add_argument("--corpus", help="corpus file or directory")
    p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p.add_argument("--out", help="fingerprint database directory to write")
    p.add_argument("--metrics", default=",".join(DEFAULT_FINGERPRINT_METRICS))
    number(p, "--refs-per-app")
    number(p, "--threshold")
    p.add_argument("--threshold-dtw", action="append", metavar="METRIC=VALUE")
    p.set_defaults(func=_cmd_fingerprint)

    p = sub.add_parser("identify", help="identify applications in black-box sessions")
    common(p)
    p.add_argument("--db", help="fingerprint database directory")
    p.add_argument("--align", choices=["dtw", "truncate"], default="dtw")
    p.add_argument("--znorm", action="store_true",
                   help="z-normalize traces before matching")
    number(p, "--min-trace-len")
    number(p, "--jobs", help=JOBS_HELP)
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("select-metrics", help="rank metrics by target correlation")
    common(p)
    p.add_argument("--app", required=True)
    p.add_argument("--target", choices=["performance", "workload"], default="performance")
    number(p, "--threshold-corr")
    p.set_defaults(func=_cmd_select_metrics)

    # no abbreviations: a bare --hidden would otherwise mean --hidden-grid
    p = sub.add_parser("train", help="train per-application prediction nets", allow_abbrev=False)
    common(p)
    number(p, "--seed")
    p.add_argument("--profiles", default="builtin", help="profiles JSON or 'builtin'")
    p.add_argument("--models", help="output directory for model files")
    p.add_argument("--apps", help="comma-separated subset of apps")
    p.add_argument("--hidden-grid", default="8",
                   help="hidden widths to search by validation error, e.g. 8, 16x8 or 4,8,16")
    number(p, "--max-epochs")
    number(p, "--threshold-corr")
    number(p, "--jobs", help="accepted and range-checked; training runs in this process")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict performance degradation per session")
    common(p)
    p.add_argument("--db")
    p.add_argument("--models")
    p.add_argument("--profiles", default="builtin")
    number(p, "--jobs", help=JOBS_HELP)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="run a reproducible experiment")
    common(p)
    number(p, "--seed")
    p.add_argument("--experiment", required=True,
                   choices=["ablation", "tradeoff", "timing", "error-table"])
    p.add_argument("--models")
    p.add_argument("--profiles", default="builtin")
    p.add_argument("--ref-counts", default="1,4")
    p.add_argument("--threshold-dtw", action="append", metavar="METRIC=VALUE")
    number(p, "--min-test-sessions")
    p.add_argument("--hours", default="10,20,40,80")
    number(p, "--duration-s")
    number(p, "--queries")
    p.add_argument("--app", default="data_serving")
    p.set_defaults(func=_cmd_evaluate)

    for p in sub.choices.values():  # after add_argument, so a config value replaces its default
        p.set_defaults(**defaults)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _load_config(args.config)
        if config:
            args = build_parser(config).parse_args(argv)
        _settle(args)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except VmsightError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
