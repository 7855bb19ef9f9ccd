"""Every artifact is read and written through tracemodel's file helpers.

The fuzz tests corrupt a valid file of each artifact type and require the
loader to fail with a VmsightError or to load; no other exception may
escape.  The write tests check that a failed write leaves the previous file.
"""

import ast
import itertools
import json
import multiprocessing
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import vmsight
from vmsight import cli, tracemodel
from vmsight.degrade import AppProfile, Orientation, load_profiles, save_profiles
from vmsight.errors import IoError, VmsightError
from vmsight.identify import build_fingerprint_db, load_fingerprint_db, save_fingerprint_db
from vmsight.neural import load_model
from vmsight.simgen import ScenarioConfig, default_templates, generate_isolated
from vmsight.tracemodel import CPU_UTIL, load_corpus, save_corpus

# Tokens that turn a valid file into an interesting invalid one more often
# than random bytes do.
TOKENS = [
    b"",
    b'"',
    b"{",
    b"}",
    b"[",
    b"]",
    b",",
    b":",
    b"-",
    b"\n",
    b"\xff",
    b"null",
    b"true",
    b"[]",
    b"{}",
    b'"x"',
    b"0",
    b"-1",
    b"1e999",
    b"NaN",
    b"1" * 5000,
    b"[" * 5000,
]


@st.composite
def corruptions(draw, data: bytes) -> bytes:
    start = draw(st.integers(0, len(data)))
    kind = draw(st.sampled_from(["truncate", "splice", "byte"]))
    if kind == "truncate":
        return data[:start]
    if kind == "byte":
        return data[:start] + bytes([draw(st.integers(0, 255))]) + data[start + 1 :]
    end = draw(st.integers(start, min(len(data), start + 8)))
    token = draw(st.sampled_from(TOKENS) | st.binary(max_size=4))
    return data[:start] + token + data[end:]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, trained_store, profiles):
    """A directory per artifact type, each holding one valid artifact."""
    root = tmp_path_factory.mktemp("artifacts")
    records = generate_isolated(
        ScenarioConfig(session_duration_s=20.0, rng_seed=3), default_templates(), 1
    )
    save_fingerprint_db(build_fingerprint_db(records, [CPU_UTIL], 1), str(root / "db"))
    trained_store.save(str(root / "models"))
    save_profiles(profiles, str(root / "profiles" / "profiles.json"))
    config = {"corpus": "c.jsonl", "seed": 3, "json": True, "threshold_dtw": {"llc": 1.0}}
    (root / "config").mkdir()
    (root / "config" / "cfg.json").write_text(json.dumps(config))
    save_corpus(records[:1], str(root / "jsonl" / "c.jsonl"))
    save_corpus(records[:1], str(root / "csv"), format="csv")
    return root


# artifact type -> (directory, file to corrupt, loader of the directory)
ARTIFACTS = {
    "db.json": ("db", "db.json", load_fingerprint_db),
    "model-json": ("models", "data_serving/performance.json",
                   lambda d: load_model(f"{d}/data_serving/performance.json")),
    "profiles-json": ("profiles", "profiles.json", lambda d: load_profiles(f"{d}/profiles.json")),
    "config": ("config", "cfg.json", lambda d: cli._load_config(f"{d}/cfg.json")),
    "jsonl-line": ("jsonl", "c.jsonl", lambda d: load_corpus(f"{d}/c.jsonl")),
    "csv-session": ("csv", "iso000000.csv", lambda d: load_corpus(d, format="csv")),
    "csv-sidecar": ("csv", "iso000000.meta.json",
                    lambda d: load_corpus(d, format="csv")),
}


@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
def test_corrupted_artifact_is_a_typed_error_or_loads(artifacts, artifact):
    subdir, name, loader = ARTIFACTS[artifact]
    valid = (artifacts / subdir / name).read_bytes()
    loader(str(artifacts / subdir))  # the uncorrupted artifact loads

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(corruptions(valid))
    def check(data):
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp) / subdir
            shutil.copytree(artifacts / subdir, work)
            (work / name).write_bytes(data)
            try:
                loader(str(work))
            except VmsightError:
                pass

    check()


def test_only_tracemodel_touches_files():
    """Reading and writing files is decided in tracemodel.py alone."""
    forbidden = {("json", "load"), ("json", "loads"), ("os", "replace"), ("io", "open")}
    offenders = []
    for path in sorted(Path(vmsight.__file__).parent.glob("*.py")):
        if path.name == "tracemodel.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                f = node.func
                if (isinstance(f, ast.Name) and f.id == "open") or (
                    isinstance(f, ast.Attribute)
                    and isinstance(f.value, ast.Name)
                    and (f.value.id, f.attr) in forbidden
                ):
                    offenders.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom):
                if any((node.module, alias.name) in forbidden for alias in node.names):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _records(seed):
    return generate_isolated(
        ScenarioConfig(session_duration_s=10.0, rng_seed=seed), default_templates(), 1
    )


def _profiles(baseline):
    return {"x": AppProfile("x", "latency_ms", Orientation.LOWER_IS_BETTER, False, baseline)}


def _save_corpus_failing_mid_write(path, monkeypatch):
    record_line = tracemodel._record_line
    calls = []

    def failing(record):
        calls.append(record)
        if len(calls) == 2:
            raise RuntimeError("serialization failed")
        return record_line(record)

    monkeypatch.setattr(tracemodel, "_record_line", failing)
    save_corpus(_records(2), path)


def _failing_at(n, atomic_write):
    """``atomic_write`` whose n-th call (from 1) fails as a full disk would."""
    calls = itertools.count(1)

    def failing(path):
        if next(calls) == n:
            raise IoError(f"{path}: cannot write (No space left on device)")
        return atomic_write(path)

    return failing


def _entries(db):
    return [(e.app_label, e.metric, e.trace.period_s, e.trace.samples.tobytes())
            for e in db.entries]


def test_failed_db_save_keeps_previous_db(tmp_path, monkeypatch):
    """A fingerprint DB save that fails at any one of its file writes leaves
    the previous database loading entry for entry as before."""
    path = str(tmp_path / "db")
    new = build_fingerprint_db(_records(2), [CPU_UTIL], 1)
    real = tracemodel.atomic_write
    written = []
    with monkeypatch.context() as m:
        m.setattr(tracemodel, "atomic_write", lambda p: written.append(p) or real(p))
        save_fingerprint_db(new, str(tmp_path / "clean"))
    for n in range(1, len(written) + 1):
        save_fingerprint_db(build_fingerprint_db(_records(1), [CPU_UTIL], 1), path)
        before = _entries(load_fingerprint_db(path))
        with monkeypatch.context() as m:
            m.setattr(tracemodel, "atomic_write", _failing_at(n, real))
            with pytest.raises(IoError):
                save_fingerprint_db(new, path)
        assert _entries(load_fingerprint_db(path)) == before


@pytest.mark.parametrize(
    "name, write, write_failing",
    [
        pytest.param(
            "c.jsonl",
            lambda path: save_corpus(_records(1), path),
            _save_corpus_failing_mid_write,
            id="jsonl-corpus",
        ),
        pytest.param(
            "profiles.json",
            lambda path: save_profiles(_profiles(2.0), path),
            # json cannot encode a numpy float32, so the dump fails mid-write
            lambda path, _: save_profiles(_profiles(np.float32(2.0)), path),
            id="profiles",
        ),
    ],
)
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, name, write, write_failing):
    path = tmp_path / name
    write(str(path))
    before = path.read_bytes()
    with pytest.raises((RuntimeError, TypeError)):
        write_failing(str(path), monkeypatch)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]


def _write_in_two_halves(path, text, barrier):
    """Write ``text`` through atomic_write, pausing after the first half
    until the other writer has written its first half too."""
    with tracemodel.atomic_write(path) as fh:
        fh.write(text[: len(text) // 2])
        fh.flush()
        barrier.wait(timeout=60)
        fh.write(text[len(text) // 2 :])


def test_concurrent_writers_of_one_path_each_leave_a_whole_file(tmp_path):
    path = str(tmp_path / "c.jsonl")
    texts = ["a" * 100_000 + "\n", "b" * 60_000 + "\n"]
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(2)
    writers = [ctx.Process(target=_write_in_two_halves, args=(path, t, barrier)) for t in texts]
    for w in writers:
        w.start()
    for w in writers:
        w.join(timeout=60)
    assert [(w.is_alive(), w.exitcode) for w in writers] == [(False, 0), (False, 0)]
    assert Path(path).read_text() in texts
    assert [p.name for p in tmp_path.iterdir()] == ["c.jsonl"]
