"""The native-build cache: compile once per key, load warm without
compiling, and fall back with one notice when a build cannot be had."""

import shutil
import subprocess

import pytest

from vmsight import native, tracemodel
from vmsight.simgen import ScenarioConfig, default_templates, generate
from vmsight.tracemodel import load_corpus, save_corpus

from test_tracemodel import make_record

needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc not installed")


@pytest.fixture
def fresh_load(monkeypatch):
    """native.load resolving anew, and resolving anew again after the test."""
    native.load.cache_clear()
    yield native.load
    native.load.cache_clear()


def _gcc_calls(monkeypatch) -> list:
    calls = []
    run = subprocess.run
    monkeypatch.setattr(native.subprocess, "run",
                        lambda args, **kw: calls.append(args) or run(args, **kw))
    return calls


@needs_gcc
def test_warm_cache_loads_without_compiling(tmp_path, monkeypatch, fresh_load):
    monkeypatch.setenv(native.CACHE_ENV, str(tmp_path / "cache"))
    calls = _gcc_calls(monkeypatch)
    assert fresh_load(tracemodel._JSONL_C) is not None
    assert len([c for c in calls if "-shared" in c]) == 1
    assert [p.suffix for p in (tmp_path / "cache").iterdir()] == [".so"]
    assert fresh_load(tracemodel._JSONL_C) is not None  # once per process
    fresh_load.cache_clear()
    calls.clear()
    assert fresh_load(tracemodel._JSONL_C) is not None
    assert calls == [[shutil.which("gcc"), "--version"]]


def _no_gcc(m, tmp_path):
    m.setattr(native.shutil, "which", lambda name: None)


def _bad_flag(m, tmp_path):
    m.setattr(native, "FLAGS", (*native.FLAGS, "-no-such-flag"))


def _cache_in_a_file(m, tmp_path):
    (tmp_path / "file").write_text("")
    m.setenv(native.CACHE_ENV, str(tmp_path / "file" / "cache"))


@pytest.mark.parametrize(
    "break_build, reason",
    [
        (_no_gcc, "gcc not found"),
        (_bad_flag, "gcc exited with status 1"),
        (_cache_in_a_file, "cannot write (Not a directory)"),
    ],
    ids=["no-gcc", "build-fails", "cache-unwritable"],
)
def test_fallback_prints_one_notice_and_loads_with_json(
    tmp_path, monkeypatch, capsys, fresh_load, break_build, reason
):
    records = [make_record("a"), make_record("b")] + generate(
        ScenarioConfig(session_duration_s=30.0, rng_seed=5), default_templates(), 3
    )
    records.sort(key=lambda r: r.session_id)
    built = tmp_path / "built.jsonl"
    save_corpus(records, str(built))  # jsonl.c as the session built it, where it could
    capsys.readouterr()
    fresh_load.cache_clear()
    monkeypatch.setenv(native.CACHE_ENV, str(tmp_path / "cache"))
    break_build(monkeypatch, tmp_path)
    path = tmp_path / "c.jsonl"
    save_corpus(records, str(path))
    assert path.read_bytes() == built.read_bytes()
    assert load_corpus(str(path)) == records
    assert load_corpus(str(path)) == records
    # the writer and the loader share one native.load result: one notice
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("vmsight: cannot build jsonl.c (")
    assert reason in err[0] and err[0].endswith("); using the Python code path")


@needs_gcc
def test_source_compiles_without_warnings(tmp_path):
    proc = subprocess.run(
        ["gcc", *native.FLAGS, "-std=c99", "-Wall", "-Wextra", "-Werror",
         tracemodel._JSONL_C, "-o", str(tmp_path / "jsonl.so")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
