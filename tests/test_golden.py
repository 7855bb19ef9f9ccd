"""Pin the bytes of every pipeline output across commits.

One small corpus goes through simulate -> fingerprint -> identify -> train ->
predict and the error-table and ablation experiments, in-process.  Each
file written and each command's ``--json`` stdout is hashed and compared
with ``golden.json``.  The nets keep the default width 8 (under 97
parameters), so their bytes do not depend on the BLAS thread count.

A change that alters outputs on purpose copies the new hashes from the
failure message into the manifest and says which entries changed and why.
numpy may dispatch ``tanh``, ``sin`` and ``exp`` differently on another CPU
type; the message names each differing output, so that can be told apart
from a code change.
"""

import hashlib
import json
from pathlib import Path

from vmsight import tracemodel
from vmsight.cli import main

MANIFEST = Path(__file__).with_name("golden.json")

PROFILES = ["--profiles", "profiles.json"]
COMMANDS = {
    "identify.stdout": ["identify", "--db", "db"],
    "train.stdout": ["train", "--models", "models", *PROFILES],
    "predict.stdout": ["predict", "--db", "db", "--models", "models", *PROFILES],
    "error_table.stdout": [
        "evaluate", "--experiment", "error-table", "--models", "models", *PROFILES,
    ],
    "ablation.stdout": [
        "evaluate", "--experiment", "ablation", "--ref-counts", "1,2", "--min-test-sessions", "20",
    ],
}


def _run_pipeline(capsys) -> dict[str, str]:
    assert main(["simulate", "--out", "corpus.jsonl", "--profiles-out", "profiles.json",
                 "--seed", "3", "--sessions", "60", "--isolated", "20",
                 "--duration-s", "80"]) == 0
    assert main(["fingerprint", "--corpus", "corpus.jsonl", "--out", "db",
                 "--refs-per-app", "2"]) == 0
    capsys.readouterr()
    hashes = {}
    for name, argv in COMMANDS.items():
        code = main([*argv, "--corpus", "corpus.jsonl", "--json"])
        out = capsys.readouterr().out
        hashes[name] = f"{code} " + hashlib.sha256(out.encode()).hexdigest()
    for path in sorted(Path(".").rglob("*")):
        if path.is_file():
            hashes[path.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def test_pipeline_outputs_match_manifest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    got = _run_pipeline(capsys)
    want = json.loads(MANIFEST.read_text())
    differ = {k: got.get(k) for k in sorted(want.keys() | got.keys()) if want.get(k) != got.get(k)}
    assert not differ, f"outputs differ from {MANIFEST.name} (name: new hash): {differ}"


def test_pipeline_outputs_match_manifest_without_the_c_parser(tmp_path, monkeypatch, capsys):
    """Every corpus line parsed by json alone gives the same bytes."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tracemodel, "_line_parser", lambda: None)
    want = json.loads(MANIFEST.read_text())
    assert _run_pipeline(capsys) == want
